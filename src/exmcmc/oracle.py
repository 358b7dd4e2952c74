"""Brute-force exact computations on tiny instances.

The ground truth behind the sampler checks: full joint laws of
``(X0, Xtilde_1, ..., Xtilde_M)`` under the null, exact exchangeability
distances, exact rejection probabilities, and fiber enumeration for
margin-fixed binary matrices.  Zero cleverness on purpose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .chains import BinaryMatrix
from .errors import TractabilityError
from .kernel import DiscreteDistribution, DiscreteKernel, check_law, reversal
from .pvalue import exact_level
from .samplers import MarkedTree

MAX_TUPLES = 1_000_000


@dataclass(frozen=True)
class JointLaw:
    """Exact joint pmf over (M+1)-tuples of states."""

    support: tuple
    mass: tuple

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError("support tuples must be unique")
        check_law(self.mass)

    @property
    def n_draws(self) -> int:
        return len(self.support[0]) - 1

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.mass))

    def marginal(self, coordinate: int) -> dict:
        out: dict = {}
        for t, m in zip(self.support, self.mass):
            out[t[coordinate]] = out.get(t[coordinate], 0.0) + m
        return out


def _guard(n_states: int, exponent: int) -> None:
    if n_states**exponent > MAX_TUPLES:
        raise TractabilityError(
            f"{n_states}^{exponent} assignments exceed the {MAX_TUPLES} guard"
        )


def _prune(support, mass) -> JointLaw:
    kept = [(t, m) for t, m in zip(support, mass) if m > 0.0]
    return JointLaw(tuple(t for t, _ in kept), tuple(m for _, m in kept))


def exact_joint(
    method,
    kernel: DiscreteKernel,
    target: DiscreteDistribution,
    n_draws: int | None = None,
    step: int = 1,
) -> JointLaw:
    """Exact joint law of the observed point and the comparison draws.

    ``method`` is one of ``"iid"``, ``"sequential"``, ``"parallel"``,
    ``"permuted_serial"``, or a :class:`MarkedTree` (for which ``n_draws``
    is taken from the tree, and each edge is one ``step``-step super-step,
    as in :func:`~exmcmc.samplers.sample_tree` with a pair of that step size).
    """
    if isinstance(method, MarkedTree):
        return _exact_joint_tree(method, kernel, target, step)
    if n_draws is None:
        raise ValueError("n_draws is required for non-tree methods")
    n = len(kernel)
    m = n_draws
    _guard(n, m + 1)
    pi = target.mass
    fwd = kernel.power(step)
    tuples = list(itertools.product(range(n), repeat=m + 1))

    if method == "iid":
        mass = [float(np.prod([pi[i] for i in t])) for t in tuples]
    elif method == "sequential":
        mass = []
        for t in tuples:
            w = pi[t[0]]
            for a, b in zip(t, t[1:]):
                w *= fwd[a, b]
            mass.append(float(w))
    elif method == "parallel":
        back = reversal(kernel, target).power(step)
        mass = []
        for t in tuples:
            w = 0.0
            for hub in range(n):
                term = pi[t[0]] * back[t[0], hub]
                for i in t[1:]:
                    term *= fwd[hub, i]
                w += term
            mass.append(float(w))
    elif method == "permuted_serial":
        back = reversal(kernel, target).power(step)
        perms = list(itertools.permutations(range(m + 1)))
        weight = 1.0 / len(perms)
        mass = [0.0] * len(tuples)
        for sigma in perms:
            m_star = sigma[0]
            for idx, t in enumerate(tuples):
                y = [None] * (m + 1)
                for i, pos in enumerate(sigma):
                    y[pos] = t[i]
                w = pi[y[m_star]]
                for j in range(m_star - 1, -1, -1):
                    w *= back[y[j + 1], y[j]]
                for j in range(m_star + 1, m + 1):
                    w *= fwd[y[j - 1], y[j]]
                mass[idx] += weight * float(w)
    else:
        raise ValueError(f"unknown sampler description {method!r}")

    state_tuples = tuple(tuple(kernel.states[i] for i in t) for t in tuples)
    return _prune(state_tuples, mass)


def _exact_joint_tree(
    tree: MarkedTree, kernel: DiscreteKernel, target: DiscreteDistribution, step: int
) -> JointLaw:
    """Generic tree-method law: enumerate every vertex assignment and root."""
    n = len(kernel)
    _guard(n, tree.vertex_count)
    m = tree.n_draws
    pi = target.mass
    fwd = kernel.power(step)
    back = reversal(kernel, target).power(step)

    # Rooted edge orientation per possible starting mark.
    plans = {m_star: tree.rooted_edges(root) for m_star, root in enumerate(tree.marks)}

    perms = list(itertools.permutations(range(m + 1)))
    weight = 1.0 / len(perms)
    acc: dict = {}
    for assignment in itertools.product(range(n), repeat=tree.vertex_count):
        for sigma in perms:
            m_star = sigma[0]
            root = tree.marks[m_star]
            w = pi[assignment[root]]
            for u, v, with_flow in plans[m_star]:
                matrix = fwd if with_flow else back
                w *= matrix[assignment[u], assignment[v]]
                if w == 0.0:
                    break
            if w == 0.0:
                continue
            t = tuple(
                kernel.states[assignment[tree.marks[sigma[i]]]] for i in range(m + 1)
            )
            acc[t] = acc.get(t, 0.0) + weight * float(w)
    support = tuple(acc)
    return _prune(support, tuple(acc[t] for t in support))


def exchangeability_distance(law: JointLaw) -> float:
    """Max over permutations of the TV distance between the law and its image."""
    table = law.as_dict()
    m1 = law.n_draws + 1
    worst = 0.0
    for sigma in itertools.permutations(range(m1)):
        keys = set(table)
        permuted = {}
        for t, mass in table.items():
            permuted[tuple(t[sigma[i]] for i in range(m1))] = mass
        keys |= set(permuted)
        tv = 0.5 * sum(abs(table.get(k, 0.0) - permuted.get(k, 0.0)) for k in keys)
        worst = max(worst, tv)
    return worst


def exact_rejection_probability(
    law: JointLaw,
    statistic: Callable[[object], float],
    alpha: float,
    tie_break: str = "deterministic",
) -> float:
    """Exact ``P(p_mc <= alpha)`` under the given joint law.

    ``tie_break="deterministic"`` follows the conservative >= counting;
    ``"randomized"`` integrates the uniform-rank-among-ties variant exactly.
    """
    if alpha >= 1:
        return 1.0
    m1 = law.n_draws + 1
    alpha_frac = exact_level(alpha)
    total = 0.0
    for t, mass in zip(law.support, law.mass):
        t0 = statistic(t[0])
        values = [statistic(x) for x in t[1:]]
        greater = sum(1 for v in values if v > t0)
        ties = sum(1 for v in values if v == t0)
        if tie_break == "deterministic":
            if Fraction(greater + ties + 1, m1) <= alpha_frac:
                total += mass
        elif tie_break == "randomized":
            # p = (greater + v + 1)/(M+1) with v uniform on {0..ties}
            k_max = math.floor(alpha_frac * m1)
            allowed = min(ties, k_max - greater - 1) + 1
            if allowed > 0:
                total += mass * allowed / (ties + 1)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
    return total


def enumerate_fiber(row_sums: Sequence[int], col_sums: Sequence[int]):
    """All binary matrices with the given margins (dimensions capped at 5x5)."""
    rows = list(row_sums)
    cols = list(col_sums)
    if len(rows) > 5 or len(cols) > 5:
        raise TractabilityError("enumerate_fiber supports dimensions up to 5x5")
    if sum(rows) != sum(cols):
        return []
    j = len(cols)
    candidates = []
    for r in rows:
        if not 0 <= r <= j:
            return []
        options = []
        for ones in itertools.combinations(range(j), r):
            row = [0] * j
            for c in ones:
                row[c] = 1
            options.append(tuple(row))
        candidates.append(options)
    out = []
    target = tuple(cols)
    for grid in itertools.product(*candidates):
        if tuple(sum(col) for col in zip(*grid)) == target:
            out.append(BinaryMatrix(grid))
    return out


def count_fiber(row_sums: Sequence[int], col_sums: Sequence[int]) -> int:
    """Independent recursive count of the fiber size (cross-check)."""
    rows = sorted(row_sums, reverse=True)
    if sum(rows) != sum(col_sums):
        return 0

    def recurse(rows_left, cols_left):
        if not rows_left:
            return 1 if all(c == 0 for c in cols_left) else 0
        r = rows_left[0]
        total = 0
        j = len(cols_left)
        for ones in itertools.combinations(range(j), r):
            new_cols = list(cols_left)
            ok = True
            for c in ones:
                new_cols[c] -= 1
                if new_cols[c] < 0:
                    ok = False
                    break
            if ok:
                total += recurse(rows_left[1:], tuple(new_cols))
        return total

    return recurse(rows, tuple(col_sums))
