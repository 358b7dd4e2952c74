"""Concrete chains and test statistics used by the experiments.

Covers the autoregressive chain on the real line, the bimodal +-1
Metropolis-Hastings chain on {1..100}, the margin-preserving binary-matrix
swap chain, and the permutation chain for the conditional permutation test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError
from .kernel import DiscreteDistribution, DiscreteKernel, KernelPair


# -- AR(1) -----------------------------------------------------------------


@dataclass(frozen=True)
class Ar1Kernel:
    """Order-one autoregressive chain; standard normal is stationary.

    The chain is reversible, so forward and reverse steps coincide.
    """

    rho: float

    def __post_init__(self):
        if not -1 < self.rho < 1:
            raise ValueError("rho must lie in (-1, 1)")

    def step(self, x: float, rng: np.random.Generator) -> float:
        return self.rho * x + math.sqrt(1.0 - self.rho**2) * rng.standard_normal()

    def pair(self, step_size: int = 1) -> KernelPair:
        def spokes(x_star, n, steps, rng):
            return self.spokes(x_star, n, steps, rng).tolist()

        return KernelPair(
            self.step, self.step, step_size=step_size, reversible=True, spokes=spokes
        )

    def spokes(
        self, x_star, n: int | tuple, step_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized batch of independent L-step draws from ``x_star``.

        ``n`` is the batch size or shape, and ``x_star`` (a float or an
        array) broadcasts against it.  Composing L steps gives an autoregressive draw with correlation
        ``rho**L``, so a super-step is a single normal draw.
        """
        rho_l = self.rho**step_size
        return rho_l * x_star + math.sqrt(1.0 - rho_l**2) * rng.standard_normal(n)


# -- Bimodal Metropolis-Hastings chain on {1..100} -------------------------


def _normal_density(x: float, mean: float, var: float) -> float:
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def bimodal_target() -> DiscreteDistribution:
    """Equal mixture of two discretized normal bumps at 25 and 75."""
    states = tuple(range(1, 101))
    raw = np.array(
        [
            0.5 * _normal_density(x, 25.0, 36.0) + 0.5 * _normal_density(x, 75.0, 36.0)
            for x in states
        ]
    )
    return DiscreteDistribution(states, raw / raw.sum())


def mh_pm1_kernel(target: DiscreteDistribution) -> DiscreteKernel:
    """Metropolis-Hastings chain with +-1 proposals, reversible for the target.

    Proposals leaving the state space are rejected in place, which keeps the
    kernel reversible.
    """
    if np.any(target.mass <= 0):
        raise ValueError("mh_pm1_kernel requires strictly positive target masses")
    n = len(target)
    f = target.mass
    matrix = np.zeros((n, n))
    for i in range(n):
        up = 0.5 * min(1.0, f[i + 1] / f[i]) if i + 1 < n else 0.0
        down = 0.5 * min(1.0, f[i - 1] / f[i]) if i - 1 >= 0 else 0.0
        if i + 1 < n:
            matrix[i, i + 1] = up
        if i - 1 >= 0:
            matrix[i, i - 1] = down
        matrix[i, i] = 1.0 - up - down
    return DiscreteKernel(target.states, matrix)


# -- Margin-preserving binary-matrix swap chain ----------------------------


class BinaryMatrix:
    """An I x J 0/1 matrix with cached row and column sums."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.int8)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("entries must be 0 or 1")
        self.entries = entries
        self.row_sums = entries.sum(axis=1)
        self.col_sums = entries.sum(axis=0)

    @property
    def shape(self):
        return self.entries.shape

    def __eq__(self, other):
        return isinstance(other, BinaryMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())


def checkerboard_swap_step(m: BinaryMatrix, rng: np.random.Generator) -> BinaryMatrix:
    """One lazy checkerboard swap: preserves margins exactly.

    Picks a uniformly random pair of rows and pair of columns; if the 2x2
    submatrix is a checkerboard, flips it to the other checkerboard,
    otherwise stays put.  The proposal is symmetric, so the chain is
    reversible with respect to the uniform law on the margin-fixed fiber.
    """
    rows, cols = m.shape
    if rows < 2 or cols < 2:
        return m
    i = int(rng.integers(rows))
    j = int(rng.integers(rows - 1))
    if j >= i:
        j += 1
    k = int(rng.integers(cols))
    l = int(rng.integers(cols - 1))
    if l >= k:
        l += 1
    e = m.entries
    a, b, c, d = e[i, k], e[i, l], e[j, k], e[j, l]
    if a == d and b == c and a != b:
        new = e.copy()
        new[i, k] = b
        new[i, l] = a
        new[j, k] = d
        new[j, l] = c
        out = BinaryMatrix.__new__(BinaryMatrix)
        out.entries = new
        out.row_sums = m.row_sums
        out.col_sums = m.col_sums
        return out
    return m


def cooccurrence_statistic(m: BinaryMatrix) -> int:
    """Number of (row, column-pair) incidences where both columns carry a 1.

    Invariant under row permutations; discriminates planted column
    associations in the margin-conditioned test.
    """
    gram = m.entries.T.astype(np.int64) @ m.entries.astype(np.int64)
    return int((gram.sum() - np.trace(gram)) // 2)


def association_statistic(m: BinaryMatrix) -> int:
    """Sum over column pairs of the squared shared-1 row count.

    The plain shared-1 total is constant on every margin-fixed fiber (it
    equals the sum of per-row pair counts, a function of the row sums
    alone), so the squared version is used when testing within a fiber: a
    planted column-pair association concentrates shared rows on one pair
    and raises the sum of squares while the total stays fixed.
    """
    gram = m.entries.T.astype(np.int64) @ m.entries.astype(np.int64)
    off = gram * gram
    return int((off.sum() - np.trace(off)) // 2)


def format_binary_matrix(m: BinaryMatrix) -> str:
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def parse_binary_matrix(text: str) -> BinaryMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError("line 1: header must be 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError("line 1: header must be 'rows cols'") from None
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"expected {rows} grid rows, got {len(lines) - 1}")
    grid = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split()
        if len(values) != cols:
            raise MatrixFormatError(f"line {lineno}: expected {cols} entries")
        try:
            grid.append([int(v) for v in values])
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: entries must be 0 or 1") from None
    return BinaryMatrix(grid)


# -- Conditional-permutation-test chain ------------------------------------


@dataclass(frozen=True)
class PermutationState:
    """A permutation of {0..n-1} with its cached log target weight."""

    perm: tuple
    log_weight: float


def make_permutation_state(perm, q_log: np.ndarray) -> PermutationState:
    """Build a state and validate the log-density table.

    ``q_log[i, j]`` is the log density of observed value i at slot j; the
    target weight of a permutation is ``sum_j q_log[perm[j], j]``.
    """
    q_log = np.asarray(q_log, dtype=float)
    if not np.isfinite(q_log).all():
        raise ValueError("q_log must be finite everywhere")
    perm = tuple(int(p) for p in perm)
    n = q_log.shape[0]
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    weight = float(sum(q_log[perm[j], j] for j in range(n)))
    return PermutationState(perm, weight)


def cpt_swap_step(
    s: PermutationState, q_log: np.ndarray, rng: np.random.Generator
) -> PermutationState:
    """Metropolis transposition step targeting the permutation weight law.

    Proposes swapping two uniformly chosen slots; the acceptance ratio only
    involves the four affected table entries, and the cached log weight is
    updated incrementally.  The uniform is drawn only for a downhill move and
    compared with ``exp(delta)``, so a uniform of exactly 0 is accepted
    unless ``exp(delta)`` underflows to 0.
    """
    n = len(s.perm)
    j = int(rng.integers(n))
    k = int(rng.integers(n))
    if j == k:
        return s
    pj, pk = s.perm[j], s.perm[k]
    delta = q_log[pk, j] + q_log[pj, k] - q_log[pj, j] - q_log[pk, k]
    if delta >= 0 or rng.random() < math.exp(delta):
        perm = list(s.perm)
        perm[j], perm[k] = pk, pj
        return PermutationState(tuple(perm), s.log_weight + float(delta))
    return s


def cpt_swap_spokes(
    s: PermutationState, q_log: np.ndarray, n: int, steps: int, rng: np.random.Generator
) -> list:
    """``n`` independent ``steps``-step runs of :func:`cpt_swap_step` from ``s``.

    The runs advance in lockstep as an ``(n, len(s.perm))`` permutation array
    and a log-weight vector.  All slot pairs and uniforms of the fan are drawn
    up front, in one ``integers`` and one ``random`` call, so the stream
    differs from ``n`` scalar runs while the law is the same.  A slot pair
    with ``j == k`` has ``delta == 0`` and swaps a slot with itself.
    """
    size = len(s.perm)
    perms = np.empty((n, size), dtype=np.intp)
    perms[:] = s.perm
    log_weight = np.full(n, s.log_weight)
    # Flat views: run r's slot j is perms_flat[r * size + j], and table entry
    # q_log[i, j] is q_flat[i * size + j].
    perms_flat = perms.reshape(-1)
    q_flat = np.asarray(q_log, dtype=float).reshape(-1)
    run_base = np.arange(n) * size
    slot_pairs = rng.integers(size, size=(steps, 2, n))
    uniforms = rng.random((steps, n))
    for (j, k), u in zip(slot_pairs, uniforms):
        slot_j, slot_k = run_base + j, run_base + k
        pj, pk = perms_flat[slot_j], perms_flat[slot_k]
        row_j, row_k = pj * size, pk * size
        delta = (
            q_flat[row_k + j] + q_flat[row_j + k] - q_flat[row_j + j] - q_flat[row_k + k]
        )
        # exp of a non-positive delta cannot overflow, and u == 0 needs no log.
        moved = (delta >= 0) | (u < np.exp(np.minimum(delta, 0.0)))
        perms_flat[slot_j] = np.where(moved, pk, pj)
        perms_flat[slot_k] = np.where(moved, pj, pk)
        log_weight += np.where(moved, delta, 0.0)
    return [
        PermutationState(tuple(perm), weight)
        for perm, weight in zip(perms.tolist(), log_weight.tolist())
    ]


def cpt_pair(q_log: np.ndarray, step_size: int = 1) -> KernelPair:
    """Kernel pair for the (reversible) permutation swap chain.

    Single steps are :func:`cpt_swap_step`; a fan of spokes runs
    :func:`cpt_swap_spokes` in lockstep.
    """
    q_log = np.asarray(q_log, dtype=float)
    if not np.isfinite(q_log).all():
        raise ValueError("q_log must be finite everywhere")

    def step(state, rng):
        return cpt_swap_step(state, q_log, rng)

    def spokes(state, n, steps, rng):
        return cpt_swap_spokes(state, q_log, n, steps, rng)

    return KernelPair(step, step, step_size=step_size, reversible=True, spokes=spokes)


def cpt_target(q_log: np.ndarray) -> DiscreteDistribution:
    """Exact permutation target law by full enumeration (small n only)."""
    q_log = np.asarray(q_log, dtype=float)
    n = q_log.shape[0]
    perms = list(itertools.permutations(range(n)))
    logs = np.array([sum(q_log[p[j], j] for j in range(n)) for p in perms])
    logs -= logs.max()
    weights = np.exp(logs)
    return DiscreteDistribution(tuple(perms), weights / weights.sum())


def cpt_transition_matrix(q_log: np.ndarray) -> DiscreteKernel:
    """Exact n!-state transition matrix of the swap chain (small n only)."""
    q_log = np.asarray(q_log, dtype=float)
    n = q_log.shape[0]
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    matrix = np.zeros((size, size))
    pair_prob = 2.0 / (n * n)  # ordered (j, k) and (k, j) propose the same swap
    for p, row in zip(perms, range(size)):
        stay = n / (n * n)  # j == k proposals
        for j in range(n):
            for k in range(j + 1, n):
                q = list(p)
                q[j], q[k] = q[k], q[j]
                delta = (
                    q_log[p[k], j] + q_log[p[j], k] - q_log[p[j], j] - q_log[p[k], k]
                )
                accept = 1.0 if delta >= 0 else math.exp(delta)
                matrix[row, index[tuple(q)]] += pair_prob * accept
                stay += pair_prob * (1.0 - accept)
        matrix[row, row] += stay
    return DiscreteKernel(tuple(perms), matrix)
