"""Concrete chains and test statistics used by the experiments.

Covers the autoregressive chain on the real line, the bimodal +-1
Metropolis-Hastings chain on {1..100}, the margin-preserving binary-matrix
swap chain, and the permutation chain for the conditional permutation test.
"""

from __future__ import annotations

import itertools
import math
import operator
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
        return KernelPair(self.step, self.step, step_size=step_size, reversible=True)

    def lag(self, step: int) -> tuple:
        """``(rho**L, sqrt(1 - rho**(2L)))``: L steps are one step of correlation ``rho**L``."""
        if step < 1:
            raise ValueError("step must be >= 1")
        rho_l = self.rho**step
        return rho_l, math.sqrt(1.0 - rho_l * rho_l)

    def spokes(
        self, x_star, n: int | tuple, step_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized batch of independent L-step draws from ``x_star``.

        ``n`` is the batch size or shape, and ``x_star`` (a float or an
        array) broadcasts against it.  By :meth:`lag`, a super-step is one normal draw.
        """
        rho_l, scale = self.lag(step_size)
        return rho_l * x_star + scale * rng.standard_normal(n)


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
    f = target.mass
    up = 0.5 * np.minimum(1.0, f[1:] / f[:-1])  # i -> i + 1
    down = 0.5 * np.minimum(1.0, f[:-1] / f[1:])  # i + 1 -> i
    matrix = np.diag(up, 1) + np.diag(down, -1)
    np.fill_diagonal(matrix, 1.0 - np.append(up, 0.0) - np.append(0.0, down))
    return DiscreteKernel(target.states, matrix)


# -- Margin-preserving binary-matrix swap chain ----------------------------


class BinaryMatrix:
    """An I x J 0/1 matrix with cached row and column sums."""

    def __init__(self, entries):
        entries = np.asarray(entries)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        # Checked before the cast, which would truncate 0.5 to 0 and 1.7 to 1.
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("entries must be 0 or 1")
        self.entries = entries.astype(np.int8, copy=False)
        self.row_sums = self.entries.sum(axis=1)
        self.col_sums = self.entries.sum(axis=0)

    @property
    def shape(self):
        return self.entries.shape

    def __eq__(self, other):
        return (
            isinstance(other, BinaryMatrix)
            and self.entries.shape == other.entries.shape
            and self.entries.tobytes() == other.entries.tobytes()
        )

    def __hash__(self):
        return hash(self.entries.tobytes())


def _cells(code, rows: int, cols: int) -> tuple:
    """The flat offsets of cells (i,k), (i,l), (j,k) and (j,l) of the swap code(s)
    ``code``, an int or an int array: ordered rows ``i != j`` and columns ``k != l``."""
    code, l = divmod(code, cols - 1)
    code, k = divmod(code, cols)
    i, j = divmod(code, rows - 1)
    j += j >= i  # row i and column k are skipped: j != i and l != k
    l += l >= k
    i, j = i * cols, j * cols
    return i + k, i + l, j + k, j + l


def _flips(m: BinaryMatrix, links) -> list:
    """The state after each link of :func:`_cells` quadruples from ``m``, each 2x2 flipped if a
    checkerboard: the last state if none is, else a new int8 matrix sharing ``m``'s margins."""
    entries = flat = m.entries.tobytes()
    out = []
    for quads in links:
        moved = False
        for ik, il, jk, jl in quads:
            a, b = flat[ik], flat[il]
            if a != b and flat[jk] == b and flat[jl] == a:
                if flat is entries:
                    flat = bytearray(entries)
                flat[ik], flat[il], flat[jk], flat[jl] = b, a, a, b
                moved = True
        if moved:
            last, m = m, BinaryMatrix.__new__(BinaryMatrix)
            m.entries = np.ndarray(last.entries.shape, np.int8, flat).copy()
            m.row_sums, m.col_sums = last.row_sums, last.col_sums
        out.append(m)
    return out


def checkerboard_swap_step(m: BinaryMatrix, rng: np.random.Generator) -> BinaryMatrix:
    """One lazy checkerboard swap: preserves margins exactly.

    One integer draw picks a uniformly random ordered pair of rows and of
    columns, whose 2x2 submatrix flips if it is a checkerboard.  The proposal
    is symmetric, so the chain is reversible with respect to the uniform law
    on the margin-fixed fiber.  On a 20x12 matrix a step takes about 4 us.
    """
    rows, cols = m.entries.shape
    n_proposals = rows * (rows - 1) * cols * (cols - 1)
    quads = (_cells(int(rng.integers(n_proposals)), rows, cols),) if n_proposals else ()
    return _flips(m, (quads,))[0]


def _swap_path(m: BinaryMatrix, count: int, steps: int, rng: np.random.Generator) -> list:
    """The step's ``path``: one ``rng.integers(n_proposals, size=count * steps)`` call (the
    scalar steps' codes and stream), one numpy :func:`_cells` decode read through memoryviews
    and one :func:`_flips` loop.  On a 20x12 matrix 99 links of 50 steps take about 1.0 ms."""
    rows, cols = m.entries.shape
    n_proposals = rows * (rows - 1) * cols * (cols - 1)
    if not n_proposals:
        return [m] * count
    codes = rng.integers(n_proposals, size=count * steps)
    quads = zip(*map(memoryview, _cells(codes, rows, cols)))
    links = map(itertools.islice, itertools.repeat(quads, count), itertools.repeat(steps, count))
    return _flips(m, links)


checkerboard_swap_step.path = _swap_path


def checkerboard_swap_run(m: BinaryMatrix, steps: int, rng: np.random.Generator) -> BinaryMatrix:
    """``steps`` calls of :func:`checkerboard_swap_step`, batched: the
    one-link path.  On a 20x12 matrix a 50-step run takes about 40 us."""
    return _swap_path(m, 1, steps, rng)[0]


def association_statistic(m: BinaryMatrix) -> int:
    """Sum over column pairs of the squared shared-1 row count.

    The plain shared-1 total is constant on every margin-fixed fiber (it
    equals the sum of per-row pair counts, a function of the row sums
    alone), so the squared version is used when testing within a fiber: a
    planted column-pair association concentrates shared rows on one pair
    and raises the sum of squares while the total stays fixed.  The float
    Gram matrix is exact for these counts, and its diagonal is the column sums.
    """
    entries = m.entries.astype(np.float64)
    gram = (entries.T @ entries).astype(np.int64)
    return (int(np.vdot(gram, gram)) - int(m.col_sums @ m.col_sums)) // 2


def format_binary_matrix(m: BinaryMatrix) -> str:
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def parse_binary_matrix(text: str) -> BinaryMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    try:
        rows, cols = map(int, lines[0].split())
        if rows < 1 or cols < 1:
            raise ValueError
    except ValueError:
        raise MatrixFormatError("line 1: header must be 'rows cols', both positive") from None
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"expected {rows} grid rows, got {len(lines) - 1}")
    grid = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split()
        if len(values) != cols:
            raise MatrixFormatError(f"line {lineno}: expected {cols} entries")
        if not set(values) <= {"0", "1"}:
            raise MatrixFormatError(f"line {lineno}: entries must be 0 or 1")
        grid.append([int(v) for v in values])
    return BinaryMatrix(grid)


# -- Conditional-permutation-test chain ------------------------------------


@dataclass(frozen=True)
class PermutationState:
    """A permutation of {0..n-1} with its cached log target weight."""

    perm: tuple
    log_weight: float


def _log_density_table(q_log) -> np.ndarray:
    """``q_log`` as a finite, square, nonempty float table; anything else is a ValueError."""
    q_log = np.asarray(q_log, dtype=float)
    if q_log.ndim != 2 or not q_log.shape[0] == q_log.shape[1] >= 1:
        raise ValueError(f"q_log must be a nonempty square table, got shape {q_log.shape}")
    if not np.isfinite(q_log).all():
        raise ValueError("q_log must be finite everywhere")
    return q_log


def make_permutation_state(perm, q_log: np.ndarray) -> PermutationState:
    """Build a state and validate the log-density table.

    ``q_log[i, j]`` is the log density of observed value i at slot j; the
    target weight of a permutation is ``sum_j q_log[perm[j], j]``.  The
    entries of ``perm`` must be integers: 1.5 or "1" is an error, not 1.
    """
    q_log = _log_density_table(q_log)
    try:
        perm = tuple(map(operator.index, perm))
    except TypeError:
        raise ValueError("perm entries must be integers") from None
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


@dataclass(eq=False)
class _CptStep:
    """:func:`cpt_swap_step` on one table, carrying :func:`cpt_swap_spokes`, which
    runs a fan of spokes in lockstep; a module-level class, so that its pair pickles."""

    q_log: np.ndarray

    def __call__(self, state, rng):
        return cpt_swap_step(state, self.q_log, rng)

    def spokes(self, state, n: int, steps: int, rng: np.random.Generator) -> list:
        return cpt_swap_spokes(state, self.q_log, n, steps, rng)


def cpt_pair(q_log: np.ndarray, step_size: int = 1) -> KernelPair:
    """Kernel pair for the (reversible) permutation swap chain of :func:`cpt_swap_step`."""
    step = _CptStep(_log_density_table(q_log))
    return KernelPair(step, step, step_size=step_size, reversible=True)


def cpt_target(q_log: np.ndarray) -> DiscreteDistribution:
    """Exact permutation target law by full enumeration (small n only)."""
    q_log = _log_density_table(q_log)
    n = q_log.shape[0]
    perms = list(itertools.permutations(range(n)))
    logs = np.array([sum(q_log[p[j], j] for j in range(n)) for p in perms])
    logs -= logs.max()
    weights = np.exp(logs)
    return DiscreteDistribution(tuple(perms), weights / weights.sum())


def cpt_transition_matrix(q_log: np.ndarray) -> DiscreteKernel:
    """Exact n!-state transition matrix of the swap chain (small n only)."""
    q_log = _log_density_table(q_log)
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
