"""Markov transition kernels, reversals, and stationarity checks.

A chain enters the samplers as a :class:`KernelPair`: a forward step, its
time reversal and a super-step size L.  A step is a callable
``(state, rng) -> state`` that may carry its own batch paths, ``path`` for a
chain of L-step super-steps and ``spokes`` for a fan of them.  A finite
chain's step is a :class:`DiscreteKernel`, a row-stochastic matrix over an
ordered list of abstract state identifiers, which carries both.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    ReversalUndefinedError,
    StationarityViolationError,
)

# Tolerance for exact algebraic identities on matrices; accumulation through
# repeated matrix products is checked at PRODUCT_TOL instead.
EXACT_TOL = 1e-12
PRODUCT_TOL = 1e-10


def _pinned_cumsum(mass: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, clipped at 1, with each row's final
    run set to 1: a nondecreasing row that ends at 1.

    Rounding can leave a row's total just below 1 (the bimodal kernel's
    100-step rows end as low as 1 - 1.4e-15), and ``rng.random()`` can return
    up to ``1 - 2**-53``; an inverse-CDF lookup would then run off the end of
    the row.  Pinning every entry equal to the row's total, rather than only
    the last one, keeps trailing zero-mass states unreachable.  Clipping first
    keeps a row whose total is above 1 sorted, and moves no u in [0, 1).
    """
    cum = np.minimum(np.cumsum(mass, axis=-1), 1.0)
    cum[cum == cum[..., -1:]] = 1.0
    return cum


def check_law(table) -> np.ndarray:
    """``table`` as floats whose last axis holds laws: entries nonnegative, each
    law summing to 1 within ``EXACT_TOL``.  NaN fails both tests, and +-inf one."""
    table = np.asarray(table, dtype=float)
    if not (table >= 0).all():
        raise ValueError("masses must be nonnegative numbers")
    deviation = float(np.max(np.abs(table.sum(axis=-1) - 1.0)))
    if not deviation <= EXACT_TOL:
        raise ValueError(f"masses must sum to 1, max deviation {deviation!r}")
    return table


class _StateList:
    """Ordered, unique state identifiers and their positions."""

    def _over_states(self, states, table, ndim: int) -> np.ndarray:
        """Keep ``states``; return ``table`` with ``ndim`` axes over them, checked as a law."""
        states = tuple(states)
        if not states:
            raise ValueError("a law needs at least one state")
        table = np.asarray(table, dtype=float)
        shape = (len(states),) * ndim
        if table.shape != shape:
            raise DimensionMismatchError(f"table must be {shape} over the states, got {table.shape}")
        if len(set(states)) != len(states):
            raise ValueError("state identifiers must be unique")
        self.states = states
        self._index = {s: i for i, s in enumerate(states)}
        return check_law(table)

    def __len__(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._index[state]


class DiscreteDistribution(_StateList):
    """A finite target law: ordered states with point masses."""

    def __init__(self, states, mass):
        self.mass = self._over_states(states, mass, 1)
        self._cum = _pinned_cumsum(self.mass)
        self._row = self._cum.tolist()  # not a memoryview, which cannot be pickled

    def prob(self, state) -> float:
        return float(self.mass[self._index[state]])

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self._cum, rng.random(size), side="right")

    def sample(self, rng: np.random.Generator):
        """One draw: one ``rng.random()``, then the :meth:`DiscreteKernel.run` lookup."""
        return self.states[bisect_right(self._row, rng.random())]


class DiscreteKernel(_StateList):
    """A finite-state transition kernel as a row-stochastic matrix."""

    def __init__(self, states, matrix):
        self.matrix = self._over_states(states, matrix, 2)
        self._cums = {}

    def __getstate__(self):
        """Without the cached rows: memoryviews cannot be pickled, and a copy refills them."""
        return {**self.__dict__, "_cums": {}}

    def power(self, steps: int) -> np.ndarray:
        """Matrix of the ``steps``-step kernel; its rows must sum to 1 within ``PRODUCT_TOL``."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        power = np.linalg.matrix_power(self.matrix, steps)
        deviation = float(np.max(np.abs(power.sum(axis=1) - 1.0)))
        if not deviation <= PRODUCT_TOL:
            raise ValueError(f"the L = {steps} power's rows sum to 1 only within {deviation:.1e}")
        return power

    def _cumulative(self, steps: int) -> tuple:
        """The pinned cumulative ``steps``-step matrix, and its rows as slices of one memoryview."""
        if steps not in self._cums:
            cum = _pinned_cumsum(self.power(steps))
            flat, n = memoryview(cum.reshape(-1)), cum.shape[-1]
            self._cums[steps] = cum, [flat[i:i + n] for i in range(0, len(flat), n)]
        return self._cums[steps]

    def run(self, state, steps: int, rng: np.random.Generator):
        """One draw from the ``steps``-step law started at ``state``: one
        ``rng.random()``, then ``bisect_right`` on a view of the cached row, which
        finds ``np.searchsorted(row, u, side="right")``'s index."""
        rows = self._cumulative(steps)[1]
        return self.states[bisect_right(rows[self._index[state]], rng.random())]

    def path(self, state, count: int, steps: int, rng: np.random.Generator) -> list:
        """The states every ``steps`` steps along one chain from ``state``, ``count``
        times: one :meth:`run` lookup per link, on the doubles of ``count`` scalar
        ``rng.random()`` calls, which one ``rng.random(count)`` gives for two or more."""
        rows, states = self._cumulative(steps)[1], self.states
        i = self._index[state]
        if count == 1:
            return [states[bisect_right(rows[i], rng.random())]]
        out = []
        for u in rng.random(count).tolist():
            i = bisect_right(rows[i], u)
            out.append(states[i])
        return out

    def step(self, state, rng: np.random.Generator):
        """One base step; the kernel is itself a step."""
        return self.run(state, 1, rng)

    __call__ = step

    def spokes(self, state, n: int, steps: int, rng: np.random.Generator) -> list:
        """``n`` independent ``steps``-step draws from ``state``, as a list.

        One ``rng.random(n)`` and one ``searchsorted`` on the cached
        cumulative row: the stream moves exactly as ``n`` calls of
        :meth:`step` would, and gives the same states.
        """
        row = self._cumulative(steps)[0][self._index[state]]
        states = self.states
        picks = np.searchsorted(row, rng.random(n), side="right")
        return [states[i] for i in picks.tolist()]


class StationarityReport(NamedTuple):
    stationary: bool
    max_residual: float


def is_stationary(
    kernel: DiscreteKernel, target: DiscreteDistribution, tol: float = EXACT_TOL
) -> StationarityReport:
    """Check ``f(y) = sum_x f(x) k(x, y)`` for every state ``y``."""
    if kernel.states != target.states:
        raise DimensionMismatchError("kernel and target must share the same state list")
    residual = float(np.max(np.abs(target.mass @ kernel.matrix - target.mass)))
    return StationarityReport(residual <= tol, residual)


def reversal(
    kernel: DiscreteKernel, target: DiscreteDistribution, tol: float = 1e-9
) -> DiscreteKernel:
    """The time-reverse kernel ``khat(y, x) = f(x) k(x, y) / f(y)``.

    Requires a strictly positive target that is stationary for the kernel;
    the reversal is then unique.
    """
    if kernel.states != target.states:
        raise DimensionMismatchError("kernel and target must share the same state list")
    if np.any(target.mass <= 0):
        raise ReversalUndefinedError("reversal undefined: target has a zero-mass state")
    report = is_stationary(kernel, target, tol)
    if not report.stationary:
        raise StationarityViolationError(
            f"target is not stationary for the kernel (max residual {report.max_residual:.3e})",
            report.max_residual,
        )
    f = target.mass
    khat = (kernel.matrix * f[:, None]).T / f[:, None]
    return DiscreteKernel(kernel.states, khat)


def is_reversible(
    kernel: DiscreteKernel, target: DiscreteDistribution, tol: float = EXACT_TOL
) -> bool:
    """Detailed balance: ``f(x) k(x, y) == f(y) k(y, x)`` entrywise."""
    if kernel.states != target.states:
        raise DimensionMismatchError("kernel and target must share the same state list")
    flux = kernel.matrix * target.mass[:, None]
    return float(np.max(np.abs(flux - flux.T))) <= tol


def _loop(step: Callable, state, steps: int, rng: np.random.Generator):
    """``steps`` single calls of a step."""
    for _ in range(steps):
        state = step(state, rng)
    return state


def chain_runs(run: Callable, state, count: int, steps: int, rng: np.random.Generator) -> list:
    """The ``path`` of a super-step ``run(state, steps, rng)``: ``count`` runs in turn."""
    out = []
    for _ in range(count):
        state = run(state, steps, rng)
        out.append(state)
    return out


class KernelPair:
    """A forward step and its reversal, with an L-step super-step size.

    ``forward`` and ``reverse`` are base steps ``(state, rng) -> state``.  A
    step may carry ``path(state, count, steps, rng)``: the ``count`` states
    that ``count * steps`` single calls visit every ``steps`` calls, leaving
    ``rng`` where they leave it.  The pair binds it once, or a loop of single
    steps, for its chains.  The forward step may also carry
    ``spokes(state, n, steps, rng)``, a list of ``n`` independent forward
    ``steps``-step draws, each an ordinary state.
    """

    def __init__(
        self, forward: Callable, reverse: Callable, step_size: int = 1, reversible: bool = False
    ):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.forward = forward
        self.reverse = reverse
        self.step_size = step_size
        self.reversible = reversible
        self._forward_path, self._reverse_path = (
            getattr(step, "path", None) or partial(chain_runs, partial(_loop, step))
            for step in (forward, reverse)
        )

    @classmethod
    def from_discrete(
        cls,
        kernel: DiscreteKernel,
        target: DiscreteDistribution,
        step_size: int = 1,
    ) -> "KernelPair":
        return cls(kernel, reversal(kernel, target), step_size, is_reversible(kernel, target))

    def chain(self, state, count: int, with_flow: bool, rng: np.random.Generator) -> list:
        """The states after 1, ..., ``count`` super-steps along one chain from
        ``state``, forward if ``with_flow`` and reverse otherwise."""
        path = self._forward_path if with_flow else self._reverse_path
        return path(state, count, self.step_size, rng)

    def super_forward(self, state, rng: np.random.Generator):
        return self.chain(state, 1, True, rng)[0]

    def super_reverse(self, state, rng: np.random.Generator):
        return self.chain(state, 1, False, rng)[0]

    def fan(self, state, n: int, rng: np.random.Generator) -> list:
        """``n`` independent forward super-steps from ``state``, as a list.

        The forward step's ``spokes``, if it has one, draws them; otherwise
        the pair takes ``n`` single super-steps.  :meth:`DiscreteKernel.spokes`
        moves the stream exactly as the single super-steps would.
        """
        spokes = getattr(self.forward, "spokes", None)
        if spokes is not None:
            return spokes(state, n, self.step_size, rng)
        return [self.super_forward(state, rng) for _ in range(n)]
