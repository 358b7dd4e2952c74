"""Markov transition kernels, reversals, and stationarity checks.

Finite chains are represented as row-stochastic matrices over an ordered list
of abstract state identifiers.  Continuous chains (e.g. the autoregressive
chain in :mod:`exmcmc.chains`) implement the same step-sampler interface via
:class:`KernelPair` but do not support matrix operations.

A pair has one optional batch path, :meth:`KernelPair.fan`, which the tree
sampler uses for a vertex's same-flow leaf children (the spokes of the
parallel method).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotReversibleError,
    ReversalUndefinedError,
    StationarityViolationError,
    UnsupportedRepresentationError,
)

# Tolerance for exact algebraic identities on matrices; accumulation through
# repeated matrix products is checked at 1e-10 instead.
EXACT_TOL = 1e-12
POWER_TOL = 1e-10


def _pinned_cumsum(mass: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with each row's final run set to 1.

    Rounding can leave a row's total just below 1 (the bimodal kernel's
    100-step rows end as low as 1 - 1.4e-15), and ``rng.random()`` can return
    up to ``1 - 2**-53``; an inverse-CDF lookup would then run off the end of
    the row.  Pinning every entry equal to the row's total, rather than only
    the last one, keeps trailing zero-mass states unreachable.
    """
    cum = np.cumsum(mass, axis=-1)
    cum[cum == cum[..., -1:]] = 1.0
    return cum


class DiscreteDistribution:
    """A finite target law: ordered states with point masses."""

    def __init__(self, states, mass):
        states = tuple(states)
        mass = np.asarray(mass, dtype=float)
        if mass.ndim != 1 or len(states) != mass.shape[0]:
            raise DimensionMismatchError("states and mass must have equal length")
        if len(set(states)) != len(states):
            raise ValueError("state identifiers must be unique")
        if np.any(mass < 0):
            raise ValueError("masses must be nonnegative")
        if abs(mass.sum() - 1.0) > EXACT_TOL:
            raise ValueError(f"masses must sum to 1, got {mass.sum()!r}")
        self.states = states
        self.mass = mass
        self._index = {s: i for i, s in enumerate(states)}
        self._cum = _pinned_cumsum(mass)

    def __len__(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._index[state]

    def prob(self, state) -> float:
        return float(self.mass[self._index[state]])

    def sample_index(self, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self._cum, rng.random(), side="right"))

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self._cum, rng.random(size), side="right")

    def sample(self, rng: np.random.Generator):
        return self.states[self.sample_index(rng)]

    def sampler(self) -> Callable[[np.random.Generator], object]:
        """Direct i.i.d. sampler for this law (inverse-CDF on the mass table)."""
        return self.sample


class DiscreteKernel:
    """A finite-state transition kernel as a row-stochastic matrix."""

    def __init__(self, states, matrix):
        states = tuple(states)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape != (len(states), len(states)):
            raise DimensionMismatchError("matrix must be square over the state list")
        if len(set(states)) != len(states):
            raise ValueError("state identifiers must be unique")
        if np.any(matrix < 0):
            raise ValueError("transition probabilities must be nonnegative")
        rows = matrix.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > EXACT_TOL:
            raise ValueError(f"rows must sum to 1, max deviation {np.max(np.abs(rows - 1.0))!r}")
        self.states = states
        self.matrix = matrix
        self._index = {s: i for i, s in enumerate(states)}
        self._powers = {1: matrix}
        self._cums = {}

    def __len__(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._index[state]

    def power(self, steps: int) -> np.ndarray:
        """Matrix of the ``steps``-step kernel."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if steps not in self._powers:
            self._powers[steps] = np.linalg.matrix_power(self.matrix, steps)
        return self._powers[steps]

    def _cumulative(self, steps: int) -> np.ndarray:
        if steps not in self._cums:
            self._cums[steps] = _pinned_cumsum(self.power(steps))
        return self._cums[steps]

    def step_index(self, i: int, rng: np.random.Generator, steps: int = 1) -> int:
        """One draw from the ``steps``-step law started at state index ``i``."""
        cum = self._cumulative(steps)
        return int(np.searchsorted(cum[i], rng.random(), side="right"))

    def step(self, state, rng: np.random.Generator, steps: int = 1):
        return self.states[self.step_index(self._index[state], rng, steps)]

    def spokes(self, state, n: int, steps: int, rng: np.random.Generator) -> list:
        """``n`` independent ``steps``-step draws from ``state``, as a list.

        One ``rng.random(n)`` and one ``searchsorted`` on the cached
        cumulative row: the stream moves exactly as ``n`` calls of
        :meth:`step` would, and gives the same states.
        """
        row = self._cumulative(steps)[self._index[state]]
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
    flux = kernel.matrix * target.mass[:, None]
    return float(np.max(np.abs(flux - flux.T))) <= tol


class KernelPair:
    """A forward kernel and its reversal, with an L-step super-step size.

    ``forward`` and ``reverse`` are single base-step samplers
    ``(state, rng) -> state``.  ``super_forward``/``super_reverse`` apply the
    L-step law; for matrix-backed pairs these draw directly from the L-step
    matrix power, which has the same law as L sequential base steps.

    ``spokes(state, n, steps, rng)``, if given, returns a list of ``n``
    independent ``steps``-step draws from ``state``, each an ordinary state
    as ``forward`` would return it.  It is accepted only on reversible pairs,
    because :meth:`fan` uses it with the flow and against it alike.
    """

    def __init__(
        self,
        forward: Callable,
        reverse: Callable,
        step_size: int = 1,
        reversible: bool = False,
        forward_kernel: DiscreteKernel | None = None,
        reverse_kernel: DiscreteKernel | None = None,
        target: DiscreteDistribution | None = None,
        spokes: Callable | None = None,
    ):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        if spokes is not None and not reversible:
            raise NotReversibleError(
                "spokes serves both directions, so the pair must be reversible"
            )
        self.forward = forward
        self.reverse = reverse
        self.step_size = step_size
        self.reversible = reversible
        self.forward_kernel = forward_kernel
        self.reverse_kernel = reverse_kernel
        self.target = target
        self.spokes = spokes

    @classmethod
    def from_discrete(
        cls,
        kernel: DiscreteKernel,
        target: DiscreteDistribution,
        step_size: int = 1,
    ) -> "KernelPair":
        rev = reversal(kernel, target)
        return cls(
            forward=kernel.step,
            reverse=rev.step,
            step_size=step_size,
            reversible=is_reversible(kernel, target),
            forward_kernel=kernel,
            reverse_kernel=rev,
            target=target,
        )

    @property
    def is_discrete(self) -> bool:
        return self.forward_kernel is not None

    def require_discrete(self) -> DiscreteKernel:
        if self.forward_kernel is None:
            raise UnsupportedRepresentationError(
                "operation requires a matrix-backed kernel"
            )
        return self.forward_kernel

    def super_forward(self, state, rng: np.random.Generator):
        if self.forward_kernel is not None:
            return self.forward_kernel.step(state, rng, self.step_size)
        for _ in range(self.step_size):
            state = self.forward(state, rng)
        return state

    def super_reverse(self, state, rng: np.random.Generator):
        if self.reverse_kernel is not None:
            return self.reverse_kernel.step(state, rng, self.step_size)
        for _ in range(self.step_size):
            state = self.reverse(state, rng)
        return state

    def fan(self, state, n: int, with_flow: bool, rng: np.random.Generator) -> list:
        """``n`` independent super-steps from ``state``, as a list.

        With the flow they are forward super-steps, against it reverse ones.
        Matrix-backed pairs take :meth:`DiscreteKernel.spokes` of the
        matching kernel, which moves the stream exactly as ``n`` single
        super-steps do; pairs with ``spokes`` call it; any other pair takes
        ``n`` single super-steps.
        """
        if self.forward_kernel is not None:
            kernel = self.forward_kernel if with_flow else self.reverse_kernel
            return kernel.spokes(state, n, self.step_size, rng)
        if self.spokes is not None:
            return self.spokes(state, n, self.step_size, rng)
        move = self.super_forward if with_flow else self.super_reverse
        return [move(state, rng) for _ in range(n)]
