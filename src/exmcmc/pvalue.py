"""The p-value calculus.

Monte Carlo p-values are exact rationals; conversion to float happens only at
reporting boundaries so that threshold comparisons never suffer rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .chains import Ar1Kernel
from .errors import InvalidStatisticError, UnsupportedRepresentationError
from .kernel import DiscreteDistribution, DiscreteKernel, KernelPair, check_law


def _check_finite(values) -> None:
    # NaN is the one value unequal to itself, whatever its type (Python float,
    # numpy float32/float64, ...); this is also much cheaper than isinstance
    # checks against numbers.Real.
    for v in values:
        if v != v:
            raise InvalidStatisticError("test statistic evaluated to NaN")


def p_mc(t0: float, t_draws: Sequence[float]) -> Fraction:
    """Monte Carlo p-value ``(#{t_i >= t0} + 1) / (M + 1)``.

    Ties count toward the numerator (conservative).  Returned as an exact
    rational in ``[1/(M+1), 1]``.
    """
    _check_finite([t0])
    _check_finite(t_draws)
    count = sum(1 for t in t_draws if t >= t0)
    return Fraction(count + 1, len(t_draws) + 1)


def exact_level(alpha) -> Fraction:
    """``alpha`` as written, for every ``p <= alpha``: the float 0.3 lies below 3/10."""
    return Fraction(alpha).limit_denominator(10**12)


def p_mc_randomized(
    t0: float, t_draws: Sequence[float], rng: np.random.Generator
) -> Fraction:
    """Variant with uniform rank among ties; used by exact-uniformity checks.

    Under an exchangeable sampler the result is exactly uniform on
    ``{1/(M+1), ..., 1}``.
    """
    _check_finite([t0])
    _check_finite(t_draws)
    greater = sum(1 for t in t_draws if t > t0)
    ties = sum(1 for t in t_draws if t == t0)
    v = int(rng.integers(0, ties + 1))
    return Fraction(greater + v + 1, len(t_draws) + 1)


def p_analytic(
    target: DiscreteDistribution, statistic: Callable[[object], float], t0: float
) -> float:
    """Exact tail probability ``pi({x : T(x) >= t0})`` for an enumerable target."""
    if not isinstance(target, DiscreteDistribution):
        raise UnsupportedRepresentationError(
            "p_analytic requires an enumerable discrete target"
        )
    stats = [statistic(s) for s in target.states]
    _check_finite([t0, *stats])
    return float(sum(m for v, m in zip(stats, target.mass) if v >= t0))


def sqrt_epsilon(p) -> float:
    """The square-root correction ``min(1, sqrt(2 p))``.

    Makes a single sequential run of a reversible chain yield a valid
    p-value.
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    return min(1.0, math.sqrt(2 * float(p)))


@dataclass(frozen=True)
class AtomLaw:
    """A finite distribution over values in [0, 1]."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        check_law(self.probs)


def p_infinity_discrete(
    pair: KernelPair, statistic: Callable[[object], float], x0
) -> AtomLaw:
    """Exact limiting law of the parallel-method p-value as M grows.

    For each hub state ``s`` reachable by L reverse steps from ``x0``, the
    limit value is the L-step forward mass of ``{T >= T(x0)}`` from ``s``,
    weighted by the reverse L-step probability of ``s``.
    """
    kernel, rev = pair.forward, pair.reverse
    if not (isinstance(kernel, DiscreteKernel) and isinstance(rev, DiscreteKernel)):
        raise UnsupportedRepresentationError("operation requires a matrix-backed kernel")
    L = pair.step_size
    fwd = kernel.power(L)
    back = rev.power(L)
    t0 = statistic(x0)
    stats = [statistic(s) for s in kernel.states]
    _check_finite([t0, *stats])
    tail = np.array([v >= t0 for v in stats], dtype=float)
    i0 = kernel.index(x0)
    values = []
    probs = []
    for s in range(len(kernel)):
        weight = back[i0, s]
        if weight > 0:
            values.append(float(fwd[s] @ tail))
            probs.append(float(weight))
    try:
        return AtomLaw(tuple(values), tuple(probs))
    except ValueError as exc:  # power() allows rows off 1 by PRODUCT_TOL, AtomLaw by EXACT_TOL
        raise ValueError(f"the L = {L} limiting law is no law: {exc}") from None


# -- Normal CDF / quantile -------------------------------------------------

normal_cdf = NormalDist().cdf
normal_quantile = NormalDist().inv_cdf


def p_infinity_ar1(x0: float, rho: float, step: int, z_star: float) -> float:
    """Limiting parallel-method p-value for the autoregressive chain.

    ``1 - Phi(sqrt(1 - rho^(2L)) * x0 - rho^L * z_star)`` where ``z_star`` is
    the standard-normal innovation behind the hub draw.  No subcommand calls
    it: ``pinfty`` lists the atoms of a finite chain's limiting law, and this
    law is continuous in ``z_star``, so it has none; ``power-curve`` uses its
    average over ``x0`` and ``z_star``, :func:`power_parallel_limit`.
    """
    rho_l, shrink = Ar1Kernel(rho).lag(step)
    return 1.0 - normal_cdf(shrink * x0 - rho_l * z_star)


def power_parallel_limit(mu: float, alpha: float, rho: float, step: int) -> float:
    """Limiting power of the parallel method against a shifted-mean normal.

    The chain dependence shrinks the signal by ``sqrt(1 - rho^(2L))``:
    ``1 - Phi(Phi^{-1}(1 - alpha) - sqrt(1 - rho^(2L)) * mu)``.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    _, shrink = Ar1Kernel(rho).lag(step)
    return 1.0 - normal_cdf(normal_quantile(1.0 - alpha) - shrink * mu)
