"""Small fixed chains used by the test corpus and the CLI.

The constructions are frozen here so that exact thresholds asserted against
them (e.g. the non-exchangeability of sequential sampling on the skewed
walk) stay stable.
"""

from __future__ import annotations

from .kernel import DiscreteDistribution, DiscreteKernel


def lazy_walk_uniform():
    """Lazy symmetric walk on a triangle; uniform stationary law, reversible."""
    kernel = DiscreteKernel(
        ("a", "b", "c"),
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
    )
    target = DiscreteDistribution(("a", "b", "c"), [1 / 3, 1 / 3, 1 / 3])
    return kernel, target


def biased_cycle():
    """Doubly stochastic but non-reversible drift around a 3-cycle."""
    kernel = DiscreteKernel(
        ("a", "b", "c"),
        [[0.2, 0.6, 0.2], [0.2, 0.2, 0.6], [0.6, 0.2, 0.2]],
    )
    target = DiscreteDistribution(("a", "b", "c"), [1 / 3, 1 / 3, 1 / 3])
    return kernel, target


def lazy_walk_skewed():
    """Lazy +-1 Metropolis walk with unequal stationary masses (0.6, 0.3, 0.1).

    Reversible; its reversal equals itself, which exercises the reversal
    machinery on a non-uniform target.
    """
    target = DiscreteDistribution(("a", "b", "c"), [0.6, 0.3, 0.1])
    kernel = DiscreteKernel(
        ("a", "b", "c"),
        [
            [0.75, 0.25, 0.0],
            [0.5, 1 / 3, 1 / 6],
            [0.0, 0.5, 0.5],
        ],
    )
    return kernel, target


def drift_cycle_skewed():
    """Walk drifting around the 3-cycle, lazy at one state, unequal masses.

    Stationary law (2/5, 3/10, 3/10); strongly non-reversible.  This is the
    fixture on which sequential sampling demonstrably fails exchangeability
    and validity: with two comparison draws and the state-index statistic,
    P(p <= 1/3) = 3/8 exactly (data at 'c' forces both draws below it; data
    at 'b' does so with probability 1/4).
    """
    target = DiscreteDistribution(("a", "b", "c"), [0.4, 0.3, 0.3])
    kernel = DiscreteKernel(
        ("a", "b", "c"),
        [
            [0.25, 0.0, 0.75],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ],
    )
    return kernel, target


def three_state_fixtures():
    return [
        ("lazy_walk_uniform", *lazy_walk_uniform()),
        ("biased_cycle", *biased_cycle()),
        ("lazy_walk_skewed", *lazy_walk_skewed()),
        ("drift_cycle_skewed", *drift_cycle_skewed()),
    ]


def two_state():
    """The 2-state fixture for the limiting-mixture computations."""
    kernel = DiscreteKernel((0, 1), [[0.9, 0.1], [0.2, 0.8]])
    target = DiscreteDistribution((0, 1), [2 / 3, 1 / 3])
    return kernel, target


def state_index_statistic(kernel: DiscreteKernel):
    """T(state) = position of the state in the kernel's ordered state list."""
    return kernel.index
