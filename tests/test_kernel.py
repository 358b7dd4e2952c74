"""Kernel algebra: reversal, stationarity, detailed balance, super-steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmcmc import fixtures
from exmcmc.chains import bimodal_target, mh_pm1_kernel
from exmcmc.errors import (
    DimensionMismatchError,
    NotReversibleError,
    ReversalUndefinedError,
    StationarityViolationError,
    UnsupportedRepresentationError,
)
from exmcmc.kernel import (
    DiscreteDistribution,
    DiscreteKernel,
    KernelPair,
    is_reversible,
    is_stationary,
    reversal,
)

EXACT = 1e-12


def random_chain(draw_floats, n):
    """A random row-stochastic kernel and its exact stationary law."""
    matrix = np.array(draw_floats((n, n))) + 1e-3
    matrix /= matrix.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(matrix.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi) / np.abs(pi).sum()
    kernel = DiscreteKernel(tuple(range(n)), matrix)
    target = DiscreteDistribution(tuple(range(n)), pi)
    return kernel, target


random_units = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=9, max_size=9
)


class TestDiscreteDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(("a", "b"), [-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(("a", "b"), [0.5, 0.6])

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(("a", "a"), [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteDistribution(("a", "b", "c"), [0.5, 0.5])

    def test_sampler_matches_mass(self, rng):
        dist = DiscreteDistribution(("a", "b", "c"), [0.6, 0.3, 0.1])
        n = 200_000
        idx = dist.sample_indices(rng, n)
        for i, mass in enumerate([0.6, 0.3, 0.1]):
            rate = float((idx == i).mean())
            se = np.sqrt(mass * (1 - mass) / n)
            assert abs(rate - mass) <= 4 * se


class TestDiscreteKernel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            DiscreteKernel(("a", "b"), [[0.5, 0.4], [0.2, 0.8]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DiscreteKernel(("a", "b"), [[1.1, -0.1], [0.2, 0.8]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteKernel(("a", "b"), [[0.5, 0.5]])

    def test_power_one_is_identity_operation(self, uniform_walk):
        kernel, _ = uniform_walk
        assert np.array_equal(kernel.power(1), kernel.matrix)

    def test_power_matches_repeated_multiplication(self, uniform_walk):
        kernel, _ = uniform_walk
        expected = kernel.matrix @ kernel.matrix @ kernel.matrix
        assert np.allclose(kernel.power(3), expected, atol=EXACT)

    def test_sampler_matches_matrix(self, rng):
        """Empirical one-step frequencies match matrix entries within 4 SE."""
        kernel, _ = fixtures.lazy_walk_skewed()
        n = 1_000_000
        start = 1  # state 'b' has three distinct successor masses
        counts = np.zeros(3)
        for _ in range(n):
            counts[kernel.step_index(start, rng)] += 1
        for j in range(3):
            p = kernel.matrix[start, j]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) <= 4 * se


class TestStationarity:
    def test_uniform_walk_stationary(self, uniform_walk):
        kernel, target = uniform_walk
        report = is_stationary(kernel, target)
        assert report.stationary
        assert report.max_residual <= EXACT

    def test_all_fixtures_stationary(self):
        for name, kernel, target in fixtures.three_state_fixtures():
            report = is_stationary(kernel, target)
            assert report.stationary, name

    def test_stationary_under_powers(self):
        for name, kernel, target in fixtures.three_state_fixtures():
            for steps in (1, 2, 5):
                residual = float(
                    np.max(np.abs(target.mass @ kernel.power(steps) - target.mass))
                )
                assert residual <= 1e-10, (name, steps)

    def test_non_stationary_detected(self, uniform_walk):
        kernel, _ = uniform_walk
        wrong = DiscreteDistribution(("a", "b", "c"), [0.8, 0.1, 0.1])
        assert not is_stationary(kernel, wrong).stationary

    def test_state_list_mismatch(self, uniform_walk):
        kernel, _ = uniform_walk
        other = DiscreteDistribution(("x", "y", "z"), [1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(DimensionMismatchError):
            is_stationary(kernel, other)


class TestReversal:
    def test_reversal_identity_all_fixtures(self):
        """f(x) k(x,y) == f(y) khat(y,x) entrywise for every fixture."""
        for name, kernel, target in fixtures.three_state_fixtures():
            rev = reversal(kernel, target)
            f = target.mass
            lhs = kernel.matrix * f[:, None]
            rhs = (rev.matrix * f[:, None]).T
            assert np.max(np.abs(lhs - rhs)) <= EXACT, name

    def test_double_reversal_is_identity(self):
        for name, kernel, target in fixtures.three_state_fixtures():
            double = reversal(reversal(kernel, target), target)
            assert np.max(np.abs(double.matrix - kernel.matrix)) <= EXACT, name

    def test_reversible_kernel_is_own_reversal(self, skewed_walk):
        kernel, target = skewed_walk
        assert is_reversible(kernel, target)
        rev = reversal(kernel, target)
        assert np.max(np.abs(rev.matrix - kernel.matrix)) <= EXACT

    def test_non_reversible_kernel_differs(self):
        kernel, target = fixtures.biased_cycle()
        assert not is_reversible(kernel, target)
        rev = reversal(kernel, target)
        assert np.max(np.abs(rev.matrix - kernel.matrix)) > 0.1

    def test_drift_cycle_not_reversible(self, drift_cycle):
        kernel, target = drift_cycle
        assert not is_reversible(kernel, target)

    def test_zero_mass_state_rejected(self, uniform_walk):
        kernel, _ = uniform_walk
        degenerate = DiscreteDistribution(("a", "b", "c"), [0.5, 0.5, 0.0])
        with pytest.raises(ReversalUndefinedError):
            reversal(kernel, degenerate)

    def test_non_stationary_target_rejected(self, uniform_walk):
        kernel, _ = uniform_walk
        wrong = DiscreteDistribution(("a", "b", "c"), [0.8, 0.1, 0.1])
        with pytest.raises(StationarityViolationError) as info:
            reversal(kernel, wrong)
        assert info.value.max_residual > 0

    @settings(max_examples=50, deadline=None)
    @given(units=random_units)
    def test_reversal_identities_on_random_chains(self, units):
        it = iter(units)
        kernel, target = random_chain(
            lambda shape: np.array([next(it) for _ in range(9)]).reshape(shape), 3
        )
        rev = reversal(kernel, target, tol=1e-8)
        f = target.mass
        lhs = kernel.matrix * f[:, None]
        rhs = (rev.matrix * f[:, None]).T
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        double = reversal(rev, target, tol=1e-8)
        assert np.max(np.abs(double.matrix - kernel.matrix)) <= 1e-9


class TestKernelPair:
    def test_from_discrete_records_reversibility(self, skewed_walk):
        kernel, target = skewed_walk
        pair = KernelPair.from_discrete(kernel, target)
        assert pair.reversible
        assert pair.is_discrete

    def test_super_step_matches_matrix_power_law(self, rng):
        """Matrix-power super-steps have the L-step law of base stepping."""
        kernel, target = fixtures.lazy_walk_skewed()
        pair = KernelPair.from_discrete(kernel, target, step_size=3)
        n = 200_000
        counts = {s: 0 for s in kernel.states}
        for _ in range(n):
            counts[pair.super_forward("a", rng)] += 1
        expected = kernel.power(3)[0]
        for j, s in enumerate(kernel.states):
            p = expected[j]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[s] / n - p) <= 4 * se

    def test_callable_pair_loops_steps(self, rng):
        calls = []

        def fwd(state, r):
            calls.append(state)
            return state + 1

        pair = KernelPair(fwd, fwd, step_size=4)
        assert pair.super_forward(0, rng) == 4
        assert calls == [0, 1, 2, 3]
        assert not pair.is_discrete

    def test_require_discrete_rejects_callables(self, rng):
        pair = KernelPair(lambda s, r: s, lambda s, r: s)
        with pytest.raises(UnsupportedRepresentationError):
            pair.require_discrete()

    def test_step_size_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelPair(lambda s, r: s, lambda s, r: s, step_size=0)

    def test_spokes_require_a_reversible_pair(self):
        """A spokes batch serves both directions, so it needs reversibility."""

        def spokes(state, n, steps, rng):
            return [state] * n

        with pytest.raises(NotReversibleError):
            KernelPair(lambda s, r: s, lambda s, r: s, spokes=spokes)
        pair = KernelPair(lambda s, r: s, lambda s, r: s, reversible=True, spokes=spokes)
        assert pair.fan("a", 3, False, None) == ["a", "a", "a"]

    def test_fan_without_batch_takes_single_super_steps(self):
        pair = KernelPair(lambda s, r: s + 1, lambda s, r: s - 1, step_size=2)
        assert pair.fan(0, 3, True, None) == [2, 2, 2]
        assert pair.fan(0, 2, False, None) == [-2, -2]


class TopOfUnitInterval:
    """Generator stub whose every uniform is the largest double below 1."""

    def random(self, size=None):
        top = float(np.nextafter(1.0, 0.0))
        return top if size is None else np.full(size, top)


class TestInverseCdfAtTopOfUnitInterval:
    """``rng.random()`` can return ``1 - 2**-53``, above the rounded totals of
    the bimodal law and of many of its kernel rows; every lookup must still
    land on a state the law can reach."""

    def test_target_sample(self):
        target = bimodal_target()
        assert target.prob(target.sample(TopOfUnitInterval())) > 0

    @pytest.mark.parametrize("step", [1, 100])
    def test_super_steps(self, step):
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, step)
        rng = TopOfUnitInterval()
        for kernel, move in (
            (pair.forward_kernel, pair.super_forward),
            (pair.reverse_kernel, pair.super_reverse),
        ):
            law = kernel.power(step)
            for x in target.states:
                y = move(x, rng)
                assert law[kernel.index(x), kernel.index(y)] > 0, (x, y)

    @pytest.mark.parametrize("step", [1, 100])
    def test_fans(self, step):
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, step)
        rng = TopOfUnitInterval()
        for kernel, with_flow in ((pair.forward_kernel, True), (pair.reverse_kernel, False)):
            law = kernel.power(step)
            for x in target.states:
                for y in pair.fan(x, 3, with_flow, rng):
                    assert law[kernel.index(x), kernel.index(y)] > 0, (x, y)
