"""Kernel algebra: reversal, stationarity, detailed balance, super-steps."""

import inspect
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmcmc import fixtures
from exmcmc.chains import BinaryMatrix, bimodal_target, checkerboard_swap_step, mh_pm1_kernel
from exmcmc.errors import (
    DimensionMismatchError,
    ReversalUndefinedError,
    StationarityViolationError,
    UnsupportedRepresentationError,
)
from exmcmc.kernel import (
    DiscreteDistribution,
    DiscreteKernel,
    KernelPair,
    _pinned_cumsum,
    is_reversible,
    is_stationary,
    reversal,
)
from exmcmc.pvalue import p_infinity_discrete
from exmcmc.rng import substream
from exmcmc.samplers import sample_parallel, sample_permuted_serial

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
        # NaN and +inf fail the one law check too.
        for mass in ([-0.1, 1.1], [np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                DiscreteDistribution(("a", "b"), mass)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(("a", "b"), [0.5, 0.6])

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(("a", "a"), [0.5, 0.5])
        with pytest.raises(ValueError, match="at least one state"):
            DiscreteDistribution((), [])

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

    def test_pickle_round_trip_samples_alike(self):
        target = bimodal_target()
        copy = pickle.loads(pickle.dumps(target))
        assert copy.states == target.states
        assert copy.sample(substream(5)) == target.sample(substream(5))


class FixedUniforms:
    """Generator stub that hands out the given uniforms in turn, one or
    ``size`` at a time."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, size=None):
        if size is None:
            return next(self.values)
        return np.array([next(self.values) for _ in range(size)])


class TestDiscreteKernel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            DiscreteKernel(("a", "b"), [[0.5, 0.4], [0.2, 0.8]])
        with pytest.raises(ValueError, match="at least one state"):
            DiscreteKernel((), np.zeros((0, 0)))

    def test_rejects_negative_entries(self):
        # NaN and +inf fail the one law check too.
        for row in ([1.1, -0.1], [np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                DiscreteKernel(("a", "b"), [row, [0.2, 0.8]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteKernel(("a", "b"), [[0.5, 0.5]])

    def test_power_one_is_identity_operation(self, uniform_walk):
        kernel, _ = uniform_walk
        assert np.array_equal(kernel.power(1), kernel.matrix)

    def test_power_that_is_no_law_is_rejected(self, rng):
        """Rounding in a long product drifts the rows of the bimodal kernel off 1
        (by about 6e-12 at L = 10**6 and 5e-9 at L = 10**9): past 1e-10 the
        power is an error naming L, and so is a draw from it."""
        kernel = mh_pm1_kernel(bimodal_target())
        assert np.allclose(kernel.power(10**6).sum(axis=1), 1.0, rtol=0, atol=1e-10)
        for steps in (10**9, 10**15, 10**18):
            with pytest.raises(ValueError, match=f"the L = {steps} power"):
                kernel.power(steps)
        with pytest.raises(ValueError, match=f"the L = {10**18} power"):
            kernel.run(50, 10**18, rng)

    def test_power_matches_repeated_multiplication(self, uniform_walk):
        kernel, _ = uniform_walk
        expected = kernel.matrix @ kernel.matrix @ kernel.matrix
        assert np.allclose(kernel.power(3), expected, atol=EXACT)

    @pytest.mark.parametrize("step", [1, 20, 100])
    def test_pinned_rows_are_sorted(self, step):
        """Rounding takes some bimodal 100-step rows' totals past 1; the
        pinned rows still never descend, and each ends at 1."""
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, step)
        for kernel in (pair.forward, pair.reverse):
            cum = _pinned_cumsum(kernel.power(step))
            assert (np.diff(cum, axis=1) >= 0).all()
            assert (cum[:, -1] == 1.0).all()

    @pytest.mark.parametrize("step", [1, 100])
    def test_run_is_the_sorted_lookup(self, step):
        """``run`` lands where ``np.searchsorted(row, u, side="right")`` does,
        at 0, at the largest double below 1, and at and just below every
        cumulative value below 1, on every bimodal row in both directions;
        so does the bimodal target's ``sample`` on its cumulative masses."""
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, step)
        lookups = [(target.sample, _pinned_cumsum(target.mass))]
        for kernel in (pair.forward, pair.reverse):
            for i, row in enumerate(_pinned_cumsum(kernel.power(step))):
                lookups.append((partial(kernel.run, kernel.states[i], step), row))
        for draw, row in lookups:
            inner = row[row < 1.0]
            us = [0.0, float(np.nextafter(1.0, 0.0)), *inner, *np.nextafter(inner, 0.0)]
            rng = FixedUniforms(us)
            got = [draw(rng) for _ in us]
            want = np.searchsorted(row, us, side="right")
            assert got == [target.states[j] for j in want]

    @settings(max_examples=50, deadline=None)
    @given(
        units=random_units,
        step=st.integers(1, 4),
        us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_run_is_the_sorted_lookup_on_random_chains(self, units, step, us):
        it = iter(units)
        kernel, _ = random_chain(
            lambda shape: np.array([next(it) for _ in range(9)]).reshape(shape), 3
        )
        cum = _pinned_cumsum(kernel.power(step))
        rng = FixedUniforms(us * 3)
        for i, row in enumerate(cum):
            want = np.searchsorted(row, us, side="right").tolist()
            assert [kernel.run(i, step, rng) for _ in us] == want

    @pytest.mark.parametrize("step", [1, 100])
    def test_path_is_chained_runs(self, step):
        """From every bimodal state, in both directions, ``path`` gives the
        states of ``count`` chained :meth:`run` calls on the same uniforms,
        among them 0 and the largest double below 1; on a generator it also
        leaves the stream where they leave it, for a one-link chain too."""
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, step)
        top = float(np.nextafter(1.0, 0.0))
        us = [0.0, top, *substream(4).random(20).tolist(), top, 0.0, 0.5]
        for kernel in (pair.forward, pair.reverse):
            for x in kernel.states:
                rng, want, state = FixedUniforms(us), [], x
                for _ in us:
                    state = kernel.run(state, step, rng)
                    want.append(state)
                assert kernel.path(x, len(us), step, FixedUniforms(us)) == want
                for count in (1, 7):
                    a, b = substream(5, x), substream(5, x)
                    state, want = x, []
                    for _ in range(count):
                        state = kernel.run(state, step, a)
                        want.append(state)
                    assert kernel.path(x, count, step, b) == want
                    assert a.random() == b.random()

    def test_used_kernel_pickles(self):
        """A pair pickles after its kernels have drawn (their cached rows are
        memoryviews, which cannot be pickled), and the copy draws alike."""
        target = bimodal_target()
        pair = KernelPair.from_discrete(mh_pm1_kernel(target), target, 100)
        copies = []
        for sample in (sample_parallel, sample_permuted_serial):
            sample(pair, 50, 9, substream(1))
            copies.append(pickle.loads(pickle.dumps(pair)))
        for sample in (sample_parallel, sample_permuted_serial):
            outs = []
            for p in (pair, *copies):
                rng = substream(2)
                draws = sample(p, 60, 9, rng).draws
                outs.append((draws, p.super_reverse(draws[0], rng), rng.random()))
            assert outs[0] == outs[1] == outs[2]

    def test_sampler_matches_matrix(self, rng):
        """Empirical one-step frequencies match matrix entries within 4 SE."""
        kernel, _ = fixtures.lazy_walk_skewed()
        n = 1_000_000
        start = 1  # state 'b' has three distinct successor masses
        counts = np.zeros(3)
        for _ in range(n):
            counts[kernel.index(kernel.step(kernel.states[start], rng))] += 1
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

    def test_state_list_mismatch(self, uniform_walk, skewed_walk):
        """A target over other states, or over fewer, is a named error for
        every check, also where the arithmetic would go through."""
        others = (
            DiscreteDistribution(("x", "y", "z"), [1 / 3, 1 / 3, 1 / 3]),
            DiscreteDistribution(("a", "b"), [0.5, 0.5]),
        )
        for kernel, _ in (uniform_walk, skewed_walk):
            for other in others:
                for check in (is_stationary, reversal, is_reversible):
                    with pytest.raises(DimensionMismatchError):
                        check(kernel, other)


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
        assert pair.forward is kernel

    def test_pair_takes_two_steps_and_an_l(self):
        assert list(inspect.signature(KernelPair).parameters) == [
            "forward", "reverse", "step_size", "reversible"
        ]

    def test_from_discrete_steps_are_the_kernel_and_its_reversal(self):
        kernel, target = fixtures.biased_cycle()
        pair = KernelPair.from_discrete(kernel, target, step_size=2)
        assert pair.forward is kernel
        assert isinstance(pair.reverse, DiscreteKernel)
        assert pair.reverse.states == kernel.states
        assert np.array_equal(pair.reverse.matrix, reversal(kernel, target).matrix)
        assert not pair.reversible and pair.step_size == 2
        # A kernel called as a step is its one-step run, on the same stream.
        a, b = substream(1), substream(1)
        assert [kernel("a", a) for _ in range(20)] == [kernel.run("a", 1, b) for _ in range(20)]
        assert a.random() == b.random()

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
        assert pair.forward is fwd

    def test_require_discrete_rejects_callables(self, rng):
        """A matrix-only operation on a callable pair names the representation."""
        pair = KernelPair(lambda s, r: s, lambda s, r: s)
        with pytest.raises(UnsupportedRepresentationError):
            p_infinity_discrete(pair, lambda s: 0.0, 0)

    def test_step_size_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelPair(lambda s, r: s, lambda s, r: s, step_size=0)

    def test_non_reversible_pair_may_carry_spokes(self):
        """Fans run only with the flow, so the forward step of any pair may
        carry ``spokes``; ``fan`` hands it the pair's step size."""
        calls = []

        def spokes(state, n, steps, rng):
            calls.append((state, n, steps))
            return [state] * n

        forward = lambda s, r: s
        forward.spokes = spokes
        pair = KernelPair(forward, lambda s, r: s, step_size=5)
        assert not pair.reversible
        assert pair.fan("a", 3, None) == ["a", "a", "a"]
        assert calls == [("a", 3, 5)]

    def test_only_the_forward_steps_spokes_make_a_fan(self):
        """A lambda step that carries ``spokes`` is the fan path, looked up
        when the fan is drawn; spokes on the reverse step are never used."""

        def spokes(state, n, steps, rng):
            return ["spoke"] * n

        forward = lambda s, r: s + 1
        reverse = lambda s, r: s - 1
        reverse.spokes = spokes
        pair = KernelPair(forward, reverse, step_size=2)
        assert pair.fan(0, 3, None) == [2, 2, 2]
        forward.spokes = spokes
        assert pair.fan(0, 3, None) == ["spoke"] * 3

    def test_fan_without_batch_takes_single_super_steps(self):
        pair = KernelPair(lambda s, r: s + 1, lambda s, r: s - 1, step_size=2)
        assert pair.fan(0, 3, None) == [2, 2, 2]


class CountingGenerator:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, seed):
        self.gen = substream(seed)
        self.integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self.gen.integers(*args, **kwargs)


def _swap_start(seed=3):
    return BinaryMatrix(substream(seed).random((20, 12)) < 0.4)


class TestStepRun:
    def test_super_steps_call_the_steps_path(self):
        """A base step's ``path`` takes the whole super-step, in each
        direction, as a one-link chain; a chain is one call."""
        calls = []

        def step(state, rng):
            raise AssertionError("the path replaces the loop")

        def path(state, count, steps, rng):
            calls.append((state, count, steps, rng))
            return [state + steps * k for k in range(1, count + 1)]

        step.path = path
        pair = KernelPair(step, step, step_size=7)
        assert pair.super_forward(1, "rng") == 8
        assert pair.super_reverse(2, "rng") == 9
        assert pair.fan(0, 2, "rng") == [7, 7]
        assert calls == [(1, 1, 7, "rng"), (2, 1, 7, "rng"), (0, 1, 7, "rng"), (0, 1, 7, "rng")]
        assert pair.chain(3, 2, False, "rng") == [10, 17]
        assert calls[-1] == (3, 2, 7, "rng")

    @pytest.mark.parametrize("direction", ["super_forward", "super_reverse"])
    def test_swap_super_step_is_one_integers_call(self, direction):
        pair = KernelPair(
            checkerboard_swap_step, checkerboard_swap_step, step_size=50, reversible=True
        )
        rng = CountingGenerator(5)
        getattr(pair, direction)(_swap_start(), rng)
        assert rng.integer_calls == 1

    def test_wrapper_without_run_gives_the_same_results(self):
        """A pair of wrapped steps (no ``path``, as under a tracer) loops
        single steps and gives bit-identical super-steps and samples."""
        plain = KernelPair(
            checkerboard_swap_step, checkerboard_swap_step, step_size=50, reversible=True
        )
        wrapped = KernelPair(
            lambda m, r: checkerboard_swap_step(m, r),
            lambda m, r: checkerboard_swap_step(m, r),
            step_size=50,
            reversible=True,
        )
        x0 = _swap_start()
        for seed in range(20):
            outs = []
            for pair in (plain, wrapped):
                rng = substream(seed)
                fwd = pair.super_forward(x0, rng)
                rev = pair.super_reverse(fwd, rng)
                draws = sample_permuted_serial(pair, x0, 9, rng).draws
                outs.append(
                    ([s.entries.tobytes() for s in (fwd, rev, *draws)], fwd is x0, rng.random())
                )
            assert outs[0] == outs[1]


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
            (pair.forward, pair.super_forward),
            (pair.reverse, pair.super_reverse),
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
        kernel = pair.forward
        law = kernel.power(step)
        for x in target.states:
            for y in pair.fan(x, 3, rng):
                assert law[kernel.index(x), kernel.index(y)] > 0, (x, y)
