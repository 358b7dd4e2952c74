"""Concrete chains: AR(1), bimodal MH, checkerboard swaps, permutation chain."""

import math
import warnings

import numpy as np
import pytest

from exmcmc.chains import (
    Ar1Kernel,
    BinaryMatrix,
    association_statistic,
    bimodal_target,
    checkerboard_swap_step,
    cooccurrence_statistic,
    cpt_pair,
    cpt_swap_spokes,
    cpt_swap_step,
    cpt_target,
    cpt_transition_matrix,
    format_binary_matrix,
    make_permutation_state,
    mh_pm1_kernel,
    parse_binary_matrix,
)
from exmcmc.errors import MatrixFormatError
from exmcmc.kernel import DiscreteDistribution, is_reversible, is_stationary
from exmcmc.rng import substream


class TestAr1:
    def test_rho_validated(self):
        with pytest.raises(ValueError):
            Ar1Kernel(1.0)

    def test_standard_normal_stationary(self):
        """Moment test: stationary-start chain keeps mean 0, variance 1."""
        chain = Ar1Kernel(0.8)
        rng = substream(5)
        n = 100_000
        x = rng.standard_normal()
        samples = np.empty(n)
        for i in range(n):
            x = chain.step(x, rng)
            samples[i] = x
        # effective sample size shrinks by (1+rho)/(1-rho) under AR(1)
        ess = n * (1 - 0.8) / (1 + 0.8)
        assert abs(samples.mean()) <= 4 / math.sqrt(ess)
        assert abs(samples.var() - 1.0) <= 4 * math.sqrt(2 / ess)

    def test_spokes_match_step_composition_law(self):
        """The closed-form L-step batch has the moments of L composed steps."""
        chain = Ar1Kernel(0.6)
        rng = substream(6)
        x_star = 1.5
        draws = chain.spokes(x_star, 200_000, 3, rng)
        rho_l = 0.6**3
        assert draws.mean() == pytest.approx(rho_l * x_star, abs=0.01)
        assert draws.var() == pytest.approx(1 - rho_l**2, abs=0.02)

    def test_pair_is_reversible_flagged(self):
        pair = Ar1Kernel(0.5).pair(step_size=4)
        assert pair.reversible
        assert pair.step_size == 4


class TestBimodal:
    def test_target_normalized_and_bimodal(self):
        target = bimodal_target()
        assert len(target) == 100
        assert target.mass.sum() == pytest.approx(1.0, abs=1e-12)
        masses = dict(zip(target.states, target.mass))
        assert masses[25] > masses[50] and masses[75] > masses[50]

    def test_mixture_density_ratio(self):
        """Mass ratio of two states matches direct two-bump arithmetic."""
        target = bimodal_target()

        def bump(x, mean):
            return math.exp(-0.5 * (x - mean) ** 2 / 36.0)

        expected = (bump(25, 25) + bump(25, 75)) / (bump(50, 25) + bump(50, 75))
        assert target.prob(25) / target.prob(50) == pytest.approx(expected, rel=1e-12)

    def test_kernel_stationary_and_reversible(self):
        target = bimodal_target()
        kernel = mh_pm1_kernel(target)
        assert is_stationary(kernel, target).stationary
        assert is_reversible(kernel, target)

    def test_uniform_target_gives_half_steps(self):
        uniform = DiscreteDistribution((1, 2, 3), [1 / 3, 1 / 3, 1 / 3])
        kernel = mh_pm1_kernel(uniform)
        assert kernel.matrix[1, 0] == pytest.approx(0.5)
        assert kernel.matrix[1, 2] == pytest.approx(0.5)
        # boundaries reject in place
        assert kernel.matrix[0, 0] == pytest.approx(0.5)

    def test_acceptance_at_local_mode(self):
        """At x=25, the uphill move is the rare one: a(25,26) < 1."""
        target = bimodal_target()
        kernel = mh_pm1_kernel(target)
        a = min(1.0, target.prob(26) / target.prob(25))
        assert a < 1
        assert kernel.matrix[24, 25] == pytest.approx(a / 2, rel=1e-12)

    def test_zero_mass_target_rejected(self):
        with pytest.raises(ValueError):
            mh_pm1_kernel(DiscreteDistribution((1, 2), [1.0, 0.0]))


class TestBinaryMatrix:
    def test_margins_cached(self):
        m = BinaryMatrix([[1, 0], [1, 1]])
        assert list(m.row_sums) == [1, 2]
        assert list(m.col_sums) == [2, 1]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryMatrix([[0, 2]])

    def test_equality_and_hash(self):
        a = BinaryMatrix([[1, 0], [0, 1]])
        b = BinaryMatrix([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != BinaryMatrix([[0, 1], [1, 0]])


class TestCheckerboardSwap:
    def test_all_ones_never_moves(self, rng):
        m = BinaryMatrix(np.ones((3, 3), dtype=int))
        for _ in range(100):
            assert checkerboard_swap_step(m, rng) == m

    def test_two_by_two_identity_alternates(self, rng):
        m = BinaryMatrix([[1, 0], [0, 1]])
        other = BinaryMatrix([[0, 1], [1, 0]])
        seen = {checkerboard_swap_step(m, rng) for _ in range(50)}
        assert seen == {other}

    def test_small_matrix_noop(self, rng):
        m = BinaryMatrix([[1, 0]])
        assert checkerboard_swap_step(m, rng) == m

    @pytest.mark.soak
    def test_margin_conservation_soak(self):
        """10^6 steps on a 20x12 matrix: margins unchanged, exactly."""
        rng = substream(8)
        m = BinaryMatrix((rng.random((20, 12)) < 0.4).astype(int))
        rows, cols = m.row_sums.copy(), m.col_sums.copy()
        for _ in range(1_000_000):
            m = checkerboard_swap_step(m, rng)
        assert np.array_equal(m.entries.sum(axis=1), rows)
        assert np.array_equal(m.entries.sum(axis=0), cols)

    @pytest.mark.soak
    def test_unit_margin_fiber_uniform(self):
        """3x3 permutation fiber: occupancy uniform within 4 SE over 10^6 steps."""
        from exmcmc.oracle import enumerate_fiber

        fiber = enumerate_fiber((1, 1, 1), (1, 1, 1))
        assert len(fiber) == 6
        rng = substream(9)
        m = fiber[0]
        n = 1_000_000
        counts = {f: 0 for f in fiber}
        for _ in range(n):
            m = checkerboard_swap_step(m, rng)
            counts[m] += 1
        p = 1 / 6
        # swap-chain samples are autocorrelated; scale the binomial SE by the
        # integrated autocorrelation time of the lazy chain (acceptance ~2/9,
        # conservative factor 10 on the variance)
        se = math.sqrt(p * (1 - p) / n) * math.sqrt(10)
        for f, c in counts.items():
            assert abs(c / n - p) <= 4 * se


class TestMatrixStatistics:
    def test_cooccurrence_examples(self):
        assert cooccurrence_statistic(BinaryMatrix(np.zeros((3, 3), dtype=int))) == 0
        assert cooccurrence_statistic(BinaryMatrix(np.ones((2, 2), dtype=int))) == 2
        assert cooccurrence_statistic(BinaryMatrix(np.eye(3, dtype=int))) == 0

    def test_cooccurrence_row_permutation_invariant(self, rng):
        m = (rng.random((6, 5)) < 0.5).astype(int)
        perm = rng.permutation(6)
        assert cooccurrence_statistic(BinaryMatrix(m)) == cooccurrence_statistic(
            BinaryMatrix(m[perm])
        )

    def test_cooccurrence_constant_on_fiber(self, rng):
        """The shared-1 total is a function of the row sums alone, hence
        invariant under margin-preserving swaps."""
        m = BinaryMatrix((rng.random((8, 6)) < 0.5).astype(int))
        base = cooccurrence_statistic(m)
        expected = sum(r * (r - 1) // 2 for r in m.row_sums)
        assert base == expected
        for _ in range(500):
            m = checkerboard_swap_step(m, rng)
            assert cooccurrence_statistic(m) == base

    def test_association_varies_on_fiber(self, rng):
        m = BinaryMatrix((rng.random((10, 6)) < 0.5).astype(int))
        seen = set()
        for _ in range(2000):
            m = checkerboard_swap_step(m, rng)
            seen.add(association_statistic(m))
        assert len(seen) > 1

    def test_association_detects_planted_pair(self):
        aligned = BinaryMatrix(np.column_stack([np.ones(4, int), np.ones(4, int), np.zeros(4, int)]))
        spread = BinaryMatrix(
            [[1, 1, 0], [1, 0, 0], [1, 1, 0], [1, 1, 0]]
        )
        assert association_statistic(aligned) >= association_statistic(spread)


class TestBinaryMatrixFormat:
    def test_round_trip(self, rng):
        m = BinaryMatrix((rng.random((4, 7)) < 0.5).astype(int))
        text = format_binary_matrix(m)
        assert parse_binary_matrix(text) == m
        assert format_binary_matrix(parse_binary_matrix(text)) == text

    def test_header_shape(self):
        text = format_binary_matrix(BinaryMatrix([[1, 0]]))
        assert text == "1 2\n1 0\n"

    def test_errors_name_lines(self):
        with pytest.raises(MatrixFormatError, match="line 1"):
            parse_binary_matrix("1\n1 0\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            parse_binary_matrix("1 2\n1\n")
        with pytest.raises(MatrixFormatError, match="line 3"):
            parse_binary_matrix("2 2\n1 0\nx 1\n")
        with pytest.raises(MatrixFormatError):
            parse_binary_matrix("")


class TestPermutationChain:
    def test_state_validation(self):
        q = np.zeros((3, 3))
        with pytest.raises(ValueError):
            make_permutation_state((0, 0, 1), q)
        with pytest.raises(ValueError):
            make_permutation_state((0, 1, 2), np.full((3, 3), np.nan))

    def test_log_weight_cached_correctly(self, rng):
        q = rng.standard_normal((4, 4))
        state = make_permutation_state((2, 0, 3, 1), q)
        expected = sum(q[state.perm[j], j] for j in range(4))
        assert state.log_weight == pytest.approx(expected, abs=1e-12)

    def test_identity_proposal_keeps_state(self):
        q = np.zeros((2, 2))
        state = make_permutation_state((0, 1), q)

        class FixedRng:
            def __init__(self):
                self.calls = 0

            def integers(self, n):
                return 0

            def random(self):
                return 0.5

        assert cpt_swap_step(state, q, FixedRng()) is state

    @staticmethod
    def _downhill(delta):
        """Two slots, identity start: swapping slots 0 and 1 changes the log
        weight by ``delta``."""
        q = np.array([[0.0, 0.0], [delta, 0.0]])
        return make_permutation_state((0, 1), q), q

    class ZeroUniformRng:
        """Proposes slots 0 and 1 for every run; every uniform is exactly 0."""

        def __init__(self):
            self.slot = 1

        def integers(self, high, size=None):
            if size is not None:  # the lockstep chain's (steps, 2, n) draw
                slots = np.zeros(size, dtype=int)
                slots[:, 1] = 1
                return slots
            self.slot = 1 - self.slot  # j = 0, then k = 1
            return self.slot

        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)

    @pytest.mark.parametrize("delta, moves", [(-1.0, True), (-1000.0, False), (1000.0, True)])
    def test_zero_uniform_step(self, delta, moves):
        """A uniform of exactly 0 takes no log: it accepts unless exp(delta)
        underflows to 0."""
        state, q = self._downhill(delta)
        out = cpt_swap_step(state, q, self.ZeroUniformRng())
        assert out.perm == ((1, 0) if moves else (0, 1))
        assert out.log_weight == state.log_weight + (delta if moves else 0.0)

    @pytest.mark.parametrize("delta, moves", [(-1.0, True), (-1000.0, False), (1000.0, True)])
    def test_zero_uniform_spokes(self, delta, moves):
        """The lockstep chain neither takes log(0) nor warns on any delta."""
        state, q = self._downhill(delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cpt_swap_spokes(state, q, 4, 1, self.ZeroUniformRng())
        assert len(out) == 4
        for s in out:
            assert s.perm == ((1, 0) if moves else (0, 1))
            assert s.log_weight == state.log_weight + (delta if moves else 0.0)

    def test_spokes_are_permutations_with_cached_weights(self):
        rng = substream(14)
        q = rng.standard_normal((7, 7))
        start = make_permutation_state((3, 1, 4, 0, 6, 2, 5), q)
        out = cpt_swap_spokes(start, q, 50, 30, rng)
        assert len(out) == 50 and len({s.perm for s in out}) > 1
        for s in out:
            assert sorted(s.perm) == list(range(7))
            assert all(type(p) is int for p in s.perm)
            recomputed = sum(q[s.perm[j], j] for j in range(7))
            assert abs(s.log_weight - recomputed) <= 1e-12

    @pytest.mark.soak
    def test_log_weight_drift_soak(self):
        """Incremental cache stays within 1e-6 of recomputation over 10^6 steps."""
        rng = substream(10)
        q = rng.standard_normal((8, 8))
        state = make_permutation_state(range(8), q)
        for _ in range(1_000_000):
            state = cpt_swap_step(state, q, rng)
        recomputed = sum(q[state.perm[j], j] for j in range(8))
        assert abs(state.log_weight - recomputed) <= 1e-6

    @pytest.mark.soak
    def test_constant_q_uniform_occupancy(self):
        """Constant table: uniform over 3! permutations within 4 SE."""
        rng = substream(11)
        q = np.zeros((3, 3))
        state = make_permutation_state(range(3), q)
        n = 1_000_000
        counts = {}
        for _ in range(n):
            state = cpt_swap_step(state, q, rng)
            counts[state.perm] = counts.get(state.perm, 0) + 1
        p = 1 / 6
        # correlated samples: the transposition chain on S_3 mixes in O(1)
        # steps; allow a conservative variance inflation factor of 10
        se = math.sqrt(p * (1 - p) / n) * math.sqrt(10)
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / n - p) <= 4 * se

    def test_exact_stationarity_n4(self):
        """Brute-force 24-state transition matrix leaves the target invariant."""
        rng = substream(12)
        q = rng.standard_normal((4, 4))
        chain = cpt_transition_matrix(q)
        target = cpt_target(q)
        assert chain.states == target.states
        residual = float(np.max(np.abs(target.mass @ chain.matrix - target.mass)))
        assert residual <= 1e-12

    def test_transition_matrix_reversible(self):
        rng = substream(13)
        q = rng.standard_normal((3, 3))
        chain = cpt_transition_matrix(q)
        target = cpt_target(q)
        assert is_reversible(chain, target, tol=1e-12)

    def test_pair_flags_reversible(self):
        pair = cpt_pair(np.zeros((3, 3)), step_size=6)
        assert pair.reversible and pair.step_size == 6
