"""Concrete chains: AR(1), bimodal MH, checkerboard swaps, permutation chain."""

import itertools
import math
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest

from exmcmc.chains import (
    Ar1Kernel,
    BinaryMatrix,
    association_statistic,
    bimodal_target,
    checkerboard_swap_step,
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
from exmcmc.kernel import DiscreteDistribution, KernelPair, is_reversible, is_stationary
from exmcmc.rng import substream
from exmcmc.samplers import sample_parallel, sample_permuted_serial


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

    def test_lag_is_the_l_step_closed_form(self, rng):
        """``lag`` gives ``(rho**L, sqrt(1 - rho**(2L)))``; L = 0 is an error, for
        ``spokes`` too."""
        rho_l, scale = Ar1Kernel(0.6).lag(3)
        assert rho_l == 0.6**3
        assert scale == math.sqrt(1.0 - 0.6**6)
        for step in (0, -1):
            with pytest.raises(ValueError, match="step must be >= 1"):
                Ar1Kernel(0.6).lag(step)
            with pytest.raises(ValueError, match="step must be >= 1"):
                Ar1Kernel(0.6).spokes(1.0, 3, step, rng)

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
        # Values are checked before the int8 cast, which would truncate them.
        for entries in ([[0.5, 1], [1, 0]], [[1.7, 0]], [[-0.5, 1]], [["0", "1"]]):
            with pytest.raises(ValueError):
                BinaryMatrix(entries)
        assert BinaryMatrix([[1.0, 0.0], [True, False]]) == BinaryMatrix([[1, 0], [1, 0]])

    def test_equality_and_hash(self):
        a = BinaryMatrix([[1, 0], [0, 1]])
        b = BinaryMatrix([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != BinaryMatrix([[0, 1], [1, 0]])
        assert a != BinaryMatrix([[1, 0, 0, 1]])  # same bytes, other shape
        assert a != "not a matrix"


class _CyclingGenerator:
    """Stub generator: ``integers(high)`` returns 0, 1, ..., high - 1 in turn."""

    def __init__(self):
        self.integer_calls = 0

    def integers(self, high):
        value = self.integer_calls % high
        self.integer_calls += 1
        return value

    def random(self, *args, **kwargs):
        raise AssertionError("the swap step must not draw a float")


class TestCheckerboardSwap:
    def test_one_draw_proposes_every_ordered_pair_once(self):
        """Over every 4x3 0/1 matrix, each of the 72 codes of one draw moves
        cells of exactly one 2x2 block, and each of the 18 blocks belongs to 4
        codes: its two row orders times its two column orders."""
        changed = np.zeros((72, 4, 3), dtype=bool)
        for bits in itertools.product((0, 1), repeat=12):
            m = BinaryMatrix(np.reshape(bits, (4, 3)))
            stub = _CyclingGenerator()
            for code in range(72):
                out = checkerboard_swap_step(m, stub)
                if out is not m:
                    flips = out.entries != m.entries
                    assert np.count_nonzero(flips) == 4  # all of one block, below
                    changed[code] |= flips
            assert stub.integer_calls == 72  # one integers call per step
        blocks = []
        for cells in changed:
            rows, cols = np.flatnonzero(cells.any(axis=1)), np.flatnonzero(cells.any(axis=0))
            assert len(rows) == len(cols) == 2 and cells.sum() == 4
            blocks.append((tuple(rows.tolist()), tuple(cols.tolist())))
        row_pairs = list(itertools.combinations(range(4), 2))
        col_pairs = list(itertools.combinations(range(3), 2))
        assert Counter(blocks) == {(r, c): 4 for r in row_pairs for c in col_pairs}

    def test_checkerboard_accepts_every_proposal(self):
        m = BinaryMatrix([[1, 0], [0, 1]])
        rows, cols = m.row_sums.copy(), m.col_sums.copy()
        stub = _CyclingGenerator()
        states = [m]
        for _ in range(4):
            states.append(checkerboard_swap_step(states[-1], stub))
        assert stub.integer_calls == 4
        for before, after in zip(states, states[1:]):
            assert not np.array_equal(before.entries, after.entries)
            assert np.array_equal(after.entries.sum(axis=1), rows)
            assert np.array_equal(after.entries.sum(axis=0), cols)

    def test_all_ones_never_moves(self, rng):
        """No swap is accepted, so the step and a one-link path return ``m`` itself."""
        m = BinaryMatrix(np.ones((3, 3), dtype=int))
        for _ in range(100):
            assert checkerboard_swap_step(m, rng) is m
        assert checkerboard_swap_step.path(m, 1, 100, rng)[0] is m

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


def _swap_run_cases():
    """(seed, entries, steps) cases: degenerate shapes, all-ones, 2x2 and
    random shapes, including one whose proposal count exceeds 2**32."""
    fixed = [np.ones((1, 6)), np.ones((6, 1)), [[1, 0], [0, 1]], np.ones((4, 5))]
    gen = np.random.default_rng(2024)
    cases = []
    for seed in range(120):
        if seed < 40:
            entries = fixed[seed % len(fixed)]
        else:
            shape = (1 + int(gen.integers(8)), 1 + int(gen.integers(8)))
            entries = gen.random(shape) < gen.random()
        cases.append((seed, entries, 1 + int(gen.integers(200))))
    cases.append((120, gen.random((300, 300)) < 0.4, 200))
    return cases


def _swap_path_cases():
    """(seed, entries, count, steps) cases on the shapes of
    :func:`_swap_run_cases`, with ``count`` in 0..120 (0 in every tenth case)
    and fewer steps a link."""
    gen = np.random.default_rng(2025)
    return [
        (seed, entries, int(gen.integers(121)) if seed % 10 != 9 else 0,
         1 + int(gen.integers(min(steps, 20))))
        for seed, entries, steps in _swap_run_cases()
    ]


class TestCheckerboardSwapRun:
    def test_step_carries_the_path(self):
        """The step's ``path`` gives the states of one one-link path per
        super-step, each from the last one's state, on the same stream, and a
        pair's chains draw through it."""
        start = BinaryMatrix(substream(3).random((20, 12)) < 0.4)
        rngs, expected, m = (substream(6), substream(6), substream(6)), [], start
        for _ in range(3):
            m = checkerboard_swap_step.path(m, 1, 50, rngs[0])[0]
            expected.append(m)
        assert checkerboard_swap_step.path(start, 3, 50, rngs[1]) == expected
        pair = KernelPair(checkerboard_swap_step, checkerboard_swap_step, 50, reversible=True)
        assert pair.chain(start, 3, False, rngs[2]) == expected
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()

    @pytest.mark.parametrize("skip", [0, 1])
    def test_path_is_count_times_steps_single_steps(self, skip):
        """Each link of a path is the state of ``steps`` more single steps, with
        the same ``is``-previous-state outcome and the same next draw; a link
        that moved owns int8 entries that share no memory with the input's;
        with ``skip`` the generator starts mid-word."""
        cases = _swap_path_cases()
        assert max(c[2] for c in cases) > 100 and min(c[2] for c in cases) == 0
        moved = 0
        for seed, entries, count, steps in cases:
            m = BinaryMatrix(np.asarray(entries, dtype=int))
            one, path = substream(seed, 78), substream(seed, 78)
            one.integers(7, size=skip)
            path.integers(7, size=skip)
            expected, state = [], m
            for _ in range(count):
                last = state
                for _ in range(steps):
                    state = checkerboard_swap_step(state, one)
                expected.append((state, state is last))
            out = checkerboard_swap_step.path(m, count, steps, path)
            assert len(out) == count
            assert one.integers(2**62) == path.integers(2**62)
            last = m
            for state, (want, stayed) in zip(out, expected):
                assert state == want
                assert (state is last) == stayed
                if not stayed:
                    moved += 1
                    assert not np.shares_memory(state.entries, m.entries)
                    assert state.entries.dtype == np.int8 and state.entries.flags.owndata
                    assert state.row_sums is m.row_sums and state.col_sums is m.col_sums
                last = state
        assert moved > 1000

    def test_empty_path_draws_nothing(self):
        rng = substream(4)
        before = rng.bit_generator.state
        assert checkerboard_swap_step.path(BinaryMatrix(np.eye(5)), 0, 50, rng) == []
        assert rng.bit_generator.state == before
        m = BinaryMatrix([[1, 0, 1]])
        assert checkerboard_swap_step.path(m, 3, 50, _CyclingGenerator()) == [m, m, m]

    def test_used_pair_pickles(self):
        """A swap pair pickles after a permuted serial sample, and the copy
        draws the same states and leaves the stream in the same place."""
        pair = KernelPair(checkerboard_swap_step, checkerboard_swap_step, 25, reversible=True)
        x0 = BinaryMatrix(substream(5).random((8, 6)) < 0.5)
        sample_permuted_serial(pair, x0, 9, substream(1))
        copy = pickle.loads(pickle.dumps(pair))
        outs = []
        for p in (pair, copy):
            rng = substream(2)
            outs.append((sample_permuted_serial(p, x0, 9, rng).draws, rng.random()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("skip", [0, 1])
    def test_run_is_steps_single_steps(self, skip):
        """A one-link path: same state, same ``is m`` outcome and same next draw
        as ``steps`` single steps, with no memory shared with the input's
        entries; with ``skip`` the generator starts mid-word."""
        moved = 0
        for seed, entries, steps in _swap_run_cases():
            m = BinaryMatrix(np.asarray(entries, dtype=int))
            one, run = substream(seed, 77), substream(seed, 77)
            one.integers(7, size=skip)
            run.integers(7, size=skip)
            expected = m
            for _ in range(steps):
                expected = checkerboard_swap_step(expected, one)
            out = checkerboard_swap_step.path(m, 1, steps, run)[0]
            assert out == expected
            assert (out is m) == (expected is m)
            assert one.integers(2**62) == run.integers(2**62)
            if out is not m:
                moved += 1
                assert not np.shares_memory(out.entries, m.entries)
                assert out.entries.dtype == np.int8 and out.entries.flags.owndata
                assert out.row_sums is m.row_sums and out.col_sums is m.col_sums
        assert moved > 30

    def test_no_proposals_draws_nothing(self):
        m = BinaryMatrix([[1, 0, 1]])
        assert checkerboard_swap_step.path(m, 1, 50, _CyclingGenerator())[0] is m

    def test_output_steps_on(self, rng):
        """A one-link path's output is an ordinary state: the step and the path
        continue from it without touching it."""
        m = BinaryMatrix([[1, 0], [0, 1]])
        out = checkerboard_swap_step.path(m, 1, 1, rng)[0]
        assert out == BinaryMatrix([[0, 1], [1, 0]])
        assert checkerboard_swap_step(out, rng) == m
        assert checkerboard_swap_step.path(out, 1, 3, rng)[0] == m
        assert out == BinaryMatrix([[0, 1], [1, 0]])

    @pytest.mark.soak
    def test_margin_conservation_soak(self):
        """10^6 steps as 20,000 one-link paths of 50 on a 20x12 matrix: margins
        unchanged, exactly."""
        rng = substream(8)
        m = BinaryMatrix((rng.random((20, 12)) < 0.4).astype(int))
        rows, cols = m.row_sums.copy(), m.col_sums.copy()
        start = m
        for _ in range(20_000):
            m = checkerboard_swap_step.path(m, 1, 50, rng)[0]
        assert m != start
        assert np.isin(m.entries, (0, 1)).all()
        assert np.array_equal(m.entries.sum(axis=1), rows)
        assert np.array_equal(m.entries.sum(axis=0), cols)


class TestMatrixStatistics:
    @staticmethod
    def _reference_association(m):
        """The statistic's integer formula: the squared Gram matrix without its diagonal."""
        gram = m.entries.T.astype(np.int64) @ m.entries.astype(np.int64)
        off = gram * gram
        return int((off.sum() - np.trace(off)) // 2)

    def test_association_matches_integer_formula(self):
        """Exactly equal to the integer formula on 350 random shapes from 1x1 to
        40x40, on all-zeros and all-ones matrices, and on a 300x300 matrix."""
        gen = substream(14)
        cases = [np.zeros((7, 5)), np.ones((7, 5)), np.ones((1, 1)), np.ones((40, 40)),
                 gen.random((300, 300)) < 0.5, np.ones((300, 300))]
        for _ in range(350):
            shape = 1 + gen.integers(40, size=2)
            cases.append(gen.random(shape) < gen.random())
        for entries in cases:
            m = BinaryMatrix(np.asarray(entries, dtype=int))
            value = association_statistic(m)
            assert type(value) is int and value == self._reference_association(m)

    def test_association_examples(self):
        assert association_statistic(BinaryMatrix(np.zeros((3, 3), dtype=int))) == 0
        assert association_statistic(BinaryMatrix(np.ones((2, 2), dtype=int))) == 4
        assert association_statistic(BinaryMatrix(np.eye(3, dtype=int))) == 0

    def test_association_row_permutation_invariant(self, rng):
        m = (rng.random((6, 5)) < 0.5).astype(int)
        perm = rng.permutation(6)
        assert association_statistic(BinaryMatrix(m)) == association_statistic(
            BinaryMatrix(m[perm])
        )

    def test_shared_one_total_constant_on_fiber(self, rng):
        """The docstring's claim: the plain shared-1 total is a function of
        the row sums alone, hence invariant under margin-preserving swaps."""

        def shared_one_total(m):
            gram = m.entries.T.astype(np.int64) @ m.entries.astype(np.int64)
            return int((gram.sum() - np.trace(gram)) // 2)

        m = BinaryMatrix((rng.random((8, 6)) < 0.5).astype(int))
        base = shared_one_total(m)
        expected = sum(r * (r - 1) // 2 for r in m.row_sums)
        assert base == expected
        for _ in range(500):
            m = checkerboard_swap_step(m, rng)
            assert shared_one_total(m) == base

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
        with pytest.raises(MatrixFormatError, match="line 3"):
            parse_binary_matrix("2 2\n0 1\n1 2\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            parse_binary_matrix("1 2\n-1 0\n")
        for header in ("0 0\n", "0 2\n", "-1 2\n", "1 2 3\n1 0\n"):
            with pytest.raises(MatrixFormatError, match="line 1"):
                parse_binary_matrix(header)
        with pytest.raises(MatrixFormatError):
            parse_binary_matrix("")


class TestPermutationChain:
    def test_state_validation(self):
        q = np.zeros((3, 3))
        with pytest.raises(ValueError):
            make_permutation_state((0, 0, 1), q)
        with pytest.raises(ValueError):
            make_permutation_state((0, 1, 2), np.full((3, 3), np.nan))
        # Entries are integers, not truncated floats or strings.
        for perm in ([0.9, 1, 2], [0, 1.5, 2], [0.0, 1.0, 2.0], ["0", "1", "2"]):
            with pytest.raises(ValueError):
                make_permutation_state(perm, q)
        assert make_permutation_state(np.arange(3), q).perm == (0, 1, 2)
        # The table is square over the slots; cpt_pair checks it too.
        for table in (np.zeros((3, 4)), np.zeros((4, 3)), np.zeros(3)):
            with pytest.raises(ValueError):
                make_permutation_state((0, 1, 2), table)
            with pytest.raises(ValueError):
                cpt_pair(table)
        with pytest.raises(ValueError):
            cpt_pair(np.full((3, 3), np.inf))
        # The exact law and matrix read the table through the same check.
        nan_table = np.zeros((3, 3))
        nan_table[1, 2] = np.nan
        for table in (np.arange(12.0).reshape(3, 4), np.zeros((4, 3)), nan_table):
            for exact in (cpt_target, cpt_transition_matrix):
                with pytest.raises(ValueError):
                    exact(table)
        # A table needs at least one slot, at every entry point.
        for build in (lambda q: make_permutation_state((), q), cpt_pair, cpt_target,
                      cpt_transition_matrix):
            with pytest.raises(ValueError, match="nonempty square table"):
                build(np.zeros((0, 0)))

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

    def test_used_pair_pickles(self):
        """A CPT pair pickles before and after it has drawn, and the copy gives
        the same parallel (fan) and permuted serial draws on the same stream."""
        q = substream(15).standard_normal((6, 6))
        pair = cpt_pair(q, 12)
        x0 = make_permutation_state(range(6), q)
        copies = [pickle.loads(pickle.dumps(pair))]
        for sample in (sample_parallel, sample_permuted_serial):
            sample(pair, x0, 9, substream(1))
            copies.append(pickle.loads(pickle.dumps(pair)))
        for sample in (sample_parallel, sample_permuted_serial):
            outs = []
            for p in (pair, *copies):
                rng = substream(2)
                outs.append((sample(p, x0, 9, rng).draws, rng.random()))
            assert all(out == outs[0] for out in outs)
