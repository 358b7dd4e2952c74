"""The p-value calculus: exact rationals, corrections, limits, normal CDF."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmcmc import fixtures
from exmcmc.errors import InvalidStatisticError, UnsupportedRepresentationError
from exmcmc.kernel import DiscreteDistribution, KernelPair
from exmcmc.pvalue import (
    AtomLaw,
    exact_level,
    normal_cdf,
    normal_quantile,
    p_analytic,
    p_infinity_ar1,
    p_infinity_discrete,
    p_mc,
    p_mc_randomized,
    power_parallel_limit,
    sqrt_epsilon,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestPMc:
    def test_exact_rational(self):
        assert p_mc(2.0, [1.0, 3.0, 2.0]) == Fraction(3, 4)

    def test_m_zero_gives_one(self):
        assert p_mc(5.0, []) == Fraction(1, 1)

    def test_all_below_gives_minimum(self):
        assert p_mc(10.0, [1.0] * 99) == Fraction(1, 100)

    def test_three_hundredths(self):
        # 2 of 99 draws at or above the observed statistic: p = 3/100
        draws = [0.0] * 97 + [5.0, 6.0]
        assert p_mc(4.0, draws) == Fraction(3, 100)

    def test_ties_count_up(self):
        assert p_mc(1.0, [1.0, 1.0, 0.0]) == Fraction(3, 4)

    def test_nan_statistic_rejected(self):
        with pytest.raises(InvalidStatisticError):
            p_mc(float("nan"), [1.0])
        with pytest.raises(InvalidStatisticError):
            p_mc(1.0, [float("nan")])
        with pytest.raises(InvalidStatisticError):
            p_mc(np.float32("nan"), [np.float32(1.0)] * 4)

    @settings(max_examples=100, deadline=None)
    @given(t0=finite_floats, draws=st.lists(finite_floats, max_size=20))
    def test_range_and_monotonicity(self, t0, draws):
        p = p_mc(t0, draws)
        m = len(draws)
        assert Fraction(1, m + 1) <= p <= 1
        # removing a draw that counted can only increase p's numerator share
        assert p == Fraction(sum(1 for t in draws if t >= t0) + 1, m + 1)

    @settings(max_examples=50, deadline=None)
    @given(t0=finite_floats, draws=st.lists(finite_floats, max_size=12))
    def test_randomized_never_exceeds_deterministic(self, t0, draws):
        rng = np.random.default_rng(0)
        assert p_mc_randomized(t0, draws, rng) <= p_mc(t0, draws)

    def test_randomized_tie_free_equals_deterministic(self, rng):
        draws = [1.0, 2.0, 3.0]
        assert p_mc_randomized(2.5, draws, rng) == p_mc(2.5, draws)


class TestExactLevel:
    def test_reads_the_level_as_written(self):
        assert Fraction(3, 10) > 0.3  # the float lies below its decimal
        assert exact_level(0.3) == Fraction(3, 10)
        assert exact_level(0.05) == Fraction(1, 20)
        assert exact_level(Fraction(1, 7)) == Fraction(1, 7)


class TestPAnalytic:
    def test_tail_mass(self):
        target = DiscreteDistribution((1, 2, 3), [0.5, 0.3, 0.2])
        assert p_analytic(target, lambda s: s, 2) == pytest.approx(0.5)

    def test_whole_space(self):
        target = DiscreteDistribution((1, 2), [0.6, 0.4])
        assert p_analytic(target, lambda s: s, 0) == pytest.approx(1.0)

    def test_continuous_rejected(self):
        with pytest.raises(UnsupportedRepresentationError):
            p_analytic(object(), lambda s: s, 0.0)

    def test_nan_statistic_rejected(self):
        """A NaN value is an error, as in ``p_mc``, not a state left out of the tail."""
        _, target = fixtures.lazy_walk_uniform()
        with pytest.raises(InvalidStatisticError):
            p_analytic(target, lambda s: math.nan if s == "c" else 1.0, 0.0)

    def test_bimodal_rejection_region_boundary(self):
        """The 5% rejection region of the bimodal target starts at 84 under
        inclusive tail counting (P(T >= t0)); under the strict tail it starts
        at 83 (the inclusive tail at 83 is 0.0527, verified independently at
        30-digit precision)."""
        from exmcmc.chains import bimodal_target

        target = bimodal_target()
        for x0 in range(1, 101):
            p = p_analytic(target, lambda s: s, x0)
            assert (p <= 0.05) == (x0 >= 84), x0
        assert p_analytic(target, lambda s: s, 83) == pytest.approx(
            0.05268822833, abs=1e-9
        )
        # strict tail: P(T > 83) = inclusive tail at 84
        assert p_analytic(target, lambda s: s, 84) <= 0.05


class TestSqrtEpsilon:
    def test_formula(self):
        assert sqrt_epsilon(Fraction(1, 8)) == pytest.approx(0.5)

    def test_caps_at_one(self):
        assert sqrt_epsilon(Fraction(3, 4)) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sqrt_epsilon(Fraction(0))
        with pytest.raises(ValueError):
            sqrt_epsilon(Fraction(3, 2))

    @settings(max_examples=100, deadline=None)
    @given(num=st.integers(min_value=1, max_value=100))
    def test_always_at_least_p(self, num):
        p = Fraction(num, 100)
        assert sqrt_epsilon(p) >= float(p)


class TestPInfinityDiscrete:
    def test_nan_statistic_rejected(self, skewed_pair):
        """A NaN value, at x0 or at another state, is an error, as in ``p_mc``."""
        for bad in ("a", "c"):
            with pytest.raises(InvalidStatisticError):
                p_infinity_discrete(skewed_pair, lambda s: math.nan if s == bad else 1.0, "a")

    def test_identity_kernel_point_mass_at_one(self, rng):
        from exmcmc.kernel import DiscreteKernel

        kernel = DiscreteKernel((0, 1), np.eye(2))
        target = DiscreteDistribution((0, 1), [0.5, 0.5])
        pair = KernelPair.from_discrete(kernel, target)
        law = p_infinity_discrete(pair, lambda s: s, 0)
        assert law.values == (1.0,)
        assert law.probs == (1.0,)

    def test_two_state_atoms_by_hand(self):
        """Direct matrix arithmetic on the 2-state fixture, x0 = state 1, L=1.

        Hub = 0 w.p. khat(1,0) = pi(0)k(0,1)/pi(1) = (2/3)(0.1)/(1/3) = 0.2,
        then the forward tail mass of {T >= 1} from 0 is k(0,1) = 0.1.
        Hub = 1 w.p. 0.8 with tail mass k(1,1) = 0.8.
        """
        kernel, target = fixtures.two_state()
        pair = KernelPair.from_discrete(kernel, target, 1)
        law = p_infinity_discrete(pair, kernel.index, 1)
        assert law.values == pytest.approx((0.1, 0.8))
        assert law.probs == pytest.approx((0.2, 0.8))

    def test_large_l_converges_to_analytic(self):
        """Every atom value approaches p_A once the chain forgets its start."""
        kernel, target = fixtures.lazy_walk_skewed()
        pair = KernelPair.from_discrete(kernel, target, step_size=200)
        stat = kernel.index
        p_a = p_analytic(target, stat, stat("b"))
        law = p_infinity_discrete(pair, stat, "b")
        assert max(abs(v - p_a) for v in law.values) <= 1e-6

    def test_continuous_pair_rejected(self):
        pair = KernelPair(lambda s, r: s, lambda s, r: s)
        with pytest.raises(UnsupportedRepresentationError):
            p_infinity_discrete(pair, lambda s: s, 0.0)

    def test_pair_needs_a_matrix_in_both_directions(self):
        kernel, _ = fixtures.two_state()
        for pair in (KernelPair(kernel, kernel.step), KernelPair(lambda s, r: s, kernel)):
            with pytest.raises(UnsupportedRepresentationError):
                p_infinity_discrete(pair, lambda s: s, 0)

    def test_atom_law_validates_mass(self):
        with pytest.raises(ValueError):
            AtomLaw((0.5,), (0.5,))
        for probs in ((1.5, -0.5), (math.nan, 1.0), (math.inf, 0.0)):
            with pytest.raises(ValueError):
                AtomLaw((0.25, 0.5), probs)
        with pytest.raises(ValueError):
            AtomLaw((0.5,), (math.nan,))


class TestNormal:
    # Reference values computed with an independent high-precision
    # implementation of Phi (50-digit series evaluation).
    REFERENCE = [
        (0.0, 0.5),
        (1.0, 0.8413447460685429),
        (-1.0, 0.15865525393145705),
        (2.5, 0.9937903346742238),
        (-3.0, 0.0013498980316300945),
        (5.0, 0.9999997133484281),
    ]

    def test_cdf_reference_values(self):
        for x, phi in self.REFERENCE:
            assert normal_cdf(x) == pytest.approx(phi, abs=1e-15)

    def test_quantile_inverts_cdf(self):
        for q in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.975, 1 - 1e-9):
            assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)

    def test_quantile_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_quantile_rejects_bounds(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestAr1Limits:
    def test_p_infinity_ar1_formula(self):
        # 1 - Phi(sqrt(1 - 0.81) * 2 - 0.9 * 1) with rho=0.9, L=1
        expected = 1.0 - normal_cdf(math.sqrt(0.19) * 2.0 - 0.9)
        assert p_infinity_ar1(2.0, 0.9, 1, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_p_infinity_ar1_validates(self):
        with pytest.raises(ValueError):
            p_infinity_ar1(0.0, 1.0, 1, 0.0)
        with pytest.raises(ValueError):
            p_infinity_ar1(0.0, 0.5, 0, 0.0)

    def test_power_increases_with_l(self):
        powers = [power_parallel_limit(2.0, 0.05, 0.9, L) for L in range(1, 11)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_power_approaches_optimal(self):
        optimal = 1.0 - normal_cdf(normal_quantile(0.95) - 2.0)
        assert power_parallel_limit(2.0, 0.05, 0.7, 10) == pytest.approx(
            optimal, abs=0.01
        )

    def test_power_at_rho_zero_is_optimal(self):
        optimal = 1.0 - normal_cdf(normal_quantile(0.95) - 2.0)
        assert power_parallel_limit(2.0, 0.05, 0.0, 1) == pytest.approx(
            optimal, abs=1e-12
        )

    def test_power_validates_alpha(self):
        with pytest.raises(ValueError):
            power_parallel_limit(2.0, 0.0, 0.5, 1)

    def test_power_validates_rho_and_step(self):
        """rho outside (-1, 1) and L < 1 are named errors, not a math domain
        error or a silent alpha."""
        with pytest.raises(ValueError, match="rho must lie in"):
            power_parallel_limit(1.0, 0.05, 1.5, 1)
        with pytest.raises(ValueError, match="step must be >= 1"):
            power_parallel_limit(1.0, 0.05, 0.5, 0)
