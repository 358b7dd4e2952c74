"""Brute-force oracles and the exact laws of the samplers."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmcmc import fixtures
from exmcmc.chains import (
    BinaryMatrix,
    cpt_pair,
    cpt_target,
    cpt_transition_matrix,
    make_permutation_state,
)
from exmcmc.errors import TractabilityError
from exmcmc.kernel import DiscreteDistribution, DiscreteKernel, KernelPair
from exmcmc.oracle import (
    JointLaw,
    count_fiber,
    enumerate_fiber,
    exact_joint,
    exact_rejection_probability,
    exchangeability_distance,
)
from exmcmc.pvalue import p_mc, sqrt_epsilon
from exmcmc.rng import substream
from exmcmc.samplers import (
    MarkedTree,
    build_path_tree,
    build_split_star,
    build_star_tree,
    sample_iid,
    sample_parallel,
    sample_permuted_serial,
    sample_sequential,
    sample_tree,
)
from test_kernel import random_chain, random_units


def tv(law_a: JointLaw, law_b: JointLaw) -> float:
    a, b = law_a.as_dict(), law_b.as_dict()
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


class TestJointLaw:
    def test_validates_mass(self):
        with pytest.raises(ValueError):
            JointLaw((("a",),), (0.5,))
        for mass in ((1.5, -0.5), (float("nan"), 1.0), (float("inf"), 0.0)):
            with pytest.raises(ValueError):
                JointLaw((("a",), ("b",)), mass)

    def test_validates_unique_support(self):
        with pytest.raises(ValueError):
            JointLaw((("a",), ("a",)), (0.5, 0.5))

    def test_marginal(self):
        law = JointLaw((("a", "b"), ("b", "a")), (0.25, 0.75))
        assert law.marginal(0) == {"a": 0.25, "b": 0.75}

    def test_guard_rejects_huge_instances(self, uniform_walk):
        kernel, target = uniform_walk
        with pytest.raises(TractabilityError):
            exact_joint("iid", kernel, target, n_draws=20)


class TestExactJointLaws:
    def test_iid_law_factorizes(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint("iid", kernel, target, n_draws=2)
        table = law.as_dict()
        for t, mass in table.items():
            expected = np.prod([target.prob(s) for s in t])
            assert mass == pytest.approx(expected, abs=1e-12)

    def test_marginals_are_stationary(self):
        """Every coordinate of every exchangeable method is pi-distributed."""
        for name, kernel, target in fixtures.three_state_fixtures():
            for method in ("parallel", "permuted_serial"):
                law = exact_joint(method, kernel, target, n_draws=2, step=2)
                for coord in range(3):
                    marg = law.marginal(coord)
                    for s in kernel.states:
                        assert marg.get(s, 0.0) == pytest.approx(
                            target.prob(s), abs=1e-12
                        ), (name, method, coord)

    def test_sequential_marginals_also_stationary(self, drift_cycle):
        kernel, target = drift_cycle
        law = exact_joint("sequential", kernel, target, n_draws=3)
        for coord in range(4):
            marg = law.marginal(coord)
            for s in kernel.states:
                assert marg.get(s, 0.0) == pytest.approx(target.prob(s), abs=1e-12)

    def test_unknown_method_rejected(self, skewed_walk):
        kernel, target = skewed_walk
        with pytest.raises(ValueError):
            exact_joint("bogus", kernel, target, n_draws=2)

    def test_n_draws_required(self, skewed_walk):
        kernel, target = skewed_walk
        with pytest.raises(ValueError):
            exact_joint("parallel", kernel, target)


class TestExchangeability:
    def test_exchangeable_methods_have_zero_distance(self):
        for name, kernel, target in fixtures.three_state_fixtures():
            for method in ("iid", "parallel", "permuted_serial"):
                law = exact_joint(method, kernel, target, n_draws=2)
                assert exchangeability_distance(law) <= 1e-12, (name, method)

    def test_sequential_fails_on_drift_cycle(self, drift_cycle):
        kernel, target = drift_cycle
        law = exact_joint("sequential", kernel, target, n_draws=2)
        assert exchangeability_distance(law) > 1e-6

    def test_sequential_fails_even_when_reversible(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint("sequential", kernel, target, n_draws=2)
        assert exchangeability_distance(law) > 1e-6


class TestTreeLaws:
    def test_star_tree_equals_parallel(self, skewed_walk):
        kernel, target = skewed_walk
        tree_law = exact_joint(build_star_tree(2, 2), kernel, target)
        par_law = exact_joint("parallel", kernel, target, n_draws=2, step=2)
        assert tv(tree_law, par_law) <= 1e-12

    def test_path_tree_equals_permuted_serial(self, skewed_walk):
        kernel, target = skewed_walk
        tree_law = exact_joint(build_path_tree(2, 2), kernel, target)
        ser_law = exact_joint("permuted_serial", kernel, target, n_draws=2, step=2)
        assert tv(tree_law, ser_law) <= 1e-12

    def test_tree_laws_hold_for_non_reversible_kernel(self):
        kernel, target = fixtures.biased_cycle()
        tree_law = exact_joint(build_star_tree(2, 1), kernel, target)
        par_law = exact_joint("parallel", kernel, target, n_draws=2, step=1)
        assert tv(tree_law, par_law) <= 1e-12

    def test_split_star_exchangeable(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint(build_split_star(2, 1, 1), kernel, target)
        assert exchangeability_distance(law) <= 1e-12


@st.composite
def small_marked_trees(draw):
    """A split star, or a random tree with random edge directions; at most 6
    vertices and 2-4 marks."""
    if draw(st.booleans()):
        arms = draw(st.integers(1, 3))
        per_arm = draw(st.integers(1, 3 // arms))
        return build_split_star(arms, per_arm, draw(st.integers(1, 5 // (arms * per_arm))))
    n = draw(st.integers(2, 6))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v) if draw(st.booleans()) else (v, u))
    marks = draw(st.permutations(range(n)))[: draw(st.integers(2, min(4, n)))]
    return MarkedTree(n, tuple(edges), tuple(marks))


@settings(max_examples=100, deadline=None)
@given(tree=small_marked_trees(), units=random_units, step=st.integers(1, 2))
def test_tree_method_is_exchangeable_on_random_chains(tree, units, step):
    it = iter(units)
    kernel, target = random_chain(
        lambda shape: np.array([next(it) for _ in range(9)]).reshape(shape), 3
    )
    law = exact_joint(tree, kernel, target, step=step)
    assert exchangeability_distance(law) <= 1e-12


class TestSamplersMatchTheirLaws:
    """Monte Carlo cross-check: empirical sampler frequencies vs exact laws."""

    N = 100_000

    def _empirical(self, draw_fn, n):
        counts = {}
        for i in range(n):
            t = draw_fn(substream(17, i))
            counts[t] = counts.get(t, 0) + 1
        return counts

    def _check(self, counts, law, n):
        table = law.as_dict()
        for t, mass in table.items():
            se = np.sqrt(mass * (1 - mass) / n)
            assert abs(counts.get(t, 0) / n - mass) <= 5 * se, t

    def test_parallel_sampler(self, skewed_walk):
        kernel, target = skewed_walk
        pair = KernelPair.from_discrete(kernel, target, 1)
        law = exact_joint("parallel", kernel, target, n_draws=2, step=1)

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_parallel(pair, x0, 2, rng)
            return (x0, *out.draws)

        self._check(self._empirical(draw, self.N), law, self.N)

    def test_permuted_serial_sampler(self, skewed_walk):
        kernel, target = skewed_walk
        pair = KernelPair.from_discrete(kernel, target, 1)
        law = exact_joint("permuted_serial", kernel, target, n_draws=2, step=1)

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_permuted_serial(pair, x0, 2, rng)
            return (x0, *out.draws)

        self._check(self._empirical(draw, self.N), law, self.N)

    def test_sequential_sampler(self, drift_cycle):
        """On the non-reversible drift cycle the sequential law is not
        exchangeable; the sampler still matches it."""
        kernel, target = drift_cycle
        pair = KernelPair.from_discrete(kernel, target, 1)
        law = exact_joint("sequential", kernel, target, n_draws=2, step=1)
        assert exchangeability_distance(law) > 0.1

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_sequential(pair, x0, 2, rng)
            return (x0, *out.draws)

        self._check(self._empirical(draw, self.N), law, self.N)

    def test_iid_sampler(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint("iid", kernel, target, n_draws=2)

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_iid(target, x0, 2, rng)
            return (x0, *out.draws)

        self._check(self._empirical(draw, self.N), law, self.N)

    def test_tree_sampler_on_split_star(self):
        kernel, target = fixtures.biased_cycle()
        pair = KernelPair.from_discrete(kernel, target, 1)
        tree = build_split_star(2, 1, 1)
        law = exact_joint(tree, kernel, target)

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_tree(pair, x0, tree, rng)
            return (x0, *out.draws)

        self._check(self._empirical(draw, self.N), law, self.N)

    def test_tree_edges_are_super_steps(self):
        """A step-2 pair on one-edge arms has the law of two-edge arms, which
        is the step-2 law of the one-edge tree."""
        kernel, target = fixtures.biased_cycle()
        pair = KernelPair.from_discrete(kernel, target, 2)
        tree = build_split_star(2, 1, 1)
        law = exact_joint(build_split_star(2, 1, 2), kernel, target)
        super_law = exact_joint(tree, kernel, target, step=2)
        assert tv(law, super_law) <= 1e-12

        def draw(rng):
            x0 = target.sample(rng)
            out = sample_tree(pair, x0, tree, rng)
            return (x0, *out.draws)

        counts = self._empirical(draw, self.N)
        self._check(counts, law, self.N)
        self._check(counts, super_law, self.N)

    @pytest.mark.filterwarnings("error")
    def test_cpt_parallel_fan(self):
        """The lockstep CPT spokes give the parallel method's exact law."""
        q = substream(18).standard_normal((3, 3))
        target = cpt_target(q)
        pair = cpt_pair(q, 2)
        law = exact_joint("parallel", cpt_transition_matrix(q), target, n_draws=2, step=2)

        def draw(rng):
            x0 = make_permutation_state(target.sample(rng), q)
            out = sample_parallel(pair, x0, 2, rng)
            return (x0.perm, *(d.perm for d in out.draws))

        self._check(self._empirical(draw, self.N), law, self.N)


def assert_sqrt_epsilon_valid(kernel, target):
    """On a reversible chain the corrected sequential p-value is valid at
    every level of a 0.05 grid, including those the correction's floor
    sqrt(2/(M+1)) lets it reach."""
    stat = fixtures.state_index_statistic(kernel)
    for m in range(1, 5):
        for step in (1, 2):
            law = exact_joint("sequential", kernel, target, n_draws=m, step=step)
            corrected = [
                sqrt_epsilon(p_mc(stat(t[0]), [stat(x) for x in t[1:]])) for t in law.support
            ]
            for a in range(1, 21):
                alpha = Fraction(a, 20)
                r = sum(w for c, w in zip(corrected, law.mass) if c <= alpha)
                assert r <= float(alpha) + 1e-12, (m, step, a)


class TestExactRejection:
    def test_alpha_at_least_one(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint("iid", kernel, target, n_draws=2)
        assert exact_rejection_probability(law, lambda s: 0, 1.0) == 1.0

    def test_exchangeable_tie_free_hits_grid_value(self):
        """Continuous-statistic analogue: distinct statistic values on an
        exchangeable law give exactly floor(alpha (M+1)) / (M+1)."""
        kernel, target = fixtures.lazy_walk_uniform()
        stat = fixtures.state_index_statistic(kernel)
        law = exact_joint("iid", kernel, target, n_draws=2)
        # remove ties by conditioning on distinct triples
        table = {t: m for t, m in law.as_dict().items() if len(set(t)) == 3}
        total = sum(table.values())
        law2 = JointLaw(tuple(table), tuple(m / total for m in table.values()))
        assert exact_rejection_probability(law2, stat, Fraction(1, 3)) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_validity_of_exchangeable_samplers(self):
        for name, kernel, target in fixtures.three_state_fixtures():
            stat = fixtures.state_index_statistic(kernel)
            for method in ("parallel", "permuted_serial"):
                law = exact_joint(method, kernel, target, n_draws=3, step=1)
                for a in range(1, 5):
                    alpha = Fraction(a, 4)
                    r = exact_rejection_probability(law, stat, alpha)
                    assert r <= float(alpha) + 1e-12, (name, method, a)

    def test_sequential_invalid_on_drift_cycle(self, drift_cycle):
        """Exact rejection 3/8 > 1/3 with the state-index statistic, M=2."""
        kernel, target = drift_cycle
        stat = fixtures.state_index_statistic(kernel)
        law = exact_joint("sequential", kernel, target, n_draws=2)
        r = exact_rejection_probability(law, stat, Fraction(1, 3))
        assert r == pytest.approx(3 / 8, abs=1e-12)
        assert r > 1 / 3

    @pytest.mark.parametrize("chain", ["lazy_walk_uniform", "lazy_walk_skewed"])
    def test_sqrt_epsilon_sequential_is_valid(self, chain):
        assert_sqrt_epsilon_valid(*getattr(fixtures, chain)())

    @settings(max_examples=30, deadline=None)
    @given(units=random_units)
    def test_sqrt_epsilon_sequential_is_valid_on_random_reversible_chains(self, units):
        weights = np.array(units).reshape(3, 3)
        weights = weights + weights.T  # a symmetric flux is reversible for its row sums
        rows = weights.sum(axis=1)
        kernel = DiscreteKernel((0, 1, 2), weights / rows[:, None])
        assert_sqrt_epsilon_valid(kernel, DiscreteDistribution((0, 1, 2), rows / rows.sum()))

    def test_randomized_ties_exactly_uniform(self):
        """Randomized tie-break restores exact uniformity on the alpha grid."""
        kernel, target = fixtures.lazy_walk_skewed()
        stat = fixtures.state_index_statistic(kernel)
        law = exact_joint("parallel", kernel, target, n_draws=3, step=1)
        for a in range(1, 5):
            alpha = Fraction(a, 4)
            r = exact_rejection_probability(law, stat, alpha, tie_break="randomized")
            assert r == pytest.approx(float(alpha), abs=1e-12)

    def test_unknown_tie_break(self, skewed_walk):
        kernel, target = skewed_walk
        law = exact_joint("iid", kernel, target, n_draws=2)
        with pytest.raises(ValueError):
            exact_rejection_probability(law, lambda s: 0, 0.5, tie_break="bogus")

    def test_matches_direct_pmc_accounting(self, skewed_walk):
        """Deterministic mode agrees with summing p_mc <= alpha over tuples."""
        kernel, target = skewed_walk
        stat = fixtures.state_index_statistic(kernel)
        law = exact_joint("sequential", kernel, target, n_draws=2)
        alpha = Fraction(2, 3)
        direct = sum(
            mass
            for t, mass in law.as_dict().items()
            if p_mc(stat(t[0]), [stat(x) for x in t[1:]]) <= alpha
        )
        assert exact_rejection_probability(law, stat, alpha) == pytest.approx(
            direct, abs=1e-12
        )


class TestFiber:
    def test_unit_margins_three(self):
        fiber = enumerate_fiber((1, 1, 1), (1, 1, 1))
        assert len(fiber) == 6
        assert len(set(fiber)) == 6
        for m in fiber:
            assert np.array_equal(m.row_sums, [1, 1, 1])
            assert np.array_equal(m.col_sums, [1, 1, 1])

    def test_forced_all_ones(self):
        fiber = enumerate_fiber((2, 2), (2, 2))
        assert fiber == [BinaryMatrix([[1, 1], [1, 1]])]

    def test_two_by_two_unit(self):
        assert len(enumerate_fiber((1, 1), (1, 1))) == 2

    def test_infeasible_margins_empty(self):
        assert enumerate_fiber((2, 0), (1, 0)) == []
        assert enumerate_fiber((3, 0), (1, 1)) == []

    def test_dimension_guard(self):
        with pytest.raises(TractabilityError):
            enumerate_fiber((1,) * 6, (1,) * 6)

    def test_count_cross_check(self):
        for rows, cols in [
            ((1, 1, 1), (1, 1, 1)),
            ((2, 1), (1, 1, 1)),
            ((2, 2, 1), (2, 2, 1)),
            ((3, 2, 2, 1), (2, 2, 2, 2)),
        ]:
            assert len(enumerate_fiber(rows, cols)) == count_fiber(rows, cols)
