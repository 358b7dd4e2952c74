"""Sampler behavior: metadata, determinism, tree structure, text format."""

import numpy as np
import pytest

from exmcmc import fixtures
from exmcmc.chains import Ar1Kernel
from exmcmc.errors import TreeFormatError, TreeValidationError
from exmcmc.kernel import KernelPair, reversal
from exmcmc.rng import substream
from exmcmc.samplers import (
    MarkedTree,
    build_path_tree,
    build_split_star,
    build_star_tree,
    format_marked_tree,
    parse_marked_tree,
    sample_iid,
    sample_parallel,
    sample_permuted_serial,
    sample_sequential,
    sample_tree,
)

# Vertex 0 has a fan of three reverse-flow leaves and one of two forward-flow
# leaves; every leaf is marked, so the root is often in a fan.
LEAF_FANS = MarkedTree(6, ((1, 0), (2, 0), (3, 0), (0, 4), (0, 5)), (1, 2, 3, 4, 5, 0))


class TestMarkedTreeValidation:
    def test_minimal_tree(self):
        tree = MarkedTree(1, (), (0,))
        assert tree.n_draws == 0

    def test_rejects_self_loop(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(2, ((0, 0),), (0, 1))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(3, ((0, 1), (1, 0)), (0, 1))

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(3, ((0, 1),), (0, 1))

    def test_rejects_disconnected(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(4, ((0, 1), (2, 3), (0, 1)), (0, 1))

    def test_rejects_duplicate_marks(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(2, ((0, 1),), (0, 0))

    def test_rejects_mark_out_of_range(self):
        with pytest.raises(TreeValidationError):
            MarkedTree(2, ((0, 1),), (0, 5))

    def test_adjacency_flow_direction(self):
        tree = MarkedTree(2, ((0, 1),), (0, 1))
        adj = tree.adjacency()
        assert adj[0] == [(1, True)]
        assert adj[1] == [(0, False)]


class TestTreeBuilders:
    def test_path_tree_shape(self):
        tree = build_path_tree(3, 2)
        assert tree.vertex_count == 7
        assert tree.n_draws == 3
        assert tree.marks == (0, 2, 4, 6)
        assert tree.edges == tuple((i, i + 1) for i in range(6))

    def test_star_tree_shape(self):
        tree = build_star_tree(3, 1)
        # an unmarked hub with one arm per mark, M+1 marks in total
        assert tree.vertex_count == 5
        assert tree.n_draws == 3
        assert len(tree.marks) == 4
        assert all(u == 0 for u, _ in tree.edges)

    def test_star_tree_longer_arms(self):
        tree = build_star_tree(2, 3)
        assert tree.vertex_count == 1 + 3 * 3
        assert tree.n_draws == 2

    def test_split_star_shape(self):
        tree = build_split_star(2, 2, 1)
        # marked hub plus 2 arms x 2 marks
        assert tree.n_draws == 4
        assert tree.marks[0] == 0
        assert tree.vertex_count == 5

    def test_builders_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            build_path_tree(0, 1)
        with pytest.raises(ValueError):
            build_star_tree(1, 0)
        with pytest.raises(ValueError):
            build_split_star(0, 1, 1)


class TestSampleSets:
    def test_iid_metadata(self, rng):
        _, target = fixtures.lazy_walk_skewed()
        out = sample_iid(target.sampler(), "a", 5, rng)
        assert out.method == "iid"
        assert out.n_draws == 5
        assert out.exchangeable

    def test_sequential_flagged_not_exchangeable(self, skewed_pair, rng):
        out = sample_sequential(skewed_pair, "a", 4, rng)
        assert out.method == "sequential"
        assert not out.exchangeable
        assert out.n_draws == 4

    def test_parallel_records_permutation(self, skewed_pair, rng):
        out = sample_parallel(skewed_pair, "a", 4, rng)
        assert out.method == "parallel"
        assert out.exchangeable
        assert sorted(out.sigma) == list(range(5))
        assert out.m_star == out.sigma[0]

    def test_permuted_serial_records_permutation(self, skewed_pair, rng):
        out = sample_permuted_serial(skewed_pair, "a", 4, rng)
        assert out.method == "permuted_serial"
        assert out.exchangeable
        assert sorted(out.sigma) == list(range(5))
        assert out.m_star == out.sigma[0]

    def test_zero_draws(self, skewed_pair, rng):
        assert sample_parallel(skewed_pair, "a", 0, rng).draws == []
        assert sample_permuted_serial(skewed_pair, "a", 0, rng).draws == []

    @pytest.mark.parametrize(
        "sampler, build",
        [(sample_parallel, build_star_tree), (sample_permuted_serial, build_path_tree)],
    )
    def test_parallel_and_serial_are_star_and_path_trees(self, sampler, build):
        """Same stream, same draws: each is the tree method on its tree."""
        pair = KernelPair(lambda s, r: s + r.random(), lambda s, r: s - r.random(), 3)
        for seed in range(20):
            a = sampler(pair, 0.0, 6, substream(5, seed))
            b = sample_tree(pair, 0.0, build(6, 1), substream(5, seed))
            assert a.draws == b.draws and a.sigma == b.sigma

    def test_tree_sampler_runs_every_tree(self, skewed_pair, rng):
        for tree in (build_path_tree(3, 1), build_star_tree(3, 1), build_split_star(2, 1, 1)):
            out = sample_tree(skewed_pair, "a", tree, rng)
            assert out.n_draws == tree.n_draws
            assert all(d in ("a", "b", "c") for d in out.draws)

    @pytest.mark.parametrize("chain", ["lazy_walk_skewed", "drift_cycle_skewed"])
    def test_matrix_fans_move_the_stream_as_single_steps(self, chain):
        """A matrix-backed pair draws its fans in one call; a plain callable
        pair has no batch path.  At L=1 both give the same draws, sigma and
        generator state, on reversible and non-reversible kernels."""
        kernel, target = getattr(fixtures, chain)()
        fanned = KernelPair.from_discrete(kernel, target)
        plain = KernelPair(kernel.step, reversal(kernel, target).step)
        for seed in range(30):
            x0 = kernel.states[seed % len(kernel)]
            for sample in (
                lambda pair, rng: sample_parallel(pair, x0, 7, rng),
                lambda pair, rng: sample_tree(pair, x0, LEAF_FANS, rng),
                lambda pair, rng: sample_tree(pair, x0, build_split_star(3, 1, 1), rng),
            ):
                rng_a, rng_b = substream(7, seed), substream(7, seed)
                a, b = sample(fanned, rng_a), sample(plain, rng_b)
                assert a.draws == b.draws and a.sigma == b.sigma
                assert rng_a.random() == rng_b.random()

    def test_each_edge_is_stepped_once(self):
        """A fan never redraws a leaf root."""
        moves = []
        pair = KernelPair(lambda s, r: moves.append(s) or s, lambda s, r: moves.append(s) or s)
        for tree in (build_star_tree(7, 1), LEAF_FANS, build_split_star(3, 1, 1)):
            for seed in range(10):
                moves.clear()
                sample_tree(pair, 0, tree, substream(8, seed))
                assert len(moves) == len(tree.edges)

    def test_leaf_runs_are_grouped(self):
        star = build_star_tree(4, 1)
        assert star._neighbors[0] == (((1, 2, 3, 4, 5), True),)
        path = build_path_tree(4, 1)
        assert all(type(w) is int for entries in path._neighbors for w, _ in entries)
        # A split star's hub fans only over one-vertex arms.
        assert build_split_star(3, 1, 1)._neighbors[0] == (((1, 2, 3), True),)
        assert build_split_star(3, 2, 1)._neighbors[0] == ((1, True), (3, True), (5, True))

    def test_ar1_fan_has_the_parallel_law(self):
        """Closed-form AR(1) spokes: stationary draws, hub-and-spoke
        correlation rho**(2L) with x0 and between spokes."""
        rho, step, reps = 0.8, 2, 20_000
        pair = Ar1Kernel(rho).pair(step)
        rng = substream(21)
        rows = []
        for _ in range(reps):
            x0 = float(rng.standard_normal())
            out = sample_parallel(pair, x0, 3, rng)
            assert all(type(d) is float for d in out.draws)
            rows.append((x0, *out.draws))
        data = np.array(rows)
        se = 1 / np.sqrt(reps)
        assert np.all(np.abs(data.mean(axis=0)) <= 5 * se)
        assert np.all(np.abs(data.var(axis=0) - 1) <= 5 * np.sqrt(2) * se)
        corr = np.corrcoef(data.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - rho ** (2 * step)) <= 5 * se)

    def test_same_stream_reproduces(self, skewed_pair):
        a = sample_permuted_serial(skewed_pair, "a", 6, substream(3, 1))
        b = sample_permuted_serial(skewed_pair, "a", 6, substream(3, 1))
        assert a.draws == b.draws and a.sigma == b.sigma


class TestAverageWorkOfPermutedSerial:
    def test_average_chain_distance_is_m_plus_2_thirds(self):
        """Each draw sits an average of (M+2)/3 super-steps from the observed
        point: exact enumeration of all 120 permutations at M=4."""
        from fractions import Fraction
        from itertools import permutations

        m = 4
        perms = list(permutations(range(m + 1)))
        assert len(perms) == 120
        for i in range(1, m + 1):
            total = sum(abs(sigma[i] - sigma[0]) for sigma in perms)
            assert Fraction(total, len(perms)) == Fraction(m + 2, 3)

    def test_reverse_steps_uniform(self, skewed_pair):
        """m* is uniform on {0..M} over many runs."""
        m = 3
        counts = np.zeros(m + 1)
        n = 20_000
        for i in range(n):
            out = sample_permuted_serial(skewed_pair, "a", m, substream(11, i))
            counts[out.m_star] += 1
        p = 1 / (m + 1)
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 4 * se)


class TestTreeTextFormat:
    def test_round_trip_bit_exact(self):
        for tree in (build_path_tree(3, 2), build_star_tree(2, 2), build_split_star(2, 2, 1)):
            text = format_marked_tree(tree)
            parsed = parse_marked_tree(text)
            assert parsed == tree
            assert format_marked_tree(parsed) == text

    def test_format_shape(self):
        text = format_marked_tree(MarkedTree(2, ((0, 1),), (0, 1)))
        assert text == "vertices 2\nedge 0 1\nmark 0 0\nmark 1 1\n"

    def test_parse_error_names_line(self):
        with pytest.raises(TreeFormatError, match="line 2"):
            parse_marked_tree("vertices 2\nedge 0\nmark 0 0\nmark 1 1\n")

    def test_unknown_directive_names_line(self):
        with pytest.raises(TreeFormatError, match="line 3"):
            parse_marked_tree("vertices 2\nedge 0 1\nfrob 1\n")

    def test_repeated_vertices_line(self):
        with pytest.raises(TreeFormatError, match="line 2"):
            parse_marked_tree("vertices 2\nvertices 2\n")

    def test_repeated_mark_index(self):
        with pytest.raises(TreeFormatError, match="line 4"):
            parse_marked_tree("vertices 2\nedge 0 1\nmark 0 0\nmark 0 1\n")

    def test_missing_vertices(self):
        with pytest.raises(TreeFormatError, match="vertices"):
            parse_marked_tree("edge 0 1\n")

    def test_gap_in_mark_indices(self):
        with pytest.raises(TreeFormatError, match="without gaps"):
            parse_marked_tree("vertices 2\nedge 0 1\nmark 0 0\nmark 2 1\n")

    def test_parsed_tree_still_validated(self):
        with pytest.raises(TreeValidationError):
            parse_marked_tree("vertices 2\nedge 0 1\nmark 0 0\nmark 1 0\n")
