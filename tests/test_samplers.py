"""Sampler behavior: metadata, determinism, tree structure, text format."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmcmc import fixtures
from exmcmc.chains import (
    Ar1Kernel,
    BinaryMatrix,
    bimodal_target,
    checkerboard_swap_step,
    cpt_pair,
    make_permutation_state,
    mh_pm1_kernel,
)
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

# Vertex 0 has three reverse-flow leaves and two forward-flow leaves; its
# neighbours are mixed, so each is stepped one by one.  Every leaf is marked,
# so the root is often a leaf.
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

    def test_rooted_edges_orient_every_edge(self):
        """From every root: each edge once, parent before child, with its flow."""
        trees = (
            build_path_tree(3, 2), build_star_tree(3, 2), build_split_star(2, 2, 1),
            build_split_star(1, 0, 1), LEAF_FANS,
        )
        for tree in trees:
            for root in range(tree.vertex_count):
                order = tree.rooted_edges(root)
                assert len(order) == tree.vertex_count - 1
                placed = {root}
                for u, v, with_flow in order:
                    assert u in placed and v not in placed
                    placed.add(v)
                    assert ((u, v) if with_flow else (v, u)) in tree.edges

    def test_walk_plans_every_edge_once(self):
        """From every root: each vertex but the root placed once, parents
        first, with each edge's flow; each edge in exactly one entry, and
        with chains and fans expanded, the edges of :meth:`rooted_edges`.  A
        chain's vertices are consecutive, and a chain that could go on is
        never split.  A second call returns the cached plan."""
        trees = (
            build_path_tree(3, 2), build_star_tree(3, 2), build_star_tree(4, 1),
            build_split_star(2, 2, 1), build_split_star(3, 1, 1), build_split_star(1, 0, 1),
            build_split_star(3, 2, 2), LEAF_FANS,
        )
        for tree in trees:
            for root in range(tree.vertex_count):
                plan = tree.walk(root)
                assert tree.walk(root) is plan
                placed, edges, last = [root], [], None
                for u, vertices, with_flow in plan:
                    assert type(vertices) is tuple and vertices and u in placed
                    if with_flow is None:  # a fan: every leaf hangs off u
                        steps = [(u, w, True) for w in vertices]
                    else:
                        steps = list(zip((u,) + vertices, vertices, [with_flow] * len(vertices)))
                        assert last is None or not (last[2] is with_flow and last[1][-1] == u)
                    for a, b, flow in steps:
                        assert ((a, b) if flow else (b, a)) in tree.edges
                        placed.append(b)
                    edges.extend(steps)
                    last = (u, vertices, with_flow)
                assert sorted(placed) == list(range(tree.vertex_count))
                assert len(edges) == len(set(edges)) == tree.vertex_count - 1
                assert set(edges) == set(tree.rooted_edges(root))


class TestTreeBuilders:
    def test_path_tree_shape(self):
        tree = build_path_tree(3, 2)
        assert tree.vertex_count == 7
        assert tree.n_draws == 3
        assert tree.marks == (0, 2, 4, 6)
        assert tree.edges == tuple((i, i + 1) for i in range(6))
        # M = 0: the bare mark
        tree = build_path_tree(0, 2)
        assert (tree.vertex_count, tree.edges, tree.marks) == (1, (), (0,))
        # A path is a one-arm split star; with no draws per arm, the bare marked hub.
        assert build_split_star(1, 0, 2) == MarkedTree(1, (), (0,))
        for m in range(5):
            for step in (1, 2, 3):
                n = m * step + 1
                path = MarkedTree(n, tuple((i, i + 1) for i in range(n - 1)),
                                  tuple(i * step for i in range(m + 1)))
                assert build_split_star(1, m, step) == path
                assert build_path_tree(m, step) == path

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
        # M = 0: the hub and one arm
        tree = build_star_tree(0, 2)
        assert (tree.vertex_count, tree.edges, tree.marks) == (3, ((0, 1), (1, 2)), (2,))

    def test_split_star_shape(self):
        tree = build_split_star(2, 2, 1)
        # marked hub plus 2 arms x 2 marks
        assert tree.n_draws == 4
        assert tree.marks[0] == 0
        assert tree.vertex_count == 5

    def test_builders_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            build_path_tree(-1, 1)
        with pytest.raises(ValueError):
            build_star_tree(-1, 1)
        with pytest.raises(ValueError):
            build_star_tree(1, 0)
        with pytest.raises(ValueError):
            build_split_star(0, 1, 1)
        with pytest.raises(ValueError):
            build_split_star(1, -1, 1)


class TestSampleSets:
    def test_iid_metadata(self, rng):
        _, target = fixtures.lazy_walk_skewed()
        out = sample_iid(target, "a", 5, rng)
        assert len(out.draws) == 5
        assert out.sigma is None

    def test_iid_is_one_draw_of_target_samples(self):
        """One ``sample_indices`` call gives the states of n ``target.sample``
        calls and leaves the same next uniform."""
        for chain in ("lazy_walk_skewed", "drift_cycle_skewed"):
            _, target = getattr(fixtures, chain)()
            for seed in range(20):
                rng_a, rng_b = substream(9, seed), substream(9, seed)
                out = sample_iid(target, "a", 7, rng_a)
                assert out.draws == [target.sample(rng_b) for _ in range(7)]
                assert all(type(d) is str for d in out.draws)
                assert rng_a.random() == rng_b.random()

    def test_sequential_flagged_not_exchangeable(self, skewed_pair, rng):
        out = sample_sequential(skewed_pair, "a", 4, rng)
        assert len(out.draws) == 4
        assert out.sigma is None

    def test_parallel_records_permutation(self, skewed_pair, rng):
        out = sample_parallel(skewed_pair, "a", 4, rng)
        assert len(out.draws) == 4
        assert sorted(out.sigma) == list(range(5))

    def test_permuted_serial_records_permutation(self, skewed_pair, rng):
        out = sample_permuted_serial(skewed_pair, "a", 4, rng)
        assert len(out.draws) == 4
        assert sorted(out.sigma) == list(range(5))

    def test_zero_draws(self, skewed_pair, rng):
        assert sample_parallel(skewed_pair, "a", 0, rng).draws == []
        assert sample_permuted_serial(skewed_pair, "a", 0, rng).draws == []

    @pytest.mark.parametrize(
        "sampler", [sample_parallel, sample_permuted_serial, sample_sequential, sample_iid]
    )
    def test_negative_draws_rejected(self, sampler, skewed_walk, skewed_pair, rng):
        """M = -1 is a ValueError that names the draws, for every sampler."""
        chain = skewed_walk[1] if sampler is sample_iid else skewed_pair
        with pytest.raises(ValueError, match="draws"):
            sampler(chain, "a", -1, rng)

    @pytest.mark.parametrize(
        "sampler, build",
        [(sample_parallel, build_star_tree), (sample_permuted_serial, build_path_tree)],
    )
    def test_parallel_and_serial_are_star_and_path_trees(self, sampler, build):
        """Same stream, same draws: each is the tree method on its tree, also at M = 0."""
        pair = KernelPair(lambda s, r: s + r.random(), lambda s, r: s - r.random(), 3)
        for m in (6, 0):
            for seed in range(20):
                rng_a, rng_b = substream(5, seed), substream(5, seed)
                a = sampler(pair, 0.0, m, rng_a)
                b = sample_tree(pair, 0.0, build(m, 1), rng_b)
                assert a.draws == b.draws and a.sigma == b.sigma
                assert rng_a.random() == rng_b.random()

    def test_tree_sampler_runs_every_tree(self, skewed_pair, rng):
        for tree in (build_path_tree(3, 1), build_star_tree(3, 1), build_split_star(2, 1, 1)):
            out = sample_tree(skewed_pair, "a", tree, rng)
            assert len(out.draws) == tree.n_draws
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
        assert star._neighbors[0] == ((0, (1, 2, 3, 4, 5), True),)
        # A vertex fans only when all its neighbours are leaves reached with
        # the flow; a mixed hub steps each child.
        assert LEAF_FANS._neighbors[0] == (
            (0, 1, False), (0, 2, False), (0, 3, False), (0, 4, True), (0, 5, True))
        path = build_path_tree(4, 1)
        assert all(type(w) is int for entries in path._neighbors for _, w, _ in entries)
        # A split star's hub fans only over one-vertex arms.
        assert build_split_star(3, 1, 1)._neighbors[0] == ((0, (1, 2, 3), True),)
        assert build_split_star(3, 2, 1)._neighbors[0] == ((0, 1, True), (0, 3, True), (0, 5, True))

    def test_ar1_fan_has_the_parallel_law(self):
        """The AR(1) pair has no batch path; its single super-steps give
        stationary draws and hub-and-spoke correlation rho**(2L) with x0 and
        between spokes."""
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

    @pytest.mark.parametrize("chain", ["discrete", "cpt"])
    def test_parallel_calls_spokes_once(self, chain):
        """The bimodal and cpt workloads batch through this path: a parallel
        test makes one ``spokes`` call of M draws."""
        if chain == "discrete":
            kernel, target = fixtures.lazy_walk_skewed()
            pair, x0 = KernelPair.from_discrete(kernel, target, 3), "a"
        else:
            q_log = np.log(np.arange(1.0, 17.0)).reshape(4, 4)
            pair, x0 = cpt_pair(q_log, 3), make_permutation_state(range(4), q_log)
        calls, spokes = [], pair.forward.spokes

        def counted(state, n, steps, rng):
            calls.append(n)
            return spokes(state, n, steps, rng)

        pair.forward.spokes = counted
        out = sample_parallel(pair, x0, 7, substream(4))
        assert calls == [7] and len(out.draws) == 7

    def test_same_stream_reproduces(self, skewed_pair):
        a = sample_permuted_serial(skewed_pair, "a", 6, substream(3, 1))
        b = sample_permuted_serial(skewed_pair, "a", 6, substream(3, 1))
        assert a.draws == b.draws and a.sigma == b.sigma


def reference_sample_tree(pair, x0, tree, rng):
    """The tree method one edge at a time: depth first from x0's vertex,
    children in edge order, one super-step per edge, and one ``fan`` at a
    vertex whose two or more neighbours are all leaves reached with the flow.
    Returns the draws and sigma."""
    sigma = tuple(rng.permutation(tree.n_draws + 1).tolist())
    adj = tree.adjacency()
    root = tree.marks[sigma[0]]
    y = {root: x0}

    def visit(u, parent):
        children = [(v, f) for v, f in adj[u] if v != parent]
        if len(adj[u]) > 1 and all(f and len(adj[v]) == 1 for v, f in adj[u]):
            for (v, _), state in zip(children, pair.fan(y[u], len(children), rng)):
                y[v] = state
            return
        for v, f in children:
            y[v] = pair.super_forward(y[u], rng) if f else pair.super_reverse(y[u], rng)
            visit(v, u)

    visit(root, None)
    return [y[tree.marks[s]] for s in sigma[1:]], sigma


@lru_cache(maxsize=None)
def _walk_pair(chain):
    """``(pair, x0)``: the bimodal matrix pair at L = 1 or 3, the
    non-reversible drift cycle's at L = 2 (a chain walked with the wrong flow
    draws from the wrong law), the swap and CPT pairs at L = 3, or the
    bimodal steps wrapped so that they carry no hooks."""
    if chain == "drift cycle":
        kernel, target = fixtures.drift_cycle_skewed()
        return KernelPair.from_discrete(kernel, target, 2), kernel.states[0]
    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    if chain.startswith("bimodal"):
        return KernelPair.from_discrete(kernel, target, int(chain[-1])), 40
    if chain == "swap":
        m = BinaryMatrix(substream(3).random((5, 4)) < 0.5)
        return KernelPair(checkerboard_swap_step, checkerboard_swap_step, 3, True), m
    if chain == "cpt":
        q_log = substream(4).standard_normal((5, 5))
        return cpt_pair(q_log, 3), make_permutation_state(range(5), q_log)
    reverse = reversal(kernel, target)
    return KernelPair(lambda s, r: kernel.step(s, r), lambda s, r: reverse.step(s, r), 3), 40


@st.composite
def walk_trees(draw):
    """A star or split star, whose arms may run through unmarked vertices, or
    a random tree on 1-12 vertices with its edges in random order and
    directions and 1-6 marks."""
    if draw(st.booleans()):
        arms, step = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            return build_star_tree(arms, step)
        return build_split_star(arms, draw(st.integers(0, 3)), step)
    n = draw(st.integers(1, 12))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v) if draw(st.booleans()) else (v, u))
    marks = draw(st.permutations(range(n)))[: draw(st.integers(1, min(6, n)))]
    return MarkedTree(n, tuple(draw(st.permutations(edges))), tuple(marks))


CHAINS = ["bimodal L=1", "bimodal L=3", "drift cycle", "swap", "cpt", "wrapped"]


class TestGroupedWalk:
    """The walk draws each run of edges with one flow as one chain; the
    draws, sigma and stream are those of single super-steps."""

    @pytest.mark.parametrize("chain", CHAINS)
    @settings(max_examples=60, deadline=None)
    @given(tree=walk_trees(), seed=st.integers(0, 2**16))
    def test_chains_and_fans_match_single_super_steps(self, chain, tree, seed):
        pair, x0 = _walk_pair(chain)
        a, b = substream(31, seed), substream(31, seed)
        got = sample_tree(pair, x0, tree, a)
        draws, sigma = reference_sample_tree(pair, x0, tree, b)
        assert got.draws == draws and got.sigma == sigma
        assert a.random() == b.random()

    @pytest.mark.parametrize("chain", CHAINS)
    def test_sequential_is_one_forward_chain(self, chain):
        pair, x0 = _walk_pair(chain)
        for seed in range(5):
            a, b = substream(32, seed), substream(32, seed)
            state, want = x0, []
            for _ in range(6):
                state = pair.super_forward(state, b)
                want.append(state)
            assert sample_sequential(pair, x0, 6, a).draws == want
            assert a.random() == b.random()


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
            counts[out.sigma[0]] += 1
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
