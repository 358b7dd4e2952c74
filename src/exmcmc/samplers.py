"""Samplers that produce the comparison draws for a Monte Carlo test.

Includes the i.i.d. baseline, sequential MCMC (not exchangeable, kept for the
invalidity demonstration), and the marked-tree method with constructors for
path, star, and split-star trees.  Each tree edge is one super-step of the
kernel pair, and the tree is walked depth-first from the observed point's
mark.  The parallel (hub-and-spoke) method is the tree method on a star, and
the permuted serial method is the tree method on a path.  A run of edges in
one direction is one :meth:`KernelPair.chain` call, batched by the step's
``path``, and a vertex whose neighbours are all leaves reached with the flow
(the hub of a star) is one :meth:`KernelPair.fan`, batched by ``spokes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import TreeFormatError, TreeValidationError
from .kernel import DiscreteDistribution, KernelPair


@dataclass(frozen=True)
class MarkedTree:
    """A directed tree plus an injective mark map ``{0..M} -> vertices``.

    ``edges[j] = (u, v)`` is a directed edge u -> v; traversing it with the
    flow takes a forward super-step, against the flow a reverse super-step.
    ``marks[i]`` is the vertex carrying label ``i``.
    """

    vertex_count: int
    edges: tuple
    marks: tuple
    # Root -> walk plan.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise TreeValidationError("tree must have at least one vertex")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TreeValidationError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise TreeValidationError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TreeValidationError(f"duplicate edge between {u} and {v}")
            seen.add(key)
        if len(self.edges) != n - 1:
            raise TreeValidationError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}"
            )
        # n-1 distinct undirected edges + connectivity => acyclic.
        if len(self.rooted_edges(0)) != n - 1:
            raise TreeValidationError("tree is disconnected")
        if len(set(self.marks)) != len(self.marks):
            raise TreeValidationError("marks must be injective")
        if not self.marks:
            raise TreeValidationError("tree must carry at least one mark")
        for i, v in enumerate(self.marks):
            if not 0 <= v < n:
                raise TreeValidationError(f"mark {i} references a missing vertex {v}")

    @property
    def n_draws(self) -> int:
        """M: number of comparison draws this tree produces."""
        return len(self.marks) - 1

    def adjacency(self):
        """Per-vertex list of ``(neighbor, with_flow)`` pairs."""
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append((v, True))
            adj[v].append((u, False))
        return adj

    def rooted_edges(self, root: int) -> list:
        """``(parent, child, with_flow)`` for each edge reached from ``root``, parents first."""
        adj = self.adjacency()
        order = []
        seen = {root}
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for v, with_flow in adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append((u, v, with_flow))
                    frontier.append(v)
        return order

    @cached_property
    def _neighbors(self) -> tuple:
        """:meth:`adjacency` as ``(u, v, with_flow)`` triples for each vertex u,
        built once per tree, so that the walk plans of all roots share them.

        A vertex whose neighbours are two or more leaves (degree-one
        vertices), all reached with the flow, gets the one entry
        ``(u, leaves, True)``, so that the walk draws them as one fan.  Every
        other vertex keeps one entry per neighbour.
        """
        adj = self.adjacency()
        is_leaf = [len(entries) == 1 for entries in adj]

        def fanned(u, entries):
            if len(entries) > 1 and all(f and is_leaf[w] for w, f in entries):
                return ((u, tuple(w for w, _ in entries), True),)
            return tuple((u, w, f) for w, f in entries)

        return tuple(map(fanned, range(len(adj)), adj))

    def walk(self, root: int) -> tuple:
        """:func:`sample_tree`'s depth-first walk from ``root``, children in edge
        order, planned once per root from the :attr:`_neighbors` triples,
        parents first.  An entry ``(u, vertices, with_flow)`` is a chain: each
        edge starts where the last one ended, all with one flow.  An entry
        ``(u, leaves, None)`` is a fan, with a leaf root taken out."""
        plan = self._plans.get(root)
        if plan is None:
            neighbors, plan = self._neighbors, []
            stack = list(reversed(neighbors[root]))
            while stack:
                u, v, with_flow = stack.pop()
                if v.__class__ is tuple:
                    plan.append((u, [w for w in v if w != root], None))
                    continue
                stack.extend(e for e in reversed(neighbors[v]) if e[1] != u)
                if plan and plan[-1][2] is with_flow and plan[-1][1][-1] == u:
                    plan[-1][1].append(v)
                else:
                    plan.append((u, [v], with_flow))
            plan = self._plans[root] = tuple((u, tuple(vs), f) for u, vs, f in plan)
        return plan


@dataclass
class SampleSet:
    """The draws, and the marks of x0 and the draws (``None`` for iid and sequential)."""

    draws: list
    sigma: Optional[tuple] = None


def sample_iid(
    target: DiscreteDistribution, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """Draws taken i.i.d. from the target, independently of ``x0``, in one
    ``sample_indices`` call: the stream of ``n_draws`` ``target.sample`` calls."""
    if n_draws < 0:
        raise ValueError(f"n_draws must be >= 0, got {n_draws}")
    states = target.states
    return SampleSet([states[i] for i in target.sample_indices(rng, n_draws).tolist()])


def sample_sequential(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """A single forward chain from ``x0``.

    Marginally stationary but not exchangeable, so the resulting p-value is
    not guaranteed valid.
    """
    if n_draws < 0:
        raise ValueError(f"n_draws must be >= 0, got {n_draws}")
    return SampleSet(pair.chain(x0, n_draws, True, rng))


def sample_parallel(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """Hub-and-spoke: the tree method on a star of M+1 one-edge arms.

    ``x0`` sits at the end of a uniformly chosen arm; one reverse super-step
    reaches the unmarked hub, and one forward super-step out along each
    other arm gives a draw.
    """
    return sample_tree(pair, x0, build_star_tree(n_draws, 1), rng)


def sample_permuted_serial(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """One bidirectional chain through ``x0``: the tree method on a path.

    A permutation sigma of {0..M} is drawn, x0 sits at position
    ``m* = sigma(0)`` of the chain, and draw i is the chain state at position
    sigma(i).
    """
    return sample_tree(pair, x0, build_path_tree(n_draws, 1), rng)


def sample_tree(
    pair: KernelPair, x0, tree: MarkedTree, rng: np.random.Generator
) -> SampleSet:
    """The general tree method over a marked tree.

    A uniform permutation sigma of the marks places ``x0`` on mark
    ``m* = sigma(0)``.  Each edge is one super-step of ``pair``, forward with
    the edge's flow and reverse against it.  The walk is depth-first from
    x0's vertex, children in edge order: any order gives the same law, and
    this one consumes the stream on a path tree exactly as a chain run
    backwards from m* and then forwards would.  Each entry of the walk plan
    (:meth:`MarkedTree.walk`) is one :meth:`KernelPair.chain` or
    :meth:`KernelPair.fan` call, which a matrix-backed pair draws on the
    stream of single super-steps.  On the bimodal pair at M = 99 a path call
    takes about 50 us and a nine-arm split star at L = 1 about 63 us, against
    153 and 139 us a super-step at a time (a shared 2-core x86-64 host).
    """
    sigma = tuple(rng.permutation(tree.n_draws + 1).tolist())
    marks = tree.marks
    root = marks[sigma[0]]
    chain, fan = pair.chain, pair.fan
    y = [None] * tree.vertex_count
    y[root] = x0
    for u, vertices, flow in tree.walk(root):
        n = len(vertices)
        states = fan(y[u], n, rng) if flow is None else chain(y[u], n, flow, rng)
        for w, state in zip(vertices, states):
            y[w] = state
    return SampleSet([y[marks[s]] for s in sigma[1:]], sigma)


@lru_cache(maxsize=64)
def build_path_tree(n_draws: int, step: int) -> MarkedTree:
    """Path of M+1 marked vertices with L-1 unmarked vertices between marks.

    The tree method on this tree has the same law as the permuted serial
    method with step size L.  It is a split star with one arm.
    """
    return build_split_star(1, n_draws, step)


@lru_cache(maxsize=64)
def build_star_tree(n_draws: int, step: int) -> MarkedTree:
    """Unmarked hub with M+1 arms of L edges each; arm ends are marked.

    One arm hosts the observed point, giving the same law as the parallel
    method with step size L.
    """
    # A split star of one-mark arms, without the hub's mark; it checks M >= 0 and L >= 1.
    split = build_split_star(n_draws + 1, 1, step)
    return MarkedTree(split.vertex_count, split.edges, split.marks[1:])


def build_split_star(arms: int, draws_per_arm: int, step: int) -> MarkedTree:
    """A marked hub with ``arms`` serial chains of ``draws_per_arm`` marks each.

    Runs several permuted-serial-style chains from a common hub; total mark
    count is ``arms * draws_per_arm + 1``.  With no draws per arm it is the
    bare marked hub.
    """
    if arms < 1 or draws_per_arm < 0 or step < 1:
        raise ValueError("arms and step must be >= 1, and draws_per_arm >= 0")
    edges = []
    marks = [0]
    next_vertex = 1
    for _ in range(arms):
        prev = 0
        for _ in range(draws_per_arm):
            for _ in range(step):
                edges.append((prev, next_vertex))
                prev = next_vertex
                next_vertex += 1
            marks.append(prev)
    return MarkedTree(next_vertex, tuple(edges), tuple(marks))


def format_marked_tree(tree: MarkedTree) -> str:
    """Serialize a marked tree to the one-per-file text format."""
    lines = [f"vertices {tree.vertex_count}"]
    lines.extend(f"edge {u} {v}" for u, v in tree.edges)
    lines.extend(f"mark {i} {v}" for i, v in enumerate(tree.marks))
    return "\n".join(lines) + "\n"


def parse_marked_tree(text: str) -> MarkedTree:
    """Parse the text format produced by :func:`format_marked_tree`.

    Errors name the offending line number.  Round-trips are bit-exact for
    canonical output.
    """
    vertex_count = None
    edges = []
    marks = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "vertices":
                if vertex_count is not None:
                    raise TreeFormatError(f"line {lineno}: repeated vertices line")
                if len(parts) != 2:
                    raise ValueError
                vertex_count = int(parts[1])
            elif kind == "edge":
                if len(parts) != 3:
                    raise ValueError
                edges.append((int(parts[1]), int(parts[2])))
            elif kind == "mark":
                if len(parts) != 3:
                    raise ValueError
                i, v = int(parts[1]), int(parts[2])
                if i in marks:
                    raise TreeFormatError(f"line {lineno}: repeated mark index {i}")
                marks[i] = v
            else:
                raise TreeFormatError(f"line {lineno}: unknown directive {kind!r}")
        except TreeFormatError:
            raise
        except ValueError:
            raise TreeFormatError(f"line {lineno}: malformed {kind!r} line") from None
    if vertex_count is None:
        raise TreeFormatError("missing vertices line")
    if sorted(marks) != list(range(len(marks))):
        raise TreeFormatError("mark indices must be 0..M without gaps")
    mark_list = tuple(marks[i] for i in range(len(marks)))
    return MarkedTree(vertex_count, tuple(edges), mark_list)
