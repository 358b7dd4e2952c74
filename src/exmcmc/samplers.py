"""Samplers that produce the comparison draws for a Monte Carlo test.

Includes the i.i.d. baseline, sequential MCMC (not exchangeable, kept for the
invalidity demonstration), and the marked-tree method with constructors for
path, star, and split-star trees.  Each tree edge is one super-step of the
kernel pair, and the tree is walked depth-first from the observed point's
mark.  The parallel (hub-and-spoke) method is the tree method on a star, and
the permuted serial method is the tree method on a path.  A run of two or
more consecutive same-flow leaf children of a vertex (the spokes of a star)
is drawn in one :meth:`KernelPair.fan` call, which batches it for
matrix-backed pairs and for pairs with a ``spokes`` batch path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .errors import TreeFormatError, TreeValidationError
from .kernel import KernelPair


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
        reached = {0}
        frontier = [0]
        adj = self.adjacency()
        while frontier:
            u = frontier.pop()
            for v, _ in adj[u]:
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        if len(reached) != n:
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

    @cached_property
    def _neighbors(self) -> tuple:
        """:meth:`adjacency` as tuples, built once per tree for the walk.

        A run of two or more consecutive same-flow neighbours that are leaves
        (degree-one vertices) becomes one ``(leaves, with_flow)`` entry, so
        that the walk draws them as one fan.
        """
        adj = self.adjacency()
        is_leaf = [len(entries) == 1 for entries in adj]

        def grouped(entries):
            if sum(is_leaf[w] for w, _ in entries) < 2:
                return tuple(entries)
            out = []
            for (leaf, f), run in groupby(entries, lambda e: (is_leaf[e[0]], e[1])):
                run = tuple(w for w, _ in run)
                if leaf and len(run) > 1:
                    out.append((run, f))
                else:
                    out.extend((w, f) for w in run)
            return tuple(out)

        return tuple(map(grouped, adj))


@dataclass
class SampleSet:
    """The observed point plus comparison draws, with provenance metadata."""

    observed: object
    draws: list
    method: str
    step_size: int
    exchangeable: bool = True
    sigma: Optional[tuple] = None
    m_star: Optional[int] = None

    @property
    def n_draws(self) -> int:
        return len(self.draws)


def sample_iid(
    target_sampler: Callable[[np.random.Generator], object],
    x0,
    n_draws: int,
    rng: np.random.Generator,
) -> SampleSet:
    """Draws taken i.i.d. from the target, independently of ``x0``."""
    draws = [target_sampler(rng) for _ in range(n_draws)]
    return SampleSet(observed=x0, draws=draws, method="iid", step_size=1)


def sample_sequential(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """A single forward chain from ``x0``.

    Marginally stationary but not exchangeable, so the resulting p-value is
    not guaranteed valid; flagged accordingly.
    """
    draws = []
    state = x0
    for _ in range(n_draws):
        state = pair.super_forward(state, rng)
        draws.append(state)
    return SampleSet(
        observed=x0,
        draws=draws,
        method="sequential",
        step_size=pair.step_size,
        exchangeable=False,
    )


def sample_parallel(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """Hub-and-spoke: the tree method on a star of M+1 one-edge arms.

    ``x0`` sits at the end of a uniformly chosen arm; one reverse super-step
    reaches the unmarked hub, and one forward super-step out along each
    other arm gives a draw.
    """
    tree = _star_tree(n_draws, 1)
    return replace(sample_tree(pair, x0, tree, rng), method="parallel")


def sample_permuted_serial(
    pair: KernelPair, x0, n_draws: int, rng: np.random.Generator
) -> SampleSet:
    """One bidirectional chain through ``x0``: the tree method on a path.

    A permutation sigma of {0..M} is drawn, x0 sits at position
    ``m* = sigma(0)`` of the chain, and draw i is the chain state at position
    sigma(i).
    """
    tree = _path_tree(n_draws, 1)
    return replace(sample_tree(pair, x0, tree, rng), method="permuted_serial")


def sample_tree(
    pair: KernelPair, x0, tree: MarkedTree, rng: np.random.Generator
) -> SampleSet:
    """The general tree method over a marked tree.

    A uniform permutation sigma of the marks places ``x0`` on mark
    ``m* = sigma(0)``.  Each edge is one super-step of ``pair``, forward with
    the edge's flow and reverse against it.  The walk is depth-first from
    x0's vertex, children in edge order: any order gives the same law, and
    this one consumes the stream on a path tree exactly as a chain run
    backwards from m* and then forwards would.  A run of consecutive
    same-flow leaf children is drawn by one :meth:`KernelPair.fan` call,
    which for a matrix-backed pair moves the stream exactly as the single
    super-steps would.
    """
    sigma = tuple(rng.permutation(tree.n_draws + 1).tolist())
    m_star = sigma[0]
    marks = tree.marks
    root = marks[m_star]
    neighbors = tree._neighbors
    forward, reverse = pair.super_forward, pair.super_reverse
    y = [None] * tree.vertex_count
    y[root] = x0
    # Stack entries are (vertex or fan of leaves, parent, with_flow);
    # children are pushed in reverse so that they pop in edge order.
    stack = [(v, root, f) for v, f in reversed(neighbors[root])]
    while stack:
        v, u, with_flow = stack.pop()
        if v.__class__ is tuple:
            # A fan of leaves; the only leaf already placed is a leaf root.
            if root in v:
                v = tuple(w for w in v if w != root)
            for w, state in zip(v, pair.fan(y[u], len(v), with_flow, rng)):
                y[w] = state
            continue
        y[v] = forward(y[u], rng) if with_flow else reverse(y[u], rng)
        for w, f in reversed(neighbors[v]):
            if w != u:
                stack.append((w, v, f))
    draws = [y[marks[s]] for s in sigma[1:]]
    return SampleSet(
        observed=x0,
        draws=draws,
        method="tree",
        step_size=pair.step_size,
        sigma=sigma,
        m_star=m_star,
    )


def build_path_tree(n_draws: int, step: int) -> MarkedTree:
    """Path of M+1 marked vertices with L-1 unmarked vertices between marks.

    The tree method on this tree has the same law as the permuted serial
    method with step size L.
    """
    if n_draws < 1 or step < 1:
        raise ValueError("n_draws and step must be >= 1")
    return _path_tree(n_draws, step)


@lru_cache(maxsize=64)
def _path_tree(n_draws: int, step: int) -> MarkedTree:
    total = n_draws * step + 1
    edges = tuple((i, i + 1) for i in range(total - 1))
    marks = tuple(i * step for i in range(n_draws + 1))
    return MarkedTree(total, edges, marks)


def build_star_tree(n_draws: int, step: int) -> MarkedTree:
    """Unmarked hub with M+1 arms of L edges each; arm ends are marked.

    One arm hosts the observed point, giving the same law as the parallel
    method with step size L.
    """
    if n_draws < 1 or step < 1:
        raise ValueError("n_draws and step must be >= 1")
    return _star_tree(n_draws, step)


@lru_cache(maxsize=64)
def _star_tree(n_draws: int, step: int) -> MarkedTree:
    edges = []
    marks = []
    next_vertex = 1
    for _ in range(n_draws + 1):
        prev = 0
        for _ in range(step):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
        marks.append(prev)
    return MarkedTree(next_vertex, tuple(edges), tuple(marks))


def build_split_star(arms: int, draws_per_arm: int, step: int) -> MarkedTree:
    """A marked hub with ``arms`` serial chains of ``draws_per_arm`` marks each.

    Runs several permuted-serial-style chains from a common hub; total mark
    count is ``arms * draws_per_arm + 1``.
    """
    if arms < 1 or draws_per_arm < 1 or step < 1:
        raise ValueError("arms, draws_per_arm and step must be >= 1")
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
