"""Directed multigraphs with arbitrary-precision edge multiplicities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
Run = tuple[int, int]


def _check_vector(n: int, vec, what: str, nonneg: bool = False) -> None:
    """Raise ValueError unless vec has n entries, and with ``nonneg`` none below 0."""
    if len(vec) != n:
        raise ValueError(f"{what} length must match the vertex count")
    if nonneg and any(x < 0 for x in vec):
        raise ValueError(f"{what} must be nonnegative")


# Graphs and ribbons on at most this many vertices share equal adjacency
# entries and dense view rows with others through one bounded cache.  The
# oracle sweeps and the case streams hold thousands of them on 2-4
# vertices at once, with a few hundred distinct entries among them, where
# a copy per graph would cost about 650 bytes each.  Larger graphs rarely
# repeat an entry and keep their own.
SMALL_GRAPH_MAX_N = 8


# the first equal item seen: adjacency entries of graphs and ribbons, or
# rows of a dense view
_first_seen = lru_cache(maxsize=2048)(lambda item: item)


def share_small(items: tuple) -> tuple:
    """On a small graph or ribbon, each item as one bounded cache first saw it."""
    if len(items) <= SMALL_GRAPH_MAX_N:
        return tuple([_first_seen(item) for item in items])
    return items


class OutEdges(NamedTuple):
    """One vertex's out-degree and its out-edges as (head, count) runs.

    A run stands for count >= 1 parallel edges; runs may repeat a head and
    come in any order, and the multiplicity towards h is their total.
    """

    degree: int
    edges: tuple[Run, ...]


def dense_row(n: int, out: OutEdges) -> IntVector:
    """The multiplicity row of one adjacency entry, in O(n + runs)."""
    row = [0] * n
    for head, count in out.edges:
        row[head] += count
    return tuple(row)


def head_totals(runs) -> dict[int, int]:
    """The total count of a run list per head, heads in first-run order."""
    totals = dict.fromkeys([head for head, _ in runs], 0)
    for head, count in runs:
        totals[head] += count
    return totals


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class DirectedMultigraph:
    """Loopless directed multigraph on vertices ``0..n-1``.

    It stores its adjacency only, an ``OutEdges`` per vertex.  A checked
    graph comes from edges or runs: ``from_edges`` keeps one run per head,
    heads ascending, and the graph of a ribbon, as instances hold, keeps
    the ribbon's runs.  ``from_checked_adjacency`` wraps runs its caller
    has checked.  ``mult[u][v]`` counts the parallel edges u -> v; it is
    the oracles' dense view, built on each access in O(n^2), so readers
    bind it once.  Graphs compare, hash and print by their per-head edge
    totals, in O(runs) whatever the run order.  Counts are plain Python
    ints, so multiplicities far beyond machine word size stay exact.
    Instances are immutable and use slots, because sweeps and benchmarks
    hold thousands of small graphs at once.
    """

    n: int
    _adj: tuple[OutEdges, ...]

    @classmethod
    def from_checked_adjacency(cls, adj: tuple[OutEdges, ...]) -> DirectedMultigraph:
        """Wrap one ``OutEdges`` per vertex unchecked, for callers that made the checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "_adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> DirectedMultigraph:
        """Build from ``(u, v, mult)`` triples in O(n + triples); repeated pairs add up.

        A small graph's entries are shared through ``share_small``.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        totals: list[dict[int, int]] = [{} for _ in range(n)]
        for u, v, m in edges:
            _check_edge(n, u, v, m)
            if m:
                totals[u][v] = totals[u].get(v, 0) + m
        return cls.from_checked_adjacency(share_small(tuple([
            OutEdges(sum(heads.values()), tuple(sorted(heads.items()))) for heads in totals
        ])))

    @property
    def mult(self) -> IntMatrix:
        """The n x n multiplicity matrix, built from the runs on each access."""
        return share_small(tuple([dense_row(self.n, out) for out in self._adj]))

    def _edge_totals(self) -> tuple[tuple[Run, ...], ...]:
        """Per vertex, its (head, total) pairs, heads ascending: O(runs) plus the sorts."""
        return tuple([tuple(sorted(head_totals(out.edges).items())) for out in self._adj])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return self._edge_totals() == other._edge_totals()

    def __hash__(self) -> int:
        return hash(self._edge_totals())

    def __repr__(self) -> str:
        edges = [(u, v, m) for u, heads in enumerate(self._edge_totals()) for v, m in heads]
        return f"DirectedMultigraph(n={self.n!r}, edges={edges!r})"

    def adjacency(self) -> tuple[OutEdges, ...]:
        """Per vertex, its out-degree and its out-edges as runs."""
        return self._adj

    def out_degree(self, v: int) -> int:
        return self._adj[v].degree

    def out_degrees(self) -> IntVector:
        return tuple([out.degree for out in self._adj])


def _check_edge(n: int, u: int, v: int, m: int) -> None:
    if not (isinstance(u, int) and isinstance(v, int) and isinstance(m, int)):
        raise ValueError(f"edge {(u, v, m)!r} is not three integers")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge {u}->{v} out of range for {n} vertices")
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    if m < 0:
        raise ValueError(f"negative multiplicity on edge {u}->{v}")


@dataclass(frozen=True, slots=True)
class SccDecomposition:
    """Strongly connected components of the support digraph.

    ``component_of[v]`` is the component id of vertex v; ``components``
    lists each component's vertices in ascending order.  A component is a
    sink when no edge leaves it, trivial when it is a single vertex, and
    balanced when over the edges inside it each of its vertices has
    in-degree equal to out-degree: taken alone, it has period ones.
    ``inside_degrees[v]`` counts v's out-edges inside its component.
    """

    component_of: IntVector
    components: tuple[tuple[int, ...], ...]
    is_sink: tuple[bool, ...]
    is_trivial: tuple[bool, ...]
    is_balanced: tuple[bool, ...]
    inside_degrees: IntVector

    def sink_component_ids(self) -> tuple[int, ...]:
        return tuple([i for i, s in enumerate(self.is_sink) if s])


def scc_decompose(g: DirectedMultigraph) -> SccDecomposition:
    """Tarjan's algorithm over the support digraph, iteratively.

    Iterative on purpose: path-like graphs would otherwise hit the
    recursion limit.  Each vertex's runs are walked sorted by head, so
    neither the components nor their numbering depend on the run order:
    O(n + runs) plus the sorts, linear on runs already in order.  The
    pass that finds the sinks also sums each vertex's in- and out-degree
    over the edges inside its component, which gives the balance.
    """
    n = g.n
    succ = [sorted(out.edges) for out in g.adjacency()]
    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    component_of = [-1] * n
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, succ_it = work[-1]
            descended = False
            for w, _ in succ_it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))

    k = len(components)
    is_sink = [True] * k
    # per vertex, its out- and in-degree over the edges inside its component
    inside = [0] * n
    inside_in = [0] * n
    for u in range(n):
        cu = component_of[u]
        for w, m in succ[u]:
            if component_of[w] != cu:
                is_sink[cu] = False
            else:
                inside[u] += m
                inside_in[w] += m
    is_trivial = [len(c) == 1 for c in components]
    is_balanced = [all([inside[v] == inside_in[v] for v in c]) for c in components]
    assert any(is_sink), "a finite digraph always has a sink component"
    return SccDecomposition(
        component_of=tuple(component_of),
        components=tuple(components),
        is_sink=tuple(is_sink),
        is_trivial=tuple(is_trivial),
        is_balanced=tuple(is_balanced),
        inside_degrees=tuple(inside),
    )


def strongly_connected_balance(g: DirectedMultigraph) -> bool | None:
    """None when g is not strongly connected, else whether g is balanced.

    Balanced (Eulerian) means every vertex's in-degree equals its
    out-degree.  One iterative low-link walk from vertex 0 (Tarjan 1972)
    walks each run once and subtracts its count from its head's excess.
    g is strongly connected exactly when the walk reaches every vertex and
    no vertex but 0 closes a component (finishes with low == index); the
    first such vertex ends the walk.  So no vertex the walk has visited
    has closed yet, and each is still on Tarjan's stack: the walk keeps
    neither that stack nor an on-stack flag, and every visited head's
    index counts toward the low link.  The path holds each ancestor with its
    run iterator and low link.  O(n + runs), no sort.
    """
    adj = g.adjacency()
    excess = [out.degree for out in adj]
    index = [0] + [-1] * (g.n - 1)
    counter = 1
    v, runs, low = 0, iter(adj[0].edges), 0
    path = []
    while True:
        for w, m in runs:
            excess[w] -= m
            i = index[w]
            if i < 0:
                path.append((v, runs, low))
                index[w] = low = counter
                counter += 1
                v, runs = w, iter(adj[w].edges)
                break
            if i < low:
                low = i
        else:
            if low == index[v]:
                break  # v closes its component: only 0 may
            v, runs, parent_low = path.pop()
            low = min(low, parent_low)
    if v or counter < g.n:
        return None
    return not any(excess)


def is_strongly_connected(g: DirectedMultigraph) -> bool:
    """Whether each vertex reaches 0 and back, in one ``strongly_connected_balance`` walk."""
    return strongly_connected_balance(g) is not None

