"""Directed multigraphs with arbitrary-precision edge multiplicities."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]

# Graphs and ribbons on at most this many vertices keep no adjacency or
# vertex order of their own, and equal rows share one tuple and one entry
# through bounded caches.  The oracle sweeps and the case streams hold
# thousands of them on 2-4 vertices at once, with a few hundred distinct
# rows among them, where a copy per graph would cost about 650 bytes
# each.  Larger graphs rarely repeat a row and keep their adjacency in
# the graph.
SMALL_GRAPH_MAX_N = 8


class OutEdges(NamedTuple):
    """One vertex's out-degree and its (head, mult) pairs, heads ascending."""

    degree: int
    edges: tuple[tuple[int, int], ...]


def out_edges(row: IntVector) -> OutEdges:
    """The adjacency entry of one multiplicity row, in O(n)."""
    # Tuples here and on the other per-query paths are built from lists,
    # never from a generator, map, zip or compress.  CPython (3.11) starts
    # those at 10 slots, resizes them, and frees them onto the free list
    # of their final size, which keeps up to 2,000 of each size 1-19 until
    # a full collection; with few collections those lists fill to about
    # 3 MB.  A tuple built from a list takes and returns one of its size.
    heads = list(compress(range(len(row)), row))
    return OutEdges(sum(row), tuple([(v, row[v]) for v in heads]))


_shared_out_edges = lru_cache(maxsize=1024)(out_edges)

# tuple() returns a tuple itself, so this keeps the first equal row seen
_shared_row = lru_cache(maxsize=1024)(tuple)


@dataclass(frozen=True, slots=True)
class DirectedMultigraph:
    """Loopless directed multigraph on vertices ``0..n-1``.

    ``mult[u][v]`` counts the parallel edges u -> v.  Entries are plain
    Python ints, so multiplicities far beyond machine word size stay
    exact; all derived quantities (degrees, Laplacian) inherit that.
    Instances are immutable; the build helpers return new graphs.  They
    use slots, because sweeps and benchmarks hold thousands of small
    graphs at once.  ``adjacency()`` is built on first use and kept in
    the one cache slot, except on graphs of at most ``SMALL_GRAPH_MAX_N``
    vertices, which share their rows and adjacency entries with equal
    rows of other graphs.
    """

    n: int
    mult: IntMatrix
    _adjacency: tuple[OutEdges, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        mult = tuple([tuple(row) for row in self.mult])
        if len(mult) != self.n or any(len(row) != self.n for row in mult):
            raise ValueError("multiplicity matrix must be n x n")
        for u, row in enumerate(mult):
            for v, m in enumerate(row):
                if m < 0:
                    raise ValueError(f"negative multiplicity on edge {u}->{v}")
                if u == v and m != 0:
                    raise ValueError(f"loop at vertex {u} is not allowed")
        if self.n <= SMALL_GRAPH_MAX_N:
            mult = tuple([_shared_row(row) for row in mult])
        object.__setattr__(self, "mult", mult)

    @classmethod
    def from_checked_rows(cls, n: int, mult: IntMatrix) -> DirectedMultigraph:
        """Wrap n rows of n ints without checking them again.

        For callers that have already made the constructor's checks
        (nonnegative entries, zero diagonal) and report failures their
        own way, as the instance parser does with line numbers.  The rows
        must be tuples.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "mult", mult)
        object.__setattr__(g, "_adjacency", None)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> DirectedMultigraph:
        """Build from ``(u, v, mult)`` triples; repeated pairs accumulate."""
        rows = [[0] * n for _ in range(n)]
        for u, v, m in edges:
            _check_edge(n, u, v, m)
            rows[u][v] += m
        return cls(n, tuple([tuple(r) for r in rows]))

    def adjacency(self) -> tuple[OutEdges, ...]:
        """Per vertex, its out-degree and nonzero (head, mult) pairs.

        Built in O(n^2) on the first call and kept in the cache slot, so
        every later walk over v's out-edges costs O(out-support(v)).  On
        small graphs each call looks the rows up in the shared cache.
        """
        adj = self._adjacency
        if adj is None:
            if self.n <= SMALL_GRAPH_MAX_N:
                return tuple([_shared_out_edges(row) for row in self.mult])
            adj = tuple([out_edges(row) for row in self.mult])
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def out_degree(self, v: int) -> int:
        return sum(self.mult[v])

    def in_degree(self, v: int) -> int:
        return sum(row[v] for row in self.mult)

    def out_degrees(self) -> IntVector:
        return tuple([out.degree for out in self.adjacency()])

    def laplacian(self) -> IntMatrix:
        """Laplacian L with L[u][v] = -outdeg(v) if u == v else mult[v][u].

        Column v is the chip movement caused by firing v once; every
        column sums to zero.
        """
        degs = self.out_degrees()
        return tuple([
            tuple([-degs[v] if u == v else self.mult[v][u] for v in range(self.n)])
            for u in range(self.n)
        ])


def _check_edge(n: int, u: int, v: int, m: int) -> None:
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
    sink when no edge leaves it, and trivial when it is a single vertex.
    """

    component_of: IntVector
    components: tuple[tuple[int, ...], ...]
    is_sink: tuple[bool, ...]
    is_trivial: tuple[bool, ...]

    def sink_component_ids(self) -> tuple[int, ...]:
        return tuple([i for i, s in enumerate(self.is_sink) if s])


def scc_decompose(g: DirectedMultigraph) -> SccDecomposition:
    """Tarjan's algorithm over the support digraph, iteratively.

    Iterative on purpose: path-like graphs would otherwise hit the
    recursion limit.  Walks the cached adjacency, so it costs
    O(n + support edges) once the adjacency exists.
    """
    n = g.n
    adj = g.adjacency()
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
        work = [(root, iter(adj[root].edges))]
        while work:
            v, succ_it = work[-1]
            descended = False
            for w, _ in succ_it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w].edges)))
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
    for u in range(n):
        cu = component_of[u]
        for w, _ in adj[u].edges:
            if component_of[w] != cu:
                is_sink[cu] = False
    is_trivial = [len(c) == 1 for c in components]
    assert any(is_sink), "a finite digraph always has a sink component"
    return SccDecomposition(
        component_of=tuple(component_of),
        components=tuple(components),
        is_sink=tuple(is_sink),
        is_trivial=tuple(is_trivial),
    )


def is_strongly_connected(g: DirectedMultigraph) -> bool:
    return len(scc_decompose(g).components) == 1


def is_eulerian(g: DirectedMultigraph) -> bool:
    """Degree balance at every vertex: in-degree equals out-degree.

    One pass over the adjacency accumulates the in-degrees.
    """
    adj = g.adjacency()
    indeg = [0] * g.n
    for out in adj:
        for w, m in out.edges:
            indeg[w] += m
    return all(d == out.degree for d, out in zip(indeg, adj))

