"""Exact integer linear algebra over Laplacian lattices.

Everything here works with arbitrary-precision ints, never floats or
rationals: the answers are lattice memberships and primitive kernel
vectors, where rounding would be wrong and multiplicities may be huge.

The one solver is fraction-free Bareiss elimination (Bareiss 1968) of the
reduced Laplacian: the Laplacian with the row and column of one root per
sink component deleted, m rows in all.  A pivot step updates only the
rows it reaches, those with a nonzero entry in its column, and defers
the rescaling dense Bareiss applies to the others.  With r_k such rows
at step k the elimination costs sum_k r_k * (m - k) integer operations,
plus O(m^2) per right-hand side to build the rows and substitute back:
O(n^2) on a cycle, O(n^3) under dense fill.  Every entry the elimination
produces, and every returned value, is a minor of the reduced Laplacian
with its right-hand sides appended, so it stays within that matrix's
Hadamard bound; back substitution multiplies two such minors, which at
most doubles the bit length.

Every period vector comes from ``_component_period``: that one
elimination, run on a strongly connected component C in place, at most
O(|C|^3), unless C is balanced (in-degree equals out-degree inside it, as
on an Eulerian graph), where one pass over its adjacency returns the ones
vector.  Each entry point decomposes the graph once: ``period_basis``
eliminates once per component, and the reductions once per sink
component.  ``nonneg_reduced_solution`` takes its sink kernel columns
from its own joint elimination, balanced or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .multigraph import (
    DirectedMultigraph,
    IntVector,
    SccDecomposition,
    dense_row,
    is_strongly_connected,
    scc_decompose,
)


def _solve_reduced(
    g: DirectedMultigraph,
    verts: Sequence[int],
    degs: Sequence[int],
    roots: Sequence[int],
    columns: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]]]:
    """Solve the reduced system on ``verts`` for several right-hand sides.

    The matrix is minus the Laplacian on ``verts``, with out-degrees
    ``degs[v]``, with the rows and columns of ``roots`` deleted; every
    vertex must reach a root, so it is nonsingular and all its leading
    principal minors are positive (matrix-tree theorem).  Returns
    ``(det, sols)``: ``det`` is its determinant and ``sols[c]`` is the
    full-length integer vector ``det * x`` with x solving the system for
    ``columns[c]`` on the non-roots, zero elsewhere.
    """
    root_set = set(roots)
    rest = [v for v in verts if v not in root_set]
    m = len(rest)
    # column j: degs on the diagonal, minus the runs rest[j] -> rest[i] in row i
    index = dict(zip(rest, range(m)))
    rows = [[0] * m + [col[u] for col in columns] for u in rest]
    for j, v in enumerate(rest):
        rows[j][j] = degs[v]
        for u, count in g.adjacency()[v].edges:
            if u in index:
                rows[index[u]][j] -= count
    # forward elimination, touching a row only when the pivot reaches it.
    # Dense Bareiss also rescales each row with a 0 in the pivot column by
    # pk / prev.  Those factors telescope: a row last updated under pivot
    # last[i] is the dense row times last[i] / prev, so its next update
    # divides by last[i] instead of prev, and a pivot row catches up first.
    # Every stored row is a row of the dense elimination at some stage, so
    # each division is exact and the results are the same.
    last = [1] * m
    prev = 1
    for k in range(m):
        pivot_row = rows[k]
        if last[k] != prev:
            stale = last[k]
            pivot_row[k:] = [x * prev // stale for x in pivot_row[k:]]
        pk = pivot_row[k]
        if pk <= 0:
            raise ArithmeticError("reduced Laplacian has a nonpositive leading minor")
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, m):
            row = rows[i]
            f = row[k]
            if f:
                stale = last[i]
                row[k + 1 :] = [(pk * x - f * y) // stale for x, y in zip(row[k + 1 :], tail)]
                last[i] = pk
        prev = pk
    det = prev
    # back substitution on det * x, exact because det * x is integral (Cramer)
    sols = []
    for c in range(len(columns)):
        scaled = [0] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            acc = det * row[m + c]
            for j in range(i + 1, m):
                acc -= row[j] * scaled[j]
            scaled[i] = acc // row[i]
        full = [0] * g.n
        for i, v in enumerate(rest):
            full[v] = scaled[i]
        sols.append(full)
    return det, sols


def _shift_congruence(
    num: list[int], ker: list[int], comp: Sequence[int], det: int
) -> int | None:
    """Some integer y with det dividing num[v] + y * ker[v] for all v in comp.

    The solutions y form one residue class modulo ``step``, a divisor of
    det; each vertex adds a linear congruence that refines it.  None when
    the congruences are inconsistent.
    """
    y, step = 0, 1
    for v in comp:
        a = step * ker[v] % det
        b = -(num[v] + y * ker[v]) % det
        common = gcd(a, det)
        if b % common:
            return None
        modulus = det // common
        y += step * ((b // common) * pow(a // common, -1, modulus) % modulus)
        step *= modulus
    return y


def _shift_down(out: list[int], comp: Sequence[int], step: Sequence[int]) -> None:
    """Subtract the multiple of ``step`` on ``comp`` that makes out reduced there."""
    shift = min(out[v] // step[v] for v in comp)
    if shift:
        for v in comp:
            out[v] -= shift * step[v]


def _primitive(det: int, ker: list[int], comp: Sequence[int]) -> IntVector:
    """The primitive period vector of comp, zero elsewhere, from its kernel column.

    ``ker`` is det times the reduced solution for the Laplacian column of
    the root comp[0], zero outside comp; with ker[root] = det it is a kernel
    vector (matrix-tree theorem), and dividing by its gcd makes it primitive.
    """
    ker[comp[0]] = det
    common = gcd(*ker)
    p = tuple([x // common for x in ker])
    if any(p[v] <= 0 for v in comp):
        raise ArithmeticError("primitive period vector must be positive on a strongly connected graph")
    return p


def _component_period(
    g: DirectedMultigraph, comp: Sequence[int], degs: Sequence[int]
) -> IntVector:
    """The period vector of the strongly connected comp; degs counts edges inside it.

    A balanced comp, in-degree equal to out-degree inside it at every
    vertex (an Eulerian component), has the ones vector in its kernel, so
    one pass over its adjacency returns ones on it.  Any other comp costs
    one elimination.
    """
    adj = g.adjacency()
    excess = [0] * g.n
    for u in comp:
        excess[u] += degs[u]
        for w, m in adj[u].edges:
            excess[w] -= m
    # edges leaving comp only touch excess outside it
    if not any([excess[v] for v in comp]):
        ones = [0] * g.n
        for v in comp:
            ones[v] = 1
        return tuple(ones)
    det, (ker,) = _solve_reduced(g, comp, degs, comp[:1], (dense_row(g.n, adj[comp[0]]),))
    return _primitive(det, ker, comp)


def primitive_period_vector(g: DirectedMultigraph) -> IntVector:
    """The unique positive coprime vector p with laplacian(g) @ p == 0.

    Only strongly connected graphs have one; a single isolated vertex
    yields (1,).  One elimination with vertex 0 as root, or on an
    Eulerian graph one pass over the adjacency.
    """
    if not is_strongly_connected(g):
        raise ValueError("period vector requires a strongly connected graph")
    return _component_period(g, range(g.n), g.out_degrees())


@dataclass(frozen=True)
class PeriodBasis:
    """Per-component primitive period vectors and the total period length.

    ``component_vectors[i]`` is the primitive period vector of component i
    taken as a standalone graph, embedded as a full-length vector (zero
    outside the component).  Only the sink components' vectors lie in the
    kernel of the whole graph's Laplacian; they have pairwise disjoint
    supports and generate it.  ``per`` sums the coordinates of every
    component's vector, sinks or not.
    """

    scc: SccDecomposition
    component_vectors: tuple[IntVector, ...]
    sink_indices: tuple[int, ...]
    per: int

    def kernel_vectors(self) -> tuple[IntVector, ...]:
        return tuple([self.component_vectors[i] for i in self.sink_indices])


def period_basis(g: DirectedMultigraph) -> PeriodBasis:
    scc = scc_decompose(g)
    comp_of = scc.component_of
    adj = g.adjacency()
    # a component taken alone ignores the edges that leave it
    degs = [
        sum(m for w, m in out.edges if comp_of[w] == comp_of[u])
        for u, out in enumerate(adj)
    ]
    vectors = tuple([_component_period(g, comp, degs) for comp in scc.components])
    return PeriodBasis(
        scc=scc,
        component_vectors=vectors,
        sink_indices=scc.sink_component_ids(),
        per=sum(map(sum, vectors)),
    )


def nonneg_reduced_solution(g: DirectedMultigraph, d: IntVector) -> IntVector | None:
    """The unique reduced f >= 0 with laplacian(g) @ f == d, or None.

    One elimination of the reduced Laplacian (one root per sink
    component) yields det times a rational solution f0 that is zero at
    the roots, and det times each sink component's kernel vector.  The
    deleted root rows decide rational solvability.  Entries outside sink
    components are forced and must be integral and nonnegative; inside
    sink component i every solution is f0 + t * p_i, and integrality is a
    set of linear congruences in the one unknown shift, solved with gcd
    and modular inverses.  Finally each sink component is shifted by
    its period vector until it is nonnegative and does not dominate it.
    """
    if len(d) != g.n:
        raise ValueError("dimension mismatch between graph and right-hand side")
    return _reduced_solution(g, scc_decompose(g), d)


def _reduced_solution(
    g: DirectedMultigraph, scc: SccDecomposition, d: IntVector
) -> IntVector | None:
    """``nonneg_reduced_solution`` on a decomposition the caller already has."""
    n = g.n
    sinks = [scc.components[i] for i in scc.sink_component_ids()]
    roots = [comp[0] for comp in sinks]
    adj = g.adjacency()
    columns = [[-x for x in d]] + [dense_row(n, adj[s]) for s in roots]
    det, (num, *kers) = _solve_reduced(g, range(n), g.out_degrees(), roots, columns)
    # the deleted root rows: the edges into each root s carry det * d[s]
    inflow = dict.fromkeys(roots, 0)
    for v, out in enumerate(adj):
        for w, count in out.edges:
            if w in inflow:
                inflow[w] += count * num[v]
    if any([inflow[s] != det * d[s] for s in roots]):
        return None
    out = [0] * n
    for v in range(n):
        if not scc.is_sink[scc.component_of[v]]:
            q, r = divmod(num[v], det)
            if r or q < 0:
                return None
            out[v] = q
    for comp, ker in zip(sinks, kers):
        p = _primitive(det, ker, comp)
        y = _shift_congruence(num, ker, comp, det)
        if y is None:
            return None
        for v in comp:
            out[v] = (num[v] + y * ker[v]) // det
        _shift_down(out, comp, p)
    return tuple(out)


def _sink_steps(
    g: DirectedMultigraph, scale: Sequence[int]
) -> Iterator[tuple[IntVector, list[int]]]:
    """Each sink component with its period vector times ``scale`` per vertex.

    A sink component has no leaving edges, so its out-degrees are its
    own.  Zero steps, the trivial sinks under the routing scale (the
    out-degree), constrain nothing and are skipped.
    """
    scc = scc_decompose(g)
    degs = g.out_degrees()
    for i in scc.sink_component_ids():
        comp = scc.components[i]
        step = [x * k for x, k in zip(_component_period(g, comp, degs), scale)]
        if any(step):
            yield comp, step


def is_reduced(g: DirectedMultigraph, f: IntVector) -> bool:
    """True when f >= 0 dominates no nonzero period vector.

    Equivalently: in every sink component some vertex stays below the
    component's primitive period vector, so ``reduce_vector`` keeps f.
    """
    return reduce_vector(g, f) == tuple(f)


def is_routing_reduced(g: DirectedMultigraph, r: IntVector) -> bool:
    """True when r >= 0 dominates no nonzero routing period vector.

    Routing period vectors scale each period vector entry by the vertex
    out-degree.  Trivial sink components (out-degree-zero vertices) have
    the zero routing period vector and impose no constraint; r is
    reduced when ``reduce_routing_vector`` keeps it.
    """
    return reduce_routing_vector(g, r) == tuple(r)


def reduce_vector(g: DirectedMultigraph, f: IntVector) -> IntVector:
    """The reduced representative of f >= 0 modulo the period lattice."""
    _check_nonneg(g, f)
    out = list(f)
    for comp, p in _sink_steps(g, (1,) * g.n):
        _shift_down(out, comp, p)
    return tuple(out)


def reduce_routing_vector(g: DirectedMultigraph, r: IntVector) -> IntVector:
    """The routing-reduced representative of r >= 0 modulo routing periods."""
    _check_nonneg(g, r)
    out = list(r)
    for comp, p in _sink_steps(g, g.out_degrees()):
        _shift_down(out, comp, p)
    return tuple(out)


def _check_nonneg(g: DirectedMultigraph, vec: IntVector) -> None:
    if len(vec) != g.n:
        raise ValueError("vector length must match the vertex count")
    if any(x < 0 for x in vec):
        raise ValueError("vector must be nonnegative")
