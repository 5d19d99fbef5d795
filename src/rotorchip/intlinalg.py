"""Exact integer linear algebra over Laplacian lattices.

Everything here works with arbitrary-precision ints, never floats or
rationals: the answers are lattice memberships and primitive kernel
vectors, where rounding would be wrong and multiplicities may be huge.

Firing moves chips only along out-edges, so the Laplacian is block
triangular over the strongly connected components: ``L f = d`` is solved
one component at a time, sources first.  A single vertex costs O(runs);
any other component C costs one fraction-free Bareiss elimination
(Bareiss 1968) of its m <= |C| rows.  A pivot step updates only the rows
it reaches and defers the rescaling dense Bareiss applies to the others:
sum_k r_k * (m - k) integer operations for r_k such rows at step k, plus
O(m^2) per right-hand side; O(m^2) on a cycle, O(m^3) under dense fill.
Every entry it produces is a minor of C's matrix with its right-hand
sides appended, within that matrix's Hadamard bound; back substitution
at most doubles the bit length.  Every period vector comes from that
elimination on one component, unless the component is balanced
(in-degree equals out-degree over the edges inside it): then it is the
ones vector.  The connectivity pass that found the component already
found its balance, in ``scc_decompose`` or, on a whole strongly
connected graph, in ``strongly_connected_balance``.
Vectors local to a component are aligned with its vertex tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .multigraph import (
    DirectedMultigraph,
    IntVector,
    SccDecomposition,
    _check_vector,
    head_totals,
    scc_decompose,
    strongly_connected_balance,
)


def _solve_reduced(
    g: DirectedMultigraph,
    comp: Sequence[int],
    degs: Sequence[int],
    roots: Sequence[int],
    columns: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]]]:
    """Solve the reduced system on ``comp`` for several right-hand sides.

    The matrix is minus the Laplacian on ``comp``, with out-degrees
    ``degs[v]``, with the rows and columns of ``roots`` deleted; every
    vertex must reach a root or an edge leaving comp that ``degs``
    counts, so all its leading principal minors are positive
    (matrix-tree theorem).  Entry i of each column and solution belongs
    to comp[i].  Returns ``(det, sols)``: the determinant, and per column
    ``det * x`` with x solving the system on the non-roots, 0 at roots.
    """
    root_set = set(roots)
    keep = [i for i, v in enumerate(comp) if v not in root_set]
    m = len(keep)
    # column j: degs on the diagonal, minus the runs to the other kept vertices
    index = {comp[i]: j for j, i in enumerate(keep)}
    rows = [[0] * m + [col[i] for col in columns] for i in keep]
    for j, i in enumerate(keep):
        v = comp[i]
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
        sol = [0] * len(comp)
        for i, x in zip(keep, scaled):
            sol[i] = x
        sols.append(sol)
    return det, sols


def _root_column(g: DirectedMultigraph, comp: Sequence[int]) -> list[int]:
    """The edge counts from comp[0] into comp, aligned with comp."""
    totals = head_totals(g.adjacency()[comp[0]].edges)
    return [totals.get(v, 0) for v in comp]


def _shift_congruence(num: list[int], ker: list[int], det: int) -> int | None:
    """Some integer y with det dividing every entry of num + y * ker.

    The solutions y form one residue class modulo ``step``, a divisor of
    det; each entry adds a linear congruence that refines it.  None when
    the congruences are inconsistent.
    """
    y, step = 0, 1
    for x, k in zip(num, ker):
        a = step * k % det
        b = -(x + y * k) % det
        common = gcd(a, det)
        if b % common:
            return None
        modulus = det // common
        y += step * ((b // common) * pow(a // common, -1, modulus) % modulus)
        step *= modulus
    return y


def _shift_down(out: list[int], comp: Sequence[int], step: Sequence[int]) -> None:
    """Subtract the multiple of ``step``, aligned with comp, that makes out reduced there."""
    shift = min([out[v] // s for v, s in zip(comp, step)])
    if shift:
        for v, s in zip(comp, step):
            out[v] -= shift * s


def _primitive(det: int, ker: list[int]) -> IntVector:
    """The primitive period vector of a component from its kernel column.

    ``ker`` is det times the reduced solution for the Laplacian column of
    the root, entry 0; with ker[0] = det it is a kernel vector (matrix-tree
    theorem), and dividing by its gcd makes it primitive.
    """
    ker[0] = det
    common = gcd(*ker)
    p = tuple([x // common for x in ker])
    if any(x <= 0 for x in p):
        raise ArithmeticError("primitive period vector must be positive on a strongly connected graph")
    return p


def _component_period(
    g: DirectedMultigraph, comp: Sequence[int], degs: Sequence[int], balanced: bool
) -> IntVector:
    """The period of the strongly connected comp, degs counting edges inside it.

    Ones if comp is ``balanced``, else one elimination with root comp[0].
    """
    if balanced:
        return (1,) * len(comp)
    det, (ker,) = _solve_reduced(g, comp, degs, comp[:1], (_root_column(g, comp),))
    return _primitive(det, ker)


def primitive_period_vector(g: DirectedMultigraph) -> IntVector:
    """The unique positive coprime vector p with laplacian(g) @ p == 0.

    Only strongly connected graphs have one; a single isolated vertex
    yields (1,).  The connectivity check, one walk over the runs, also
    tells whether g is balanced (Eulerian): then p is the ones vector.
    Otherwise it costs one elimination with vertex 0 as root.
    """
    balanced = strongly_connected_balance(g)
    if balanced is None:
        raise ValueError("period vector requires a strongly connected graph")
    return _component_period(g, range(g.n), g.out_degrees(), balanced)


@dataclass(frozen=True)
class PeriodBasis:
    """Per-component primitive period vectors and the total period length.

    ``component_periods[i]`` is the period vector of component i taken
    as a standalone graph, aligned with ``scc.components[i]``.  Only the
    sink components' vectors, embedded by ``kernel_vectors``, lie in the
    kernel of the whole graph's Laplacian; they generate it.  ``per``
    sums the coordinates of every component's vector.
    """

    scc: SccDecomposition
    component_periods: tuple[IntVector, ...]
    sink_indices: tuple[int, ...]
    per: int

    def kernel_vectors(self) -> tuple[IntVector, ...]:
        """Each sink component's period as a full-length vector, zero outside it."""
        vectors = []
        for i in self.sink_indices:
            entries = dict(zip(self.scc.components[i], self.component_periods[i]))
            vectors.append(tuple([entries.get(v, 0) for v in range(len(self.scc.component_of))]))
        return tuple(vectors)


def period_basis(g: DirectedMultigraph) -> PeriodBasis:
    scc = scc_decompose(g)
    degs = scc.inside_degrees  # a component taken alone ignores the edges that leave it
    pairs = zip(scc.components, scc.is_balanced)
    periods = tuple([_component_period(g, comp, degs, balanced) for comp, balanced in pairs])
    return PeriodBasis(scc, periods, scc.sink_component_ids(), sum(map(sum, periods)))


def _sink_solution(
    g: DirectedMultigraph, comp: Sequence[int], degs: Sequence[int],
    rhs: list[int], balanced: bool, out: list[int],
) -> bool:
    """Write into ``out``, 0 on comp, the reduced f >= 0 on the sink comp; False if none.

    f solves minus the Laplacian on comp against ``rhs``, aligned with
    comp.  Firing keeps the chip total: a nonzero sum(rhs) gets False and
    rhs = 0 keeps f = 0, in O(|comp|).  Else one elimination with root
    comp[0] gives det times a solution f0 and, unless comp is
    ``balanced``, det times its kernel vector.  Integrality of
    f0 + t * p_C is linear congruences in t, solved with gcd and modular
    inverses, then comp is shifted by p_C until it is nonnegative and
    does not dominate it.
    """
    if sum(rhs):
        return False
    if not any(rhs):
        return True
    columns = [rhs] if balanced else [rhs, _root_column(g, comp)]
    det, (num, *kers) = _solve_reduced(g, comp, degs, comp[:1], columns)
    # a balanced component has period ones and kernel column det * ones
    ker = kers[0] if kers else [det] * len(comp)
    p = _primitive(det, ker)
    y = _shift_congruence(num, ker, det)
    if y is None:
        return False
    for v, x, k in zip(comp, num, ker):
        out[v] = (x + y * k) // det
    _shift_down(out, comp, p)
    return True


def nonneg_reduced_solution(g: DirectedMultigraph, d: IntVector) -> IntVector | None:
    """The unique reduced f >= 0 with laplacian(g) @ f == d, or None.

    One walk over the strongly connected components, sources first,
    carries the inflow from the components already solved.  A non-sink
    component C has f_C forced by its own block with full out-degrees:
    one division on a single vertex, else one elimination; each entry
    must be integral and nonnegative.  A sink C is solved against d and
    the inflow by ``_sink_solution``: O(|C|) when their difference sums
    to nonzero or is 0 (so on every trivial sink), else one elimination.
    Cost: O(n + runs), plus one elimination per nontrivial component.
    Firing keeps the chip total: a nonzero sum(d) gets None and d = 0
    gets 0 in O(n), with no connectivity pass or elimination.
    """
    _check_vector(g.n, d, "right-hand side")
    if sum(d):
        return None
    if not any(d):
        return (0,) * g.n
    scc = scc_decompose(g)
    adj = g.adjacency()
    degs = g.out_degrees()
    inflow = [0] * g.n
    out = [0] * g.n
    # Tarjan emits every component after the ones it reaches: reversed, sources first
    for i in range(len(scc.components) - 1, -1, -1):
        comp = scc.components[i]
        rhs = [inflow[v] - d[v] for v in comp]
        if scc.is_sink[i]:
            if not _sink_solution(g, comp, degs, rhs, scc.is_balanced[i], out):
                return None
            continue
        if scc.is_trivial[i]:
            det, num = degs[comp[0]], rhs
        else:
            det, (num,) = _solve_reduced(g, comp, degs, (), (rhs,))
        for v, x in zip(comp, num):
            f, r = divmod(x, det)
            if r or f < 0:
                return None
            out[v] = f
            if f:
                for w, m in adj[v].edges:
                    inflow[w] += m * f
    return tuple(out)


def is_reduced(g: DirectedMultigraph, f: IntVector) -> bool:
    """True when f >= 0 dominates no nonzero period vector.

    Equivalently: in every sink component some vertex stays below the
    component's primitive period vector, so ``reduce_vector`` keeps f.
    """
    return reduce_vector(g, f) == tuple(f)


def reduce_vector(g: DirectedMultigraph, f: IntVector) -> IntVector:
    """The reduced representative of f >= 0 modulo the period lattice.

    One decomposition; each sink component shifts f down by its period
    vector.  A sink has no leaving edges, so its out-degrees are its own.
    """
    _check_vector(g.n, f, "vector", nonneg=True)
    scc = scc_decompose(g)
    degs = g.out_degrees()
    out = list(f)
    for i in scc.sink_component_ids():
        comp = scc.components[i]
        _shift_down(out, comp, _component_period(g, comp, degs, scc.is_balanced[i]))
    return tuple(out)
