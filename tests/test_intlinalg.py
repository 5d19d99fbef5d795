from __future__ import annotations

import itertools
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareiss_reference import _solve_reduced as reference_solve
from rotorchip import intlinalg, multigraph
from rotorchip.bruteforce import enumerate_digraphs, hermite_row_reduce, laplacian, solve_integer
from rotorchip.generators import FAMILIES, gen_graph
from rotorchip.intlinalg import (
    PeriodBasis,
    is_reduced,
    is_routing_reduced,
    nonneg_reduced_solution,
    period_basis,
    primitive_period_vector,
    reduce_routing_vector,
    reduce_vector,
)
from rotorchip.multigraph import (
    DirectedMultigraph,
    SccDecomposition,
    is_strongly_connected,
    scc_decompose,
)


def mat_vec(a: tuple[tuple[int, ...], ...], x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


class TestHermite:
    def test_unimodular_transform_reproduces_h(self) -> None:
        rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        h, u = hermite_row_reduce(rows)
        n = len(rows)
        prod = [
            [sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(3)]
            for i in range(n)
        ]
        assert [list(r) for r in h] == prod

    def test_pivots_positive_and_entries_reduced(self) -> None:
        rows = [[3, 0], [0, -5], [1, 1]]
        h, _ = hermite_row_reduce(rows)
        pivots = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                j = nz[0]
                assert row[j] > 0
                pivots.append((j, row[j]))
        for (j, p), row in zip(pivots, h):
            for other in h:
                if other is not row and other[j]:
                    assert 0 <= other[j] < p or other is row


class TestSolveInteger:
    def test_solvable_two_cycle(self, c2: DirectedMultigraph) -> None:
        lap = laplacian(c2)
        f = solve_integer(lap, (-1, 1))
        assert f is not None
        assert mat_vec(lap, f) == (-1, 1)

    def test_unsolvable_two_cycle(self, c2: DirectedMultigraph) -> None:
        # Columns sum to zero, so (1, 0) is outside the lattice.
        assert solve_integer(laplacian(c2), (1, 0)) is None

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_solution_satisfies_system(self, entries: list[int]) -> None:
        a = ((entries[0], entries[1]), (entries[2], entries[3]))
        for d in itertools.product(range(-3, 4), repeat=2):
            f = solve_integer(a, d)
            if f is not None:
                assert mat_vec(a, f) == d


class TestPeriodVector:
    def test_two_cycle(self, c2: DirectedMultigraph) -> None:
        assert primitive_period_vector(c2) == (1, 1)

    def test_double_edge(self, d21: DirectedMultigraph) -> None:
        assert primitive_period_vector(d21) == (1, 2)

    def test_single_vertex(self) -> None:
        assert primitive_period_vector(DirectedMultigraph.from_edges(1, [])) == (1,)

    def test_rejects_non_strongly_connected(self, fig1: DirectedMultigraph) -> None:
        with pytest.raises(ValueError):
            primitive_period_vector(fig1)

    def test_annihilates_laplacian(self) -> None:
        for g in enumerate_digraphs(3, 2):
            if not is_strongly_connected(g):
                continue
            p = primitive_period_vector(g)
            assert all(entry >= 1 for entry in p)
            assert mat_vec(laplacian(g), p) == (0,) * g.n

    def test_eulerian_gives_all_ones(self) -> None:
        g = DirectedMultigraph.from_edges(3, [(0, 1, 2), (1, 2, 2), (2, 0, 2)])
        assert primitive_period_vector(g) == (1, 1, 1)


class TestPeriodBasis:
    def test_per_two_cycle(self, c2: DirectedMultigraph) -> None:
        assert period_basis(c2).per == 2

    def test_per_demo_graph(self, fig1: DirectedMultigraph) -> None:
        # Non-sink component {t, b, l} contributes 3, the sink vertex 1.
        assert period_basis(fig1).per == 4

    def test_per_two_disjoint_cycles(self) -> None:
        g = DirectedMultigraph.from_edges(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])
        basis = period_basis(g)
        assert basis.per == 4
        kernel = basis.kernel_vectors()
        assert sorted(kernel) == [(0, 0, 1, 1), (1, 1, 0, 0)]

    def test_kernel_vectors_annihilate_laplacian(self) -> None:
        for g in enumerate_digraphs(3, 2):
            basis = period_basis(g)
            lap = laplacian(g)
            for vec in basis.kernel_vectors():
                assert mat_vec(lap, vec) == (0,) * g.n

    def test_only_sink_components_enter_kernel(self, fig1: DirectedMultigraph) -> None:
        basis = period_basis(fig1)
        scc = scc_decompose(fig1)
        assert set(basis.sink_indices) == set(scc.sink_component_ids())
        kernel = basis.kernel_vectors()
        assert kernel == ((0, 0, 0, 1),)


class TestNonnegReducedSolution:
    def test_frozen_two_cycle_values(self, c2: DirectedMultigraph) -> None:
        assert nonneg_reduced_solution(c2, (-1, 1)) == (1, 0)
        assert nonneg_reduced_solution(c2, (0, 0)) == (0, 0)
        assert nonneg_reduced_solution(c2, (1, -1)) == (0, 1)
        assert nonneg_reduced_solution(c2, (1, 0)) is None

    def test_agrees_with_box_enumeration(self) -> None:
        # Oracle: smallest nonnegative lattice solution by brute-force box scan.
        for g in enumerate_digraphs(2, 2):
            lap = laplacian(g)
            for d in itertools.product(range(-2, 3), repeat=2):
                got = nonneg_reduced_solution(g, d)
                best = None
                for f in itertools.product(range(0, 7), repeat=2):
                    if mat_vec(lap, f) == d and is_reduced(g, f):
                        assert best is None or f == best, (g.mult, d, best, f)
                        best = f
                assert got == best, (g.mult, d, got, best)
                if got is not None:
                    assert mat_vec(lap, got) == d
                    assert is_reduced(g, got)


# every loop-free graph on 3 vertices with multiplicities up to 2: several
# sink components, trivial (out-degree-0) sinks and non-strongly-connected
# graphs among them
_DESK_GRAPHS = tuple(enumerate_digraphs(3, 2))


@st.composite
def _graphs(draw) -> DirectedMultigraph:
    source = draw(st.sampled_from(("desk", "random", "chain")))
    if source == "desk":
        return draw(st.sampled_from(_DESK_GRAPHS))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    if source == "chain":
        return _chain_graph(rng, draw(st.sampled_from((1, 18))))
    return gen_graph("random", draw(st.integers(min_value=2, max_value=6)), rng)


def _component_laplacian(
    g: DirectedMultigraph, comp: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The Laplacian of comp taken as a standalone graph, from g.mult."""
    mult = g.mult
    return tuple(
        tuple(-sum(mult[v][w] for w in comp) if u == v else mult[v][u] for v in comp)
        for u in comp
    )


def _checked_period_basis(g: DirectedMultigraph) -> PeriodBasis:
    """period_basis(g), after checking every vector against its definition.

    A strongly connected component's Laplacian has a one-dimensional
    kernel, so the vector that is positive and primitive on the
    component, zero outside it and annihilated by that Laplacian is
    unique.
    """
    basis = period_basis(g)
    scc = scc_decompose(g)
    assert basis.scc == scc
    assert basis.sink_indices == scc.sink_component_ids()
    assert len(basis.component_periods) == len(scc.components)
    for comp, vec in zip(scc.components, basis.component_periods):
        assert len(vec) == len(comp), (g.mult, comp, vec)
        assert all(x > 0 for x in vec), (g.mult, comp, vec)
        assert gcd(*vec) == 1, (g.mult, comp, vec)
        lap = _component_laplacian(g, comp)
        assert mat_vec(lap, vec) == (0,) * len(comp), (g.mult, comp, vec)
    kernel = basis.kernel_vectors()
    assert len(kernel) == len(basis.sink_indices)
    for i, vec in zip(basis.sink_indices, kernel):
        comp = scc.components[i]
        assert tuple(vec[v] for v in comp) == basis.component_periods[i], (g.mult, comp, vec)
        assert all(vec[v] == 0 for v in range(g.n) if v not in comp), (g.mult, comp, vec)
    assert basis.per == sum(sum(vec) for vec in basis.component_periods)
    return basis


def _reference_reduce(
    g: DirectedMultigraph, basis: PeriodBasis, f: tuple[int, ...], routing: bool
) -> tuple[int, ...]:
    """Subtract each sink component's period step from f >= 0 while f dominates it.

    The routing step scales each entry by the out-degree; a trivial sink
    then has the zero step and is left unconstrained.
    """
    degs = g.out_degrees()
    out = list(f)
    for i in basis.sink_indices:
        if routing and basis.scc.is_trivial[i]:
            continue
        comp = basis.scc.components[i]
        p = basis.component_periods[i]
        step = {v: x * (degs[v] if routing else 1) for v, x in zip(comp, p)}
        while all(out[v] >= step[v] for v in comp):
            for v in comp:
                out[v] -= step[v]
    return tuple(out)


def _oracle_reduced_solution(g: DirectedMultigraph, d: tuple[int, ...]) -> tuple[int, ...] | None:
    """HNF solve, then on each sink the least shift that is nonnegative there.

    The solutions are f + sum of t_i * p_i over the sink components i;
    the reduced one takes on each sink the least t_i that makes it
    nonnegative there.  The entries outside the sinks are fixed and must
    be nonnegative.
    """
    f = solve_integer(laplacian(g), d)
    if f is None:
        return None
    basis = _checked_period_basis(g)
    out = list(f)
    for i in basis.sink_indices:
        comp, p = basis.scc.components[i], basis.component_periods[i]
        t = max(-(f[v] // x) for v, x in zip(comp, p))
        for v, x in zip(comp, p):
            out[v] += t * x
    if any(x < 0 for x in out):
        return None
    return tuple(out)


class TestSolverMatchesHnfOracle:
    @given(_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_lattice_and_perturbed_right_hand_sides(self, g: DirectedMultigraph, data) -> None:
        # a nonnegative f solves its own right-hand side, so the walk gets
        # past every non-sink component to the sinks
        low = data.draw(st.sampled_from((-4, 0)))
        vec = st.lists(st.integers(min_value=low, max_value=4), min_size=g.n, max_size=g.n)
        d = mat_vec(laplacian(g), tuple(data.draw(vec)))
        perturbed = tuple(a + b for a, b in zip(d, data.draw(vec)))
        for rhs in (d, perturbed, (0,) * g.n):
            got = nonneg_reduced_solution(g, rhs)
            assert got == _oracle_reduced_solution(g, rhs), (g.mult, rhs)
            if got is not None:
                assert mat_vec(laplacian(g), got) == rhs


class TestReductionsMatchReference:
    @given(_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_chip_and_routing_reductions(self, g: DirectedMultigraph, data) -> None:
        basis = _checked_period_basis(g)
        vec = st.lists(st.integers(min_value=0, max_value=12), min_size=g.n, max_size=g.n)
        f = tuple(data.draw(vec))
        for routing, reduce, reduced in (
            (False, reduce_vector, is_reduced),
            (True, reduce_routing_vector, is_routing_reduced),
        ):
            want = _reference_reduce(g, basis, f, routing)
            assert reduce(g, f) == want, (g.mult, f, routing)
            assert reduced(g, f) == (want == f), (g.mult, f, routing)


def _glued(rng: Random, blocks: list[DirectedMultigraph], links) -> DirectedMultigraph:
    """The blocks side by side, plus one edge per link (i, j, m).

    Each link runs from a random vertex of block i to a random vertex of
    block j, with multiplicity m.
    """
    starts = [0]
    for block in blocks:
        starts.append(starts[-1] + block.n)
    edges = [
        (start + u, start + v, m)
        for start, block in zip(starts, blocks)
        for u, out in enumerate(block.adjacency())
        for v, m in out.edges
    ]
    for i, j, m in links:
        edges.append((starts[i] + rng.randrange(blocks[i].n), starts[j] + rng.randrange(blocks[j].n), m))
    return DirectedMultigraph.from_edges(starts[-1], edges)


def _two_sink_graph(rng: Random, digits: int) -> DirectedMultigraph:
    """A strongly connected block with edges into two disjoint random blocks.

    The random blocks hold at least one sink component each, often more.
    """
    blocks = [
        gen_graph("strongly-connected", rng.randint(2, 4), rng),
        gen_graph("random", rng.randint(2, 5), rng),
        gen_graph("random", rng.randint(2, 5), rng),
    ]
    return _glued(rng, blocks, [(0, j, rng.randint(1, 10**digits)) for j in (1, 2)])


_SINGLE_VERTEX = DirectedMultigraph.from_edges(1, [])


def _chain_graph(rng: Random, digits: int) -> DirectedMultigraph:
    """A condensation chain on at most 14 vertices, multiplicities up to 10^digits.

    A strongly connected block, then a single vertex, then another
    strongly connected block, which feeds three sinks: a balanced
    (Eulerian) one, an unbalanced two-cycle and a single vertex.  A few
    more edges skip ahead along the chain.
    """
    big = 10**digits
    low = rng.randint(1, big)
    blocks = [
        gen_graph("heavy-multiplicity", rng.randint(2, 3), rng, digits=digits),
        _SINGLE_VERTEX,
        gen_graph("heavy-multiplicity", rng.randint(2, 3), rng, digits=digits),
        gen_graph("eulerian", rng.randint(2, 3), rng),
        DirectedMultigraph.from_edges(2, [(0, 1, low), (1, 0, low + rng.randint(1, big))]),
        _SINGLE_VERTEX,
    ]
    links = [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)]
    links += [(i, rng.randrange(i + 1, 6)) for i in rng.sample(range(3), rng.randint(0, 3))]
    return _glued(rng, blocks, [(i, j, rng.randint(1, big)) for i, j in links])


@st.composite
def _solve_cases(draw) -> DirectedMultigraph:
    source = draw(st.sampled_from(("desk", "two-sinks", "chain", *FAMILIES)))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    if source == "desk":
        return draw(st.sampled_from(_DESK_GRAPHS))
    if source in ("two-sinks", "chain"):
        make = _two_sink_graph if source == "two-sinks" else _chain_graph
        return make(rng, draw(st.sampled_from((1, 18))))
    size = draw(st.integers(min_value=2, max_value=14))
    return gen_graph(source, size, rng)


def _reference_period(g: DirectedMultigraph, comp: tuple[int, ...], degs) -> tuple[int, ...]:
    det, (ker,) = reference_solve(g, comp, degs, comp[:1], (g.mult[comp[0]],))
    return intlinalg._primitive(det, [ker[v] for v in comp])


def _embedded_solve(g: DirectedMultigraph, comp, degs, roots, columns):
    """``intlinalg._solve_reduced`` on columns sliced to comp, solutions embedded back."""
    det, sols = intlinalg._solve_reduced(g, comp, degs, roots, [[col[v] for v in comp] for col in columns])
    full = []
    for sol in sols:
        vec = [0] * g.n
        for v, x in zip(comp, sol):
            vec[v] = x
        full.append(vec)
    return det, full


def _inner_degrees(g: DirectedMultigraph, scc: SccDecomposition) -> list[int]:
    comp_of = scc.component_of
    return [
        sum(m for w, m in out.edges if comp_of[w] == comp_of[u])
        for u, out in enumerate(g.adjacency())
    ]


class TestSolveMatchesDenseBareiss:
    """Lazy row scaling returns dense Bareiss's determinant and columns."""

    @given(_solve_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_whole_graph_solve(self, g: DirectedMultigraph, data) -> None:
        scc = scc_decompose(g)
        roots = [scc.components[i][0] for i in scc.sink_component_ids()]
        bound = data.draw(st.sampled_from((4, 10**18)))
        entries = st.integers(min_value=-bound, max_value=bound)
        k = data.draw(st.integers(min_value=1, max_value=3))
        columns = [data.draw(st.lists(entries, min_size=g.n, max_size=g.n)) for _ in range(k)]
        columns += [g.mult[r] for r in roots]
        args = (g, range(g.n), g.out_degrees(), roots, columns)
        assert _embedded_solve(*args) == reference_solve(*args), g.mult

    @given(_solve_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_component_solves(self, g: DirectedMultigraph, data) -> None:
        scc = scc_decompose(g)
        degs = _inner_degrees(g, scc)
        entries = st.integers(min_value=-(10**18), max_value=10**18)
        for comp in scc.components:
            columns = [g.mult[comp[0]], data.draw(st.lists(entries, min_size=g.n, max_size=g.n))]
            args = (g, comp, degs, comp[:1], columns)
            assert _embedded_solve(*args) == reference_solve(*args), (g.mult, comp)


class TestEulerianShortcut:
    """Balanced components skip the elimination and still get its answer."""

    @given(_solve_cases())
    @settings(max_examples=300, deadline=None)
    def test_component_period_matches_dense_bareiss(self, g: DirectedMultigraph) -> None:
        scc = scc_decompose(g)
        degs = _inner_degrees(g, scc)
        for comp, balanced in zip(scc.components, scc.is_balanced):
            p = intlinalg._component_period(g, comp, degs, balanced)
            assert p == _reference_period(g, comp, degs), (g.mult, comp)
            lap = _component_laplacian(g, comp)
            if mat_vec(lap, (1,) * len(comp)) == (0,) * len(comp):
                assert p == (1,) * len(comp)

    @pytest.mark.parametrize("n", [2, 5, 14, 40])
    def test_eulerian_family_gives_ones(self, n: int) -> None:
        for seed in range(5):
            g = gen_graph("eulerian", n, Random(seed))
            comp = tuple(range(n))
            scc = scc_decompose(g)
            assert scc.components == (comp,)
            p = intlinalg._component_period(g, comp, g.out_degrees(), scc.is_balanced[0])
            assert p == (1,) * n
            assert p == _reference_period(g, comp, g.out_degrees())

    def test_period_basis_mixes_eulerian_and_other_components(self, monkeypatch) -> None:
        # balanced {0, 1, 2} with an edge leaving it at 2 -> sink {3, 4}
        # with period (1, 2), and a balanced sink {5, 6} fed from 0
        g = DirectedMultigraph.from_edges(7, [
            (0, 1, 2), (1, 2, 2), (2, 0, 2), (2, 3, 1), (0, 5, 3),
            (3, 4, 2), (4, 3, 1), (5, 6, 2), (6, 5, 2),
        ])
        eliminated = []
        solve = intlinalg._solve_reduced

        def counting(g, verts, *args):
            eliminated.append(tuple(verts))
            return solve(g, verts, *args)

        monkeypatch.setattr(intlinalg, "_solve_reduced", counting)
        basis = _checked_period_basis(g)
        assert eliminated == [(3, 4)]
        vectors = dict(zip(basis.scc.components, basis.component_periods))
        assert vectors == {(0, 1, 2): (1, 1, 1), (3, 4): (1, 2), (5, 6): (1, 1)}
        assert sorted(basis.kernel_vectors()) == [(0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 2, 0, 0)]
        assert basis.per == 8


# cycle {0, 1} -> vertex 2 -> sink cycle {3, 4}, and {0, 1} -> sink vertex 5
_FOUR_COMPONENTS = DirectedMultigraph.from_edges(
    6, [(0, 1, 1), (1, 0, 2), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 3, 3), (0, 5, 1)]
)


class TestOneSccPass:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: period_basis(g),
            lambda g: reduce_vector(g, (5,) * g.n),
            lambda g: reduce_routing_vector(g, (5,) * g.n),
            lambda g: is_reduced(g, (5,) * g.n),
            lambda g: is_routing_reduced(g, (5,) * g.n),
        ],
        ids=[
            "period_basis",
            "reduce_vector",
            "reduce_routing_vector",
            "is_reduced",
            "is_routing_reduced",
        ],
    )
    def test_one_decomposition_per_call(self, monkeypatch, fig1: DirectedMultigraph, call) -> None:
        assert len(scc_decompose(_FOUR_COMPONENTS).components) == 4
        calls = []

        def counting(g: DirectedMultigraph) -> SccDecomposition:
            calls.append(g)
            return scc_decompose(g)

        monkeypatch.setattr(multigraph, "scc_decompose", counting)
        monkeypatch.setattr(intlinalg, "scc_decompose", counting)
        for g in (fig1, _FOUR_COMPONENTS):
            calls.clear()
            call(g)
            assert len(calls) == 1

    def test_trivial_right_hand_sides_make_no_pass(
        self, forbid_connectivity_passes, c2: DirectedMultigraph, fig1: DirectedMultigraph
    ) -> None:
        # firing keeps the chip total: a nonzero sum has no solution, and 0 solves 0
        graphs = (c2, fig1, _FOUR_COMPONENTS, gen_graph("strongly-connected", 9, Random(9)))
        cases = [(g, d) for g in graphs for d in ((0,) * g.n, (1,) + (0,) * (g.n - 1), (-3,) * g.n)]
        wants = [nonneg_reduced_solution(g, d) for g, d in cases]
        assert [w if w is None else set(w) for w in wants] == [{0}, None, None] * len(graphs)
        forbid_connectivity_passes()
        assert [nonneg_reduced_solution(g, d) for g, d in cases] == wants


class TestReduced:
    def test_frozen_examples(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert is_reduced(c2, (1, 0))
        assert not is_reduced(c2, (1, 1))
        assert is_routing_reduced(d21, (1, 1))
        assert not is_routing_reduced(d21, (2, 2))

    def test_reduce_vector_two_cycle(self, c2: DirectedMultigraph) -> None:
        assert reduce_vector(c2, (3, 2)) == (1, 0)

    def test_reduce_routing_vector_double_edge(self, d21: DirectedMultigraph) -> None:
        # Routing periods are p * outdeg = (2, 2); the shift is min(5//2, 3//2) = 1.
        assert reduce_routing_vector(d21, (5, 3)) == (3, 1)

    def test_reduce_idempotent_and_reduced(self, c2: DirectedMultigraph) -> None:
        for f in itertools.product(range(0, 5), repeat=2):
            r = reduce_vector(c2, f)
            assert is_reduced(c2, r)
            assert reduce_vector(c2, r) == r

    def test_routing_reduce_skips_trivial_sink_components(self, fig1: DirectedMultigraph) -> None:
        # The sink vertex has outdeg 0; its entry must pass through untouched.
        r = (0, 0, 0, 5)
        assert reduce_routing_vector(fig1, r) == r
        assert is_routing_reduced(fig1, r)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_reduce_invariant_under_kernel_shift(self, f: list[int]) -> None:
        c2 = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        shifted = tuple(x + 3 for x in f)
        assert reduce_vector(c2, tuple(f)) == reduce_vector(c2, shifted)

    def test_rejects_negative_entries(self, c2: DirectedMultigraph) -> None:
        with pytest.raises(ValueError):
            reduce_vector(c2, (-1, 0))
        with pytest.raises(ValueError):
            is_reduced(c2, (-1, 0))
