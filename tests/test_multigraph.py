from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotorchip.bruteforce import enumerate_digraphs, graph_from_rows, laplacian, reachability_matrix
from rotorchip.chipfiring import (
    bounded_chip_game, halts, is_recurrent, is_recurrent_via_reach, lin_equiv, reach_chip,
)
from rotorchip.generators import FAMILIES, gen_graph
from rotorchip.intlinalg import nonneg_reduced_solution, reduce_routing_vector, reduce_vector
from rotorchip.multigraph import (
    SMALL_GRAPH_MAX_N,
    DirectedMultigraph,
    is_strongly_connected,
    scc_decompose,
    strongly_connected_balance,
)
from rotorchip.rotorrouting import (
    ChipRotorConfig,
    RibbonStructure,
    bounded_rotor_game,
    pi_r,
    validate_config,
)


def loopless_rows(max_n: int = 5, max_mult: int = 3) -> st.SearchStrategy[tuple[tuple[int, ...], ...]]:
    """n x n multiplicity matrices with a zero diagonal, n in [1, max_n]."""
    def build(n: int, draw_rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(0 if u == v else draw_rows[u][v] for v in range(n)) for u in range(n))

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.lists(st.integers(min_value=0, max_value=max_mult), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )


def small_graphs(max_n: int = 5, max_mult: int = 3) -> st.SearchStrategy[DirectedMultigraph]:
    return loopless_rows(max_n, max_mult).map(graph_from_rows)


def _cycle(vertices: list[int], mult: int = 1) -> list[tuple[int, int, int]]:
    """The edges of the directed cycle through ``vertices`` in order; none for one vertex."""
    if len(vertices) < 2:
        return []
    return [(u, v, mult) for u, v in zip(vertices, vertices[1:] + vertices[:1])]


@st.composite
def balanced_graphs(draw) -> DirectedMultigraph:
    """Balanced graphs, strongly connected or not, on shuffled vertices.

    A sum of random cycles, two disjoint cycles (one may be a single
    vertex), or a cycle and an isolated vertex, which may be vertex 0.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(("cycle-sum", "two-cycles", "cycle-and-isolated")))
    if kind == "cycle-sum":
        cycles = draw(st.lists(
            st.tuples(
                st.lists(st.sampled_from(order), min_size=2, max_size=n, unique=True),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=4,
        ))
        edges = [e for vertices, mult in cycles for e in _cycle(vertices, mult)]
    else:
        split = n - 1 if kind == "cycle-and-isolated" else draw(st.integers(1, n - 1))
        edges = _cycle(order[:split]) + _cycle(order[split:])
    return DirectedMultigraph.from_edges(n, edges)


@st.composite
def unbalanced_cycle_graphs(draw) -> DirectedMultigraph:
    """A Hamiltonian cycle plus chords on shuffled vertices, or that graph less one cycle edge.

    The whole graph is strongly connected and unbalanced.  Less an edge,
    the walk from vertex 0 may miss a vertex, or a component may close
    without vertex 0.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    order = draw(st.permutations(range(n)))
    chord = st.tuples(st.sampled_from(order), st.sampled_from(order), st.integers(1, 3))
    chords = draw(st.lists(chord.filter(lambda e: e[0] != e[1]), min_size=1, max_size=n))
    edges = _cycle(order) + chords
    assume(not _column_balanced(DirectedMultigraph.from_edges(n, edges)))
    if draw(st.booleans()):
        del edges[draw(st.integers(min_value=0, max_value=n - 1))]
    return DirectedMultigraph.from_edges(n, edges)


def _column_balanced(g: DirectedMultigraph) -> bool:
    """In-degree equals out-degree at every vertex, from the dense view's column sums."""
    rows = g.mult
    return all(sum(row[v] for row in rows) == sum(rows[v]) for v in range(g.n))


def _check_balance(g: DirectedMultigraph) -> None:
    """``is_balanced`` against the degrees inside each component, and the whole-graph balance."""
    scc = scc_decompose(g)
    rows = g.mult
    for i, comp in enumerate(scc.components):
        inside = all(sum(rows[u][v] for u in comp) == sum(rows[v][w] for w in comp) for v in comp)
        assert scc.is_balanced[i] == inside, (rows, comp)
    comp_of = scc.component_of
    assert scc.inside_degrees == tuple(
        sum([m for w, m in enumerate(row) if comp_of[w] == comp_of[v]]) for v, row in enumerate(rows)
    ), rows
    connected = len(scc.components) == 1
    assert strongly_connected_balance(g) == (scc.is_balanced[0] if connected else None)
    assert _column_balanced(g) == (all(scc.is_sink) and all(scc.is_balanced)), rows


class TestConstruction:
    def test_from_edges_accumulates_multiplicity(self) -> None:
        g = DirectedMultigraph.from_edges(2, [(0, 1, 1), (0, 1, 2)])
        assert g.mult == ((0, 3), (0, 0))

    def test_rejects_loops(self) -> None:
        with pytest.raises(ValueError):
            DirectedMultigraph.from_edges(2, [(0, 0, 1)])

    def test_rejects_negative_multiplicity(self) -> None:
        for build in (
            lambda: DirectedMultigraph.from_edges(2, [(0, 1, -1)]),
            lambda: graph_from_rows(((0, -1), (0, 0))),
        ):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == "negative multiplicity on edge 0->1"

    @pytest.mark.parametrize("m", [2.7, "1", 1.0])
    def test_rejects_a_multiplicity_that_is_not_an_integer(self, m) -> None:
        for build in (
            lambda: DirectedMultigraph.from_edges(2, [(0, 1, m), (1, 0, 1)]),
            lambda: graph_from_rows(((0, m), (1, 0))),
        ):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == f"edge {(0, 1, m)!r} is not three integers"

    @pytest.mark.parametrize("m, message", [
        (1, "loop at vertex 1 is not allowed"),
        (-1, "loop at vertex 1 is not allowed"),
        (2.7, "edge (1, 1, 2.7) is not three integers"),
        (0.0, "edge (1, 1, 0.0) is not three integers"),
    ])
    def test_rows_reject_a_nonzero_diagonal_entry(self, m, message: str) -> None:
        with pytest.raises(ValueError) as exc:
            graph_from_rows(((0, 1), (1, m)))
        assert str(exc.value) == message

    def test_rejects_an_endpoint_that_is_not_an_integer(self) -> None:
        with pytest.raises(ValueError, match="is not three integers"):
            DirectedMultigraph.from_edges(2, [(0, 1.0, 1)])

    @pytest.mark.parametrize("rows", [((0, 1),), ((0, 1), (1,)), ((0,), (1, 0))])
    def test_rows_reject_a_matrix_that_is_not_square(self, rows) -> None:
        with pytest.raises(ValueError, match="must be n x n"):
            graph_from_rows(rows)

    def test_rejects_no_vertex(self) -> None:
        with pytest.raises(ValueError, match="at least one vertex"):
            graph_from_rows(())
        with pytest.raises(ValueError, match="at least one vertex"):
            DirectedMultigraph.from_edges(0, [])

    def test_degrees(self) -> None:
        g = DirectedMultigraph.from_edges(3, [(0, 1, 2), (0, 2, 1), (1, 0, 1)])
        assert g.out_degree(0) == 3
        assert g.out_degree(2) == 0

    @given(loopless_rows(max_n=12, max_mult=10**18))
    @settings(max_examples=60, deadline=None)
    def test_rows_give_back_their_matrix(self, rows) -> None:
        # max_n straddles SMALL_GRAPH_MAX_N: both sides give back their matrix
        g = graph_from_rows(rows)
        assert g.mult == rows
        adj = g.adjacency()
        for row, out in zip(rows, adj):
            assert out.degree == sum(row)
            assert out.edges == tuple((u, m) for u, m in enumerate(row) if m)
        assert g.adjacency() == adj

    def test_small_graphs_share_equal_entries(self) -> None:
        g = DirectedMultigraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        h = DirectedMultigraph.from_edges(3, [(0, 1, 1), (0, 1, 1), (2, 1, 1)])
        rows = graph_from_rows(((0, 2, 0), (0, 0, 0), (0, 0, 0)))
        assert g.adjacency()[0] is h.adjacency()[0] is rows.adjacency()[0]
        assert g.adjacency()[2] is rows.adjacency()[1] is rows.adjacency()[2]

    def test_large_graphs_keep_their_own_entries(self) -> None:
        n = SMALL_GRAPH_MAX_N + 1
        g = DirectedMultigraph.from_edges(n, [(0, 1, 2)])
        h = DirectedMultigraph.from_edges(n, [(0, 1, 2)])
        assert g.adjacency() is g.adjacency()
        assert g == h and g.adjacency()[0] == h.adjacency()[0]
        assert g.adjacency()[0] is not h.adjacency()[0]


class TestLaplacian:
    def test_two_cycle(self, c2: DirectedMultigraph) -> None:
        # Column v carries -outdeg(v) on the diagonal and d(v, u) off it.
        assert laplacian(c2) == ((-1, 1), (1, -1))

    def test_double_edge(self, d21: DirectedMultigraph) -> None:
        assert laplacian(d21) == ((-2, 1), (2, -1))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_columns_sum_to_zero(self, g: DirectedMultigraph) -> None:
        lap = laplacian(g)
        for v in range(g.n):
            assert sum(lap[u][v] for u in range(g.n)) == 0


class TestScc:
    def test_two_cycle_single_component(self, c2: DirectedMultigraph) -> None:
        scc = scc_decompose(c2)
        assert len(scc.components) == 1
        assert scc.is_sink == (True,)
        assert scc.is_trivial == (False,)

    def test_sink_vertex_is_trivial_sink_component(self, fig1: DirectedMultigraph) -> None:
        scc = scc_decompose(fig1)
        assert len(scc.components) == 2
        sink_comp = scc.component_of[3]
        assert scc.is_sink[sink_comp]
        assert scc.is_trivial[sink_comp]
        other = scc.component_of[0]
        assert scc.component_of[1] == other and scc.component_of[2] == other
        assert not scc.is_sink[other]

    def test_sink_component_always_exists(self) -> None:
        for g in enumerate_digraphs(3, 1):
            scc = scc_decompose(g)
            assert scc.sink_component_ids()

    @given(small_graphs(max_n=6, max_mult=1))
    @settings(max_examples=80, deadline=None)
    def test_components_match_mutual_reachability(self, g: DirectedMultigraph) -> None:
        scc = scc_decompose(g)
        reach = reachability_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                same = scc.component_of[u] == scc.component_of[v]
                assert same == (reach[u][v] and reach[v][u])

    @given(small_graphs(max_n=6, max_mult=1))
    @settings(max_examples=80, deadline=None)
    def test_sink_components_have_no_exits(self, g: DirectedMultigraph) -> None:
        scc = scc_decompose(g)
        for cid, members in enumerate(scc.components):
            exits = [
                w
                for v in members
                for w, m in enumerate(g.mult[v])
                if m and scc.component_of[w] != cid
            ]
            assert scc.is_sink[cid] == (not exits)

    def test_balance_on_every_graph_up_to_three_vertices(self) -> None:
        for n in (1, 2, 3):
            for g in enumerate_digraphs(n, 2):
                _check_balance(g)

    @given(st.one_of(balanced_graphs(), small_graphs(max_n=6)))
    @settings(max_examples=300, deadline=None)
    def test_balance_matches_the_degrees_inside_each_component(self, g: DirectedMultigraph) -> None:
        _check_balance(g)


class TestPredicates:
    def test_strongly_connected(self, c2: DirectedMultigraph, fig1: DirectedMultigraph) -> None:
        assert is_strongly_connected(c2)
        assert not is_strongly_connected(fig1)

    @given(st.one_of(balanced_graphs(), unbalanced_cycle_graphs(), small_graphs(max_n=6, max_mult=1)))
    @settings(max_examples=300, deadline=None)
    def test_strongly_connected_matches_the_decomposition(self, g: DirectedMultigraph) -> None:
        # either early exit, or a full walk whose excess gives the balance
        connected = len(scc_decompose(g).components) == 1
        assert is_strongly_connected(g) == connected
        assert strongly_connected_balance(g) == (_column_balanced(g) if connected else None)

    def test_eulerian_balance(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert strongly_connected_balance(c2) is True
        assert strongly_connected_balance(d21) is False

    @given(
        st.sampled_from(FAMILIES),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_eulerian_matches_column_sums(self, family: str, n: int, seed: int) -> None:
        g = gen_graph(family, n, Random(seed))
        mult = g.mult
        # adding the reverse of every edge balances any graph
        both = graph_from_rows([[mult[u][v] + mult[v][u] for v in range(n)] for u in range(n)])
        for h in (g, both):
            rows = h.mult
            balanced = all(sum(row[v] for row in rows) == sum(rows[v]) for v in range(n))
            scc = scc_decompose(h)
            assert (all(scc.is_sink) and all(scc.is_balanced)) == balanced, (family, h.mult)
            connected = len(scc.components) == 1
            assert strongly_connected_balance(h) == (balanced if connected else None)
        scc = scc_decompose(both)
        assert all(scc.is_sink) and all(scc.is_balanced)
        if family == "eulerian":
            assert strongly_connected_balance(g) is True


class TestGenGraph:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_size_below_two_raises(self, family: str, size: int) -> None:
        with pytest.raises(ValueError) as exc:
            gen_graph(family, size, Random(0))
        assert str(exc.value) == f"graph size must be at least 2, got {size}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_is_the_vertex_count(self, family: str) -> None:
        assert [gen_graph(family, n, Random(n)).n for n in (2, 3, 7)] == [2, 3, 7]


_C2 = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
_C2_RIBBON = RibbonStructure.of(_C2)
_C2_CONFIG = ChipRotorConfig((1, 0), (0, 0))

# every engine entry point's vector argument: the name its messages give,
# whether it must be nonnegative, and a call that passes it
VECTOR_SITES = {
    "bounded_chip_game bound": ("count vector", True, lambda v: bounded_chip_game(_C2, (0, 0), v)),
    "bounded_chip_game x": ("chip configuration", False, lambda v: bounded_chip_game(_C2, v, (0, 0))),
    "reach_chip x": ("configuration", False, lambda v: reach_chip(_C2, v, (0, 0))),
    "reach_chip y": ("configuration", False, lambda v: reach_chip(_C2, (0, 0), v)),
    "lin_equiv x": ("configuration", False, lambda v: lin_equiv(_C2, v, (0, 0))),
    "lin_equiv y": ("configuration", False, lambda v: lin_equiv(_C2, (0, 0), v)),
    "halts": ("configuration", False, lambda v: halts(_C2, v)),
    "is_recurrent": ("chip configuration", False, lambda v: is_recurrent(_C2, v)),
    "is_recurrent_via_reach": ("chip configuration", False, lambda v: is_recurrent_via_reach(_C2, v)),
    "nonneg_reduced_solution": ("right-hand side", False, lambda v: nonneg_reduced_solution(_C2, v)),
    "reduce_vector": ("vector", True, lambda v: reduce_vector(_C2, v)),
    "reduce_routing_vector": ("vector", True, lambda v: reduce_routing_vector(_C2, v)),
    "validate_config chips": (
        "configuration", False, lambda v: validate_config(_C2_RIBBON, ChipRotorConfig(v, (0, 0)))
    ),
    "validate_config rotors": (
        "configuration", False, lambda v: validate_config(_C2_RIBBON, ChipRotorConfig((0, 0), v))
    ),
    "bounded_rotor_game": ("bound", True, lambda v: bounded_rotor_game(_C2_RIBBON, _C2_CONFIG, v)),
    "pi_r": ("routing vector", True, lambda v: pi_r(_C2_RIBBON, _C2_CONFIG, v)),
}


class TestVectorChecks:
    @pytest.mark.parametrize("site", VECTOR_SITES)
    def test_length_and_sign_messages(self, site: str) -> None:
        what, nonneg, call = VECTOR_SITES[site]
        with pytest.raises(ValueError, match=f"^{what} length must match the vertex count$"):
            call((0, 0, 0))
        if nonneg:
            with pytest.raises(ValueError, match=f"^{what} must be nonnegative$"):
                call((1, -1))

    def test_pi_r_refuses_routing_a_sink(self, fig1_ribbon: RibbonStructure) -> None:
        config = ChipRotorConfig((0, 0, 0, 0), (0, 0, 0, None))
        with pytest.raises(ValueError, match="^routing vector positive at sink vertex 3$"):
            pi_r(fig1_ribbon, config, (1, 0, 0, 1))
