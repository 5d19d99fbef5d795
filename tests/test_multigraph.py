from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorchip.bruteforce import enumerate_digraphs, laplacian, reachability_matrix
from rotorchip.generators import FAMILIES, gen_graph
from rotorchip.multigraph import (
    SMALL_GRAPH_MAX_N,
    DirectedMultigraph,
    is_eulerian,
    is_strongly_connected,
    scc_decompose,
)


def small_graphs(max_n: int = 5, max_mult: int = 3) -> st.SearchStrategy[DirectedMultigraph]:
    def build(n: int, draw_rows: list[list[int]]) -> DirectedMultigraph:
        rows = [[0 if u == v else draw_rows[u][v] for v in range(n)] for u in range(n)]
        return DirectedMultigraph(n=n, mult=tuple(tuple(r) for r in rows))

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


class TestConstruction:
    def test_from_edges_accumulates_multiplicity(self) -> None:
        g = DirectedMultigraph.from_edges(2, [(0, 1, 1), (0, 1, 2)])
        assert g.mult == ((0, 3), (0, 0))

    def test_rejects_loops(self) -> None:
        with pytest.raises(ValueError):
            DirectedMultigraph.from_edges(2, [(0, 0, 1)])

    def test_rejects_negative_multiplicity(self) -> None:
        with pytest.raises(ValueError):
            DirectedMultigraph(n=2, mult=((0, -1), (0, 0)))

    @pytest.mark.parametrize("m", [2.7, "1", 1.0])
    def test_rejects_a_multiplicity_that_is_not_an_integer(self, m) -> None:
        with pytest.raises(ValueError) as exc:
            DirectedMultigraph.from_edges(2, [(0, 1, m), (1, 0, 1)])
        assert str(exc.value) == f"edge {(0, 1, m)!r} is not three integers"
        with pytest.raises(ValueError) as exc:
            DirectedMultigraph(2, ((0, m), (1, 0)))
        assert str(exc.value) == f"multiplicity {m!r} on edge 0->1 is not an integer"

    def test_rejects_an_endpoint_that_is_not_an_integer(self) -> None:
        with pytest.raises(ValueError, match="is not three integers"):
            DirectedMultigraph.from_edges(2, [(0, 1.0, 1)])

    def test_rejects_bad_shape(self) -> None:
        with pytest.raises(ValueError):
            DirectedMultigraph(n=2, mult=((0, 1),))

    def test_rejects_no_vertex(self) -> None:
        with pytest.raises(ValueError, match="at least one vertex"):
            DirectedMultigraph(0, ())
        with pytest.raises(ValueError, match="at least one vertex"):
            DirectedMultigraph.from_edges(0, [])

    def test_degrees(self) -> None:
        g = DirectedMultigraph.from_edges(3, [(0, 1, 2), (0, 2, 1), (1, 0, 1)])
        assert g.out_degree(0) == 3
        assert g.out_degree(2) == 0

    @given(small_graphs(max_n=12, max_mult=10**18))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_matrix(self, g: DirectedMultigraph) -> None:
        # max_n straddles SMALL_GRAPH_MAX_N: shared rows below, kept above
        adj = g.adjacency()
        for row, out in zip(g.mult, adj):
            assert out.degree == sum(row)
            assert out.edges == tuple((u, m) for u, m in enumerate(row) if m)
        assert g.adjacency() == adj

    def test_adjacency_kept_or_shared(self) -> None:
        n = SMALL_GRAPH_MAX_N + 1
        big = DirectedMultigraph.from_edges(n, [(0, 1, 2)])
        assert big.adjacency() is big.adjacency()
        g = DirectedMultigraph(3, ((0, 2, 0), (0, 0, 1), (0, 0, 0)))
        h = DirectedMultigraph(3, ((0, 2, 0), (0, 0, 0), (0, 1, 0)))
        assert g.adjacency()[0] is h.adjacency()[0]


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


class TestPredicates:
    def test_strongly_connected(self, c2: DirectedMultigraph, fig1: DirectedMultigraph) -> None:
        assert is_strongly_connected(c2)
        assert not is_strongly_connected(fig1)

    def test_eulerian_balance(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert is_eulerian(c2)
        assert not is_eulerian(d21)

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
        both = DirectedMultigraph(
            n, tuple(tuple(mult[u][v] + mult[v][u] for v in range(n)) for u in range(n))
        )
        for h in (g, both):
            rows = h.mult
            balanced = all(sum(row[v] for row in rows) == sum(rows[v]) for v in range(n))
            assert is_eulerian(h) == balanced, (family, h.mult)
        assert is_eulerian(both)
        if family == "eulerian":
            assert is_eulerian(g)


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
