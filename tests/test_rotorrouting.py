from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorchip.bruteforce import (
    _expanded_heads, bfs_reach_rotor, enumerate_digraphs, is_routing_reduced, laplacian,
)
from rotorchip.errors import BudgetExceededError
from rotorchip.generators import gen_graph, random_ribbon
from rotorchip.intlinalg import primitive_period_vector
from rotorchip import rotorrouting
from rotorchip.multigraph import DirectedMultigraph
from rotorchip.rotorrouting import (
    BoundedRotorResult,
    ChipRotorConfig,
    RibbonStructure,
    bounded_rotor_game,
    default_ribbon,
    is_legal_route,
    odometer_equals_bound,
    pi_r,
    reach_rotor,
    reachability_sets,
    route,
    route_many,
    unconstrained_reach,
    validate_config,
    validate_legal_routing_sequence,
)


class TestRibbon:
    def test_head_lookup_walks_runs(self) -> None:
        rib = RibbonStructure(runs=(((1, 2), (2, 1)), (), ()))
        assert rib.degree(0) == 3
        assert rib.head_at(0, 0) == 1
        assert rib.head_at(0, 1) == 1
        assert rib.head_at(0, 2) == 2
        assert rib.is_sink(1)

    def test_rejects_loop_run(self) -> None:
        with pytest.raises(ValueError):
            RibbonStructure(runs=(((0, 1),),))

    def test_rejects_zero_count(self) -> None:
        with pytest.raises(ValueError):
            RibbonStructure(runs=(((1, 0),), ()))

    @pytest.mark.parametrize("runs, message", [
        ((((1, 2.7),), ((0, 1),)), "run (1, 2.7) at vertex 0 is not two integers"),
        ((((1, 1),), ((0, '1'),)), "run (0, '1') at vertex 1 is not two integers"),
        ((((1.0, 1),), ((0, 1),)), "run (1.0, 1) at vertex 0 is not two integers"),
    ])
    def test_rejects_a_head_or_count_that_is_not_an_integer(self, runs, message) -> None:
        with pytest.raises(ValueError, match=re.escape(message)):
            RibbonStructure(runs=runs)

    def test_canonical_merges_adjacent_runs(self) -> None:
        rib = RibbonStructure(runs=(((1, 2), (1, 3), (2, 1)), (), ()))
        assert rib.canonical().runs == (((1, 5), (2, 1)), (), ())

    def test_run_order_is_the_ribbon_but_not_the_graph(self) -> None:
        a = RibbonStructure(runs=(((1, 1), (2, 1)), ((0, 1),), ((0, 1),)))
        b = RibbonStructure(runs=(((2, 1), (1, 1)), ((0, 1),), ((0, 1),)))
        assert a != b and a.graph == b.graph
        assert repr(b) == "RibbonStructure(runs=(((2, 1), (1, 1)), ((0, 1),), ((0, 1),)))"
        assert RibbonStructure.of(b.graph) == b

    def test_graph_equality(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        assert d21_ribbon.graph == d21
        assert RibbonStructure(runs=(((1, 1),), ((0, 1),))).graph != d21

    def test_graph_equality_is_per_head(self) -> None:
        # Correct total degree but wrong head distribution must be unequal.
        g = DirectedMultigraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
        bad = RibbonStructure(runs=(((1, 2),), ((0, 1),), ((0, 1),)))
        assert bad.graph != g

    def test_graph_equality_sees_a_missing_head(self) -> None:
        # Every head the runs name matches; the edge 0 -> 2 has no run.
        g = DirectedMultigraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
        bad = RibbonStructure(runs=(((1, 1),), ((0, 1),), ((0, 1),)))
        assert bad.graph != g

    def test_default_ribbon(self, fig1: DirectedMultigraph) -> None:
        rib = default_ribbon(fig1)
        assert rib.graph == fig1
        assert rib.runs[0] == ((1, 1), (2, 1), (3, 1))
        assert rib.runs[3] == ()


class TestConfig:
    def test_validate_config(self, fig1_ribbon: RibbonStructure) -> None:
        validate_config(fig1_ribbon, ChipRotorConfig((0, 0, 0, 0), (0, 2, 1, None)))
        with pytest.raises(ValueError):
            validate_config(fig1_ribbon, ChipRotorConfig((0, 0, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError):
            validate_config(fig1_ribbon, ChipRotorConfig((0, 0, 0, 0), (3, 0, 0, None)))


class TestRoute:
    def test_advance_then_send(self, d21_ribbon: RibbonStructure) -> None:
        # Rotor at position 0 of the double edge advances to 1, still -> 1.
        cfg = ChipRotorConfig((1, 0), (0, 0))
        nxt = route(d21_ribbon, cfg, 0)
        assert nxt.chips == (0, 1)
        assert nxt.rotors == (1, 0)

    def test_wraparound(self, d21_ribbon: RibbonStructure) -> None:
        cfg = ChipRotorConfig((1, 0), (1, 0))
        nxt = route(d21_ribbon, cfg, 0)
        assert nxt.rotors == (0, 0)
        assert nxt.chips == (0, 1)

    def test_sink_route_is_identity(self, fig1_ribbon: RibbonStructure, fig1_left: ChipRotorConfig) -> None:
        cfg = ChipRotorConfig((0, 0, 0, 3), fig1_left.rotors)
        assert route(fig1_ribbon, cfg, 3) == cfg
        assert not is_legal_route(fig1_ribbon, cfg, 3)

    def test_legality(self, d21_ribbon: RibbonStructure) -> None:
        assert is_legal_route(d21_ribbon, ChipRotorConfig((1, 0), (0, 0)), 0)
        assert not is_legal_route(d21_ribbon, ChipRotorConfig((0, 1), (0, 0)), 0)

    def test_out_of_range_vertex(self) -> None:
        # a negative vertex must not index from the end
        c2 = RibbonStructure(runs=(((1, 1),), ((0, 1),)))
        cfg = ChipRotorConfig((1, 1), (0, 0))
        for v in (-1, 2):
            assert not is_legal_route(c2, cfg, v)
            assert not validate_legal_routing_sequence(c2, cfg, [v])
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                route(c2, cfg, v)

    def test_route_many(self, d21_ribbon: RibbonStructure) -> None:
        cfg = ChipRotorConfig((2, 0), (0, 0))
        assert route_many(d21_ribbon, cfg, 0, 2) == ChipRotorConfig((0, 2), (0, 0))


class TestPiR:
    def test_frozen_double_edge(self, d21_ribbon: RibbonStructure) -> None:
        out = pi_r(d21_ribbon, ChipRotorConfig((0, 0), (0, 0)), (1, 1))
        assert out.chips == (0, 0)
        assert out.rotors == (1, 0)

    def test_succinct_giant_run(self) -> None:
        big = 10 ** 18
        g = DirectedMultigraph.from_edges(
            3, [(0, 1, big), (0, 2, 1), (1, 0, 1), (2, 0, 1)]
        )
        rib = RibbonStructure(runs=(((1, big), (2, 1)), ((0, 1),), ((0, 1),)))
        assert rib.graph == g
        out = pi_r(rib, ChipRotorConfig((big, 0, 0), (0, 0, 0)), (big, 0, 0))
        assert out.chips == (0, big - 1, 1)
        assert out.rotors == (big, 0, 0)

    def test_matches_small_multiplicity_analog(self) -> None:
        g = DirectedMultigraph.from_edges(3, [(0, 1, 4), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
        rib = RibbonStructure(runs=(((1, 4), (2, 1)), ((0, 1),), ((0, 1),)))
        out = pi_r(rib, ChipRotorConfig((4, 0, 0), (0, 0, 0)), (4, 0, 0))
        assert out.chips == (0, 3, 1)
        assert out.rotors == (4, 0, 0)

    def test_full_turn_is_rotor_identity(self, fig1: DirectedMultigraph, fig1_ribbon: RibbonStructure) -> None:
        # Routing outdeg(v) times from v fires v once and restores the rotor.
        lap = laplacian(fig1)
        x = (5, 5, 5, 0)
        cfg = ChipRotorConfig(x, (1, 2, 0, None))
        r = tuple(fig1.out_degree(v) if v != 3 else 0 for v in range(4))
        out = pi_r(fig1_ribbon, cfg, r)
        assert out.rotors == cfg.rotors
        fired = tuple(
            x[u] + sum(lap[u][v] for v in range(3)) for u in range(4)
        )
        assert out.chips == fired

    def test_rejects_routing_at_sink(self, fig1_ribbon: RibbonStructure, fig1_left: ChipRotorConfig) -> None:
        with pytest.raises(ValueError):
            pi_r(fig1_ribbon, fig1_left, (0, 0, 0, 1))

    @given(
        st.integers(min_value=0, max_value=2 ** 32),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_single_steps_any_order(self, seed: int, r0: int, r1: int, r2: int) -> None:
        rng = random.Random(seed)
        g = DirectedMultigraph.from_edges(
            3, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (1, 0, 2), (2, 0, 1)]
        )
        rib = RibbonStructure(runs=(((1, 2), (2, 1)), ((2, 1), (0, 2)), ((0, 1),)))
        assert rib.graph == g
        cfg = ChipRotorConfig(
            (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)),
            (rng.randrange(3), rng.randrange(3), 0),
        )
        r = (r0, r1, r2)
        expected = pi_r(rib, cfg, r)
        order = [v for v in range(3) for _ in range(r[v])]
        rng.shuffle(order)
        cur = cfg
        for v in order:
            cur = route(rib, cur, v)
        assert cur == expected


class TestBoundedGame:
    def test_zero_start_routes_nothing(self, d21_ribbon: RibbonStructure) -> None:
        res = bounded_rotor_game(d21_ribbon, ChipRotorConfig((0, 0), (0, 0)), (1, 1))
        assert res.routing_vector == (0, 0)
        assert res.final == ChipRotorConfig((0, 0), (0, 0))

    def test_single_chip(self, d21_ribbon: RibbonStructure) -> None:
        res = bounded_rotor_game(d21_ribbon, ChipRotorConfig((1, 0), (0, 0)), (1, 0))
        assert res.routing_vector == (1, 0)
        assert res.final.chips == (0, 1)
        assert res.final.rotors == (1, 0)

    def test_trace_replays(self, d21_ribbon: RibbonStructure) -> None:
        res = bounded_rotor_game(d21_ribbon, ChipRotorConfig((2, 1), (0, 0)), (3, 2))
        assert res.trace.replay(d21_ribbon)
        assert res.trace.final == res.final

    def test_budget_raises(self, d21_ribbon: RibbonStructure) -> None:
        with pytest.raises(BudgetExceededError):
            bounded_rotor_game(
                d21_ribbon, ChipRotorConfig((3, 3), (0, 0)), (50, 50), max_batches=2
            )

    @pytest.mark.parametrize(
        "heads", [(1, 0, 3, 2), (2, 3, 0, 1)], ids=["joiner-waits", "next-round-sorted"]
    )
    def test_plays_sorted_rounds(self, heads) -> None:
        # round 0 is [1, 2]; routing 1 makes 0 eligible while 2 still
        # waits, or makes 3 eligible before 2 makes 0 eligible, and either
        # way the next round is [0, 3]
        ribbon = RibbonStructure(tuple([((h, 1),) for h in heads]))
        config = ChipRotorConfig((0, 1, 1, 0), (0, 0, 0, 0))
        res = bounded_rotor_game(ribbon, config, (1, 1, 1, 1))
        assert res.trace.batches == ((1, 1), (2, 1), (0, 1), (3, 1))

    def test_batches_drain_whole_pile(self, d21_ribbon: RibbonStructure) -> None:
        big = 10 ** 15
        res = bounded_rotor_game(
            d21_ribbon, ChipRotorConfig((big, 0), (0, 0)), (big, 0), max_batches=4
        )
        assert res.routing_vector == (big, 0)


class TestUnconstrainedReach:
    def test_rotor_shift_only(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((0, 0), (0, 0))
        c2 = ChipRotorConfig((0, 0), (1, 0))
        assert unconstrained_reach(d21, d21_ribbon, c1, c2) == (1, 1)

    def test_chip_move(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((1, 0), (0, 0))
        c2 = ChipRotorConfig((0, 1), (1, 0))
        assert unconstrained_reach(d21, d21_ribbon, c1, c2) == (1, 0)

    def test_unreachable_chip_total(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((0, 0), (0, 0))
        c2 = ChipRotorConfig((1, 0), (0, 0))
        assert unconstrained_reach(d21, d21_ribbon, c1, c2) is None

    def test_result_is_routing_reduced_and_correct(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        for chips in [(0, 0), (1, 0), (2, 1)]:
            for pos in range(2):
                c1 = ChipRotorConfig(chips, (pos, 0))
                target = pi_r(d21_ribbon, c1, (3, 1))
                r = unconstrained_reach(d21, d21_ribbon, c1, target)
                assert r is not None
                assert is_routing_reduced(d21, r)
                assert pi_r(d21_ribbon, c1, r) == target

    def test_refuses_another_graph(
        self, c2: DirectedMultigraph, d21: DirectedMultigraph, d21_ribbon: RibbonStructure
    ) -> None:
        # solved on the 2-cycle, two routings at 0 read as half a firing:
        # reach_rotor answered YES with r = (4, 0) while its trace routed (2, 0)
        c1 = ChipRotorConfig((2, 0), (0, 0))
        target = pi_r(d21_ribbon, c1, (2, 0))
        for call in (unconstrained_reach, reach_rotor):
            with pytest.raises(ValueError, match="^graph is not the ribbon's graph$"):
                call(c2, d21_ribbon, c1, target)
        # an equal graph on its own runs passes, by comparison
        assert d21.adjacency() is not d21_ribbon.adjacency()
        assert reach_rotor(d21, d21_ribbon, c1, target).routing_vector == (2, 0)


class TestReachabilitySets:
    def test_blocked_two_cycle_of_rotors(self, d21_ribbon: RibbonStructure) -> None:
        target = ChipRotorConfig((0, 0), (1, 0))
        s1, t, s2 = reachability_sets(d21_ribbon, target, (1, 1))
        assert s1 == ()
        assert t == (0, 1)
        assert s2 == (0, 1)

    def test_escape_through_positive_chip(self, d21_ribbon: RibbonStructure) -> None:
        target = ChipRotorConfig((0, 1), (1, 0))
        s1, t, s2 = reachability_sets(d21_ribbon, target, (1, 0))
        assert s2 == ()

    def test_zero_routing_vector(self, d21_ribbon: RibbonStructure) -> None:
        target = ChipRotorConfig((0, 0), (0, 0))
        assert reachability_sets(d21_ribbon, target, (0, 0)) == ((), (), ())

    def test_negative_chip_with_routing(self, d21_ribbon: RibbonStructure) -> None:
        target = ChipRotorConfig((-1, 1), (1, 0))
        s1, t, s2 = reachability_sets(d21_ribbon, target, (1, 0))
        assert s1 == (0,)


class TestReachRotor:
    def test_trivial_whole_turn_remainders_make_no_connectivity_pass(
        self, forbid_connectivity_passes, d21, d21_ribbon, fig1, fig1_ribbon, fig1_left, fig1_middle
    ) -> None:
        # the solve for whole turns gets 0 when the alignment lands on the
        # target chips, and nothing when the chip totals differ
        cases = []
        for g, ribbon, c1 in (
            (d21, d21_ribbon, ChipRotorConfig((1, 0), (0, 0))),
            (d21, d21_ribbon, ChipRotorConfig((2, 1), (1, 0))),
            (fig1, fig1_ribbon, fig1_left),
            (fig1, fig1_ribbon, fig1_middle),
        ):
            # r1 below the degrees, so it is the whole alignment
            for r1 in ((0,) * g.n, tuple([1 if d > 1 else 0 for d in ribbon.degrees])):
                aligned = pi_r(ribbon, c1, r1)
                more = ChipRotorConfig((aligned.chips[0] + 1,) + aligned.chips[1:], aligned.rotors)
                cases += [(g, ribbon, c1, aligned), (g, ribbon, c1, more)]
        for g, ribbon, c1, c2 in cases:
            assert (reach_rotor(g, ribbon, c1, c2).decision == "YES") == bfs_reach_rotor(ribbon, c1, c2)

        def verdicts():
            return [
                (unconstrained_reach(*case), reach_rotor(*case), reach_rotor(*case, trace=False))
                for case in cases
            ]

        wants = verdicts()
        assert [want[0] is None for want in wants] == [False, True] * (len(cases) // 2)
        forbid_connectivity_passes()
        assert verdicts() == wants

    def test_no_by_s2(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((0, 0), (0, 0))
        c2 = ChipRotorConfig((0, 0), (1, 0))
        v = reach_rotor(d21, d21_ribbon, c1, c2)
        assert v.decision == "NO"
        assert v.reason == "s2-nonempty"
        assert v.s2 == (0, 1)
        assert v.routing_vector == (1, 1)

    def test_yes_single_step(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((1, 0), (0, 0))
        c2 = ChipRotorConfig((0, 1), (1, 0))
        v = reach_rotor(d21, d21_ribbon, c1, c2)
        assert v.decision == "YES"
        assert v.routing_vector == (1, 0)
        assert v.trace is not None and v.trace.replay(d21_ribbon)
        assert v.trace.final == c2

    def test_yes_names_exhausted_trace_budget(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((1, 0), (0, 0))
        c2 = ChipRotorConfig((0, 1), (1, 0))
        v = reach_rotor(d21, d21_ribbon, c1, c2, max_batches=0)
        assert v.decision == "YES"
        assert v.routing_vector == (1, 0)
        assert v.trace is None
        assert v.reason == "trace-budget-exceeded"

    def test_yes_without_trace_plays_no_game(
        self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure, monkeypatch
    ) -> None:
        def no_game(*args, **kwargs):
            raise AssertionError("the witness game was played")

        monkeypatch.setattr(rotorrouting, "bounded_rotor_game", no_game)
        c1 = ChipRotorConfig((1, 0), (0, 0))
        c2 = ChipRotorConfig((0, 1), (1, 0))
        v = reach_rotor(d21, d21_ribbon, c1, c2, max_batches=0, trace=False)
        assert v.decision == "YES"
        assert v.routing_vector == (1, 0)
        assert v.trace is None
        assert v.reason is None

    def test_verdict_without_trace_matches_traced(self) -> None:
        rng = random.Random(7)
        decisions = set()
        for _ in range(40):
            g = gen_graph("random", rng.randint(2, 5), rng)
            ribbon = random_ribbon(g, rng)
            rotors = tuple(None if d == 0 else 0 for d in ribbon.degrees)
            c1 = ChipRotorConfig(tuple(rng.randint(0, 3) for _ in range(g.n)), rotors)
            r = tuple(0 if d == 0 else rng.randint(0, 2 * d) for d in ribbon.degrees)
            c2 = pi_r(ribbon, c1, r)
            traced = reach_rotor(g, ribbon, c1, c2)
            untraced = reach_rotor(g, ribbon, c1, c2, trace=False)
            assert untraced.trace is None
            assert untraced == dataclasses.replace(traced, trace=None)
            decisions.add(traced.decision)
        assert decisions == {"YES", "NO"}

    def test_no_not_unconstrained(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        c1 = ChipRotorConfig((0, 0), (0, 0))
        c2 = ChipRotorConfig((1, 0), (0, 0))
        v = reach_rotor(d21, d21_ribbon, c1, c2)
        assert v.decision == "NO"
        assert v.reason == "not-unconstrained-reachable"

    def test_matches_bfs(self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        configs = [
            ChipRotorConfig((c0, c1), (p0, p1))
            for c0 in range(0, 2)
            for c1 in range(0, 2)
            for p0 in range(2)
            for p1 in range(1)
        ]
        for a in configs:
            for b in configs:
                got = reach_rotor(d21, d21_ribbon, a, b).decision == "YES"
                assert got == bfs_reach_rotor(d21_ribbon, a, b), (a, b)


class TestOdometer:
    def test_zero_bound(self, d21_ribbon: RibbonStructure) -> None:
        assert odometer_equals_bound(d21_ribbon, ChipRotorConfig((5, 5), (0, 0)), (0, 0))

    def test_blocked(self, d21_ribbon: RibbonStructure) -> None:
        assert not odometer_equals_bound(d21_ribbon, ChipRotorConfig((0, 0), (0, 0)), (1, 1))

    def test_realized(self, d21_ribbon: RibbonStructure) -> None:
        assert odometer_equals_bound(d21_ribbon, ChipRotorConfig((1, 0), (0, 0)), (1, 0))

    def test_matches_engine_on_reduced_and_unreduced_bounds(self, d21_ribbon: RibbonStructure) -> None:
        for chips in [(0, 0), (1, 0), (0, 1), (2, 1)]:
            for r in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 1), (4, 2)]:
                cfg = ChipRotorConfig(chips, (0, 0))
                res = bounded_rotor_game(d21_ribbon, cfg, r)
                expected = res.routing_vector == r
                assert odometer_equals_bound(d21_ribbon, cfg, r) == expected, (chips, r)


class TestGoldenTrace:
    def test_demo_panels(
        self,
        fig1: DirectedMultigraph,
        fig1_ribbon: RibbonStructure,
        fig1_left: ChipRotorConfig,
        fig1_middle: ChipRotorConfig,
        fig1_right: ChipRotorConfig,
    ) -> None:
        assert route(fig1_ribbon, fig1_left, 2) == fig1_middle
        assert route(fig1_ribbon, fig1_middle, 0) == fig1_right
        v = reach_rotor(fig1, fig1_ribbon, fig1_left, fig1_right)
        assert v.decision == "YES"
        assert v.routing_vector == (1, 0, 1, 0)

    def test_demo_sequence_validator(
        self,
        fig1_ribbon: RibbonStructure,
        fig1_left: ChipRotorConfig,
    ) -> None:
        assert validate_legal_routing_sequence(fig1_ribbon, fig1_left, (2, 0))
        assert not validate_legal_routing_sequence(fig1_ribbon, fig1_left, (0,))


class TestRotorDeletion:
    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_deleting_period_prefix_preserves_run(self, seed: int) -> None:
        rng = random.Random(seed)
        d21 = DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)])
        rib = RibbonStructure(runs=(((1, 2),), ((0, 1),)))
        p = primitive_period_vector(d21)
        degs = d21.out_degrees()
        rper = tuple(p[v] * degs[v] for v in range(2))
        start = ChipRotorConfig(rper, (rng.randrange(2), 0))
        cur = start
        remaining = list(rper)
        seq: list[int] = []
        while True:
            options = [v for v in range(2) if remaining[v] > 0 and cur.chips[v] > 0]
            if not options:
                break
            v = rng.choice(options)
            seq.append(v)
            remaining[v] -= 1
            cur = route(rib, cur, v)
        assert remaining == [0, 0]
        for _ in range(rng.randint(0, 6)):
            options = [v for v in range(2) if cur.chips[v] > 0]
            if not options:
                break
            v = rng.choice(options)
            seq.append(v)
            cur = route(rib, cur, v)
        assert validate_legal_routing_sequence(rib, start, seq)
        quota = list(rper)
        trimmed = []
        for v in seq:
            if quota[v] > 0:
                quota[v] -= 1
            else:
                trimmed.append(v)
        assert validate_legal_routing_sequence(rib, start, trimmed)
        end_full = start
        for v in seq:
            end_full = route(rib, end_full, v)
        end_trim = start
        for v in trimmed:
            end_trim = route(rib, end_trim, v)
        assert end_full == end_trim


# ---------------------------------------------------------------------------
# The worklist engine against a dense reference: the loop it replaced,
# rescanning from vertex 0, with each batch as k single routings.

_ENUMERATED = (
    list(enumerate_digraphs(1, 0))
    + list(enumerate_digraphs(2, 2))
    + list(enumerate_digraphs(3, 1))
)


@st.composite
def small_ribbons(draw) -> RibbonStructure:
    if draw(st.booleans()):
        g = draw(st.sampled_from(_ENUMERATED))
    else:
        family = draw(st.sampled_from(("random", "eulerian")))
        size = draw(st.integers(min_value=2, max_value=8))
        g = gen_graph(family, size, random.Random(draw(st.integers(0, 2 ** 32))))
    return random_ribbon(g, random.Random(draw(st.integers(0, 2 ** 32))))


@st.composite
def _config_pairs(draw) -> tuple[RibbonStructure, ChipRotorConfig, ChipRotorConfig]:
    ribbon = draw(small_ribbons())
    configs = []
    for _ in range(2):
        chips = draw(st.lists(st.integers(-3, 3), min_size=ribbon.n, max_size=ribbon.n))
        rotors = [None if d == 0 else draw(st.integers(0, d - 1)) for d in ribbon.degrees]
        configs.append(ChipRotorConfig(tuple(chips), tuple(rotors)))
    return ribbon, configs[0], configs[1]


class TestAlignmentTurnsRotors:
    @given(_config_pairs())
    @settings(max_examples=200, deadline=None)
    def test_alignment_routing_reaches_target_rotors(self, pair) -> None:
        # why unconstrained_reach needs no rotor comparison after aligning
        ribbon, c1, c2 = pair
        validate_config(ribbon, c1)
        validate_config(ribbon, c2)
        degs = ribbon.degrees
        r1 = tuple(0 if d == 0 else (b - a) % d for a, b, d in zip(c1.rotors, c2.rotors, degs))
        assert pi_r(ribbon, c1, r1).rotors == c2.rotors


def _dense_bounded_rotor_game(ribbon: RibbonStructure, config, bound, max_batches: int):
    """(routing vector, final, batches) of the round schedule, by dense scans.

    Each round scans all n vertices for the eligible ones, then routes
    each of them in ascending order, one routing at a time, as often as
    its bound and pile allow at its turn.  Raises BudgetExceededError
    like the engine.
    """
    cur = config
    routed = [0] * ribbon.n
    batches = []
    while True:
        current = [
            v for v in range(ribbon.n)
            if not ribbon.is_sink(v) and routed[v] < bound[v] and cur.chips[v] > 0
        ]
        if not current:
            return tuple(routed), cur, tuple(batches)
        for v in current:
            k = min(bound[v] - routed[v], cur.chips[v])
            if len(batches) >= max_batches:
                raise BudgetExceededError("dense reference")
            for _ in range(k):
                cur = route(ribbon, cur, v)
            routed[v] += k
            batches.append((v, k))


def _dense_smallest_first_rotor_game(ribbon: RibbonStructure, config, bound):
    """(routing vector, final) of the smallest-eligible-first schedule, by dense scans."""
    cur = config
    routed = [0] * ribbon.n
    while True:
        for v in range(ribbon.n):
            remaining = bound[v] - routed[v]
            if not ribbon.is_sink(v) and remaining > 0 and cur.chips[v] > 0:
                break
        else:
            return tuple(routed), cur
        k = min(remaining, cur.chips[v])
        for _ in range(k):
            cur = route(ribbon, cur, v)
        routed[v] += k


class TestScheduleMatchesDenseScan:
    @given(small_ribbons(), st.data(), st.sampled_from((0, 1, 3, 1_000_000)))
    @settings(max_examples=300, deadline=None)
    def test_bounded_rotor_game(self, ribbon: RibbonStructure, data, max_batches: int) -> None:
        degs = ribbon.degrees
        chips = tuple(data.draw(st.integers(min_value=-1, max_value=2 * d + 1)) for d in degs)
        rotors = tuple(data.draw(st.integers(0, d - 1)) if d else None for d in degs)
        # a sink's bound is never spent: the game does not route a sink
        bound = tuple(data.draw(st.integers(0, 2 * d + 2 if d else 2)) for d in degs)
        config = ChipRotorConfig(chips, rotors)
        try:
            expected = _dense_bounded_rotor_game(ribbon, config, bound, max_batches)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                bounded_rotor_game(ribbon, config, bound, max_batches=max_batches)
            return
        res = bounded_rotor_game(ribbon, config, bound, max_batches=max_batches)
        assert isinstance(res, BoundedRotorResult)
        assert (res.routing_vector, res.final, res.trace.batches) == expected
        assert res.trace.replay(ribbon)
        assert res.batch_count == len(res.trace.batches)
        untraced = bounded_rotor_game(ribbon, config, bound, max_batches=max_batches, trace=False)
        assert untraced.trace is None
        assert (untraced.routing_vector, untraced.final, untraced.batch_count) == (
            res.routing_vector, res.final, res.batch_count,
        )
        # bounded games are abelian: another schedule routes the same vector
        expected_abelian = _dense_smallest_first_rotor_game(ribbon, config, bound)
        assert (res.routing_vector, res.final) == expected_abelian

    @given(small_ribbons(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_route_many_is_k_single_routings(self, ribbon: RibbonStructure, data) -> None:
        v = data.draw(st.integers(0, ribbon.n - 1))
        d = ribbon.degree(v)
        k = data.draw(st.integers(0, 3 * d + 2)) if d else 0
        rotors = tuple(data.draw(st.integers(0, dv - 1)) if dv else None for dv in ribbon.degrees)
        cur = config = ChipRotorConfig(tuple(range(ribbon.n)), rotors)
        for _ in range(k):
            cur = route(ribbon, cur, v)
        assert route_many(ribbon, config, v, k) == cur


def _stepped(heads: list[list[int]], config: ChipRotorConfig, r) -> ChipRotorConfig:
    """Route each v r[v] times, one rotor position at a time."""
    chips = list(config.chips)
    rotors = list(config.rotors)
    for v, k in enumerate(r):
        flat = heads[v]
        for _ in range(k):
            rotors[v] = (rotors[v] + 1) % len(flat)
            chips[v] -= 1
            chips[flat[rotors[v]]] += 1
    return ChipRotorConfig(tuple(chips), tuple(rotors))


@st.composite
def _run_ribbons(draw) -> RibbonStructure:
    """Ribbons of 2-5 vertices with runs of up to 4 edges, vertex 0 no sink.

    Few heads and repeated runs put equal heads at both ends of an
    order, so a run straddles the wrap from the last position to 0.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    runs = []
    for v in range(n):
        run = st.tuples(st.sampled_from([u for u in range(n) if u != v]), st.integers(1, 4))
        runs.append(tuple(draw(st.lists(run, min_size=1 if v == 0 else 0, max_size=4))))
    return RibbonStructure(tuple(runs))


class TestKernelMatchesSingleSteps:
    """The run-walking kernel against one routing per rotor position."""

    @given(_run_ribbons(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_route_many(self, ribbon: RibbonStructure, data) -> None:
        v = data.draw(st.sampled_from([u for u in range(ribbon.n) if ribbon.degree(u)]))
        d = ribbon.degree(v)
        k = data.draw(st.integers(0, 3 * d + 2))
        rotors = tuple(data.draw(st.integers(0, dv - 1)) if dv else None for dv in ribbon.degrees)
        config = ChipRotorConfig(tuple(range(ribbon.n)), rotors)
        r = tuple(k if u == v else 0 for u in range(ribbon.n))
        assert route_many(ribbon, config, v, k) == _stepped(_expanded_heads(ribbon), config, r)

    @given(_run_ribbons(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pi_r(self, ribbon: RibbonStructure, data) -> None:
        degs = ribbon.degrees
        r = tuple(data.draw(st.integers(0, 3 * d + 2)) if d else 0 for d in degs)
        rotors = tuple(data.draw(st.integers(0, d - 1)) if d else None for d in degs)
        config = ChipRotorConfig((0,) * ribbon.n, rotors)
        assert pi_r(ribbon, config, r) == _stepped(_expanded_heads(ribbon), config, r)

    def test_every_window_of_a_straddling_order(self) -> None:
        # head 1 holds positions 5-7 and 0-2, one run across the wrap
        ribbon = RibbonStructure(runs=(((1, 3), (2, 2), (1, 3)), ((0, 1),), ((0, 1),)))
        heads = _expanded_heads(ribbon)
        for pos in range(8):
            config = ChipRotorConfig((0, 0, 0), (pos, 0, 0))
            for k in range(3 * 8 + 3):
                want = _stepped(heads, config, (k, 0, 0))
                assert route_many(ribbon, config, 0, k) == want, (pos, k)
