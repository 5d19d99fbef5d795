from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotorchip.bruteforce import (
    bfs_reach_chip,
    enumerate_digraphs,
    oracle_is_recurrent,
    random_maximal_bounded_chip_game,
)
from rotorchip.chipfiring import (
    HaltingVerdict,
    bounded_chip_game,
    fire,
    fire_many,
    halts,
    is_legal_fire,
    is_recurrent,
    is_recurrent_via_reach,
    lin_equiv,
    reach_chip,
    validate_legal_firing_sequence,
    verify_nonhalting_certificate,
)
from rotorchip import chipfiring, intlinalg, multigraph
from rotorchip.errors import DEFAULT_GAME_BUDGET, BudgetExceededError
from rotorchip.generators import gen_graph
from rotorchip.intlinalg import nonneg_reduced_solution, primitive_period_vector
from rotorchip.multigraph import (
    DirectedMultigraph,
    is_strongly_connected,
    scc_decompose,
    strongly_connected_balance,
)


class TestFire:
    def test_two_cycle(self, c2: DirectedMultigraph) -> None:
        assert fire(c2, (1, 0), 0) == (0, 1)
        assert fire(c2, (0, 0), 0) == (-1, 1)

    def test_double_edge(self, d21: DirectedMultigraph) -> None:
        assert fire(d21, (2, 0), 0) == (0, 2)

    def test_legality(self, c2: DirectedMultigraph) -> None:
        assert is_legal_fire(c2, (1, 0), 0)
        assert not is_legal_fire(c2, (0, 0), 0)

    def test_sink_fire_is_noop(self, fig1: DirectedMultigraph) -> None:
        x = (0, 0, 0, 2)
        assert is_legal_fire(fig1, x, 3)
        assert fire(fig1, x, 3) == x
        assert not is_legal_fire(fig1, (0, 0, 0, -1), 3)

    def test_out_of_range_vertex(self, c2: DirectedMultigraph) -> None:
        # a negative vertex must not index from the end
        for v in (-1, 2):
            assert not is_legal_fire(c2, (1, 1), v)
            assert not validate_legal_firing_sequence(c2, (1, 1), [v])
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                fire(c2, (1, 1), v)
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                fire_many(c2, (1, 1), v, 3)

    def test_fire_many(self, d21: DirectedMultigraph) -> None:
        assert fire_many(d21, (4, 0), 0, 2) == (0, 4)

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_chip_count_conserved(self, chips: list[int]) -> None:
        c2 = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        x = tuple(chips)
        assert sum(fire(c2, x, 0)) == sum(x)


# Two 2-cycles with one chip on 1 and on 2, so round 0 is [1, 2].  In the
# first, 1 makes 0 eligible while 2 still waits in the round; in the
# second, 1 makes 3 eligible before 2 makes 0 eligible.  Either way the
# next round is [0, 3].
_ROUND_ORDER_GRAPHS = [
    [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)],
    [(0, 2, 1), (2, 0, 1), (1, 3, 1), (3, 1, 1)],
]


class TestBoundedGame:
    def test_two_cycle(self, c2: DirectedMultigraph) -> None:
        res = bounded_chip_game(c2, (1, 0), (1, 1))
        assert res.firing_vector == (1, 1)
        assert res.final == (1, 0)

    def test_double_edge(self, d21: DirectedMultigraph) -> None:
        res = bounded_chip_game(d21, (2, 0), (1, 2))
        assert res.firing_vector == (1, 2)
        assert res.final == (2, 0)

    def test_stuck_below_bound(self, c2: DirectedMultigraph) -> None:
        res = bounded_chip_game(c2, (0, 0), (1, 1))
        assert res.firing_vector == (0, 0)
        assert res.final == (0, 0)

    def test_trace_replays(self, d21: DirectedMultigraph) -> None:
        res = bounded_chip_game(d21, (2, 0), (1, 2))
        assert res.trace.replay(d21)
        assert res.trace.initial == (2, 0)
        assert res.trace.final == res.final

    def test_budget_raises(self, c2: DirectedMultigraph) -> None:
        with pytest.raises(BudgetExceededError):
            bounded_chip_game(c2, (1, 0), (10, 10), max_batches=3)

    @pytest.mark.parametrize("edges", _ROUND_ORDER_GRAPHS, ids=["joiner-waits", "next-round-sorted"])
    def test_plays_sorted_rounds(self, edges) -> None:
        g = DirectedMultigraph.from_edges(4, edges)
        res = bounded_chip_game(g, (0, 1, 1, 0), (1, 1, 1, 1))
        assert res.trace.batches == ((1, 1), (2, 1), (0, 1), (3, 1))

    def test_large_pile_batches(self) -> None:
        # One batch per vertex drains an astronomically large pile.
        big = 10 ** 18
        c2 = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        res = bounded_chip_game(c2, (big, 0), (big, big), max_batches=10)
        assert res.firing_vector == (big, big)
        assert res.final == (big, 0)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_recurrent_start_realizes_bound(self, b: int) -> None:
        c2 = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        res = bounded_chip_game(c2, (1, 1), (b, b))
        assert res.firing_vector == (b, b)
        assert res.final == (1, 1)


class TestAbelian:
    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_random_schedules_agree_with_engine(self, seed: int) -> None:
        rng = random.Random(seed)
        d21 = DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)])
        x = (rng.randint(0, 4), rng.randint(0, 4))
        bound = (rng.randint(0, 3), rng.randint(0, 3))
        res = bounded_chip_game(d21, x, bound)
        f1, y1, _ = random_maximal_bounded_chip_game(d21, x, bound, random.Random(seed + 1))
        f2, y2, _ = random_maximal_bounded_chip_game(d21, x, bound, random.Random(seed + 2))
        assert f1 == f2 == res.firing_vector
        assert y1 == y2 == res.final


class TestReach:
    def test_yes_two_cycle(self, c2: DirectedMultigraph) -> None:
        v = reach_chip(c2, (1, 0), (0, 1))
        assert v.decision == "YES"
        assert v.firing_vector == (1, 0)
        assert v.trace is not None and v.trace.replay(c2)

    def test_no_stuck(self, c2: DirectedMultigraph) -> None:
        v = reach_chip(c2, (0, 0), (1, -1))
        assert v.decision == "NO"
        assert v.reason == "bounded-game-stuck"

    def test_no_lattice(self, c2: DirectedMultigraph) -> None:
        v = reach_chip(c2, (0, 0), (1, 0))
        assert v.decision == "NO"
        assert v.reason == "no-nonneg-firing-vector"

    def test_self_reach(self, c2: DirectedMultigraph) -> None:
        v = reach_chip(c2, (2, -1), (2, -1))
        assert v.decision == "YES"
        assert v.firing_vector == (0, 0)

    def test_agrees_with_bfs_on_examples(self, c2: DirectedMultigraph) -> None:
        cases = [((1, 0), (0, 1)), ((0, 0), (1, -1)), ((2, 0), (0, 2)), ((1, 1), (1, 1))]
        for x, y in cases:
            assert (reach_chip(c2, x, y).decision == "YES") == bfs_reach_chip(c2, x, y)

    def test_equal_and_unbalanced_pairs_make_no_connectivity_pass(
        self, forbid_connectivity_passes, c2, d21, fig1
    ) -> None:
        # x reaches itself by the empty game, and no game changes the chip total
        cases = []
        for g in (c2, d21, fig1):
            for x in ((0,) * g.n, tuple(range(-1, g.n - 1)), g.out_degrees()):
                more = (x[0] + 1,) + x[1:]
                cases += [(g, x, x), (g, x, more), (g, more, x)]
        wants = [reach_chip(g, x, y) for g, x, y in cases]
        for (g, x, y), want in zip(cases, wants):
            assert (want.decision == "YES") == bfs_reach_chip(g, x, y) == (x == y)
        forbid_connectivity_passes()
        assert [reach_chip(g, x, y) for g, x, y in cases] == wants


def _connectivity_passes(monkeypatch) -> list[str]:
    """The name of every connectivity pass, as it happens.

    A pass is one scc_decompose, is_strongly_connected or
    strongly_connected_balance call.  Each is wrapped in every module
    that binds it, so a pass through one name counts once; one through
    is_strongly_connected counts twice, since it calls
    strongly_connected_balance, which the engine calls directly.
    """
    calls = []
    for original in (scc_decompose, is_strongly_connected, strongly_connected_balance):
        def counting(g: DirectedMultigraph, original=original):
            calls.append(original.__name__)
            return original(g)

        for module in (multigraph, intlinalg, chipfiring):
            if original.__name__ in vars(module):
                monkeypatch.setattr(module, original.__name__, counting)
    return calls


class TestConnectivityPass:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: lin_equiv(g, (g.n,) + (0,) * (g.n - 1), (0,) * (g.n - 1) + (g.n,)),
            lambda g: halts(g, g.out_degrees()),
            lambda g: is_recurrent(g, g.out_degrees()),
            lambda g: is_recurrent_via_reach(g, g.out_degrees()),
            primitive_period_vector,
        ],
        ids=["lin_equiv", "halts", "is_recurrent", "is_recurrent_via_reach", "primitive_period_vector"],
    )
    def test_whole_graph_queries_walk_once_and_skip_the_decomposition(
        self, monkeypatch, c2, d21, call
    ) -> None:
        graphs = (c2, d21, gen_graph("strongly-connected", 6, random.Random(6)))
        calls = _connectivity_passes(monkeypatch)
        for g in graphs:
            calls.clear()
            call(g)
            assert calls == ["strongly_connected_balance"]


class TestRecurrence:
    def test_frozen_examples(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert is_recurrent(c2, (1, 0))
        assert not is_recurrent(c2, (0, 0))
        assert is_recurrent(d21, (2, 0))

    def test_via_reach_matches(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert is_recurrent_via_reach(c2, (1, 0))
        assert not is_recurrent_via_reach(c2, (0, 0))
        assert is_recurrent_via_reach(d21, (2, 0))
        assert not is_recurrent_via_reach(c2, (2, -1))

    def test_matches_bfs_oracle(self, d21: DirectedMultigraph) -> None:
        for x0 in range(0, 4):
            for x1 in range(0, 4):
                x = (x0, x1)
                expected = oracle_is_recurrent(d21, x)
                assert is_recurrent(d21, x) == expected
                assert is_recurrent_via_reach(d21, x) == expected

    def test_requires_strongly_connected(self, fig1: DirectedMultigraph) -> None:
        # checked first: before the configuration's length and its stability
        for query in (is_recurrent, is_recurrent_via_reach):
            for x in ((0, 0, 0, 0), (-1, -1, -1, -1), (0,), (-1,) * 5):
                with pytest.raises(ValueError, match="^period vector requires a strongly connected graph$"):
                    query(fig1, x)

    @pytest.mark.parametrize("query", [is_recurrent, is_recurrent_via_reach])
    def test_stable_start_computes_no_period(self, monkeypatch, c2, d21, query) -> None:
        single = DirectedMultigraph.from_edges(1, [])
        graphs = (c2, d21, single, gen_graph("strongly-connected", 6, random.Random(6)))
        cases = [(g, tuple([d - 1 for d in g.out_degrees()])) for g in graphs]
        cases += [(g, tuple([-5] * g.n)) for g in graphs]
        assert not any(oracle_is_recurrent(g, x) for g, x in cases)
        # the engine lets a sink fire with no chips, so the one-vertex (0,) is not stable
        assert query(single, (0,))

        def refuse(*args):
            raise AssertionError("period computed")

        # every period, p of the whole graph included, comes from this one function
        for module in (intlinalg, chipfiring):
            monkeypatch.setattr(module, "_component_period", refuse)
        assert not any(query(g, x) for g, x in cases)

    def test_one_vertex_graph_matches_the_oracle(self) -> None:
        # a sink with x(v) >= 0 fires legally and moves nothing: a nonempty game back to x
        single = DirectedMultigraph.from_edges(1, [])
        for x, want in (((-1,), False), ((0,), True), ((2,), True)):
            assert oracle_is_recurrent(single, x) == want
            assert is_recurrent(single, x) == want
            assert is_recurrent_via_reach(single, x) == want
        assert halts(single, (-1,)) == HaltingVerdict("halts", final=(-1,), firing_vector=(0,))
        for x in ((0,), (2,)):
            assert halts(single, x) == HaltingVerdict(
                "non-halting", certificate=x, witness_to_certificate=(1,), witness_cycle=(1,)
            )

    def test_balanced_graph_needs_no_elimination(self, monkeypatch, c2) -> None:
        # the connectivity check finds the balance, and p is the ones vector
        triangle = DirectedMultigraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 0, 2)])
        graphs = (c2, triangle, gen_graph("eulerian", 8, random.Random(8)))

        def answers() -> list:
            out = []
            for g in graphs:
                degs = g.out_degrees()
                # degs is recurrent (firing every vertex once returns to it);
                # the second start is one chip short everywhere but vertex 0
                for x in (degs, degs[:1] + tuple([d - 1 for d in degs[1:]])):
                    out.append((halts(g, x), is_recurrent(g, x), is_recurrent_via_reach(g, x)))
                out.append(primitive_period_vector(g))
            return out

        want = answers()
        assert all(h.kind == "non-halting" and r and v for h, r, v in want[0::3])
        assert all(p == (1,) * g.n for p, g in zip(want[2::3], graphs))

        def refuse(*args):
            raise AssertionError("elimination")

        for name in ("_root_column", "_solve_reduced"):
            monkeypatch.setattr(intlinalg, name, refuse)
        assert answers() == want

    @pytest.mark.parametrize("query", [is_recurrent, is_recurrent_via_reach])
    def test_one_decomposition_per_call(self, monkeypatch, c2, d21, query) -> None:
        cases = [(c2, (1, 0), True), (c2, (0, 0), False), (d21, (2, 0), True), (d21, (1, 0), False)]
        calls = _connectivity_passes(monkeypatch)
        for g, x, want in cases:
            calls.clear()
            assert query(g, x) == want
            assert len(calls) == 1


class TestLinEquiv:
    def test_frozen_examples(self, c2: DirectedMultigraph) -> None:
        assert lin_equiv(c2, (1, 0), (0, 1)) == (1, 0)
        assert lin_equiv(c2, (1, 0), (0, 0)) is None

    def test_symmetric_up_to_kernel(self, d21: DirectedMultigraph) -> None:
        f = lin_equiv(d21, (3, 0), (0, 3))
        assert f is not None
        p = primitive_period_vector(d21)
        g = lin_equiv(d21, (0, 3), (3, 0))
        assert g is not None
        # Round trip composes to a kernel multiple.
        total = tuple(a + b for a, b in zip(f, g))
        k = total[0] // p[0]
        assert total == tuple(k * pv for pv in p)

    def test_one_decomposition_per_call(self, monkeypatch, c2, d21) -> None:
        cases = [(c2, (1, 0), (0, 1)), (c2, (1, 0), (0, 0)), (d21, (3, 0), (0, 3))]
        wants = [nonneg_reduced_solution(g, (y[0] - x[0], y[1] - x[1])) for g, x, y in cases]
        calls = _connectivity_passes(monkeypatch)
        for (g, x, y), want in zip(cases, wants):
            calls.clear()
            assert lin_equiv(g, x, y) == want
            assert len(calls) == 1

    def test_errors_in_order(self, fig1: DirectedMultigraph, c2: DirectedMultigraph) -> None:
        # connectivity is checked before the configuration lengths
        with pytest.raises(ValueError, match="strongly connected"):
            lin_equiv(fig1, (0,), (0,))
        with pytest.raises(ValueError, match="configuration length"):
            lin_equiv(c2, (0,), (0, 0))


class TestHalting:
    def test_nonhalting_two_cycle(self, c2: DirectedMultigraph) -> None:
        v = halts(c2, (1, 0))
        assert v.kind == "non-halting"
        assert v.certificate == (1, 0)
        assert verify_nonhalting_certificate(c2, (1, 0), v.certificate)

    def test_halting_empty(self, c2: DirectedMultigraph) -> None:
        v = halts(c2, (0, 0))
        assert v.kind == "halts"
        assert v.final == (0, 0)
        assert v.firing_vector == (0, 0)

    def test_halting_double_edge(self, d21: DirectedMultigraph) -> None:
        v = halts(d21, (1, 0))
        assert v.kind == "halts"
        assert v.final == (1, 0)

    def test_halting_final_is_stable(self, d21: DirectedMultigraph) -> None:
        for x0 in range(0, 3):
            for x1 in range(0, 3):
                v = halts(d21, (x0, x1))
                if v.kind == "halts":
                    assert all(
                        not is_legal_fire(d21, v.final, u) for u in range(d21.n)
                    )
                else:
                    assert verify_nonhalting_certificate(d21, (x0, x1), v.certificate)

    def test_budget_verdict(self, c2: DirectedMultigraph) -> None:
        v = halts(c2, (5, 5), max_steps=2)
        assert v.kind == "budget-exceeded"
        assert v.reason == "max-steps"

    def test_budget_allows_exactly_max_steps_firings(self) -> None:
        # (1, 0) fires vertex 0 once and is then stable at (0, 1)
        g = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 2)])
        assert halts(g, (1, 0), max_steps=0).kind == "budget-exceeded"
        for max_steps in (1, 2):
            v = halts(g, (1, 0), max_steps=max_steps)
            assert v == HaltingVerdict("halts", final=(0, 1), firing_vector=(1, 0))

    def test_stable_start_halts_under_budget_0(self, c2: DirectedMultigraph) -> None:
        v = halts(c2, (0, 0), max_steps=0)
        assert v == HaltingVerdict("halts", final=(0, 0), firing_vector=(0, 0))

    def test_verdicts_with_a_result_carry_no_reason(self, c2: DirectedMultigraph) -> None:
        assert halts(c2, (0, 0)).reason is None
        assert halts(c2, (1, 1)).reason is None

    def test_stable_start_plays_no_game(self, monkeypatch, c2, d21) -> None:
        # answered after the connectivity and length checks, with no game state
        dense = gen_graph("eulerian", 12, random.Random(12))
        graphs = (c2, d21, dense, gen_graph("strongly-connected", 6, random.Random(6)))
        cases = [(g, tuple([d - 1 for d in g.out_degrees()])) for g in graphs]
        cases += [(g, tuple([-5] * g.n)) for g in graphs]

        def refuse(*args):
            raise AssertionError("game played")

        for name in ("_heap_halts", "_packed_halts", "_component_period"):
            monkeypatch.setattr(chipfiring, name, refuse)
        for g, x in cases:
            assert halts(g, x, max_steps=0) == HaltingVerdict(
                "halts", final=x, firing_vector=(0,) * g.n
            )
        with pytest.raises(ValueError, match="length"):
            halts(c2, (0, 0, 0))


class TestSequences:
    def test_validator_accepts_legal(self, c2: DirectedMultigraph) -> None:
        assert validate_legal_firing_sequence(c2, (1, 0), (0, 1, 0))
        assert not validate_legal_firing_sequence(c2, (1, 0), (1,))

    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_deletion_preserves_legality_and_endpoint(self, seed: int) -> None:
        # Delete the first p(v) occurrences of each v from a dominating legal
        # sequence; the result stays legal and lands on the same endpoint.
        rng = random.Random(seed)
        d21 = DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)])
        p = primitive_period_vector(d21)
        degs = d21.out_degrees()
        # Starting from p * outdeg every maximal p-bounded schedule fires p.
        x = tuple(p[v] * degs[v] for v in range(2))
        cur = x
        remaining = list(p)
        seq: list[int] = []
        while True:
            options = [v for v in range(2) if remaining[v] > 0 and cur[v] >= degs[v]]
            if not options:
                break
            v = rng.choice(options)
            seq.append(v)
            remaining[v] -= 1
            cur = fire(d21, cur, v)
        assert remaining == [0, 0]
        for _ in range(rng.randint(0, 6)):
            options = [v for v in range(2) if cur[v] >= degs[v]]
            if not options:
                break
            v = rng.choice(options)
            seq.append(v)
            cur = fire(d21, cur, v)
        assert validate_legal_firing_sequence(d21, x, seq)
        quota = list(p)
        trimmed = []
        for v in seq:
            if quota[v] > 0:
                quota[v] -= 1
            else:
                trimmed.append(v)
        assert validate_legal_firing_sequence(d21, x, trimmed)
        assert _after(d21, x, seq) == _after(d21, x, trimmed)


def _after(g: DirectedMultigraph, x: tuple[int, ...], seq: list[int]) -> tuple[int, ...]:
    cur = x
    for v in seq:
        cur = fire(g, cur, v)
    return cur


# ---------------------------------------------------------------------------
# The worklist engines against dense references: the loops they replaced,
# which rescan from vertex 0 for the smallest eligible vertex.

# one vertex (a sink), every 2-vertex graph with multiplicities up to 2,
# every simple 3-vertex graph: sinks, sources and disconnected pieces
_ENUMERATED = (
    list(enumerate_digraphs(1, 0))
    + list(enumerate_digraphs(2, 2))
    + list(enumerate_digraphs(3, 1))
)


@st.composite
def small_graphs(draw) -> DirectedMultigraph:
    if draw(st.booleans()):
        return draw(st.sampled_from(_ENUMERATED))
    family = draw(st.sampled_from(("random", "eulerian")))
    size = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return gen_graph(family, size, random.Random(seed))


def _dense_fire(mult, x, v: int, k: int) -> list[int]:
    """x after firing v k times, from the rows ``mult`` (the graph's view, bound once)."""
    out = [c + k * m for c, m in zip(x, mult[v])]
    out[v] -= k * sum(mult[v])
    return out


def _dense_halts(g: DirectedMultigraph, x, max_steps: int) -> HaltingVerdict:
    """Stores the firing vector next to every visited configuration."""
    mult = g.mult
    cur = tuple(x)
    fired = [0] * g.n
    seen = {cur: tuple(fired)}
    for step in range(max_steps + 1):
        v = next((u for u in range(g.n) if cur[u] >= sum(mult[u])), None)
        if v is None:
            return HaltingVerdict("halts", final=cur, firing_vector=tuple(fired))
        if step == max_steps:
            break
        cur = tuple(_dense_fire(mult, cur, v, 1))
        fired[v] += 1
        if cur in seen:
            first = seen[cur]
            return HaltingVerdict(
                "non-halting",
                certificate=cur,
                witness_to_certificate=first,
                witness_cycle=tuple(b - a for a, b in zip(first, fired)),
            )
        seen[cur] = tuple(fired)
    return HaltingVerdict("budget-exceeded", reason="max-steps")


def _check_period_certificate(g: DirectedMultigraph, x, verdict: HaltingVerdict, max_steps: int) -> None:
    """The certificate is x + L F for F >= p, fired within the budget, and the cycle is p."""
    p = primitive_period_vector(g)
    fired = verdict.witness_to_certificate
    assert verdict.witness_cycle == p
    assert all(f >= q for f, q in zip(fired, p))
    assert sum(fired) <= max_steps
    mult = g.mult
    cur = list(x)
    for v, k in enumerate(fired):
        cur = _dense_fire(mult, cur, v, k)
    assert tuple(cur) == verdict.certificate


def _dense_bounded_chip_game(g: DirectedMultigraph, x, bound, max_batches: int):
    """(firing vector, final, batches) of the round schedule, by dense scans.

    Each round scans all n vertices for the eligible ones, then fires
    each of them in ascending order with its largest safe batch at its
    turn.  Raises BudgetExceededError like the engine.
    """
    mult = g.mult
    degs = [sum(row) for row in mult]
    cur = list(x)
    fired = [0] * g.n
    batches = []
    while True:
        current = [v for v in range(g.n) if fired[v] < bound[v] and cur[v] >= degs[v]]
        if not current:
            return tuple(fired), tuple(cur), tuple(batches)
        for v in current:
            remaining = bound[v] - fired[v]
            k = min(remaining, cur[v] // degs[v]) if degs[v] else remaining
            if len(batches) >= max_batches:
                raise BudgetExceededError("dense reference")
            cur = _dense_fire(mult, cur, v, k)
            fired[v] += k
            batches.append((v, k))


def _dense_smallest_first_chip_game(g: DirectedMultigraph, x, bound):
    """(firing vector, final) of the smallest-eligible-first schedule, by dense scans."""
    mult = g.mult
    cur = list(x)
    fired = [0] * g.n
    while True:
        for v in range(g.n):
            deg = sum(mult[v])
            remaining = bound[v] - fired[v]
            if remaining > 0 and cur[v] >= deg:
                break
        else:
            return tuple(fired), tuple(cur)
        k = min(remaining, cur[v] // deg) if deg else remaining
        cur = _dense_fire(mult, cur, v, k)
        fired[v] += k


class TestScheduleMatchesDenseScan:
    @given(small_graphs(), st.data(), st.sampled_from((0, 1, 2, 4, 7, 1_000_000)))
    @settings(max_examples=300, deadline=None)
    def test_halts(self, g: DirectedMultigraph, data, max_steps: int) -> None:
        # Halting verdicts match the dense scan exactly.  Non-halting ones
        # carry (F, p) instead of the first repeat, and the rule may fire
        # within the budget where the scan has not repeated yet.
        degs = g.out_degrees()
        x = tuple(data.draw(st.integers(min_value=-1, max_value=d + 1)) for d in degs)
        if not is_strongly_connected(g):
            with pytest.raises(ValueError):
                halts(g, x, max_steps=max_steps)
            return
        verdict = halts(g, x, max_steps=max_steps)
        expected = _dense_halts(g, x, max_steps)
        if verdict.kind == "non-halting":
            _check_period_certificate(g, x, verdict, max_steps)
        if expected.kind == "halts":
            assert verdict == expected
        elif expected.kind == "non-halting":
            assert verdict.kind == "non-halting"
        elif verdict.kind != "non-halting":
            assert verdict == expected

    @given(small_graphs(), st.data(), st.sampled_from((0, 1, 3, 1_000_000)))
    @settings(max_examples=300, deadline=None)
    def test_bounded_chip_game(self, g: DirectedMultigraph, data, max_batches: int) -> None:
        degs = g.out_degrees()
        x = tuple(data.draw(st.integers(min_value=-1, max_value=3 * d + 1)) for d in degs)
        bound = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in degs)
        try:
            expected = _dense_bounded_chip_game(g, x, bound, max_batches)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                bounded_chip_game(g, x, bound, max_batches=max_batches)
            return
        res = bounded_chip_game(g, x, bound, max_batches=max_batches)
        assert (res.firing_vector, res.final, res.trace.batches) == expected
        assert res.trace.replay(g)
        assert res.batch_count == len(res.trace.batches)
        untraced = bounded_chip_game(g, x, bound, max_batches=max_batches, trace=False)
        assert untraced.trace is None
        assert (untraced.firing_vector, untraced.final, untraced.batch_count) == (
            res.firing_vector, res.final, res.batch_count,
        )
        # bounded games are abelian: another schedule fires the same vector
        assert (res.firing_vector, res.final) == _dense_smallest_first_chip_game(g, x, bound)


def _chain(n: int) -> DirectedMultigraph:
    """Two edges from i to i+1, one back: p(i) = 2^i, so per(G) = 2^n - 1."""
    edges = [(i, i + 1, 2) for i in range(n - 1)] + [(i + 1, i, 1) for i in range(n - 1)]
    return DirectedMultigraph.from_edges(n, edges)


class TestGameCost:
    @given(small_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_batches_at_most_the_bound_total(self, g: DirectedMultigraph, data) -> None:
        # each batch fires its vertex at least once
        degs = g.out_degrees()
        x = tuple(data.draw(st.integers(min_value=-1, max_value=3 * d + 1)) for d in degs)
        bound = tuple(data.draw(st.integers(min_value=0, max_value=6)) for _ in degs)
        res = bounded_chip_game(g, x, bound, max_batches=sum(bound))
        assert len(res.trace.batches) <= sum(bound)

    def test_chain_batches_grow_with_the_period(self) -> None:
        # the chain's entries stay at most 2, but per(G) doubles with each
        # vertex, and so does the recurrence game
        batches = []
        for n in range(3, 11):
            g = _chain(n)
            p = primitive_period_vector(g)
            assert p == tuple(2 ** i for i in range(n))
            x = tuple([2 * d - 1 for d in g.out_degrees()])
            assert is_recurrent(g, x)
            batches.append(len(bounded_chip_game(g, x, p).trace.batches))
        assert all(b > 1.5 * a for a, b in zip(batches, batches[1:]))

    def test_past_the_budget_the_verdict_is_unknown(self) -> None:
        g = _chain(10)
        x = tuple([2 * d - 1 for d in g.out_degrees()])
        start = fire(g, x, 0)
        full = reach_chip(g, start, x)
        assert full.decision == "YES" and full.trace is not None
        needed = len(full.trace.batches)
        assert reach_chip(g, start, x, max_batches=needed) == full
        cut = reach_chip(g, start, x, max_batches=needed - 1)
        assert (cut.decision, cut.reason) == ("UNKNOWN", "budget-exceeded")
        assert cut.firing_vector == full.firing_vector
        for recurrent in (is_recurrent, is_recurrent_via_reach):
            with pytest.raises(BudgetExceededError):
                recurrent(g, x, max_batches=needed - 1)


_STRONGLY_CONNECTED = [g for g in _ENUMERATED if is_strongly_connected(g)]


@st.composite
def strongly_connected_graphs(draw) -> DirectedMultigraph:
    """Strongly connected graphs on 1-8 vertices, Eulerian or not."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_STRONGLY_CONNECTED))
    family = draw(st.sampled_from(("strongly-connected", "eulerian")))
    size = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return gen_graph(family, size, random.Random(seed))


class TestPeriodDomination:
    @given(strongly_connected_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_is_on_the_greedy_cycle(self, g: DirectedMultigraph, data) -> None:
        # Measured on generated graphs, not proved: the certificate lies
        # on the greedy game's cycle, and the rule fires no later than the
        # first repeated configuration.
        degs = g.out_degrees()
        x = tuple(data.draw(st.integers(min_value=d - 1, max_value=2 * d)) for d in degs)
        verdict = halts(g, x)
        expected = _dense_halts(g, x, DEFAULT_GAME_BUDGET)
        assert verdict.kind == expected.kind
        if verdict.kind != "non-halting":
            return
        loop = sum(expected.witness_cycle)
        assert sum(verdict.witness_to_certificate) <= sum(expected.witness_to_certificate) + loop
        # from a configuration on the cycle, the first repeat is itself
        # after one turn of the cycle
        c = verdict.certificate
        assert _dense_halts(g, c, loop) == HaltingVerdict(
            "non-halting",
            certificate=c,
            witness_to_certificate=(0,) * g.n,
            witness_cycle=expected.witness_cycle,
        )

    @pytest.mark.parametrize(
        "edges, x, kind",
        [
            ([(0, 1, 1), (1, 0, 1)], (1, 0), "non-halting"),
            ([(0, 1, 2), (1, 0, 1)], (2, 1), "non-halting"),
            ([(0, 1, 2), (1, 0, 1)], (1, 0), "halts"),
        ],
        ids=["eulerian", "non-eulerian", "halting"],
    )
    def test_one_decomposition_per_call(self, monkeypatch, edges, x, kind: str) -> None:
        g = DirectedMultigraph.from_edges(2, edges)
        calls = _connectivity_passes(monkeypatch)
        assert halts(g, x).kind == kind
        assert len(calls) == 1



def _complete_graph(n: int, rng: random.Random) -> DirectedMultigraph:
    """Every ordered pair joined by 1-3 edges: n - 1 runs per vertex."""
    return DirectedMultigraph.from_edges(
        n, [(u, v, rng.randint(1, 3)) for u in range(n) for v in range(n) if u != v]
    )


@st.composite
def packed_rule_graphs(draw) -> DirectedMultigraph:
    """Strongly connected graphs under 4 runs per vertex, and complete ones at 4 or more."""
    if draw(st.booleans()):
        return draw(strongly_connected_graphs())
    size = draw(st.integers(min_value=5, max_value=9))
    return _complete_graph(size, random.Random(draw(st.integers(min_value=0, max_value=2 ** 32))))


@st.composite
def field_edge_starts(draw, g: DirectedMultigraph):
    """A start whose widest field sits at a packed width's edge, and that width.

    One vertex gets the chips (or the debt) that make max(P, max deg -
    min(x, 0)) equal 2^(w-1) - 1, the most a w-bit field holds, or one
    more, which takes the next width.
    """
    degs = g.out_degrees()
    x = [draw(st.integers(min_value=-2, max_value=d + 1)) for d in degs]
    w = draw(st.sampled_from((8, 16, 32, 64)))
    over = draw(st.integers(min_value=0, max_value=1))
    need = (1 << (w - 1)) - 1 + over
    v = draw(st.integers(min_value=0, max_value=g.n - 1))
    x[v] = 0
    if draw(st.booleans()):
        x[v] = need - sum([c for c in x if c > 0])
    else:
        x[v] = max(degs) - need
    assume(max(sum([c for c in x if c > 0]), max(degs) - min(min(x), 0)) == need)
    return tuple(x), (w * 2 if w < 64 else None) if over else w


class TestPackedMatchesHeap:
    @given(packed_rule_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_both_loops_give_equal_verdicts(self, g: DirectedMultigraph, data) -> None:
        x, width = data.draw(field_edge_starts(g))
        degs = list(g.out_degrees())
        assert chipfiring._field_width(x, degs) == width
        if width is None:
            return
        balanced = strongly_connected_balance(g)
        played = chipfiring._heap_halts(g, x, degs, balanced, 2_000)
        length = sum(played.firing_vector or played.witness_to_certificate or (2_000,))
        for max_steps in (0, 1, length):
            heap = chipfiring._heap_halts(g, x, degs, balanced, max_steps)
            assert chipfiring._packed_halts(g, x, degs, balanced, max_steps, width) == heap
            assert halts(g, x, max_steps=max_steps) == heap

    def test_the_rule_picks_the_packed_loop_on_dense_graphs(self, monkeypatch) -> None:
        dense = _complete_graph(6, random.Random(6))
        sparse = gen_graph("strongly-connected", 6, random.Random(6))
        loops = []
        for name in ("_heap_halts", "_packed_halts"):
            def record(*args, name=name, original=getattr(chipfiring, name)):
                loops.append(name)
                return original(*args)

            monkeypatch.setattr(chipfiring, name, record)
        for g in (dense, sparse):
            halts(g, g.out_degrees())
        # past 64 bits a field cannot hold the pile
        halts(dense, (1 << 63,) + (0,) * 5, max_steps=10)
        assert loops == ["_packed_halts", "_heap_halts", "_heap_halts"]
