from __future__ import annotations

import random

import pytest

from rotorchip.bruteforce import (
    bfs_reach_chip,
    bfs_reach_rotor,
    enumerate_digraphs,
    oracle_is_recurrent,
    random_legal_sequence,
    random_maximal_bounded_chip_game,
    random_maximal_bounded_rotor_game,
    reachability_matrix,
)
from rotorchip.chipfiring import _replay as replay_chips
from rotorchip.chipfiring import bounded_chip_game, validate_legal_firing_sequence
from rotorchip.errors import BudgetExceededError
from rotorchip.multigraph import DirectedMultigraph, is_strongly_connected
from rotorchip.rotorrouting import (
    ChipRotorConfig,
    RibbonStructure,
    bounded_rotor_game,
    validate_legal_routing_sequence,
)
from rotorchip.rotorrouting import _replay as replay_rotors


class TestBfsChip:
    def test_frozen_examples(self, c2: DirectedMultigraph) -> None:
        assert bfs_reach_chip(c2, (1, 0), (0, 1))
        assert not bfs_reach_chip(c2, (0, 0), (1, -1))
        assert bfs_reach_chip(c2, (3, -1), (3, -1))

    def test_budget_raises(self, c2: DirectedMultigraph) -> None:
        with pytest.raises(BudgetExceededError):
            bfs_reach_chip(c2, (4, 4), (0, 8), max_states=2)


class TestBfsRotor:
    def test_demo_panels(
        self,
        fig1_ribbon: RibbonStructure,
        fig1_left: ChipRotorConfig,
        fig1_right: ChipRotorConfig,
    ) -> None:
        assert bfs_reach_rotor(fig1_ribbon, fig1_left, fig1_right)
        assert bfs_reach_rotor(fig1_ribbon, fig1_left, fig1_left)

    def test_unreachable(self, d21_ribbon: RibbonStructure) -> None:
        a = ChipRotorConfig((0, 0), (0, 0))
        b = ChipRotorConfig((0, 0), (1, 0))
        assert not bfs_reach_rotor(d21_ribbon, a, b)


class TestOracleRecurrent:
    def test_frozen_examples(self, c2: DirectedMultigraph, d21: DirectedMultigraph) -> None:
        assert oracle_is_recurrent(c2, (1, 0))
        assert not oracle_is_recurrent(c2, (0, 0))
        assert oracle_is_recurrent(d21, (2, 0))


class TestSearchRules:
    """The three searches share one budget rule and differ only in their goal."""

    def test_budget_messages(
        self, c2: DirectedMultigraph, d21_ribbon: RibbonStructure
    ) -> None:
        a = ChipRotorConfig((3, 1), (0, 0))
        b = ChipRotorConfig((0, 5), (0, 0))
        for call, message in (
            (lambda: bfs_reach_chip(c2, (4, 4), (0, 9), max_states=2),
             "chip reachability search exceeded 2 states"),
            (lambda: bfs_reach_rotor(d21_ribbon, a, b, max_states=3),
             "rotor reachability search exceeded 3 states"),
            (lambda: oracle_is_recurrent(c2, (5, 3), max_states=1),
             "recurrence search exceeded 1 states"),
        ):
            with pytest.raises(BudgetExceededError, match=f"^{message}$"):
                call()

    def test_budget_counts_the_states_held(self, c2: DirectedMultigraph) -> None:
        # on the 2-cycle, 2 chips in all take three states, the start included
        assert not bfs_reach_chip(c2, (2, 0), (0, 3), max_states=3)
        with pytest.raises(BudgetExceededError):
            bfs_reach_chip(c2, (2, 0), (0, 3), max_states=2)

    def test_a_start_is_its_own_goal_only_for_reach(
        self, c2: DirectedMultigraph, d21_ribbon: RibbonStructure
    ) -> None:
        # no firing is legal from (0, 0), so no nonempty game returns to it
        assert not oracle_is_recurrent(c2, (0, 0))
        assert bfs_reach_chip(c2, (0, 0), (0, 0))
        stuck = ChipRotorConfig((0, 0), (0, 0))
        assert bfs_reach_rotor(d21_ribbon, stuck, stuck)


class TestRandomSchedules:
    def test_chip_schedule_matches_engine(self, d21: DirectedMultigraph) -> None:
        for seed in range(10):
            rng = random.Random(seed)
            x = (rng.randint(0, 4), rng.randint(0, 4))
            bound = (rng.randint(0, 3), rng.randint(0, 3))
            f, final, seq = random_maximal_bounded_chip_game(d21, x, bound, rng)
            res = bounded_chip_game(d21, x, bound)
            assert f == res.firing_vector
            assert final == res.final
            assert tuple([seq.count(v) for v in range(d21.n)]) == f
            assert validate_legal_firing_sequence(d21, x, seq)

    def test_rotor_schedule_matches_engine(self, d21_ribbon: RibbonStructure) -> None:
        for seed in range(10):
            rng = random.Random(seed)
            cfg = ChipRotorConfig((rng.randint(0, 3), rng.randint(0, 3)), (rng.randrange(2), 0))
            bound = (rng.randint(0, 3), rng.randint(0, 3))
            r, final, seq = random_maximal_bounded_rotor_game(d21_ribbon, cfg, bound, rng)
            res = bounded_rotor_game(d21_ribbon, cfg, bound)
            assert r == res.routing_vector
            assert final == res.final
            assert tuple([seq.count(v) for v in range(d21_ribbon.n)]) == r
            assert validate_legal_routing_sequence(d21_ribbon, cfg, seq)

    def test_budget_messages(self, c2: DirectedMultigraph, d21_ribbon: RibbonStructure) -> None:
        # one chip on the 2-cycle fires 0, 1, 0, 1, ... until bound (5, 5)
        # stops it after 10 firings; the d21 game routes 0, 1, 0, 1
        start = ChipRotorConfig((1, 0), (0, 0))

        def chip(steps: int):
            return random_maximal_bounded_chip_game(c2, (1, 0), (5, 5), random.Random(0), steps)

        def rotor(steps: int):
            return random_maximal_bounded_rotor_game(d21_ribbon, start, (2, 2), random.Random(0), steps)

        assert chip(11) == ((5, 5), (1, 0), (0, 1) * 5)
        assert rotor(5) == ((2, 2), start, (0, 1) * 2)
        # a game of exactly max_steps acts raises: the budget cannot tell
        # it from a longer one
        for call, steps, message in (
            (chip, 10, "random chip game exceeded 10 steps"),
            (chip, 3, "random chip game exceeded 3 steps"),
            (rotor, 4, "random rotor game exceeded 4 steps"),
            (rotor, 0, "random rotor game exceeded 0 steps"),
        ):
            with pytest.raises(BudgetExceededError, match=f"^{message}$"):
                call(steps)

    def test_legal_sequences_replay_to_their_end(
        self, d21: DirectedMultigraph, d21_ribbon: RibbonStructure
    ) -> None:
        for seed in range(10):
            rng = random.Random(seed)
            x = (rng.randint(0, 4), rng.randint(0, 4))
            cfg = ChipRotorConfig(x, (rng.randrange(2), 0))
            length = rng.randint(0, 8)
            for board, start, replay in ((d21, x, replay_chips), (d21_ribbon, cfg, replay_rotors)):
                counts, end, seq = random_legal_sequence(board, start, length, rng)
                assert len(seq) <= length
                assert replay(board, start, [(v, 1) for v in seq]) == (end, counts)

    def test_legal_sequences_stop_when_stuck(
        self, c2: DirectedMultigraph, d21_ribbon: RibbonStructure
    ) -> None:
        # one chip on the 2-cycle never gets stuck; no chips at all is stuck at once
        assert random_legal_sequence(c2, (1, 0), 3, random.Random(0)) == ((2, 1), (0, 1), (0, 1, 0))
        assert random_legal_sequence(c2, (0, 0), 3, random.Random(0)) == ((0, 0), (0, 0), ())
        stuck = ChipRotorConfig((0, 0), (1, 0))
        assert random_legal_sequence(d21_ribbon, stuck, 3, random.Random(0)) == ((0, 0), stuck, ())


class TestEnumerators:
    def test_two_vertex_simple_digraphs(self) -> None:
        graphs = list(enumerate_digraphs(2, 1))
        assert len(graphs) == 4
        mults = sorted(g.mult for g in graphs)
        assert mults == [
            ((0, 0), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 1), (0, 0)),
            ((0, 1), (1, 0)),
        ]

    def test_strongly_connected_filter(self) -> None:
        sc = [g for g in enumerate_digraphs(2, 1) if is_strongly_connected(g)]
        assert len(sc) == 1
        assert sc[0].mult == ((0, 1), (1, 0))

    def test_count_matches_closed_form(self) -> None:
        # (max_mult + 1) choices per ordered pair of distinct vertices.
        assert len(list(enumerate_digraphs(2, 2))) == 9
        assert len(list(enumerate_digraphs(3, 1))) == 64


class TestReachabilityMatrix:
    def test_reflexive_closure(self, fig1: DirectedMultigraph) -> None:
        reach = reachability_matrix(fig1)
        for v in range(fig1.n):
            assert reach[v][v]
        # Sink vertex 3 reaches only itself.
        assert reach[3] == (False, False, False, True)
        assert reach[0][3] and reach[2][3]
