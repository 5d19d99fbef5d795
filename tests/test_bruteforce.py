from __future__ import annotations

import itertools
import random

import pytest

from rotorchip.bruteforce import (
    bfs_reach_chip,
    bfs_reach_rotor,
    enumerate_chip_vectors,
    enumerate_digraphs,
    enumerate_instances,
    oracle_is_recurrent,
    random_maximal_bounded_chip_game,
    random_maximal_bounded_rotor_game,
    reachability_matrix,
)
from rotorchip.chipfiring import bounded_chip_game
from rotorchip.errors import BudgetExceededError
from rotorchip.multigraph import DirectedMultigraph, is_strongly_connected
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure, bounded_rotor_game


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


class TestRandomSchedules:
    def test_chip_schedule_matches_engine(self, d21: DirectedMultigraph) -> None:
        for seed in range(10):
            rng = random.Random(seed)
            x = (rng.randint(0, 4), rng.randint(0, 4))
            bound = (rng.randint(0, 3), rng.randint(0, 3))
            f, final = random_maximal_bounded_chip_game(d21, x, bound, rng)
            res = bounded_chip_game(d21, x, bound)
            assert f == res.firing_vector
            assert final == res.final

    def test_rotor_schedule_matches_engine(self, d21_ribbon: RibbonStructure) -> None:
        for seed in range(10):
            rng = random.Random(seed)
            cfg = ChipRotorConfig((rng.randint(0, 3), rng.randint(0, 3)), (rng.randrange(2), 0))
            bound = (rng.randint(0, 3), rng.randint(0, 3))
            r, final = random_maximal_bounded_rotor_game(d21_ribbon, cfg, bound, rng)
            res = bounded_rotor_game(d21_ribbon, cfg, bound)
            assert r == res.routing_vector
            assert final == res.final


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

    def test_chip_vectors(self) -> None:
        vecs = list(enumerate_chip_vectors(2, 2))
        assert set(vecs) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        }

    def test_exhaustive_instances_are_valid(self) -> None:
        seen = 0
        for g, ribbon, cfg in itertools.islice(enumerate_instances(2, 1, 1), 50):
            assert ribbon.graph == g
            assert len(cfg.chips) == g.n
            for v in range(g.n):
                if g.out_degree(v) == 0:
                    assert cfg.rotors[v] is None
                else:
                    assert 0 <= cfg.rotors[v] < g.out_degree(v)
            seen += 1
        assert seen > 0

    def test_seeded_stream_replays(self) -> None:
        a = list(itertools.islice(enumerate_instances(3, 2, 2, seed=9), 8))
        b = list(itertools.islice(enumerate_instances(3, 2, 2, seed=9), 8))
        assert a == b


class TestReachabilityMatrix:
    def test_reflexive_closure(self, fig1: DirectedMultigraph) -> None:
        reach = reachability_matrix(fig1)
        for v in range(fig1.n):
            assert reach[v][v]
        # Sink vertex 3 reaches only itself.
        assert reach[3] == (False, False, False, True)
        assert reach[0][3] and reach[2][3]
