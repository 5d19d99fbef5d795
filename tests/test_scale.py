"""Scale tier: exact solves well past desk scale, under explicit bounds.

Wall-time bounds are several times the measured time on a 2-core Xeon
KVM guest, whose speed drifts up to 2x; they catch a return to
exponential bit growth, not small slowdowns.
"""

from __future__ import annotations

import time
from math import isqrt
from random import Random

import pytest

from rotorchip.bruteforce import random_legal_chip_sequence
from rotorchip.chipfiring import fire, reach_chip
from rotorchip.generators import gen_graph
from rotorchip.intlinalg import nonneg_reduced_solution, period_basis
from rotorchip.multigraph import DirectedMultigraph, scc_decompose


def _rollout(g: DirectedMultigraph, rng: Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A start x and the end y of a random legal game of 3n firings from it."""
    x = tuple(deg + rng.randint(0, 2) for deg in g.out_degrees())
    y = x
    for v in random_legal_chip_sequence(g, x, 3 * g.n, rng):
        y = fire(g, y, v)
    return x, y


@pytest.mark.parametrize(
    "family, n, wall_s",
    [
        ("strongly-connected", 200, 15.0),
        ("eulerian", 200, 30.0),
        ("heavy-multiplicity", 60, 15.0),
    ],
)
def test_reach_chip_yes_within_wall_bound(family: str, n: int, wall_s: float) -> None:
    rng = Random(n)
    g = gen_graph(family, n, rng)
    x, y = _rollout(g, rng)
    start = time.perf_counter()
    verdict = reach_chip(g, x, y)
    elapsed = time.perf_counter() - start
    assert verdict.decision == "YES"
    assert verdict.trace is not None and verdict.trace.final == y
    assert elapsed < wall_s, f"{family} n={n}: {elapsed:.1f}s >= {wall_s}s"


def _hadamard_bound(g: DirectedMultigraph, d: tuple[int, ...]) -> int:
    """Product of the column norms, each rounded up, of [L' | d'].

    L' is the Laplacian without the row and column of the smallest
    vertex of each sink component, and d' is d without those rows.
    """
    scc = scc_decompose(g)
    roots = {scc.components[i][0] for i in scc.sink_component_ids()}
    rest = [v for v in range(g.n) if v not in roots]
    lap = g.laplacian()
    columns = [[lap[u][v] for u in rest] for v in rest] + [[d[u] for u in rest]]
    bound = 1
    for col in columns:
        square = sum(x * x for x in col)
        norm = isqrt(square)
        if norm * norm < square:
            norm += 1
        bound *= max(1, norm)
    return bound


@pytest.mark.parametrize(
    "family, n",
    [("random", 8), ("random", 20), ("strongly-connected", 30), ("heavy-multiplicity", 40)],
)
def test_solution_and_periods_within_hadamard_bound(family: str, n: int) -> None:
    for seed in range(10):
        rng = Random(seed)
        g = gen_graph(family, n, rng)
        x, y = _rollout(g, rng)
        d = tuple(b - a for a, b in zip(x, y))
        f = nonneg_reduced_solution(g, d)
        assert f is not None
        bits = _hadamard_bound(g, d).bit_length()
        assert max(abs(v) for v in f).bit_length() <= bits
        for p in period_basis(g).kernel_vectors():
            assert max(p).bit_length() <= bits
