"""Scale tier: exact solves and games well past desk scale, under explicit bounds.

Wall-time bounds are several times the measured time on a 2-core Xeon
KVM guest, whose speed drifts up to 2x; they catch a return to
exponential bit growth or to O(n) work per game step, not small
slowdowns.
"""

from __future__ import annotations

import time
import tracemalloc
from math import gcd, isqrt
from random import Random

import pytest

from rotorchip.bruteforce import random_legal_chip_sequence
from rotorchip.chipfiring import HaltingVerdict, fire, halts, reach_chip
from rotorchip.generators import gen_graph, random_ribbon
from rotorchip.intlinalg import nonneg_reduced_solution, period_basis, primitive_period_vector
from rotorchip.multigraph import DirectedMultigraph, scc_decompose
from rotorchip.rotorrouting import (
    ChipRotorConfig,
    bounded_rotor_game,
    odometer_equals_bound,
    pi_r,
)


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


def _bidirected_cycle(n: int) -> DirectedMultigraph:
    return DirectedMultigraph.from_edges(
        n, [(v, (v + 1) % n, 1) for v in range(n)] + [((v + 1) % n, v, 1) for v in range(n)]
    )


@pytest.mark.parametrize(
    "make, wall_s",
    [
        # measured 1.3 s, 0.3 s of it building the graph; dense Bareiss,
        # rescaling every row at every step, needed 1.6 s at n=400 and
        # grows as n^3
        (lambda: _bidirected_cycle(2000), 10.0),
        # about 10^18 parallel edges per edge: measured 0.19 s, and 0.69 s
        # with dense Bareiss
        (lambda: gen_graph("heavy-multiplicity", 100, Random(100)), 2.0),
    ],
    ids=["bidirected-cycle-2000", "heavy-multiplicity-100"],
)
def test_primitive_period_vector_within_wall_bound(make, wall_s: float) -> None:
    start = time.perf_counter()
    g = make()
    p = primitive_period_vector(g)
    elapsed = time.perf_counter() - start
    assert min(p) > 0 and gcd(*p) == 1
    assert _apply_laplacian(g, (0,) * g.n, p) == (0,) * g.n
    assert elapsed < wall_s, f"n={g.n}: {elapsed:.2f}s >= {wall_s}s"


def _apply_laplacian(g: DirectedMultigraph, x, f) -> tuple[int, ...]:
    """x + L f, straight from the multiplicity matrix."""
    out = list(x)
    for v, k in enumerate(f):
        out[v] -= k * sum(g.mult[v])
        for u, m in enumerate(g.mult[v]):
            out[u] += k * m
    return tuple(out)


def test_primitive_period_vector_eulerian_n300_within_wall_bound() -> None:
    # a balanced graph gets the ones vector from one pass over its
    # adjacency, which is built first: measured 0.7-2.9 ms on seeds 0-2,
    # against 37.5 s for the elimination.  Best of three calls, so one
    # scheduling pause does not decide a bound this short.
    g = gen_graph("eulerian", 300, Random(0))
    g.adjacency()
    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        p = primitive_period_vector(g)
        elapsed = min(elapsed, time.perf_counter() - start)
        assert p == (1,) * g.n
    assert elapsed < 0.01, f"period n=300: {elapsed * 1e3:.1f} ms >= 10 ms"


def _cycling_start(g: DirectedMultigraph, v: int) -> tuple[int, ...]:
    """One chip above the largest stable total, so the game never halts."""
    x = [deg - 1 for deg in g.out_degrees()]
    x[v] += 1
    return tuple(x)


def test_halts_cycling_start_eulerian_n300_within_wall_bound() -> None:
    # every vertex has fired once, so F >= p, after 6,877 firings
    # (measured 0.04 s; storing a configuration per firing took 0.16 s
    # to find the first repeat)
    g = gen_graph("eulerian", 300, Random(7))
    x = _cycling_start(g, 60)
    start = time.perf_counter()
    verdict = halts(g, x)
    elapsed = time.perf_counter() - start
    assert verdict.kind == "non-halting"
    assert sum(verdict.witness_to_certificate) > 5 * g.n
    assert _apply_laplacian(g, x, verdict.witness_to_certificate) == verdict.certificate
    # an Eulerian graph's period vector is all ones
    assert verdict.witness_cycle == (1,) * g.n
    assert elapsed < 0.5, f"halts n=300: {elapsed:.2f}s >= 0.5s"


def _traced_peak(g: DirectedMultigraph, x: tuple[int, ...], **budget) -> tuple[HaltingVerdict, int]:
    tracemalloc.start()
    try:
        verdict = halts(g, x, **budget)
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_halts_cycling_start_eulerian_n300_within_memory_bound() -> None:
    # the game keeps a few n-vectors whatever its length: measured peak
    # 0.03 MB at 10,000 firings, where one stored configuration per
    # firing peaked at 30.2 MB
    g = gen_graph("eulerian", 300, Random(300))
    verdict, peak = _traced_peak(g, _cycling_start(g, 1), max_steps=10_000)
    assert verdict == HaltingVerdict("budget-exceeded", reason="max-steps")
    assert peak < 1e6, f"halts n=300, 10,000 steps: peak {peak / 1e6:.1f} MB"


def test_halts_cycling_start_eulerian_n300_default_budget_within_memory_bound() -> None:
    # the same start at the default budget: the rule fires at firing
    # 13,751, one before the first repeat (measured 0.11 s, peak 0.03 MB;
    # the stored configurations peaked at 41 MB)
    g = gen_graph("eulerian", 300, Random(300))
    x = _cycling_start(g, 1)
    verdict, peak = _traced_peak(g, x)
    assert verdict.kind == "non-halting"
    assert sum(verdict.witness_to_certificate) == 13_751
    assert _apply_laplacian(g, x, verdict.witness_to_certificate) == verdict.certificate
    assert peak < 1e6, f"halts n=300, default budget: peak {peak / 1e6:.1f} MB"


def test_bounded_rotor_game_n300_heavy_multiplicity_within_wall_bound() -> None:
    # every edge carries about 10^18 parallel edges; about one turn of
    # chips against a bound of ten turns, so most vertices wait for inflow
    # and the games play 1,700-3,300 batches each (measured 0.08 s in all)
    rng = Random(300)
    g = gen_graph("heavy-multiplicity", 300, rng)
    assert all(m == 0 or m >= 10 ** 17 for row in g.mult for m in row)
    ribbon = random_ribbon(g, rng)
    degs = ribbon.degrees
    cases = []
    for _ in range(10):
        config = ChipRotorConfig(
            tuple(rng.randint(0, d) for d in degs),
            tuple(rng.randrange(d) for d in degs),
        )
        cases.append((config, tuple(10 * d + rng.randrange(d) for d in degs)))
    start = time.perf_counter()
    results = [bounded_rotor_game(ribbon, config, bound) for config, bound in cases]
    elapsed = time.perf_counter() - start
    for (config, bound), res in zip(cases, results):
        odometer = res.routing_vector
        assert len(res.trace.batches) > 1000
        assert res.trace.replay(ribbon)
        assert res.final == pi_r(ribbon, config, odometer)
        # maximal: every vertex spent its bound or its chips
        assert all(o == b or c <= 0 for o, b, c in zip(odometer, bound, res.final.chips))
        assert odometer_equals_bound(ribbon, config, bound) == (odometer == bound)
    assert elapsed < 1.0, f"bounded_rotor_game n=300: {elapsed:.2f}s >= 1.0s"
