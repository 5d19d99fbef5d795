"""Scale tier: exact solves and games well past desk scale, under explicit bounds.

Wall-time bounds are several times the measured time on a 2-core Xeon
KVM guest, whose speed drifts up to 2x; they catch a return to
exponential bit growth or to O(n) work per game step, not small
slowdowns.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from math import gcd, isqrt
from random import Random

import pytest

from rotorchip.bruteforce import laplacian, random_legal_chip_sequence
from rotorchip.chipfiring import HaltingVerdict, fire, halts, reach_chip
from rotorchip.cli import run_command
from rotorchip.generators import FAMILIES, gen_graph, gen_instance, random_ribbon
from rotorchip.instancefile import MAX_VERTICES, serialize_instance
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
    lap = laplacian(g)
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
    mult = g.mult
    out = list(x)
    for v, k in enumerate(f):
        out[v] -= k * sum(mult[v])
        for u, m in enumerate(mult[v]):
            out[u] += k * m
    return tuple(out)


def test_primitive_period_vector_eulerian_n300_within_wall_bound() -> None:
    # a balanced graph gets the ones vector from one pass over its
    # adjacency, the graph's stored form: measured 0.7-2.9 ms on seeds
    # 0-2, against 37.5 s for the elimination.  Best of three calls, so
    # one scheduling pause does not decide a bound this short.
    g = gen_graph("eulerian", 300, Random(0))
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


@pytest.mark.parametrize(
    "argv, first, wall_s",
    [
        (["chip-halting"], "status=non-halting", 0.3),
        (["rotor-route", "--r", ",".join(["3"] * MAX_VERTICES)], "chips=", 0.3),
        (["rotor-odom", "--r", ",".join(["3"] * MAX_VERTICES)], "odometer=3,", 0.3),
    ],
    ids=["chip-halting", "rotor-route", "rotor-odom"],
)
def test_game_commands_at_the_vertex_cap_within_wall_bound(
    tmp_path, capsys, argv: list[str], first: str, wall_s: float
) -> None:
    # a bidirected cycle on MAX_VERTICES vertices, one chip above n: the
    # parse keeps the runs, so a whole call took 20-40 ms, where filling
    # and reading a dense matrix took 0.4-1.0 s
    n = MAX_VERTICES
    path = tmp_path / "cycle.rcg"
    path.write_text(
        f"graph {n}\n"
        + "".join(f"ribbon {v} : {(v + 1) % n}:1 {(v - 1) % n}:1\n" for v in range(n))
        + "chips 2" + " 1" * (n - 1) + "\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    code = run_command([*argv, str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.startswith(first)
    assert elapsed < wall_s, f"{argv[0]} n={n}: {elapsed:.2f}s >= {wall_s}s"


@pytest.mark.parametrize("family", ["strongly-connected", "heavy-multiplicity"])
def test_gen_at_the_vertex_cap_within_memory_bound(family: str) -> None:
    # the generator hands triples to from_edges and holds no row: measured
    # peaks of 3.4 MB and 4.3 MB for files of 0.15 and 0.30 MB, where
    # filling a dense matrix and reading its view peaked at 257 MB
    tracemalloc.start()
    try:
        serialize_instance(gen_instance(family, MAX_VERTICES, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"gen {family} n={MAX_VERTICES}: peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("family", ["strongly-connected", "heavy-multiplicity"])
def test_gen_command_at_the_vertex_cap_within_wall_bound(tmp_path, capsys, family: str) -> None:
    # measured 0.07-0.08 s a call, against 3.9-4.0 s while gen_graph
    # filled a dense matrix
    path = tmp_path / "gen.rcg"
    argv = ["gen", "--family", family, "--size", str(MAX_VERTICES), "--seed", "1", "--out", str(path)]
    start = time.perf_counter()
    code = run_command(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == f"written={path}\n"
    assert elapsed < 1.0, f"gen {family} n={MAX_VERTICES}: {elapsed:.2f}s >= 1.0s"


def test_gen_bytes_are_pinned() -> None:
    # the digest of every family at five seeds and sizes from 2 to 500,
    # as the dense-row generator wrote them
    digest = hashlib.sha256()
    for family in FAMILIES:
        for seed in range(5):
            for size in (2, 4, 24, 140, 500):
                digest.update(serialize_instance(gen_instance(family, size, seed)).encode())
    assert digest.hexdigest() == "675bf79f41a409f25344ea7fc6a3a93526fcf933d7f612e195b016ca5642091e"
