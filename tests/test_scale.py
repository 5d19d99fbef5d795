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
from itertools import islice
from math import gcd, isqrt
from random import Random

import pytest

from rotorchip import chipfiring
from rotorchip.bruteforce import laplacian, random_legal_chip_sequence, reduce_routing_vector
from rotorchip.chipfiring import (
    HaltingVerdict,
    bounded_chip_game,
    fire,
    halts,
    is_recurrent,
    is_recurrent_via_reach,
    lin_equiv,
    reach_chip,
)
from rotorchip.cli import run_command
from rotorchip.errors import DEFAULT_GAME_BUDGET
from rotorchip.generators import (
    FAMILIES,
    chip_case_stream,
    gen_graph,
    gen_instance,
    random_ribbon,
    rotor_case_stream,
    strongly_connected_stream,
)
from rotorchip.instancefile import MAX_VERTICES, Instance, serialize_instance
from rotorchip.intlinalg import (
    is_reduced,
    nonneg_reduced_solution,
    period_basis,
    primitive_period_vector,
    reduce_vector,
)
from rotorchip.multigraph import (
    DirectedMultigraph,
    is_strongly_connected,
    scc_decompose,
    strongly_connected_balance,
)
from rotorchip.rotorrouting import (
    ChipRotorConfig,
    RibbonStructure,
    bounded_rotor_game,
    odometer_equals_bound,
    pi_r,
    reach_rotor,
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


def test_reach_chip_out_star_n4096_within_wall_and_memory_bounds() -> None:
    # 4095 single-vertex sinks: measured 0.01 s and a 1.0 MB peak; an
    # n-long kernel column and solution per sink took 2.0 s here, and
    # 0.42 s with a 67.7 MB peak at n=2048
    n = 4096
    g = DirectedMultigraph.from_edges(n, [(0, i, 1) for i in range(1, n)])
    x, y = (n - 1,) + (0,) * (n - 1), (0,) + (1,) * (n - 1)
    start = time.perf_counter()
    verdict = reach_chip(g, x, y)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        reach_chip(g, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.decision == "YES"
    assert verdict.firing_vector == (1,) + (0,) * (n - 1)
    assert elapsed < 0.5, f"out-star n={n}: {elapsed:.2f}s >= 0.5s"
    assert peak < 5e6, f"out-star n={n}: peak {peak / 1e6:.1f} MB"


def test_sink_reduction_out_star_n4096_within_wall_bound() -> None:
    # 4095 trivial sinks, each with period e_s read off directly: measured
    # 0.03 s per call; building two n-long lists per sink took 1.28 s per
    # call here, 0.52 s at n=2048 and 0.16 s at n=1024
    n = 4096
    g = DirectedMultigraph.from_edges(n, [(0, i, 1) for i in range(1, n)])
    f = (3,) + (2,) * (n - 1)
    start = time.perf_counter()
    assert reduce_vector(g, f) == (3,) + (0,) * (n - 1)
    # a trivial sink has out-degree 0, so its routing period is zero
    assert reduce_routing_vector(g, f) == f
    assert not is_reduced(g, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"out-star n={n}: {elapsed:.2f}s >= 0.5s"


def _unit(n: int, v: int) -> tuple[int, ...]:
    return (0,) * v + (1,) + (0,) * (n - v - 1)


def _path(n: int) -> DirectedMultigraph:
    return DirectedMultigraph.from_edges(n, [(v, v + 1, 1) for v in range(n - 1)])


def _small_component_case(shape: str, n: int):
    """A graph whose components have one or two vertices, and one legal firing on it.

    Returns the graph, a start x, the configuration after one firing of
    the vertex ``fired``, and the reduced representative of ``(2,) * n``.
    """
    if shape == "path":
        g, fired, x = _path(n), 0, _unit(n, 0)
        reduced = (2,) * (n - 1) + (0,)
    elif shape == "out-star":
        g = DirectedMultigraph.from_edges(n, [(0, i, 1) for i in range(1, n)])
        fired, x = 0, (n - 1,) + (0,) * (n - 1)
        reduced = (2,) + (0,) * (n - 1)
    elif shape == "in-star":
        g = DirectedMultigraph.from_edges(n, [(i, 0, 1) for i in range(1, n)])
        fired, x = 1, _unit(n, 1)
        reduced = (0,) + (2,) * (n - 1)
    else:
        pairs = [(v, v ^ 1, 1) for v in range(n)]
        g, fired, x = DirectedMultigraph.from_edges(n, pairs), 0, _unit(n, 0)
        reduced = (0,) * n
    return g, x, fire(g, x, fired), fired, reduced


@pytest.mark.parametrize("call", ["reach_chip", "period_basis", "reduce_vector"])
@pytest.mark.parametrize("shape", ["path", "out-star", "in-star", "2-cycles"])
def test_small_components_n4096_within_wall_and_memory_bounds(shape: str, call: str) -> None:
    # one walk over the components, sources first, with no n-long vector
    # per component: measured 0.01-0.05 s and peaks of 0.9-1.3 MB a call.
    # One joint elimination, with n-long period and kernel vectors, took
    # 3.1 s for reach_chip on the path and 1.6 s on the in-star (136 MB
    # peaks); on disjoint 2-cycles it took 0.46 s at n=512 and 4.1 s at
    # n=1024, growing as n^3.  period_basis peaked at 135 MB on the path
    # and the stars and at 68 MB on the 2-cycles.
    n = 4096
    g, x, y, fired, reduced = _small_component_case(shape, n)
    run = {
        "reach_chip": lambda: reach_chip(g, x, y),
        "period_basis": lambda: period_basis(g),
        "reduce_vector": lambda: reduce_vector(g, (2,) * n),
    }[call]
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if call == "reach_chip":
        assert result.decision == "YES"
        assert result.firing_vector == _unit(n, fired)
    elif call == "period_basis":
        # every component's period is ones on its one or two vertices
        assert result.per == n
        assert sum(map(sum, result.kernel_vectors())) == sum(
            len(result.scc.components[i]) for i in result.sink_indices
        )
    else:
        assert result == reduced
    assert elapsed < 1.0, f"{call} on {shape} n={n}: {elapsed:.2f}s >= 1.0s"
    assert peak < 1_000 * n, f"{call} on {shape} n={n}: peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["chip-reach"], "decision=YES f=1" + ",0" * (MAX_VERTICES - 1) + "\n"),
        (
            ["period"],
            f"per={MAX_VERTICES}\nsink_component={MAX_VERTICES - 1} p_i=" + "0," * (MAX_VERTICES - 1) + "1\n",
        ),
    ],
    ids=["chip-reach", "period"],
)
def test_solve_commands_on_a_path_at_the_vertex_cap_within_wall_and_memory_bounds(
    tmp_path, capsys, argv: list[str], want: str
) -> None:
    # a path on MAX_VERTICES vertices, one chip fired from vertex 0 to 1:
    # measured 0.06 s and a 3.1 MB peak a call; the joint elimination took
    # 2.3 s for chip-reach and 0.5 s for period, with peaks above 130 MB
    n = MAX_VERTICES
    g = _path(n)
    rotors = (0,) * (n - 1) + (None,)
    instance = Instance(g, RibbonStructure.of(g), {
        "src": ChipRotorConfig(_unit(n, 0), rotors),
        "dst": ChipRotorConfig(_unit(n, 1), rotors),
    })
    path = tmp_path / "path.rcg"
    path.write_text(serialize_instance(instance), encoding="utf-8")
    start = time.perf_counter()
    code = run_command([*argv, str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == want
    tracemalloc.start()
    try:
        run_command([*argv, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == want
    assert elapsed < 1.0, f"{argv[0]} n={n}: {elapsed:.2f}s >= 1.0s"
    assert peak < 2_000 * n, f"{argv[0]} n={n}: peak {peak / 1e6:.1f} MB"


# per 4096-vertex graph: the edges besides the path 0 -> 1 -> ... -> 4095,
# and its strongly_connected_balance answer
CONNECTIVITY_4096 = {
    "path": ([], None),
    "cycle": ([(4095, 0, 1)], True),
    "path-and-back": ([(v + 1, v, 2) for v in range(4095)], False),
}


@pytest.mark.parametrize("name", CONNECTIVITY_4096)
def test_is_strongly_connected_n4096_within_wall_bound(name: str) -> None:
    # one low-link walk over the runs, no sort, 4096 deep on each graph,
    # so it must be iterative: measured 1.0-1.7 ms.  The path fails when
    # its last vertex closes its own component; the path and back (each
    # edge doubled backward, so unbalanced) walks every run.  Best of
    # three calls, so one scheduling pause does not decide a bound this
    # short.
    n = 4096
    extra, want = CONNECTIVITY_4096[name]
    g = DirectedMultigraph.from_edges(n, [(v, v + 1, 1) for v in range(n - 1)] + extra)
    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert is_strongly_connected(g) == (want is not None)
        elapsed = min(elapsed, time.perf_counter() - start)
    assert elapsed < 0.05, f"n={n}: {elapsed * 1e3:.1f} ms >= 50 ms"
    assert strongly_connected_balance(g) is want


@pytest.fixture(scope="module")
def strongly_connected_4096():
    """The strongly connected graph on 4096 vertices, a start one chip above
    each out-degree, and a stable start one chip below."""
    g = gen_graph("strongly-connected", 4096, Random(4096))
    degs = g.out_degrees()
    return g, tuple([d + 1 for d in degs]), tuple([d - 1 for d in degs])


def _rotor_self_reach(g: DirectedMultigraph, x: tuple[int, ...]) -> tuple[int, ...] | None:
    c = ChipRotorConfig(x, tuple([0 if d else None for d in g.out_degrees()]))
    return reach_rotor(g, RibbonStructure.of(g), c, c, trace=False).routing_vector


# queries the chip total decides: each call, what it returns, and the answer
TRIVIAL_QUERIES = {
    "reach_chip equal": (lambda g, x, s: reach_chip(g, x, x).decision, "YES"),
    "reach_chip unequal totals": (
        lambda g, x, s: reach_chip(g, x, (x[0] + 1,) + x[1:]).reason, "no-nonneg-firing-vector"
    ),
    "lin_equiv equal": (lambda g, x, s: set(lin_equiv(g, x, x)), {0}),
    "reach_rotor equal": (lambda g, x, s: set(_rotor_self_reach(g, x)), {0}),
    "is_recurrent stable": (lambda g, x, s: is_recurrent(g, s), False),
    "is_recurrent_via_reach stable": (lambda g, x, s: is_recurrent_via_reach(g, s), False),
}


@pytest.mark.parametrize("name", TRIVIAL_QUERIES)
def test_trivial_queries_strongly_connected_n4096_within_wall_bound(
    strongly_connected_4096, name: str
) -> None:
    # firing keeps the chip total, so an equal pair, unequal totals and a
    # stable start need no elimination: measured 0.2-13 ms each, where
    # eliminating took 8.7-11.3 s on this family at n=500 for all but
    # unequal totals, which a strongly connected graph's one sink caught
    call, want = TRIVIAL_QUERIES[name]
    start = time.perf_counter()
    assert call(*strongly_connected_4096) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"{name} n=4096: {elapsed:.2f}s >= 0.5s"


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


def test_halts_packed_loop_eulerian_n200_within_memory_bound(monkeypatch) -> None:
    # 52 runs per vertex and 16-bit fields, 3,200 bits in all, so the
    # packed loop plays: 6,367 firings, measured 8 ms against 31 ms for
    # the heap loop, with a 0.10 MB peak for the rows built on first firings
    g = gen_graph("eulerian", 200, Random(207))
    x = _cycling_start(g, 1)
    degs = list(g.out_degrees())
    heap = chipfiring._heap_halts(g, x, degs, True, DEFAULT_GAME_BUDGET)

    def refuse(*args):
        raise AssertionError("heap loop played")

    monkeypatch.setattr(chipfiring, "_heap_halts", refuse)
    verdict, peak = _traced_peak(g, x)
    assert verdict == heap
    assert verdict.kind == "non-halting"
    assert sum(verdict.witness_to_certificate) == 6_367
    assert peak < 1e6, f"halts packed n=200: peak {peak / 1e6:.2f} MB"


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


def _eulerian_pile(n: int, b: int):
    """The eulerian n-vertex graph with 2^b * deg(0) chips on vertex 0, and a bound.

    The bound keeps vertex n-1 from playing, so it acts as a sink, and
    is far above any other vertex's share of the chips.
    """
    g = gen_graph("eulerian", n, Random(n))
    total = 2 ** b * g.out_degree(0)
    return g, (total,) + (0,) * (n - 1), (total << 64,) * (n - 1) + (0,)


def test_reach_chip_eulerian_n60_256_bit_chips_within_wall_bound() -> None:
    # sorted rounds: 358,077 batches, measured 1.3-1.4 s; smallest
    # eligible first needed more than 3M batches from 32-bit chips on, so
    # the default budget turned this verdict into UNKNOWN
    g, x, bound = _eulerian_pile(60, 256)
    game = bounded_chip_game(g, x, bound)
    # every other pile ran down, so the bound held back only vertex 59
    assert all(c < d for c, d in zip(game.final[:-1], g.out_degrees()))
    start = time.perf_counter()
    verdict = reach_chip(g, x, game.final)
    elapsed = time.perf_counter() - start
    assert verdict.decision == "YES"
    assert verdict.firing_vector == game.firing_vector
    assert verdict.trace is not None and verdict.trace.replay(g)
    assert game.batch_count == len(verdict.trace.batches) == 358_077
    assert elapsed < 10.0, f"reach_chip eulerian n=60, b=256: {elapsed:.1f}s >= 10s"


def test_reach_rotor_trace_eulerian_n60_128_bit_chips_within_wall_bound() -> None:
    # sorted rounds: 181,894 batches, measured 1.0-1.1 s; smallest
    # eligible first needed more than 3M batches from 32-bit chips on, so
    # the trace ran out of its default budget
    g, x, bound = _eulerian_pile(60, 128)
    ribbon = RibbonStructure.of(g)
    c1 = ChipRotorConfig(x, (0,) * g.n)
    game = bounded_rotor_game(ribbon, c1, bound)
    assert not any(game.final.chips[:-1])
    start = time.perf_counter()
    verdict = reach_rotor(g, ribbon, c1, game.final, trace=True)
    elapsed = time.perf_counter() - start
    assert (verdict.decision, verdict.reason) == ("YES", None)
    assert verdict.routing_vector == game.routing_vector
    assert verdict.trace is not None and verdict.trace.replay(ribbon)
    assert game.batch_count == len(verdict.trace.batches) == 181_894
    assert elapsed < 10.0, f"reach_rotor eulerian n=60, b=128: {elapsed:.1f}s >= 10s"


@pytest.mark.parametrize("recurrent", [is_recurrent, is_recurrent_via_reach])
def test_recurrence_on_the_chain_n16_within_memory_bound(recurrent) -> None:
    # two edges from i to i+1, one back: p(i) = 2^i and the game plays
    # 9,814 batches (9,813 through reach); counted, not kept, they peak at
    # about 5 KB, where one (v, k) tuple per batch peaked at 0.6-0.7 MB
    # (8.9 MB at n=20)
    n = 16
    g = DirectedMultigraph.from_edges(
        n, [(i, i + 1, 2) for i in range(n - 1)] + [(i + 1, i, 1) for i in range(n - 1)]
    )
    x = tuple([2 * d - 1 for d in g.out_degrees()])
    p = primitive_period_vector(g)
    assert bounded_chip_game(g, x, p, trace=False).batch_count == 9_814
    tracemalloc.start()
    try:
        assert recurrent(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e3, f"{recurrent.__name__} chain n=16: peak {peak / 1e3:.0f} KB"


def test_bounded_rotor_game_without_trace_eulerian_n60_within_memory_bound() -> None:
    # 16-bit chips: 23,108 batches; counted, not kept, they peak at about
    # 8 KB, where one (v, k) tuple per batch peaked at 2.0 MB
    g, x, bound = _eulerian_pile(60, 16)
    ribbon = RibbonStructure.of(g)
    c1 = ChipRotorConfig(x, (0,) * g.n)
    traced = bounded_rotor_game(ribbon, c1, bound)
    assert len(traced.trace.batches) == 23_108
    tracemalloc.start()
    try:
        game = bounded_rotor_game(ribbon, c1, bound, trace=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.trace is None
    assert (game.routing_vector, game.final) == (traced.routing_vector, traced.final)
    assert game.batch_count == 23_108
    assert peak < 50e3, f"bounded_rotor_game n=60, b=16: peak {peak / 1e3:.0f} KB"


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


def test_chip_case_stream_is_pinned() -> None:
    # the first 2,000 cases at seed 0, as the stream drew them when it took
    # its laplacian-image targets from the oracle's dense Laplacian
    digest = hashlib.sha256()
    for case in islice(chip_case_stream(0), 2000):
        digest.update(repr((case.graph, case.source, case.target, case.mode)).encode())
    assert digest.hexdigest() == "26215852daa4adcd1ef523df68a0b1b50ebf69a5c382fb01f838d7a76234b8af"


def test_rotor_case_stream_is_pinned() -> None:
    # the first 2,000 cases at seed 0, as the stream drew them when its
    # graphs were built from n x n rows
    digest = hashlib.sha256()
    for case in islice(rotor_case_stream(0), 2000):
        digest.update(repr((case.graph, case.ribbon, case.source, case.target, case.mode)).encode())
    assert digest.hexdigest() == "8d3124da4ee79e48ed7438ed1fec47fb05be54f68cdd99546de03e2b2fe0f537"


def test_strongly_connected_stream_is_pinned() -> None:
    # the first 2,000 draws at seed 0, graph runs included, as the stream
    # drew them when its graphs were built from n x n rows
    digest = hashlib.sha256()
    for g, chips in islice(strongly_connected_stream(0), 2000):
        digest.update(repr((g.adjacency(), chips)).encode())
    assert digest.hexdigest() == "a946b634070d337c92a345ed1c1961b7e7c2f0bd1a1df3b84fad4aeae7a2e41c"
