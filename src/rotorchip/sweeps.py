"""Engine-versus-oracle sweeps backing the acceptance checks.

Each sweep draws seeded random cases, runs a decision procedure and its
independent ground truth, and reports counters plus verbatim failing
cases.  ``_sweep`` registers each one in ``SWEEPS``, making and timing its
report; the two reach sweeps are one loop (``_reach_sweep``) over their
case streams, and every oracle search goes through ``_oracle``, which
fails a case whose search runs out of states.  The random games the
sweeps check are the oracle's; the engine plays its own bounded games
and replays the oracle's.  The acceptance tests and the
``oracle-check`` subcommand both run these; a sweep passes only with
zero failures.  A longer run of every sweep, which exits 1 if any of them
records a failure:

    rotorchip oracle-check --sweep all --count 10000 --seed 0
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import bruteforce, chipfiring, intlinalg, rotorrouting
from .errors import BudgetExceededError
from .generators import (
    _random_rotors,
    chip_case_stream,
    gen_graph,
    random_ribbon,
    rotor_case_stream,
    strongly_connected_stream,
)
from .multigraph import strongly_connected_balance
from .rotorrouting import ChipRotorConfig

ORACLE_MAX_STATES = 250_000


@dataclass
class SweepReport:
    name: str
    total: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, key: str, delta: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + delta

    def fail(self, detail: str) -> None:
        # keep a bounded number of verbatim cases; the count stays exact
        if len(self.failures) < 20:
            self.failures.append(detail)
        self.count("failures")

    def summary(self) -> str:
        parts = [f"sweep={self.name}", f"total={self.total}"]
        parts += [f"{k}={v}" for k, v in sorted(self.counters.items())]
        parts.append(f"elapsed={self.elapsed:.1f}s")
        parts.append(f"ok={'yes' if self.ok else 'no'}")
        return " ".join(parts)


SWEEPS: dict[str, Callable[[int, int], SweepReport]] = {}


def _sweep(name: str):
    """Register a sweep body as ``SWEEPS[name](count, seed) -> SweepReport``.

    The body fills the report it is given; the registered function makes
    the report, times the body and returns the report.  Sweeps register
    in the order they run under ``--sweep all``.
    """

    def register(body: Callable[[SweepReport, int, int], None]):
        def run(count: int, seed: int) -> SweepReport:
            report = SweepReport(name)
            started = time.monotonic()
            body(report, count, seed)
            report.elapsed = time.monotonic() - started
            return report

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        SWEEPS[name] = run
        return run

    return register


def _oracle(report: SweepReport, search, args: tuple, *case) -> bool | None:
    """``search(*args)`` within ORACLE_MAX_STATES states, or None once the
    case is failed: a desk-scale case must not exhaust the oracle."""
    try:
        return search(*args, ORACLE_MAX_STATES)
    except BudgetExceededError:
        report.fail(f"oracle budget exceeded: {' '.join(map(str, case))}")
        return None


def _reach_sweep(report: SweepReport, cases, count: int, decide, search, board) -> None:
    """The engine's reach decision against the BFS oracle on ``count`` cases.

    ``decide(case)`` is the engine's verdict and ``search`` the oracle;
    ``board(case)`` is what the oracle searches and a YES trace replays
    on, the graph for chips and the ribbon for rotors.  A YES must carry
    a trace that replays and ends at the target.
    """
    for _ in range(count):
        case = next(cases)
        verdict = decide(case)
        report.total += 1
        expected = _oracle(report, search, (board(case), case.source, case.target), case)
        if expected is None:
            continue
        report.count(f"mode-{case.mode}")
        report.count("yes" if expected else "no")
        if verdict.decision == "UNKNOWN":
            report.fail(f"engine budget exceeded: {case}")
        elif (verdict.decision == "YES") != expected:
            report.fail(f"decision {verdict.decision} vs oracle {expected}: {case}")
        elif verdict.decision == "YES":
            trace = verdict.trace
            if trace is None or not trace.replay(board(case)):
                report.fail(f"YES trace does not replay: {case}")
            elif trace.final != case.target:
                report.fail(f"YES trace misses the target: {case}")


@_sweep("rotor-reach")
def run_rotor_reach_sweep(report: SweepReport, count: int, seed: int) -> None:
    """reach_rotor versus exhaustive BFS over legal routings."""
    _reach_sweep(
        report, rotor_case_stream(seed), count,
        decide=lambda c: rotorrouting.reach_rotor(c.graph, c.ribbon, c.source, c.target),
        search=bruteforce.bfs_reach_rotor, board=lambda c: c.ribbon,
    )


@_sweep("chip-reach")
def run_chip_reach_sweep(report: SweepReport, count: int, seed: int) -> None:
    """reach_chip versus exhaustive BFS over legal firings."""
    _reach_sweep(
        report, chip_case_stream(seed), count,
        decide=lambda c: chipfiring.reach_chip(c.graph, c.source, c.target),
        search=bruteforce.bfs_reach_chip, board=lambda c: c.graph,
    )


@_sweep("odometer")
def run_odometer_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Obstruction-set odometer formula versus simulated bounded games."""
    stream = rotor_case_stream(seed)
    rng = Random(seed ^ 0x6F646F6D)
    for _ in range(count):
        case = next(stream)
        ribbon = case.ribbon
        r = tuple(
            0 if ribbon.is_sink(v) else rng.randint(0, 6)
            for v in range(ribbon.n)
        )
        formula = rotorrouting.odometer_equals_bound(ribbon, case.source, r)
        engine = rotorrouting.bounded_rotor_game(ribbon, case.source, r)
        simulated = engine.routing_vector == r
        routed, _, _ = bruteforce.random_maximal_bounded_rotor_game(
            ribbon, case.source, r, Random(rng.getrandbits(64))
        )
        randomized = routed == r
        report.total += 1
        report.count("full" if simulated else "partial")
        if formula != simulated or simulated != randomized:
            report.fail(
                f"formula {formula}, greedy {simulated}, random {randomized}: "
                f"r={r} {case}"
            )


@_sweep("abelian")
def run_abelian_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Maximal bounded games are schedule-independent, chip and rotor."""
    stream = rotor_case_stream(seed)
    rng = Random(seed ^ 0x6162656C)
    for _ in range(count):
        case = next(stream)
        g, ribbon = case.graph, case.ribbon
        chips = case.source.chips
        bound = tuple(rng.randint(0, 5) for _ in range(g.n))
        engine = chipfiring.bounded_chip_game(g, chips, bound)
        runs = [
            bruteforce.random_maximal_bounded_chip_game(
                g, chips, bound, Random(rng.getrandbits(64))
            )
            for _ in range(2)
        ]
        report.total += 1
        for fired, final, _ in runs:
            if fired != engine.firing_vector or final != engine.final:
                report.fail(
                    f"chip schedules disagree: {fired}/{final} vs "
                    f"{engine.firing_vector}/{engine.final}: {case}"
                )
        rbound = tuple(
            0 if ribbon.is_sink(v) else rng.randint(0, 5) for v in range(g.n)
        )
        rengine = rotorrouting.bounded_rotor_game(ribbon, case.source, rbound)
        for _ in range(2):
            routed, final, _ = bruteforce.random_maximal_bounded_rotor_game(
                ribbon, case.source, rbound, Random(rng.getrandbits(64))
            )
            if routed != rengine.routing_vector or final != rengine.final:
                report.fail(
                    f"rotor schedules disagree: {routed}/{final} vs "
                    f"{rengine.routing_vector}/{rengine.final}: {case}"
                )


def _delete_first(seq, quota) -> tuple[int, ...]:
    """Drop the first quota(v) occurrences of each v from seq."""
    left = list(quota)
    out = []
    for v in seq:
        if left[v] > 0:
            left[v] -= 1
        else:
            out.append(v)
    return tuple(out)


@_sweep("deletion")
def run_deletion_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Deleting the first period's worth of firings or routings from a
    dominating legal sequence leaves a legal sequence with the same end.

    The oracle draws each sequence: a random maximal game bounded by the
    period, then a random legal extension.  The engine's trace replay
    must end where the oracle's game did, and gives the act counts.
    ``appended`` counts the acts drawn past the bounded game and
    ``deleted`` the acts taken out.
    """
    rng = Random(seed)
    graphs = strongly_connected_stream(seed ^ 0x64656C, mult_max=2)
    for i in range(count):
        g, _ = next(graphs)
        p = intlinalg.primitive_period_vector(g)
        degs = g.out_degrees()
        if i % 2 == 0:
            # chips p(v)*deg(v) let any order fire the full bound p
            game, replay, board, period = "chip", chipfiring._replay, g, p
            start = tuple(p[v] * degs[v] for v in range(g.n))
            bounded = bruteforce.random_maximal_bounded_chip_game
        else:
            game, replay = "rotor", rotorrouting._replay
            board = random_ribbon(g, rng)
            period = tuple(p[v] * degs[v] for v in range(g.n))
            start = ChipRotorConfig(period, _random_rotors(board, rng))
            bounded = bruteforce.random_maximal_bounded_rotor_game
        _, after, first = bounded(board, start, period, Random(rng.getrandbits(64)))
        _, end, appended = bruteforce.random_legal_sequence(board, after, rng.randint(0, 6), rng)
        seq = first + appended
        report.total += 1
        report.count("appended", len(appended))
        played = replay(board, start, [(v, 1) for v in seq])
        if played is None:
            report.fail(f"recorded {game} sequence illegal: {g} {start} {seq}")
            continue
        if played[0] != end:
            report.fail(f"replayed {game} sequence ends at {played[0]}, oracle at {end}: {seq}")
            continue
        if any(a < b for a, b in zip(played[1], period)):
            report.fail(f"recorded {game} sequence fails to dominate: {seq}")
            continue
        deleted = _delete_first(seq, period)
        report.count("deleted", len(seq) - len(deleted))
        kept = replay(board, start, [(v, 1) for v in deleted])
        if kept is None:
            report.fail(f"deleted {game} sequence illegal: {g} {start} {seq}")
        elif kept[0] != end:
            report.fail(f"deleted {game} sequence changes the end: {seq}")


@_sweep("eulerian")
def run_eulerian_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Connected Eulerian graphs have the all-ones period and per = n."""
    rng = Random(seed)
    for _ in range(count):
        g = gen_graph("eulerian", rng.randint(2, 7), rng)
        report.total += 1
        if strongly_connected_balance(g) is not True:
            report.fail(f"generated graph not connected Eulerian: {g}")
            continue
        p = intlinalg.primitive_period_vector(g)
        basis = intlinalg.period_basis(g)
        if p != (1,) * g.n:
            report.fail(f"period vector {p} not all-ones: {g}")
        elif basis.per != g.n:
            report.fail(f"per {basis.per} != n={g.n}: {g}")


@_sweep("reduce")
def run_reduce_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Exact solve and reduction laws on random graphs and vectors."""
    stream = chip_case_stream(seed)
    rng = Random(seed ^ 0x72656475)
    for _ in range(count):
        g = next(stream).graph
        lap = bruteforce.laplacian(g)
        basis = intlinalg.period_basis(g)
        f = tuple(rng.randint(0, 6) for _ in range(g.n))
        reduced = intlinalg.reduce_vector(g, f)
        report.total += 1
        if intlinalg.reduce_vector(g, reduced) != reduced:
            report.fail(f"reduce not idempotent on {f}: {g}")
            continue
        shift = [0] * g.n
        for vec in basis.kernel_vectors():
            lam = rng.randint(0, 3)
            for v in range(g.n):
                shift[v] += lam * vec[v]
        shifted = tuple(a + b for a, b in zip(f, shift))
        if intlinalg.reduce_vector(g, shifted) != reduced:
            report.fail(f"reduce not shift-invariant on {f}+{shift}: {g}")
            continue
        d = tuple(
            sum(lap[u][v] * f[v] for v in range(g.n)) for u in range(g.n)
        )
        sol = intlinalg.nonneg_reduced_solution(g, d)
        if sol is None:
            report.fail(f"solvable system reported unsolvable: d={d} {g}")
            continue
        image = tuple(
            sum(lap[u][v] * sol[v] for v in range(g.n)) for u in range(g.n)
        )
        if image != d:
            report.fail(f"solution does not satisfy the system: d={d} {g}")
        elif not intlinalg.is_reduced(g, sol):
            report.fail(f"solution not reduced: {sol} {g}")
        elif sol != reduced:
            report.fail(f"solution {sol} differs from reduce {reduced}: {g}")


@_sweep("recurrence")
def run_recurrence_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Both recurrence procedures versus the BFS oracle, strongly connected."""
    stream = strongly_connected_stream(seed)
    for _ in range(count):
        g, chips = next(stream)
        direct = chipfiring.is_recurrent(g, chips)
        via_reach = chipfiring.is_recurrent_via_reach(g, chips)
        report.total += 1
        oracle = _oracle(report, bruteforce.oracle_is_recurrent, (g, chips), g, chips)
        if oracle is None:
            continue
        report.count("recurrent" if oracle else "transient")
        if direct != oracle or via_reach != oracle:
            report.fail(
                f"direct {direct}, via-reach {via_reach}, oracle {oracle}: "
                f"{g} {chips}"
            )


@_sweep("halting")
def run_halting_sweep(report: SweepReport, count: int, seed: int) -> None:
    """Halting verdicts carry checkable evidence either way."""
    stream = strongly_connected_stream(seed)
    for _ in range(count):
        g, chips = next(stream)
        verdict = chipfiring.halts(g, chips, max_steps=50_000)
        report.total += 1
        report.count(verdict.kind)
        if verdict.kind == "halts":
            final = verdict.final
            if any(
                final[v] >= g.out_degree(v) for v in range(g.n) if g.out_degree(v)
            ):
                report.fail(f"halted but not stable: {final} {g}")
        elif verdict.kind == "non-halting":
            if not chipfiring.verify_nonhalting_certificate(
                g, chips, verdict.certificate
            ):
                report.fail(
                    f"certificate rejected: {verdict.certificate} from {chips} {g}"
                )
        else:
            report.fail(f"budget exceeded on desk-scale instance: {chips} {g}")

