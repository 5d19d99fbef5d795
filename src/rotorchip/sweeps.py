"""Engine-versus-oracle sweeps backing the acceptance checks.

Each sweep draws seeded random cases, runs a decision procedure and its
independent ground truth, and reports counters plus verbatim failing
cases.  The acceptance tests and the ``oracle-check`` subcommand both
run these; a sweep passes only with zero failures.  A longer run of every
sweep, which exits 1 if any of them records a failure:

    rotorchip oracle-check --sweep all --count 10000 --seed 0
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random

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
from .multigraph import DirectedMultigraph, is_eulerian, is_strongly_connected
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


def _finish(report: SweepReport, started: float) -> SweepReport:
    report.elapsed = time.monotonic() - started
    return report


def run_rotor_reach_sweep(count: int, seed: int) -> SweepReport:
    """reach_rotor versus exhaustive BFS over legal routings."""
    report = SweepReport("rotor-reach")
    started = time.monotonic()
    stream = rotor_case_stream(seed)
    for _ in range(count):
        case = next(stream)
        verdict = rotorrouting.reach_rotor(
            case.graph, case.ribbon, case.source, case.target
        )
        try:
            expected = bruteforce.bfs_reach_rotor(
                case.ribbon, case.source, case.target, ORACLE_MAX_STATES
            )
        except BudgetExceededError:
            report.fail(f"oracle budget exceeded: {case}")
            report.total += 1
            continue
        report.total += 1
        report.count(f"mode-{case.mode}")
        report.count("yes" if expected else "no")
        if (verdict.decision == "YES") != expected:
            report.fail(
                f"decision {verdict.decision} vs oracle {expected}: {case}"
            )
            continue
        if verdict.decision == "YES":
            trace = verdict.trace
            if trace is None or not trace.replay(case.ribbon):
                report.fail(f"YES trace does not replay: {case}")
            elif trace.final != case.target:
                report.fail(f"YES trace misses the target: {case}")
    return _finish(report, started)


def run_chip_reach_sweep(count: int, seed: int) -> SweepReport:
    """reach_chip versus exhaustive BFS over legal firings."""
    report = SweepReport("chip-reach")
    started = time.monotonic()
    stream = chip_case_stream(seed)
    for _ in range(count):
        case = next(stream)
        verdict = chipfiring.reach_chip(case.graph, case.source, case.target)
        try:
            expected = bruteforce.bfs_reach_chip(
                case.graph, case.source, case.target, ORACLE_MAX_STATES
            )
        except BudgetExceededError:
            report.fail(f"oracle budget exceeded: {case}")
            report.total += 1
            continue
        report.total += 1
        report.count(f"mode-{case.mode}")
        report.count("yes" if expected else "no")
        if verdict.decision == "UNKNOWN":
            report.fail(f"engine budget exceeded: {case}")
            continue
        if (verdict.decision == "YES") != expected:
            report.fail(
                f"decision {verdict.decision} vs oracle {expected}: {case}"
            )
            continue
        if verdict.decision == "YES":
            trace = verdict.trace
            if trace is None or not trace.replay(case.graph):
                report.fail(f"YES trace does not replay: {case}")
            elif trace.final != case.target:
                report.fail(f"YES trace misses the target: {case}")
    return _finish(report, started)


def run_odometer_sweep(count: int, seed: int) -> SweepReport:
    """Obstruction-set odometer formula versus simulated bounded games."""
    report = SweepReport("odometer")
    started = time.monotonic()
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
        routed, _ = bruteforce.random_maximal_bounded_rotor_game(
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
    return _finish(report, started)


def run_abelian_sweep(count: int, seed: int) -> SweepReport:
    """Maximal bounded games are schedule-independent, chip and rotor."""
    report = SweepReport("abelian")
    started = time.monotonic()
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
        for fired, final in runs:
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
            routed, final = bruteforce.random_maximal_bounded_rotor_game(
                ribbon, case.source, rbound, Random(rng.getrandbits(64))
            )
            if routed != rengine.routing_vector or final != rengine.final:
                report.fail(
                    f"rotor schedules disagree: {routed}/{final} vs "
                    f"{rengine.routing_vector}/{rengine.final}: {case}"
                )
    return _finish(report, started)


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


def run_deletion_sweep(count: int, seed: int) -> SweepReport:
    """Deleting the first period's worth of firings or routings from a
    dominating legal sequence leaves a legal sequence with the same end."""
    report = SweepReport("deletion")
    started = time.monotonic()
    rng = Random(seed)
    graphs = strongly_connected_stream(seed ^ 0x64656C, mult_max=2)
    for i in range(count):
        g, _ = next(graphs)
        p = intlinalg.primitive_period_vector(g)
        degs = g.out_degrees()
        if i % 2 == 0:
            # chips p(v)*deg(v) let any order fire the full bound p
            x = tuple(p[v] * degs[v] for v in range(g.n))
            seq = list(
                _random_bounded_chip_sequence(g, x, p, Random(rng.getrandbits(64)))
            )
            seq += bruteforce.random_legal_chip_sequence(
                g, _after_firing(g, x, seq), rng.randint(0, 6), rng
            )
            report.total += 1
            if not chipfiring.validate_legal_firing_sequence(g, x, seq):
                report.fail(f"recorded chip sequence illegal: {g} {x} {seq}")
                continue
            fired = _count_vector(g.n, seq)
            if any(a < b for a, b in zip(fired, p)):
                report.fail(f"recorded chip sequence fails to dominate: {seq}")
                continue
            deleted = _delete_first(seq, p)
            if not chipfiring.validate_legal_firing_sequence(g, x, deleted):
                report.fail(f"deleted chip sequence illegal: {g} {x} {seq}")
            elif _after_firing(g, x, deleted) != _after_firing(g, x, seq):
                report.fail(f"deleted chip sequence changes the end: {seq}")
        else:
            ribbon = random_ribbon(g, rng)
            rper = tuple(p[v] * degs[v] for v in range(g.n))
            config = ChipRotorConfig(rper, _random_rotors(ribbon, rng))
            seq = list(
                _random_bounded_rotor_sequence(
                    ribbon, config, rper, Random(rng.getrandbits(64))
                )
            )
            cur = config
            for v in seq:
                cur = rotorrouting.route(ribbon, cur, v)
            for _ in range(rng.randint(0, 6)):
                legal = [
                    v
                    for v in range(g.n)
                    if rotorrouting.is_legal_route(ribbon, cur, v)
                ]
                if not legal:
                    break
                v = rng.choice(legal)
                cur = rotorrouting.route(ribbon, cur, v)
                seq.append(v)
            report.total += 1
            if not rotorrouting.validate_legal_routing_sequence(
                ribbon, config, seq
            ):
                report.fail(f"recorded rotor sequence illegal: {g} {seq}")
                continue
            odo = _count_vector(g.n, seq)
            if any(a < b for a, b in zip(odo, rper)):
                report.fail(f"recorded rotor sequence fails to dominate: {seq}")
                continue
            deleted = _delete_first(seq, rper)
            if not rotorrouting.validate_legal_routing_sequence(
                ribbon, config, deleted
            ):
                report.fail(f"deleted rotor sequence illegal: {g} {seq}")
    return _finish(report, started)


def _count_vector(n: int, seq) -> tuple[int, ...]:
    out = [0] * n
    for v in seq:
        out[v] += 1
    return tuple(out)


def _after_firing(g: DirectedMultigraph, x, seq):
    cur = tuple(x)
    for v in seq:
        cur = chipfiring.fire(g, cur, v)
    return cur


def _random_bounded_chip_sequence(g, x, bound, rng) -> tuple[int, ...]:
    adj = g.adjacency()
    degs = g.out_degrees()
    cur = list(x)
    left = list(bound)
    seq = []
    while True:
        legal = [
            v for v in range(g.n) if left[v] > 0 and degs[v] and cur[v] >= degs[v]
        ]
        if not legal:
            return tuple(seq)
        v = rng.choice(legal)
        cur[v] -= degs[v]
        for u, m in adj[v].edges:
            cur[u] += m
        left[v] -= 1
        seq.append(v)


def _random_bounded_rotor_sequence(ribbon, config, bound, rng) -> tuple[int, ...]:
    cur = config
    left = list(bound)
    seq = []
    while True:
        legal = [
            v
            for v in range(ribbon.n)
            if left[v] > 0 and rotorrouting.is_legal_route(ribbon, cur, v)
        ]
        if not legal:
            return tuple(seq)
        v = rng.choice(legal)
        cur = rotorrouting.route(ribbon, cur, v)
        left[v] -= 1
        seq.append(v)


def run_eulerian_sweep(count: int, seed: int) -> SweepReport:
    """Connected Eulerian graphs have the all-ones period and per = n."""
    report = SweepReport("eulerian")
    started = time.monotonic()
    rng = Random(seed)
    for _ in range(count):
        g = gen_graph("eulerian", rng.randint(2, 7), rng)
        report.total += 1
        if not (is_eulerian(g) and is_strongly_connected(g)):
            report.fail(f"generated graph not connected Eulerian: {g}")
            continue
        p = intlinalg.primitive_period_vector(g)
        basis = intlinalg.period_basis(g)
        if p != (1,) * g.n:
            report.fail(f"period vector {p} not all-ones: {g}")
        elif basis.per != g.n:
            report.fail(f"per {basis.per} != n={g.n}: {g}")
    return _finish(report, started)


def run_reduce_sweep(count: int, seed: int) -> SweepReport:
    """Exact solve and reduction laws on random graphs and vectors."""
    report = SweepReport("reduce")
    started = time.monotonic()
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
    return _finish(report, started)


def run_recurrence_sweep(count: int, seed: int) -> SweepReport:
    """Both recurrence procedures versus the BFS oracle, strongly connected."""
    report = SweepReport("recurrence")
    started = time.monotonic()
    stream = strongly_connected_stream(seed)
    for _ in range(count):
        g, chips = next(stream)
        direct = chipfiring.is_recurrent(g, chips)
        via_reach = chipfiring.is_recurrent_via_reach(g, chips)
        try:
            oracle = bruteforce.oracle_is_recurrent(
                g, chips, ORACLE_MAX_STATES
            )
        except BudgetExceededError:
            report.fail(f"oracle budget exceeded: {g} {chips}")
            report.total += 1
            continue
        report.total += 1
        report.count("recurrent" if oracle else "transient")
        if direct != oracle or via_reach != oracle:
            report.fail(
                f"direct {direct}, via-reach {via_reach}, oracle {oracle}: "
                f"{g} {chips}"
            )
    return _finish(report, started)


def run_halting_sweep(count: int, seed: int) -> SweepReport:
    """Halting verdicts carry checkable evidence either way."""
    report = SweepReport("halting")
    started = time.monotonic()
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
    return _finish(report, started)


SWEEPS = {
    "rotor-reach": run_rotor_reach_sweep,
    "chip-reach": run_chip_reach_sweep,
    "odometer": run_odometer_sweep,
    "abelian": run_abelian_sweep,
    "deletion": run_deletion_sweep,
    "eulerian": run_eulerian_sweep,
    "reduce": run_reduce_sweep,
    "recurrence": run_recurrence_sweep,
    "halting": run_halting_sweep,
}
