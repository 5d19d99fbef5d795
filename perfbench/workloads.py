"""The three benchmark workloads: seeded inputs, timed calls and their checks.

Each query is one decision-procedure call.  ``Query.call`` is the only code
inside the timed region; ``Query.check`` runs afterwards on its output and
raises ``CheckFailed`` when the output is wrong.  Calls look the program's
functions up at call time (``cli.run_command``, ``chipfiring.halts``), so
the traced run sees them through its wrappers.

The graphs of ``solve-mid`` and ``game-large`` are a fixed suite, the same
for every seed; the seed draws the configurations, targets and bounds.
Exact-solve cost is heavy-tailed across random graphs of one size: over 30
random Eulerian graphs at n=24 it ran from 73 ms to 3.5 s on a 2-core Xeon
KVM guest.  A seeded graph suite would move every end-to-end metric by more
than any regression bound.  ``desk-many`` draws everything from the seed:
its thousands of tiny cases average out.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from rotorchip import bruteforce, chipfiring, cli, generators, rotorrouting
from rotorchip.instancefile import Instance, serialize_instance
from rotorchip.rotorrouting import ChipRotorConfig

from checks import (
    apply_laplacian,
    check_certificate,
    check_firing_identity,
    check_odometer,
    check_stable,
    cli_lines,
    fire_legally,
    greedy_approach,
    out_degrees,
    parse_batches,
    parse_vector,
    replay_chip_batches,
    replay_rotor_batches,
    require,
    route_steps,
)

WORKLOADS = ("solve-mid", "game-large", "desk-many")

# per scale: solve-mid sizes and graphs per (family, size); game-large sizes
# and graphs per size; desk-many cases per procedure
SCALES = {
    "full": {
        "solve_sizes": (12, 16, 20, 24),
        "solve_replicas": 3,
        "game_sizes": (100, 120, 140),
        "game_replicas": 3,
        "desk_cases": 2500,
    },
    "tiny": {
        "solve_sizes": (4, 6),
        "solve_replicas": 1,
        "game_sizes": (8, 10),
        "game_replicas": 1,
        "desk_cases": 25,
    },
}

SOLVE_FAMILIES = ("strongly-connected", "eulerian", "heavy-multiplicity")
CHIP_HALTING_FIRING_LIMIT = 200_000
CYCLING_DRAWS = 20
# per game-large graph: 2 halting and 4 cycling chip-halting starts and 6
# rotor-odom draws, so 9 graphs give the 100-plus queries a p90 needs
ODOMETER_QUERIES = 6


@dataclass
class Query:
    kind: str
    graph: object  # hashable identity of the query's graph
    call: Callable[[], object]
    check: Callable[[object], None]


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_command(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _suite_graph(family: str, n: int, k: int):
    rng = Random(f"perfbench/{family}/{n}/{k}")
    g = generators.gen_graph(family, n, rng)
    return g, generators.random_ribbon(g, rng)


def _random_rotors(degs, rng: Random) -> tuple:
    return tuple(rng.randrange(d) if d else None for d in degs)


def _write(workdir: Path, name: str, g, ribbon, configs) -> str:
    path = workdir / f"{name}.rcg"
    path.write_text(serialize_instance(Instance(g, ribbon, configs)), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# solve-mid: exact Laplacian solves behind chip-reach, rotor-reach, lin-equiv


def _chip_rollout(mult, degs, x, rng: Random, steps: int) -> tuple[int, ...]:
    cur = list(x)
    for _ in range(steps):
        legal = [v for v in range(len(cur)) if degs[v] and cur[v] >= degs[v]]
        if not legal:
            break
        fire_legally(mult, degs, cur, rng.choice(legal), 1)
    return tuple(cur)


def _rotor_rollout(runs, degs, source, rng: Random, steps: int):
    chips, rotors = list(source[0]), list(source[1])
    for _ in range(steps):
        legal = [v for v in range(len(chips)) if degs[v] and chips[v] > 0]
        if not legal:
            break
        v = rng.choice(legal)
        route_steps(runs[v], degs[v], chips, rotors, v, 1)
    return ChipRotorConfig(tuple(chips), tuple(rotors))


def _check_chip_reach_yes(mult, x, y):
    def check(output):
        head, trace = cli_lines(output, 2)
        require(head.get("decision") == "YES", f"decision {head.get('decision')}")
        f = parse_vector(head["f"])
        final, fired = replay_chip_batches(mult, x, parse_batches(trace["trace"]))
        require(final == tuple(y), "trace does not end at the target")
        require(fired == f, "trace fires a different vector than f")

    return check


def _check_rotor_reach_yes(runs, source, target):
    def check(output):
        head, trace = cli_lines(output, 2)
        require(head.get("decision") == "YES", f"decision {head.get('decision')}")
        r = parse_vector(head["r"])
        final, routed = replay_rotor_batches(runs, source, parse_batches(trace["trace"]))
        require(final == (tuple(target[0]), tuple(target[1])), "trace misses the target")
        require(routed == r, "trace routes a different vector than r")

    return check


def _check_chip_reach_no(output):
    (head,) = cli_lines(output, 1)
    require(head.get("decision") == "NO", f"decision {head.get('decision')}")


def _check_lin_equiv_yes(mult, x, y):
    def check(output):
        (head,) = cli_lines(output, 1)
        require(head.get("equivalent") == "yes", f"equivalent={head.get('equivalent')}")
        check_firing_identity(mult, x, y, parse_vector(head["f"]))

    return check


def build_solve_mid(seed: int, workdir: Path, scale: dict) -> list[Query]:
    rng = Random(seed)
    queries = []
    for family in SOLVE_FAMILIES:
        for n in scale["solve_sizes"]:
            for k in range(scale["solve_replicas"]):
                g, ribbon = _suite_graph(family, n, k)
                mult, runs, degs = g.mult, ribbon.runs, out_degrees(g.mult)
                x = tuple(d + rng.randrange(d + 1) for d in degs)
                y = _chip_rollout(mult, degs, x, rng, 3 * n)
                bad = list(y)
                bad[rng.randrange(n)] += 1
                rotors = _random_rotors(degs, rng)
                rsrc = ChipRotorConfig(tuple(rng.randint(1, 3) for _ in degs), rotors)
                rdst = _rotor_rollout(runs, degs, rsrc, rng, 3 * n)
                path = _write(workdir, f"solve-{family}-{n}-{k}", g, ribbon, {
                    "csrc": ChipRotorConfig(x, rotors),
                    "cdst": ChipRotorConfig(y, rotors),
                    "cbad": ChipRotorConfig(tuple(bad), rotors),
                    "rsrc": rsrc,
                    "rdst": rdst,
                })
                key = (family, n, k)
                queries += [
                    Query("chip-reach-yes", key, _cli_call(
                        ["chip-reach", "--trace", "--source", "csrc", "--target", "cdst", path]
                    ), _check_chip_reach_yes(mult, x, y)),
                    Query("rotor-reach-yes", key, _cli_call(
                        ["rotor-reach", "--trace", "--source", "rsrc", "--target", "rdst", path]
                    ), _check_rotor_reach_yes(runs, rsrc, rdst)),
                    Query("chip-reach-no", key, _cli_call(
                        ["chip-reach", "--source", "csrc", "--target", "cbad", path]
                    ), _check_chip_reach_no),
                    Query("lin-equiv", key, _cli_call(
                        ["lin-equiv", "--source", "csrc", "--target", "cdst", path]
                    ), _check_lin_equiv_yes(mult, x, y)),
                ]
    return queries


# ---------------------------------------------------------------------------
# game-large: halting and bounded rotor games on large Eulerian digraphs


def _check_chip_halting(mult, x):
    def check(output):
        (head,) = cli_lines(output, 1)
        status = head.get("status")
        if status == "halts":
            final = parse_vector(head["final"])
            check_firing_identity(mult, x, final, parse_vector(head["f"]))
            check_stable(mult, final)
        else:
            require(status == "non-halting", f"status={status}")
            check_certificate(
                mult, x, parse_vector(head["certificate"]), CHIP_HALTING_FIRING_LIMIT
            )

    return check


def _check_rotor_odom(runs, source, bound):
    def check(output):
        (head,) = cli_lines(output, 1)
        check_odometer(
            runs,
            source,
            bound,
            parse_vector(head["odometer"]),
            parse_vector(head["chips"]),
            parse_vector(head["rotors"]),
        )

    return check


def _halting_start(degs, rng: Random) -> tuple[int, ...]:
    """A half-full background plus five piles: the avalanche dies out."""
    x = [rng.randint(0, (d - 1) // 2) for d in degs]
    for v in rng.sample(range(len(degs)), min(5, len(degs))):
        x[v] += 3 * degs[v]
    return tuple(x)


def _cycling_starts(mult, degs, rng: Random) -> list[tuple[int, ...]]:
    """Starts three to six periods ahead of the greedy game's orbit.

    One to five chips above the largest stable total, so the game never
    halts.  From such a start the greedy game takes thousands of firings to
    reach its orbit, which repeats every n firings; starting a fixed number
    of periods ahead of the orbit plays a transient but keeps each query to
    tens of milliseconds.  Chip placements whose transient is shorter than
    six periods are drawn again, so that every seed pays the same number of
    firings.
    """
    n = len(degs)
    leads = (3 * n, 4 * n, 5 * n, 6 * n)
    for _ in range(CYCLING_DRAWS):
        x = [d - 1 for d in degs]
        for v in rng.sample(range(n), rng.randint(1, min(5, n))):
            x[v] += 1
        starts, transient = greedy_approach(mult, x, leads, CHIP_HALTING_FIRING_LIMIT)
        if transient >= max(leads):
            break
    return starts


def _config_text(config: ChipRotorConfig) -> str:
    """The unnamed configuration block of an instance file."""
    lines = ["chips " + " ".join(map(str, config.chips))]
    lines += [f"rotor {v} {pos}" for v, pos in enumerate(config.rotors) if pos is not None]
    return "\n".join(lines) + "\n"


def build_game_large(seed: int, workdir: Path, scale: dict) -> list[Query]:
    """One instance file per query, so each parse reads one configuration."""
    rng = Random(seed)
    queries = []
    for n in scale["game_sizes"]:
        for k in range(scale["game_replicas"]):
            g, ribbon = _suite_graph("eulerian", n, k)
            mult, runs, degs = g.mult, ribbon.runs, out_degrees(g.mult)
            base = serialize_instance(Instance(g, ribbon, {}))
            key = ("eulerian", n, k)
            halting = [_halting_start(degs, rng) for _ in range(2)]
            cycling = _cycling_starts(mult, degs, rng)
            for i, x in enumerate(halting + cycling):
                config = ChipRotorConfig(x, _random_rotors(degs, rng))
                path = workdir / f"game-{n}-{k}-h{i}.rcg"
                path.write_text(base + _config_text(config), encoding="utf-8")
                queries.append(Query(
                    "chip-halting" if i < len(halting) else "chip-halting-cycling",
                    key,
                    _cli_call(["chip-halting", str(path)]),
                    _check_chip_halting(mult, x),
                ))
            for i in range(ODOMETER_QUERIES):
                # six to fourteen turns' worth of chips against a bound of
                # ten turns: about half the vertices wait for inflow
                chips = tuple(rng.randint(6 * d, 14 * d) for d in degs)
                source = ChipRotorConfig(chips, _random_rotors(degs, rng))
                bound = tuple(10 * d + rng.randrange(d) for d in degs)
                path = workdir / f"game-{n}-{k}-o{i}.rcg"
                path.write_text(base + _config_text(source), encoding="utf-8")
                queries.append(Query(
                    "rotor-odom",
                    key,
                    _cli_call(["rotor-odom", "--r", ",".join(map(str, bound)), str(path)]),
                    _check_rotor_odom(runs, source, bound),
                ))
    return queries


# ---------------------------------------------------------------------------
# desk-many: thousands of library calls at n <= 4 against the BFS oracles


def _check_reach_chip(g, x, y):
    def check(verdict):
        expected = "YES" if bruteforce.bfs_reach_chip(g, x, y) else "NO"
        require(verdict.decision == expected, f"{verdict.decision}, oracle {expected}")
        if expected == "YES":
            t = verdict.trace
            require(t is not None, "YES without a trace")
            require(t.initial == tuple(x) and t.final == tuple(y), "trace endpoints")
            require(t.replay(g), "trace replay rejected")

    return check


def _check_reach_rotor(ribbon, c1, c2):
    def check(verdict):
        expected = "YES" if bruteforce.bfs_reach_rotor(ribbon, c1, c2) else "NO"
        require(verdict.decision == expected, f"{verdict.decision}, oracle {expected}")
        if expected == "YES":
            t = verdict.trace
            require(t is not None, "YES without a trace")
            require(t.initial == c1 and t.final == c2, "trace endpoints")
            require(t.replay(ribbon), "trace replay rejected")

    return check


def _check_is_recurrent(g, x):
    def check(result):
        expected = bruteforce.oracle_is_recurrent(g, x)
        require(result == expected, f"recurrent={result}, oracle {expected}")

    return check


def _check_halts(g, x):
    def check(verdict):
        if verdict.kind == "halts":
            check_firing_identity(g.mult, x, verdict.final, verdict.firing_vector)
            check_stable(g.mult, verdict.final)
            return
        require(verdict.kind == "non-halting", f"kind={verdict.kind}")
        c = verdict.certificate
        check_firing_identity(g.mult, x, c, verdict.witness_to_certificate)
        loop = verdict.witness_cycle
        require(any(loop), "empty witness cycle")
        require(apply_laplacian(g.mult, c, loop) == tuple(c), "cycle outside kernel")
        require(bruteforce.oracle_is_recurrent(g, c), "oracle: certificate not recurrent")

    return check


def build_desk_many(seed: int, workdir: Path, scale: dict) -> list[Query]:
    count = scale["desk_cases"]
    queries = []
    chip_cases = generators.chip_case_stream(seed)
    for _ in range(count):
        c = next(chip_cases)
        queries.append(Query(
            "reach_chip", c.graph.mult,
            lambda g=c.graph, x=c.source, y=c.target: chipfiring.reach_chip(g, x, y),
            _check_reach_chip(c.graph, c.source, c.target),
        ))
    rotor_cases = generators.rotor_case_stream(seed + 1)
    for _ in range(count):
        c = next(rotor_cases)
        queries.append(Query(
            "reach_rotor", c.graph.mult,
            lambda g=c.graph, rb=c.ribbon, a=c.source, b=c.target:
                rotorrouting.reach_rotor(g, rb, a, b),
            _check_reach_rotor(c.ribbon, c.source, c.target),
        ))
    recurrence = generators.strongly_connected_stream(seed + 2)
    for _ in range(count):
        g, x = next(recurrence)
        queries.append(Query(
            "is_recurrent", g.mult,
            lambda g=g, x=x: chipfiring.is_recurrent(g, x),
            _check_is_recurrent(g, x),
        ))
    halting = generators.strongly_connected_stream(seed + 3)
    for _ in range(count):
        g, x = next(halting)
        queries.append(Query(
            "halts", g.mult,
            lambda g=g, x=x: chipfiring.halts(g, x),
            _check_halts(g, x),
        ))
    return queries


_BUILD_FUNCTIONS = {
    "solve-mid": build_solve_mid,
    "game-large": build_game_large,
    "desk-many": build_desk_many,
}


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> list[Query]:
    return _BUILD_FUNCTIONS[name](seed, workdir, SCALES[scale])
