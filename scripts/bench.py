"""Time the CLI, the instance parser and the succinct rotor map.

Runs the sections named on the command line, or all three, each on
seeded instances of every family at each of its sizes:

cli       The median ``run_command`` time of each subcommand that reads an
          instance, on a file with a source configuration and a target
          reached by whole rotor turns; the median ``parse_args`` time of
          that call on the shared parser, and its share of the call; the
          time of the one parser build, which ``run_command`` makes once
          per process.  Then ``--calls`` calls in a round robin, after
          which it prints the full garbage collections run and the tuple
          free lists that ``sys._debugmallocstats()`` reports (CPython
          only); a free list keeps up to 2,000 tuples of its size until a
          full collection empties it.
parse     Per spelling, as ``serialize_instance`` writes it (ribbon lines
          only), with the ``edge`` lines older files carry, and, as
          ``configs``, serialized with four more named configurations,
          each with a rotor line per non-sink vertex (the shape of a file
          that ``chip-reach`` and ``rotor-reach`` read): line count, file
          size, the share of ribbon run tokens that repeat an earlier one
          (the parser converts and checks each distinct one once), the
          median time per ``parse_instance`` call and the ``tracemalloc``
          peak of one parse.  Both should be linear in the file: the parsed
          graph keeps the ribbon's runs, and no n x n matrix.  The repeats
          run round robin over all rows, so a slow stretch of the machine
          does not move one row alone.
succinct  ``pi_r`` with a full-turn routing vector on two-run ribbons whose
          multiplicities grow geometrically.  The closed form touches each
          run once, so its time should track the multiplicity's bit length,
          not its magnitude; step simulation cross-checks the small ones.

Exits 1 when a timed CLI call exits nonzero (printing its argv, exit
code and stderr), when a parse does not round-trip, or when the closed
form or the simulation disagrees.

    python3 scripts/bench.py
    python3 scripts/bench.py cli --cli-sizes 12,24 --repeats 21 --calls 5000
    python3 scripts/bench.py parse --parse-sizes 50,140 --seed 3
    python3 scripts/bench.py succinct --max-exponent 60
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import re
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from rotorchip.cli import build_parser, run_command
from rotorchip.generators import gen_instance
from rotorchip.instancefile import Instance, parse_instance, serialize_instance
from rotorchip.multigraph import head_totals
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure, pi_r, route

FAMILIES = ("eulerian", "strongly-connected", "heavy-multiplicity")
SIMULATION_CUTOFF = 10 ** 6

_FREE_TUPLES = re.compile(
    r"([\d,]+) free (\d+)-sized PyTupleObjects \* (\d+) bytes each"
)


def round_robin_medians(calls: list, repeats: int) -> list[float]:
    """Each call's median time over ``repeats`` rounds, each call after a full collection.

    Every round times each call once, starting one call later than the
    round before, so a slow stretch of a shared machine spreads over all
    calls instead of falling on one call's repeats.  Collecting outside
    the timed region keeps the garbage of earlier calls from triggering a
    collection inside a later one.
    """
    times: list[list[float]] = [[] for _ in calls]
    for start in range(repeats):
        for i in range(start, start + len(calls)):
            i %= len(calls)
            gc.collect()
            t0 = time.perf_counter()
            calls[i]()
            times[i].append(time.perf_counter() - t0)
    return [statistics.median(t) for t in times]


def median_seconds(call, repeats: int) -> float:
    """The median time of ``repeats`` calls, each after a full collection."""
    return round_robin_medians([call], repeats)[0]


def instances(sizes: list[int], seed: int):
    """(family, n, instance) for each family and size, seeded alike.

    A size the family refuses (the dense ones are capped) is skipped
    with the generator's message.
    """
    for family in FAMILIES:
        for n in sizes:
            try:
                instance = gen_instance(family, n, seed)
            except ValueError as exc:
                print(f"skipped: {exc}")
                continue
            yield family, n, instance


def table(section: str, *columns: tuple[str, int, str]):
    """Print the section's header and its columns' titles; return a row printer.

    Each column is (title, width, format spec of its values).
    """
    print(f"[{section}]")
    print(" ".join(f"{title:>{width}}" for title, width, _ in columns))

    def row(*values) -> None:
        print(" ".join(
            f"{value:>{width}{spec}}" for value, (_, width, spec) in zip(values, columns)
        ))

    return row


def commands(family: str, n: int, seed: int, instance: Instance,
             workdir: Path) -> dict[str, list[str]]:
    """Write the instance with configurations src and dst; argv per command."""
    rng = Random(f"{family}/{n}/{seed}")
    src = instance.single_config()
    r = tuple([d * rng.randint(0, 1) for d in instance.ribbon.degrees])
    configs = {"src": src, "dst": pi_r(instance.ribbon, src, r)}
    path = workdir / f"{family}-{n}.rcg"
    path.write_text(
        serialize_instance(Instance(instance.graph, instance.ribbon, configs)),
        encoding="utf-8",
    )
    p, r = str(path), ",".join(map(str, r))
    return {
        "period": ["period", p],
        "scc": ["scc", p],
        "chip-reach": ["chip-reach", p, "--trace"],
        "chip-recurrent": ["chip-recurrent", p, "--config", "src",
                           "--budget-steps", "10000"],
        "chip-halting": ["chip-halting", p, "--config", "src",
                         "--budget-steps", "10000"],
        "lin-equiv": ["lin-equiv", p],
        "rotor-route": ["rotor-route", p, "--config", "src", "--r", r],
        "rotor-odom": ["rotor-odom", p, "--config", "src", "--r", r],
        "rotor-unconstrained": ["rotor-unconstrained", p],
        "rotor-reach": ["rotor-reach", p],
        "rotor-reach --trace": ["rotor-reach", p, "--trace"],
    }


def quiet_call(argv: list[str]) -> tuple[int, str]:
    """``run_command``'s exit code and stderr; its stdout is dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        return run_command(argv), err.getvalue()


def free_tuples() -> list[tuple[int, int, int]]:
    """(size, count, bytes) of each nonempty tuple free list.

    ``sys._debugmallocstats`` writes to the C-level stderr, so file
    descriptor 2 is pointed at a temporary file around the call.
    """
    sys.stderr.flush()
    saved = os.dup(2)
    with tempfile.TemporaryFile(mode="w+") as tmp:
        os.dup2(tmp.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        tmp.seek(0)
        text = tmp.read()
    found = []
    for count, size, each in _FREE_TUPLES.findall(text):
        count = int(count.replace(",", ""))
        if count:
            found.append((int(size), count, count * int(each)))
    return found


def cli_section(args):
    row = table(
        "cli", ("family", 18, ""), ("n", 3, ""), ("command", 20, ""),
        ("exit", 4, ""), ("ms/call", 8, ".3f"), ("parse ms", 8, ".3f"),
        ("parse %", 7, ""),
    )
    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            (family, n, commands(family, n, args.seed, instance, Path(tmp)))
            for family, n, instance in instances(args.cli_sizes, args.seed)
        ]
        parser = build_parser()
        for family, n, argvs in cases:
            for label, argv in argvs.items():
                code, err = quiet_call(argv)
                if code:
                    yield f"exit {code} from {' '.join(argv)}: {err.strip()}"
                call_s = median_seconds(lambda: quiet_call(argv), args.repeats)
                try:
                    parse_s = median_seconds(lambda: parser.parse_args(argv), args.repeats)
                except SystemExit:  # argparse refused argv; the failure says why
                    parse_s = float("nan")
                row(family, n, label, code, call_s * 1e3, parse_s * 1e3,
                    f"{100 * parse_s / call_s:.1f}%")
        # __wrapped__ is build_parser without its cache
        build_s = median_seconds(build_parser.__wrapped__, args.repeats)
        print(f"one build of the parser (all 13 subcommands): {build_s * 1e3:.3f} ms")

        if not hasattr(sys, "_debugmallocstats"):
            print("free lists: not available on this interpreter")
            return
        rotation = [argv for _, _, argvs in cases for argv in argvs.values()]
        gc.collect()
        full_before = gc.get_stats()[2]["collections"]
        for i in range(args.calls):
            quiet_call(rotation[i % len(rotation)])
        full = gc.get_stats()[2]["collections"] - full_before
        lists = free_tuples()
        print(
            f"after {args.calls} calls: {full} full collections, "
            f"{sum(c for _, c, _ in lists)} free tuples "
            f"({sum(b for _, _, b in lists) / 1e6:.2f} MB)"
        )
        print("free tuples by size: " + " ".join(f"{s}:{c}" for s, c, _ in lists))


def with_edge_lines(text: str, graph) -> str:
    """One ``edge`` line per nonzero multiplicity, after the graph line.

    Reads the graph's runs, heads ascending, in O(runs): no n x n view.
    """
    first, rest = text.split("\n", 1)
    edges = "".join(
        f"edge {u} {v} {m}\n"
        for u, out in enumerate(graph.adjacency())
        for v, m in sorted(head_totals(out.edges).items())
    )
    return f"{first}\n{edges}{rest}"


def with_configs(instance: Instance, seed: int) -> Instance:
    """The instance with four more named configurations, drawn from ``seed``."""
    rng = Random(seed)
    degs = instance.ribbon.degrees
    configs = dict(instance.configs)
    for name in ("csrc", "cdst", "rsrc", "rdst"):
        configs[name] = ChipRotorConfig(
            tuple([rng.randint(0, 2 * d) for d in degs]),
            tuple([rng.randrange(d) if d else None for d in degs]),
        )
    return Instance(instance.graph, instance.ribbon, configs)


def repeated_run_share(text: str) -> float:
    """The share of ribbon run tokens that repeat an earlier one."""
    runs = [
        tok
        for line in text.splitlines()
        if line.startswith("ribbon ")
        for tok in line.split()[3:]
    ]
    return 1 - len(set(runs)) / len(runs) if runs else 0.0


def parse_section(args):
    row = table(
        "parse", ("family", 18, ""), ("n", 5, ""), ("spelling", 11, ""),
        ("lines", 7, ""), ("KB", 7, ".0f"), ("rep %", 6, ".1f"),
        ("ms/parse", 9, ".2f"), ("peak MB", 8, ".2f"),
    )
    rows = []
    for family, n, instance in instances(args.parse_sizes, args.seed):
        ribbon_only = serialize_instance(instance)
        configured = with_configs(instance, args.seed)
        spellings = {
            "ribbon-only": (instance, ribbon_only),
            "with-edges": (instance, with_edge_lines(ribbon_only, instance.graph)),
            "configs": (configured, serialize_instance(configured)),
        }
        for spelling, (expected, text) in spellings.items():
            parsed = parse_instance(text)
            if (parsed.graph, parsed.ribbon, parsed.configs) != (
                expected.graph, expected.ribbon, expected.configs
            ):
                yield f"round trip mismatch: {family} n={n} {spelling}"
            rows.append((family, n, spelling, text))
    medians = round_robin_medians(
        [lambda text=text: parse_instance(text) for *_, text in rows], args.repeats
    )
    for (family, n, spelling, text), parse_s in zip(rows, medians):
        tracemalloc.start()
        parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row(family, n, spelling, text.count("\n"), len(text) / 1e3,
            100 * repeated_run_share(text), parse_s * 1e3, peak / 1e6)


def succinct_section(args):
    row = table(
        "succinct", ("multiplicity", 24, ""), ("bits", 5, ""),
        ("pi_r (us)", 10, ".2f"), ("checked", 8, ""),
    )
    for exponent in range(0, args.max_exponent + 1, 3):
        mult = 10 ** exponent if exponent else 4
        ribbon = RibbonStructure(runs=(((1, mult), (2, 1)), ((0, 1),), ((0, 1),)))
        config = ChipRotorConfig((mult, 0, 0), (0, 0, 0))
        r = (mult, 0, 0)
        out = pi_r(ribbon, config, r)
        # one call takes a few microseconds, so each sample is 100 calls
        per_call = median_seconds(
            lambda: [pi_r(ribbon, config, r) for _ in range(100)], args.repeats
        ) / 100

        # One full pass over the first run and its boundary edge: the
        # rotor ends at position mult, chips split mult-1 / 1.
        if out != ChipRotorConfig((0, mult - 1, 1), (mult, 0, 0)):
            yield f"closed form mismatch at multiplicity {mult}: {out}"
        checked = "-"
        if mult <= SIMULATION_CUTOFF:
            simulated = config
            for _ in range(mult):
                simulated = route(ribbon, simulated, 0)
            if simulated != out:
                yield f"simulation mismatch at multiplicity {mult}"
            checked = "sim"
        row(mult, mult.bit_length(), per_call * 1e6, checked)


# Each section prints its table and yields a message per failed check.
SECTIONS = {"cli": cli_section, "parse": parse_section, "succinct": succinct_section}


def sizes(text: str) -> list[int]:
    return [int(n) for n in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*", metavar="section",
                        help=f"any of {', '.join(SECTIONS)} (default: all)")
    parser.add_argument("--cli-sizes", type=sizes, default="12,24")
    parser.add_argument("--parse-sizes", type=sizes, default="50,140,500")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-exponent", type=int, default=18)
    args = parser.parse_args()
    if not set(args.sections) <= set(SECTIONS):
        parser.error(f"sections are {', '.join(SECTIONS)}")

    failures = [f for name in args.sections or SECTIONS for f in SECTIONS[name](args)]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
