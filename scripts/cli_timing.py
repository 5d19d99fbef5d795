"""Time in-process CLI calls and show where their memory stays.

Writes one seeded instance per family and size to a temporary directory,
with a source configuration and a target reached by whole rotor turns
(which fire each vertex as often as it turns).  For every subcommand
that reads an instance it prints the median ``run_command`` time, the
median time of that call's ``parse_args`` on the shared parser, and that
parse time as a share of the call; then the time of the one build of
the parser, which ``run_command`` makes once per process.  Then it makes
``--calls`` calls in a round robin over those commands and prints how
many full garbage collections ran and the tuple free-list counts that
``sys._debugmallocstats()`` reports (CPython only).  A free list keeps
up to 2,000 tuples of its size until a full collection empties it.
Exits 1 when any timed command exits nonzero (see the ``exit`` column).

    python3 scripts/cli_timing.py
    python3 scripts/cli_timing.py --sizes 12,24 --repeats 21 --calls 5000
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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from rotorchip.cli import build_parser, run_command
from rotorchip.generators import gen_instance
from rotorchip.instancefile import Instance, serialize_instance
from rotorchip.rotorrouting import pi_r

FAMILIES = ("eulerian", "strongly-connected", "heavy-multiplicity")

_FREE_TUPLES = re.compile(
    r"([\d,]+) free (\d+)-sized PyTupleObjects \* (\d+) bytes each"
)


def write_instance(family: str, n: int, seed: int, workdir: Path) -> tuple[Path, str]:
    """The instance file and the r of its target, as a comma-separated vector."""
    instance = gen_instance(family, n, seed)
    rng = Random(f"{family}/{n}/{seed}")
    src = instance.single_config()
    degs = instance.ribbon.degrees
    r = tuple([d * rng.randint(0, 1) for d in degs])
    configs = {"src": src, "dst": pi_r(instance.ribbon, src, r)}
    path = workdir / f"{family}-{n}.rcg"
    path.write_text(
        serialize_instance(Instance(instance.graph, instance.ribbon, configs)),
        encoding="utf-8",
    )
    return path, ",".join(map(str, r))


def commands(path: Path, r: str) -> dict[str, list[str]]:
    p = str(path)
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


def quiet_call(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run_command(argv)


def median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="12,24")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cases = []
        for family in FAMILIES:
            for n in map(int, args.sizes.split(",")):
                path, r = write_instance(family, n, args.seed, workdir)
                cases.append((family, n, commands(path, r)))

        print(
            f"{'family':>18} {'n':>3} {'command':>20} {'exit':>4} "
            f"{'ms/call':>8} {'parse ms':>8} {'parse %':>7}"
        )
        parser = build_parser()
        failed = False
        for family, n, argvs in cases:
            for label, argv in argvs.items():
                code = quiet_call(argv)
                failed = failed or code != 0
                call_s = median_seconds(lambda: quiet_call(argv), args.repeats)
                parse_s = median_seconds(lambda: parser.parse_args(argv), args.repeats)
                print(
                    f"{family:>18} {n:>3} {label:>20} {code:>4} "
                    f"{call_s * 1e3:>8.3f} {parse_s * 1e3:>8.3f} "
                    f"{100 * parse_s / call_s:>6.1f}%"
                )
        # __wrapped__ is build_parser without its cache
        build_s = median_seconds(build_parser.__wrapped__, args.repeats)
        print(f"one build of the parser (all 13 subcommands): {build_s * 1e3:.3f} ms")

        if not hasattr(sys, "_debugmallocstats"):
            print("free lists: not available on this interpreter")
            return 1 if failed else 0
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
