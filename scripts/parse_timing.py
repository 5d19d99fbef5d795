"""Time the instance parser and measure its peak memory.

Generates one seeded instance per family and size and parses it in both
spellings: as ``serialize_instance`` writes it (ribbon lines only), and
with the ``edge`` lines older files carry as well.  Prints, per spelling,
the line count, the file size, the share of ribbon run tokens that
repeat a token seen earlier in the file (the parser converts and checks
each distinct one once), the median wall time per ``parse_instance``
call, and the ``tracemalloc`` peak of one parse.  The load should cost
time and memory linear in the file: the parsed graph keeps the ribbon's
runs, and no n x n matrix.

    python3 scripts/parse_timing.py
    python3 scripts/parse_timing.py --sizes 50,140 --repeats 21 --seed 3
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc

from rotorchip.generators import gen_instance
from rotorchip.instancefile import parse_instance, serialize_instance
from rotorchip.multigraph import head_totals

FAMILIES = ("eulerian", "heavy-multiplicity")


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


def repeated_run_share(text: str) -> float:
    """The share of ribbon run tokens that repeat an earlier one."""
    runs = [
        tok
        for line in text.splitlines()
        if line.startswith("ribbon ")
        for tok in line.split()[3:]
    ]
    return 1 - len(set(runs)) / len(runs) if runs else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,140,500")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(
        f"{'family':>18} {'n':>5} {'spelling':>11} {'lines':>7} {'KB':>7} "
        f"{'rep %':>6} {'ms/parse':>9} {'peak MB':>8}"
    )
    for family in FAMILIES:
        for n in map(int, args.sizes.split(",")):
            instance = gen_instance(family, n, args.seed)
            ribbon_only = serialize_instance(instance)
            spellings = {
                "ribbon-only": ribbon_only,
                "with-edges": with_edge_lines(ribbon_only, instance.graph),
            }
            for spelling, text in spellings.items():
                parsed = parse_instance(text)
                if (parsed.graph, parsed.ribbon, parsed.configs) != (
                    instance.graph, instance.ribbon, instance.configs
                ):
                    print(f"round trip mismatch: {family} n={n} {spelling}")
                    return 1
                times = []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    parse_instance(text)
                    times.append(time.perf_counter() - t0)
                tracemalloc.start()
                parse_instance(text)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                print(
                    f"{family:>18} {n:>5} {spelling:>11} {text.count(chr(10)):>7} "
                    f"{len(text) / 1e3:>7.0f} {100 * repeated_run_share(text):>6.1f} "
                    f"{statistics.median(times) * 1e3:>9.2f} "
                    f"{peak / 1e6:>8.2f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
