"""Time the instance parser and measure its peak memory.

Generates one seeded instance per family and size, serializes it, and
parses the text repeatedly.  Prints the file size, the median wall time
per ``parse_instance`` call, and the ``tracemalloc`` peak of one parse
next to 8 n^2 bytes, the size of the dense multiplicity matrix.  The
load should cost time linear in the file plus that one matrix.

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

FAMILIES = ("eulerian", "heavy-multiplicity")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,140,500")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(
        f"{'family':>18} {'n':>5} {'lines':>7} {'KB':>7} "
        f"{'ms/parse':>9} {'peak MB':>8} {'8n^2 MB':>8}"
    )
    for family in FAMILIES:
        for n in map(int, args.sizes.split(",")):
            instance = gen_instance(family, n, args.seed)
            text = serialize_instance(instance)
            parsed = parse_instance(text)
            if (parsed.graph, parsed.ribbon, parsed.configs) != (
                instance.graph, instance.ribbon, instance.configs
            ):
                print(f"round trip mismatch: {family} n={n}")
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
                f"{family:>18} {n:>5} {text.count(chr(10)):>7} "
                f"{len(text) / 1e3:>7.0f} {statistics.median(times) * 1e3:>9.2f} "
                f"{peak / 1e6:>8.2f} {8 * n * n / 1e6:>8.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
