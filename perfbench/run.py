"""Seeded closed-loop benchmark of the rotorchip decision procedures.

Run from the repository root:

    python3 perfbench/run.py --workload solve-mid --seed 1 --seconds 30 --trace 0

One client in one process, no threads: each query starts when the previous
one has returned.  The queries of a workload are run in whole passes, each
pass in a fresh seeded order, until ``--seconds`` of measuring is used up.
Times are scaled to a nominal machine speed by a reference kernel run
between queries (see REFERENCE_NOMINAL_S).  A query's latency is the median
of its passes, and the end-to-end metrics summarise those latencies.  Every
output is checked after its timed call returns.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: calls and self
time of each layer's public functions per pass, counters read from their
results, and the tracing overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# set-up is timed in this many fresh interpreters; the measuring process has
# already imported the program when it sets up, so its own time is not used
SETUP_PROBES = 5

# Timings are scaled to a nominal machine speed.  On a shared machine the
# same work runs up to twice as slow for tens of seconds at a time.  A fixed
# reference kernel run next to the queries slows down with it: in trials of
# two minutes per workload, dividing by its time cut the interquartile
# spread of pass times from 19-35% to 2-8%.  REFERENCE_NOMINAL_S is about
# the kernel's time on an idle 2-core Xeon KVM guest with Python 3.11, so
# the figures read as times on that machine when it is idle.
REFERENCE_NOMINAL_S = 0.00015
REFERENCE_EVERY_S = 0.02

# a per-query median needs a few passes even when the machine runs slow
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class Raised:
    """Output of a call that raised: never equal to a valid output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it (used internally)")
    return p.parse_args(argv)


def setup(args, workdir: Path):
    """Import the program, generate the inputs and write the instance files."""
    start = perf_counter()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    queries = workloads.build(args.workload, args.seed, workdir, args.scale)
    return queries, perf_counter() - start


def nominal_setup_seconds(args, workdir: Path) -> float:
    """One set-up, scaled like the queries by kernel runs around it."""
    before = [reference_seconds() for _ in range(3)]
    _, took = setup(args, workdir)
    after = [reference_seconds() for _ in range(3)]
    return took * REFERENCE_NOMINAL_S / statistics.median(before + after)


def probe_setup(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--scale", args.scale,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def reference_kernel() -> None:
    """Fixed interpreter, allocation, big-integer and tuple-hashing work.

    The mix follows the program's: big-integer row operations, small
    tuples, and configurations hashed into a dict of seen states.
    """
    big = 3**200
    acc = []
    for i in range(200):
        acc.append((tuple(range(i % 30)), big * (i + 1) // 7))
    cur = list(range(150))
    seen = {}
    for i in range(40):
        cur[i % 150] += 7
        cur[(i * 7) % 150] -= 3
        seen.setdefault(tuple(cur), i)


def reference_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class Loop:
    """Runs passes over the queries and keeps per-query samples and outputs.

    Samples are in nominal seconds: each query's wall time is scaled by
    REFERENCE_NOMINAL_S over the reference kernel's time around it (the
    mean of the kernel runs just before and just after its group of
    queries), taken at least every REFERENCE_EVERY_S of query time.
    """

    def __init__(self, queries, seed: int):
        self.queries = queries
        self.rng = Random(seed)
        self.samples = [array("d") for _ in queries]
        self.first = [None] * len(queries)
        self.mismatched = [0] * len(queries)
        self.passes = 0
        self.executions = 0

    def run_pass(self, tracer=None) -> float:
        """One pass in a fresh order; returns its total in nominal seconds."""
        order = list(range(len(self.queries)))
        self.rng.shuffle(order)
        total = 0.0
        pending: list[tuple[int, float]] = []
        pending_s = 0.0
        before = reference_seconds()
        for n, i in enumerate(order, start=1):
            call = self.queries[i].call
            if tracer is not None:
                tracer.query = i
            start = perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed query is counted, not fatal
                out = Raised(exc)
            elapsed = perf_counter() - start
            pending.append((i, elapsed))
            pending_s += elapsed
            # outside the timed region: each output must repeat the first
            self.executions += 1
            if self.first[i] is None:
                self.first[i] = out
            elif out != self.first[i]:
                self.mismatched[i] += 1
            if n == len(order) or pending_s >= REFERENCE_EVERY_S:
                after = reference_seconds()
                scale = REFERENCE_NOMINAL_S / ((before + after) / 2)
                for j, t in pending:
                    total += t * scale
                    if tracer is None:
                        self.samples[j].append(t * scale)
                pending, pending_s, before = [], 0.0, after
        self.passes += 1
        return total

    def check(self) -> tuple[int, list[str]]:
        """Failed executions, and the reasons of the first few failures."""
        failed, reasons = 0, []
        for i, q in enumerate(self.queries):
            out = self.first[i]
            try:
                if isinstance(out, Raised):
                    raise ValueError(out.text)
                q.check(out)
            except Exception as exc:  # any checker error marks the query failed
                failed += self.passes - self.mismatched[i]
                reasons.append(f"{q.kind} #{i}: {type(exc).__name__}: {exc}")
            failed += self.mismatched[i]
            if self.mismatched[i]:
                reasons.append(f"{q.kind} #{i}: output changed between passes")
        return failed, reasons


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end_metrics(loop: Loop, setup_s: float, failed: int, rss_mb: float):
    latencies = [statistics.median(s) for s in loop.samples]
    return {
        "setup_s": setup_s,
        "queries_per_s": len(latencies) / sum(latencies),
        "query_ms_p50": 1000 * quantile(latencies, 0.50),
        "query_ms_p90": 1000 * quantile(latencies, 0.90),
        "ok_frac": (loop.executions - failed) / loop.executions,
        "peak_rss_mb": rss_mb,
    }


def measure(loop: Loop, seconds: float) -> None:
    """Whole passes until another would overrun ``seconds``, at least MIN_PASSES."""
    used = 0.0
    while True:
        start = perf_counter()
        loop.run_pass()
        took = perf_counter() - start
        used += took
        if loop.passes >= MIN_PASSES and used + took > seconds:
            return


def measure_traced(loop: Loop, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; return per-pass layer totals."""
    from tracing import LAYER_NAMES, Tracer, self_times

    tracer = Tracer()
    totals = {name: [0, 0.0] for name in LAYER_NAMES}
    untraced = traced = 0.0
    pairs = 0
    used = 0.0
    while True:
        start = perf_counter()
        untraced += loop.run_pass()
        tracer.install()
        try:
            traced += loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        pairs += 1
        spans = tracer.take_spans()
        if pairs == 1:
            write_spans(spans_path, spans)
        for name, (calls, self_s) in self_times(spans).items():
            totals[name][0] += calls
            totals[name][1] += self_s
        took = perf_counter() - start
        used += took
        if used + took > seconds:
            break
    per_pass = {name: (c / pairs, s / pairs) for name, (c, s) in totals.items()}
    counters = {k: v if k.endswith("bits_max") else v / pairs
                for k, v in tracer.counters.items()}
    return per_pass, counters, traced / untraced - 1, tracer.missing, pairs


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("index\tquery\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent, query) in enumerate(spans):
            fh.write(f"{i}\t{query}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(loop: Loop, per_pass, counters, overhead: float):
    from tracing import LAYER_NAMES

    metrics = {}
    for name in LAYER_NAMES:
        calls, self_s = per_pass[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    graphs = len({q.graph for q in loop.queries})
    for name in ("multigraph.scc_decompose", "intlinalg.primitive_period_vector"):
        metrics[f"{name}.per_graph"] = (per_pass[name][0] / graphs, "calls/graph")
    metrics["intlinalg.solve_integer.bits_max"] = (
        counters.get("intlinalg.solve_integer.bits_max", 0), "bit")
    for key in ("chipfiring.bounded_chip_game.batches",
                "rotorrouting.bounded_rotor_game.batches",
                "chipfiring.halts.firings"):
        metrics[key] = (counters.get(key, 0), "count")
    rotor_batches = counters.get("rotorrouting.bounded_rotor_game.batches", 0)
    metrics["rotorrouting.pi_r.calls_per_batch"] = (
        per_pass["rotorrouting.pi_r"][0] / rotor_batches if rotor_batches else 0.0,
        "calls/batch",
    )
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotorchip" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'rotorchip'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": nominal_setup_seconds(args, workdir)}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    queries, _ = setup(args, workdir)
    # the benchmark's own inputs and bookkeeping are long-lived; keep the
    # collector from rescanning them during every query
    gc.collect()
    gc.freeze()

    loop = Loop(queries, args.seed)
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
        per_pass, counters, overhead, missing, pairs = measure_traced(
            loop, args.seconds, spans_path)
        failed, reasons = loop.check()
        metrics = layer_metrics(loop, per_pass, counters, overhead)
        for name in missing:
            print(f"note: {name} not found in the program; reported as 0")
        print(f"passes: {pairs} untraced + {pairs} traced over {len(queries)} queries;"
              f" per-layer figures are per traced pass; spans of the first traced"
              f" pass in {spans_path.relative_to(ROOT)}")
    else:
        measure(loop, args.seconds)
        # before the checks, whose oracles are not the program's memory
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, reasons = loop.check()
        values = end_to_end_metrics(loop, statistics.median(setups), failed, rss_mb)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        latencies = [statistics.median(s) for s in loop.samples]
        print(f"samples: {len(queries)} queries x {loop.passes} passes;"
              f" a query's latency is its median pass")
        print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
        if len(latencies) >= 1000:
            print(f"query_ms_p99 {1000 * quantile(latencies, 0.99):.4f} ms"
                  f" ({len(latencies)} samples, not gated)")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"fail_frac {failed / loop.executions:.6f} ({failed} of {loop.executions})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.executions,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
