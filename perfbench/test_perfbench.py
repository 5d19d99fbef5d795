"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_and_no_failure(workload, trace):
    lines = _run_tiny(workload, trace)
    result = json.loads(lines[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_frac 0.000000 ") for line in lines)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("b", 11.0, 12.5, -1, 1),
    ]
    assert tracing.self_times(spans) == {
        "a": (1, 3.0),
        "b": (2, 3.5),
        "c": (1, 1.0),
        "d": (1, 4.0),
    }


def test_tracer_wraps_imported_names_and_restores_them():
    from rotorchip import chipfiring, intlinalg

    original = intlinalg.nonneg_reduced_solution
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chipfiring.nonneg_reduced_solution is intlinalg.nonneg_reduced_solution
        assert chipfiring.nonneg_reduced_solution is not original
        from rotorchip.multigraph import DirectedMultigraph

        g = DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        tracer.query = 7
        assert chipfiring.lin_equiv(g, (1, 0), (0, 1)) == (1, 0)
    finally:
        tracer.uninstall()
    assert chipfiring.nonneg_reduced_solution is original
    spans = tracer.take_spans()
    names = [s[0] for s in spans]
    assert "intlinalg.nonneg_reduced_solution" in names
    assert "intlinalg.hermite_row_reduce" in names
    solve = names.index("intlinalg.solve_integer")
    assert spans[names.index("intlinalg.hermite_row_reduce")][3] == solve
    assert all(s[4] == 7 for s in spans)


def test_tracer_skips_and_reports_missing_names(monkeypatch):
    from rotorchip import intlinalg

    monkeypatch.delattr(intlinalg, "solve_integer")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["intlinalg.solve_integer"]


def _tiny_queries(name, tmp_path):
    return workloads.build(name, 5, tmp_path, "tiny")


def test_wrong_cli_verdict_counts_as_failure(tmp_path):
    queries = _tiny_queries("solve-mid", tmp_path)
    no = next(q for q in queries if q.kind == "chip-reach-no")
    yes = next(q for q in queries if q.kind == "chip-reach-yes")
    no.check(no.call())
    yes.check(yes.call())
    with pytest.raises(checks.CheckFailed):
        no.check((0, "decision=YES f=0,0,0,0\ntrace=\n", ""))
    code, stdout, stderr = yes.call()
    with pytest.raises(checks.CheckFailed):
        yes.check((code, stdout.replace("YES", "NO", 1), stderr))
    with pytest.raises(checks.CheckFailed):
        yes.check((3, stdout, stderr))

    loop = run.Loop([workloads.Query("fake", 0, lambda: no_output, no.check)], 0)
    no_output = (0, "decision=YES\n", "")
    loop.run_pass()
    loop.run_pass()
    failed, reasons = loop.check()
    assert failed == 2 and loop.executions == 2 and reasons


def test_wrong_library_verdict_counts_as_failure(tmp_path):
    queries = _tiny_queries("desk-many", tmp_path)
    for kind in ("reach_chip", "reach_rotor"):
        q = next(q for q in queries if q.kind == kind)
        verdict = q.call()
        q.check(verdict)
        flipped = type(verdict)("NO" if verdict.decision == "YES" else "YES")
        with pytest.raises(checks.CheckFailed):
            q.check(flipped)
    q = next(q for q in queries if q.kind == "is_recurrent")
    with pytest.raises(checks.CheckFailed):
        q.check(not q.call())


def test_output_that_changes_between_passes_counts_as_failure(tmp_path):
    queries = _tiny_queries("solve-mid", tmp_path)
    q = next(q for q in queries if q.kind == "lin-equiv")
    outputs = iter([q.call(), (0, "equivalent=no\n", "")])
    loop = run.Loop([workloads.Query(q.kind, 0, lambda: next(outputs), q.check)], 0)
    loop.run_pass()
    loop.run_pass()
    assert loop.check()[0] == 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
