"""Smoke test: the timing script runs every section at its smallest settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each section's first column title and the first field of its first row.
SECTIONS = {
    "cli": ("family", "eulerian"),
    "parse": ("family", "eulerian"),
    "succinct": ("multiplicity", "4"),
}


@pytest.fixture(scope="module")
def bench_run() -> subprocess.CompletedProcess[str]:
    """One run of all three sections, shared by the tests below."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"),
         "--cli-sizes", "4", "--parse-sizes", "10", "--repeats", "1",
         "--calls", "5", "--max-exponent", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_bench_exits_0(bench_run: subprocess.CompletedProcess[str]) -> None:
    assert bench_run.returncode == 0, bench_run.stdout + bench_run.stderr


@pytest.mark.parametrize("name", list(SECTIONS))
def test_bench_prints_section(
    bench_run: subprocess.CompletedProcess[str], name: str
) -> None:
    output = bench_run.stdout + bench_run.stderr
    title, first = SECTIONS[name]
    lines = bench_run.stdout.splitlines()
    assert f"[{name}]" in lines, output
    start = lines.index(f"[{name}]")
    firsts = [line.split()[0] for line in lines[start + 1:start + 3]]
    assert firsts == [title, first], output
