"""Smoke test: each timing script runs at its smallest settings and exits 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("cli_timing.py", ["--sizes", "4", "--repeats", "1", "--calls", "5"]),
        ("parse_timing.py", ["--sizes", "10", "--repeats", "1"]),
        ("succinct_timing.py", ["--max-exponent", "3", "--repeats", "1"]),
    ],
)
def test_script_exits_0(script: str, args: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
