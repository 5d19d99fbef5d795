"""Source guards: which modules may read what."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rotorchip"


def _mult_readers(src: Path = SRC) -> list[str]:
    """Each ``.mult`` read in the package outside the oracle, as ``file:line``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "bruteforce.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # the view's own definition is a FunctionDef, not an Attribute
            if isinstance(node, ast.Attribute) and node.attr == "mult":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_oracle_reads_the_dense_matrix() -> None:
    assert _mult_readers() == []


def test_the_guard_sees_a_read(tmp_path) -> None:
    (tmp_path / "engine.py").write_text("def f(g):\n    return g.mult[0]\n")
    (tmp_path / "bruteforce.py").write_text("def f(g):\n    return g.mult\n")
    assert _mult_readers(tmp_path) == ["engine.py:2"]
