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


# the harness modules, which run the oracle against the engine
ORACLE_USERS = {"bruteforce.py", "cli.py", "sweeps.py"}


def _oracle_importers(src: Path = SRC) -> list[str]:
    """Each import of ``bruteforce`` outside the oracle and the harness, as ``file:line``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ORACLE_USERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "bruteforce" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_engine_module_imports_the_oracle() -> None:
    assert _oracle_importers() == []


def test_the_guard_sees_an_import(tmp_path) -> None:
    (tmp_path / "engine.py").write_text("from .bruteforce import laplacian\n")
    (tmp_path / "streams.py").write_text("import os\nfrom . import bruteforce\n")
    (tmp_path / "sweeps.py").write_text("from . import bruteforce\n")
    assert _oracle_importers(tmp_path) == ["engine.py:1", "streams.py:2"]


# the dense view builds its rows with it
DENSE_ROW_USERS = {"multigraph.py"}


def _dense_row_callers(src: Path = SRC) -> list[str]:
    """Each ``dense_row`` call or import outside ``multigraph.py``, as ``file:line``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in DENSE_ROW_USERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if "dense_row" in names:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_dense_view_builds_dense_rows() -> None:
    assert _dense_row_callers() == []


def test_the_guard_sees_a_dense_row_call(tmp_path) -> None:
    (tmp_path / "engine.py").write_text(
        "from .multigraph import dense_row\n\ndef f(g, out):\n    return dense_row(g.n, out)\n"
    )
    (tmp_path / "sweeps.py").write_text("from . import multigraph\nrow = multigraph.dense_row(3, out)\n")
    (tmp_path / "multigraph.py").write_text("def dense_row(n, out):\n    return (0,) * n\nrow = dense_row(1, ())\n")
    assert _dense_row_callers(tmp_path) == ["engine.py:1", "engine.py:4", "sweeps.py:2"]


# The modules on a query's path, where tuples are built from lists, never
# from a generator, map, zip, filter or compress.  CPython (3.11) starts a
# tuple from an iterator of unknown length at 10 slots, resizes it, and
# frees it onto the free list of its final size, which keeps up to 2,000 of
# each size 1-19 until a full collection; with few collections those lists
# fill to about 3 MB.  A tuple built from a list takes and returns one of
# its size.
QUERY_PATH = {"instancefile.py", "multigraph.py", "intlinalg.py", "chipfiring.py",
              "rotorrouting.py", "cli.py"}
_ITERATORS = {"map", "zip", "filter", "compress"}


def _iterator_tuples(src: Path = SRC) -> list[str]:
    """Each ``tuple(...)`` of a generator, map, zip, filter or compress, as ``file:line``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name not in QUERY_PATH:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call)
                and (getattr(arg.func, "id", None) or getattr(arg.func, "attr", None)) in _ITERATORS
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_query_path_tuples_are_built_from_lists() -> None:
    assert _iterator_tuples() == []


def test_the_guard_sees_a_tuple_from_an_iterator(tmp_path) -> None:
    (tmp_path / "intlinalg.py").write_text(
        "import itertools\n"
        "a = tuple(x for x in y)\n"
        "b = tuple(map(int, y))\n"
        "c = tuple(itertools.compress(y, s))\n"
        "d = tuple([x for x in y]) + tuple(sorted(y)) + tuple(y)\n"
        "e = tuple(\n    zip(y, y)\n)\n"
    )
    (tmp_path / "cli.py").write_text("f = tuple(filter(None, y))\n")
    (tmp_path / "sweeps.py").write_text("g = tuple(x for x in y)\n")
    assert _iterator_tuples(tmp_path) == [
        "cli.py:1", "intlinalg.py:2", "intlinalg.py:3", "intlinalg.py:4", "intlinalg.py:6",
    ]


# the one replay of both games' (v, k) batches lives beside play_rounds,
# and the routing reductions, which no engine procedure needs, in the oracle
BATCH_LOOP_HOLDERS = {"multigraph.py"}
ORACLE_ONLY = {"reduce_routing_vector", "is_routing_reduced"}


def _replay_breaks(src: Path = SRC) -> list[str]:
    """Each ``_play_batches``, batch loop or routing reduction out of place, as ``file:line name``.

    A batch loop is a ``for`` statement over something named ``batches``.
    """
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_play_batches" or (
                    node.name in ORACLE_ONLY and path.name != "bruteforce.py"
                ):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.For) and path.name not in BATCH_LOOP_HOLDERS:
                it = node.iter
                if (getattr(it, "id", None) or getattr(it, "attr", None)) == "batches":
                    found.append(f"{path.name}:{node.lineno} batch loop")
    return found


def test_one_replay_and_the_routing_reductions_in_the_oracle() -> None:
    assert _replay_breaks() == []


def test_the_guard_sees_a_second_replay(tmp_path) -> None:
    (tmp_path / "chipfiring.py").write_text(
        "def _play_batches(g, x, batches):\n"
        "    for v, k in batches:\n"
        "        pass\n"
        "\n"
        "def replay(trace):\n"
        "    for v, k in trace.batches:\n"
        "        pass\n"
    )
    (tmp_path / "intlinalg.py").write_text("def reduce_routing_vector(g, r):\n    return r\n")
    (tmp_path / "multigraph.py").write_text(
        "def replay_batches(batches):\n    for v, k in batches:\n        pass\n"
        "def is_routing_reduced(g, r):\n    return True\n"
    )
    (tmp_path / "bruteforce.py").write_text("def is_routing_reduced(g, r):\n    return True\n")
    assert _replay_breaks(tmp_path) == [
        "chipfiring.py:1 _play_batches",
        "chipfiring.py:2 batch loop",
        "chipfiring.py:6 batch loop",
        "intlinalg.py:1 reduce_routing_vector",
        "multigraph.py:4 is_routing_reduced",
    ]
