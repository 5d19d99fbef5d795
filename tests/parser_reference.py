"""The instance parser as it stood before the one-pass rewrite, verbatim.

``test_instancefile`` runs it side by side with ``parse_instance`` on
mutated files: both must return equal instances, or raise the same error
with the same message and line.  Only the imports differ from the
original module and its graph is built by the oracle's ``graph_from_rows``,
plus ``with_edge_lines`` at the end: this parser reads
only files that state their edges in ``edge`` lines.
"""

from __future__ import annotations

from rotorchip.errors import InstanceFormatError
from rotorchip.instancefile import (
    _NAME_RE,
    DEFAULT_CONFIG_NAME,
    MAX_VERTICES,
    Instance,
)
from rotorchip.bruteforce import graph_from_rows
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure


def _int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceFormatError(f"{what} must be an integer, got {token!r}", line)


def parse_instance(text: str) -> Instance:
    n: int | None = None
    mult: list[list[int]] | None = None
    ribbon_lines: dict[int, tuple[tuple[int, int], ...]] = {}
    chip_lines: dict[str, list[int]] = {}
    rotor_lines: dict[str, dict[int, int]] = {}
    config_order: list[str] = []
    ribbon_line_nos: dict[int, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "graph":
            if n is not None:
                raise InstanceFormatError("duplicate graph line", lineno)
            if len(tokens) != 2:
                raise InstanceFormatError("expected: graph <n>", lineno)
            n = _int(tokens[1], "vertex count", lineno)
            if n < 1:
                raise InstanceFormatError("vertex count must be >= 1", lineno)
            if n > MAX_VERTICES:
                raise InstanceFormatError(
                    f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno
                )
            mult = [[0] * n for _ in range(n)]
            continue
        if n is None or mult is None:
            raise InstanceFormatError(
                f"{directive} line before the graph line", lineno
            )
        if directive == "edge":
            if len(tokens) != 4:
                raise InstanceFormatError("expected: edge <u> <v> <mult>", lineno)
            u = _int(tokens[1], "edge tail", lineno)
            v = _int(tokens[2], "edge head", lineno)
            m = _int(tokens[3], "edge multiplicity", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError("edge endpoint out of range", lineno)
            if u == v:
                raise InstanceFormatError("loops are not allowed", lineno)
            if m < 0:
                raise InstanceFormatError("edge multiplicity must be >= 0", lineno)
            mult[u][v] += m
        elif directive == "ribbon":
            if len(tokens) < 4 or tokens[2] != ":":
                raise InstanceFormatError(
                    "expected: ribbon <v> : <head>:<count> ...", lineno
                )
            v = _int(tokens[1], "ribbon vertex", lineno)
            if not 0 <= v < n:
                raise InstanceFormatError("ribbon vertex out of range", lineno)
            if v in ribbon_lines:
                raise InstanceFormatError(
                    f"duplicate ribbon line for vertex {v}", lineno
                )
            runs: list[tuple[int, int]] = []
            for tok in tokens[3:]:
                head_s, sep, count_s = tok.partition(":")
                if not sep:
                    raise InstanceFormatError(
                        f"ribbon run {tok!r} must look like <head>:<count>", lineno
                    )
                head = _int(head_s, "run head", lineno)
                count = _int(count_s, "run count", lineno)
                if not 0 <= head < n:
                    raise InstanceFormatError("run head out of range", lineno)
                if head == v:
                    raise InstanceFormatError("loops are not allowed", lineno)
                if count < 1:
                    raise InstanceFormatError("run count must be >= 1", lineno)
                runs.append((head, count))
            ribbon_lines[v] = tuple(runs)
            ribbon_line_nos[v] = lineno
        elif directive == "chips":
            rest = tokens[1:]
            name = DEFAULT_CONFIG_NAME
            if ":" in rest:
                if rest.index(":") != 1:
                    raise InstanceFormatError(
                        "expected: chips [<name> :] <c0> ...", lineno
                    )
                name = rest[0]
                if not _NAME_RE.match(name):
                    raise InstanceFormatError(
                        f"bad configuration name {name!r}", lineno
                    )
                rest = rest[2:]
            if name in chip_lines:
                raise InstanceFormatError(
                    f"duplicate chips line for configuration {name!r}", lineno
                )
            if len(rest) != n:
                raise InstanceFormatError(
                    f"chips line needs {n} values, got {len(rest)}", lineno
                )
            chip_lines[name] = [_int(t, "chip count", lineno) for t in rest]
            config_order.append(name)
        elif directive == "rotor":
            rest = tokens[1:]
            name = DEFAULT_CONFIG_NAME
            if ":" in rest:
                if rest.index(":") != 1:
                    raise InstanceFormatError(
                        "expected: rotor [<name> :] <v> <position>", lineno
                    )
                name = rest[0]
                if not _NAME_RE.match(name):
                    raise InstanceFormatError(
                        f"bad configuration name {name!r}", lineno
                    )
                rest = rest[2:]
            if len(rest) != 2:
                raise InstanceFormatError(
                    "expected: rotor [<name> :] <v> <position>", lineno
                )
            v = _int(rest[0], "rotor vertex", lineno)
            pos = _int(rest[1], "rotor position", lineno)
            if not 0 <= v < n:
                raise InstanceFormatError("rotor vertex out of range", lineno)
            positions = rotor_lines.setdefault(name, {})
            if v in positions:
                raise InstanceFormatError(
                    f"duplicate rotor line for configuration {name!r}, vertex {v}",
                    lineno,
                )
            positions[v] = pos
        else:
            raise InstanceFormatError(f"unknown directive {directive!r}", lineno)

    if n is None or mult is None:
        raise InstanceFormatError("missing graph line")
    graph = graph_from_rows(mult)

    for v, rs in ribbon_lines.items():
        totals = [0] * n
        for head, count in rs:
            totals[head] += count
        if totals != mult[v]:
            raise InstanceFormatError(
                f"ribbon runs at vertex {v} do not match edge multiplicities",
                ribbon_line_nos[v],
            )
    # the default order (the graph's adjacency), only where no ribbon line
    # gives one
    adj = graph.adjacency()
    runs = [
        ribbon_lines[v] if v in ribbon_lines else adj[v].edges for v in range(n)
    ]
    ribbon = RibbonStructure(tuple(runs))

    degs = ribbon.degrees
    for name, positions in rotor_lines.items():
        if name not in chip_lines:
            raise InstanceFormatError(
                f"rotor lines for configuration {name!r} without a chips line"
            )
        for v, pos in positions.items():
            if degs[v] == 0:
                raise InstanceFormatError(
                    f"rotor position for sink vertex {v} in configuration {name!r}"
                )
            if not 0 <= pos < degs[v]:
                raise InstanceFormatError(
                    f"rotor position {pos} out of range at vertex {v} "
                    f"in configuration {name!r}"
                )

    configs: dict[str, ChipRotorConfig] = {}
    for name in config_order:
        positions = rotor_lines.get(name, {})
        rotors = tuple(
            None if degs[v] == 0 else positions.get(v, 0) for v in range(n)
        )
        configs[name] = ChipRotorConfig(tuple(chip_lines[name]), rotors)
    return Instance(graph, ribbon, configs)


def with_edge_lines(text: str, graph: DirectedMultigraph) -> str:
    """``text`` with the edge lines the serializer of that time wrote.

    They follow the first line, which must be the ``graph`` line, one per
    nonzero multiplicity, sorted by (tail, head).
    """
    first, rest = text.split("\n", 1)
    edges = "".join(
        f"edge {u} {v} {m}\n"
        for u, row in enumerate(graph.mult)
        for v, m in enumerate(row)
        if m
    )
    return f"{first}\n{edges}{rest}"
