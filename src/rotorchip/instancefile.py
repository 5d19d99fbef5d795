"""Line-oriented instance files: graph, ribbon runs, named configurations.

Grammar (one directive per line, ``#`` starts a comment, blank lines
ignored):

    graph <n>
    ribbon <v> : <head>:<count> <head>:<count> ...
    edge <u> <v> <mult>
    chips [<name> :] <c0> <c1> ... <c_{n-1}>
    rotor [<name> :] <v> <position>

The ``graph`` line comes first, with at most ``MAX_VERTICES`` vertices:
the graph is stored as a dense n x n matrix, so a larger count is
rejected with InstanceFormatError (CLI exit 2) before anything is
allocated.  Loading an instance costs time linear in the file plus
O(n^2) for that matrix, 8 bytes per entry (``scripts/parse_timing.py``
measures time and peak).  Multiplicities and chip counts are decimals
of at most ``sys.get_int_max_str_digits()`` digits (4300 by default,
none with ``PYTHONINTMAXSTRDIGITS=0``); chips may be negative.

A ``ribbon`` line lists the out-edges of one vertex in their cyclic
order, as runs of parallel edges: ``h:c`` stands for c consecutive
edges to h.  In a file without ``edge`` lines the runs are the edges: a
vertex's multiplicity towards h is the total of its runs to h, and a
vertex without a ribbon line is a sink.  The same run token comes back
on line after line (in canonical spelling a file has at most n heads
times its distinct counts of them), so the parser converts and checks
each distinct token once per file.  ``serialize_instance`` writes this
spelling:

    graph 3
    ribbon 0 : 1:2 2:1 1:1
    ribbon 1 : 0:1
    chips 2 0 0

Edge lines are optional.  A file with at least one ``edge`` line takes
its multiplicities from the edge lines instead (repeated pairs add up);
each ribbon line must then match them, and vertices without one get the
default order (heads ascending, parallel edges consecutive).
``chips`` and ``rotor`` lines without a name belong to the configuration
named "default".  Rotor positions are flat indices into the cyclic
order; non-sink vertices without a ``rotor`` line sit at position 0,
sinks carry no rotor.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from .errors import InstanceFormatError
from .multigraph import DirectedMultigraph, out_edges
from .rotorrouting import ChipRotorConfig, RibbonStructure, runs_match_row

DEFAULT_CONFIG_NAME = "default"

# the dense multiplicity matrix holds n^2 entries of 8 bytes: at 4096
# vertices a parse peaks at 135 MB (tracemalloc), edges or none
MAX_VERTICES = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
# what int() parses in base 10: it refuses such a token only past the
# interpreter's int-string limit, sys.get_int_max_str_digits()
DECIMAL_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*\Z")


def digit_limit_message(what: str) -> str:
    return (
        f"{what} has more digits than the interpreter's int-string limit "
        f"of {sys.get_int_max_str_digits()}"
    )


@dataclass(frozen=True)
class Instance:
    """A parsed instance: graph, complete ribbon, named configurations."""

    graph: DirectedMultigraph
    ribbon: RibbonStructure
    configs: dict[str, ChipRotorConfig] = field(default_factory=dict)

    def config(self, name: str) -> ChipRotorConfig:
        try:
            return self.configs[name]
        except KeyError:
            known = ", ".join(sorted(self.configs)) or "none"
            raise InstanceFormatError(
                f"no configuration named {name!r} (known: {known})"
            ) from None

    def single_config(self) -> ChipRotorConfig:
        """The default configuration, or the only one when unambiguous."""
        if DEFAULT_CONFIG_NAME in self.configs:
            return self.configs[DEFAULT_CONFIG_NAME]
        if len(self.configs) == 1:
            return next(iter(self.configs.values()))
        raise InstanceFormatError(
            "no default configuration and the choice is ambiguous"
        )


def _int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        if DECIMAL_RE.match(token):
            raise InstanceFormatError(digit_limit_message(what), line)
        raise InstanceFormatError(f"{what} must be an integer, got {token!r}", line)


def _vertex_count(tokens: list[str], lineno: int) -> int:
    if len(tokens) != 2:
        raise InstanceFormatError("expected: graph <n>", lineno)
    n = _int(tokens[1], "vertex count", lineno)
    if n < 1:
        raise InstanceFormatError("vertex count must be >= 1", lineno)
    if n > MAX_VERTICES:
        raise InstanceFormatError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno
        )
    return n


def _config_name(rest: list[str], usage: str, lineno: int) -> tuple[str, list[str]]:
    """Split an optional ``<name> :`` prefix off a chips or rotor line."""
    if ":" not in rest:
        return DEFAULT_CONFIG_NAME, rest
    if rest.index(":") != 1:
        raise InstanceFormatError(f"expected: {usage}", lineno)
    name = rest[0]
    if not _NAME_RE.match(name):
        raise InstanceFormatError(f"bad configuration name {name!r}", lineno)
    return name, rest[2:]


def parse_instance(text: str) -> Instance:
    """Parse and check an instance file in one pass over its lines.

    Each token is converted once.  Vertex tokens, multiplicities and run
    counts are looked up in a table of the canonical spellings ``str(i)``,
    ``0 <= i < n``: a hit is the integer and its range check at once, and
    any other spelling (``+3``, ``007``, a count of n or more) takes the
    ``int`` path with the same checks and messages.
    Each distinct run token is converted and checked once: a token that
    passed every check is kept, for this call only, as its ``(head,
    count)`` tuple, and where it comes back only the loop check is left,
    so equal runs share one tuple.
    The first error in file order is raised with its line number; the
    graph and ribbon are then built without the constructors' checks,
    which the parser has already made.  Without edge lines the ribbon
    runs fill the matrix after the loop, and there is nothing for them
    to match.
    """
    n: int | None = None
    ids: dict[str, int] = {}
    rows: list = []
    out_degrees: list[int] = []
    ribbon_lines: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
    # each run token that passed every check, as its (head, count) tuple
    checked_runs: dict[str, tuple[int, int]] = {}
    has_edge_lines = False
    chip_lines: dict[str, tuple[int, ...]] = {}
    rotor_lines: dict[str, dict[int, int]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        directive = tokens[0]
        if n is None:
            if directive != "graph":
                raise InstanceFormatError(
                    f"{directive} line before the graph line", lineno
                )
            n = _vertex_count(tokens, lineno)
            # canonical spellings of 0..n-1: vertices, and small counts
            ids = {str(i): i for i in range(n)}
            rows = [[0] * n for _ in range(n)]
            out_degrees = [0] * n
        elif directive == "edge":
            if len(tokens) != 4:
                raise InstanceFormatError("expected: edge <u> <v> <mult>", lineno)
            u = ids.get(tokens[1])
            if u is None:
                u = _int(tokens[1], "edge tail", lineno)
            v = ids.get(tokens[2])
            if v is None:
                v = _int(tokens[2], "edge head", lineno)
            m = ids.get(tokens[3])
            if m is None:
                m = _int(tokens[3], "edge multiplicity", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError("edge endpoint out of range", lineno)
            if u == v:
                raise InstanceFormatError("loops are not allowed", lineno)
            if m < 0:
                raise InstanceFormatError("edge multiplicity must be >= 0", lineno)
            rows[u][v] += m
            out_degrees[u] += m
            has_edge_lines = True
        elif directive == "ribbon":
            if len(tokens) < 4 or tokens[2] != ":":
                raise InstanceFormatError(
                    "expected: ribbon <v> : <head>:<count> ...", lineno
                )
            v = ids.get(tokens[1])
            if v is None:
                v = _int(tokens[1], "ribbon vertex", lineno)
                if not 0 <= v < n:
                    raise InstanceFormatError("ribbon vertex out of range", lineno)
            if v in ribbon_lines:
                raise InstanceFormatError(
                    f"duplicate ribbon line for vertex {v}", lineno
                )
            runs_v = []
            for tok in tokens[3:]:
                run = checked_runs.get(tok)
                if run is None:
                    head_s, sep, count_s = tok.partition(":")
                    if not sep:
                        raise InstanceFormatError(
                            f"ribbon run {tok!r} must look like <head>:<count>",
                            lineno,
                        )
                    head = ids.get(head_s)
                    if head is None:
                        head = _int(head_s, "run head", lineno)
                    count = ids.get(count_s)
                    if count is None:
                        count = _int(count_s, "run count", lineno)
                    if not 0 <= head < n:
                        raise InstanceFormatError("run head out of range", lineno)
                    if head == v:
                        raise InstanceFormatError("loops are not allowed", lineno)
                    if count < 1:
                        raise InstanceFormatError("run count must be >= 1", lineno)
                    run = checked_runs[tok] = (head, count)
                elif run[0] == v:
                    # a checked token can fail only as a loop on another line
                    raise InstanceFormatError("loops are not allowed", lineno)
                runs_v.append(run)
            ribbon_lines[v] = (tuple(runs_v), lineno)
        elif directive == "chips":
            name, rest = _config_name(
                tokens[1:], "chips [<name> :] <c0> ...", lineno
            )
            if name in chip_lines:
                raise InstanceFormatError(
                    f"duplicate chips line for configuration {name!r}", lineno
                )
            if len(rest) != n:
                raise InstanceFormatError(
                    f"chips line needs {n} values, got {len(rest)}", lineno
                )
            chip_lines[name] = tuple([_int(t, "chip count", lineno) for t in rest])
        elif directive == "rotor":
            usage = "rotor [<name> :] <v> <position>"
            name, rest = _config_name(tokens[1:], usage, lineno)
            if len(rest) != 2:
                raise InstanceFormatError(f"expected: {usage}", lineno)
            v = ids.get(rest[0])
            if v is None:
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
        elif directive == "graph":
            raise InstanceFormatError("duplicate graph line", lineno)
        else:
            raise InstanceFormatError(f"unknown directive {directive!r}", lineno)

    if n is None:
        raise InstanceFormatError("missing graph line")
    if not has_edge_lines:
        # the runs are the edges; vertices without a ribbon line are sinks
        for v, (runs_v, _) in ribbon_lines.items():
            row = rows[v]
            degree = 0
            for head, count in runs_v:
                row[head] += count
                degree += count
            out_degrees[v] = degree
    # each list row becomes its tuple and is freed at once, so the matrix
    # is never held twice
    for u, row in enumerate(rows):
        rows[u] = tuple(row)
    mult = tuple(rows)

    if has_edge_lines:
        for v, (runs_v, lineno) in ribbon_lines.items():
            if not runs_match_row(runs_v, mult[v], out_degrees[v]):
                raise InstanceFormatError(
                    f"ribbon runs at vertex {v} do not match edge multiplicities",
                    lineno,
                )
    # the default order (heads ascending), only where no ribbon line gives one
    runs = []
    for v, row in enumerate(mult):
        if v in ribbon_lines:
            runs.append(ribbon_lines[v][0])
        else:
            runs.append(out_edges(row).edges)
    degs = tuple(out_degrees)
    graph = DirectedMultigraph.from_checked_rows(n, mult)
    ribbon = RibbonStructure.from_checked_runs(tuple(runs), degs)

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
    for name, chips in chip_lines.items():
        positions = rotor_lines.get(name, {})
        rotors = tuple(
            [None if degs[v] == 0 else positions.get(v, 0) for v in range(n)]
        )
        configs[name] = ChipRotorConfig(chips, rotors)
    return Instance(graph, ribbon, configs)


def serialize_instance(instance: Instance) -> str:
    """Canonical text: merged ribbon runs, explicit rotors, no edge lines.

    The ribbon runs state every out-edge, so a ribbon that does not match
    the graph raises ValueError.  parse(serialize(i)) equals i whenever
    i's ribbon runs are already canonical (adjacent equal heads merged),
    which holds for every generated instance.  An integer past the
    int-string limit raises ValueError naming the limit.
    """
    g = instance.graph
    instance.ribbon.validate_against(g)
    out = [f"graph {g.n}"]
    try:
        ribbon = instance.ribbon.canonical()
        for v in range(g.n):
            if ribbon.degree(v):
                runs = " ".join(f"{h}:{c}" for h, c in ribbon.runs[v])
                out.append(f"ribbon {v} : {runs}")
        for name, config in instance.configs.items():
            prefix = "" if name == DEFAULT_CONFIG_NAME else f"{name} : "
            out.append(f"chips {prefix}" + " ".join(str(c) for c in config.chips))
            for v, pos in enumerate(config.rotors):
                if pos is not None:
                    out.append(f"rotor {prefix}{v} {pos}")
    except ValueError:
        # str() refuses an int only for its length
        raise ValueError(digit_limit_message("an instance integer")) from None
    return "\n".join(out) + "\n"
