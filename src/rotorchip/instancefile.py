"""Line-oriented instance files: graph, ribbon runs, named configurations.

Grammar (one directive per line, ``#`` starts a comment, blank lines
ignored):

    graph <n>
    edge <u> <v> <mult>
    ribbon <v> : <head>:<count> <head>:<count> ...
    chips [<name> :] <c0> <c1> ... <c_{n-1}>
    rotor [<name> :] <v> <position>

The ``graph`` line comes first, with at most ``MAX_VERTICES`` vertices:
the graph is stored as a dense n x n matrix, so a larger count is
rejected with InstanceFormatError (CLI exit 2) before anything is
allocated.  Loading an instance costs time linear in the file plus
O(n^2) for that matrix, 8 bytes per entry (``scripts/parse_timing.py``
measures time and peak).  Multiplicities
and chip counts are unbounded decimals; chips may be negative.  A
``ribbon`` line fixes the cyclic out-edge order at one vertex; vertices
without one get the default order (heads ascending, parallel edges
consecutive).
``chips`` and ``rotor`` lines without a name belong to the configuration
named "default".  Rotor positions are flat indices into the cyclic
order; non-sink vertices without a ``rotor`` line sit at position 0,
sinks carry no rotor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InstanceFormatError
from .multigraph import DirectedMultigraph, out_edges
from .rotorrouting import ChipRotorConfig, RibbonStructure, runs_match_row

DEFAULT_CONFIG_NAME = "default"

# the dense multiplicity matrix holds n^2 entries of 8 bytes: at 4096
# vertices a parse peaks at 135 MB (tracemalloc), edges or none
MAX_VERTICES = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")


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
    The first error in file order is raised with its line number; the
    graph and ribbon are then built without the constructors' checks,
    which the parser has already made.
    """
    n: int | None = None
    ids: dict[str, int] = {}
    rows: list = []
    out_degrees: list[int] = []
    ribbon_lines: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
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
                head_s, sep, count_s = tok.partition(":")
                if not sep:
                    raise InstanceFormatError(
                        f"ribbon run {tok!r} must look like <head>:<count>", lineno
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
                runs_v.append((head, count))
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
            chip_lines[name] = tuple(_int(t, "chip count", lineno) for t in rest)
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
    # each list row becomes its tuple and is freed at once, so the matrix
    # is never held twice
    for u, row in enumerate(rows):
        rows[u] = tuple(row)
    mult = tuple(rows)

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
            None if degs[v] == 0 else positions.get(v, 0) for v in range(n)
        )
        configs[name] = ChipRotorConfig(chips, rotors)
    return Instance(graph, ribbon, configs)


def serialize_instance(instance: Instance) -> str:
    """Canonical text: sorted edges, merged ribbon runs, explicit rotors.

    parse(serialize(i)) equals i whenever i's ribbon runs are already
    canonical (adjacent equal heads merged), which holds for every
    generated instance.
    """
    g = instance.graph
    out = [f"graph {g.n}"]
    for u in range(g.n):
        for v in range(g.n):
            if g.mult[u][v]:
                out.append(f"edge {u} {v} {g.mult[u][v]}")
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
    return "\n".join(out) + "\n"
