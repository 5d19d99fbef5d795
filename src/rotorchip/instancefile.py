"""Line-oriented instance files: graph, ribbon runs, named configurations.

Grammar (one directive per line, ``#`` starts a comment, blank lines
ignored):

    graph <n>
    ribbon <v> : <head>:<count> <head>:<count> ...
    edge <u> <v> <mult>
    chips [<name> :] <c0> <c1> ... <c_{n-1}>
    rotor [<name> :] <v> <position>

The ``graph`` line comes first, with at most ``MAX_VERTICES`` vertices;
a larger count is rejected with InstanceFormatError (CLI exit 2) before
anything is allocated.  Loading an instance costs time and memory linear
in the file and in n: the edges are stored once, as the ribbon's runs,
and the instance's graph is ``ribbon.graph`` on the same tuple; no n x n
matrix is built (``scripts/bench.py parse`` measures time and peak).
Multiplicities and chip counts are decimals of at most
``sys.get_int_max_str_digits()`` digits (4300 by default, none with
``PYTHONINTMAXSTRDIGITS=0``); chips may be negative.

A ``ribbon`` line lists the out-edges of one vertex in their cyclic
order, as runs of parallel edges: ``h:c`` stands for c consecutive
edges to h.  In a file without ``edge`` lines the runs are the edges: a
vertex's multiplicity towards h is the total of its runs to h, and a
vertex without a ribbon line is a sink.  The same run token comes back
on line after line (in canonical spelling a file has at most n heads
times its distinct counts of them), so the parser converts and checks
each distinct token once per file.  The spellings ``serialize_instance``
writes cost one table lookup per token: vertices, rotor positions and
run counts below n are looked up among the decimals ``0`` to ``n-1``,
and a rotor line without a name, or with one an earlier rotor line
gave, is split without the name check.  Any other spelling takes the
general path with its checks and messages.  ``serialize_instance``
writes this spelling:

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
from operator import itemgetter

from .errors import InstanceFormatError
from .multigraph import DirectedMultigraph, OutEdges, head_totals
from .rotorrouting import ChipRotorConfig, RibbonStructure

DEFAULT_CONFIG_NAME = "default"

# the exact solve has no budget: on a 4096-vertex graph that fills in
# densely its O(n^3) elimination takes about a day
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
        if not self.configs:
            raise InstanceFormatError("instance has no configuration (no chips line)")
        raise InstanceFormatError(
            "no default configuration and the choice is ambiguous"
        )


def _int(token: str, what: str, line: int, ids: dict[str, int] | None = None) -> int:
    """The integer a token spells: its entry in ``ids``, else ``int``'s with its checks."""
    if ids is not None and token in ids:
        return ids[token]
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

    Each token is converted once.  Vertex tokens, rotor positions,
    multiplicities and run counts are first looked up in ``ids``, the
    canonical spellings ``str(i)``, ``0 <= i < n``; a hit is always in
    range.  A run token first seen in the file whose head and count are
    both hits, with a count of at least 1 and a head other than its
    line's vertex, becomes its ``(head, count)`` tuple with no further
    check.  A rotor line of three tokens, neither of them ``:`` past the
    directive, or of five with ``:`` third and a name that an earlier
    rotor line passed, is split without ``_config_name``.  A chips line
    is converted by ``int`` alone.  Every other spelling (``+3``,
    ``007``, a count of n or more, a new name) takes ``_config_name`` and
    ``_int``, which are also the only source of error messages, so it
    gets the same checks and messages.
    Each distinct run token is converted and checked once: a token that
    passed every check is kept, for this call only, as its ``(head,
    count)`` tuple, and where it comes back only the loop check is left,
    so equal runs share one tuple.
    The first error in file order is raised with its line number, except
    that the checks needing the whole file run after the loop, so any
    error the loop finds comes first: ribbon runs against edge lines
    (with the ribbon line's number), and, without a line number, a rotor
    at a sink, a rotor position out of range and rotor lines without a
    chips line.  ``rotor 0 5`` on line 5, past vertex 0's degree, then
    ``bogus`` on line 6 reports line 6.  The runs are wrapped as a graph
    without the constructors' checks, the ribbon is that graph's run
    order, and the instance holds ``ribbon.graph``: one edge store.
    Edge lines add up per tail in a dict, which also gives
    the default order (heads ascending) where no ribbon line does.
    """
    n: int | None = None
    ids: dict[str, int] = {}
    # per tail of an edge line, its multiplicity towards each head
    edge_lines: dict[int, dict[int, int]] = {}
    ribbon_lines: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
    # each run token that passed every check, as its (head, count) tuple
    checked_runs: dict[str, tuple[int, int]] = {}
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
        elif directive == "edge":
            if len(tokens) != 4:
                raise InstanceFormatError("expected: edge <u> <v> <mult>", lineno)
            u = _int(tokens[1], "edge tail", lineno, ids)
            v = _int(tokens[2], "edge head", lineno, ids)
            m = _int(tokens[3], "edge multiplicity", lineno, ids)
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError("edge endpoint out of range", lineno)
            if u == v:
                raise InstanceFormatError("loops are not allowed", lineno)
            if m < 0:
                raise InstanceFormatError("edge multiplicity must be >= 0", lineno)
            heads = edge_lines.get(u)
            if heads is None:
                # even a zero multiplicity makes the ribbons checked against the edges
                heads = edge_lines[u] = {}
            if m:
                heads[v] = heads.get(v, 0) + m
        elif directive == "ribbon":
            if len(tokens) < 4 or tokens[2] != ":":
                raise InstanceFormatError(
                    "expected: ribbon <v> : <head>:<count> ...", lineno
                )
            v = _int(tokens[1], "ribbon vertex", lineno, ids)
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
                    head = ids.get(head_s)
                    count = ids.get(count_s)
                    # a canonical head and count >= 1, not a loop: every check passes
                    if head is None or not count or head == v:
                        if not sep:
                            raise InstanceFormatError(
                                f"ribbon run {tok!r} must look like <head>:<count>",
                                lineno,
                            )
                        if head is None:
                            head = _int(head_s, "run head", lineno)
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
            try:
                chips = [int(t) for t in rest]
            except ValueError:
                # converting again, _int names the first faulty token
                chips = [_int(t, "chip count", lineno) for t in rest]
            chip_lines[name] = tuple(chips)
        elif directive == "rotor":
            # the serializer's two shapes: no name, or a name that an
            # earlier rotor line has already passed through _config_name
            if len(tokens) == 3 and tokens[1] != ":" and tokens[2] != ":":
                name, v_s, pos_s = DEFAULT_CONFIG_NAME, tokens[1], tokens[2]
            elif len(tokens) == 5 and tokens[2] == ":" and tokens[1] in rotor_lines:
                name, v_s, pos_s = tokens[1], tokens[3], tokens[4]
            else:
                usage = "rotor [<name> :] <v> <position>"
                name, rest = _config_name(tokens[1:], usage, lineno)
                if len(rest) != 2:
                    raise InstanceFormatError(f"expected: {usage}", lineno)
                v_s, pos_s = rest
            v = ids.get(v_s)
            if v is None:
                v = _int(v_s, "rotor vertex", lineno)
            pos = ids.get(pos_s)
            if pos is None:
                pos = _int(pos_s, "rotor position", lineno)
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
    if edge_lines:
        for v, (runs_v, lineno) in ribbon_lines.items():
            if head_totals(runs_v) != edge_lines.get(v, {}):
                raise InstanceFormatError(
                    f"ribbon runs at vertex {v} do not match edge multiplicities",
                    lineno,
                )
    # a vertex without a ribbon line gets heads ascending, or is a sink
    # when the runs are the edges
    runs = [
        ribbon_lines[v][0] if v in ribbon_lines else tuple(sorted(edge_lines.get(v, {}).items()))
        for v in range(n)
    ]
    adj = tuple([OutEdges(sum(map(itemgetter(1), runs_v)), runs_v) for runs_v in runs])
    ribbon = RibbonStructure.of(DirectedMultigraph.from_checked_adjacency(adj))

    for name, positions in rotor_lines.items():
        if name not in chip_lines:
            raise InstanceFormatError(
                f"rotor lines for configuration {name!r} without a chips line"
            )
        for v, pos in positions.items():
            if adj[v].degree == 0:
                raise InstanceFormatError(
                    f"rotor position for sink vertex {v} in configuration {name!r}"
                )
            if not 0 <= pos < adj[v].degree:
                raise InstanceFormatError(
                    f"rotor position {pos} out of range at vertex {v} "
                    f"in configuration {name!r}"
                )

    configs: dict[str, ChipRotorConfig] = {}
    for name, chips in chip_lines.items():
        positions = rotor_lines.get(name, {})
        rotors = tuple(
            [None if out.degree == 0 else positions.get(v, 0) for v, out in enumerate(adj)]
        )
        configs[name] = ChipRotorConfig(chips, rotors)
    return Instance(ribbon.graph, ribbon, configs)


def serialize_instance(instance: Instance) -> str:
    """Canonical text: merged ribbon runs, explicit rotors, no edge lines.

    The ribbon runs state every out-edge, so a ribbon whose graph does
    not equal the instance's graph raises ValueError.  parse(serialize(i))
    equals i whenever i's ribbon runs are already canonical (adjacent
    equal heads merged), which holds for every generated instance.  An integer past the
    int-string limit raises ValueError naming the limit.
    """
    g = instance.graph
    if instance.ribbon.graph != g:
        raise ValueError("ribbon runs do not match the graph's edge multiplicities")
    out = [f"graph {g.n}"]
    try:
        for v, (degree, runs) in enumerate(instance.ribbon.canonical().adjacency()):
            if degree:
                out.append(f"ribbon {v} : " + " ".join(f"{h}:{c}" for h, c in runs))
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
