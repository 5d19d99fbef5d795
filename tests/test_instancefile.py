from __future__ import annotations

import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_reference import parse_instance as reference_parse
from parser_reference import with_edge_lines

from rotorchip.bruteforce import graph_from_rows
from rotorchip.chipfiring import bounded_chip_game, halts
from rotorchip.errors import InstanceFormatError
from rotorchip.generators import FAMILIES, gen_instance, random_ribbon
from rotorchip.instancefile import (
    MAX_VERTICES,
    Instance,
    parse_instance,
    serialize_instance,
)
from rotorchip.intlinalg import nonneg_reduced_solution, period_basis, primitive_period_vector
from rotorchip.multigraph import DirectedMultigraph, scc_decompose, strongly_connected_balance
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure, default_ribbon

BASIC = """\
# two-vertex example
graph 2
edge 0 1 2
edge 1 0 1
ribbon 0 : 1:2
ribbon 1 : 0:1
chips 1 0
rotor 0 1
"""

# BASIC as the serializer writes it: the ribbon runs are the edges
RIBBON_ONLY = BASIC.replace("edge 0 1 2\nedge 1 0 1\n", "")


class TestParse:
    def test_basic_instance(self) -> None:
        inst = parse_instance(BASIC)
        assert inst.graph.n == 2
        assert inst.graph.mult == ((0, 2), (1, 0))
        assert inst.ribbon.runs[0] == ((1, 2),)
        cfg = inst.config("default")
        assert cfg.chips == (1, 0)
        assert cfg.rotors == (1, 0)

    def test_missing_rotor_defaults_to_zero(self) -> None:
        text = BASIC.replace("rotor 0 1\n", "")
        cfg = parse_instance(text).config("default")
        assert cfg.rotors == (0, 0)

    def test_missing_ribbon_defaults_to_ascending(self) -> None:
        text = "graph 2\nedge 0 1 2\nedge 1 0 1\nchips 0 0\n"
        inst = parse_instance(text)
        assert inst.ribbon.runs == (((1, 2),), ((0, 1),))

    def test_named_configs(self) -> None:
        text = BASIC + "chips src : 0 1\nrotor src : 0 0\n"
        inst = parse_instance(text)
        assert sorted(inst.configs) == ["default", "src"]
        assert inst.config("src").chips == (0, 1)
        assert inst.config("src").rotors == (0, 0)

    def test_sink_gets_none_rotor(self) -> None:
        text = "graph 2\nedge 0 1 1\nchips 1 0\n"
        cfg = parse_instance(text).config("default")
        assert cfg.rotors == (0, None)

    def test_ribbon_only_runs_add_up_and_unlisted_vertices_are_sinks(self) -> None:
        text = "graph 3\nribbon 0 : 1:2 2:1 1:1\nribbon 1 : 0:1\nchips 2 0 0\n"
        inst = parse_instance(text)
        assert inst.graph.mult == ((0, 3, 1), (1, 0, 0), (0, 0, 0))
        assert inst.ribbon.runs == (((1, 2), (2, 1), (1, 1)), ((0, 1),), ())
        assert inst.ribbon.degrees == (4, 1, 0)
        assert inst.config("default").rotors == (0, 0, None)

    def test_comments_and_blank_lines(self) -> None:
        text = "\n# leading comment\ngraph 1\n\nchips 3   # trailing comment\n"
        inst = parse_instance(text)
        assert inst.config("default").chips == (3,)


class TestParseErrors:
    def test_loop_edge_reports_line(self) -> None:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance("graph 2\nedge 1 1 1\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_ribbon_total_mismatch_reports_ribbon_line(self) -> None:
        text = "graph 2\nedge 0 1 2\nedge 1 0 1\nribbon 0 : 1:1\nchips 0 0\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.line == 4

    def test_ribbon_missing_a_head_reports_ribbon_line(self) -> None:
        # the run totals match every head they name, but 0 -> 2 has no run
        text = "graph 3\nribbon 0 : 1:2\nedge 0 1 2\nedge 0 2 1\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.line == 2
        assert "vertex 0 do not match" in str(exc.value)

    @pytest.mark.parametrize("edge, vertex, line", [
        ("edge 0 1 2", 1, 4), ("edge 1 0 0", 0, 3),
    ])
    def test_one_edge_line_makes_every_ribbon_line_match_the_edges(
        self, edge: str, vertex: int, line: int
    ) -> None:
        # any edge line, even of multiplicity 0, makes the edge lines the
        # source of the multiplicities, which every ribbon line must match
        text = RIBBON_ONLY.replace("chips", f"{edge}\nchips")
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == (
            f"line {line}: ribbon runs at vertex {vertex} do not match "
            "edge multiplicities"
        )

    def test_edge_before_graph(self) -> None:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance("edge 0 1 1\ngraph 2\n")
        assert exc.value.line == 1

    def test_duplicate_chips(self) -> None:
        with pytest.raises(InstanceFormatError):
            parse_instance("graph 1\nchips 0\nchips 1\n")

    def test_rotor_without_chips_line(self) -> None:
        with pytest.raises(InstanceFormatError):
            parse_instance("graph 2\nedge 0 1 1\nrotor src : 0 0\n")

    def test_rotor_at_sink_rejected(self) -> None:
        with pytest.raises(InstanceFormatError):
            parse_instance("graph 2\nedge 0 1 1\nchips 0 0\nrotor 1 0\n")

    def test_rotor_position_out_of_range(self) -> None:
        with pytest.raises(InstanceFormatError):
            parse_instance("graph 2\nedge 0 1 1\nchips 0 0\nrotor 0 5\n")

    def test_unknown_directive(self) -> None:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance("graph 1\nbogus 1 2\n")
        assert exc.value.line == 2

    def test_vertex_count_over_limit(self) -> None:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(f"# too big\ngraph {MAX_VERTICES + 1}\nedge 0 1 1\n")
        assert exc.value.line == 2
        assert f"limit of {MAX_VERTICES}" in str(exc.value)

    def test_multiplicity_past_the_digit_limit(self, digit_limit: int) -> None:
        big = "9" * (digit_limit + 700)
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(f"graph 2\nedge 0 1 {big}\n")
        assert str(exc.value) == (
            "line 2: edge multiplicity has more digits than the interpreter's "
            f"int-string limit of {digit_limit}"
        )

    def test_chip_count_mismatch(self) -> None:
        with pytest.raises(InstanceFormatError):
            parse_instance("graph 2\nchips 1\n")

    def test_unknown_config_name_lookup(self) -> None:
        inst = parse_instance(BASIC)
        with pytest.raises(InstanceFormatError):
            inst.config("nope")


def _parse_peak_bytes(text: str) -> int:
    tracemalloc.start()
    try:
        parse_instance(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParseMemory:
    @pytest.mark.parametrize("edges", [True, False], ids=["cycle", "edgeless"])
    def test_dense_matrix_is_held_once(self, edges: bool) -> None:
        # the bound is one dense matrix and a half; a parse now builds no
        # matrix at all and peaks at 0.2-0.5 MB here, against 8.6 MB
        # while it filled one
        n = 1024
        text = f"graph {n}\n"
        if edges:
            text += "".join(f"edge {u} {(u + 1) % n} 1\n" for u in range(n))
        assert _parse_peak_bytes(text) < 1.5 * 8 * n * n

    @pytest.mark.parametrize("edge_lines", [False, True], ids=["ribbon-only", "with-edges"])
    def test_bidirected_cycle_at_the_cap_costs_the_file(self, edge_lines: bool) -> None:
        # measured 2.0 MB ribbon-only and 3.6 MB with edge lines, for
        # files of 0.11 and 0.25 MB; a dense matrix peaked at 136 MB
        n = MAX_VERTICES
        text = f"graph {n}\n"
        if edge_lines:
            text += "".join(
                f"edge {v} {(v + d) % n} 1\n" for v in range(n) for d in (1, -1)
            )
        text += "".join(
            f"ribbon {v} : {(v + 1) % n}:1 {(v - 1) % n}:1\n" for v in range(n)
        )
        assert _parse_peak_bytes(text) < 10e6

    def test_comparing_and_hashing_cycles_at_the_cap_costs_the_runs(self) -> None:
        # two parsed bidirected cycles: equality and hashing read the
        # per-head totals of the runs, measured at a 1.4 MB peak, where
        # building both dense views for them peaked at 256 MB
        n = MAX_VERTICES
        text = f"graph {n}\n" + "".join(
            f"ribbon {v} : {(v + 1) % n}:1 {(v - 1) % n}:1\n" for v in range(n)
        )
        a, b = parse_instance(text).graph, parse_instance(text).graph
        tracemalloc.start()
        try:
            assert a == b and hash(a) == hash(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"

    def test_repeated_runs_share_one_tuple(self) -> None:
        # a ribbon-only eulerian file on 500 vertices holds 89,698 runs,
        # most of them repeats of a token seen earlier in the file; held
        # once per run, their tuples alone took the parse past 8 MB
        text = serialize_instance(gen_instance("eulerian", 500, 0))
        assert _parse_peak_bytes(text) < 6e6

    def test_generated_instance_holds_its_edges_once(self) -> None:
        # the instance's graph is its ribbon's graph: measured 1.76 MB
        # held, where a graph with its own runs beside the ribbon's held
        # 2.58 MB
        tracemalloc.start()
        try:
            inst = gen_instance("heavy-multiplicity", MAX_VERTICES, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert inst.graph.n == MAX_VERTICES
        assert held < 2.0e6, f"held {held / 1e6:.2f} MB"


class TestRoundTrip:
    def test_basic_round_trip(self) -> None:
        inst = parse_instance(BASIC)
        again = parse_instance(serialize_instance(inst))
        assert again.graph == inst.graph
        assert again.ribbon == inst.ribbon
        assert again.configs == inst.configs

    def test_named_config_round_trip(self) -> None:
        text = BASIC + "chips src : 0 1\nrotor src : 0 0\n"
        inst = parse_instance(text)
        again = parse_instance(serialize_instance(inst))
        assert again.configs == inst.configs

    def test_generated_instances_round_trip(self) -> None:
        for family in ("eulerian", "strongly-connected", "heavy-multiplicity", "random"):
            inst = gen_instance(family, 3, seed=21)
            blob = serialize_instance(inst)
            again = parse_instance(blob)
            assert again.graph == inst.graph
            assert again.ribbon == inst.ribbon
            assert again.configs == inst.configs
            assert serialize_instance(again) == blob

    def test_serializer_writes_no_edge_lines(self) -> None:
        assert serialize_instance(parse_instance(BASIC)) == (
            "graph 2\nribbon 0 : 1:2\nribbon 1 : 0:1\nchips 1 0\nrotor 0 1\nrotor 1 0\n"
        )

    def test_ribbon_that_does_not_match_the_graph_raises(self) -> None:
        # written out, the runs would silently become another graph
        inst = Instance(
            DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)]),
            RibbonStructure(runs=(((1, 1),), ((0, 1),))),
        )
        with pytest.raises(ValueError) as exc:
            serialize_instance(inst)
        assert str(exc.value) == (
            "ribbon runs do not match the graph's edge multiplicities"
        )

    def test_multiplicity_past_the_digit_limit(self, digit_limit: int) -> None:
        big = 10 ** digit_limit  # one digit past the limit
        inst = Instance(
            DirectedMultigraph.from_edges(2, [(0, 1, big), (1, 0, 1)]),
            RibbonStructure(runs=(((1, big),), ((0, 1),))),
            {"default": ChipRotorConfig((0, 0), (0, 0))},
        )
        with pytest.raises(ValueError) as exc:
            serialize_instance(inst)
        assert str(exc.value) == (
            "an instance integer has more digits than the interpreter's "
            f"int-string limit of {digit_limit}"
        )


class TestSingleConfig:
    def test_default_preferred(self) -> None:
        inst = parse_instance(BASIC + "chips alt : 0 1\n")
        assert inst.single_config().chips == (1, 0)

    def test_unique_named_config(self) -> None:
        text = "graph 1\nchips only : 2\n"
        assert parse_instance(text).single_config().chips == (2,)

    def test_ambiguous_raises(self) -> None:
        text = "graph 1\nchips a : 1\nchips b : 2\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text).single_config()
        assert str(exc.value) == "no default configuration and the choice is ambiguous"

    def test_no_configs(self) -> None:
        inst = parse_instance("graph 2\nedge 0 1 1\n")
        assert isinstance(inst, Instance)
        with pytest.raises(InstanceFormatError) as exc:
            inst.single_config()
        assert str(exc.value) == "instance has no configuration (no chips line)"


# ---------------------------------------------------------------------------
# The parser against its verbatim predecessor, on mutated generated files

# tokens that are integers only by a lenient reading, or not at all
_ODD_TOKENS = ("+3", "007", "1_0", "-0", "0x1", "1.0", "", "x", ":", "1:", ":1", "1:2:3")


def _outcome(parse, text: str):
    try:
        inst = parse(text)
    except ValueError as exc:  # InstanceFormatError, or a constructor's check
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return (
        "parsed",
        inst,
        repr(inst),
        inst.ribbon.degrees,
        inst.graph.mult,
    )


def _directives(text: str) -> list[list[str]]:
    """The tokens of each line, as both parsers read them."""
    return [line.split("#", 1)[0].split() for line in text.splitlines()]


def _reference_outcome(text: str):
    """The reference's outcome, reading a file without edge lines by its runs.

    The reference takes every file's edges from its edge lines, so it
    rejects the ribbon lines of an edge-less file as a mismatch with no
    edges.  Such a file means what it means with its runs copied out as
    edge lines at its end: there they cannot change which line fails
    first, and after the loop the runs match them.
    """
    outcome = _outcome(reference_parse, text)
    lines = _directives(text)
    if (
        outcome[0] == "raised"
        and outcome[2].endswith("do not match edge multiplicities")
        and not any(tokens[:1] == ["edge"] for tokens in lines)
    ):
        edges = "".join(
            "edge {} {} {}\n".format(tokens[1], *run.split(":"))
            for tokens in lines if tokens[:1] == ["ribbon"]
            for run in tokens[3:]
        )
        outcome = _outcome(reference_parse, text + edges)
    return outcome


def _replacement(draw, n: int) -> str:
    kind = draw(st.sampled_from(("out-of-range", "odd", "small", "huge")))
    if kind == "out-of-range":
        return str(draw(st.sampled_from((n, n + 1, -1, -n, MAX_VERTICES + 1))))
    if kind == "odd":
        return draw(st.sampled_from(_ODD_TOKENS))
    if kind == "small":
        return str(draw(st.integers(min_value=0, max_value=n + 1)))
    return str(draw(st.integers(min_value=2 ** 62, max_value=2 ** 70)))


def _mutate(draw, lines: list[list[str]], n: int) -> None:
    """One in-place edit of a tokenized file."""
    op = draw(st.sampled_from((
        "drop-line", "dup-line", "swap-lines", "drop-token", "dup-token",
        "swap-tokens", "replace-token", "replace-run-part", "comment", "blank",
        "copy-run",
    )))
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[i]
    if op == "copy-run":
        # a run token seen on one ribbon line comes back on another, where
        # it may be a loop: the parser checks such a repeat only for that
        ribbons = [tokens for tokens in lines if tokens[:1] == ["ribbon"]]
        if ribbons:
            source = draw(st.sampled_from(ribbons))
            target = draw(st.sampled_from(ribbons))
            if len(source) > 3:
                tok = source[draw(st.integers(min_value=3, max_value=len(source) - 1))]
                k = draw(st.integers(min_value=3, max_value=max(3, len(target) - 1)))
                if draw(st.booleans()) and k < len(target):
                    target[k] = tok
                else:
                    target.insert(k, tok)
    elif op == "drop-line":
        del lines[i]
    elif op == "dup-line":
        lines.insert(i, list(line))
    elif op == "swap-lines":
        j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "comment":
        where = draw(st.sampled_from(("before", "after", "inline")))
        if where == "inline":
            k = draw(st.integers(min_value=0, max_value=len(line)))
            line.insert(k, "#" + draw(st.sampled_from(("", " 1 2", "edge 0 1 1"))))
        else:
            lines.insert(i + (where == "after"), ["#", "comment"])
    elif op == "blank":
        lines.insert(i, draw(st.sampled_from(([], [" "], ["\t"]))))
    elif line:
        k = draw(st.integers(min_value=0, max_value=len(line) - 1))
        if op == "drop-token":
            del line[k]
        elif op == "dup-token":
            line.insert(k, line[k])
        elif op == "swap-tokens":
            j = draw(st.integers(min_value=0, max_value=len(line) - 1))
            line[k], line[j] = line[j], line[k]
        elif op == "replace-token":
            line[k] = _replacement(draw, n)
        else:
            head, sep, count = line[k].partition(":")
            if draw(st.booleans()):
                head = _replacement(draw, n)
            else:
                count = _replacement(draw, n)
            line[k] = head + sep + count


@st.composite
def _mutated_files(draw, edge_lines: bool):
    """A generated file, in the spelling with or without edge lines, mutated."""
    family = draw(st.sampled_from(FAMILIES))
    size = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    inst = gen_instance(family, size, seed, digits=draw(st.sampled_from((1, 18))))
    text = serialize_instance(inst)
    if edge_lines:
        text = with_edge_lines(text, inst.graph)
    if draw(st.booleans()):
        # a named configuration too, with a rotor line for every non-sink
        # vertex as the serializer writes it, so the name paths are
        # exercised, a name seen on an earlier rotor line among them
        chips = " ".join(str(draw(st.integers(-2, 3))) for _ in range(inst.graph.n))
        text += f"chips src : {chips}\n" + "".join(
            f"rotor src : {v} {draw(st.integers(0, degree - 1))}\n"
            for v, degree in enumerate(inst.ribbon.degrees) if degree
        )
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if lines:
            _mutate(draw, lines, inst.graph.n)
    sep = draw(st.sampled_from((" ", "  ", "\t")))
    return "\n".join(sep.join(line) for line in lines) + "\n"


class TestAgainstReferenceParser:
    @given(_mutated_files(edge_lines=True))
    @settings(max_examples=600, deadline=None)
    def test_same_instance_or_same_error(self, text: str) -> None:
        # a mutation can remove every edge line, leaving a ribbon-only file
        assert _outcome(parse_instance, text) == _reference_outcome(text)

    @pytest.mark.parametrize("token", _ODD_TOKENS + ("-1", "2", str(10 ** 20)))
    @pytest.mark.parametrize("index, template", (
        (2, "edge {} 1 2"), (2, "edge 0 {} 2"), (2, "edge 0 1 {}"),
        (4, "ribbon {} : 1:2"), (4, "ribbon 0 : {}:2"), (4, "ribbon 0 : 1:{}"),
        (6, "chips {} 0"), (7, "rotor {} 1"), (7, "rotor 0 {}"),
        # a named rotor line after another one, and before its chips line
        (7, "rotor 0 1\nchips src : 0 1\nrotor src : 1 0\nrotor src : {} 1"),
        (7, "rotor 0 1\nchips src : 0 1\nrotor src : 1 0\nrotor src : 0 {}"),
        (6, "rotor src : 1 0\nrotor src : {} 1\nchips src : 0 1\nchips 1 0"),
        # a run first seen after a checked one, its count n or more for most tokens
        (4, "ribbon 0 : 1:1 1:{}"), (5, "ribbon 1 : {}:1"),
    ))
    def test_token_in_every_integer_slot(self, token: str, index: int, template: str) -> None:
        lines = BASIC.splitlines()
        lines[index] = template.format(token)
        text = "\n".join(lines) + "\n"
        assert _outcome(parse_instance, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("line", (
        "edge 9 1 x", "edge 0 9 x", "edge 1 1 x", "edge 1 1 -1", "edge 9 9 -1",
        "ribbon 9 : 1:x", "ribbon 0 : 9:x", "ribbon 0 : 0:x", "ribbon 0 : 0:0",
        "ribbon 0 : 9:0 x", "rotor 9 x", "rotor src : 9 x", "chips alt : 1 x",
        # after BASIC's rotor line: a bad name, and a name seen but misplaced
        "rotor 9 : 0 x", "rotor default 0 : 1", "rotor default : 9 x",
        "rotor default : 0 1 x",
    ))
    def test_two_faults_in_one_line(self, line: str) -> None:
        # the reference decides which of the two faults is reported
        text = BASIC.replace("ribbon 0 : 1:2\n", "") + line + "\n"
        assert _outcome(parse_instance, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("ribbons, line", (
        # checked on vertex 2's line, the token is a loop on vertex 0's
        ("ribbon 2 : 0:1\nribbon 0 : 0:1", 3),
        ("ribbon 2 : 1:1 +0:01\nribbon 1 : 2:1\nribbon 0 : 2:1 +0:01", 4),
        # a loop that repeats a checked token, before a malformed token
        ("ribbon 1 : 0:1\nribbon 0 : 1:1 0:1 x", 3),
        ("ribbon 1 : 0:1\nribbon 0 : 0:1 9:1", 3),
        # a first-seen loop, before an out-of-range head
        ("ribbon 0 : 0:1 9:1", 2),
        # an invalid token on two lines: the first is named
        ("ribbon 0 : 1:x\nribbon 2 : 1:x", 2),
        ("ribbon 0 : 1:1 9:1\nribbon 2 : 9:1", 2),
        ("ribbon 0 : 2:0\nribbon 1 : 2:0", 2),
        ("ribbon 0 : 1:1 2:1\nribbon 1 : 1:1", 3),
    ))
    def test_repeated_run_tokens_fail_in_file_order(self, ribbons: str, line: int) -> None:
        for edges in ("", "edge 0 1 1\n"):
            text = f"graph 3\n{edges}{ribbons}\n"
            outcome = _outcome(parse_instance, text)
            assert outcome == _reference_outcome(text)
            assert outcome[0] == "raised"
            assert outcome[3] == line + (edges != "")


# ---------------------------------------------------------------------------
# Ribbon-only files: the runs state the edges

# the faults of a whole file rather than of one line; every other error
# names its line
_WHOLE_FILE_FAULTS = (
    "missing graph line", "rotor lines for configuration", "rotor position",
)


class TestRibbonOnly:
    @given(
        st.sampled_from(FAMILIES),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2 ** 16),
        st.sampled_from((1, 18)),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_both_spellings_parse_alike(
        self, family: str, size: int, seed: int, digits: int, named: bool
    ) -> None:
        inst = gen_instance(family, size, seed, digits=digits)
        text = serialize_instance(inst)
        if named:
            rotors = inst.configs["default"].rotors
            text += "chips src : " + " ".join(["1"] * inst.graph.n) + "\n"
            text += "".join(
                f"rotor src : {v} {pos}\n"
                for v, pos in enumerate(rotors) if pos is not None
            )
        assert not any(tokens[:1] == ["edge"] for tokens in _directives(text))
        ribbon_only = _outcome(parse_instance, text)
        assert ribbon_only[0] == "parsed"
        assert ribbon_only == _outcome(
            parse_instance, with_edge_lines(text, inst.graph)
        )
        parsed = ribbon_only[1]
        assert (parsed.graph, parsed.ribbon) == (inst.graph, inst.ribbon)
        assert parsed.configs["default"] == inst.configs["default"]
        assert len(parsed.configs) == 1 + named

    @given(_mutated_files(edge_lines=False))
    @settings(max_examples=600, deadline=None)
    def test_mutated_files_parse_or_name_the_faulty_line(self, text: str) -> None:
        try:
            inst = parse_instance(text)
        except InstanceFormatError as exc:
            assert exc.line is not None or str(exc).startswith(_WHOLE_FILE_FAULTS)
        else:
            # the parser skipped the constructors' checks: they must pass
            ribbon = RibbonStructure(inst.ribbon.runs)
            assert ribbon.degrees == inst.ribbon.degrees
            assert ribbon.graph == graph_from_rows(inst.graph.mult)
        assert _outcome(parse_instance, text) == _reference_outcome(text)


# ---------------------------------------------------------------------------
# A parsed graph keeps the file's runs: their order must not show


@st.composite
def _shuffled_run_files(draw) -> tuple[tuple[tuple[int, ...], ...], str]:
    """A random graph's rows, and a ribbon-only file stating them as runs.

    About half the entries are zero.  In a layered graph edges only go
    to a vertex of the same or a later level, and levels rise with the
    vertex number, so it has several components, which a search from
    vertex 0 reaches in an order that the runs' order could change.
    Each multiplicity is split into runs of random counts, so heads
    repeat, and each vertex's runs are shuffled.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    level = [0] * n
    if draw(st.booleans()):  # layered
        level = sorted([draw(st.integers(min_value=0, max_value=n)) for _ in range(n)])
    entries = st.integers(min_value=-4, max_value=4).map(lambda m: max(m, 0))
    rows = tuple(
        tuple(draw(entries) if u != v and level[u] <= level[v] else 0 for v in range(n))
        for u in range(n)
    )
    lines = [f"graph {n}"]
    for u, row in enumerate(rows):
        runs = []
        for v, m in enumerate(row):
            while m:
                count = draw(st.integers(min_value=1, max_value=m))
                runs.append(f"{v}:{count}")
                m -= count
        if runs:
            lines.append(f"ribbon {u} : " + " ".join(draw(st.permutations(runs))))
    return rows, "\n".join(lines) + "\n"


def _result(query, g: DirectedMultigraph):
    try:
        return ("returned", query(g))
    except ValueError as exc:  # a query that needs a strongly connected graph
        return ("raised", str(exc))


def _split_triples(data, rows) -> list[tuple[int, int, int]]:
    """The rows as shuffled (u, v, m) triples: entries split, zero ones added."""
    triples = []
    for u, row in enumerate(rows):
        for v, m in enumerate(row):
            while m:
                count = data.draw(st.integers(min_value=1, max_value=m))
                triples.append((u, v, count))
                m -= count
            if u != v and data.draw(st.booleans()):
                triples.append((u, v, 0))
    return data.draw(st.permutations(triples))


class TestRunOrder:
    @given(_shuffled_run_files(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_run_order_cannot_change_a_result(self, drawn, data) -> None:
        rows, text = drawn
        n = len(rows)
        dense = graph_from_rows(rows)
        # the oracles read this view, so it must give the rows back
        assert dense.mult == rows
        parsed = parse_instance(text).graph
        from_triples = DirectedMultigraph.from_edges(n, _split_triples(data, rows))
        for g in (parsed, from_triples):
            assert g == dense and g.mult == rows
            assert hash(g) == hash(dense) and repr(g) == repr(dense)
        vectors = st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n)
        x, bound = data.draw(vectors), data.draw(vectors)
        d = data.draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        for query in (
            scc_decompose,
            strongly_connected_balance,
            period_basis,
            primitive_period_vector,
            default_ribbon,
            lambda g: random_ribbon(g, Random(seed)),
            lambda g: nonneg_reduced_solution(g, tuple(d)),
            lambda g: halts(g, tuple(x)),
            lambda g: bounded_chip_game(g, tuple(x), tuple(bound)),
        ):
            want = _result(query, dense)
            assert _result(query, parsed) == want
            assert _result(query, from_triples) == want
        if n > 1:
            u = data.draw(st.integers(min_value=0, max_value=n - 1))
            v = data.draw(st.integers(min_value=0, max_value=n - 2))
            v += v >= u  # any vertex but u
            changed = [list(row) for row in rows]
            changed[u][v] += data.draw(st.sampled_from([-1, 1])) if rows[u][v] else 1
            other = graph_from_rows(changed)
            assert other != parsed and other != from_triples


class TestOneEdgeStore:
    @given(_shuffled_run_files(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_graph_is_a_ribbon_of_itself(self, drawn, data) -> None:
        rows, text = drawn
        n = len(rows)
        for g in (
            graph_from_rows(rows),
            DirectedMultigraph.from_edges(n, _split_triples(data, rows)),
            parse_instance(text).graph,
        ):
            ribbon = RibbonStructure.of(g)
            # the unchecked ribbon passes the checked constructor's checks
            assert RibbonStructure(ribbon.runs) == ribbon
            assert ribbon.graph == g

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [3, 40])
    def test_instances_hold_the_ribbons_runs(self, family: str, size: int) -> None:
        generated = gen_instance(family, size, 5)
        for inst in (generated, parse_instance(serialize_instance(generated))):
            runs = inst.ribbon.runs
            for v, out in enumerate(inst.graph.adjacency()):
                assert out.edges is runs[v]
