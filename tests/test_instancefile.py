from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_reference import parse_instance as reference_parse

from rotorchip.errors import InstanceFormatError
from rotorchip.generators import FAMILIES, gen_instance
from rotorchip.instancefile import (
    MAX_VERTICES,
    Instance,
    parse_instance,
    serialize_instance,
)

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
        # every row is allocated, whether or not it has an edge
        n = 1024
        text = f"graph {n}\n"
        if edges:
            text += "".join(f"edge {u} {(u + 1) % n} 1\n" for u in range(n))
        assert _parse_peak_bytes(text) < 1.5 * 8 * n * n


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


class TestSingleConfig:
    def test_default_preferred(self) -> None:
        inst = parse_instance(BASIC + "chips alt : 0 1\n")
        assert inst.single_config().chips == (1, 0)

    def test_unique_named_config(self) -> None:
        text = "graph 1\nchips only : 2\n"
        assert parse_instance(text).single_config().chips == (2,)

    def test_ambiguous_raises(self) -> None:
        text = "graph 1\nchips a : 1\nchips b : 2\n"
        with pytest.raises(InstanceFormatError):
            parse_instance(text).single_config()

    def test_no_configs(self) -> None:
        inst = parse_instance("graph 2\nedge 0 1 1\n")
        assert isinstance(inst, Instance)
        with pytest.raises(InstanceFormatError):
            inst.single_config()


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
        inst.graph.adjacency(),
    )


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
    )))
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[i]
    if op == "drop-line":
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
def _mutated_files(draw):
    family = draw(st.sampled_from(FAMILIES))
    size = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    inst = gen_instance(family, size, seed, digits=draw(st.sampled_from((1, 18))))
    text = serialize_instance(inst)
    if draw(st.booleans()):
        # a named configuration too, so the name paths are exercised
        chips = " ".join(str(draw(st.integers(-2, 3))) for _ in range(inst.graph.n))
        text += f"chips src : {chips}\nrotor src : 0 0\n"
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if lines:
            _mutate(draw, lines, inst.graph.n)
    sep = draw(st.sampled_from((" ", "  ", "\t")))
    return "\n".join(sep.join(line) for line in lines) + "\n"


class TestAgainstReferenceParser:
    @given(_mutated_files())
    @settings(max_examples=600, deadline=None)
    def test_same_instance_or_same_error(self, text: str) -> None:
        assert _outcome(parse_instance, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("token", _ODD_TOKENS + ("-1", "2", str(10 ** 20)))
    @pytest.mark.parametrize("index, template", (
        (2, "edge {} 1 2"), (2, "edge 0 {} 2"), (2, "edge 0 1 {}"),
        (4, "ribbon {} : 1:2"), (4, "ribbon 0 : {}:2"), (4, "ribbon 0 : 1:{}"),
        (6, "chips {} 0"), (7, "rotor {} 1"), (7, "rotor 0 {}"),
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
    ))
    def test_two_faults_in_one_line(self, line: str) -> None:
        # the reference decides which of the two faults is reported
        text = BASIC.replace("ribbon 0 : 1:2\n", "") + line + "\n"
        assert _outcome(parse_instance, text) == _outcome(reference_parse, text)
