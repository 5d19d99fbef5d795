from __future__ import annotations

import pytest

from rotorchip.errors import InstanceFormatError
from rotorchip.generators import gen_instance
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
