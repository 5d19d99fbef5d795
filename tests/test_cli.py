from __future__ import annotations

import time
from pathlib import Path

import pytest

from rotorchip.cli import run_command
from rotorchip.instancefile import parse_instance

C2_TEXT = """\
graph 2
edge 0 1 1
edge 1 0 1
ribbon 0 : 1:1
ribbon 1 : 0:1
chips 1 0
chips src : 1 0
rotor src : 0 0
rotor src : 1 0
chips dst : 0 1
rotor dst : 0 0
rotor dst : 1 0
"""

D21_TEXT = """\
graph 2
edge 0 1 2
edge 1 0 1
ribbon 0 : 1:2
ribbon 1 : 0:1
chips src : 0 0
rotor src : 0 0
rotor src : 1 0
chips dst : 0 0
rotor dst : 0 1
rotor dst : 1 0
chips go : 1 0
rotor go : 0 0
rotor go : 1 0
chips gone : 0 1
rotor gone : 0 1
rotor gone : 1 0
"""

FIG1_TEXT = """\
graph 4
edge 0 1 1
edge 0 2 1
edge 0 3 1
edge 1 0 1
edge 1 2 1
edge 1 3 1
edge 2 0 1
edge 2 1 1
ribbon 0 : 2:1 1:1 3:1
ribbon 1 : 0:1 2:1 3:1
ribbon 2 : 1:1 0:1
chips src : 0 0 1 0
rotor src : 0 0
rotor src : 1 0
rotor src : 2 0
chips dst : 0 1 0 0
rotor dst : 0 1
rotor dst : 1 0
rotor dst : 2 1
"""


@pytest.fixture
def c2_path(tmp_path: Path) -> str:
    p = tmp_path / "c2.rcg"
    p.write_text(C2_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture
def d21_path(tmp_path: Path) -> str:
    p = tmp_path / "d21.rcg"
    p.write_text(D21_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture
def fig1_path(tmp_path: Path) -> str:
    p = tmp_path / "fig1.rcg"
    p.write_text(FIG1_TEXT, encoding="utf-8")
    return str(p)


def run(capsys, *argv: str) -> tuple[int, list[str]]:
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines()


class TestPeriod:
    def test_two_cycle(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "period", c2_path)
        assert code == 0
        assert lines[0] == "p=1,1 per=2"

    def test_demo_graph_not_strongly_connected(self, capsys, fig1_path: str) -> None:
        code, lines = run(capsys, "period", fig1_path)
        assert code == 0
        assert lines[0] == "per=4"
        assert not any(line.startswith("p=") for line in lines)


class TestScc:
    def test_components(self, capsys, fig1_path: str) -> None:
        code, lines = run(capsys, "scc", fig1_path)
        assert code == 0
        assert lines[0] == "components=2"
        assert any("sink=yes trivial=yes" in line for line in lines)


class TestChipCommands:
    def test_reach_yes(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "chip-reach", c2_path)
        assert code == 0
        assert lines[0] == "decision=YES f=1,0"

    def test_reach_no_stuck(self, capsys, tmp_path: Path) -> None:
        text = C2_TEXT.replace("chips src : 1 0", "chips src : 0 0").replace(
            "chips dst : 0 1", "chips dst : 1 -1"
        )
        p = tmp_path / "stuck.rcg"
        p.write_text(text, encoding="utf-8")
        code, lines = run(capsys, "chip-reach", str(p))
        assert code == 0
        assert lines[0] == "decision=NO reason=bounded-game-stuck"

    def test_recurrent(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "chip-recurrent", c2_path)
        assert code == 0
        assert lines[0] == "recurrent=yes"

    def test_halting_nonhalting(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "chip-halting", c2_path)
        assert code == 0
        assert lines[0].startswith("status=non-halting certificate=")

    def test_halting_halts(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "chip-halting", d21_path, "--config", "go")
        assert code == 0
        assert lines[0].startswith("status=halts")

    def test_lin_equiv(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "lin-equiv", c2_path)
        assert code == 0
        assert lines[0] == "equivalent=yes f=1,0"

    def test_trace_flag(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "chip-reach", c2_path, "--trace")
        assert code == 0
        assert any(line.startswith("trace=") for line in lines)


class TestRotorCommands:
    def test_route(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "rotor-route", d21_path, "--config", "src", "--r", "1,1")
        assert code == 0
        assert lines[0] == "chips=0,0 rotors=1,0"

    def test_unconstrained(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "rotor-unconstrained", d21_path)
        assert code == 0
        assert lines[0] == "reachable=yes r=1,1"

    def test_reach_no_s2(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "rotor-reach", d21_path)
        assert code == 0
        assert lines[0] == "decision=NO r=1,1 reason=s2-nonempty s1= s2=0,1"

    def test_reach_yes(self, capsys, d21_path: str) -> None:
        code, lines = run(
            capsys, "rotor-reach", d21_path, "--source", "go", "--target", "gone"
        )
        assert code == 0
        assert lines[0] == "decision=YES r=1,0"

    def test_reach_demo_pair(self, capsys, fig1_path: str) -> None:
        code, lines = run(capsys, "rotor-reach", fig1_path)
        assert code == 0
        assert lines[0] == "decision=YES r=1,0,1,0"

    def test_odometer(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "rotor-odom", d21_path, "--config", "go", "--r", "1,0")
        assert code == 0
        assert lines[0] == "odometer=1,0 chips=0,1 rotors=1,0"


class TestOracleCheck:
    def test_small_sweep(self, capsys) -> None:
        code, lines = run(
            capsys, "oracle-check", "--sweep", "rotor-reach", "--count", "25", "--seed", "5"
        )
        assert code == 0
        assert lines[0].startswith("sweep=rotor-reach total=25")
        assert lines[0].endswith("ok=yes")

    def test_unknown_sweep(self, capsys) -> None:
        code = run_command(["oracle-check", "--sweep", "bogus"])
        capsys.readouterr()
        assert code == 2


class TestBfsReach:
    def test_chip_game(self, capsys, c2_path: str) -> None:
        code, lines = run(capsys, "bfs-reach", c2_path, "--game", "chip")
        assert code == 0
        assert lines[0] == "reachable=yes"

    def test_rotor_game(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "bfs-reach", d21_path, "--game", "rotor")
        assert code == 0
        assert lines[0] == "reachable=no"


class TestGen:
    def test_deterministic_bytes(self, capsys, tmp_path: Path) -> None:
        a = tmp_path / "a.rcg"
        b = tmp_path / "b.rcg"
        for path in (a, b):
            code = run_command(
                ["gen", "--family", "random", "--size", "4", "--seed", "13", "--out", str(path)]
            )
            capsys.readouterr()
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heavy_multiplicity_is_heavy(self, capsys, tmp_path: Path) -> None:
        p = tmp_path / "h.rcg"
        code = run_command(
            ["gen", "--family", "heavy-multiplicity", "--size", "3", "--seed", "2", "--out", str(p)]
        )
        capsys.readouterr()
        assert code == 0
        inst = parse_instance(p.read_text(encoding="utf-8"))
        assert max(max(row) for row in inst.graph.mult) >= 10 ** 17

    def test_generated_instances_usable(self, capsys, tmp_path: Path) -> None:
        for family in ("eulerian", "strongly-connected", "heavy-multiplicity", "random"):
            p = tmp_path / f"{family}.rcg"
            code = run_command(
                ["gen", "--family", family, "--size", "3", "--seed", "8", "--out", str(p)]
            )
            capsys.readouterr()
            assert code == 0
            code, lines = run(capsys, "period", str(p))
            assert code == 0
            assert any("per=" in line for line in lines)


class TestExitCodes:
    def test_missing_file(self, capsys) -> None:
        code = run_command(["period", "/nonexistent/path.rcg"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error=")

    def test_malformed_instance(self, capsys, tmp_path: Path) -> None:
        p = tmp_path / "bad.rcg"
        p.write_text("graph 2\nedge 0 0 1\n", encoding="utf-8")
        code = run_command(["period", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_huge_vertex_count_exits_2_before_allocating(self, capsys, tmp_path: Path) -> None:
        # a dense 100000 x 100000 matrix would exhaust memory
        p = tmp_path / "huge.rcg"
        p.write_text("graph 100000\n", encoding="utf-8")
        start = time.perf_counter()
        code = run_command(["chip-halting", str(p)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "exceeds the limit" in err and "line 1" in err
        assert elapsed < 1.0

    def test_bad_vector_length(self, capsys, d21_path: str) -> None:
        code = run_command(["rotor-route", d21_path, "--config", "src", "--r", "1,2,3"])
        capsys.readouterr()
        assert code == 2

    def test_budget_exit(self, capsys, c2_path: str) -> None:
        code = run_command(["chip-halting", c2_path, "--budget-steps", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert out == "status=budget-exceeded reason=max-steps\n"

    def test_state_budget_exit(self, capsys, c2_path: str) -> None:
        code = run_command(["chip-halting", c2_path, "--budget-states", "1"])
        out = capsys.readouterr().out
        assert code == 3
        assert out == "status=budget-exceeded reason=max-states\n"
