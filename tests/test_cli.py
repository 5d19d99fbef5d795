from __future__ import annotations

import argparse
import re
import time
from pathlib import Path

import pytest
from parser_reference import with_edge_lines
from test_intlinalg import _FOUR_COMPONENTS

from rotorchip import chipfiring, cli, intlinalg, multigraph, rotorrouting
from rotorchip.cli import build_parser, run_command
from rotorchip.generators import DENSE_FAMILIES
from rotorchip.instancefile import MAX_VERTICES, Instance, parse_instance, serialize_instance
from rotorchip.rotorrouting import default_ribbon
from rotorchip.sweeps import SWEEPS, SweepReport

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


def _subparsers_of(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return _subparsers_of(build_parser())


def _option_actions(p: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in p._actions if a.option_strings and a.dest != "help"]


# Every subcommand's options, -h and positionals aside: exactly the ones
# its handler reads.
OPTIONS = {
    "period": set(),
    "scc": set(),
    "chip-reach": {"--source", "--target", "--budget-steps", "--trace"},
    "chip-recurrent": {"--config", "--budget-steps"},
    "chip-halting": {"--config", "--budget-steps"},
    "lin-equiv": {"--source", "--target"},
    "rotor-route": {"--config", "--r"},
    "rotor-odom": {"--config", "--r", "--budget-steps", "--trace"},
    "rotor-unconstrained": {"--source", "--target"},
    "rotor-reach": {"--source", "--target", "--budget-steps", "--trace"},
    "bfs-reach": {"--game", "--source", "--target", "--budget-states"},
    "oracle-check": {"--sweep", "--count", "--seed"},
    "gen": {"--family", "--size", "--digits", "--out", "--seed"},
}


class _RecordingArgs:
    """Forwards attribute reads to the parsed arguments and records them."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self.read: set[str] = set()

    def __getattr__(self, name: str):
        self.read.add(name)
        return getattr(self._args, name)


class TestOptions:
    def test_each_subcommand_takes_exactly_its_options(self) -> None:
        found = {
            name: {s for a in _option_actions(p) for s in a.option_strings}
            for name, p in _subparsers().items()
        }
        assert found == OPTIONS
        assert sum(len(opts) for opts in found.values()) == 34

    def test_each_option_is_read_by_its_handler(
        self, capsys, c2_path: str, d21_path: str, tmp_path: Path
    ) -> None:
        argv = {
            "rotor-route": [d21_path, "--config", "src", "--r", "1,1"],
            "rotor-odom": [d21_path, "--config", "go", "--r", "1,0"],
            "rotor-unconstrained": [d21_path],
            "rotor-reach": [d21_path],
            "oracle-check": ["--count", "0"],
            "gen": ["--out", str(tmp_path / "g.rcg")],
        }
        parsers = _subparsers()
        for name, p in parsers.items():
            args = p.parse_args(argv.get(name, [c2_path]))
            recorder = _RecordingArgs(args)
            assert args.func(recorder) == 0, name
            dests = {a.dest for a in _option_actions(p)}
            assert dests <= recorder.read, name
        capsys.readouterr()

    def test_unread_option_exits_2(self, capsys, c2_path: str) -> None:
        for argv in (
            ["period", c2_path, "--trace"],
            ["period", c2_path, "--seed", "9"],
            ["scc", c2_path, "--budget-states", "0"],
            ["lin-equiv", c2_path, "--budget-steps", "5"],
            ["chip-recurrent", c2_path, "--trace"],
            ["chip-reach", c2_path, "--budget-states", "5"],
            ["rotor-route", c2_path, "--r", "1,1", "--budget-steps", "5"],
            ["bfs-reach", c2_path, "--budget-steps", "5"],
            ["oracle-check", "--trace"],
            ["gen", "--budget-steps", "5"],
        ):
            code = run_command(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert "unrecognized arguments" in captured.err

    def test_option_prefix_exits_2(self, capsys, c2_path: str) -> None:
        # --budget is a prefix of --budget-steps alone here; it must not
        # silently select it
        for argv in (
            ["chip-reach", c2_path, "--budget", "5"],
            ["chip-reach", c2_path, "--budget-step", "5"],
            ["chip-reach", c2_path, "--trac"],
            ["rotor-reach", c2_path, "--sour", "src"],
            ["oracle-check", "--coun", "1"],
        ):
            code = run_command(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chip-halting", "{c2}", "--budget-steps", "-1"],
            ["chip-reach", "{c2}", "--budget-steps", "-1"],
            ["chip-recurrent", "{c2}", "--budget-steps", "-1"],
            ["rotor-reach", "{c2}", "--budget-steps", "-1"],
            ["rotor-odom", "{c2}", "--r", "1,1", "--budget-steps", "-1"],
            ["bfs-reach", "{c2}", "--game", "chip", "--budget-states", "-1"],
            ["oracle-check", "--count", "-5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_negative_budget_or_count_exits_2(
        self, capsys, c2_path: str, argv: list[str]
    ) -> None:
        code = run_command([a.format(c2=c2_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be at least 0, got {argv[-1]}" in captured.err


def _outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``run_command(argv)``."""
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_outcome(capsys, argv: list[str]) -> tuple[int, str | None, str | None]:
    """Exit code, first usage line and last stderr line, None when absent."""
    code, out, err = _outcome(capsys, argv)
    usage = next((line for line in (out + err).splitlines() if line.startswith("usage:")), None)
    return code, usage, err.splitlines()[-1] if err else None


# Per subcommand at 80 columns: the first usage line, and the arguments a
# call without any names as missing (None: such a call runs and exits 0).
PARSE_OUTCOMES = {
    "period": ("usage: rotorchip period [-h] instance", "instance"),
    "scc": ("usage: rotorchip scc [-h] instance", "instance"),
    "chip-reach": (
        "usage: rotorchip chip-reach [-h] [--source SOURCE] [--target TARGET]",
        "instance",
    ),
    "chip-recurrent": ("usage: rotorchip chip-recurrent [-h] [--config CONFIG]", "instance"),
    "chip-halting": ("usage: rotorchip chip-halting [-h] [--config CONFIG]", "instance"),
    "lin-equiv": (
        "usage: rotorchip lin-equiv [-h] [--source SOURCE] [--target TARGET] instance",
        "instance",
    ),
    "rotor-route": (
        "usage: rotorchip rotor-route [-h] [--config CONFIG] --r R instance",
        "instance, --r",
    ),
    "rotor-odom": ("usage: rotorchip rotor-odom [-h] [--config CONFIG]", "instance, --r"),
    "rotor-unconstrained": (
        "usage: rotorchip rotor-unconstrained [-h] [--source SOURCE] [--target TARGET]",
        "instance",
    ),
    "rotor-reach": (
        "usage: rotorchip rotor-reach [-h] [--source SOURCE] [--target TARGET]",
        "instance",
    ),
    "bfs-reach": (
        "usage: rotorchip bfs-reach [-h] [--source SOURCE] [--target TARGET]",
        "instance",
    ),
    "oracle-check": ("usage: rotorchip oracle-check [-h] [--seed SEED] [--sweep SWEEP]", None),
    "gen": ("usage: rotorchip gen [-h] [--seed SEED]", None),
}


class TestOneSubparserPerCall:
    """run_command's parse outcomes are fixed, and the parser is built once."""

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_parse_outcomes(self, capsys, monkeypatch, name: str) -> None:
        monkeypatch.setenv("COLUMNS", "80")
        # oracle-check without arguments runs the default sweep: make it
        # one that is quick and prints no timing
        monkeypatch.setattr(
            cli, "SWEEPS", {"rotor-reach": lambda count, seed: SweepReport("stub", count)}
        )
        usage, missing = PARSE_OUTCOMES[name]
        assert _parse_outcome(capsys, [name, "-h"]) == (0, usage, None)
        if missing is None:
            assert _parse_outcome(capsys, [name]) == (0, None, None)
            assert _parse_outcome(capsys, [name, "--bogus"]) == (
                2, "usage: rotorchip [-h]", "rotorchip: error: unrecognized arguments: --bogus"
            )
        else:
            error = f"rotorchip {name}: error: the following arguments are required: {missing}"
            assert _parse_outcome(capsys, [name]) == (2, usage, error)
            assert _parse_outcome(capsys, [name, "--bogus"]) == (2, usage, error)

    def test_unrecognized_arguments_list_every_subcommand(self, capsys) -> None:
        code, out, err = _outcome(capsys, ["gen", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: rotorchip [-h]")
        assert f"{{{','.join(OPTIONS)}}}" in err
        assert err.endswith("rotorchip: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            ([], 2, "rotorchip: error: the following arguments are required: command"),
            (["-h"], 0, None),
            (
                ["bogus"], 2,
                "rotorchip: error: argument command: invalid choice: 'bogus' (choose from "
                + ", ".join(f"'{name}'" for name in OPTIONS) + ")",
            ),
        ],
    )
    def test_no_subcommand_lists_all_of_them(
        self, capsys, monkeypatch, argv: list[str], code: int, error: str | None
    ) -> None:
        monkeypatch.setenv("COLUMNS", "80")
        outcome = _outcome(capsys, argv)
        assert f"{{{','.join(OPTIONS)}}}" in outcome[1] + outcome[2]
        assert _parse_outcome(capsys, argv) == (code, "usage: rotorchip [-h]", error)

    def test_builds_the_parser_once(
        self, capsys, monkeypatch, c2_path: str
    ) -> None:
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        build_parser.cache_clear()
        calls = [([name, "-h"], 0) for name in OPTIONS]
        calls += [(["scc", c2_path], 0), ([], 2), (["-h"], 0), (["bogus"], 2)]
        for _ in range(3):
            for argv, code in calls:
                assert run_command(argv) == code, argv
        capsys.readouterr()
        # one top-level parser and one subparser per subcommand, once
        assert built == ["rotorchip"] + [f"rotorchip {name}" for name in OPTIONS]


TRIANGLE_TEXT = """\
graph 3
ribbon 0 : 1:1 2:1
ribbon 1 : 2:1
ribbon 2 : 0:2
chips src : 2 0 0
chips dst : 0 1 1
"""

# strongly connected but not balanced: vertex 1 has in-degree 1 and out-degree 2
UNBALANCED_TEXT = """\
graph 3
ribbon 0 : 1:1 2:1
ribbon 1 : 2:1 0:1
ribbon 2 : 0:1
chips src : 2 1 1
chips dst : 0 2 2
"""

# every subcommand that gives a verdict on an instance, with the options
# it needs on TRIANGLE_TEXT and UNBALANCED_TEXT
VERDICT_COMMANDS = {
    "period": [],
    "scc": [],
    "chip-reach": ["--trace"],
    "chip-recurrent": ["--config", "src"],
    "chip-halting": ["--config", "src"],
    "lin-equiv": [],
    "rotor-route": ["--config", "src", "--r", "1,1,1"],
    "rotor-odom": ["--config", "src", "--r", "1,1,1", "--trace"],
    "rotor-unconstrained": [],
    "rotor-reach": ["--trace"],
    "bfs-reach": [],
}


def _assert_one_scc_pass_per_verdict(tmp_path, capsys, monkeypatch, text: str) -> None:
    """Exactly one connectivity pass for scc and chip-halting, at most one for every verdict."""
    assert set(VERDICT_COMMANDS) == set(OPTIONS) - {"gen", "oracle-check"}
    path = tmp_path / "instance.rcg"
    path.write_text(text, encoding="utf-8")
    passes = []
    # a pass is one scc_decompose, is_strongly_connected or strongly_connected_balance call
    for name in ("scc_decompose", "is_strongly_connected", "strongly_connected_balance"):
        original = getattr(multigraph, name)

        def counted(g, original=original):
            passes.append(g.n)
            return original(g)

        # every module that binds the name
        for module in (multigraph, intlinalg, chipfiring, cli):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted)
    counts = {}
    for name, options in VERDICT_COMMANDS.items():
        passes.clear()
        code, _, err = _outcome(capsys, [name, str(path), *options])
        assert (code, err) == (0, "")
        counts[name] = len(passes)
    assert counts["scc"] == counts["chip-halting"] == 1
    assert max(counts.values()) <= 1, counts


def test_each_verdict_command_makes_at_most_one_scc_pass(tmp_path, capsys, monkeypatch) -> None:
    _assert_one_scc_pass_per_verdict(tmp_path, capsys, monkeypatch, TRIANGLE_TEXT)


def test_each_verdict_command_makes_at_most_one_scc_pass_unbalanced(
    tmp_path, capsys, monkeypatch
) -> None:
    _assert_one_scc_pass_per_verdict(tmp_path, capsys, monkeypatch, UNBALANCED_TEXT)


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

    def test_demo_graph_prints_every_sink_line(self, capsys, fig1_path: str) -> None:
        code, lines = run(capsys, "period", fig1_path)
        assert code == 0
        assert lines == ["per=4", "sink_component=3 p_i=0,0,0,1"]

    def test_four_components_print_every_sink_line(self, capsys, tmp_path: Path) -> None:
        # periods (2, 1), (1), (3, 1) and (1); the sinks are {3, 4} and {5}
        path = tmp_path / "four.rcg"
        path.write_text(
            serialize_instance(Instance(_FOUR_COMPONENTS, default_ribbon(_FOUR_COMPONENTS))),
            encoding="utf-8",
        )
        code, lines = run(capsys, "period", str(path))
        assert code == 0
        assert lines == [
            "per=9",
            "sink_component=3,4 p_i=0,0,0,3,1,0",
            "sink_component=5 p_i=0,0,0,0,0,1",
        ]


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

    def test_reach_past_the_budget_exits_3(self, capsys, c2_path: str) -> None:
        # the game needs one batch; with none allowed the answer is open
        code, lines = run(capsys, "chip-reach", c2_path, "--budget-steps", "0", "--trace")
        assert code == 3
        assert lines == ["decision=UNKNOWN reason=budget-exceeded"]

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

    def test_reach_without_trace_ignores_the_game_budget(
        self, capsys, d21_path: str
    ) -> None:
        argv = ["rotor-reach", d21_path, "--source", "go", "--target", "gone",
                "--budget-steps", "0"]
        code, lines = run(capsys, *argv)
        assert code == 0
        assert lines == ["decision=YES r=1,0"]
        code, lines = run(capsys, *argv, "--trace")
        assert code == 0
        assert lines == ["decision=YES r=1,0 reason=trace-budget-exceeded"]

    def test_reach_trace(self, capsys, d21_path: str) -> None:
        code, lines = run(
            capsys, "rotor-reach", d21_path, "--source", "go", "--target", "gone",
            "--trace",
        )
        assert code == 0
        assert lines == ["decision=YES r=1,0", "trace=0:1"]

    def test_reach_demo_pair(self, capsys, fig1_path: str) -> None:
        code, lines = run(capsys, "rotor-reach", fig1_path)
        assert code == 0
        assert lines[0] == "decision=YES r=1,0,1,0"

    def test_odometer(self, capsys, d21_path: str) -> None:
        code, lines = run(capsys, "rotor-odom", d21_path, "--config", "go", "--r", "1,0")
        assert code == 0
        assert lines[0] == "odometer=1,0 chips=0,1 rotors=1,0"

    def test_odometer_keeps_batches_only_for_trace(self, capsys, monkeypatch, d21_path: str) -> None:
        kept = []
        original = rotorrouting.bounded_rotor_game

        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            kept.append(result.trace is not None)
            return result

        monkeypatch.setattr(rotorrouting, "bounded_rotor_game", record)
        argv = ["rotor-odom", d21_path, "--config", "go", "--r", "1,0"]
        assert run(capsys, *argv) == (0, ["odometer=1,0 chips=0,1 rotors=1,0"])
        assert run(capsys, *argv, "--trace") == (
            0, ["odometer=1,0 chips=0,1 rotors=1,0", "trace=0:1"]
        )
        assert kept == [False, True]


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
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error=unknown sweep 'bogus' (choose from {', '.join(sorted(SWEEPS))}"
            ", or all)\n"
        )

    def test_failing_sweep_exits_1(self, capsys, monkeypatch) -> None:
        def failing(count: int, seed: int) -> SweepReport:
            report = SweepReport("broken", total=count)
            report.fail("engine and oracle disagree")
            return report

        monkeypatch.setattr(cli, "SWEEPS", {"broken": failing})
        code, lines = run(capsys, "oracle-check", "--sweep", "broken", "--count", "3")
        assert code == 1
        assert lines == [
            "sweep=broken total=3 failures=1 elapsed=0.0s ok=no",
            "failure='engine and oracle disagree'",
        ]

    def test_sweep_all_runs_every_sweep(self, capsys) -> None:
        code, lines = run(capsys, "oracle-check", "--sweep", "all", "--count", "2")
        assert code == 0
        assert [line.split()[0] for line in lines] == [
            f"sweep={name}" for name in SWEEPS
        ]
        assert all(line.endswith("ok=yes") for line in lines)

    def test_sweep_lines_are_pinned(self, capsys) -> None:
        # every sweep's seeded draws and counters; a change to any case
        # stream or random game moves at least one of these lines
        code, lines = run(capsys, "oracle-check", "--sweep", "all", "--count", "1000", "--seed", "0")
        assert code == 0
        assert [re.sub(r"elapsed=\S+", "elapsed=*", line) for line in lines] == [
            "sweep=rotor-reach total=1000 mode-pi-image=321 mode-random=331 mode-rollout=348"
            " no=585 yes=415 elapsed=* ok=yes",
            "sweep=chip-reach total=1000 mode-laplacian-image=343 mode-random=329"
            " mode-rollout=328 no=575 yes=425 elapsed=* ok=yes",
            "sweep=odometer total=1000 full=149 partial=851 elapsed=* ok=yes",
            "sweep=abelian total=1000 elapsed=* ok=yes",
            "sweep=deletion total=1000 appended=2979 deleted=25002 elapsed=* ok=yes",
            "sweep=eulerian total=1000 elapsed=* ok=yes",
            "sweep=reduce total=1000 elapsed=* ok=yes",
            "sweep=recurrence total=1000 recurrent=134 transient=866 elapsed=* ok=yes",
            "sweep=halting total=1000 halts=847 non-halting=153 elapsed=* ok=yes",
        ]


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


    def test_unwritable_out_exits_2(self, capsys, tmp_path: Path) -> None:
        path = tmp_path / "missing" / "g.rcg"
        code = run_command(["gen", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error=cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("size", [-3, 0, 1])
    def test_size_below_two_exits_2(self, capsys, size: int) -> None:
        code, out, err = _outcome(capsys, ["gen", "--size", str(size)])
        assert (code, out) == (2, "")
        assert err == f"error=--size must be at least 2, got {size}\n"

    def test_size_two_is_the_smallest(self, capsys) -> None:
        code, out, _ = _outcome(capsys, ["gen", "--size", "2"])
        assert code == 0
        assert parse_instance(out).graph.n == 2

    def test_size_above_vertex_limit_exits_2_before_generating(self, capsys) -> None:
        start = time.perf_counter()
        code = run_command(["gen", "--size", str(MAX_VERTICES + 1)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error=--size {MAX_VERTICES + 1} exceeds the limit of "
            f"{MAX_VERTICES} vertices\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("family", DENSE_FAMILIES)
    def test_dense_family_above_its_cap_exits_2_before_generating(
        self, capsys, family: str
    ) -> None:
        # random at 2048 vertices took 9.3 s and 688 MB; the cap is 1024
        start = time.perf_counter()
        code = run_command(["gen", "--family", family, "--size", "1025"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error=family {family} has Theta(n^2) edges and is capped at "
            f"1024 vertices, got 1025\n"
        )
        assert elapsed < 1.0

    def test_digits_past_the_digit_limit_exit_2_before_generating(
        self, capsys, digit_limit: int
    ) -> None:
        start = time.perf_counter()
        code = run_command(["gen", "--family", "heavy-multiplicity", "--digits", "5000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error=--digits must be at most {digit_limit}, the interpreter's "
            "int-string limit, got 5000\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("family", ["eulerian", "strongly-connected", "random"])
    def test_digits_for_another_family_exits_2(self, capsys, family: str) -> None:
        code, out, err = _outcome(capsys, ["gen", "--family", family, "--digits", "5"])
        assert (code, out) == (2, "")
        assert err == (
            f"error=--digits is read only by --family heavy-multiplicity, not {family}\n"
        )

    def test_digits_set_the_heavy_multiplicities(self, capsys) -> None:
        code, out, _ = _outcome(
            capsys, ["gen", "--family", "heavy-multiplicity", "--size", "3", "--digits", "5"]
        )
        assert code == 0
        mults = [m for row in parse_instance(out).graph.mult for m in row if m]
        assert mults and all(10 ** 4 <= m < 10 ** 6 for m in mults)

    def test_digits_below_one_exits_2(self, capsys) -> None:
        code = run_command(["gen", "--family", "heavy-multiplicity", "--digits", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error=--digits must be at least 1, got 0\n"


class TestRibbonOnlyFiles:
    # every subcommand that reads an instance file, with its other arguments
    READERS = [
        ["period"], ["scc"], ["chip-reach"], ["chip-reach", "--trace"],
        ["chip-recurrent"], ["chip-halting"], ["lin-equiv"],
        ["rotor-route", "--r", "1,2,1,1"], ["rotor-odom", "--r", "1,2,1,1"],
        ["rotor-unconstrained"], ["rotor-reach"],
        ["bfs-reach", "--game", "chip"], ["bfs-reach", "--game", "rotor"],
    ]

    @pytest.mark.parametrize("argv", READERS, ids=" ".join)
    def test_both_spellings_give_the_same_answer(
        self, capsys, tmp_path: Path, argv: list[str]
    ) -> None:
        code, text, _ = _outcome(
            capsys, ["gen", "--family", "strongly-connected", "--size", "4", "--seed", "7"]
        )
        assert code == 0
        assert not [line for line in text.splitlines() if line.startswith("edge")]
        # dst is src after one firing of vertex 0 (runs 2:1 1:2), so
        # chip-reach and lin-equiv answer yes
        text += "chips src : 3 1 0 2\nchips dst : 0 3 1 2\n"
        spellings = {"ribbon-only": text}
        spellings["edges"] = with_edge_lines(text, parse_instance(text).graph)
        outcomes = []
        for name, spelling in spellings.items():
            path = tmp_path / f"{name}.rcg"
            path.write_text(spelling, encoding="utf-8")
            outcomes.append(_outcome(capsys, [argv[0], str(path), *argv[1:]]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0


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

    @pytest.mark.parametrize("chips, error", [
        ("", "instance has no configuration (no chips line)"),
        ("chips a : 1 0\nchips b : 0 1\n", "no default configuration and the choice is ambiguous"),
    ])
    def test_no_single_configuration_exits_2(
        self, capsys, tmp_path: Path, chips: str, error: str
    ) -> None:
        p = tmp_path / "cycle.rcg"
        p.write_text("graph 2\nedge 0 1 1\nedge 1 0 1\n" + chips, encoding="utf-8")
        assert _outcome(capsys, ["chip-halting", str(p)]) == (2, "", f"error={error}\n")

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

    def test_verdict_past_the_digit_limit_exits_2(
        self, capsys, tmp_path: Path, digit_limit: int
    ) -> None:
        # a valid file whose period vector has entries of about 6000 digits
        m = "7" * 3000
        p = tmp_path / "big.rcg"
        p.write_text(
            f"graph 3\nedge 0 1 {m}\nedge 1 2 {m}1\nedge 2 0 {m}3\nedge 1 0 1\n",
            encoding="utf-8",
        )
        code = run_command(["period", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error=a verdict integer has more digits than the interpreter's "
            f"int-string limit of {digit_limit}\n"
        )

    def test_vector_entry_past_the_digit_limit_exits_2(
        self, capsys, d21_path: str, digit_limit: int
    ) -> None:
        r = "1," + "1" * (digit_limit + 1)
        code = run_command(["rotor-route", d21_path, "--config", "src", "--r", r])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error=an entry of r has more digits than the interpreter's "
            f"int-string limit of {digit_limit}\n"
        )

    def test_bad_vector_length(self, capsys, d21_path: str) -> None:
        code = run_command(["rotor-route", d21_path, "--config", "src", "--r", "1,2,3"])
        capsys.readouterr()
        assert code == 2

    def test_budget_exit(self, capsys, c2_path: str) -> None:
        code = run_command(["chip-halting", c2_path, "--budget-steps", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert out == "status=budget-exceeded reason=max-steps\n"

    def test_stable_start_halts_under_budget_0(self, capsys, d21_path: str) -> None:
        argv = ["chip-halting", d21_path, "--config", "src", "--budget-steps", "0"]
        assert _outcome(capsys, argv) == (0, "status=halts final=0,0 f=0,0\n", "")

    def test_recurrent_budget_exit(self, capsys, c2_path: str) -> None:
        code = run_command(["chip-recurrent", c2_path, "--budget-steps", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error=bounded chip game exceeded 0 batches\n"

    def test_rotor_odometer_budget_exit(self, capsys, d21_path: str) -> None:
        argv = ["rotor-odom", d21_path, "--config", "go", "--r", "1,0", "--budget-steps", "0"]
        assert _outcome(capsys, argv) == (3, "", "error=bounded rotor game exceeded 0 batches\n")

    def test_state_budget_is_not_a_halting_option(self, capsys, c2_path: str) -> None:
        # --budget-states belongs to bfs-reach; chip-halting's one budget,
        # --budget-steps, counts firings
        code, out, err = _outcome(capsys, ["chip-halting", c2_path, "--budget-states", "1"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --budget-states 1\n")
