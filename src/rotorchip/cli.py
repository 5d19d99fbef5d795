"""Command-line interface: one subcommand per decision procedure.

Output is machine-parseable key=value tokens, one verdict per line.
Exit status: 0 for any computed verdict (YES and NO alike), 1 when an
``oracle-check`` sweep records a failure, 2 for input errors (an option
the subcommand does not read included), 3 when a budget ran out before
a verdict.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import chipfiring, rotorrouting
from .bruteforce import bfs_reach_chip, bfs_reach_rotor
from .errors import DEFAULT_GAME_BUDGET, BudgetExceededError
from .generators import FAMILIES, gen_instance
from .instancefile import (
    DECIMAL_RE,
    MAX_VERTICES,
    Instance,
    digit_limit_message,
    parse_instance,
    serialize_instance,
)
from .intlinalg import period_basis
from .multigraph import scc_decompose
from .sweeps import SWEEPS

EXIT_OK = 0
EXIT_SWEEP_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fmt_vec(vec) -> str:
    """Comma-separated entries; one that str() refuses for its length
    (past the interpreter's int-string limit) is an input error."""
    try:
        return ",".join("-" if x is None else str(x) for x in vec)
    except ValueError:
        raise ValueError(digit_limit_message("a verdict integer")) from None


def _fmt_batches(batches) -> str:
    return ",".join(f"{v}:{k}" for v, k in batches)


def _parse_vec(text: str, n: int, what: str) -> tuple[int, ...]:
    tokens = text.split(",")
    try:
        vec = tuple([int(tok) for tok in tokens])
    except ValueError:
        if all(map(DECIMAL_RE.match, tokens)):
            raise ValueError(digit_limit_message(f"an entry of {what}"))
        raise ValueError(f"{what} must be comma-separated integers")
    if len(vec) != n:
        raise ValueError(f"{what} needs {n} entries, got {len(vec)}")
    return vec


def _load(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    return parse_instance(text)


def _config(instance: Instance, name: str | None):
    if name is None:
        return instance.single_config()
    return instance.config(name)


def _cmd_period(args) -> int:
    basis = period_basis(_load(args.instance).graph)
    per = _fmt_vec([basis.per])
    if len(basis.scc.components) == 1:
        print(f"p={_fmt_vec(basis.component_periods[0])} per={per}")
    else:
        print(f"per={per}")
    for comp_id, vec in zip(basis.sink_indices, basis.kernel_vectors()):
        print(f"sink_component={_fmt_vec(basis.scc.components[comp_id])} p_i={_fmt_vec(vec)}")
    return EXIT_OK


def _cmd_scc(args) -> int:
    instance = _load(args.instance)
    scc = scc_decompose(instance.graph)
    print(f"components={len(scc.components)}")
    for cid, vertices in enumerate(scc.components):
        sink = "yes" if scc.is_sink[cid] else "no"
        trivial = "yes" if scc.is_trivial[cid] else "no"
        print(
            f"component={cid} vertices={_fmt_vec(vertices)} "
            f"sink={sink} trivial={trivial}"
        )
    return EXIT_OK


def _cmd_chip_reach(args) -> int:
    instance = _load(args.instance)
    x = instance.config(args.source).chips
    y = instance.config(args.target).chips
    verdict = chipfiring.reach_chip(
        instance.graph, x, y, max_batches=args.budget_steps
    )
    line = f"decision={verdict.decision}"
    if verdict.decision == "YES" and verdict.firing_vector is not None:
        line += f" f={_fmt_vec(verdict.firing_vector)}"
    if verdict.reason:
        line += f" reason={verdict.reason}"
    print(line)
    if args.trace and verdict.trace is not None:
        print(f"trace={_fmt_batches(verdict.trace.batches)}")
    return EXIT_BUDGET if verdict.decision == "UNKNOWN" else EXIT_OK


def _cmd_chip_recurrent(args) -> int:
    instance = _load(args.instance)
    chips = _config(instance, args.config).chips
    result = chipfiring.is_recurrent(
        instance.graph, chips, max_batches=args.budget_steps
    )
    print(f"recurrent={'yes' if result else 'no'}")
    return EXIT_OK


def _cmd_chip_halting(args) -> int:
    instance = _load(args.instance)
    chips = _config(instance, args.config).chips
    verdict = chipfiring.halts(instance.graph, chips, max_steps=args.budget_steps)
    if verdict.kind == "halts":
        print(
            f"status=halts final={_fmt_vec(verdict.final)} "
            f"f={_fmt_vec(verdict.firing_vector)}"
        )
        return EXIT_OK
    if verdict.kind == "non-halting":
        print(f"status=non-halting certificate={_fmt_vec(verdict.certificate)}")
        return EXIT_OK
    print(f"status=budget-exceeded reason={verdict.reason}")
    return EXIT_BUDGET


def _cmd_lin_equiv(args) -> int:
    instance = _load(args.instance)
    x = instance.config(args.source).chips
    y = instance.config(args.target).chips
    f = chipfiring.lin_equiv(instance.graph, x, y)
    if f is None:
        print("equivalent=no")
    else:
        print(f"equivalent=yes f={_fmt_vec(f)}")
    return EXIT_OK


def _cmd_rotor_route(args) -> int:
    instance = _load(args.instance)
    config = _config(instance, args.config)
    r = _parse_vec(args.r, instance.graph.n, "r")
    result = rotorrouting.pi_r(instance.ribbon, config, r)
    print(f"chips={_fmt_vec(result.chips)} rotors={_fmt_vec(result.rotors)}")
    return EXIT_OK


def _cmd_rotor_odom(args) -> int:
    instance = _load(args.instance)
    config = _config(instance, args.config)
    r = _parse_vec(args.r, instance.graph.n, "r")
    result = rotorrouting.bounded_rotor_game(
        instance.ribbon, config, r, max_batches=args.budget_steps, trace=args.trace
    )
    print(
        f"odometer={_fmt_vec(result.routing_vector)} "
        f"chips={_fmt_vec(result.final.chips)} "
        f"rotors={_fmt_vec(result.final.rotors)}"
    )
    if args.trace:
        print(f"trace={_fmt_batches(result.trace.batches)}")
    return EXIT_OK


def _cmd_rotor_unconstrained(args) -> int:
    instance = _load(args.instance)
    c1 = instance.config(args.source)
    c2 = instance.config(args.target)
    r = rotorrouting.unconstrained_reach(instance.graph, instance.ribbon, c1, c2)
    if r is None:
        print("reachable=no")
    else:
        print(f"reachable=yes r={_fmt_vec(r)}")
    return EXIT_OK


def _cmd_rotor_reach(args) -> int:
    instance = _load(args.instance)
    c1 = instance.config(args.source)
    c2 = instance.config(args.target)
    # the witness game is played only for --trace; the verdict needs none
    verdict = rotorrouting.reach_rotor(
        instance.graph, instance.ribbon, c1, c2,
        max_batches=args.budget_steps, trace=args.trace,
    )
    line = f"decision={verdict.decision}"
    if verdict.routing_vector is not None:
        line += f" r={_fmt_vec(verdict.routing_vector)}"
    if verdict.reason:
        line += f" reason={verdict.reason}"
    if verdict.decision == "NO" and verdict.routing_vector is not None:
        line += f" s1={_fmt_vec(verdict.s1)} s2={_fmt_vec(verdict.s2)}"
    print(line)
    if verdict.trace is not None:
        print(f"trace={_fmt_batches(verdict.trace.batches)}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.sweep != "all" and args.sweep not in SWEEPS:
        raise ValueError(
            f"unknown sweep {args.sweep!r} "
            f"(choose from {', '.join(sorted(SWEEPS))}, or all)"
        )
    names = list(SWEEPS) if args.sweep == "all" else [args.sweep]
    ok = True
    for name in names:
        report = SWEEPS[name](args.count, args.seed)
        print(report.summary())
        for failure in report.failures:
            print(f"failure={failure!r}")
        ok = ok and report.ok
    return EXIT_OK if ok else EXIT_SWEEP_FAILED


def _cmd_gen(args) -> int:
    if args.size < 2:
        raise ValueError(f"--size must be at least 2, got {args.size}")
    if args.size > MAX_VERTICES:
        raise ValueError(
            f"--size {args.size} exceeds the limit of {MAX_VERTICES} vertices"
        )
    if args.digits is not None and args.family != "heavy-multiplicity":
        raise ValueError(
            f"--digits is read only by --family heavy-multiplicity, "
            f"not {args.family}"
        )
    digits = 18 if args.digits is None else args.digits
    if digits < 1:
        raise ValueError(f"--digits must be at least 1, got {digits}")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(
            f"--digits must be at most {limit}, the interpreter's int-string "
            f"limit, got {digits}"
        )
    instance = gen_instance(args.family, args.size, args.seed, digits=digits)
    text = serialize_instance(instance)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}")
        print(f"written={args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bfs_reach(args) -> int:
    """Direct oracle run on one instance, for spot checks."""
    instance = _load(args.instance)
    c1 = instance.config(args.source)
    c2 = instance.config(args.target)
    if args.game == "chip":
        result = bfs_reach_chip(
            instance.graph, c1.chips, c2.chips, args.budget_states
        )
    else:
        result = bfs_reach_rotor(instance.ribbon, c1, c2, args.budget_states)
    print(f"reachable={'yes' if result else 'no'}")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    """argparse type of the budgets and counts: 0 is valid, negatives exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# Arguments that several subcommands take; each subcommand lists the ones
# its handler reads, and an option it does not read exits 2.
_SHARED_ARGUMENTS = {
    "instance": {"help": "instance file path"},
    "--source": {"default": "src"},
    "--target": {"default": "dst"},
    "--config": {"default": None},
    "--budget-steps": {
        "type": _nonnegative_int,
        "default": DEFAULT_GAME_BUDGET,
        "help": "cap on game batches/steps before giving up (exit 3)",
    },
    "--trace": {"action": "store_true", "help": "also print the legal game trace"},
    "--seed": {"type": int, "default": 0, "help": "random seed"},
}

# Each subcommand's handler, help line and arguments, in the order they
# are added: a shared argument by name, or (name, keywords) for its own.
_SUBCOMMANDS = {
    "period": (_cmd_period, "period vectors and per(G)", ("instance",)),
    "scc": (_cmd_scc, "strongly connected components", ("instance",)),
    "chip-reach": (
        _cmd_chip_reach, "chip-firing reachability",
        ("instance", "--source", "--target", "--budget-steps", "--trace"),
    ),
    "chip-recurrent": (
        _cmd_chip_recurrent, "chip recurrence test",
        ("instance", "--config", "--budget-steps"),
    ),
    "chip-halting": (
        _cmd_chip_halting, "halting analysis",
        ("instance", "--config", "--budget-steps"),
    ),
    "lin-equiv": (
        _cmd_lin_equiv, "linear equivalence of chip configs",
        ("instance", "--source", "--target"),
    ),
    "rotor-route": (
        _cmd_rotor_route, "apply the closed-form routing map",
        ("instance", "--config",
         ("--r", {"required": True, "help": "routing vector, comma-separated"})),
    ),
    "rotor-odom": (
        _cmd_rotor_odom, "simulate the r-bounded rotor game",
        ("instance", "--config", "--budget-steps", "--trace",
         ("--r", {"required": True, "help": "bound vector, comma-separated"})),
    ),
    "rotor-unconstrained": (
        _cmd_rotor_unconstrained, "unconstrained rotor reachability",
        ("instance", "--source", "--target"),
    ),
    "rotor-reach": (
        _cmd_rotor_reach, "legal rotor reachability",
        ("instance", "--source", "--target", "--budget-steps", "--trace"),
    ),
    "bfs-reach": (
        _cmd_bfs_reach, "brute-force oracle on one instance",
        ("instance", "--source", "--target",
         ("--budget-states", {
             "type": _nonnegative_int, "default": 500_000,
             "help": "cap on visited configurations in searches (exit 3)"}),
         ("--game", {"choices": ("chip", "rotor"), "default": "rotor"})),
    ),
    "oracle-check": (
        _cmd_oracle_check,
        "run engine-versus-oracle sweeps (exit 1 if any case fails)",
        ("--seed",
         ("--sweep", {"default": "rotor-reach", "help": "a sweep name, or all"}),
         ("--count", {"type": _nonnegative_int, "default": 200})),
    ),
    "gen": (
        _cmd_gen, "generate a random instance",
        ("--seed",
         ("--family", {"choices": FAMILIES, "default": "strongly-connected"}),
         ("--size", {"type": int, "default": 4}),
         ("--digits", {"type": int, "default": None,
                       "help": "heavy-multiplicity digits (default 18)"}),
         ("--out", {"default": None, "help": "write to file instead of stdout"})),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rotorchip",
        description=(
            "Reachability, recurrence, linear equivalence and halting "
            "for chip-firing and rotor-routing games."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _SUBCOMMANDS.items():
        # allow_abbrev=False: a prefix such as --budget must not select
        # --budget-steps just because --budget-states is absent here
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        for argument in arguments:
            if isinstance(argument, str):
                p.add_argument(argument, **_SHARED_ARGUMENTS[argument])
            else:
                p.add_argument(argument[0], **argument[1])
    return parser


def run_command(argv) -> int:
    # argparse keeps no state between parse_args calls, and with the
    # engine's tuples built from lists (tests/test_layering.py's
    # QUERY_PATH) a kept parser does not raise peak RSS.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        # InstanceFormatError is a ValueError too
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
