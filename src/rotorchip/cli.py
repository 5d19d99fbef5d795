"""Command-line interface: one subcommand per decision procedure.

Output is machine-parseable key=value tokens, one verdict per line.
Exit status: 0 for any computed verdict (YES and NO alike), 2 for input
errors, 3 when a budget ran out before a verdict.
"""

from __future__ import annotations

import argparse
import sys

from . import chipfiring, rotorrouting
from .bruteforce import bfs_reach_chip, bfs_reach_rotor
from .errors import BudgetExceededError, InstanceFormatError
from .generators import FAMILIES, gen_instance
from .instancefile import Instance, parse_instance, serialize_instance
from .intlinalg import period_basis
from .multigraph import scc_decompose
from .sweeps import SWEEPS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _InputError(Exception):
    pass


def _fmt_vec(vec) -> str:
    return ",".join("-" if x is None else str(x) for x in vec)


def _fmt_batches(batches) -> str:
    return ",".join(f"{v}:{k}" for v, k in batches)


def _parse_vec(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _InputError(f"{what} must be comma-separated integers")
    if len(vec) != n:
        raise _InputError(f"{what} needs {n} entries, got {len(vec)}")
    return vec


def _load(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}")
    return parse_instance(text)


def _config(instance: Instance, name: str | None):
    if name is None:
        return instance.single_config()
    return instance.config(name)


def _cmd_period(args, out) -> int:
    basis = period_basis(_load(args.instance).graph)
    if len(basis.scc.components) == 1:
        out(f"p={_fmt_vec(basis.component_vectors[0])} per={basis.per}")
    else:
        out(f"per={basis.per}")
    for comp_id in basis.sink_indices:
        vertices = basis.scc.components[comp_id]
        vec = basis.component_vectors[comp_id]
        out(f"sink_component={_fmt_vec(vertices)} p_i={_fmt_vec(vec)}")
    return EXIT_OK


def _cmd_scc(args, out) -> int:
    instance = _load(args.instance)
    scc = scc_decompose(instance.graph)
    out(f"components={len(scc.components)}")
    for cid, vertices in enumerate(scc.components):
        sink = "yes" if scc.is_sink[cid] else "no"
        trivial = "yes" if scc.is_trivial[cid] else "no"
        out(
            f"component={cid} vertices={_fmt_vec(vertices)} "
            f"sink={sink} trivial={trivial}"
        )
    return EXIT_OK


def _cmd_chip_reach(args, out) -> int:
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
    out(line)
    if args.trace and verdict.trace is not None:
        out(f"trace={_fmt_batches(verdict.trace.batches)}")
    return EXIT_BUDGET if verdict.decision == "UNKNOWN" else EXIT_OK


def _cmd_chip_recurrent(args, out) -> int:
    instance = _load(args.instance)
    chips = _config(instance, args.config).chips
    result = chipfiring.is_recurrent(
        instance.graph, chips, max_batches=args.budget_steps
    )
    out(f"recurrent={'yes' if result else 'no'}")
    return EXIT_OK


def _cmd_chip_halting(args, out) -> int:
    instance = _load(args.instance)
    chips = _config(instance, args.config).chips
    verdict = chipfiring.halts(
        instance.graph,
        chips,
        max_steps=args.budget_steps,
        max_states=args.budget_states,
    )
    if verdict.kind == "halts":
        out(
            f"status=halts final={_fmt_vec(verdict.final)} "
            f"f={_fmt_vec(verdict.firing_vector)}"
        )
        return EXIT_OK
    if verdict.kind == "non-halting":
        out(f"status=non-halting certificate={_fmt_vec(verdict.certificate)}")
        return EXIT_OK
    out(f"status=budget-exceeded reason={verdict.reason}")
    return EXIT_BUDGET


def _cmd_lin_equiv(args, out) -> int:
    instance = _load(args.instance)
    x = instance.config(args.source).chips
    y = instance.config(args.target).chips
    f = chipfiring.lin_equiv(instance.graph, x, y)
    if f is None:
        out("equivalent=no")
    else:
        out(f"equivalent=yes f={_fmt_vec(f)}")
    return EXIT_OK


def _cmd_rotor_route(args, out) -> int:
    instance = _load(args.instance)
    config = _config(instance, args.config)
    r = _parse_vec(args.r, instance.graph.n, "r")
    result = rotorrouting.pi_r(instance.ribbon, config, r)
    out(f"chips={_fmt_vec(result.chips)} rotors={_fmt_vec(result.rotors)}")
    return EXIT_OK


def _cmd_rotor_odom(args, out) -> int:
    instance = _load(args.instance)
    config = _config(instance, args.config)
    r = _parse_vec(args.r, instance.graph.n, "r")
    result = rotorrouting.bounded_rotor_game(
        instance.ribbon, config, r, max_batches=args.budget_steps
    )
    out(
        f"odometer={_fmt_vec(result.routing_vector)} "
        f"chips={_fmt_vec(result.final.chips)} "
        f"rotors={_fmt_vec(result.final.rotors)}"
    )
    if args.trace:
        out(f"trace={_fmt_batches(result.trace.batches)}")
    return EXIT_OK


def _cmd_rotor_unconstrained(args, out) -> int:
    instance = _load(args.instance)
    c1 = instance.config(args.source)
    c2 = instance.config(args.target)
    r = rotorrouting.unconstrained_reach(instance.graph, instance.ribbon, c1, c2)
    if r is None:
        out("reachable=no")
    else:
        out(f"reachable=yes r={_fmt_vec(r)}")
    return EXIT_OK


def _cmd_rotor_reach(args, out) -> int:
    instance = _load(args.instance)
    c1 = instance.config(args.source)
    c2 = instance.config(args.target)
    verdict = rotorrouting.reach_rotor(
        instance.graph, instance.ribbon, c1, c2, max_batches=args.budget_steps
    )
    line = f"decision={verdict.decision}"
    if verdict.routing_vector is not None:
        line += f" r={_fmt_vec(verdict.routing_vector)}"
    if verdict.reason:
        line += f" reason={verdict.reason}"
    if verdict.decision == "NO" and verdict.routing_vector is not None:
        line += f" s1={_fmt_vec(verdict.s1)} s2={_fmt_vec(verdict.s2)}"
    out(line)
    if args.trace and verdict.trace is not None:
        out(f"trace={_fmt_batches(verdict.trace.batches)}")
    return EXIT_OK


def _cmd_oracle_check(args, out) -> int:
    try:
        sweep = SWEEPS[args.sweep]
    except KeyError:
        raise _InputError(
            f"unknown sweep {args.sweep!r} (choose from {', '.join(sorted(SWEEPS))})"
        )
    report = sweep(args.count, args.seed)
    out(report.summary())
    for failure in report.failures:
        out(f"failure={failure!r}")
    return EXIT_OK


def _cmd_gen(args, out) -> int:
    try:
        instance = gen_instance(
            args.family, args.size, args.seed, digits=args.digits
        )
    except ValueError as exc:
        raise _InputError(str(exc))
    text = serialize_instance(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out(f"written={args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bfs_reach(args, out) -> int:
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
    out(f"reachable={'yes' if result else 'no'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorchip",
        description=(
            "Reachability, recurrence, linear equivalence and halting "
            "for chip-firing and rotor-routing games."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget-steps",
        type=int,
        default=1_000_000,
        help="cap on game batches/steps before giving up (exit 3)",
    )
    common.add_argument(
        "--budget-states",
        type=int,
        default=500_000,
        help="cap on visited configurations in searches (exit 3)",
    )
    common.add_argument(
        "--trace", action="store_true", help="also print the legal game trace"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized subcommands"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, instance=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        if instance:
            p.add_argument("instance", help="instance file path")
        return p

    add("period", _cmd_period, "period vectors and per(G)")
    add("scc", _cmd_scc, "strongly connected components")

    p = add("chip-reach", _cmd_chip_reach, "chip-firing reachability")
    p.add_argument("--source", default="src")
    p.add_argument("--target", default="dst")

    p = add("chip-recurrent", _cmd_chip_recurrent, "chip recurrence test")
    p.add_argument("--config", default=None)

    p = add("chip-halting", _cmd_chip_halting, "desk-scale halting analysis")
    p.add_argument("--config", default=None)

    p = add("lin-equiv", _cmd_lin_equiv, "linear equivalence of chip configs")
    p.add_argument("--source", default="src")
    p.add_argument("--target", default="dst")

    p = add("rotor-route", _cmd_rotor_route, "apply the closed-form routing map")
    p.add_argument("--config", default=None)
    p.add_argument("--r", required=True, help="routing vector, comma-separated")

    p = add("rotor-odom", _cmd_rotor_odom, "simulate the r-bounded rotor game")
    p.add_argument("--config", default=None)
    p.add_argument("--r", required=True, help="bound vector, comma-separated")

    p = add(
        "rotor-unconstrained",
        _cmd_rotor_unconstrained,
        "unconstrained rotor reachability",
    )
    p.add_argument("--source", default="src")
    p.add_argument("--target", default="dst")

    p = add("rotor-reach", _cmd_rotor_reach, "legal rotor reachability")
    p.add_argument("--source", default="src")
    p.add_argument("--target", default="dst")

    p = add("bfs-reach", _cmd_bfs_reach, "brute-force oracle on one instance")
    p.add_argument("--game", choices=("chip", "rotor"), default="rotor")
    p.add_argument("--source", default="src")
    p.add_argument("--target", default="dst")

    p = add(
        "oracle-check",
        _cmd_oracle_check,
        "run an engine-versus-oracle sweep",
        instance=False,
    )
    p.add_argument("--sweep", default="rotor-reach")
    p.add_argument("--count", type=int, default=200)

    p = add("gen", _cmd_gen, "generate a random instance", instance=False)
    p.add_argument("--family", choices=FAMILIES, default="strongly-connected")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--digits", type=int, default=18)
    p.add_argument("--out", default=None, help="write to file instead of stdout")

    return parser


def run_command(argv) -> int:
    # The parser is rebuilt on every call on purpose.  Caching it took the
    # solve-mid benchmark (small in-process queries) from 392 to 868
    # queries/s, but its peak RSS from 22.2 to 23.4 MB, over that
    # benchmark's 5% bound: without argparse's cyclic garbage no full
    # collection ran in 20 passes (17 did with it), and RSS stayed about
    # 1 MB higher at an equal pass count.
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def out(line: str) -> None:
        print(line)

    try:
        return args.func(args, out)
    except (_InputError, InstanceFormatError, ValueError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
