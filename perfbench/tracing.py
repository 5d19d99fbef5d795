"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each listed public function of ``rotorchip``
with a timing wrapper, in every ``rotorchip`` module that binds it (so a
name one module imported from another is wrapped too), and
``Tracer.uninstall`` puts the originals back.  Untraced runs never install
anything.  Spans stay in memory as ``(name, start, end, parent, query)``
tuples; self time is computed afterwards from the nesting.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, function): the public entry points of each layer
LAYER_FUNCTIONS = (
    ("instancefile", "parse_instance"),
    ("multigraph", "scc_decompose"),
    ("intlinalg", "hermite_row_reduce"),
    ("intlinalg", "solve_integer"),
    ("intlinalg", "primitive_period_vector"),
    ("intlinalg", "period_basis"),
    ("intlinalg", "nonneg_reduced_solution"),
    ("chipfiring", "bounded_chip_game"),
    ("chipfiring", "halts"),
    ("rotorrouting", "pi_r"),
    ("rotorrouting", "route_many"),
    ("rotorrouting", "bounded_rotor_game"),
    ("rotorrouting", "unconstrained_reach"),
    ("rotorrouting", "reachability_sets"),
    ("cli", "run_command"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)


def _bit_length_max(counters, result) -> None:
    if result:
        bits = max(abs(v).bit_length() for v in result)
        key = "intlinalg.solve_integer.bits_max"
        counters[key] = max(counters.get(key, 0), bits)


def _count_batches(key):
    def hook(counters, result) -> None:
        batches = getattr(getattr(result, "trace", None), "batches", ())
        counters[key] = counters.get(key, 0) + len(batches)

    return hook


def _count_firings(counters, result) -> None:
    vectors = (
        getattr(result, "firing_vector", None),
        getattr(result, "witness_to_certificate", None),
        getattr(result, "witness_cycle", None),
    )
    total = sum(sum(vec) for vec in vectors if vec is not None)
    counters["chipfiring.halts.firings"] = (
        counters.get("chipfiring.halts.firings", 0) + total
    )


# counters read from return values, keyed by layer name
RESULT_HOOKS = {
    "intlinalg.solve_integer": _bit_length_max,
    "chipfiring.bounded_chip_game": _count_batches("chipfiring.bounded_chip_game.batches"),
    "rotorrouting.bounded_rotor_game": _count_batches(
        "rotorrouting.bounded_rotor_game.batches"
    ),
    "chipfiring.halts": _count_firings,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.query = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query)
            if hook is not None:
                hook(self.counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a rotorchip module binds it."""
        importlib.import_module("rotorchip")
        for mod, fn in LAYER_FUNCTIONS:
            importlib.import_module(f"rotorchip.{mod}")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "rotorchip" or name.startswith("rotorchip.")
        ]
        self.missing = []
        for (mod, fn), name in zip(LAYER_FUNCTIONS, LAYER_NAMES):
            original = getattr(sys.modules[f"rotorchip.{mod}"], fn, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def take_spans(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since the program is
    single-threaded and the wrappers nest.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _query in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _parent, _query) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return {name: (calls, total) for name, (calls, total) in out.items()}
