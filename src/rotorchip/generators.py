"""Seeded instance generation: named families and sweep case streams.

Families back the ``gen`` subcommand; the case streams feed the
engine-versus-oracle sweeps.  Everything is driven by an explicit seed
and replayable: same seed, same instances, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .instancefile import Instance
from .multigraph import DirectedMultigraph
from .rotorrouting import (
    ChipRotorConfig,
    RibbonStructure,
    is_legal_route,
    pi_r,
    route,
)
from .chipfiring import fire, is_legal_fire

FAMILIES = ("eulerian", "strongly-connected", "heavy-multiplicity", "random")

# expanding a cyclic order beyond this degree would defeat the
# run-length encoding, so shuffle whole runs instead
_EXPAND_LIMIT = 64

# the case streams' graphs and chips stay at oracle scale
_CASE_N_MAX = 4
_CASE_MULT_MAX = 3
_CASE_CHIPS_MAX = 3


def _add_cycle(rows: list[list[int]], cycle: list[int], m: int) -> None:
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[a][b] += m


def gen_graph(
    family: str, size: int, rng: Random, digits: int = 18
) -> DirectedMultigraph:
    """One random graph from a named family.

    eulerian: hamiltonian cycle plus random simple cycles (balanced and
    strongly connected by construction).  strongly-connected:
    hamiltonian cycle plus arbitrary extra edges.  heavy-multiplicity:
    strongly connected with multiplicities of about ``digits`` decimal
    digits.  random: independent sparse multiplicities, no connectivity
    guarantee.  ``size`` is the vertex count, at least 2.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {FAMILIES})")
    if size < 2:
        raise ValueError(f"graph size must be at least 2, got {size}")
    n = size
    rows = [[0] * n for _ in range(n)]
    if family == "eulerian":
        _add_cycle(rows, list(range(n)), 1)
        for _ in range(rng.randint(1, n + 1)):
            verts = rng.sample(range(n), rng.randint(2, n))
            _add_cycle(rows, verts, rng.randint(1, 3))
    elif family == "strongly-connected":
        _add_cycle(rows, list(range(n)), rng.randint(1, 2))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            rows[u][v] += rng.randint(1, 3)
    elif family == "heavy-multiplicity":
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        _add_cycle(rows, list(range(n)), rng.randint(lo, hi))
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            rows[u][v] += rng.randint(lo, hi)
    else:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    rows[u][v] = rng.randint(1, 3)
    return DirectedMultigraph(n, tuple(tuple(r) for r in rows))


def random_ribbon(g: DirectedMultigraph, rng: Random) -> RibbonStructure:
    """A random cyclic out-edge order per vertex, run-length encoded.

    Small degrees get a uniformly random order of the edge multiset;
    huge degrees get a random order of whole runs, keeping the encoding
    succinct.
    """
    all_runs = []
    for v in range(g.n):
        base = [(u, m) for u, m in enumerate(g.mult[v]) if m]
        deg = sum(m for _, m in base)
        if deg <= _EXPAND_LIMIT:
            flat = [u for u, m in base for _ in range(m)]
            rng.shuffle(flat)
            runs: list[tuple[int, int]] = []
            for u in flat:
                if runs and runs[-1][0] == u:
                    runs[-1] = (u, runs[-1][1] + 1)
                else:
                    runs.append((u, 1))
        else:
            rng.shuffle(base)
            runs = base
        all_runs.append(tuple(runs))
    return RibbonStructure(tuple(all_runs))


def gen_instance(
    family: str, size: int, seed: int, digits: int = 18
) -> Instance:
    """A complete instance: family graph, random ribbon, one configuration."""
    rng = Random(seed)
    g = gen_graph(family, size, rng, digits=digits)
    ribbon = random_ribbon(g, rng)
    chips = tuple(rng.randint(0, 2) for _ in range(g.n))
    config = ChipRotorConfig(chips, _random_rotors(ribbon, rng))
    return Instance(g, ribbon, {"default": config})


def _random_small_graph(
    rng: Random, mult_max: int, force_strongly_connected: bool
) -> DirectedMultigraph:
    """A random graph on at most _CASE_N_MAX vertices."""
    n = rng.randint(2, _CASE_N_MAX)
    rows = [[0] * n for _ in range(n)]
    if force_strongly_connected:
        _add_cycle(rows, list(range(n)), 1)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                rows[u][v] += rng.randint(1, mult_max)
    for u in range(n):
        for v in range(n):
            rows[u][v] = min(rows[u][v], mult_max)
    return DirectedMultigraph(n, rows)


def _random_chips(rng: Random, n: int) -> tuple[int, ...]:
    """Entries in [-1, 2], resampled until |total| <= _CASE_CHIPS_MAX."""
    while True:
        chips = tuple(
            -1 if rng.random() < 0.15 else rng.randint(0, 2) for _ in range(n)
        )
        if abs(sum(chips)) <= _CASE_CHIPS_MAX:
            return chips


def _random_rotors(ribbon: RibbonStructure, rng: Random):
    return tuple(
        rng.randrange(ribbon.degree(v)) if ribbon.degree(v) else None
        for v in range(ribbon.n)
    )


@dataclass(frozen=True)
class RotorCase:
    graph: DirectedMultigraph
    ribbon: RibbonStructure
    source: ChipRotorConfig
    target: ChipRotorConfig
    mode: str


def rotor_case_stream(seed: int):
    """Endless stream of rotor reachability cases at oracle scale.

    Targets cycle through three regimes: independent random draws
    (mostly unreachable), unconstrained images under a random small r
    (exercising the obstruction sets), and short legal rollouts
    (guaranteed reachable).
    """
    rng = Random(seed)
    while True:
        g = _random_small_graph(rng, _CASE_MULT_MAX, rng.random() < 0.5)
        ribbon = random_ribbon(g, rng)
        source = ChipRotorConfig(
            _random_chips(rng, g.n), _random_rotors(ribbon, rng)
        )
        mode = rng.choice(("random", "pi-image", "rollout"))
        if mode == "random":
            target = ChipRotorConfig(
                _random_chips(rng, g.n), _random_rotors(ribbon, rng)
            )
        elif mode == "pi-image":
            r = tuple(
                0 if ribbon.is_sink(v) else rng.randint(0, 6)
                for v in range(g.n)
            )
            target = pi_r(ribbon, source, r)
        else:
            target = source
            for _ in range(rng.randint(0, 8)):
                legal = [
                    v for v in range(g.n) if is_legal_route(ribbon, target, v)
                ]
                if not legal:
                    break
                target = route(ribbon, target, rng.choice(legal))
        yield RotorCase(g, ribbon, source, target, mode)


@dataclass(frozen=True)
class ChipCase:
    graph: DirectedMultigraph
    source: tuple[int, ...]
    target: tuple[int, ...]
    mode: str


def chip_case_stream(seed: int):
    """Endless stream of chip reachability cases at oracle scale."""
    rng = Random(seed)
    while True:
        g = _random_small_graph(rng, _CASE_MULT_MAX, rng.random() < 0.5)
        source = _random_chips(rng, g.n)
        mode = rng.choice(("random", "laplacian-image", "rollout"))
        if mode == "random":
            target = _random_chips(rng, g.n)
        elif mode == "laplacian-image":
            lap = g.laplacian()
            f = tuple(rng.randint(0, 3) for _ in range(g.n))
            target = tuple(
                source[u] + sum(lap[u][v] * f[v] for v in range(g.n))
                for u in range(g.n)
            )
        else:
            target = source
            for _ in range(rng.randint(0, 8)):
                legal = [
                    v
                    for v in range(g.n)
                    if g.out_degree(v) and is_legal_fire(g, target, v)
                ]
                if not legal:
                    break
                target = fire(g, target, rng.choice(legal))
        yield ChipCase(g, source, target, mode)


def strongly_connected_stream(seed: int, mult_max: int = _CASE_MULT_MAX):
    """Endless stream of (graph, chips) with the graph strongly connected."""
    rng = Random(seed)
    while True:
        g = _random_small_graph(rng, mult_max, True)
        yield g, _random_chips(rng, g.n)
