"""Seeded instance generation: named families and sweep case streams.

Families back the ``gen`` subcommand; the case streams feed the
engine-versus-oracle sweeps.  Everything is driven by an explicit seed
and replayable: same seed, same instances, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from random import Random

from .instancefile import Instance
from .multigraph import DirectedMultigraph, OutEdges, head_totals, share_small
from .rotorrouting import (
    ChipRotorConfig,
    RibbonStructure,
    is_legal_route,
    pi_r,
    route,
)
from .chipfiring import fire, fire_many, is_legal_fire

FAMILIES = ("eulerian", "strongly-connected", "heavy-multiplicity", "random")

# eulerian and random have Theta(n^2) edges: on a 2-core Xeon VM, gen at 2048
# vertices took 3.7 s / 189 MB and 9.3 s / 688 MB, at 1024 0.9 s and 2.5 s
DENSE_FAMILIES = ("eulerian", "random")
DENSE_FAMILY_MAX_SIZE = 1024

# expanding a cyclic order beyond this degree would defeat the
# run-length encoding, so shuffle whole runs instead
_EXPAND_LIMIT = 64

# the case streams' graphs and chips stay at oracle scale
_CASE_N_MAX = 4
_CASE_MULT_MAX = 3
_CASE_CHIPS_MAX = 3


def _add_cycle(edges: list[tuple[int, int, int]], cycle: list[int], m: int) -> None:
    edges.extend([(a, b, m) for a, b in zip(cycle, cycle[1:] + cycle[:1])])


def gen_graph(
    family: str, size: int, rng: Random, digits: int = 18
) -> DirectedMultigraph:
    """One random graph from a named family.

    eulerian: hamiltonian cycle plus random simple cycles (balanced and
    strongly connected by construction).  strongly-connected:
    hamiltonian cycle plus arbitrary extra edges.  heavy-multiplicity:
    strongly connected with multiplicities of about ``digits`` decimal
    digits.  random: independent sparse multiplicities, no connectivity
    guarantee.  ``size`` is the vertex count, at least 2, and at most
    ``DENSE_FAMILY_MAX_SIZE`` for the dense families eulerian and random.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {FAMILIES})")
    if size < 2:
        raise ValueError(f"graph size must be at least 2, got {size}")
    if family in DENSE_FAMILIES and size > DENSE_FAMILY_MAX_SIZE:
        raise ValueError(
            f"family {family} has Theta(n^2) edges and is capped at "
            f"{DENSE_FAMILY_MAX_SIZE} vertices, got {size}"
        )
    n = size
    edges: list[tuple[int, int, int]] = []
    if family == "eulerian":
        _add_cycle(edges, list(range(n)), 1)
        for _ in range(rng.randint(1, n + 1)):
            verts = rng.sample(range(n), rng.randint(2, n))
            _add_cycle(edges, verts, rng.randint(1, 3))
    elif family == "strongly-connected":
        _add_cycle(edges, list(range(n)), rng.randint(1, 2))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(1, 3)))
    elif family == "heavy-multiplicity":
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        _add_cycle(edges, list(range(n)), rng.randint(lo, hi))
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(lo, hi)))
    else:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    edges.append((u, v, rng.randint(1, 3)))
    return DirectedMultigraph.from_edges(n, edges)


def random_ribbon(g: DirectedMultigraph, rng: Random) -> RibbonStructure:
    """A random cyclic out-edge order per vertex, run-length encoded.

    Small degrees get a uniformly random order of the edge multiset;
    huge degrees get a random order of whole runs, keeping the encoding
    succinct.
    """
    all_runs = []
    for out in g.adjacency():
        base = sorted(head_totals(out.edges).items())
        if out.degree <= _EXPAND_LIMIT:
            flat = [u for u, m in base for _ in range(m)]
            rng.shuffle(flat)
            runs = [(u, len(list(group))) for u, group in groupby(flat)]
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
    # the ribbon's runs are the edges: g's own runs are dropped here
    return Instance(ribbon.graph, ribbon, {"default": config})


def _random_small_graph(
    rng: Random, mult_max: int, force_strongly_connected: bool
) -> DirectedMultigraph:
    """A random graph on at most _CASE_N_MAX vertices.

    Each tail's runs come straight from its drawn row, heads ascending,
    not through ``from_edges``: its per-edge checks and per-tail dicts
    made ``desk-many``'s set-up of 10,000 case graphs about 17% slower
    (0.311 -> 0.365 s, medians of 7 alternating runs on a 2-core guest).
    The draws make a valid graph by construction.
    """
    n = rng.randint(2, _CASE_N_MAX)
    adj = []
    for u in range(n):
        row = [0] * n
        if force_strongly_connected:
            row[(u + 1) % n] = 1
        for v in range(n):
            if u != v and rng.random() < 0.45:
                row[v] += rng.randint(1, mult_max)
        row = [min(m, mult_max) for m in row]
        adj.append(OutEdges(sum(row), tuple([(v, m) for v, m in enumerate(row) if m])))
    return DirectedMultigraph.from_checked_adjacency(share_small(tuple(adj)))


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
        yield RotorCase(ribbon.graph, ribbon, source, target, mode)


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
            # source + L f: fire each v f(v) times
            target = source
            for v, k in enumerate([rng.randint(0, 3) for _ in range(g.n)]):
                target = fire_many(g, target, v, k)
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
