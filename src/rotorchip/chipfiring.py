"""Chip-firing dynamics: legal games, bounded games, reachability, recurrence, halting.

Chip configurations are plain int tuples indexed by vertex and may be
negative.  A firing at v is legal when v keeps a nonnegative pile, that
is x(v) >= outdeg(v).  All game procedures are deterministic; the
bounded-game abelian property makes the firing vector and the final
configuration schedule-independent, so determinism costs nothing and
buys reproducible traces.

The bounded game plays ``multigraph.play_rounds``' sorted rounds with
the out-degrees as units: a batch fires v k times in O(runs(v)) over the
graph's adjacency, where runs(v) is v's out-support unless a head
repeats.  Trace replay and the sequence validator check every firing
through ``multigraph.replay_batches``, with the same units and batch.
``halts`` fires one chip-firing at a time, smallest
vertex first, in one of two loops that play the same game.  The heap
loop keeps the legal vertices in a min-heap: O(runs(v) + log n) per
firing.  The packed loop keeps the configuration in one int of w-bit
fields, so a firing is one big-int add: O(n w / 64) words per firing.
``halts`` plays the packed loop when the fields fit in 64 bits, n w <=
4096 bits and g averages at least 4 runs per vertex, and the heap loop
otherwise; on the benchmark's dense Eulerian ``game-large`` graphs it
took about 46 ms where the heap took 65 ms (``halts`` says how the rule
was measured).  Neither stores a visited configuration: ``halts`` decides
non-halting by period domination, once the game has fired the
primitive period vector p, so it keeps O(n) memory; p costs one
elimination, or nothing on an Eulerian graph, where the connectivity
check already found every vertex balanced and p is the ones vector.

Firing keeps the chip total, so ``reach_chip`` answers an equal pair or
unequal totals in O(n), and the recurrence tests answer a stable start
after their connectivity check, with no elimination.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from operator import ge

from .errors import DEFAULT_GAME_BUDGET, BudgetExceededError
from .intlinalg import _component_period, _sink_solution, nonneg_reduced_solution
from .multigraph import (
    DirectedMultigraph,
    IntVector,
    OutEdges,
    _check_vector,
    play_rounds,
    replay_batches,
    strongly_connected_balance,
)

ChipConfig = IntVector
CountVector = IntVector


def _fire_in_place(chips: list[int], out: OutEdges, v: int, k: int) -> None:
    """Fire v k times on ``chips``: O(runs(v)) operations."""
    deg, edges = out
    chips[v] -= k * deg
    for u, m in edges:
        chips[u] += k * m


def fire(g: DirectedMultigraph, x: ChipConfig, v: int) -> ChipConfig:
    """Unconstrained firing: v sends one chip along each outgoing edge."""
    return fire_many(g, x, v, 1)


def is_legal_fire(g: DirectedMultigraph, x: ChipConfig, v: int) -> bool:
    return 0 <= v < g.n and x[v] >= g.out_degree(v)


def fire_many(g: DirectedMultigraph, x: ChipConfig, v: int, k: int) -> ChipConfig:
    """Fire v exactly k times in one arithmetic step."""
    if k < 0:
        raise ValueError("repetition count must be nonnegative")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    out = list(x)
    _fire_in_place(out, g.adjacency()[v], v, k)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class ChipGameTrace:
    """A legal game as batches: fire ``vertex`` ``count`` times in a row."""

    initial: ChipConfig
    batches: tuple[tuple[int, int], ...]
    final: ChipConfig
    firing_vector: CountVector

    def replay(self, g: DirectedMultigraph) -> bool:
        """Re-run the batches, checking legality of every single firing."""
        return _replay(g, self.initial, self.batches) == (self.final, self.firing_vector)


def _replay(
    g: DirectedMultigraph, x: ChipConfig, batches
) -> tuple[ChipConfig, CountVector] | None:
    """(final, firing vector) after the (v, k) batches from x; None at an illegal one.

    ``replay_batches`` with the out-degrees as units: O(runs(v)) per batch.
    """
    adj = g.adjacency()
    cur = list(x)
    fired = replay_batches(
        cur, [out.degree for out in adj], [True] * g.n,
        lambda v, k: _fire_in_place(cur, adj[v], v, k), batches,
    )
    return None if fired is None else (tuple(cur), tuple(fired))


@dataclass(frozen=True, slots=True)
class BoundedChipResult:
    """A bounded game's outcome; ``batch_count`` counts its batches, traced or not."""

    firing_vector: CountVector
    final: ChipConfig
    trace: ChipGameTrace | None
    batch_count: int


def bounded_chip_game(
    g: DirectedMultigraph,
    x: ChipConfig,
    bound: CountVector,
    max_batches: int = DEFAULT_GAME_BUDGET,
    trace: bool = True,
) -> BoundedChipResult:
    """Play a maximal legal game firing each v at most bound(v) times.

    The firing vector and final configuration are the same for every
    maximal bounded schedule, so a deterministic one is canonical: the
    sorted rounds of ``play_rounds``, with the out-degrees as units, so
    a vertex may fire while x(v) >= deg(v).  A sink moves nothing when it
    fires, so it burns its whole bound in one batch.

    As measured on Eulerian graphs, the batch count grows about linearly
    in the chips' bit length: about 358,000 batches for 256-bit chips at
    n=60 (README).  No polynomial bound is claimed; on the chain with two
    edges forward and one back it grows about 2^(0.9 n).  Raises
    BudgetExceededError when more than ``max_batches`` batches are
    needed.  Without ``trace`` the result's trace is None.
    """
    _check_vector(g.n, bound, "count vector", nonneg=True)
    _check_vector(g.n, x, "chip configuration")
    adj = g.adjacency()
    cur = list(x)
    fired, batches, count = play_rounds(
        adj, cur, [out.degree for out in adj], bound,
        lambda v, k: _fire_in_place(cur, adj[v], v, k), max_batches, trace, "chip",
    )
    final = tuple(cur)
    return BoundedChipResult(
        firing_vector=tuple(fired),
        final=final,
        trace=ChipGameTrace(tuple(x), tuple(batches), final, tuple(fired)) if trace else None,
        batch_count=count,
    )


@dataclass(frozen=True, slots=True)
class ChipReachVerdict:
    """Outcome of a chip reachability query.

    decision is "YES", "NO" or "UNKNOWN" (budget ran out; never a wrong
    answer).  On YES, ``firing_vector`` is the reduced vector of a legal
    game from source to target and ``trace`` replays one such game.
    """

    decision: str
    firing_vector: CountVector | None = None
    reason: str | None = None
    trace: ChipGameTrace | None = None


def reach_chip(
    g: DirectedMultigraph,
    x: ChipConfig,
    y: ChipConfig,
    max_batches: int = DEFAULT_GAME_BUDGET,
) -> ChipReachVerdict:
    """Decide whether some legal game leads from x to y.

    y is reachable iff the unique reduced nonnegative f with
    L f = y - x exists and the maximal f-bounded game from x fires
    exactly f.  x reaches itself via the empty game.

    Cost: one exact solve, then a game of at most sum(f) batches.  That
    count grows with the entries of f and of the period vector p, so with
    per(G) = sum(p), not with n and the bit length alone: on the chain
    with two edges forward and one back, per(G) = 2^n - 1 while every
    multiplicity is at most 2.  Past ``max_batches`` the verdict is
    UNKNOWN (``chip-reach`` exits 3); that is the designed outcome, since
    chip reachability is hard in general.  When x and y differ in total,
    or are equal, the whole query is O(n): the solve makes no
    connectivity pass or elimination, and the game fires nothing.
    """
    _check_vector(g.n, x, "configuration")
    _check_vector(g.n, y, "configuration")
    d = tuple([b - a for a, b in zip(x, y)])
    f = nonneg_reduced_solution(g, d)
    if f is None:
        return ChipReachVerdict("NO", reason="no-nonneg-firing-vector")
    try:
        result = bounded_chip_game(g, x, f, max_batches=max_batches)
    except BudgetExceededError:
        return ChipReachVerdict("UNKNOWN", firing_vector=f, reason="budget-exceeded")
    if result.firing_vector == f:
        return ChipReachVerdict("YES", firing_vector=f, trace=result.trace)
    return ChipReachVerdict("NO", firing_vector=f, reason="bounded-game-stuck")


def _recurrence_period(g: DirectedMultigraph, x: ChipConfig) -> CountVector | None:
    """p after the connectivity and then the length check; None when x is stable.

    The connectivity check tells whether g is balanced, and then p is the
    ones vector with no elimination.
    """
    balanced = strongly_connected_balance(g)
    if balanced is None:
        raise ValueError("period vector requires a strongly connected graph")
    _check_vector(g.n, x, "chip configuration")
    degs = g.out_degrees()
    if not any([c >= d for c, d in zip(x, degs)]):
        return None
    return _component_period(g, range(g.n), degs, balanced)


def is_recurrent(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_batches: int = DEFAULT_GAME_BUDGET,
) -> bool:
    """Whether a nonempty legal game returns to x (strongly connected g).

    Equivalent to the maximal p-bounded game from x firing the whole
    primitive period vector p.  That game takes at most per(G) = sum(p)
    batches, so its time grows with per(G), not with n and the bit length
    alone; it keeps no trace, so its memory is O(n).  Past
    ``max_batches`` it raises BudgetExceededError (``chip-recurrent``
    exits 3), the designed outcome where per(G) is large.  A stable x
    fires nothing: False after the connectivity check, with no p.  A
    vertex of out-degree 0 fires legally with x(v) >= 0 chips and moves
    none, so on the one-vertex graph every x >= 0 is recurrent, as in
    ``bruteforce.oracle_is_recurrent``.
    """
    p = _recurrence_period(g, x)
    if p is None:
        return False
    return bounded_chip_game(g, x, p, max_batches=max_batches, trace=False).firing_vector == p


def is_recurrent_via_reach(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_batches: int = DEFAULT_GAME_BUDGET,
) -> bool:
    """Recurrence through the reachability reduction.

    Fire the smallest legally fireable vertex v, then test whether the
    result reaches x back, as the (p - 1_v)-bounded game achieving its
    full bound.  Stable configurations are never recurrent, and as in
    ``is_recurrent`` need no p.  The game takes at most per(G) - 1
    batches, with the same cost and the same BudgetExceededError past
    ``max_batches`` as ``is_recurrent``.
    """
    p = _recurrence_period(g, x)
    if p is None:
        return False
    v = next(u for u in range(g.n) if is_legal_fire(g, x, u))
    bound = tuple([p[u] - (1 if u == v else 0) for u in range(g.n)])
    result = bounded_chip_game(g, fire(g, x, v), bound, max_batches=max_batches, trace=False)
    return result.firing_vector == bound


def lin_equiv(g: DirectedMultigraph, x: ChipConfig, y: ChipConfig) -> CountVector | None:
    """The reduced f >= 0 with y = x + L f, or None when not equivalent.

    Requires strong connectivity (symmetry of the relation needs a
    positive period vector).  g is then its one sink component.  Cost:
    the one walk of ``strongly_connected_balance``, O(n + runs), which
    checks the connectivity and finds the balance; then O(n) when x == y
    or their totals differ, else one elimination.
    """
    balanced = strongly_connected_balance(g)
    if balanced is None:
        raise ValueError("linear equivalence requires a strongly connected graph")
    _check_vector(g.n, x, "configuration")
    _check_vector(g.n, y, "configuration")
    out = [0] * g.n
    rhs = [a - b for a, b in zip(x, y)]
    if not _sink_solution(g, range(g.n), g.out_degrees(), rhs, balanced, out):
        return None
    return tuple(out)


@dataclass(frozen=True, slots=True)
class HaltingVerdict:
    """Result of simulating the unbounded game from x.

    kind is "halts", "non-halting" or "budget-exceeded".  A non-halting
    verdict carries a certificate: a configuration the game reached with
    firing vector F >= p, the primitive period vector, hence recurrent
    and linearly equivalent to x.  ``witness_to_certificate`` is F, so
    the certificate is x + L F, and ``witness_cycle`` is p, the firing
    vector of a legal game from the certificate back to itself.  A
    budget-exceeded verdict names the one budget, ``max_steps``, in
    ``reason``: "max-steps".
    """

    kind: str
    final: ChipConfig | None = None
    firing_vector: CountVector | None = None
    certificate: ChipConfig | None = None
    witness_to_certificate: CountVector | None = None
    witness_cycle: CountVector | None = None
    reason: str | None = None


# The packed game's limits (see ``halts``): a configuration of at most
# this many bits, on a graph averaging at least this many runs per vertex.
_PACKED_MAX_BITS = 4096
_PACKED_MIN_RUNS = 4

# per field width in bits, an array typecode of that item size
_FIELD_CODES = {array(code).itemsize * 8: code for code in "BHILQ"}


def halts(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_steps: int = DEFAULT_GAME_BUDGET,
) -> HaltingVerdict:
    """Simulate the greedy legal game until it stabilizes or fires p.

    The game fires one chip-firing at a time, the smallest legal vertex
    first.  Period domination decides non-halting: once a legal game from
    x has fired F >= p, the configuration y it reached is recurrent.  Keep
    only the last p(v) firings of each v and replay them from y: before
    each kept firing, v's pile exceeds its pile at that moment of the
    original game by at least (L p)(v) = 0, so the replay is legal, fires
    p and returns to y.  An infinite game fires every vertex infinitely
    often (Bjorner-Lovasz 1992), so the rule always fires on a non-halting
    x, and no later than the first repeated configuration, whose loop
    fires a positive multiple of p.

    The game counts ``short``, the vertices still below their target:
    all ones at first, then p, computed once every vertex has fired.  It
    keeps O(n) memory, the packed loop's rows included (at most 512 bytes
    per vertex), whatever ``max_steps``, its one budget, allows: at most
    that many firings, so a game stable after exactly ``max_steps`` of
    them halts.  Strong connectivity costs one walk over the runs,
    which also finds whether g is balanced, and then p = ones; the one
    component is all of g.  A stable x is answered after that walk and
    the length check, with no game state.

    Two loops play the same game, firing for firing:

    - The heap loop keeps the legal vertices in a min-heap and the piles
      in a list: O(runs(v) + log n) per firing.
    - The packed loop keeps the configuration in one int of w-bit fields,
      w in 8, 16, 32, 64, each holding cur(v) - deg(v) + 2^(w-1).  A
      field's top bit says v can fire, so the smallest legal vertex is
      the lowest set bit of the fields' top bits, and a firing is one add
      of v's packed row: O(n w / 64) words per firing, plus one pass
      over v's runs at v's first firing to build its row.  A firing
      leaves its vertex at 0 or more, so every pile stays within
      [min(x, 0), P], with P the sum of x's positive entries, and w is
      the least width with 2^(w-1) > max(P, max deg - min(x, 0)).

    ``halts`` plays the packed loop when such a w exists, n w <= 4096
    bits (``_PACKED_MAX_BITS``) and g averages at least 4 runs per vertex
    (``_PACKED_MIN_RUNS``), and the heap loop otherwise.  Measured on
    unions of random Hamiltonian cycles from one chip above the largest
    stable total (Python 3.11, 2-core Xeon KVM guest), a heap firing
    took about 0.6 + 0.09 runs(v) us, and a packed firing 0.6-0.7 us at
    1,024-2,048 bits, 0.95 us at 4,096 and 1.6 us at 8,192; building a
    row costs about one heap firing.  So at 4,096 bits the loops break
    even near 4 runs per vertex.  On the nine Eulerian graphs of the
    benchmark's ``game-large`` (n = 100-140, 8.4-48 runs per vertex,
    16-bit fields), the packed loop took about 46 ms where the heap loop
    took 65 ms over their 54 ``chip-halting`` starts at seed 1 (the
    median of 7 calls per start, summed).

    Unlike the bounded games, ``halts`` stays smallest-first and fires
    one at a time.  Its certificate is a configuration on the game it
    plays, and callers check it by replaying that greedy single-firing
    game; another schedule would reach another configuration on the
    cycle.  Its budget also counts single firings.
    """
    balanced = strongly_connected_balance(g)
    if balanced is None:
        raise ValueError("halting analysis requires a strongly connected graph")
    _check_vector(g.n, x, "configuration")
    adj = g.adjacency()
    degs = [out.degree for out in adj]
    if not any(map(ge, x, degs)):
        return HaltingVerdict("halts", final=tuple(x), firing_vector=(0,) * g.n)
    # the rule's cheap tests first: 8 bits is the narrowest field, and a run
    # holds at least one edge, so fewer edges than 4n means fewer runs
    least = _PACKED_MIN_RUNS * g.n
    if (
        8 * g.n <= _PACKED_MAX_BITS
        and sum(degs) >= least
        and sum([len(out.edges) for out in adj]) >= least
    ):
        width = _field_width(x, degs)
        if width is not None and g.n * width <= _PACKED_MAX_BITS:
            return _packed_halts(g, x, degs, balanced, max_steps, width)
    return _heap_halts(g, x, degs, balanced, max_steps)


def _field_width(x: ChipConfig, degs: list[int]) -> int | None:
    """The least field width of ``halts``'s packed loop for the game from x, or None past 64 bits."""
    need = max(sum([c for c in x if c > 0]), max(degs) - min(min(x), 0))
    return next((w for w in _FIELD_CODES if need < 1 << (w - 1)), None)


def _heap_halts(
    g: DirectedMultigraph, x: ChipConfig, degs: list[int], balanced: bool, max_steps: int
) -> HaltingVerdict:
    """``halts``'s game with the legal vertices in a min-heap: O(runs(v) + log n) per firing."""
    adj = g.adjacency()
    cur = list(x)
    fired = [0] * g.n
    target = (1,) * g.n
    period: IntVector | None = None
    short = g.n
    queued = list(map(ge, cur, degs))
    heap = list(compress(range(g.n), queued))  # ascending, so a heap
    for _ in range(max_steps):
        if not heap:
            break
        v = heap[0]
        deg, edges = adj[v]
        left = cur[v] - deg
        cur[v] = left
        if left < deg:
            # leave before any head joins: a head can be smaller than v
            heappop(heap)
            queued[v] = False
        for u, m in edges:
            c = cur[u] + m
            cur[u] = c
            if c >= degs[u] and not queued[u]:
                queued[u] = True
                heappush(heap, u)
        k = fired[v] + 1
        fired[v] = k
        if k == target[v]:
            short -= 1
            if not short and period is None:
                period = target = _component_period(g, range(g.n), degs, balanced)
                short = sum([f < p for f, p in zip(fired, period)])
            if not short:
                return HaltingVerdict(
                    "non-halting",
                    certificate=tuple(cur),
                    witness_to_certificate=tuple(fired),
                    witness_cycle=period,
                )
    if heap:
        return HaltingVerdict("budget-exceeded", reason="max-steps")
    return HaltingVerdict("halts", final=tuple(cur), firing_vector=tuple(fired))


def _packed_halts(
    g: DirectedMultigraph,
    x: ChipConfig,
    degs: list[int],
    balanced: bool,
    max_steps: int,
    width: int,
) -> HaltingVerdict:
    """``halts``'s game on one int of ``width``-bit fields: one add per firing.

    ``width`` must come from ``_field_width(x, degs)`` or exceed it, so
    that no field leaves [0, 2^width) and the packed sum is the sum of
    the fields.
    """
    adj = g.adjacency()
    code, half, order = _FIELD_CODES[width], 1 << (width - 1), sys.byteorder
    packed = int.from_bytes(array(code, [c - d + half for c, d in zip(x, degs)]), order)
    tops = int.from_bytes(array(code, [half]) * g.n, order)
    zeros = array(code, [0]) * g.n
    rows: list[int | None] = [None] * g.n
    fired = [0] * g.n
    target = (1,) * g.n
    period: IntVector | None = None
    short = g.n
    for _ in range(max_steps):
        ready = packed & tops
        if not ready:
            break
        v = (ready & -ready).bit_length() // width - 1
        row = rows[v]
        if row is None:
            # v's head totals, less deg(v) in v's own field
            heads = zeros[:]
            for u, m in adj[v].edges:
                heads[u] += m
            row = rows[v] = int.from_bytes(heads, order) - (degs[v] << width * v)
        packed += row
        k = fired[v] + 1
        fired[v] = k
        if k == target[v]:
            short -= 1
            if not short and period is None:
                period = target = _component_period(g, range(g.n), degs, balanced)
                short = sum([f < p for f, p in zip(fired, period)])
            if not short:
                return HaltingVerdict(
                    "non-halting",
                    certificate=_unpack(packed, width, degs),
                    witness_to_certificate=tuple(fired),
                    witness_cycle=period,
                )
    if packed & tops:
        return HaltingVerdict("budget-exceeded", reason="max-steps")
    return HaltingVerdict("halts", final=_unpack(packed, width, degs), firing_vector=tuple(fired))


def _unpack(packed: int, width: int, degs: list[int]) -> ChipConfig:
    """The configuration whose fields, cur(v) - deg(v) + 2^(width-1), ``packed`` holds."""
    fields = array(_FIELD_CODES[width], packed.to_bytes(len(degs) * width // 8, sys.byteorder))
    half = 1 << (width - 1)
    return tuple([f - half + d for f, d in zip(fields, degs)])


def verify_nonhalting_certificate(g: DirectedMultigraph, x: ChipConfig, y: ChipConfig) -> bool:
    """Check that y proves x non-halting: x ~ y and y is recurrent."""
    return lin_equiv(g, x, y) is not None and is_recurrent(g, y)


def validate_legal_firing_sequence(g: DirectedMultigraph, x: ChipConfig, seq) -> bool:
    """True when each firing in seq is legal at its moment: O(runs(v)) per firing."""
    return _replay(g, x, ((v, 1) for v in seq)) is not None
