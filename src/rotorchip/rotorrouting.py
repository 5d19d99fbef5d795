"""Rotor-routing dynamics on ribbon digraphs with run-length-encoded orders.

A ribbon structure fixes, for every vertex, a cyclic order of its
outgoing edges.  Orders are stored as runs (head, count): ``count``
consecutive parallel edges to ``head``.  They state every edge, so a
ribbon and its graph share one store.  All closed-form operations cost
O(number of runs) arbitrary-precision operations, never O(degree), so
multiplicities around 10**18 stay cheap.  One in-place kernel,
``_route_vertex``, routes a single vertex k times in O(runs(v));
``pi_r`` loops over it, ``route_many`` (and ``route`` through it) calls
it once, and the bounded game and trace replay call it on their own
lists.  The bounded game keeps its eligible vertices in a min-heap
(smallest routed first), so a batch costs O(runs(v) + log n).

A chip-and-rotor configuration pairs a chip vector with a rotor
position per non-sink vertex (a flat index into the cyclic order).  A
routing at v first advances the rotor one position, then sends one chip
from v along the new rotor edge; it is legal when v holds at least one
chip.  Sinks have no rotor and are never routed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import BudgetExceededError
from .intlinalg import nonneg_reduced_solution
from .multigraph import DirectedMultigraph, IntVector, OutEdges, Run, head_totals, share_small

CountVector = IntVector

DEFAULT_MAX_BATCHES = 1_000_000


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RibbonStructure:
    """Cyclic out-edge orders: one ``OutEdges`` per vertex, its runs in order.

    Position i in [0, degree(v)) is the i-th edge when v's runs are laid
    out in order; the order wraps from the last position back to 0.  The
    runs fix the multigraph, so they are its one edge store: ``graph``
    wraps the same tuple and ``of(g)`` takes g's run order, both in O(1).
    The constructor checks the runs in one pass per vertex.  Ribbons
    compare, hash and print by their runs, in order.  ``runs`` and
    ``degrees`` build a tuple on each access, in O(n).
    """

    _adj: tuple[OutEdges, ...]

    def __init__(self, runs: tuple[tuple[Run, ...], ...]) -> None:
        n = len(runs)
        adj = []
        for v, vertex_runs in enumerate(runs):
            rs = tuple([(head, count) for head, count in vertex_runs])
            degree = 0
            for head, count in rs:
                if not (isinstance(head, int) and isinstance(count, int)):
                    raise ValueError(f"run {(head, count)!r} at vertex {v} is not two integers")
                if not 0 <= head < n:
                    raise ValueError(f"run head {head} out of range at vertex {v}")
                if head == v:
                    raise ValueError(f"self-loop run at vertex {v}")
                if count < 1:
                    raise ValueError(f"run count must be positive at vertex {v}")
                degree += count
            adj.append(OutEdges(degree, rs))
        object.__setattr__(self, "_adj", share_small(tuple(adj)))

    @classmethod
    def of(cls, g: DirectedMultigraph) -> RibbonStructure:
        """g's run order as a ribbon, unchecked: a graph's runs pass the checks."""
        ribbon = object.__new__(cls)
        object.__setattr__(ribbon, "_adj", g.adjacency())
        return ribbon

    @property
    def graph(self) -> DirectedMultigraph:
        """The multigraph the runs state, on the same tuple, in O(1)."""
        return DirectedMultigraph.from_checked_adjacency(self._adj)

    def __repr__(self) -> str:
        return f"RibbonStructure(runs={self.runs!r})"

    def adjacency(self) -> tuple[OutEdges, ...]:
        """Per vertex, its out-degree and its out-edges as runs in cyclic order."""
        return self._adj

    @property
    def runs(self) -> tuple[tuple[Run, ...], ...]:
        return tuple([out.edges for out in self._adj])

    @property
    def degrees(self) -> IntVector:
        return tuple([out.degree for out in self._adj])

    @property
    def n(self) -> int:
        return len(self._adj)

    def degree(self, v: int) -> int:
        return self._adj[v].degree

    def is_sink(self, v: int) -> bool:
        return self._adj[v].degree == 0

    def head_at(self, v: int, pos: int) -> int:
        """Head of the out-edge at flat position pos in v's cyclic order."""
        degree, edges = self._adj[v]
        if not 0 <= pos < degree:
            raise ValueError(f"position {pos} out of range at vertex {v}")
        acc = 0
        for head, count in edges:
            acc += count
            if pos < acc:
                return head
        raise AssertionError("unreachable: runs cover all positions")

    def canonical(self) -> RibbonStructure:
        """Merge adjacent runs with equal heads (positions are preserved)."""
        merged = [groupby(out.edges, itemgetter(0)) for out in self._adj]
        return RibbonStructure(tuple([
            tuple([(head, sum([c for _, c in runs])) for head, runs in groups]) for groups in merged
        ]))


def default_ribbon(g: DirectedMultigraph) -> RibbonStructure:
    """One run per distinct successor, heads in ascending order."""
    adj = g.adjacency()
    return RibbonStructure(tuple([tuple(sorted(head_totals(out.edges).items())) for out in adj]))


class ChipRotorConfig(NamedTuple):
    """Chips per vertex plus rotor positions (None exactly at sinks)."""

    chips: IntVector
    rotors: tuple[int | None, ...]


def validate_config(ribbon: RibbonStructure, config: ChipRotorConfig) -> None:
    n = ribbon.n
    if len(config.chips) != n or len(config.rotors) != n:
        raise ValueError("configuration length must match the vertex count")
    for v, (out, pos) in enumerate(zip(ribbon.adjacency(), config.rotors)):
        if out.degree == 0:
            if pos is not None:
                raise ValueError(f"sink vertex {v} must carry no rotor")
        elif pos is None or not 0 <= pos < out.degree:
            raise ValueError(f"rotor position at vertex {v} out of range")


def is_legal_route(ribbon: RibbonStructure, config: ChipRotorConfig, v: int) -> bool:
    return 0 <= v < ribbon.n and not ribbon.is_sink(v) and config.chips[v] > 0


def route(ribbon: RibbonStructure, config: ChipRotorConfig, v: int) -> ChipRotorConfig:
    """One unconstrained routing at v: advance the rotor, then send a chip.

    Routing at a sink moves nothing and is the identity.
    """
    if not 0 <= v < ribbon.n:
        raise ValueError(f"vertex {v} out of range")
    if ribbon.is_sink(v):
        return config
    return route_many(ribbon, config, v, 1)


def _route_vertex(
    out: OutEdges, chips: list[int], rotors: list[int | None], v: int, k: int
) -> None:
    """Route non-sink v, with order ``out``, k times in place, ignoring legality.

    Each full rotor turn sends one chip along every out-edge; the partial
    turn sends one along each of the k % degree positions stepped onto,
    the cyclic window [a, a + rem) starting just after the rotor.  One
    walk over the runs gives each run its full turns plus its overlap
    with the window and with the window's wrapped part [0, a + rem -
    degree); without full turns the walk stops past the window.  Cost is
    O(runs(v)) big-integer operations.
    """
    degree, edges = out
    pos = rotors[v]
    full, rem = divmod(k, degree)
    chips[v] -= k
    rotors[v] = (pos + k) % degree
    a = pos + 1 if pos + 1 < degree else 0
    b = a + rem
    wrap = b - degree
    start = 0
    for head, count in edges:
        end = start + count
        lo = start if start > a else a
        hi = end if end < b else b
        sent = full * count + (hi - lo if hi > lo else 0)
        if wrap > start:
            sent += (end if end < wrap else wrap) - start
        if sent:
            chips[head] += sent
        if end >= b and not full:
            return
        start = end


def pi_r(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    r: CountVector,
) -> ChipRotorConfig:
    """Route each vertex v exactly r(v) times, ignoring legality.

    Unconstrained routings commute, so the result is order-independent.
    Cost is O(total runs) big-integer operations.
    """
    _check_routing_vector(ribbon, r)
    adj = ribbon.adjacency()
    chips = list(config.chips)
    rotors = list(config.rotors)
    for v, rv in enumerate(r):
        if rv:
            _route_vertex(adj[v], chips, rotors, v, rv)
    return ChipRotorConfig(tuple(chips), tuple(rotors))


def route_many(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    v: int,
    k: int,
) -> ChipRotorConfig:
    """k unconstrained routings at a single vertex, in closed form.

    O(runs(v)) big-integer operations, plus copying the configuration.
    """
    if k < 0:
        raise ValueError("repetition count must be nonnegative")
    if not 0 <= v < ribbon.n:
        raise ValueError(f"vertex {v} out of range")
    if k == 0:
        return config
    if ribbon.is_sink(v):
        raise ValueError(f"routing vector positive at sink vertex {v}")
    chips = list(config.chips)
    rotors = list(config.rotors)
    _route_vertex(ribbon.adjacency()[v], chips, rotors, v, k)
    return ChipRotorConfig(tuple(chips), tuple(rotors))


@dataclass(frozen=True, slots=True)
class RotorGameTrace:
    """A legal rotor game as batches: route ``vertex`` ``count`` times."""

    initial: ChipRotorConfig
    batches: tuple[tuple[int, int], ...]
    final: ChipRotorConfig
    routing_vector: CountVector

    def replay(self, ribbon: RibbonStructure) -> bool:
        """Re-run the batches, checking legality of every single routing.

        Within a batch only v loses chips and loses exactly one per
        routing, so chips(v) >= k certifies all k leg checks.  Each
        batch costs O(runs(v)).
        """
        adj = ribbon.adjacency()
        chips = list(self.initial.chips)
        rotors = list(self.initial.rotors)
        routed = [0] * len(adj)
        for v, k in self.batches:
            if not 0 <= v < len(adj) or k < 1 or adj[v].degree == 0 or chips[v] < k:
                return False
            _route_vertex(adj[v], chips, rotors, v, k)
            routed[v] += k
        final = ChipRotorConfig(tuple(chips), tuple(rotors))
        return final == self.final and tuple(routed) == self.routing_vector


@dataclass(frozen=True, slots=True)
class BoundedRotorResult:
    routing_vector: CountVector
    final: ChipRotorConfig
    trace: RotorGameTrace


def bounded_rotor_game(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    bound: CountVector,
    max_batches: int = DEFAULT_MAX_BATCHES,
) -> BoundedRotorResult:
    """Play a maximal legal rotor game routing each v at most bound(v) times.

    Bounded rotor games are abelian, so the deterministic greedy schedule
    (smallest eligible vertex, largest safe batch) yields the canonical
    routing vector, the game's odometer.  A batch spends v's remaining
    bound or its pile, so v leaves the worklist and only its heads can
    join: O(runs(v) + log n) per batch.
    """
    validate_config(ribbon, config)
    if len(bound) != ribbon.n:
        raise ValueError("bound length must match the vertex count")
    if any(b < 0 for b in bound):
        raise ValueError("bound must be nonnegative")
    adj, degs = ribbon.adjacency(), ribbon.degrees
    chips = list(config.chips)
    rotors = list(config.rotors)
    routed = [0] * ribbon.n
    queued = [d > 0 and b > 0 and c > 0 for d, b, c in zip(degs, bound, chips)]
    heap = [v for v in range(ribbon.n) if queued[v]]  # ascending, so a heap
    batches: list[tuple[int, int]] = []
    while heap:
        v = heappop(heap)
        queued[v] = False
        k = min(bound[v] - routed[v], chips[v])
        if len(batches) >= max_batches:
            raise BudgetExceededError(
                f"bounded rotor game exceeded {max_batches} batches"
            )
        _route_vertex(adj[v], chips, rotors, v, k)
        routed[v] += k
        batches.append((v, k))
        for u, _ in adj[v].edges:
            if not queued[u] and chips[u] > 0 and routed[u] < bound[u] and degs[u]:
                queued[u] = True
                heappush(heap, u)
    final = ChipRotorConfig(tuple(chips), tuple(rotors))
    return BoundedRotorResult(
        routing_vector=tuple(routed),
        final=final,
        trace=RotorGameTrace(config, tuple(batches), final, tuple(routed)),
    )


def unconstrained_reach(
    g: DirectedMultigraph,
    ribbon: RibbonStructure,
    c1: ChipRotorConfig,
    c2: ChipRotorConfig,
) -> CountVector | None:
    """The reduced r >= 0 with pi_r(c1) = c2, or None when none exists.

    Rotor positions force r modulo the degrees (the alignment part r1);
    beyond that only whole turns remain, and a whole turn at v moves
    chips exactly like firing v.  So r = r1 + z * deg with z the reduced
    nonnegative solution of L z = chips2 - pi_r1(c1).chips, solved on
    ``g``, which must equal ``ribbon.graph``.
    """
    validate_config(ribbon, c1)
    validate_config(ribbon, c2)
    degs = ribbon.degrees
    r1 = tuple([
        0 if degs[v] == 0 else (c2.rotors[v] - c1.rotors[v]) % degs[v]
        for v in range(ribbon.n)
    ])
    # routing v r1[v] times turns its rotor to c2.rotors[v]; sinks keep None
    aligned = pi_r(ribbon, c1, r1)
    z = nonneg_reduced_solution(
        g, tuple([b - a for a, b in zip(aligned.chips, c2.chips)])
    )
    if z is None:
        return None
    return tuple([r1[v] + z[v] * degs[v] for v in range(ribbon.n)])


def reachability_sets(
    ribbon: RibbonStructure,
    target: ChipRotorConfig,
    r: CountVector,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The obstruction sets (S1, T, S2) for realizing routing vector r legally.

    S1: vertices that must route but end with negative chips; always an
    obstruction because a vertex's last legal routing leaves it at >= 0
    and later it only gains.  T: vertices that must route and end at
    exactly 0.  S2: vertices of T whose forward orbit under the target
    rotor edges stays inside T; such a vertex's last outgoing chip can
    never be replaced, so no legal order exists.  A legal game realizing
    r exists iff S1 and S2 are both empty.
    """
    y = target.chips
    s1 = tuple([v for v in range(ribbon.n) if r[v] > 0 and y[v] < 0])
    t = tuple([v for v in range(ribbon.n) if r[v] > 0 and y[v] == 0])
    tset = frozenset(t)
    succ = {v: ribbon.head_at(v, target.rotors[v]) for v in t}
    escaped = set()
    preds: dict[int, list[int]] = {}
    stack = []
    for v in t:
        if succ[v] in tset:
            preds.setdefault(succ[v], []).append(v)
        else:
            escaped.add(v)
            stack.append(v)
    while stack:
        u = stack.pop()
        for w in preds.get(u, ()):
            if w not in escaped:
                escaped.add(w)
                stack.append(w)
    s2 = tuple([v for v in t if v not in escaped])
    return s1, t, s2


@dataclass(frozen=True, slots=True)
class RotorReachVerdict:
    """Outcome of a rotor reachability query.

    decision is "YES" or "NO" (the procedure is polynomial and always
    conclusive).  On YES, ``routing_vector`` is the reduced odometer of
    a legal game from source to target, and ``trace`` replays one such
    game when a trace was asked for and its budget allowed producing it;
    when the budget ran out ``reason`` is "trace-budget-exceeded".  On
    NO, ``reason`` says whether
    unconstrained routing already fails or which obstruction set is
    nonempty.
    """

    decision: str
    routing_vector: CountVector | None = None
    s1: tuple[int, ...] = ()
    t: tuple[int, ...] = ()
    s2: tuple[int, ...] = ()
    reason: str | None = None
    trace: RotorGameTrace | None = None


def reach_rotor(
    g: DirectedMultigraph,
    ribbon: RibbonStructure,
    c1: ChipRotorConfig,
    c2: ChipRotorConfig,
    max_batches: int = DEFAULT_MAX_BATCHES,
    trace: bool = True,
) -> RotorReachVerdict:
    """Decide whether some legal rotor game leads from c1 to c2.

    Reachable iff c2 is the unconstrained image under the reduced r and
    both obstruction sets for that r are empty: one exact solve, ``pi_r``
    and the O(n) sets.  On YES with ``trace`` the r-bounded game is
    played as well; it achieves odometer r, so its trace is a legal
    witness.  If its budget of ``max_batches`` runs out the decision
    stands with trace = None and reason "trace-budget-exceeded".  Without
    ``trace`` no game is played and ``max_batches`` is not used.  ``g``
    must equal ``ribbon.graph``.
    """
    r = unconstrained_reach(g, ribbon, c1, c2)
    if r is None:
        return RotorReachVerdict("NO", reason="not-unconstrained-reachable")
    s1, t, s2 = reachability_sets(ribbon, c2, r)
    if s1 or s2:
        return RotorReachVerdict(
            "NO",
            routing_vector=r,
            s1=s1,
            t=t,
            s2=s2,
            reason="s1-nonempty" if s1 else "s2-nonempty",
        )
    if not trace:
        return RotorReachVerdict("YES", routing_vector=r, t=t)
    try:
        game = bounded_rotor_game(ribbon, c1, r, max_batches=max_batches)
    except BudgetExceededError:
        return RotorReachVerdict(
            "YES", routing_vector=r, t=t, reason="trace-budget-exceeded"
        )
    return RotorReachVerdict("YES", routing_vector=r, t=t, trace=game.trace)


def odometer_equals_bound(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    r: CountVector,
) -> bool:
    """Whether the maximal r-bounded legal game routes the full bound r.

    Decided without simulation: the odometer reaches r iff some legal
    order realizes r, iff both obstruction sets for the unconstrained
    image pi_r(config) are empty.
    """
    validate_config(ribbon, config)
    target = pi_r(ribbon, config, r)
    s1, _, s2 = reachability_sets(ribbon, target, r)
    return not s1 and not s2


def validate_legal_routing_sequence(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    seq: Iterable[int],
) -> bool:
    """True when each routing in seq is legal at its moment."""
    cur = config
    for v in seq:
        if not is_legal_route(ribbon, cur, v):
            return False
        cur = route(ribbon, cur, v)
    return True


def _check_routing_vector(ribbon: RibbonStructure, r: CountVector) -> None:
    if len(r) != ribbon.n:
        raise ValueError("routing vector length must match the vertex count")
    for v, rv in enumerate(r):
        if rv < 0:
            raise ValueError("routing vector must be nonnegative")
        if rv > 0 and ribbon.is_sink(v):
            raise ValueError(f"routing vector positive at sink vertex {v}")
