"""Chip-firing dynamics: legal games, bounded games, reachability, recurrence, halting.

Chip configurations are plain int tuples indexed by vertex and may be
negative.  A firing at v is legal when v keeps a nonnegative pile, that
is x(v) >= outdeg(v).  All game procedures are deterministic (smallest
eligible vertex first); the bounded-game abelian property makes the
outcome schedule-independent, so determinism costs nothing and buys
reproducible traces.

The games keep their eligible vertices in a min-heap instead of
rescanning all n: a firing at v takes chips only from v and gives them
only to v's heads, so only those can change eligibility.  A firing or
batch costs O(runs(v) + log n) over the graph's adjacency, where runs(v)
is v's out-support unless a head repeats.  ``halts`` stores no visited
configurations: it decides non-halting by period domination, once the
game has fired the primitive period vector p, so it keeps O(n) memory;
p costs one elimination, or one pass over the adjacency on an Eulerian
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import BudgetExceededError
from .intlinalg import (
    _component_period,
    _reduced_solution,
    nonneg_reduced_solution,
    primitive_period_vector,
)
from .multigraph import (
    DirectedMultigraph,
    IntVector,
    OutEdges,
    scc_decompose,
)

ChipConfig = IntVector
CountVector = IntVector

DEFAULT_MAX_BATCHES = 1_000_000
DEFAULT_MAX_STEPS = 1_000_000


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
        """Re-run the batches, checking legality of every single firing.

        Each batch costs O(runs(v)) over the graph's adjacency.
        """
        adj = g.adjacency()
        cur = list(self.initial)
        fired = [0] * g.n
        for v, k in self.batches:
            if not 0 <= v < g.n:
                return False
            deg = adj[v].degree
            # within a batch v only loses chips, so checking the k-th
            # firing's precondition covers all k of them
            if k < 1 or cur[v] < (k * deg if deg else 0):
                return False
            _fire_in_place(cur, adj[v], v, k)
            fired[v] += k
        return tuple(cur) == self.final and tuple(fired) == self.firing_vector


@dataclass(frozen=True, slots=True)
class BoundedChipResult:
    firing_vector: CountVector
    final: ChipConfig
    trace: ChipGameTrace


def bounded_chip_game(
    g: DirectedMultigraph,
    x: ChipConfig,
    bound: CountVector,
    max_batches: int = DEFAULT_MAX_BATCHES,
) -> BoundedChipResult:
    """Play a maximal legal game firing each v at most bound(v) times.

    The firing vector and final configuration are the same for every
    maximal bounded schedule, so the deterministic greedy one (smallest
    eligible vertex, largest safe batch) is canonical.  A batch spends
    v's remaining bound or its pile, so v leaves the worklist and only
    its heads can join: O(runs(v) + log n) per batch.  Each batch
    fires at least once, so the game takes at most sum(bound) batches.
    Raises BudgetExceededError when more than ``max_batches`` batches are
    needed.
    """
    _check_count_vector(g, bound)
    if len(x) != g.n:
        raise ValueError("chip configuration length must match the vertex count")
    adj = g.adjacency()
    degs = [out.degree for out in adj]
    cur = list(x)
    fired = [0] * g.n
    queued = [b > 0 and c >= d for b, c, d in zip(bound, cur, degs)]
    heap = [v for v in range(g.n) if queued[v]]  # ascending, so a heap
    batches: list[tuple[int, int]] = []
    while heap:
        v = heappop(heap)
        queued[v] = False
        remaining = bound[v] - fired[v]
        # firing a sink moves nothing; burn the whole bound at once
        k = min(remaining, cur[v] // degs[v]) if degs[v] else remaining
        if len(batches) >= max_batches:
            raise BudgetExceededError(
                f"bounded chip game exceeded {max_batches} batches"
            )
        _fire_in_place(cur, adj[v], v, k)
        fired[v] += k
        batches.append((v, k))
        for u, _ in adj[v].edges:
            if not queued[u] and cur[u] >= degs[u] and fired[u] < bound[u]:
                queued[u] = True
                heappush(heap, u)
    final = tuple(cur)
    return BoundedChipResult(
        firing_vector=tuple(fired),
        final=final,
        trace=ChipGameTrace(tuple(x), tuple(batches), final, tuple(fired)),
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
    max_batches: int = DEFAULT_MAX_BATCHES,
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
    chip reachability is hard in general.
    """
    if len(x) != g.n or len(y) != g.n:
        raise ValueError("configuration length must match the vertex count")
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


def is_recurrent(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_batches: int = DEFAULT_MAX_BATCHES,
) -> bool:
    """Whether a nonempty legal game returns to x (strongly connected g).

    Equivalent to the maximal p-bounded game from x firing the whole
    primitive period vector p.  That game takes at most per(G) = sum(p)
    batches, so its cost grows with per(G), not with n and the bit length
    alone.  Past ``max_batches`` it raises BudgetExceededError
    (``chip-recurrent`` exits 3), the designed outcome where per(G) is
    large.
    """
    p = primitive_period_vector(g)
    return bounded_chip_game(g, x, p, max_batches=max_batches).firing_vector == p


def is_recurrent_via_reach(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_batches: int = DEFAULT_MAX_BATCHES,
) -> bool:
    """Recurrence through the reachability reduction.

    Fire the smallest legally fireable vertex v, then test whether the
    result reaches x back, as the (p - 1_v)-bounded game achieving its
    full bound.  Stable configurations are never recurrent.  The game
    takes at most per(G) - 1 batches, with the same cost and the same
    BudgetExceededError past ``max_batches`` as ``is_recurrent``.
    """
    p = primitive_period_vector(g)
    v = next((u for u in range(g.n) if is_legal_fire(g, x, u)), None)
    if v is None:
        return False
    bound = tuple([p[u] - (1 if u == v else 0) for u in range(g.n)])
    result = bounded_chip_game(g, fire(g, x, v), bound, max_batches=max_batches)
    return result.firing_vector == bound


def lin_equiv(g: DirectedMultigraph, x: ChipConfig, y: ChipConfig) -> CountVector | None:
    """The reduced f >= 0 with y = x + L f, or None when not equivalent.

    Requires strong connectivity (symmetry of the relation needs a
    positive period vector).
    """
    scc = scc_decompose(g)
    if len(scc.components) != 1:
        raise ValueError("linear equivalence requires a strongly connected graph")
    if len(x) != g.n or len(y) != g.n:
        raise ValueError("configuration length must match the vertex count")
    return _reduced_solution(g, scc, tuple([b - a for a, b in zip(x, y)]))


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


def halts(
    g: DirectedMultigraph,
    x: ChipConfig,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> HaltingVerdict:
    """Simulate the greedy legal game until it stabilizes or fires p.

    Period domination decides non-halting: once a legal game from x has
    fired F >= p, the configuration y it reached is recurrent.  Keep only
    the last p(v) firings of each v and replay them from y: before each
    kept firing, v's pile exceeds its pile at that moment of the original
    game by at least (L p)(v) = 0, so the replay is legal, fires p and
    returns to y.  An infinite game fires every vertex infinitely often
    (Bjorner-Lovasz 1992), so the rule always fires on a non-halting x,
    and no later than the first repeated configuration, whose loop fires
    a positive multiple of p.

    The game counts ``short``, the vertices still below their target:
    all ones at first, then p, computed once every vertex has fired.  The
    legal vertices sit in a min-heap, smallest fired first, so a firing
    costs O(runs(v) + log n) and the game keeps O(n) memory
    whatever ``max_steps``, its one budget, allows.
    """
    scc = scc_decompose(g)
    if len(scc.components) != 1:
        raise ValueError("halting analysis requires a strongly connected graph")
    if len(x) != g.n:
        raise ValueError("configuration length must match the vertex count")
    adj = g.adjacency()
    degs = [out.degree for out in adj]
    cur = list(x)
    fired = [0] * g.n
    target = (1,) * g.n
    period: IntVector | None = None
    short = g.n
    queued = [c >= d for c, d in zip(cur, degs)]
    heap = [v for v in range(g.n) if queued[v]]  # ascending, so a heap
    for _ in range(max_steps):
        if not heap:
            return HaltingVerdict("halts", final=tuple(cur), firing_vector=tuple(fired))
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
                period = target = _component_period(g, scc.components[0], degs)
                short = sum([f < p for f, p in zip(fired, period)])
            if not short:
                return HaltingVerdict(
                    "non-halting",
                    certificate=tuple(cur),
                    witness_to_certificate=tuple(fired),
                    witness_cycle=period,
                )
    return HaltingVerdict("budget-exceeded", reason="max-steps")


def verify_nonhalting_certificate(g: DirectedMultigraph, x: ChipConfig, y: ChipConfig) -> bool:
    """Check that y proves x non-halting: x ~ y and y is recurrent."""
    return lin_equiv(g, x, y) is not None and is_recurrent(g, y)


def validate_legal_firing_sequence(g: DirectedMultigraph, x: ChipConfig, seq) -> bool:
    """True when each firing in seq is legal at its moment."""
    cur = x
    for v in seq:
        if not is_legal_fire(g, cur, v):
            return False
        cur = fire(g, cur, v)
    return True


def _check_count_vector(g: DirectedMultigraph, vec: IntVector) -> None:
    if len(vec) != g.n:
        raise ValueError("count vector length must match the vertex count")
    if any(k < 0 for k in vec):
        raise ValueError("count vector must be nonnegative")
