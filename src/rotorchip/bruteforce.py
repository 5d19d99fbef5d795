"""Brute-force oracles used to cross-check the decision procedures.

Everything here re-derives the step relations from raw edge data instead
of calling the engine helpers, so an engine bug cannot silently agree
with its oracle.  One chip firing step (``_fire``) and one rotor routing
step (``_route``) back every search and random game.  The three searches
are one breadth-first search (``_search``) over their successor
functions; it carries an explicit state budget and raises
BudgetExceededError rather than run unbounded, and the sweeps size their
instances so the budgets are never the binding constraint.  The random
games, maximal bounded ones and short legal ones, are one loop
(``_random_play``) that draws a uniformly random eligible vertex per act.
The Hermite-normal-form integer solver lives here too, as the oracle for
the engine's exact linear algebra, and the dense ``laplacian``; no other
module reads the graph's dense ``mult`` view.  ``graph_from_rows`` builds
a graph from an n x n multiplicity matrix, the paper's encoding, through
the engine's checked ``from_edges``.  The routing reductions live here
as well: no engine procedure needs them, and they reduce by whole rotor
turns through the engine's ``reduce_vector``, which the tests hold to a
reference.
"""

from __future__ import annotations

import itertools
from collections import deque
from random import Random

from .errors import BudgetExceededError
from .intlinalg import reduce_vector
from .multigraph import DirectedMultigraph, IntMatrix, IntVector, _check_vector
from .rotorrouting import ChipRotorConfig, RibbonStructure

DEFAULT_MAX_STATES = 200_000
DEFAULT_MAX_STEPS = 200_000


def laplacian(g: DirectedMultigraph) -> IntMatrix:
    """Laplacian L with L[u][v] = -outdeg(v) if u == v else mult[v][u].

    Column v is the chip movement caused by firing v once; every column
    sums to zero.  Dense: O(n^2) time and memory.
    """
    mult = g.mult
    degs = [sum(row) for row in mult]
    return tuple([
        tuple([-degs[v] if u == v else mult[v][u] for v in range(g.n)])
        for u in range(g.n)
    ])


def _search(start, goal, successors, max_states: int, name: str) -> bool:
    """Breadth-first search for a nonempty legal game from start to goal.

    The oracle's one search: ``successors(state)`` yields the states one
    act away.  The start is not its own goal, so the reach searches
    answer start == goal before searching.  Past ``max_states`` distinct
    states it raises BudgetExceededError naming the ``name`` search.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in successors(queue.popleft()):
            if nxt == goal:
                return True
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceededError(f"{name} search exceeded {max_states} states")
                seen.add(nxt)
                queue.append(nxt)
    return False


def _fire(cur: list[int], row: IntVector, deg: int, v: int) -> None:
    """Fire v once in place: it loses its deg chips and each u gains row[u]."""
    cur[v] -= deg
    for u, m in enumerate(row):
        cur[u] += m


def _chip_moves(g: DirectedMultigraph):
    """The successor function of single firings, skipping no-op sink firings."""
    mult = g.mult
    degs = [sum(row) for row in mult]

    def successors(x: IntVector):
        for v, deg in enumerate(degs):
            if deg and x[v] >= deg:
                nxt = list(x)
                _fire(nxt, mult[v], deg, v)
                yield tuple(nxt)

    return successors


def bfs_reach_chip(
    g: DirectedMultigraph,
    x: IntVector,
    y: IntVector,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Exhaustive search for a legal chip game from x to y."""
    x, y = tuple(x), tuple(y)
    return x == y or _search(x, y, _chip_moves(g), max_states, "chip reachability")


def _expanded_heads(ribbon: RibbonStructure) -> list[list[int]]:
    """Flat cyclic order per vertex, one entry per out-edge position."""
    return [[head for head, count in runs for _ in range(count)] for runs in ribbon.runs]


def _route(chips: list[int], rotors: list, flat: list[int], v: int) -> None:
    """Route v once in place: its rotor steps along ``flat`` and sends a chip there."""
    pos = (rotors[v] + 1) % len(flat)
    rotors[v] = pos
    chips[v] -= 1
    chips[flat[pos]] += 1


def _rotor_moves(ribbon: RibbonStructure):
    """The successor function of single routings at non-sinks holding a chip."""
    heads = _expanded_heads(ribbon)

    def successors(state: ChipRotorConfig):
        for v, flat in enumerate(heads):
            if flat and state.chips[v] > 0:
                chips, rotors = list(state.chips), list(state.rotors)
                _route(chips, rotors, flat, v)
                yield ChipRotorConfig(tuple(chips), tuple(rotors))

    return successors


def bfs_reach_rotor(
    ribbon: RibbonStructure,
    c1: ChipRotorConfig,
    c2: ChipRotorConfig,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Exhaustive search for a legal rotor game from c1 to c2."""
    return c1 == c2 or _search(c1, c2, _rotor_moves(ribbon), max_states, "rotor reachability")


def oracle_is_recurrent(
    g: DirectedMultigraph,
    x: IntVector,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Whether some nonempty legal game returns to x, by exhaustive search.

    Firing a vertex of out-degree 0 is legal when it holds x(v) >= 0
    chips and changes nothing, so it alone is a nonempty game back to x,
    as in the engine: on the one-vertex graph every x >= 0 is recurrent.
    The search skips such firings, so they are checked first.
    """
    x = tuple(x)
    if any(c >= 0 and not any(row) for c, row in zip(x, g.mult)):
        return True
    return _search(x, x, _chip_moves(g), max_states, "recurrence")


def _chip_play(g: DirectedMultigraph, x: IntVector):
    """Chip play from x in place, for ``_random_play``: (legal, act, end).

    As in the engine, firing a sink is legal while it holds a
    nonnegative number of chips, and moves nothing.
    """
    mult = g.mult
    degs = [sum(row) for row in mult]
    cur = list(x)
    return (
        lambda v: cur[v] >= degs[v],
        lambda v: _fire(cur, mult[v], degs[v], v),
        lambda: tuple(cur),
    )


def _rotor_play(ribbon: RibbonStructure, config: ChipRotorConfig):
    """Rotor play from config in place, for ``_random_play``: (legal, act, end)."""
    heads = _expanded_heads(ribbon)
    chips, rotors = list(config.chips), list(config.rotors)
    return (
        lambda v: chips[v] > 0 and bool(heads[v]),
        lambda v: _route(chips, rotors, heads[v], v),
        lambda: ChipRotorConfig(tuple(chips), tuple(rotors)),
    )


def _random_play(play, bound: IntVector, steps: int, rng: Random):
    """The oracle's one random game: up to ``steps`` acts, each at a
    uniformly random eligible vertex, stopping early when none is.

    ``play`` is (legal, act, end) from ``_chip_play`` or ``_rotor_play``;
    v is eligible while it is legal and has acted fewer than bound(v)
    times.  Returns (act counts, end, the vertices in order).
    """
    legal, act, end = play
    counts = [0] * len(bound)
    seq: list[int] = []
    for _ in range(steps):
        eligible = [v for v, b in enumerate(bound) if counts[v] < b and legal(v)]
        if not eligible:
            break
        v = rng.choice(eligible)
        act(v)
        counts[v] += 1
        seq.append(v)
    return tuple(counts), end(), tuple(seq)


def _maximal(play, bound: IntVector, rng: Random, max_steps: int, name: str):
    """``_random_play`` to a maximal game, raising BudgetExceededError
    once ``max_steps`` acts are made."""
    played = _random_play(play, bound, max_steps, rng)
    if len(played[2]) == max_steps:
        raise BudgetExceededError(f"random {name} game exceeded {max_steps} steps")
    return played


def random_maximal_bounded_chip_game(
    g: DirectedMultigraph,
    x: IntVector,
    bound: IntVector,
    rng: Random,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[IntVector, IntVector, tuple[int, ...]]:
    """A uniformly random maximal bound-respecting legal game, one firing
    at a time.  Returns (firing vector, final configuration, the fired
    vertices in order)."""
    return _maximal(_chip_play(g, x), bound, rng, max_steps, "chip")


def random_maximal_bounded_rotor_game(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    bound: IntVector,
    rng: Random,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[IntVector, ChipRotorConfig, tuple[int, ...]]:
    """A uniformly random maximal bound-respecting legal rotor game.
    Returns (routing vector, final configuration, the routed vertices in
    order)."""
    return _maximal(_rotor_play(ribbon, config), bound, rng, max_steps, "rotor")


def random_legal_sequence(
    board: DirectedMultigraph | RibbonStructure,
    start: IntVector | ChipRotorConfig,
    length: int,
    rng: Random,
) -> tuple[IntVector, IntVector | ChipRotorConfig, tuple[int, ...]]:
    """A random legal game of up to ``length`` acts from start, stopping
    early when stuck: firings on a graph, routings on a ribbon.  Returns
    (act counts, final configuration, the vertices in order); a bound of
    ``length`` acts per vertex binds no such game."""
    if isinstance(board, RibbonStructure):
        play = _rotor_play(board, start)
    else:
        play = _chip_play(board, start)
    return _random_play(play, (length,) * board.n, length, rng)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hermite_row_reduce(rows: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Unimodular row reduction to Hermite (row echelon) form.

    Returns (H, U) with U @ rows == H, U unimodular.  Pivots are positive
    and entries above each pivot are reduced modulo it, which keeps H
    small; the entries of U still grow quickly with the dimension.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if h[i][c] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = h[piv][c], h[i][c]
            x, y, g = _xgcd(a, b)
            aa, bb = a // g, b // g
            h[piv], h[i] = (
                [x * p + y * q for p, q in zip(h[piv], h[i])],
                [-bb * p + aa * q for p, q in zip(h[piv], h[i])],
            )
            u[piv], u[i] = (
                [x * p + y * q for p, q in zip(u[piv], u[i])],
                [-bb * p + aa * q for p, q in zip(u[piv], u[i])],
            )
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [p - q * s for p, s in zip(h[i], h[r])]
                u[i] = [p - q * s for p, s in zip(u[i], u[r])]
        r += 1
    return h, u


def solve_integer(a: IntMatrix, d: IntVector) -> IntVector | None:
    """Some integer x with a @ x == d, or None when no integer solution exists.

    Reduces the column lattice of ``a`` to Hermite form and expresses d in
    it.  The transform matrix carried along has entries whose bit length
    explodes with the dimension, so this is a desk-scale oracle for the
    Bareiss solver in ``intlinalg``, not a solver for large graphs.
    """
    m = len(a)
    if len(d) != m:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    ncols = len(a[0]) if m else 0
    # rows of b are the columns of a; the column lattice becomes a row lattice
    b = tuple(tuple(a[i][j] for i in range(m)) for j in range(ncols))
    h, u = hermite_row_reduce(b)
    residual = list(d)
    coeff = [0] * ncols
    for i in range(ncols):
        pivot_col = next((j for j, val in enumerate(h[i]) if val), None)
        if pivot_col is None:
            continue
        if residual[pivot_col] == 0:
            continue
        q, rem = divmod(residual[pivot_col], h[i][pivot_col])
        if rem:
            return None
        coeff[i] = q
        residual = [p - q * s for p, s in zip(residual, h[i])]
    if any(residual):
        return None
    # d == coeff @ h == coeff @ u @ b, so x = u^T @ coeff solves a @ x == d
    return tuple(sum(coeff[i] * u[i][j] for i in range(ncols)) for j in range(ncols))


def reduce_routing_vector(g: DirectedMultigraph, r: IntVector) -> IntVector:
    """The routing-reduced representative of r >= 0 modulo routing periods.

    A routing period is a sink component's period vector times the
    out-degrees, so r reduces by whole rotor turns: with q(v) = r(v) //
    deg(v), and 0 at a sink, the result is r - deg * (q -
    reduce_vector(g, q)).  A trivial sink has out-degree 0, so its zero
    routing period keeps its entry.
    """
    _check_vector(g.n, r, "vector", nonneg=True)
    degs = g.out_degrees()
    q = tuple([x // d if d else 0 for x, d in zip(r, degs)])
    return tuple([x - d * (a - b) for x, d, a, b in zip(r, degs, q, reduce_vector(g, q))])


def is_routing_reduced(g: DirectedMultigraph, r: IntVector) -> bool:
    """True when r >= 0 dominates no nonzero routing period vector."""
    return reduce_routing_vector(g, r) == tuple(r)


def graph_from_rows(rows) -> DirectedMultigraph:
    """The graph of an n x n multiplicity matrix, ``rows[u][v]`` edges u -> v.

    Every entry but an integer zero on the diagonal goes to
    ``DirectedMultigraph.from_edges``, which makes the checks and states
    what is wrong: a loop, a negative or a non-integer multiplicity (a
    diagonal 0.0 included).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("multiplicity matrix must be n x n")
    return DirectedMultigraph.from_edges(n, [
        (u, v, m) for u, row in enumerate(rows) for v, m in enumerate(row)
        if u != v or m != 0 or not isinstance(m, int)
    ])


def enumerate_digraphs(n: int, max_mult: int):
    """All loop-free multigraphs on n labeled vertices, multiplicities
    in [0, max_mult] per ordered pair, in lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        yield DirectedMultigraph.from_edges(n, [(u, v, m) for (u, v), m in zip(pairs, mults)])


def reachability_matrix(g: DirectedMultigraph) -> tuple[tuple[bool, ...], ...]:
    """reach[u][v]: a directed path from u to v exists (u reaches itself)."""
    reach = [[u == v or m > 0 for v, m in enumerate(row)] for u, row in enumerate(g.mult)]
    for k in range(g.n):
        rk = reach[k]
        for u in range(g.n):
            if reach[u][k]:
                ru = reach[u]
                for v in range(g.n):
                    if rk[v]:
                        ru[v] = True
    return tuple(tuple(row) for row in reach)
