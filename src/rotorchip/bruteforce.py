"""Brute-force oracles used to cross-check the decision procedures.

Everything here re-derives the step relations from raw edge data instead
of calling the engine helpers, so an engine bug cannot silently agree
with its oracle.  All searches carry explicit state budgets and raise
BudgetExceededError rather than run unbounded; the sweeps size their
instances so the budgets are never the binding constraint.
The Hermite-normal-form integer solver lives here too, as the oracle for
the engine's exact linear algebra, and the dense ``laplacian``; no other
module reads the graph's dense ``mult`` view.  ``graph_from_rows`` builds
a graph from an n x n multiplicity matrix, the paper's encoding, through
the engine's checked ``from_edges``.
"""

from __future__ import annotations

import itertools
from collections import deque
from random import Random

from .errors import BudgetExceededError
from .multigraph import DirectedMultigraph, IntMatrix, IntVector
from .rotorrouting import ChipRotorConfig, RibbonStructure, default_ribbon

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


def _chip_successors(g: DirectedMultigraph, x: IntVector):
    """All single-firing successors of x, skipping no-op sink firings."""
    for v, row in enumerate(g.mult):
        deg = sum(row)
        if deg == 0 or x[v] < deg:
            continue
        nxt = list(x)
        nxt[v] -= deg
        for u in range(g.n):
            nxt[u] += row[u]
        yield tuple(nxt)


def bfs_reach_chip(
    g: DirectedMultigraph,
    x: IntVector,
    y: IntVector,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Exhaustive search for a legal chip game from x to y."""
    x = tuple(x)
    y = tuple(y)
    if x == y:
        return True
    seen = {x}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        for nxt in _chip_successors(g, cur):
            if nxt == y:
                return True
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceededError(
                        f"chip reachability search exceeded {max_states} states"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return False


def _expanded_heads(ribbon: RibbonStructure) -> list[list[int]]:
    """Flat cyclic order per vertex, one entry per out-edge position."""
    heads: list[list[int]] = []
    for rs in ribbon.runs:
        flat: list[int] = []
        for head, count in rs:
            flat.extend([head] * count)
        heads.append(flat)
    return heads


def _rotor_successors(heads: list[list[int]], state: ChipRotorConfig):
    chips, rotors = state
    for v, flat in enumerate(heads):
        if not flat or chips[v] <= 0:
            continue
        pos = (rotors[v] + 1) % len(flat)
        head = flat[pos]
        nchips = list(chips)
        nchips[v] -= 1
        nchips[head] += 1
        nrotors = list(rotors)
        nrotors[v] = pos
        yield ChipRotorConfig(tuple(nchips), tuple(nrotors))


def bfs_reach_rotor(
    ribbon: RibbonStructure,
    c1: ChipRotorConfig,
    c2: ChipRotorConfig,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Exhaustive search for a legal rotor game from c1 to c2."""
    if c1 == c2:
        return True
    heads = _expanded_heads(ribbon)
    seen = {c1}
    queue = deque([c1])
    while queue:
        cur = queue.popleft()
        for nxt in _rotor_successors(heads, cur):
            if nxt == c2:
                return True
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceededError(
                        f"rotor reachability search exceeded {max_states} states"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return False


def oracle_is_recurrent(
    g: DirectedMultigraph,
    x: IntVector,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Whether some nonempty legal game returns to x, by exhaustive search.

    Firing a vertex of out-degree 0 is legal when it holds x(v) >= 0
    chips and changes nothing, so it alone is a nonempty game back to x,
    as in the engine: on the one-vertex graph every x >= 0 is recurrent.
    The search below skips such firings, so they are checked first.
    """
    x = tuple(x)
    if any(c >= 0 and not any(row) for c, row in zip(x, g.mult)):
        return True
    seen = {x}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        for nxt in _chip_successors(g, cur):
            if nxt == x:
                return True
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceededError(
                        f"recurrence search exceeded {max_states} states"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return False


def random_maximal_bounded_chip_game(
    g: DirectedMultigraph,
    x: IntVector,
    bound: IntVector,
    rng: Random,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[IntVector, IntVector]:
    """A uniformly random maximal bound-respecting legal game, one firing
    at a time.  Returns (firing vector, final configuration)."""
    mult = g.mult
    degs = [sum(row) for row in mult]
    cur = list(x)
    fired = [0] * g.n
    for _ in range(max_steps):
        eligible = [
            v
            for v in range(g.n)
            if fired[v] < bound[v] and cur[v] >= degs[v]
        ]
        if not eligible:
            return tuple(fired), tuple(cur)
        v = rng.choice(eligible)
        cur[v] -= degs[v]
        for u in range(g.n):
            cur[u] += mult[v][u]
        fired[v] += 1
    raise BudgetExceededError(f"random chip game exceeded {max_steps} steps")


def random_maximal_bounded_rotor_game(
    ribbon: RibbonStructure,
    config: ChipRotorConfig,
    bound: IntVector,
    rng: Random,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[IntVector, ChipRotorConfig]:
    """A uniformly random maximal bound-respecting legal rotor game."""
    heads = _expanded_heads(ribbon)
    chips = list(config.chips)
    rotors = list(config.rotors)
    routed = [0] * ribbon.n
    for _ in range(max_steps):
        eligible = [
            v
            for v in range(ribbon.n)
            if heads[v] and routed[v] < bound[v] and chips[v] > 0
        ]
        if not eligible:
            return tuple(routed), ChipRotorConfig(tuple(chips), tuple(rotors))
        v = rng.choice(eligible)
        pos = (rotors[v] + 1) % len(heads[v])
        rotors[v] = pos
        chips[v] -= 1
        chips[heads[v][pos]] += 1
        routed[v] += 1
    raise BudgetExceededError(f"random rotor game exceeded {max_steps} steps")


def random_legal_chip_sequence(
    g: DirectedMultigraph,
    x: IntVector,
    length: int,
    rng: Random,
) -> tuple[int, ...]:
    """A random legal firing sequence from x, stopping early when stuck.

    Sinks are skipped: their firings are no-ops and would pad the
    sequence without moving anything.
    """
    mult = g.mult
    degs = [sum(row) for row in mult]
    cur = list(x)
    seq: list[int] = []
    for _ in range(length):
        eligible = [v for v in range(g.n) if degs[v] and cur[v] >= degs[v]]
        if not eligible:
            break
        v = rng.choice(eligible)
        cur[v] -= degs[v]
        for u in range(g.n):
            cur[u] += mult[v][u]
        seq.append(v)
    return tuple(seq)


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


def enumerate_chip_vectors(n: int, max_total: int):
    """Nonnegative chip vectors of length n with sum <= max_total."""
    for chips in itertools.product(range(max_total + 1), repeat=n):
        if sum(chips) <= max_total:
            yield chips


def enumerate_instances(n: int, max_mult: int, max_total_chips: int, seed=None):
    """Stream of (graph, default ribbon, ChipRotorConfig) instances.

    With seed None the stream is exhaustive over digraphs, chip vectors
    and rotor states, in deterministic order; desk-scale parameters only.
    With a seed, an endless replayable random stream over the same space.
    """
    if seed is None:
        for g in enumerate_digraphs(n, max_mult):
            ribbon = default_ribbon(g)
            degs = ribbon.degrees
            rotor_ranges = [range(d) if d else (None,) for d in degs]
            for chips in enumerate_chip_vectors(n, max_total_chips):
                for rotors in itertools.product(*rotor_ranges):
                    yield g, ribbon, ChipRotorConfig(chips, rotors)
        return
    rng = Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    while True:
        g = DirectedMultigraph.from_edges(n, [(u, v, rng.randint(0, max_mult)) for u, v in pairs])
        ribbon = default_ribbon(g)
        while True:
            chips = tuple(
                rng.randint(0, max_total_chips) for _ in range(n)
            )
            if sum(chips) <= max_total_chips:
                break
        rotors = tuple(
            rng.randrange(d) if d else None for d in ribbon.degrees
        )
        yield g, ribbon, ChipRotorConfig(chips, rotors)


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
