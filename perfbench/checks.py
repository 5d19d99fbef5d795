"""The benchmark's own game arithmetic, used to make inputs and check outputs.

Nothing here calls the procedures under test.  Chip and rotor moves are
re-derived from the raw multiplicity matrix and ribbon runs, so a wrong
verdict, trace or vector printed by the program cannot be confirmed by the
same code that produced it.  Checkers raise ``CheckFailed`` with a short
reason.
"""

from __future__ import annotations

import heapq
from collections import deque


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def out_degrees(mult) -> tuple[int, ...]:
    return tuple(sum(row) for row in mult)


def adjacency(mult) -> list[list[tuple[int, int]]]:
    return [[(u, m) for u, m in enumerate(row) if m] for row in mult]


def apply_laplacian(mult, x, f) -> tuple[int, ...]:
    """x + L f: each v sends f(v) chips along every one of its out-edges."""
    y = list(x)
    for v, k in enumerate(f):
        if k:
            for u, m in enumerate(mult[v]):
                if m:
                    y[v] -= m * k
                    y[u] += m * k
    return tuple(y)


# ---------------------------------------------------------------------------
# printed output


def parse_fields(line: str) -> dict[str, str]:
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        require(bool(sep), f"token without '=': {token!r}")
        fields[key] = value
    return fields


def parse_vector(text: str) -> tuple:
    require(text != "", "empty vector")
    return tuple(None if tok == "-" else int(tok) for tok in text.split(","))


def parse_batches(text: str) -> tuple[tuple[int, int], ...]:
    if text == "":
        return ()
    out = []
    for tok in text.split(","):
        v, sep, k = tok.partition(":")
        require(bool(sep), f"bad batch {tok!r}")
        out.append((int(v), int(k)))
    return tuple(out)


def cli_lines(output, expected_lines: int) -> list[dict[str, str]]:
    """Fields of each stdout line of a ``(exit_code, stdout, stderr)`` triple."""
    code, stdout, stderr = output
    require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
    lines = stdout.splitlines()
    require(
        len(lines) == expected_lines,
        f"expected {expected_lines} output lines, got {len(lines)}",
    )
    return [parse_fields(line) for line in lines]


# ---------------------------------------------------------------------------
# chip-firing


def fire_legally(mult, degs, x: list, v: int, k: int) -> None:
    """Fire v k times in place, requiring every single firing to be legal."""
    require(k >= 1, f"batch count {k} at vertex {v}")
    # v only loses chips during its own batch, so the k-th firing is the
    # tightest one
    require(x[v] >= k * degs[v], f"illegal batch {v}:{k}")
    for u, m in enumerate(mult[v]):
        if m:
            x[v] -= m * k
            x[u] += m * k


def replay_chip_batches(mult, x, batches):
    """Final configuration and firing vector of a legal batch sequence."""
    degs = out_degrees(mult)
    cur = list(x)
    fired = [0] * len(x)
    for v, k in batches:
        require(0 <= v < len(x), f"batch vertex {v} out of range")
        fire_legally(mult, degs, cur, v, k)
        fired[v] += k
    return tuple(cur), tuple(fired)


def check_firing_identity(mult, x, y, f) -> None:
    """y = x + L f with f >= 0 (and so the same chip total)."""
    require(len(f) == len(x), "firing vector length")
    require(all(k >= 0 for k in f), "negative firing vector")
    require(sum(y) == sum(x), "chip total not conserved")
    require(apply_laplacian(mult, x, f) == tuple(y), "y != x + L f")


def check_stable(mult, y) -> None:
    degs = out_degrees(mult)
    require(all(y[v] < degs[v] for v in range(len(y)) if degs[v]), "not stable")


class GreedyGame:
    """The greedy legal chip game: always fire the smallest fireable vertex."""

    def __init__(self, mult, x):
        self.adj = adjacency(mult)
        self.degs = out_degrees(mult)
        self.cur = list(x)
        self.fired = [0] * len(x)
        self.queued = [False] * len(x)
        self.heap: list[int] = []
        for v in range(len(x)):
            self._offer(v)

    def _offer(self, v: int) -> None:
        if not self.queued[v] and self.degs[v] and self.cur[v] >= self.degs[v]:
            self.queued[v] = True
            heapq.heappush(self.heap, v)

    def step(self) -> bool:
        """Fire once; False when the configuration is stable."""
        if not self.heap:
            return False
        v = heapq.heappop(self.heap)
        self.queued[v] = False
        cur = self.cur
        cur[v] -= self.degs[v]
        for u, m in self.adj[v]:
            cur[u] += m
            self._offer(u)
        self.fired[v] += 1
        self._offer(v)
        return True


def greedy_approach(mult, x, leads, max_firings: int):
    """Configurations of the greedy game from x, ``lead`` firings before its orbit.

    The game is run until a configuration repeats; the first repeated one
    is where the game enters its periodic orbit.  Configurations are
    remembered by hash, and only the most recent ones in full.  Returns the
    configurations and the number of firings before the orbit; a lead
    longer than that gives x itself.
    """
    game = GreedyGame(mult, x)
    n = len(x)
    recent: deque[tuple[int, ...]] = deque(maxlen=max(leads) + 4 * n)
    first_seen: dict[int, int] = {}
    for step in range(max_firings):
        snap = tuple(game.cur)
        entry = first_seen.setdefault(hash(snap), step)
        if entry != step:
            back = step - entry
            starts = [recent[max(0, len(recent) - back - lead)] for lead in leads]
            return starts, entry
        recent.append(snap)
        require(game.step(), "greedy game halted while looking for its cycle")
    raise CheckFailed(f"no greedy cycle within {max_firings} firings")


def check_certificate(mult, x, c, max_firings: int) -> None:
    """c lies on the greedy game from x and is recurrent.

    Reaching c from x by legal firings gives c = x + L w; returning from c to
    c by a nonempty legal game proves it recurrent, and the loop's firing
    vector must lie in the Laplacian kernel.
    """
    require(len(c) == len(x), "certificate length")
    require(sum(c) == sum(x), "certificate changes the chip total")
    c = list(c)
    game = GreedyGame(mult, x)
    steps = 0
    while game.cur != c:
        require(steps < max_firings, "certificate not met by the greedy game")
        require(game.step(), "greedy game halts before the certificate")
        steps += 1
    check_firing_identity(mult, x, c, game.fired)
    before = list(game.fired)
    while True:
        require(steps < 2 * max_firings, "certificate does not recur")
        require(game.step(), "greedy game halts after the certificate")
        steps += 1
        if game.cur == c:
            break
    loop = [b - a for a, b in zip(before, game.fired)]
    require(all(k > 0 for k in loop), "loop does not fire every vertex")
    require(apply_laplacian(mult, c, loop) == tuple(c), "loop outside the kernel")


# ---------------------------------------------------------------------------
# rotor-routing


def head_at(runs, pos: int) -> int:
    for head, count in runs:
        if pos < count:
            return head
        pos -= count
    raise CheckFailed("rotor position beyond the cyclic order")


def route_steps(runs_v, deg: int, chips: list, rotors: list, v: int, k: int) -> None:
    """Route v k times in place, one chip at a time, each routing legal."""
    require(k >= 1, f"batch count {k} at vertex {v}")
    require(deg > 0, f"routing at sink {v}")
    require(chips[v] >= k, f"illegal routing batch {v}:{k}")
    pos = rotors[v]
    for _ in range(k):
        pos = (pos + 1) % deg
        chips[v] -= 1
        chips[head_at(runs_v, pos)] += 1
    rotors[v] = pos


def replay_rotor_batches(runs, source, batches):
    """Final (chips, rotors) and routing vector of a legal batch sequence."""
    degs = tuple(sum(c for _, c in rs) for rs in runs)
    chips = list(source[0])
    rotors = list(source[1])
    routed = [0] * len(chips)
    for v, k in batches:
        require(0 <= v < len(chips), f"batch vertex {v} out of range")
        route_steps(runs[v], degs[v], chips, rotors, v, k)
        routed[v] += k
    return (tuple(chips), tuple(rotors)), tuple(routed)


def route_totals(runs, source, r):
    """(chips, rotors) after routing each v r(v) times, ignoring legality.

    Expands every cyclic order, so only for modest degrees.
    """
    chips = list(source[0])
    rotors = list(source[1])
    for v, rv in enumerate(r):
        if not rv:
            continue
        flat = [head for head, count in runs[v] for _ in range(count)]
        d = len(flat)
        full, rem = divmod(rv, d)
        chips[v] -= rv
        for head in flat:
            chips[head] += full
        for i in range(1, rem + 1):
            chips[flat[(rotors[v] + i) % d]] += 1
        rotors[v] = (rotors[v] + rv) % d
    return tuple(chips), tuple(rotors)


def check_odometer(runs, source, bound, odometer, chips, rotors) -> None:
    """A maximal bound-respecting rotor game ends where the odometer says."""
    require(len(odometer) == len(bound), "odometer length")
    require(
        all(0 <= o <= b for o, b in zip(odometer, bound)), "odometer exceeds bound"
    )
    final = route_totals(runs, source, odometer)
    require(tuple(rotors) == final[1], "rotor positions disagree with odometer")
    require(tuple(chips) == final[0], "chips disagree with odometer")
    require(
        all(chips[v] <= 0 for v in range(len(bound)) if odometer[v] < bound[v]),
        "game not maximal: a vertex below its bound still holds chips",
    )
