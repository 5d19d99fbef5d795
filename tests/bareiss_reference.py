"""The reduced solve as it stood before lazy row scaling, verbatim.

This is textbook dense Bareiss: every step rescales every row below the
pivot, even rows whose pivot-column entry is 0.  ``test_intlinalg`` runs
it side by side with ``intlinalg._solve_reduced``: both must return the
same determinant and the same solution columns.  Only the imports differ
from the original function.
"""

from __future__ import annotations

from typing import Sequence

from rotorchip.multigraph import DirectedMultigraph


def _solve_reduced(
    g: DirectedMultigraph,
    verts: Sequence[int],
    degs: Sequence[int],
    roots: Sequence[int],
    columns: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]]]:
    """Solve the reduced system on ``verts`` for several right-hand sides.

    The matrix is minus the Laplacian on ``verts``, with out-degrees
    ``degs[v]``, with the rows and columns of ``roots`` deleted; every
    vertex must reach a root, so it is nonsingular and all its leading
    principal minors are positive (matrix-tree theorem).  Returns
    ``(det, sols)``: ``det`` is its determinant and ``sols[c]`` is the
    full-length integer vector ``det * x`` with x solving the system for
    ``columns[c]`` on the non-roots, zero elsewhere.
    """
    root_set = set(roots)
    rest = [v for v in verts if v not in root_set]
    m = len(rest)
    mult = g.mult
    rows = [
        [degs[u] if u == v else -mult[v][u] for v in rest] + [col[u] for col in columns]
        for u in rest
    ]
    # forward elimination; each division by the previous pivot is exact
    prev = 1
    for k in range(m):
        pivot_row = rows[k]
        pk = pivot_row[k]
        if pk <= 0:
            raise ArithmeticError("reduced Laplacian has a nonpositive leading minor")
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, m):
            row = rows[i]
            f = row[k]
            if f:
                row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif pk != prev:
                row[k + 1 :] = [pk * x // prev for x in row[k + 1 :]]
        prev = pk
    det = prev
    # back substitution on det * x, exact because det * x is integral (Cramer)
    sols = []
    for c in range(len(columns)):
        scaled = [0] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            acc = det * row[m + c]
            for j in range(i + 1, m):
                acc -= row[j] * scaled[j]
            scaled[i] = acc // row[i]
        full = [0] * g.n
        for i, v in enumerate(rest):
            full[v] = scaled[i]
        sols.append(full)
    return det, sols
