"""Exact Gaussian elimination over Fraction or CRational entries.

Matrices are lists of row lists.  Entries only need field arithmetic
(+, -, *, /) and truthiness for the zero test, so the same routines serve the
rational and complex-rational layers.
"""

from __future__ import annotations

from typing import Sequence


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence[Sequence], zero):
    """Solve ``matrix @ x = b`` exactly for every vector ``b`` in ``rhs``.

    One elimination serves all right-hand sides.  Returns one solution per
    ``b``, with free variables set to ``zero``, or None where the system is
    inconsistent.  ``matrix`` is m x n (rows of length n); each ``b`` has
    length m.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(row) + [b[r] for b in rhs] for r, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, m):
            if aug[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    solutions = []
    for t in range(n, n + len(rhs)):
        if any(aug[r][t] for r in range(row, m)):
            solutions.append(None)
            continue
        x = [zero] * n
        for r, c in pivots:
            x[c] = aug[r][t]
        solutions.append(x)
    return solutions


class RowSpan:
    """Incremental exact row space with membership and rank queries."""

    def __init__(self):
        self._rows: dict[int, list] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec):
        v = list(vec)
        j = 0
        n = len(v)
        while j < n:
            if not v[j]:
                j += 1
                continue
            row = self._rows.get(j)
            if row is None:
                return v, j
            f = v[j]
            v = [a - f * b for a, b in zip(v, row)]
            j += 1
        return v, None

    def contains(self, vec) -> bool:
        _, lead = self._reduce(vec)
        return lead is None

    def add(self, vec) -> bool:
        """Insert a vector; True if it extended the span."""
        v, lead = self._reduce(vec)
        if lead is None:
            return False
        pv = v[lead]
        self._rows[lead] = [a / pv for a in v]
        return True
