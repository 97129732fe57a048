"""Exact linear algebra over rational entries.

Matrices are lists of row lists.  ``solve_exact`` and ``RowSpan`` only need
field arithmetic (+, -, *, /) and truthiness for the zero test, so they serve
the rational and complex-rational layers alike.  ``certified_gram_schmidt``
takes a symmetric rational matrix and returns floats proven to be the
correctly rounded values of its exact orthogonalization, computed in scaled
integers rather than in rationals.
"""

from __future__ import annotations

from operator import mul
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


# Bits after the binary point of the first fixed-point pass, and the most a
# pass may use.  Each failed pass doubles the bits, so a matrix that is
# singular, or too close to it to certify, raises after a few passes.
_START_BITS = 256
_MAX_BITS = 1 << 14


def certified_gram_schmidt(gram: Sequence[Sequence]) -> tuple[list[list[float]], list[float]]:
    """Float Gram-Schmidt rows and pivots of a positive definite rational matrix.

    ``gram`` is symmetric, with entries that have ``numerator`` and
    ``denominator`` (``Fraction`` or ``int``).  Exactly, there is one unit
    lower-triangular R with ``R gram R^T = diag(pivots)``: row k of R is the
    k-th coordinate vector minus its ``gram``-orthogonal projection onto the
    earlier ones.  The result is R as K x K float rows and the K pivots, each
    float equal to ``float`` of the exact rational; a value that rounds to a
    zero is returned as +0.0, as ``float`` gives for an exact zero.

    How it is proven: a pass at ``bits`` holds every quantity as an integer
    midpoint c and integer radius e, with the exact value within
    ``(c +- e) / 2**bits``; each product, quotient and truncation adds to e a
    bound on what it can lose.  The pass factors ``gram = L diag(pivots) L^T``
    and then forms ``R = L^{-1}`` by forward substitution.  It is accepted
    only when every pivot's lower bound ``c - e`` is > 0, which proves the
    matrix positive definite, and every output is pinned:
    ``float((c - e) / 2**bits) == float((c + e) / 2**bits)``.  Rounding to
    nearest is monotone, so the exact value, which lies between, rounds to
    the same float.  Otherwise the bits double.  Raises ``AssertionError``
    when a pivot's upper bound is <= 0, or when the bits pass ``_MAX_BITS``.
    """
    bits = _START_BITS
    while True:
        result = _gram_schmidt_pass(gram, bits)
        if result is not None:
            return result
        bits *= 2
        if bits > _MAX_BITS:
            raise AssertionError(
                "feature Gram matrix is not positive definite "
                f"(not certified at {_MAX_BITS} bits)"
            )


def _round(mid: int, err: int, bits: int) -> tuple[int, int]:
    """Midpoint and radius at scale 2**bits from an exact midpoint and a
    radius at scale 2**(2 bits): the floor loses less than one unit."""
    c = mid >> bits
    e = -(-err >> bits)
    if mid != c << bits:
        e += 1
    return c, e


def _dot(x, y, bits: int) -> tuple[int, int]:
    """Sum of x[i] * y[i] over (midpoints, magnitudes, radii) list triples.

    |x y - cx cy| <= |cx| ey + |cy| ex + ex ey <= mx ey + my ex, where the
    magnitude m = |c| + e.  ``map`` stops at the shorter list.
    """
    (xc, xm, xe), (yc, ym, ye) = x, y
    mid = sum(map(mul, xc, yc))
    return _round(mid, sum(map(mul, xm, ye)) + sum(map(mul, ym, xe)), bits)


def _entry(g, bits: int) -> tuple[int, int]:
    """Midpoint and radius of an exact rational at scale 2**bits."""
    c, r = divmod(g.numerator << bits, g.denominator)
    return c, 1 if r else 0


def _quotient(c: int, e: int, d: int, de: int, bits: int) -> tuple[int, int]:
    """u / v for u within c +- e and v within d +- de, where d - de > 0.

    |u/v - c/d| <= (e d + |c| de) / (d (d - de)), plus under one unit for
    the floor.
    """
    q, r = divmod(c << bits, d)
    return q, -(-((e * d + abs(c) * de) << bits) // ((d - de) * d)) + (1 if r else 0)


def _push(triple, c: int, e: int) -> None:
    triple[0].append(c)
    triple[1].append(abs(c) + e)
    triple[2].append(e)


def _pinned(c: int, e: int, scale: int) -> float | None:
    """The float every value in [c - e, c + e] / scale rounds to, if one."""
    lo = (c - e) / scale  # int / int rounds correctly, as Fraction.__float__
    if lo != (c + e) / scale:
        return None
    # Both ends round to a zero only when the interval lies within 2**-1075
    # of 0; +0.0 is what float() gives for an exact zero.
    return lo + 0.0


def _gram_schmidt_pass(gram, bits: int) -> tuple[list[list[float]], list[float]] | None:
    """One fixed-point pass at ``bits``; None when it certifies too little."""
    scale = 1 << bits
    K = len(gram)
    L = []  # row k of L left of the diagonal, as a (c, m, e) triple
    pivots = []  # (c, e)
    cols = []  # column m of R from the diagonal down, as a (c, m, e) triple
    rows, pivot_floats = [], []
    for k in range(K):
        u = ([], [], [])  # u_kj = L_kj d_j
        lk = ([], [], [])
        for j in range(k + 1):
            # u_kj = g_kj - sum_{m<j} u_km L_jm; at j = k this is the pivot.
            g, eg = _entry(gram[k][j], bits)
            c, e = _dot(u, L[j] if j < k else lk, bits)
            c, e = g - c, eg + e
            if j == k:
                break
            _push(u, c, e)
            _push(lk, *_quotient(c, e, *pivots[j], bits))
        if c + e <= 0:
            raise AssertionError("feature Gram matrix is not positive definite")
        pivot = _pinned(c, e, scale) if c - e > 0 else None
        if pivot is None:
            return None
        L.append(lk)
        pivots.append((c, e))
        pivot_floats.append(pivot)
        # R = L^{-1}: R_km = -sum_{j=m}^{k-1} L_kj R_jm for m < k.
        row = []
        for m in range(k):
            col = cols[m]
            c, e = _dot((lk[0][m:], lk[1][m:], lk[2][m:]), col, bits)
            value = _pinned(-c, e, scale)
            if value is None:
                return None
            row.append(value)
            _push(col, -c, e)
        cols.append(([scale], [scale], [0]))
        rows.append(row + [1.0] + [0.0] * (K - 1 - k))
    return rows, pivot_floats
