"""Real harmonic bases and the constant quadratic form on the sphere.

For any basis {p_i} of the degree-n harmonic polynomials there is a symmetric
rational matrix C with sum_ij C_ij p_i p_j = ||x||^(2n), i.e. the form is the
constant 1 on the unit sphere.  The matrix is produced exactly from the weight
ladder via q* = sum_k (-1)^(n+k) p_k p_(2n-k) and an exact change of basis.

Spherical harmonics live here too, as a purely numeric cross-check of the same
fact through the addition theorem; they are deliberately kept out of the exact
core.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactlinalg import RowSpan
from .polynomials import CRational, Poly, X1, X2, X3, monomial_basis
from .representation import apply_field, coordinates, poly_to_vec, weight_ladder


@dataclass(frozen=True)
class HarmonicBasis:
    """2n+1 real harmonic polynomials of degree n, exactly independent."""

    n: int
    polys: tuple[Poly, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.polys) != 2 * self.n + 1:
            raise ValueError(
                f"H_{self.n} basis needs {2 * self.n + 1} elements, got {len(self.polys)}"
            )
        monos = monomial_basis(self.n)
        span = RowSpan()
        for p in self.polys:
            if not p.is_real:
                raise ValueError("basis elements must be real")
            if p.homogeneous_degree != self.n or not p.is_harmonic:
                raise ValueError("basis elements must be harmonic of the stated degree")
            if not span.add(poly_to_vec(p, monos)):
                raise ValueError("basis elements are linearly dependent")


def real_harmonic_basis(n: int) -> HarmonicBasis:
    """Ladder-derived real basis: p_n first, then Re/Im of p_0..p_(n-1).

    Each element is scaled to coprime integer coefficients (sign preserved).
    """
    lad = weight_ladder(n)
    half = CRational(Fraction(1, 2))
    half_i = CRational(0, Fraction(-1, 2))  # 1/(2i)
    polys = [lad.vectors[n].primitive()]
    for k in range(0, n):
        p = lad.vectors[k]
        conj = p.conjugate()
        polys.append(((p + conj).scale(half)).primitive())
        polys.append(((p - conj).scale(half_i)).primitive())
    return HarmonicBasis(n, tuple(polys))


def example_basis(n: int) -> HarmonicBasis:
    """The hard-coded low-degree bases used for golden reproduction."""
    if n == 1:
        polys = (X1, X2, X3)
    elif n == 2:
        polys = (
            X1 * X1 - X2 * X2,
            X2 * X2 - X3 * X3,
            X1 * X2,
            X1 * X3,
            X2 * X3,
        )
    elif n == 3:
        def rad(a, b, c):
            return Poly({(2, 0, 0): a, (0, 2, 0): b, (0, 0, 2): c})

        polys = (
            X1 * rad(2, -3, -3),
            X2 * rad(-3, 2, -3),
            X3 * rad(-3, -3, 2),
            X1 * (X2 * X2 - X3 * X3),
            X2 * (X1 * X1 - X3 * X3),
            X3 * (X1 * X1 - X2 * X2),
            X1 * X2 * X3,
        )
    else:
        raise ValueError("example bases exist for n = 1, 2, 3 only")
    return HarmonicBasis(n, polys)


@dataclass(frozen=True)
class QuadraticIdentity:
    """Symmetric rational matrix C with sum_ij C_ij p_i p_j = ||x||^(2n)."""

    basis: HarmonicBasis
    coeffs: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=None)
def _q_star(n: int) -> Poly:
    lad = weight_ladder(n)
    q = Poly.zero()
    for k in range(0, 2 * n + 1):
        sign = -1 if (n + k) % 2 else 1
        q = q + (lad.vectors[k] * lad.vectors[2 * n - k]).scale(sign)
    return q


def casimir_normalizer(n: int) -> Fraction:
    """The constant c with q* = c ||x||^(2n); equals (n!)^2 4^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = _q_star(n)
    if not q.is_real:
        raise AssertionError("q* must be real")
    c = q.coefficient((2 * n, 0, 0)).re
    if q != Poly.norm_sq().__pow__(n).scale(c):
        raise AssertionError("q* is not a multiple of ||x||^(2n)")
    return c


def constant_quadratic_form(basis: HarmonicBasis) -> QuadraticIdentity:
    """Exact symmetric coefficients of ||x||^(2n) over products of the basis.

    With T the coordinates of the weight ladder in the basis, q* expands as
    sum_a (-1)^(n+a) q_a q_(2n-a) with q_a = sum_i T[a][i] p_i, so
    C_ij = sum_a (-1)^(n+a) T[a][i] T[2n-a][j] / casimir_normalizer(n).  The
    substitution a -> 2n-a shows this sum is already symmetric.  The
    degree-2n products of a basis of H_n are linearly independent, so C is
    unique.  The result is verified by exact re-expansion before it is
    returned.
    """
    n = basis.n
    m = 2 * n + 1
    T = coordinates(basis.polys, weight_ladder(n).vectors)
    terms = [((-1) ** (n + a), T[a], T[2 * n - a]) for a in range(m)]
    c = casimir_normalizer(n)
    coeffs = [
        [sum((u[i] * v[j] * sign for sign, u, v in terms), CRational()) / c for j in range(m)]
        for i in range(m)
    ]
    if any(x.im for row in coeffs for x in row):
        raise AssertionError("quadratic form has a nonzero imaginary part")
    identity = QuadraticIdentity(basis, tuple(tuple(x.re for x in row) for row in coeffs))
    if not verify_quadratic_identity(identity):
        raise AssertionError("exact verification of the quadratic identity failed")
    return identity


@lru_cache(maxsize=None)
def normalized_identity(n: int) -> QuadraticIdentity:
    """real_harmonic_basis(n)'s identity with element k scaled by 2^s so that
    C_kk / 4^s lies in [1/4, 4), exactly and with no second build: C is diagonal
    and positive there (checked), so each element is at most 2 on the sphere."""
    identity = constant_quadratic_form(real_harmonic_basis(n))
    polys, coeffs = [], []
    for k, (p, row) in enumerate(zip(identity.basis.polys, identity.coeffs)):
        if row[k] <= 0 or any(c for j, c in enumerate(row) if j != k):
            raise AssertionError("the form over real_harmonic_basis is not positive diagonal")
        s = (row[k].numerator.bit_length() - row[k].denominator.bit_length()) // 2
        polys.append(p.scale(Fraction(2) ** s))  # C_kk / 4^s lies in (1/2, 4)
        coeffs.append(tuple(c / Fraction(4) ** s for c in row))
    return QuadraticIdentity(HarmonicBasis(n, tuple(polys)), tuple(coeffs))


def verify_quadratic_identity(identity: QuadraticIdentity) -> bool:
    """Exact check that sum_ij C_ij p_i p_j - ||x||^(2n) is the zero polynomial.

    Each row is folded first, as sum_i p_i (sum_j C_ij p_j): 2n+1 products
    instead of (2n+1)^2.
    """
    polys = identity.basis.polys
    total = Poly.zero()
    for p, row in zip(polys, identity.coeffs):
        folded = Poly.zero()
        for q, c in zip(polys, row):
            if c:
                folded = folded + q.scale(c)
        if folded:
            total = total + p * folded
    return total == Poly.norm_sq() ** identity.basis.n


def s2_closure_check(basis: HarmonicBasis) -> bool:
    """Each field maps every basis product back into the exact product span."""
    m = len(basis.polys)
    monos = monomial_basis(2 * basis.n)
    span = RowSpan()
    products = []
    for i in range(m):
        for j in range(i, m):
            prod = basis.polys[i] * basis.polys[j]
            products.append(prod)
            span.add(poly_to_vec(prod, monos))
    for f in (0, 1, 2):
        for prod in products:
            img = apply_field(f, prod)
            if img.is_zero:
                continue
            if not span.contains(poly_to_vec(img, monos)):
                return False
    return True


# --- spherical harmonics (numeric cross-check only) ------------------------


@lru_cache(maxsize=None)
def _diff_poly_x2m1(n: int, order: int) -> tuple[int, ...]:
    """Integer coefficients of d^order/dx^order (x^2 - 1)^n, constant first."""
    coeffs = [0] * (2 * n + 1)
    for j in range(n + 1):
        coeffs[2 * j] = math.comb(n, j) * (-1) ** (n - j)
    for _ in range(order):
        coeffs = [k * coeffs[k] for k in range(1, len(coeffs))] or [0]
    return tuple(coeffs)


def _rodrigues_ratio(n: int, k: int, t: float) -> tuple[int, int]:
    """Integers num, den with num / den = d^(n+k)/dx^(n+k) (x^2 - 1)^n / (2^n n!)
    at the float t, exactly."""
    if abs(k) > n:
        raise ValueError("|k| must be <= n")
    if not -1.0 <= t <= 1.0:
        raise ValueError("t must lie in [-1, 1]")
    p, q = float(t).as_integer_ratio()
    num, den = 0, 1  # the Horner value so far is num / den
    for c in reversed(_diff_poly_x2m1(n, n + k)):
        den *= q
        num = num * p + c * den
    return num, den * 2**n * factorial(n)


def assoc_legendre(n: int, k: int, t: float) -> float:
    """Associated Legendre value via exact pre-differentiation of (x^2-1)^n.

    The derivative and its factor (-1)^k / (2^n n!) are evaluated exactly at
    the float t and rounded once: summed in floats, the alternating terms
    leave a roundoff that grows past 1e-10 in the addition theorem from n = 10.
    Where that ratio or the factor (1 - t^2)^(k/2) is not a normal float, the
    factor is folded into it exactly, so only a value past 1.8e308 raises.
    """
    num, den = _rodrigues_ratio(n, k, t)
    if k != 0 and t in (-1.0, 1.0):
        return 0.0
    try:
        ratio, factor = (-num if k % 2 else num) / den, (1 - t * t) ** (k / 2)
    except OverflowError:  # num / den alone, from n = 151 at k = n
        ratio = factor = 0.0
    if num == 0 or min(abs(ratio), factor) >= 2.0**-1022:  # both normal floats
        return ratio * factor
    # else round the square root of the exact square, factor folded in, once
    rise, fall = _sine_power(t, k)
    top, bottom = num * num * rise, den * den * fall
    s = 66 - (top.bit_length() - bottom.bit_length()) // 2  # the root gets 64+ bits
    root = math.isqrt((top << 2 * s) // bottom if s >= 0 else top // (bottom << -2 * s))
    return math.ldexp(root if (num < 0) == k % 2 else -root, -s)


def _sine_power(t: float, k: int) -> tuple[int, int]:
    """Integers rise, fall with rise / fall = (1 - t^2)^k at the float t, exactly."""
    p, q = t.as_integer_ratio()
    rise, fall = (q * q - p * p) ** abs(k), (q * q) ** abs(k)
    return (fall, rise) if k < 0 else (rise, fall)


def spherical_harmonic(n: int, k: int, theta: float, phi: float) -> complex:
    """(-1)^k sqrt((2n+1)/(4 pi) (n-k)!/(n+k)!) P_n^k(cos theta) e^(i k phi).

    Its squared magnitude, norm and (1 - t^2)^k included, is one exact ratio
    at t = cos(theta), rounded once: in floats the factorials leave the range
    from 171, and P_n^n from n = 151."""
    t = math.cos(theta)
    num, den = _rodrigues_ratio(n, k, t)
    if k != 0 and t in (-1.0, 1.0):
        return 0j
    rise, fall = _sine_power(t, k)
    top = (2 * n + 1) * factorial(n - k) * num * num * rise
    bottom = factorial(n + k) * den * den * fall
    magnitude = math.sqrt(top / bottom / (4 * math.pi))
    return (-magnitude if num < 0 else magnitude) * complex(math.cos(k * phi), math.sin(k * phi))


def addition_theorem_residual(n: int, sample_count: int = 100, seed: int = 0) -> float:
    """max over random sphere points of |sum_k |Y_n^k|^2 - (2n+1)/(4 pi)|,
    with cos(theta) and phi drawn by ``uniform`` from ``random.Random(seed)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if seed < 0:  # random.Random would silently use abs(seed)
        raise ValueError("seed must be nonnegative")
    rng = random.Random(seed)
    expected = (2 * n + 1) / (4 * math.pi)
    worst = 0.0
    for _ in range(sample_count):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        total = sum(
            abs(spherical_harmonic(n, k, theta, phi)) ** 2 for k in range(-n, n + 1)
        )
        worst = max(worst, abs(total - expected))
    return worst
