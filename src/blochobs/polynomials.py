"""Exact sparse polynomials in x1, x2, x3 with complex-rational coefficients.

Both classes work on plain Python integers.  A :class:`CRational` is
``(a + b i) / d`` with ``d > 0`` and ``gcd(a, b, d) = 1``; a :class:`Poly`
maps exponent triples ``(e1, e2, e3)`` to integer pairs ``(a, b)`` over one
denominator ``d``, with ``d > 0``, the gcd of ``d`` and every ``a`` and ``b``
equal to 1, and no ``(0, 0)`` pair stored.  Each form is canonical, so
equality is structural, and each result is normalised by one gcd pass.  All
arithmetic is exact, so algebraic identities downstream are checked with zero
tolerance.  Floats appear only when :meth:`Poly.evaluate` converts a value at
a numeric point.

Canonical printing uses graded-lex term order (total degree first, then the
exponent triple, both descending), which keeps text output and golden files
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, int, int]
RationalLike = Union[int, Fraction]

_new = object.__new__


def _cr(a: int, b: int, d: int) -> "CRational":
    """The canonical ``(a + b i) / d`` for ``d > 0``."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    c = _new(CRational)
    c._a = a
    c._b = b
    c._d = d
    return c


class CRational:
    """Complex scalar with exact rational real and imaginary parts.

    Instances are immutable by convention; equality and hashing are exact, and
    a real value hashes like the equal ``int`` or ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        self._a, self._b, self._d = a, b, d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(value) -> "CRational":
        if isinstance(value, CRational):
            return value
        if isinstance(value, (int, Fraction)):
            return CRational(value)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not CRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _cr(self._a + other._a, self._b + other._b, d1)
        return _cr(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _cr(self._a - other._a, self._b - other._b, d1)
        return _cr(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not CRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _cr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not CRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        f = other._d
        if b2:
            # x / y = x * conj(d_y y) * d_y / |d_y y|^2
            a1, b1 = a1 * a2 + b1 * b2, b1 * a2 - a1 * b2
            n = a2 * a2 + b2 * b2
        elif a2 > 0:
            n = a2
        elif a2:
            n, f = -a2, -f
        else:
            raise ZeroDivisionError("division by zero CRational")
        return _cr(a1 * f, b1 * f, self._d * n)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        c = _new(CRational)
        c._a, c._b, c._d = -self._a, -self._b, self._d
        return c

    def conjugate(self) -> "CRational":
        c = _new(CRational)
        c._a, c._b, c._d = self._a, -self._b, self._d
        return c

    def __eq__(self, other):
        if type(other) is not CRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(Fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    @property
    def is_real(self) -> bool:
        return not self._b

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return coeff_text(self)


def coeff_text(c: CRational) -> str:
    """Canonical coefficient rendering: ``2``, ``-1/2``, ``3 i``, ``1/2 - 3 i``."""
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im} i"
    sign = "+" if im > 0 else "-"
    return f"{re} {sign} {abs(im)} i"


def monomial_degree(exps: Exponents) -> int:
    return exps[0] + exps[1] + exps[2]


def monomial_basis(degree: int) -> list[Exponents]:
    """All exponent triples of the given total degree, graded-lex descending."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for e1 in range(degree, -1, -1):
        for e2 in range(degree - e1, -1, -1):
            out.append((e1, e2, degree - e1 - e2))
    return out


def _monomial_text(exps: Exponents) -> str:
    parts = []
    for name, e in zip(("x1", "x2", "x3"), exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return " ".join(parts)


def _poly(terms: dict, d: int) -> "Poly":
    """The canonical Poly of ``terms / d``, for ``d > 0`` and no ``(0, 0)`` pair."""
    g = d
    for a, b in terms.values():
        if g == 1:
            break
        g = gcd(g, a, b)
    if g != 1:
        terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        d //= g
    p = _new(Poly)
    p._terms = terms
    p._d = d
    return p


class Poly:
    """Sparse polynomial over the complex rationals in three real variables.

    Zero coefficients are never stored.  Values are immutable once built and
    all operations are pure, so they are safe to share across workers.
    """

    __slots__ = ("_terms", "_d")

    def __init__(self, terms: Mapping[Exponents, object] | None = None):
        clean: dict[Exponents, CRational] = {}
        if terms:
            for exps, raw in terms.items():
                e = (int(exps[0]), int(exps[1]), int(exps[2]))
                if min(e) < 0:
                    raise ValueError(f"negative exponent in {e}")
                c = raw if isinstance(raw, CRational) else CRational(raw)
                if c:
                    clean[e] = c
        d = lcm(*(c._d for c in clean.values()))
        self._terms = {e: (c._a * (d // c._d), c._b * (d // c._d)) for e, c in clean.items()}
        self._d = d

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "Poly":
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2, or 3")
        exps = [0, 0, 0]
        exps[axis - 1] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def norm_sq(cls) -> "Poly":
        return cls({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})

    # --- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, CRational]:
        d = self._d
        return {e: _cr(a, b, d) for e, (a, b) in self._terms.items()}

    def coefficient(self, exps: Exponents) -> CRational:
        ab = self._terms.get(tuple(exps))
        return CRational() if ab is None else _cr(ab[0], ab[1], self._d)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        return not any(b for _, b in self._terms.values())

    @property
    def homogeneous_degree(self) -> int | None:
        """The common degree of all monomials, or None (zero or mixed degrees)."""
        degrees = {monomial_degree(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def sorted_terms(self) -> list[tuple[Exponents, CRational]]:
        return sorted(
            self.terms.items(),
            key=lambda kv: (monomial_degree(kv[0]), kv[0]),
            reverse=True,
        )

    # --- arithmetic -------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        d1, d2 = self._d, other._d
        d = lcm(d1, d2)
        f1, f2 = d // d1, sign * (d // d2)
        out = {e: (a * f1, b * f1) for e, (a, b) in self._terms.items()}
        get = out.get
        for e, (a, b) in other._terms.items():
            old = get(e)
            if old is None:
                out[e] = (a * f2, b * f2)
            else:
                out[e] = (old[0] + a * f2, old[1] + b * f2)
        return _poly({e: ab for e, ab in out.items() if ab[0] or ab[1]}, d)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        p = _new(Poly)
        p._terms = {e: (-a, -b) for e, (a, b) in self._terms.items()}
        p._d = self._d
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict = {}
        get = out.get
        t2 = other._terms.items()
        for (x, y, z), (a1, b1) in self._terms.items():
            for (u, v, w), (a2, b2) in t2:
                e = (x + u, y + v, z + w)
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                old = get(e)
                out[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return _poly({e: ab for e, ab in out.items() if ab[0] or ab[1]}, self._d * other._d)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = c if isinstance(c, CRational) else CRational(c)
        if not c:
            return Poly.zero()
        ca, cb = c._a, c._b
        out = {e: (ca * a - cb * b, ca * b + cb * a) for e, (a, b) in self._terms.items()}
        return _poly(out, c._d * self._d)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- calculus ---------------------------------------------------------

    def partial(self, axis: int) -> "Poly":
        """Formal partial derivative along x1, x2, or x3."""
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2, or 3")
        i = axis - 1
        out = {}
        for e, (a, b) in self._terms.items():
            k = e[i]
            if k:
                d = list(e)
                d[i] = k - 1
                out[tuple(d)] = (a * k, b * k)
        return _poly(out, self._d)

    def laplacian(self) -> "Poly":
        return (
            self.partial(1).partial(1)
            + self.partial(2).partial(2)
            + self.partial(3).partial(3)
        )

    @property
    def is_harmonic(self) -> bool:
        return self.laplacian().is_zero

    def mul_norm_sq_power(self, k: int) -> "Poly":
        """Multiply by (x1^2 + x2^2 + x3^2)^k."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self * (Poly.norm_sq() ** k)

    # --- conversions ------------------------------------------------------

    def conjugate(self) -> "Poly":
        p = _new(Poly)
        p._terms = {e: (a, -b) for e, (a, b) in self._terms.items()}
        p._d = self._d
        return p

    def real_part(self) -> "Poly":
        return _poly({e: (a, 0) for e, (a, _) in self._terms.items() if a}, self._d)

    def evaluate(self, point: Iterable[float]) -> complex:
        x1, x2, x3 = point
        total = 0j
        for (e1, e2, e3), c in self.terms.items():
            total += c.to_complex() * (x1**e1) * (x2**e2) * (x3**e3)
        return total

    def content(self) -> Fraction:
        """gcd of coefficient numerators over lcm of denominators (0 for zero)."""
        return Fraction(gcd(*(g for ab in self._terms.values() for g in ab)), self._d)

    def primitive(self) -> "Poly":
        """Divide out the content, giving coprime integer coefficients."""
        c = self.content()
        if c in (0, 1):
            return self
        g = c.numerator
        p = _new(Poly)
        p._terms = {e: (a // g, b // g) for e, (a, b) in self._terms.items()}
        p._d = 1
        return p

    # --- equality / text ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._d == other._d and self._terms == other._terms

    def __hash__(self):
        return hash((self._d, tuple(sorted(self._terms.items()))))

    def text(self) -> str:
        """Canonical text form, graded-lex descending: ``(c) x1^a x2^b x3^c``."""
        if not self._terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = _monomial_text(exps)
            body = f"({coeff_text(c)})"
            parts.append(f"{body} {mono}" if mono else body)
        return " + ".join(parts)

    __str__ = text

    def __repr__(self):
        return f"Poly<{self.text()}>"


X1 = Poly.variable(1)
X2 = Poly.variable(2)
X3 = Poly.variable(3)
