"""Exact sparse polynomials in x1, x2, x3 with complex-rational coefficients.

A polynomial maps exponent triples ``(e1, e2, e3)`` to nonzero :class:`CRational`
coefficients; the zero polynomial stores no terms.  All arithmetic is exact, so
algebraic identities downstream are checked with zero tolerance.  Floats appear
only when :meth:`Poly.evaluate` converts a value at a numeric point.

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


class CRational:
    """Complex scalar with exact rational real and imaginary parts.

    Instances are immutable by convention; equality and hashing are exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value) -> "CRational":
        if isinstance(value, CRational):
            return value
        if isinstance(value, (int, Fraction)):
            return CRational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRational")
        return CRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return coeff_text(self)


def _frac_text(x: Fraction) -> str:
    return str(x)


def coeff_text(c: CRational) -> str:
    """Canonical coefficient rendering: ``2``, ``-1/2``, ``3 i``, ``1/2 - 3 i``."""
    if c.im == 0:
        return _frac_text(c.re)
    if c.re == 0:
        return f"{_frac_text(c.im)} i"
    sign = "+" if c.im > 0 else "-"
    return f"{_frac_text(c.re)} {sign} {_frac_text(abs(c.im))} i"


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


class Poly:
    """Sparse polynomial over the complex rationals in three real variables.

    Zero coefficients are never stored.  Values are immutable once built and
    all operations are pure, so they are safe to share across workers.
    """

    __slots__ = ("_terms",)

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
        self._terms = clean

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
        return dict(self._terms)

    def coefficient(self, exps: Exponents) -> CRational:
        return self._terms.get(tuple(exps), CRational())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self._terms.values())

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(monomial_degree(e) for e in self._terms)

    @property
    def homogeneous_degree(self) -> int | None:
        """The common degree of all monomials, or None (zero or mixed degrees)."""
        degrees = {monomial_degree(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def sorted_terms(self) -> list[tuple[Exponents, CRational]]:
        return sorted(
            self._terms.items(),
            key=lambda kv: (monomial_degree(kv[0]), kv[0]),
            reverse=True,
        )

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, CRational()) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = Poly.__new__(Poly)
        p._terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p._terms = {e: -c for e, c in self._terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(other * -1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Exponents, CRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, CRational()) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = Poly.__new__(Poly)
        p._terms = out
        return p

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = c if isinstance(c, CRational) else CRational(c)
        if not c:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p._terms = {e: c * v for e, v in self._terms.items()}
        return p

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
        out: dict[Exponents, CRational] = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        p = Poly.__new__(Poly)
        p._terms = out
        return p

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
        p = Poly.__new__(Poly)
        p._terms = {e: c.conjugate() for e, c in self._terms.items()}
        return p

    def real_part(self) -> "Poly":
        p = Poly.__new__(Poly)
        p._terms = {e: CRational(c.re) for e, c in self._terms.items() if c.re != 0}
        return p

    def evaluate(self, point: Iterable[float]) -> complex:
        x1, x2, x3 = point
        total = 0j
        for (e1, e2, e3), c in self._terms.items():
            total += c.to_complex() * (x1**e1) * (x2**e2) * (x3**e3)
        return total

    def content(self) -> Fraction:
        """gcd of coefficient numerators over lcm of denominators (0 for zero)."""
        if not self._terms:
            return Fraction(0)
        nums: list[int] = []
        dens: list[int] = []
        for c in self._terms.values():
            for part in (c.re, c.im):
                if part != 0:
                    nums.append(abs(part.numerator))
                    dens.append(part.denominator)
        g = 0
        for n in nums:
            g = gcd(g, n)
        l = 1
        for d in dens:
            l = lcm(l, d)
        return Fraction(g, l)

    def primitive(self) -> "Poly":
        """Divide out the content, giving coprime integer coefficients."""
        c = self.content()
        if c in (0, 1):
            return self
        return self.scale(Fraction(1) / c)

    # --- equality / text ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

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
