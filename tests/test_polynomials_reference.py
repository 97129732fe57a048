"""Differential test: the integer CRational and Poly against Fraction-backed ones.

``RefCRational`` and ``RefPoly`` below are the earlier implementation, which
held each coefficient as two ``fractions.Fraction`` parts.  They live only
here, as the reference the integer classes must agree with exactly.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from blochobs.polynomials import CRational, Poly


class RefCRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, RefCRational):
            return value
        if isinstance(value, (int, Fraction)):
            return RefCRational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return RefCRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RefCRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RefCRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRational")
        return RefCRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return RefCRational(-self.re, -self.im)

    def conjugate(self):
        return RefCRational(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)} i"


class RefPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        for e, raw in (terms or {}).items():
            c = raw if isinstance(raw, RefCRational) else RefCRational(raw)
            if c:
                self._terms[e] = c

    @classmethod
    def _of(cls, terms):
        p = cls.__new__(cls)
        p._terms = terms
        return p

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), RefCRational())

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RefCRational)):
            other = RefPoly({(0, 0, 0): other})
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, RefCRational()) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return RefPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, RefPoly) else RefPoly({(0, 0, 0): other * -1}))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RefCRational)):
            return self.scale(other)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, RefCRational()) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return RefPoly._of(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = c if isinstance(c, RefCRational) else RefCRational(c)
        if not c:
            return RefPoly()
        return RefPoly._of({e: c * v for e, v in self._terms.items()})

    def __pow__(self, k):
        out = RefPoly({(0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def partial(self, axis):
        i = axis - 1
        out = {}
        for e, c in self._terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = c * e[i]
        return RefPoly._of(out)

    def conjugate(self):
        return RefPoly._of({e: c.conjugate() for e, c in self._terms.items()})

    def real_part(self):
        return RefPoly._of({e: RefCRational(c.re) for e, c in self._terms.items() if c.re != 0})

    def content(self):
        if not self._terms:
            return Fraction(0)
        parts = [p for c in self._terms.values() for p in (c.re, c.im) if p != 0]
        return Fraction(
            gcd(*(abs(p.numerator) for p in parts)), lcm(*(p.denominator for p in parts))
        )

    def primitive(self):
        c = self.content()
        if c in (0, 1):
            return self
        return self.scale(Fraction(1) / c)

    def __eq__(self, other):
        return self._terms == other._terms

    def text(self):
        if not self._terms:
            return "0"
        parts = []
        items = sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        for exps, c in items:
            mono = " ".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(("x1", "x2", "x3"), exps) if e
            )
            parts.append(f"({c}) {mono}" if mono else f"({c})")
        return " + ".join(parts)


BIG = 2**64


def random_rational(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-(BIG**2), BIG**2), rng.randint(BIG + 1, BIG**2))
    if kind == 4:
        return Fraction(rng.randint(-5, 5), rng.choice((BIG + 1, 3 * BIG, BIG**2 + 7)))
    return rng.randint(-(BIG**2), BIG**2)


def random_pair(rng):
    re = random_rational(rng)
    im = 0 if rng.random() < 0.4 else random_rational(rng)
    return CRational(re, im), RefCRational(re, im)


def random_polys(rng, max_terms=5, degree=3):
    terms, ref_terms = {}, {}
    for _ in range(rng.randint(0, max_terms)):
        e1 = rng.randint(0, degree)
        e2 = rng.randint(0, degree - e1)
        e = (e1, e2, rng.randint(0, degree - e1 - e2))
        c, r = random_pair(rng)
        terms[e], ref_terms[e] = c, r
    if rng.random() < 0.3:  # a real polynomial
        terms = {e: CRational(c.re) for e, c in terms.items()}
        ref_terms = {e: RefCRational(c.re) for e, c in ref_terms.items()}
    return Poly(terms), RefPoly(ref_terms)


def assert_scalar(c, ref):
    assert isinstance(c, CRational)
    assert (c.re, c.im) == (ref.re, ref.im)
    assert str(c) == str(ref)
    assert c._d > 0 and gcd(c._a, c._b, c._d) == 1


def assert_poly(p, ref):
    assert isinstance(p, Poly)
    assert p.text() == ref.text()
    assert {e: (c.re, c.im) for e, c in p.terms.items()} == {
        e: (c.re, c.im) for e, c in ref._terms.items()
    }
    assert p._d > 0 and gcd(p._d, *(v for ab in p._terms.values() for v in ab)) == 1
    assert all(a or b for a, b in p._terms.values())


@pytest.mark.parametrize("seed", range(4))
def test_scalar_matches_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        (x, rx), (y, ry) = random_pair(rng), random_pair(rng)
        assert_scalar(x, rx)
        assert_scalar(x + y, rx + ry)
        assert_scalar(x - y, rx - ry)
        assert_scalar(x * y, rx * ry)
        assert_scalar(-x, -rx)
        assert_scalar(x.conjugate(), rx.conjugate())
        assert (x == y) == (rx == ry)
        assert_scalar(x + y - y, rx)
        assert x + y - y == x
        v = random_rational(rng)
        assert_scalar(x + v, rx + v)
        assert_scalar(v + x, v + rx)
        assert_scalar(x - v, rx - v)
        assert_scalar(v - x, v - rx)
        assert_scalar(x * v, rx * v)
        assert_scalar(v * x, v * rx)
        assert (x == v) == (rx == v)
        if y:
            assert_scalar(x / y, rx / ry)
            assert_scalar(x / y * y, rx)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if v:
            assert_scalar(x / v, rx / v)
        if x:
            assert_scalar(v / x, v / rx)


@pytest.mark.parametrize("seed", range(4))
def test_poly_matches_fraction_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(60):
        (p, rp), (q, rq) = random_polys(rng), random_polys(rng)
        c, rc = random_pair(rng)
        v = random_rational(rng)
        assert_poly(p, rp)
        assert_poly(p + q, rp + rq)
        assert_poly(p - q, rp - rq)
        assert_poly(p - p, rp - rp)
        assert_poly(-p, -rp)
        assert_poly(p * q, rp * rq)
        assert_poly(p * c, rp * rc)
        assert_poly(p + v, rp + v)
        assert_poly(v + p, v + rp)
        assert_poly(p - v, rp - v)
        assert_poly(v - p, v - rp)
        assert_poly(v * p, v * rp)
        assert_poly(p.scale(c), rp.scale(rc))
        assert_poly(p.scale(v), rp.scale(v))
        for axis in (1, 2, 3):
            assert_poly(p.partial(axis), rp.partial(axis))
        assert_poly(p.conjugate(), rp.conjugate())
        assert_poly(p.real_part(), rp.real_part())
        assert p.content() == rp.content()
        assert_poly(p.primitive(), rp.primitive())
        k = rng.randint(0, 3)
        assert_poly(p**k, rp**k)
        assert (p == q) == (rp == rq)
        assert (p * q - q * p).is_zero
        for e in list(rp._terms) + [(0, 0, 0), (1, 1, 1), (5, 0, 0)]:
            assert_scalar(p.coefficient(e), rp.coefficient(e))
