import random
from fractions import Fraction

import pytest

from blochobs.polynomials import CRational, Poly, X1, X2, X3, monomial_basis


def random_poly(rng, degree_max=3, terms=4):
    p = Poly.zero()
    for _ in range(terms):
        e1 = rng.randint(0, degree_max)
        e2 = rng.randint(0, degree_max - e1)
        e3 = rng.randint(0, degree_max - e1 - e2)
        c = CRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        p = p + Poly({(e1, e2, e3): c})
    return p


def test_add_additive_inverse():
    assert (X1 + (-X1)).is_zero


def test_add_simple():
    assert X1 * X1 + X2 * X2 == Poly({(2, 0, 0): 1, (0, 2, 0): 1})


def test_add_conjugate_pair():
    p = X1 + X2.scale(CRational(0, 1))
    q = X1 + X2.scale(CRational(0, -1))
    assert p + q == X1.scale(2)


def test_mul_conjugate_pair():
    p = X1 + X2.scale(CRational(0, 1))
    q = X1 + X2.scale(CRational(0, -1))
    assert p * q == X1 * X1 + X2 * X2


def test_mul_identity():
    p = Poly({(1, 1, 0): Fraction(3, 2), (0, 0, 2): -1})
    assert p * Poly.constant(1) == p


def test_mul_square():
    assert (X1 + X2) ** 2 == Poly({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})


def test_partial():
    p = Poly({(2, 0, 1): 1})
    assert p.partial(1) == Poly({(1, 0, 1): 2})
    assert X2.partial(1).is_zero
    assert Poly({(0, 0, 3): 1}).partial(3) == Poly({(0, 0, 2): 3})


def test_laplacian():
    assert (X1 * X1 - X2 * X2).laplacian().is_zero
    assert (X1 * X1).laplacian() == Poly.constant(2)
    assert Poly.norm_sq().laplacian() == Poly.constant(6)


def test_is_harmonic():
    assert (X1 * X2 * X3).is_harmonic
    assert not Poly.norm_sq().is_harmonic
    p1 = X1 * (Poly({(2, 0, 0): 2, (0, 2, 0): -3, (0, 0, 2): -3}))
    assert p1.is_harmonic


def test_evaluate():
    assert (X1 * X2 * X3).evaluate((1, 1, 1)) == 1
    assert (X1 * X1 - X2 * X2).evaluate((0, 0, 1)) == 0
    p = (X1 + X2.scale(CRational(0, 1))) ** 2
    assert p.evaluate((1, 1, 0)) == pytest.approx(2j)


def test_conjugate():
    p = X1 + X2.scale(CRational(0, 1))
    assert p.conjugate() == X1 + X2.scale(CRational(0, -1))
    q = Poly({(1, 1, 0): Fraction(5, 3)})
    assert q.conjugate() == q
    r = random_poly(random.Random(7))
    assert r.conjugate().conjugate() == r


def test_mul_norm_sq_power():
    assert Poly.constant(1).mul_norm_sq_power(1) == Poly.norm_sq()
    assert X3.mul_norm_sq_power(0) == X3
    assert X3.mul_norm_sq_power(1) == Poly(
        {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1}
    )


def test_ring_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(25):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_homogeneous_scaling():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 4)
        p = Poly.zero()
        for e in monomial_basis(n):
            p = p + Poly({e: rng.randint(-3, 3)})
        if p.is_zero:
            continue
        x = (0.3, -1.2, 0.7)
        for lam in (0.5, 2.0, -1.3):
            lhs = p.evaluate(tuple(lam * xi for xi in x))
            rhs = (lam**n) * p.evaluate(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_monomial_basis_dimension():
    for n in range(0, 8):
        assert len(monomial_basis(n)) == (n + 1) * (n + 2) // 2


def test_homogeneous_degree():
    assert (X1 * X2).homogeneous_degree == 2
    assert (X1 + X2 * X3).homogeneous_degree is None
    assert Poly.zero().homogeneous_degree is None


def test_text_canonical():
    p = Poly({(0, 2, 0): 1, (2, 0, 0): 1})
    assert p.text() == "(1) x1^2 + (1) x2^2"
    q = Poly({(1, 0, 0): CRational(Fraction(1, 2), -3), (0, 0, 0): 2})
    assert q.text() == "(1/2 - 3 i) x1 + (2)"
    assert Poly.zero().text() == "0"
    assert Poly({(0, 1, 0): CRational(0, Fraction(-2, 3))}).text() == "(-2/3 i) x2"


def test_primitive_content():
    p = Poly({(1, 0, 0): Fraction(4, 6), (0, 1, 0): Fraction(-2, 3)})
    assert p.content() == Fraction(2, 3)
    assert p.primitive() == X1 - X2


def test_crational_division():
    a = CRational(1, 1)
    b = CRational(0, 1)
    assert a / b == CRational(1, -1)
    with pytest.raises(ZeroDivisionError):
        a / CRational()


def test_real_values_hash_like_ints_and_fractions():
    for v in (0, 3, -7, 2**70, Fraction(1, 2), Fraction(-5, 3), Fraction(1, 2**70 + 1)):
        c = CRational(v)
        assert c == v and hash(c) == hash(v)
        assert {v: "hit"}.get(c) == "hit"
        assert {c: "hit"}.get(v) == "hit"
        assert len({c, v}) == 1
    assert CRational(Fraction(6, 2)) == 3 and hash(CRational(Fraction(6, 2))) == hash(3)
    assert CRational(3, 1) != 3
