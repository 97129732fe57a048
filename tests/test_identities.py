import hashlib
import math
import random
from fractions import Fraction

import pytest

from blochobs.exactlinalg import RowSpan
from blochobs.identities import (
    HarmonicBasis,
    addition_theorem_residual,
    assoc_legendre,
    casimir_normalizer,
    constant_quadratic_form,
    example_basis,
    real_harmonic_basis,
    s2_closure_check,
    spherical_harmonic,
    verify_quadratic_identity,
)
from blochobs.polynomials import Poly, X1, X2, X3, monomial_basis
from blochobs.representation import apply_word, poly_to_vec, weight_ladder, word_basis_search


def random_basis(n, seed):
    """Random integer recombination of the ladder basis (exactly invertible)."""
    rng = random.Random(seed)
    base = real_harmonic_basis(n).polys
    m = 2 * n + 1
    while True:
        polys = []
        span = RowSpan()
        ok = True
        for _ in range(m):
            p = Poly.zero()
            for q in base:
                p = p + q.scale(rng.randint(-3, 3))
            if p.is_zero or not span.add(poly_to_vec(p, monomial_basis(n))):
                ok = False
                break
            polys.append(p)
        if ok:
            return HarmonicBasis(n, tuple(polys))


def test_real_harmonic_basis_n1():
    basis = real_harmonic_basis(1)
    assert basis.polys == (-X3, X1, X2)


def test_real_harmonic_basis_n2_spans_example():
    ladder_basis = real_harmonic_basis(2)
    paper = example_basis(2)
    monos = monomial_basis(2)
    span = RowSpan()
    for p in ladder_basis.polys:
        span.add(poly_to_vec(p, monos))
    for q in paper.polys:
        assert span.contains(poly_to_vec(q, monos))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_harmonic_basis_counts(n):
    basis = real_harmonic_basis(n)
    assert len(basis.polys) == 2 * n + 1
    assert all(p.is_harmonic for p in basis.polys)
    assert all(p.homogeneous_degree == n for p in basis.polys)


def test_constant_quadratic_form_n1_identity_matrix():
    identity = constant_quadratic_form(example_basis(1))
    for i in range(3):
        for j in range(3):
            assert identity.coeffs[i][j] == (1 if i == j else 0)


def test_constant_quadratic_form_n2_exact():
    """The unique expansion over the quadratic example basis.

    Note the coefficient on the three cross-product squares is 3: the form
    with coefficient 2 misses ||x||^4 at (1,1,0) (it gives 3 instead of 4).
    """
    identity = constant_quadratic_form(example_basis(2))
    C = identity.coeffs
    assert C[0][0] == 1 and C[1][1] == 1
    assert C[0][1] == Fraction(1, 2) and C[1][0] == Fraction(1, 2)
    for i in (2, 3, 4):
        assert C[i][i] == 3
    off = [
        C[i][j]
        for i in range(5)
        for j in range(5)
        if (i, j) not in {(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (3, 3), (4, 4)}
    ]
    assert all(c == 0 for c in off)
    assert verify_quadratic_identity(identity)


def test_constant_quadratic_form_n3_exact():
    identity = constant_quadratic_form(example_basis(3))
    C = identity.coeffs
    for i in (0, 1, 2):
        assert C[i][i] == Fraction(1, 4)
    for i in (3, 4, 5):
        assert C[i][i] == Fraction(15, 4)
    assert C[6][6] == 15
    for i in range(7):
        for j in range(7):
            if i != j:
                assert C[i][j] == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_casimir_normalizer_values(n):
    expected = {1: 4, 2: 64, 3: 2304}[n]
    assert casimir_normalizer(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_casimir_normalizer_formula(n):
    assert casimir_normalizer(n) == Fraction(math.factorial(n) ** 2 * 4**n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_independence(n):
    for seed in (1, 2):
        basis = random_basis(n, seed)
        identity = constant_quadratic_form(basis)
        assert verify_quadratic_identity(identity)


def _coeffs_sha256(identity):
    return hashlib.sha256(str(identity.coeffs).encode()).hexdigest()


def test_quadratic_form_pinned_coeffs():
    assert _coeffs_sha256(constant_quadratic_form(real_harmonic_basis(4))) == (
        "6080d7d78e52620f7139b13a6299b3a45f388bc86d267050c08e994328677697"
    )
    phi = X1 * X2 * X3
    words = HarmonicBasis(3, tuple(apply_word(w, phi) for w in word_basis_search(phi)))
    assert _coeffs_sha256(constant_quadratic_form(words)) == (
        "00bab9b63bd954a547183c93ac3c80516a1a0ce1fe4cc733e4a494f98194478e"
    )


# sha256 of C on real_harmonic_basis(n) and on the word-image basis of its
# first element, for the degrees past the CLI's example bases.
PINNED_COEFFS = {
    5: (
        "5e02cc4ca1116b591ebfc2b403279d4d8b7b3bb2e4983b4f47f3387c42590813",
        "16aa001b828f3ff038aa9dbc4c5172a8e719d83c323ece6976dfa9f4b73e46e8",
    ),
    6: (
        "7032b7e26ccd6acb170ceaa327bf8107b8a3525ee0037a2e25953ddfc9132646",
        "f13991508ab79e0e67725d008c52a60bfb92b9a786ca21480678eba84d21303e",
    ),
    7: (
        "b4a346d7aa0d06ea5ba2f8b695296071afa19822cbddc30d00100532667be047",
        "fc2c1991f7ff477c90153d38423516752c53ec1bccbbc19700bc2a8d9c4b754d",
    ),
    8: (
        "e9049d9c5deac1b97e7ecf7c646aeedd2a83d6d5b2814f27f632af1aa59a0d25",
        "111e586fc4da3f236ec8ca708c0e54fda45859fc3d04fdf066cbde7bdcd98e4f",
    ),
}


@pytest.mark.parametrize("n", sorted(PINNED_COEFFS))
def test_quadratic_form_pinned_coeffs_high_degree(n):
    basis = real_harmonic_basis(n)
    phi = basis.polys[0]
    words = HarmonicBasis(n, tuple(apply_word(w, phi) for w in word_basis_search(phi)))
    got = (
        _coeffs_sha256(constant_quadratic_form(basis)),
        _coeffs_sha256(constant_quadratic_form(words)),
    )
    assert got == PINNED_COEFFS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_products_independent(n):
    """Rank (n+1)(2n+1) of the p_i p_j makes the symmetric C unique."""
    polys = real_harmonic_basis(n).polys
    monos = monomial_basis(2 * n)
    span = RowSpan()
    for i, p in enumerate(polys):
        for q in polys[i:]:
            span.add(poly_to_vec(p * q, monos))
    assert span.rank == (n + 1) * (2 * n + 1)


def test_q_star_positive_on_sphere():
    rng = random.Random(4)
    for n in (1, 2, 3):
        c = float(casimir_normalizer(n))
        lad = weight_ladder(n)
        for _ in range(20):
            v = [rng.gauss(0, 1) for _ in range(3)]
            r = math.sqrt(sum(x * x for x in v))
            x = tuple(xi / r for xi in v)
            q = 0.0
            for k in range(2 * n + 1):
                sign = -1 if (n + k) % 2 else 1
                q += sign * (
                    lad.vectors[k].evaluate(x) * lad.vectors[2 * n - k].evaluate(x)
                ).real
            assert q > 0
            assert abs(q - c) <= 1e-9 * c


@pytest.mark.parametrize("n", [1, 2])
def test_s2_closure(n):
    assert s2_closure_check(real_harmonic_basis(n))


def test_wrong_size_basis_rejected():
    with pytest.raises(ValueError):
        HarmonicBasis(1, (X3,))
    with pytest.raises(ValueError):
        HarmonicBasis(1, (X1, X2, X1 + X2))


def test_assoc_legendre_low_orders():
    assert assoc_legendre(1, 0, 0.5) == pytest.approx(0.5, abs=1e-15)
    t = 0.3
    assert assoc_legendre(2, 0, t) == pytest.approx((3 * t * t - 1) / 2, abs=1e-14)
    assert assoc_legendre(1, 1, t) == pytest.approx(-math.sqrt(1 - t * t), abs=1e-14)
    assert assoc_legendre(2, 1, t) == pytest.approx(
        -3 * t * math.sqrt(1 - t * t), abs=1e-14
    )
    assert assoc_legendre(2, 2, t) == pytest.approx(3 * (1 - t * t), abs=1e-14)


@pytest.mark.parametrize(
    "n, t", [(151, 0.5), (151, -0.3), (200, 0.99), (300, 0.999), (150, 0.99999)]
)
def test_assoc_legendre_at_top_order_beyond_float_ratio(n, t):
    """P_n^n(t) = (-1)^n (2n-1)!! (1-t^2)^(n/2) fits a float here although
    its derivative ratio (n >= 151) or its factor (1-t^2)^(n/2) (at 300,
    0.999 both: about 3e298, and at 150, 0.99999: about 1e-46) does not; it
    used to raise OverflowError or return 0.0.  Checked through its square,
    which is exact as a Fraction."""
    got = assoc_legendre(n, n, t)
    double_factorial = math.prod(range(1, 2 * n, 2))
    exact_square = Fraction(double_factorial) ** 2 * (1 - Fraction(t) ** 2) ** n
    assert (got < 0) == (n % 2 == 1)
    assert abs(Fraction(got) ** 2 / exact_square - 1) < 1e-12


def test_assoc_legendre_beyond_float_range_raises():
    with pytest.raises(OverflowError):
        assoc_legendre(200, 200, 0.5)  # about 1e421


def test_assoc_legendre_bits_unchanged_up_to_degree_150():
    """Where num / den and the factor (1-t^2)^(k/2) are both normal floats,
    the value is their product, bit for bit as before.  Elsewhere on this grid
    (k <= -75 from n = 101) num / den underflowed, which left a relative error
    up to 5e-10, or 0.0 in place of 5.8e-234 at (150, -75, 0.999); now the
    value is within 1e-15, or one subnormal step, of the exact one."""
    from blochobs.identities import _rodrigues_ratio

    step, eps = Fraction(math.ulp(0.0)), Fraction(1, 10**15)
    for n in (0, 1, 2, 7, 30, 64, 101, 149, 150):
        for k in sorted({-n, -n // 2, 0, min(1, n), n // 3, max(n - 1, 0), n}):
            for t in (-0.97, -0.3, 0.0, 0.5, 0.999):
                num, den = _rodrigues_ratio(n, k, t)
                got = assoc_legendre(n, k, t)
                ratio, factor = (-num if k % 2 else num) / den, (1 - t * t) ** (k / 2)
                if num == 0 or min(abs(ratio), factor) >= 2.0**-1022:
                    assert got.hex() == (ratio * factor).hex()
                    continue
                exact_square = Fraction(num, den) ** 2 * (1 - Fraction(t) ** 2) ** k
                size = abs(Fraction(got))
                low, high = max(size * (1 - eps) - step, 0), size * (1 + eps) + step
                assert low**2 <= exact_square <= high**2
                assert got == 0 or (got < 0) == ((num < 0) != (k % 2 == 1))


def test_assoc_legendre_negative_order_symmetry():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for t in (-0.7, 0.1, 0.64):
                expected = (
                    (-1) ** k
                    * math.factorial(n - k)
                    / math.factorial(n + k)
                    * assoc_legendre(n, k, t)
                )
                assert assoc_legendre(n, -k, t) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_legendre_at_one(n):
    assert abs(assoc_legendre(n, 0, 1.0) - 1.0) <= 1e-12


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre(2, 0, 1.5)


def test_y00_constant():
    for theta, phi in ((0.3, 1.0), (2.0, 4.5)):
        assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
            1 / math.sqrt(4 * math.pi)
        )


@pytest.mark.parametrize("n", [0, 1, 3])
def test_addition_theorem(n):
    assert addition_theorem_residual(n, sample_count=100, seed=11) <= 1e-10


@pytest.mark.parametrize("n", range(1, 17))
def test_addition_theorem_near_roundoff(n):
    """Summed in floats, the Legendre polynomials' alternating terms left a
    residual of 8.9e-13 at n = 8, 2.6e-10 at n = 10 and 0.14 at n = 13."""
    assert addition_theorem_residual(n, 100, 0) <= 1e-13


def test_addition_theorem_negative_seed_rejected():
    """random.Random(-3) would silently draw what seed 3 draws."""
    with pytest.raises(ValueError, match="seed"):
        addition_theorem_residual(2, 10, seed=-3)
    for seed in (2**64 + 3, 10**30):
        assert addition_theorem_residual(2, 10, seed) <= 1e-13


def test_spherical_harmonic_degree_one():
    """The sign convention and the norm, from the closed forms: the factor
    (-1)^k cancels the Condon-Shortley sign of P_n^k."""
    for theta, phi in ((0.3, 1.0), (2.0, 4.5), (1.2, -0.7)):
        y10 = math.sqrt(3 / (4 * math.pi)) * math.cos(theta)
        y11 = math.sqrt(3 / (8 * math.pi)) * math.sin(theta) * complex(math.cos(phi), math.sin(phi))
        assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(y10, abs=1e-15)
        assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(y11, abs=1e-15)
        assert spherical_harmonic(1, -1, theta, phi) == pytest.approx(-y11.conjugate(), abs=1e-15)


def test_spherical_harmonic_high_degree():
    """The norm's factorials pass the float range from 171 and P_n^n passes it
    from n = 151 (the CLI runs n = 100); the squared magnitude as one exact
    ratio stays in range."""
    n, theta, phi = 200, 1.1, 0.4
    total = sum(abs(spherical_harmonic(n, k, theta, phi)) ** 2 for k in range(-n, n + 1))
    assert abs(total - (2 * n + 1) / (4 * math.pi)) <= 1e-12
    assert spherical_harmonic(n, n, 0.0, phi) == 0.0


def test_spherical_harmonic_proportional_to_ladder():
    """Y_n^k matches ladder p_(n-k) on the sphere up to one constant per (n,k)."""
    rng = random.Random(8)
    for n in (1, 2, 3):
        lad = weight_ladder(n)
        for k in range(-n, n + 1):
            p = lad.vectors[n - k]
            ratios = []
            for _ in range(12):
                theta = math.acos(rng.uniform(-1, 1))
                phi = rng.uniform(0, 2 * math.pi)
                x = (
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                )
                denom = p.evaluate(x)
                if abs(denom) < 1e-6:
                    continue
                ratios.append(spherical_harmonic(n, k, theta, phi) / denom)
            assert len(ratios) >= 8
            for r in ratios[1:]:
                assert abs(r - ratios[0]) <= 1e-9 * abs(ratios[0])


def test_spherical_harmonic_rejects_order_above_degree():
    with pytest.raises(ValueError, match=r"\|k\| must be <= n"):
        spherical_harmonic(1, 2, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"\|k\| must be <= n"):
        spherical_harmonic(2, -3, 0.7, 1.3)
