import random
from fractions import Fraction
from math import factorial

import pytest

from blochobs.exactlinalg import RowSpan
from blochobs.polynomials import CRational, Poly, X1, X2, X3, monomial_basis
from blochobs.representation import (
    F0,
    F1,
    F2,
    KappaSignature,
    OperatorExpr,
    apply_field,
    apply_word,
    cartan_h,
    casimir,
    check_ladder,
    commutator_check,
    coordinates,
    e_minus,
    e_plus,
    harmonic_decompose,
    kappa_of_word,
    poly_to_vec,
    verify_casimir_eigen,
    weight_ladder,
    word_basis_search,
    xi,
    zeta,
)


def random_real_poly(rng, degree):
    p = Poly.zero()
    for e in monomial_basis(degree):
        p = p + Poly({e: rng.randint(-3, 3)})
    return p


def test_apply_field_definitions():
    assert apply_field(F0, X1) == X2
    assert apply_field(F1, X3) == -X1
    assert apply_field(F2, X1).is_zero


def test_apply_word_composition():
    # f0 f1 x3 = f0(-x1) = -x2
    assert apply_word((0, 1), X3) == -X2
    p = Poly({(2, 1, 0): 3, (0, 0, 3): -1})
    assert apply_word((), p) == p
    # f1 f1 (x1 + i x2) = f1(x3) = -x1
    top = X1 + X2.scale(CRational(0, 1))
    assert apply_word((1, 1), top) == -X1


def test_degree_preserved():
    rng = random.Random(3)
    for n in (1, 2, 3):
        p = random_real_poly(rng, n)
        for f in (F0, F1, F2):
            q = apply_field(f, p)
            assert q.is_zero or q.homogeneous_degree == n


def test_kappa_of_word():
    assert kappa_of_word((0, 1, 2, 1)) == KappaSignature(1, 3)
    assert kappa_of_word(()) == KappaSignature(0, 0)


def test_kappa_of_exprs():
    assert xi().kappa() == KappaSignature(1, 2)
    assert zeta().kappa() == KappaSignature(0, 4)
    assert casimir().kappa() is None


def test_casimir_structure():
    terms = casimir().terms
    assert len(terms) == 3
    assert all(len(w) == 2 for w in terms)


def test_xi_zeta_structure():
    assert xi().terms == {
        (0, 1, 2): CRational(1),
        (1, 2, 0): CRational(1),
        (2, 0, 1): CRational(1),
        (0, 2, 1): CRational(-1),
        (1, 0, 2): CRational(-1),
        (2, 1, 0): CRational(-1),
    }
    zt = zeta().terms
    assert zt[(1, 2, 1, 2)] == CRational(3) and zt[(2, 1, 2, 1)] == CRational(3)
    assert zt[(1, 2, 2, 1)] == CRational(-2) and zt[(2, 1, 1, 2)] == CRational(-2)
    assert zt[(1, 1, 2, 2)] == CRational(-1) and zt[(2, 2, 1, 1)] == CRational(-1)


def test_apply_expr():
    assert casimir().apply(X3) == X3.scale(-2)
    top = X1 + X2.scale(CRational(0, 1))
    assert e_minus().apply(top) == X3.scale(-2)
    assert OperatorExpr().apply(X3).is_zero


def test_commutator_check():
    for n in (0, 1, 2, 3):
        assert commutator_check(n)
    with pytest.raises(ValueError):
        commutator_check(-1)


def test_weight_ladder_n1():
    lad = weight_ladder(1)
    top = X1 + X2.scale(CRational(0, 1))
    assert lad.vectors[0] == top
    assert lad.vectors[1] == X3.scale(-2)
    assert lad.vectors[2] == (X1 - X2.scale(CRational(0, 1))).scale(-2)
    # conjugation relation at k=0: p_2 = (-1)^1 (2!/0!) conj(p_0)
    assert lad.vectors[2] == lad.vectors[0].conjugate().scale(-2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_top_x3_coefficient(n):
    lad = weight_ladder(n)
    c = lad.vectors[n].coefficient((0, 0, n))
    assert c == CRational(factorial(n) * (-2) ** n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_ladder(n):
    assert check_ladder(weight_ladder(n))


def test_ladder_relations_spot():
    lad = weight_ladder(1)
    h = cartan_h()
    assert h.apply(lad.vectors[1]).is_zero  # weight 0 at k=1
    assert e_plus().apply(lad.vectors[1]) == lad.vectors[0].scale(2)
    lad2 = weight_ladder(2)
    assert e_plus().apply(lad2.vectors[4]) == lad2.vectors[3].scale(4)


@pytest.mark.parametrize("n,lam", [(1, -2), (2, -6), (5, -30)])
def test_verify_casimir_eigen(n, lam):
    cert = verify_casimir_eigen(n)
    assert cert.eigenvalue == Fraction(lam)
    assert set(cert.checked_elements) == {"eta_star", "xi", "zeta"}


def test_casimir_eigen_error_message():
    with pytest.raises(ValueError):
        verify_casimir_eigen(0)


def test_sl2_triplet_commutators():
    h, ep, em = cartan_h(), e_plus(), e_minus()
    for n in range(1, 6):
        for exps in monomial_basis(n):
            m = Poly({exps: 1})
            lhs = h.apply(ep.apply(m)) - ep.apply(h.apply(m))
            assert lhs == ep.apply(m).scale(2)
            lhs = h.apply(em.apply(m)) - em.apply(h.apply(m))
            assert lhs == em.apply(m).scale(-2)
            lhs = ep.apply(em.apply(m)) - em.apply(ep.apply(m))
            assert lhs == h.apply(m)


def test_leibniz_rule():
    rng = random.Random(21)
    for _ in range(10):
        p = random_real_poly(rng, rng.randint(1, 3))
        q = random_real_poly(rng, rng.randint(1, 3))
        for f in (F0, F1, F2):
            assert apply_field(f, p * q) == apply_field(f, p) * q + p * apply_field(f, q)


def test_laplacian_commutes_with_fields():
    for n in range(1, 7):
        for exps in monomial_basis(n):
            m = Poly({exps: 1})
            for f in (F0, F1, F2):
                assert apply_field(f, m).laplacian() == apply_field(f, m.laplacian())


def test_fields_annihilate_norm_sq():
    for f in (F0, F1, F2):
        assert apply_field(f, Poly.norm_sq()).is_zero


def test_casimir_commutes_with_fields():
    cz = casimir()
    for n in range(1, 6):
        for exps in monomial_basis(n):
            m = Poly({exps: 1})
            for f in (F0, F1, F2):
                assert cz.apply(apply_field(f, m)) == apply_field(f, cz.apply(m))


def test_harmonic_decompose_norm_sq():
    parts = harmonic_decompose(Poly.norm_sq())
    assert parts == [(1, Poly.constant(1))]


def test_harmonic_decompose_x1sq():
    parts = harmonic_decompose(X1 * X1)
    expected_h0 = X1 * X1 - Poly.norm_sq().scale(Fraction(1, 3))
    assert parts == [(0, expected_h0), (1, Poly.constant(Fraction(1, 3)))]
    # re-expand
    total = Poly.zero()
    for k, h in parts:
        total = total + h.mul_norm_sq_power(k)
    assert total == X1 * X1


def test_harmonic_decompose_harmonic_input():
    assert harmonic_decompose(X1 * X2) == [(0, X1 * X2)]


def test_harmonic_decompose_roundtrip_random():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        p = random_real_poly(rng, n)
        if p.is_zero:
            continue
        parts = harmonic_decompose(p)
        total = Poly.zero()
        for k, h in parts:
            assert h.is_harmonic
            assert h.homogeneous_degree == n - 2 * k
            total = total + h.mul_norm_sq_power(k)
        assert total == p


def test_harmonic_decompose_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        harmonic_decompose(X1 + X1 * X2)


def test_word_basis_search_x3():
    words = word_basis_search(X3)
    assert words == [(), (1,), (2,)]
    images = [apply_word(w, X3) for w in words]
    assert images == [X3, -X1, -X2]


def test_word_basis_search_x1x2():
    words = word_basis_search(X1 * X2)
    assert len(words) == 5
    assert all(len(w) <= 2 for w in words)
    monos = monomial_basis(2)
    span = RowSpan()
    for w in words:
        assert span.add(poly_to_vec(apply_word(w, X1 * X2), monos))
    assert span.rank == 5


def _word_texts(phi):
    return ["".join(str(i) for i in w) for w in word_basis_search(phi)]


def test_word_basis_search_pinned_words():
    re6 = ((X1 + X2.scale(CRational(0, 1))) ** 6).real_part()
    assert _word_texts(X1 * X2) == ["", "0", "1", "2", "12"]
    assert _word_texts(X1 * X2 * X3) == ["", "0", "1", "2", "01", "02", "12"]
    assert _word_texts(re6) == [
        "", "0", "1", "2", "11", "12", "111", "112",
        "1111", "1112", "11111", "11112", "111111",
    ]


def test_word_basis_search_pinned_random_n4():
    rng = random.Random(4)
    phi = Poly.zero()
    for v in weight_ladder(4).vectors:
        phi = phi + v.real_part().scale(rng.randint(-2, 2))
    assert _word_texts(phi) == ["", "0", "1", "2", "00", "01", "02", "11", "12"]


def test_coordinates_exact_and_outside_span():
    basis = [X1 * X2, X1 * X1 - X2 * X2, X2 * X3]
    (coords,) = coordinates(basis, [(X1 * X2).scale(3) - X2 * X3])
    assert coords == [CRational(3), CRational(0), CRational(-1)]
    with pytest.raises(ValueError):
        coordinates(basis, [X1 * X3])
    with pytest.raises(ValueError):
        coordinates(basis, [X1 * X1])


def test_word_basis_search_images_independent():
    rng = random.Random(17)
    for n in (1, 2, 3):
        lad = weight_ladder(n)
        phi = Poly.zero()
        for v in lad.vectors:
            phi = phi + v.real_part().scale(rng.randint(-2, 2))
        if phi.is_zero:
            phi = lad.vectors[n]
        words = word_basis_search(phi)
        assert len(words) == 2 * n + 1
        monos = monomial_basis(n)
        span = RowSpan()
        for w in words:
            assert span.add(poly_to_vec(apply_word(w, phi), monos))


def test_word_basis_search_rejects_bad_input():
    with pytest.raises(ValueError):
        word_basis_search(Poly.zero())
    with pytest.raises(ValueError):
        word_basis_search(Poly.norm_sq())


def test_weight_spaces_one_dimensional():
    for n in (1, 2, 3):
        lad = weight_ladder(n)
        h = cartan_h()
        monos = monomial_basis(n)
        span = RowSpan()
        weights = set()
        for k, p in enumerate(lad.vectors):
            assert h.apply(p) == p.scale(2 * n - 2 * k)
            weights.add(2 * n - 2 * k)
            assert span.add(poly_to_vec(p, monos))
        assert len(weights) == 2 * n + 1
        assert span.rank == 2 * n + 1


def test_operator_text():
    assert zeta().text() == (
        "-1*[1122] + 3*[1212] - 2*[1221] - 2*[2112] + 3*[2121] - 1*[2211]"
    )
    assert OperatorExpr({(): 1}).text() == "1*[∅]"
    assert cartan_h().text() == "(2 i)*[0]"
