import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from blochobs import exactlinalg
from blochobs.ensemble import ParameterBox
from blochobs.exactlinalg import certified_gram_schmidt
from blochobs.reconstruction import FeatureBasis, _feature_gram

DEFAULT_BOX = ParameterBox(0.0, 1.0, 0.5, 1.5)
# a1 = -b1: odd sigma1 moments vanish, so the Gram matrix and R have exact
# zeros that the fixed-point pass must return as +0.0.
SYMMETRIC_BOX = ParameterBox(-1.0, 1.0, 0.5, 1.5)


def box_monomial_integral(box, e1, e2):
    """The per-entry closed form the separable Gram build replaced."""
    a1, b1 = Fraction(box.a1), Fraction(box.b1)
    a2, b2 = Fraction(box.a2), Fraction(box.b2)
    return (b1 ** (e1 + 1) - a1 ** (e1 + 1)) / (e1 + 1) * (
        b2 ** (e2 + 1) - a2 ** (e2 + 1)
    ) / (e2 + 1)


def fraction_gram_schmidt(gram):
    """The exact rational loop the certified routine replaced."""
    K = len(gram)
    rows = []
    norms = []
    for k in range(K):
        row = [Fraction(0)] * K
        row[k] = Fraction(1)
        for j in range(k):
            inner = sum(rows[j][m] * gram[k][m] for m in range(K) if rows[j][m])
            coeff = inner / norms[j]
            if coeff:
                row = [r - coeff * bj for r, bj in zip(row, rows[j])]
        d = sum(row[m] * gram[m][k] for m in range(K) if row[m])
        if d <= 0:
            raise AssertionError("feature Gram matrix is not positive definite")
        rows.append(row)
        norms.append(d)
    return (
        np.array([[float(v) for v in r] for r in rows]),
        np.array([float(d) for d in norms]),
    )


def record_passes(monkeypatch):
    passes = []
    real = exactlinalg._gram_schmidt_pass

    def spy(gram, bits):
        passes.append(bits)
        return real(gram, bits)

    monkeypatch.setattr(exactlinalg, "_gram_schmidt_pass", spy)
    return passes


@pytest.mark.parametrize("box", [DEFAULT_BOX, SYMMETRIC_BOX], ids=["default", "a1-negative"])
@pytest.mark.parametrize("D", range(9))
def test_feature_basis_bit_identical_to_fraction_loop(box, D):
    fb = FeatureBasis(box, D)
    exps = [(a, 2 * a + 4 * b) for a, b in fb.pairs]
    gram = [
        [box_monomial_integral(box, p + q, r + s) for q, s in exps] for p, r in exps
    ]
    assert _feature_gram(box, exps) == gram
    orth, norms = fraction_gram_schmidt(gram)
    # tobytes: a -0.0 where the loop gives 0.0 fails too.
    assert fb._orth.tobytes() == orth.tobytes()
    assert fb._sqrt_norms.tobytes() == np.sqrt(norms).tobytes()
    # fit_residual reads the float Gram matrix: zero for moments made with it.
    weights = np.arange(1.0, fb.size + 1)
    gram_float = np.array([[float(g) for g in r] for r in gram])
    assert fb.fit_residual(weights, gram_float @ weights) == 0.0


def test_hilbert_matrix_needs_a_doubling(monkeypatch):
    passes = record_passes(monkeypatch)
    hilbert = [[Fraction(1, i + j + 1) for j in range(24)] for i in range(24)]
    rows, pivots = certified_gram_schmidt(hilbert)
    orth, norms = fraction_gram_schmidt(hilbert)
    assert passes[:2] == [exactlinalg._START_BITS, 2 * exactlinalg._START_BITS]
    assert np.array(rows).tobytes() == orth.tobytes()
    assert np.array(pivots).tobytes() == norms.tobytes()


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2, 0], [2, 1, 0], [0, 0, 1]],
        [[Fraction(1, 3), Fraction(1, 2), 0], [Fraction(1, 2), Fraction(1, 3), 0], [0, 0, 1]],
    ],
    ids=["integer", "rational"],
)
def test_indefinite_matrix_raises_in_the_first_pass(monkeypatch, matrix):
    passes = record_passes(monkeypatch)
    with pytest.raises(AssertionError, match="not positive definite"):
        certified_gram_schmidt(matrix)
    assert passes == [exactlinalg._START_BITS]


THIRD, SIXTH, HALF, SEVENTH = Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), Fraction(1, 7)


@pytest.mark.parametrize(
    "matrix",
    [
        # Row 2 is half of row 1, so the second pivot is exactly 0.
        [[THIRD, SIXTH, HALF], [SIXTH, THIRD / 4, HALF / 2], [HALF, HALF / 2, 1]],
        # Rank 1, and the second pivot's midpoint is > 0 at the first pass:
        # only its lower bound may admit it as a divisor.
        [[SEVENTH, SEVENTH / 3], [SEVENTH / 3, SEVENTH / 9]],
    ],
    ids=["3x3", "positive-midpoint"],
)
def test_singular_matrix_raises_at_the_cap(monkeypatch, matrix):
    """The zero pivot's interval straddles 0 at every precision, so the bits
    double up to the cap and no further."""
    passes = record_passes(monkeypatch)
    with pytest.raises(AssertionError, match="not positive definite"):
        certified_gram_schmidt(matrix)
    assert passes[-1] == exactlinalg._MAX_BITS
    assert len(passes) == (exactlinalg._MAX_BITS // exactlinalg._START_BITS).bit_length()


@pytest.mark.parametrize(
    "gram",
    [
        [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)],
        _feature_gram(DEFAULT_BOX, [(a, 2 * a + 4 * b) for a in range(4) for b in range(4 - a)]),
    ],
    ids=["hilbert-8", "features-D3"],
)
def test_every_accepted_pass_is_exact(gram):
    """A pass at too few bits must refuse, never return other floats: this
    is what the radii are for."""
    orth, norms = fraction_gram_schmidt(gram)
    verdicts = []
    for bits in range(8, 129, 4):
        result = exactlinalg._gram_schmidt_pass(gram, bits)
        verdicts.append(result is not None)
        if result is not None:
            assert np.array(result[0]).tobytes() == orth.tobytes(), bits
            assert np.array(result[1]).tobytes() == norms.tobytes(), bits
    assert not verdicts[0] and verdicts[-1]


def encloses(c, e, exact, bits):
    return abs(exact * 2**bits - c) <= e


def test_fixed_point_steps_enclose_the_exact_result():
    """Each step's radius covers the worst exact inputs within its operands'
    radii, checked at few bits, where one lost unit shows."""
    rng = random.Random(0)
    bits = 3
    scale = 2**bits
    for _ in range(3000):
        g = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert encloses(*exactlinalg._entry(g, bits), g, bits)

        mid, err = rng.randint(-500, 500), rng.randint(0, 30)
        c, e = exactlinalg._round(mid, err, bits)
        for x in (mid - err, mid + err):
            assert encloses(c, e, Fraction(x, scale**2), bits)

        pairs = [[(rng.randint(-20, 20), rng.randint(0, 3)) for _ in range(2)] for _ in range(2)]
        triples = [([], [], []), ([], [], [])]
        for pair in pairs:
            for t, (v, r) in zip(triples, pair):
                exactlinalg._push(t, v, r)
        c, e = exactlinalg._dot(*triples, bits)
        # The bound is bilinear per term, so its corners are the extremes.
        for signs in product((-1, 1), repeat=4):
            exact = sum(
                Fraction(cx + sx * ex, scale) * Fraction(cy + sy * ey, scale)
                for ((cx, ex), (cy, ey)), sx, sy in zip(pairs, signs[::2], signs[1::2])
            )
            assert encloses(c, e, exact, bits)

        d, de = rng.randint(2, 40), rng.randint(0, 3)
        d = max(d, de + 1)
        u, eu = rng.randint(-40, 40), rng.randint(0, 3)
        c, e = exactlinalg._quotient(u, eu, d, de, bits)
        for x, y in product((u - eu, u + eu), (d - de, d + de)):
            assert encloses(c, e, Fraction(x, y), bits)


def test_value_just_above_a_rounding_tie():
    """1 + 2^-53 is halfway between two floats; the exact entry lies 2^-302
    above it and rounds up, while its 256-bit floor is the tie itself, which
    rounds to even (down).  The radius must keep that pass from pinning."""
    g = 1 + Fraction(1, 2**53) + Fraction(1, 3 * 2**300)
    rows, pivots = certified_gram_schmidt([[g]])
    assert rows == [[1.0]]
    assert pivots == [float(g)] and pivots[0] > 1.0
