"""Action of the sphere vector fields on polynomials and the sl(2,C) machinery.

The three fields

    f0 = (x2, -x1, 0),   f1 = (x3, 0, -x1),   f2 = (0, x3, -x2)

act on polynomials by directional derivative.  Words over {0,1,2} compose
left-to-right (``apply_word((i1,...,ik), p) = f_i1(...(f_ik p))``), operator
expressions are finite linear combinations of words with complex-rational
coefficients, and everything downstream (Casimir variants, the weight ladder
on harmonic polynomials, harmonic decomposition, word-image basis search) is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .exactlinalg import RowSpan, solve_exact
from .polynomials import CRational, Exponents, Poly, monomial_basis

F0, F1, F2 = 0, 1, 2
FIELD_IDS = (F0, F1, F2)

Word = tuple[int, ...]

COMMUTATOR_DEGREE_CAP = 12


class KappaSignature(NamedTuple):
    """Counts of the drift letter '0' (k1) and control letters '1','2' (k2)."""

    k1: int
    k2: int


def kappa_of_word(word: Word) -> KappaSignature:
    k1 = sum(1 for i in word if i == F0)
    return KappaSignature(k1, len(word) - k1)


_X = (Poly.variable(1), Poly.variable(2), Poly.variable(3))


def apply_field(field: int, p: Poly) -> Poly:
    """Directional derivative of p along f0, f1, or f2."""
    if field == F0:
        return _X[1] * p.partial(1) - _X[0] * p.partial(2)
    if field == F1:
        return _X[2] * p.partial(1) - _X[0] * p.partial(3)
    if field == F2:
        return _X[2] * p.partial(2) - _X[1] * p.partial(3)
    raise ValueError(f"unknown field id {field!r}")


def apply_word(word: Iterable[int], p: Poly) -> Poly:
    """Left-to-right composition; the empty word is the identity."""
    word = tuple(word)
    out = p
    for i in reversed(word):
        out = apply_field(i, out)
    return out


class OperatorExpr:
    """Finite linear combination of word operators with CRational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Word, CRational] = {}
        if terms:
            for word, raw in terms.items():
                w = tuple(int(i) for i in word)
                if any(i not in FIELD_IDS for i in w):
                    raise ValueError(f"bad word {w}")
                c = raw if isinstance(raw, CRational) else CRational(raw)
                if c:
                    clean[w] = c
        self._terms = clean

    @property
    def terms(self) -> dict[Word, CRational]:
        return dict(self._terms)

    def compose(self, other: "OperatorExpr") -> "OperatorExpr":
        """Operator composition: (a.compose(b))(p) = a(b(p))."""
        out: dict[Word, CRational] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                s = out.get(w, CRational()) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        e = OperatorExpr.__new__(OperatorExpr)
        e._terms = out
        return e

    def power(self, k: int) -> "OperatorExpr":
        if k < 0:
            raise ValueError("negative operator power")
        out = OperatorExpr({(): 1})
        for _ in range(k):
            out = out.compose(self)
        return out

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero()
        for w, c in self._terms.items():
            out = out + apply_word(w, p).scale(c)
        return out

    def kappa(self) -> KappaSignature | None:
        """The common signature of all words, or None when they disagree."""
        sigs = {kappa_of_word(w) for w in self._terms}
        if len(sigs) == 1:
            return sigs.pop()
        return None

    def sorted_terms(self) -> list[tuple[Word, CRational]]:
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def text(self) -> str:
        """Render as e.g. ``3*[1212] - 2*[1221]`` (empty word prints as ∅)."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for w, c in self.sorted_terms():
            digits = "".join(str(i) for i in w) if w else "∅"
            if c.is_real:
                mag = f"{abs(c.re)}*[{digits}]"
                if not parts:
                    parts.append(mag if c.re > 0 else f"-{mag}")
                else:
                    parts.append(f"{'+' if c.re > 0 else '-'} {mag}")
            else:
                body = f"({c})*[{digits}]"
                parts.append(body if not parts else f"+ {body}")
        return parts[0] + ("" if len(parts) == 1 else " " + " ".join(parts[1:]))

    __str__ = text

    def __repr__(self):
        return f"OperatorExpr<{self.text()}>"


def casimir() -> OperatorExpr:
    """f0^2 + f1^2 + f2^2."""
    return OperatorExpr({(0, 0): 1, (1, 1): 1, (2, 2): 1})


def xi() -> OperatorExpr:
    """The kappa-(1,2) rewriting of the Casimir element (six length-3 words)."""
    return OperatorExpr(
        {
            (0, 1, 2): 1,
            (1, 2, 0): 1,
            (2, 0, 1): 1,
            (0, 2, 1): -1,
            (1, 0, 2): -1,
            (2, 1, 0): -1,
        }
    )


def zeta() -> OperatorExpr:
    """The kappa-(0,4) rewriting of the Casimir element (six length-4 words)."""
    return OperatorExpr(
        {
            (1, 2, 1, 2): 3,
            (2, 1, 2, 1): 3,
            (1, 2, 2, 1): -2,
            (2, 1, 1, 2): -2,
            (1, 1, 2, 2): -1,
            (2, 2, 1, 1): -1,
        }
    )


def cartan_h() -> OperatorExpr:
    return OperatorExpr({(0,): CRational(0, 2)})


def e_plus() -> OperatorExpr:
    return OperatorExpr({(1,): 1, (2,): CRational(0, 1)})


def e_minus() -> OperatorExpr:
    return OperatorExpr({(1,): -1, (2,): CRational(0, 1)})


def commutator_check(n: int) -> bool:
    """Exact [f_i, f_j] = f_k on every monomial of degree n, (i,j,k) cyclic."""
    if n < 0 or n > COMMUTATOR_DEGREE_CAP:
        raise ValueError(f"degree must be within 0..{COMMUTATOR_DEGREE_CAP}")
    for exps in monomial_basis(n):
        m = Poly({exps: 1})
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = apply_field(i, apply_field(j, m)) - apply_field(j, apply_field(i, m))
            if lhs != apply_field(k, m):
                return False
    return True


@dataclass(frozen=True)
class WeightLadder:
    """The chain p_0..p_{2n} from (x1 + i x2)^n under the lowering operator."""

    n: int
    vectors: tuple[Poly, ...]


@lru_cache(maxsize=None)
def weight_ladder(n: int) -> WeightLadder:
    if n < 1:
        raise ValueError("n must be >= 1")
    top = Poly({(1, 0, 0): 1, (0, 1, 0): CRational(0, 1)}) ** n
    lower = e_minus()
    vectors = [top]
    for _ in range(2 * n):
        vectors.append(lower.apply(vectors[-1]))
    return WeightLadder(n, tuple(vectors))


def check_ladder(ladder: WeightLadder) -> bool:
    """Exact weight, raising, and conjugation identities along the ladder."""
    n = ladder.n
    vecs = ladder.vectors
    if len(vecs) != 2 * n + 1:
        return False
    h = cartan_h()
    up = e_plus()
    down = e_minus()
    for k, p in enumerate(vecs):
        if not (p.is_harmonic and p.homogeneous_degree == n):
            return False
        if h.apply(p) != p.scale(2 * n - 2 * k):
            return False
    if up.apply(vecs[0]):
        return False
    for k in range(1, 2 * n + 1):
        if up.apply(vecs[k]) != vecs[k - 1].scale(k * (2 * n - k + 1)):
            return False
    if down.apply(vecs[2 * n]):
        return False
    for k in range(0, n + 1):
        factor = Fraction(factorial(2 * n - k), factorial(k))
        sign = -1 if (n - k) % 2 else 1
        if vecs[2 * n - k] != vecs[k].conjugate().scale(sign * factor):
            return False
    return True


@dataclass(frozen=True)
class CasimirCertificate:
    n: int
    eigenvalue: Fraction
    checked_elements: tuple[str, ...]


class CasimirEigenError(AssertionError):
    """An eigen-identity failed; names the first violated (operator, k)."""


def verify_casimir_eigen(n: int) -> CasimirCertificate:
    """Check that casimir, xi, and zeta all act as -n(n+1) on H_n, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = Fraction(-n * (n + 1))
    ladder = weight_ladder(n)
    ops = (("eta_star", casimir()), ("xi", xi()), ("zeta", zeta()))
    for name, op in ops:
        for k, p in enumerate(ladder.vectors):
            if op.apply(p) != p.scale(lam):
                raise CasimirEigenError(
                    f"{name} is not {lam} * identity on H_{n}: fails at k={k}"
                )
    return CasimirCertificate(n, lam, tuple(name for name, _ in ops))


def poly_to_vec(p: Poly, basis_monomials: Sequence[Exponents]) -> list[CRational]:
    vec = [p.coefficient(e) for e in basis_monomials]
    if sum(1 for c in vec if c) != len(p):
        raise ValueError("polynomial has monomials outside the given basis")
    return vec


def coordinates(
    basis_polys: Sequence[Poly], targets: Sequence[Poly]
) -> list[list[CRational]]:
    """Exact coordinates of each target in the span of ``basis_polys``.

    Row t holds c with ``targets[t] == sum_j c[j] * basis_polys[j]``; all
    targets share one elimination.  Raises ValueError for a target outside
    the span.
    """
    monos = sorted({e for p in (*basis_polys, *targets) for e in p.terms})
    columns = [poly_to_vec(p, monos) for p in basis_polys]
    rhs = [poly_to_vec(q, monos) for q in targets]
    solutions = solve_exact(list(zip(*columns)), rhs, CRational())
    for q, sol in zip(targets, solutions):
        if sol is None:
            raise ValueError(f"{q.text()} lies outside the span of the basis")
    return solutions


def harmonic_decompose(p: Poly) -> list[tuple[int, Poly]]:
    """Split homogeneous p as sum of ||x||^(2k) h_k with each h_k harmonic.

    The coordinates of p in the basis of ladder vectors of each harmonic
    layer, times powers of ||x||^2, give the parts.
    """
    if p.is_zero:
        return []
    n = p.homogeneous_degree
    if n is None:
        raise ValueError("polynomial is not homogeneous")
    owners: list[tuple[int, Poly]] = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        layer = [Poly.constant(1)] if m == 0 else list(weight_ladder(m).vectors)
        owners.extend((k, q) for q in layer)
    (sol,) = coordinates([q.mul_norm_sq_power(k) for k, q in owners], [p])
    parts: dict[int, Poly] = {}
    for coeff, (k, q) in zip(sol, owners):
        if coeff:
            parts[k] = parts.get(k, Poly.zero()) + q.scale(coeff)
    return sorted(parts.items())


class WordBasisSearchError(RuntimeError):
    """The word images of phi stopped growing before spanning H_n."""


def word_basis_search(phi: Poly) -> list[Word]:
    """Breadth-first words whose images of phi form a basis of H_n.

    Words are scanned by (length, lexicographic order with 0 < 1 < 2) and kept
    greedily when the image extends the exact span.  Level L only tests
    ``(i,) + w`` for words w kept at level L-1: a rejected w has its image in
    the span of earlier kept images, so f_i of it lies in the span of images
    of earlier words ``(i,) + u``.  This keeps the same words as scanning all
    3^L words.  A level that keeps no word means the span has stalled, and
    the search raises; irreducibility of H_n rules that out for valid phi.
    """
    if phi.is_zero:
        raise ValueError("phi must be nonzero")
    n = phi.homogeneous_degree
    if n is None or n < 1:
        raise ValueError("phi must be homogeneous of positive degree")
    if not phi.is_harmonic:
        raise ValueError("phi must be harmonic")
    target = 2 * n + 1
    monos = monomial_basis(n)
    span = RowSpan()
    found: list[Word] = []
    level: list[tuple[Word, Poly]] = [((), phi)]
    while level:
        kept = []
        for word, img in level:
            if not img.is_zero and span.add(poly_to_vec(img, monos)):
                found.append(word)
                if len(found) == target:
                    return found
                kept.append((word, img))
        level = [((i,) + w, apply_field(i, img)) for i in FIELD_IDS for w, img in kept]
    raise WordBasisSearchError(
        f"word images of phi span only {len(found)} of the {target} dimensions of H_{n}"
    )
