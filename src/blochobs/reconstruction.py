"""Moment-based recovery of the unknown density and initial profile.

Pipeline: search words whose images of the observable form a harmonic basis,
extract the moments

    M_i(a, b) = integral of m_xi^a m_zeta^b psi_i over the box,
    psi_i(sigma) = sigma^kappa_i p_i(x_sigma(0)) rho(sigma),

fit each psi_i in the polynomial algebra generated by m_xi = sigma1 sigma2^2
and m_zeta = sigma2^4, then pointwise: the constant quadratic form gives
rho^2, division gives the basis values p_i(x_sigma(0)), and the closed-form
point inversion returns x_sigma(0) up to the parity ambiguity, resolved
globally by a neighbor sweep for even degrees.

Three modes isolate the error sources: oracle-psi (algebra only),
oracle-moments (adds the Gram-system fit), measured-moments (adds finite
differencing of the output signal; feasible word length is float-limited).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .ensemble import (
    _BLOCK,
    Density,
    ParameterBox,
    ParameterGrid,
    Profile,
    RotationPlan,
    compile_phi,
    read_axes,
    rotate_planned,
    rotate_states,
    segment_axis,
)
from .exactlinalg import certified_gram_schmidt
from .identities import HarmonicBasis, QuadraticIdentity, constant_quadratic_form
from .polynomials import CRational, Poly
from .representation import (
    KappaSignature,
    Word,
    apply_word,
    coordinates,
    kappa_of_word,
    word_basis_search,
    xi,
    zeta,
)


class StageError(RuntimeError):
    """Failure wrapped with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class WordTooLongError(ValueError):
    pass


class InconsistentValuesError(ValueError):
    """The supplied basis values match no point on the sphere."""


def _kappa_node_values(sig: KappaSignature, grid: ParameterGrid) -> np.ndarray:
    return grid.nodes[:, 0] ** sig.k1 * grid.nodes[:, 1] ** sig.k2


@dataclass(frozen=True)
class MomentTable:
    entries: dict[tuple[int, int, int], float]  # (basis index, a, b) -> value
    D: int
    provenance: str  # "oracle" | "measured"


@dataclass(frozen=True)
class PsiSamples:
    values: np.ndarray  # (num basis elements, num nodes)
    provenance: str


@dataclass(frozen=True)
class ReconstructionConfig:
    mode: str = "oracle-psi"  # oracle-psi | oracle-moments | measured-moments
    D: int = 6
    rho_floor: float = 1e-6  # relative to max recovered density
    fd_step: float = 1e-2
    fd_word_cap: int = 4

    def __post_init__(self):
        if self.mode not in ("oracle-psi", "oracle-moments", "measured-moments"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.D < 0 or self.rho_floor <= 0 or self.fd_step <= 0:
            raise ValueError("invalid reconstruction configuration")
        if not all(map(math.isfinite, (self.rho_floor, self.fd_step))):
            raise ValueError("rho_floor and fd_step must be finite")
        if self.fd_word_cap < 0:
            raise ValueError("fd_word_cap must be nonnegative")


@dataclass(frozen=True)
class ReconstructionResult:
    density_est: Density
    profile_est: Profile
    ambiguity: str  # "unique" | "antipodal-pair"
    undefined_nodes: tuple[int, ...]
    diagnostics: dict


# --- moment extraction ------------------------------------------------------


def _psi_node_values(
    profile: Profile,
    density: Density,
    grid: ParameterGrid,
    basis_polys: Sequence[Poly],
    kappas: Sequence[KappaSignature],
) -> np.ndarray:
    rows = []
    for p, sig in zip(basis_polys, kappas):
        vals = compile_phi(p)(profile.states)
        rows.append(_kappa_node_values(sig, grid) * vals * density.values)
    return np.array(rows)


def oracle_psi_samples(
    truth: tuple[Profile, Density],
    grid: ParameterGrid,
    basis_polys: Sequence[Poly],
    kappas: Sequence[KappaSignature],
) -> PsiSamples:
    profile, density = truth
    return PsiSamples(_psi_node_values(profile, density, grid, basis_polys, kappas), "oracle")


def oracle_moments(
    truth: tuple[Profile, Density],
    grid: ParameterGrid,
    phi: Poly,
    words: Sequence[Word],
    D: int,
) -> MomentTable:
    """Quadrature of m_xi^a m_zeta^b psi_i straight from the hidden truth."""
    profile, density = truth
    basis_polys = [apply_word(w, phi) for w in words]
    kappas = [kappa_of_word(w) for w in words]
    psi = _psi_node_values(profile, density, grid, basis_polys, kappas)
    m_xi = grid.nodes[:, 0] * grid.nodes[:, 1] ** 2
    m_zeta = grid.nodes[:, 1] ** 4
    entries: dict[tuple[int, int, int], float] = {}
    for i in range(len(words)):
        for a in range(D + 1):
            for b in range(D + 1 - a):
                feat = m_xi**a * m_zeta**b
                entries[(i, a, b)] = float(np.dot(grid.weights, feat * psi[i]))
    return MomentTable(entries, D, "oracle")


@dataclass(frozen=True)
class OutputSimulator:
    """Read-only view of the hidden ensemble that only exposes y."""

    profile: Profile
    grid: ParameterGrid
    density: Density

    # Node states per block of output_tree (the ensemble's block size): the
    # rows its segment plans are tiled to, and what one tree level holds of
    # each segment at a time.
    _BLOCK = _BLOCK

    def output_fn(self, phi: Poly) -> Callable[[Sequence[float], Sequence], float]:
        phi_eval = compile_phi(phi)
        base = self.grid.weights * self.density.values
        nodes = self.grid.nodes
        start = self.profile.states

        def y(taus: Sequence[float], us: Sequence[Sequence[float]]) -> float:
            states = start
            for tau, u in zip(taus, us):
                states = rotate_states(states, nodes, u, tau)
            return float(np.dot(base, phi_eval(states)))

        return y

    def output_tree(
        self, phi: Poly, segments: Sequence[tuple[float, Sequence[float]]], depth: int
    ) -> list[np.ndarray]:
        """y after every sequence of at most depth segments, each segment a
        (tau, u) pair drawn from segments.  Entry k has shape
        (len(segments),) * k and is indexed by the sequence of choices.

        The states after a prefix are shared by every sequence that extends
        it, so the prefix tree is walked depth-first: each block of nodes gets
        its children from one planned rotation per segment, and the children
        of at most one block per level are alive.  The plans hold everything
        that does not depend on the states, once per segment for the whole
        tree, so a tree edge costs only the cross and dot products and the
        combination.  The last level computes only the coordinates phi reads.
        phi is evaluated once per block of children; each y is then the same
        quadrature as output_fn's.
        """
        phi_eval = compile_phi(phi)
        reads = read_axes(phi)
        base = self.grid.weights * self.density.values
        N = self.grid.size
        B = len(segments)
        per_block = max(1, self._BLOCK // N)
        sigmas = np.tile(self.grid.nodes, (per_block, 1))
        plans = [RotationPlan(segment_axis(sigmas, u), tau) for tau, u in segments]
        choices = np.arange(B)[:, None]
        ys = [np.empty(B**k) for k in range(depth + 1)]
        ys[0][0] = float(np.dot(base, phi_eval(self.profile.states)))

        def descend(parents: np.ndarray, level: int, prefixes: np.ndarray) -> None:
            # parents: (m * N, 3) states after the length-`level` prefixes
            # numbered prefixes[0 .. m-1] in base-B order.  Children are laid
            # out segment by segment, so each segment writes one contiguous
            # (m * N, 3) block.
            m = len(prefixes)
            axes = reads if level + 1 == depth else range(3)
            children = np.empty((B, m * N, 3))
            for plan, block in zip(plans, children):
                rotate_planned(parents, plan, axes, block.T)
            children = children.reshape(B * m * N, 3)
            numbers = (prefixes * B + choices).ravel()
            vals = phi_eval(children).reshape(B * m, N)
            ys[level + 1][numbers] = [np.dot(base, v) for v in vals]
            del vals  # not needed by the levels below
            if level + 1 < depth:
                for lo in range(0, B * m, per_block):
                    block = children[lo * N : (lo + per_block) * N]
                    descend(block, level + 1, numbers[lo : lo + per_block])

        if depth:
            descend(self.profile.states, 0, np.zeros(1, dtype=np.int64))
        return [y.reshape((B,) * k) for k, y in enumerate(ys)]


_UNMIX = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
_CHOICES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def _mixed_central_differences(
    sim: OutputSimulator, phi: Poly, max_length: int, h: float
) -> list[np.ndarray]:
    """Mixed central differences of y in the segment durations, for every
    per-segment control choice; entry k has shape (3,) * k (entry 0 is y).

    Each entry sums its sign patterns one after another in lexicographic
    order, with -h before +h.
    """
    segments = [(s * h, u) for u in _CHOICES for s in (-1.0, 1.0)]
    ys = sim.output_tree(phi, segments, max_length)
    out = []
    for k, y in enumerate(ys):
        # axes (choice 1, sign 1, ..., choice k, sign k) -> choices, then signs
        y = y.reshape((3, 2) * k).transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
        total = np.zeros((3,) * k)
        for signs in product((0, 1), repeat=k):
            total += (-1.0) ** (k - sum(signs)) * y[(Ellipsis,) + signs]
        out.append(total / (2.0 * h) ** k)
    return out


def measured_word_moments(
    sim: OutputSimulator, phi: Poly, max_length: int, fd_step: float
) -> list[np.ndarray]:
    """Moments of all words of each length 0..max_length, from output data
    alone; entry k has shape (3,) * k and is indexed by the word.

    Mixed central differences in the segment durations estimate the mixed
    control-coefficient derivative for each per-segment control choice; the
    per-segment Vandermonde unmix then isolates sigma^kappa(alpha) f_alpha phi
    for every word alpha.  Richardson extrapolation in the step kills the h^2
    error term.  One prefix tree per step size yields every length.
    """
    d_h = _mixed_central_differences(sim, phi, max_length, fd_step)
    d_h2 = _mixed_central_differences(sim, phi, max_length, fd_step / 2.0)
    moments = [d_h[0]]
    for coarse, fine in zip(d_h[1:], d_h2[1:]):
        mixed = (4.0 * fine - coarse) / 3.0
        for axis in range(mixed.ndim):
            mixed = np.moveaxis(np.tensordot(_UNMIX, mixed, axes=(1, axis)), 0, axis)
        moments.append(mixed)
    return moments


def measured_moments(
    sim: OutputSimulator,
    phi: Poly,
    word: Word,
    fd_step: float,
    fd_word_cap: int = 4,
) -> float:
    """Finite-difference estimate of the single word moment."""
    word = tuple(word)
    if len(word) > fd_word_cap:
        raise WordTooLongError(
            f"word {word} has length {len(word)} > cap {fd_word_cap}"
        )
    return float(measured_word_moments(sim, phi, len(word), fd_step)[len(word)][word])


def measured_moment_table(
    sim: OutputSimulator,
    phi: Poly,
    words: Sequence[Word],
    D: int,
    fd_step: float,
    fd_word_cap: int = 4,
) -> MomentTable:
    """Moment table measured through the eigen-operators xi^a zeta^b.

    The entry (i, a, b) needs output derivatives of order 3a + 4b + |word_i|;
    anything past the cap raises, which with the defaults limits measured mode
    to low orders (pure measured density recovery is not claimed).
    """
    n = phi.homogeneous_degree
    lam = float(-n * (n + 1))
    max_length = 0
    requests: dict[tuple[int, int, int], list[tuple[float, Word]]] = {}
    for i, base_word in enumerate(words):
        for a in range(D + 1):
            for b in range(D + 1 - a):
                expr = xi().power(a).compose(zeta().power(b))
                combos = []
                for w, c in expr.terms.items():
                    full = w + tuple(base_word)
                    if len(full) > fd_word_cap:
                        raise WordTooLongError(
                            f"moment ({i},{a},{b}) needs word length {len(full)} "
                            f"> cap {fd_word_cap}"
                        )
                    combos.append((float(c.re), full))
                    max_length = max(max_length, len(full))
                requests[(i, a, b)] = combos
    moments = measured_word_moments(sim, phi, max_length, fd_step)
    entries = {}
    for key, combos in requests.items():
        _, a, b = key
        total = 0.0
        for coeff, w in combos:
            total += coeff * float(moments[len(w)][w])
        entries[key] = total / lam ** (a + b)
    return MomentTable(entries, D, "measured")


# --- density fit in the (m_xi, m_zeta) algebra ------------------------------


def _interval_moments(lo: float, hi: float, count: int) -> list[Fraction]:
    """Exact integrals of s^e over [lo, hi] for e = 0 .. count-1."""
    a, b = Fraction(lo), Fraction(hi)
    pa, pb = a, b
    moments = []
    for e in range(count):
        moments.append((pb - pa) / (e + 1))
        pa *= a
        pb *= b
    return moments


def _feature_gram(box: ParameterBox, exps: Sequence[tuple[int, int]]) -> list[list[Fraction]]:
    """Exact Gram matrix of the monomials sigma1^e1 sigma2^e2 on the box.

    The box integral is separable, so entry (i, j) is the product of two 1-D
    moments, I1[e1_i + e1_j] * I2[e2_i + e2_j].
    """
    I1 = _interval_moments(box.a1, box.b1, 2 * max(e1 for e1, _ in exps) + 1)
    I2 = _interval_moments(box.a2, box.b2, 2 * max(e2 for _, e2 in exps) + 1)
    return [[I1[p + q] * I2[r + s] for q, s in exps] for p, r in exps]


class FeatureBasis:
    """Features m_xi^a m_zeta^b (a+b <= D) orthogonalized on the box.

    The Gram matrix of the raw features is Hilbert-like (condition 1e13 at
    D = 6, 1e23 at D = 10), so the solve happens in an orthogonalized basis:
    R G R^T = diag(d) with R unit lower-triangular.  G is exact (closed-form
    rational monomial integrals), and R and d come from
    ``certified_gram_schmidt``: fixed-point integers whose error radii are
    carried through every operation, so each float in ``_orth`` and each
    pivot is proven to be the correctly rounded exact value, and every pivot
    is proven > 0, which proves G positive definite.  Only the square roots
    of the pivots and the moment data are inexact.
    """

    def __init__(self, box: ParameterBox, D: int):
        self.box = box
        self.D = D
        self.pairs = [(a, s - a) for s in range(D + 1) for a in range(s + 1)]
        exps = [(a, 2 * a + 4 * b) for a, b in self.pairs]
        gram = _feature_gram(box, exps)
        rows, pivots = certified_gram_schmidt(gram)
        self._gram_float = np.array([[float(g) for g in r] for r in gram])
        self._orth = np.array(rows)
        self._sqrt_norms = np.sqrt(np.array(pivots))
        self.min_pivot = min(pivots)
        self._exps = np.array(exps)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def gram_condition(self) -> float:
        return float(np.linalg.cond(self._gram_float))

    def raw_values(self, nodes: np.ndarray) -> np.ndarray:
        s1 = nodes[:, 0][:, None] ** self._exps[:, 0][None, :]
        s2 = nodes[:, 1][:, None] ** self._exps[:, 1][None, :]
        return s1 * s2

    def solve(self, raw_moments: np.ndarray, ridge: float) -> np.ndarray:
        """Coefficients over the raw features from moments against them."""
        normalized = (self._orth @ raw_moments) / self._sqrt_norms
        c = normalized / (1.0 + ridge)
        return self._orth.T @ (c / self._sqrt_norms)

    def fit_residual(self, weights: np.ndarray, raw_moments: np.ndarray) -> float:
        lhs = self._gram_float @ weights
        scale = max(1.0, float(np.linalg.norm(raw_moments)))
        return float(np.linalg.norm(lhs - raw_moments)) / scale


@lru_cache(maxsize=None)
def _feature_basis(box: ParameterBox, D: int) -> FeatureBasis:
    return FeatureBasis(box, D)


def fit_psi(table: MomentTable, grid: ParameterGrid, i: int) -> np.ndarray:
    """The fitted expansion of psi_i, to degree ``table.D``, on the grid nodes."""
    fb = _feature_basis(grid.box, table.D)
    try:
        raw = np.array([table.entries[(i, a, b)] for a, b in fb.pairs])
    except KeyError as exc:
        raise ValueError(f"moment table does not cover index {i} up to D={table.D}") from exc
    return fb.raw_values(grid.nodes) @ fb.solve(raw, 0.0)


# --- pointwise recovery -----------------------------------------------------


def recover_density(
    psi: PsiSamples,
    identity: QuadraticIdentity,
    kappas: Sequence[KappaSignature],
    grid: ParameterGrid,
    rho_floor: float,
) -> tuple[Density, list[int]]:
    """rho(sigma)^2 from the constant quadratic form over the psi samples.

    The identity must be expressed in the same basis the psi samples belong
    to (the word-image basis); rebase it first otherwise.
    """
    m = len(kappas)
    if psi.values.shape[0] != m or len(identity.basis.polys) != m:
        raise ValueError("psi samples, kappas, and identity basis disagree in size")
    kexp = np.array([_kappa_node_values(sig, grid) for sig in kappas])
    v = psi.values / kexp
    C = np.array([[float(c) for c in row] for row in identity.coeffs])
    rho_sq = np.einsum("ij,in,jn->n", C, v, v)
    rho = np.sqrt(np.clip(rho_sq, 0.0, None))
    peak = float(rho.max()) if rho.size else 0.0
    if peak == 0.0:
        return Density(rho), list(range(grid.size))
    return Density(rho), np.flatnonzero(rho < rho_floor * peak).tolist()


def recover_harmonic_values(
    psi: PsiSamples,
    density: Density,
    kappas: Sequence[KappaSignature],
    grid: ParameterGrid,
    undefined: Sequence[int] = (),
) -> np.ndarray:
    """Invert psi_i = sigma^kappa_i p_i(x) rho to the basis values p_i(x)."""
    kexp = np.array([_kappa_node_values(sig, grid) for sig in kappas])
    values = np.full_like(psi.values, np.nan)
    defined = np.ones(grid.size, dtype=bool)
    defined[list(undefined)] = False
    values[:, defined] = psi.values[:, defined] / (
        kexp[:, defined] * density.values[defined]
    )
    return values


class PointInverter:
    """Closed-form recovery of a sphere point from its basis values.

    Change basis exactly to the triple (x1+ix2)^n, x3 (x1+ix2)^(n-1),
    (x3+ix1)^n; read the horizontal part off the n-th roots of the first
    value and the vertical part off the second.  Candidates are ranked by
    forward residual over the full value vector, which subsumes matching any
    single basis element and also covers the axis, where the first two values
    vanish.
    """

    # Columns per block: keeps the candidate and forward-evaluation
    # temporaries small next to the arrays the pipeline already holds.
    _BLOCK = 512

    def __init__(self, basis: HarmonicBasis):
        self.basis = basis
        self.n = basis.n
        n = basis.n
        x1 = Poly.variable(1)
        x2 = Poly.variable(2)
        x3 = Poly.variable(3)
        w = x1 + x2.scale(CRational(0, 1))
        triple = (
            w**n,
            x3 * w ** (n - 1),
            (x3 + x1.scale(CRational(0, 1))) ** n,
        )
        self._transform = np.array(
            [[c.to_complex() for c in sol] for sol in coordinates(basis.polys, triple)]
        )
        self._evaluators = [compile_phi(p) for p in basis.polys]

    def _residual(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        res = np.zeros(points.shape[0])
        for ev, row in zip(self._evaluators, values):
            np.maximum(res, np.abs(ev(points) - row), out=res)
        return res

    def _candidates(self, values: np.ndarray):
        """Candidate slots in ranking order, each (points (N, 3), usable mask):
        both poles, always usable, then one slot per n-th root.  Near the axis
        the first two transformed values degenerate and the root construction
        loses the vertical component; the pole snap stays within the distance
        to the axis."""
        n = self.n
        c1, c2 = self._transform[:2].real @ values + 1j * (self._transform[:2].imag @ values)
        for x3 in (1.0, -1.0):
            yield np.tile([0.0, 0.0, x3], (values.shape[1], 1)), True
        has_root = np.abs(c1) > 1e-15
        radius = np.abs(c1) ** (1.0 / n)
        base_angle = np.arctan2(c1.imag, c1.real) / n
        for mth in range(n):
            ang = base_angle + 2.0 * math.pi * mth / n
            w = radius * np.cos(ang) + 1j * (radius * np.sin(ang))
            # Where c1 vanishes the division is undefined; has_root masks it.
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.stack([w.real, w.imag, (c2 * w / c1).real], axis=1)
                norm = np.sqrt(np.sum(cand * cand, axis=1))
                points = cand / norm[:, None]
            yield points, has_root & (0.5 < norm) & (norm < 2.0)

    def _rank(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best candidate and its residual per column, slot by slot against a
        running best with a strict '<', so a tie keeps the earlier slot."""
        slots = self._candidates(values)
        best, _ = next(slots)
        best_res = self._residual(best, values)
        for points, usable in slots:
            res = self._residual(points, values)
            better = usable & (res < best_res)
            best[better] = points[better]
            best_res[better] = res[better]
        return best, best_res

    def invert_with_residual(
        self, values: np.ndarray, consistency_tol: float = 1e-5
    ) -> tuple[np.ndarray, str, np.ndarray]:
        """Points (N, 3), ambiguity flag and forward residuals (N,) from a
        (2n+1, N) array of basis values, one column per point.

        Raises InconsistentValuesError naming the first column whose best
        candidate misses its values by more than consistency_tol (relative
        to the largest value when that exceeds 1).
        """
        values = np.asarray(values, dtype=float)
        best = np.empty((values.shape[1], 3))
        best_res = np.empty(values.shape[1])
        for lo in range(0, values.shape[1], self._BLOCK):
            cols = slice(lo, lo + self._BLOCK)
            best[cols], best_res[cols] = self._rank(values[:, cols])
        scale = np.maximum(1.0, np.max(np.abs(values), axis=0))
        missed = np.flatnonzero(best_res > consistency_tol * scale)
        if missed.size:
            j = int(missed[0])
            raise InconsistentValuesError(
                f"column {j}: best candidate residual {best_res[j]:.3e} exceeds tolerance"
            )
        if self.n % 2 == 0:
            return _canonical_representative(best), "antipodal-pair", best_res
        return best, "unique", best_res

    def invert(self, values, consistency_tol: float = 1e-5):
        """One point and the ambiguity flag from one value vector."""
        x, flag, _ = self.invert_with_residual(
            np.asarray(values, dtype=float)[:, None], consistency_tol
        )
        return x[0], flag


def _canonical_representative(x: np.ndarray) -> np.ndarray:
    """Per row, the one of x and -x whose first nonzero of (x3, x1, x2) is positive."""
    x1, x2, x3 = x.T
    flip = (x3 < 0) | ((x3 == 0) & ((x1 < 0) | ((x1 == 0) & (x2 < 0))))
    return np.where(flip[:, None], -x, x)


def _grid_neighbors(grid: ParameterGrid, j: int) -> list[int]:
    n1, n2 = grid.shape
    i1, i2 = divmod(j, n2)
    out = []
    if i1 > 0:
        out.append(j - n2)
    if i1 < n1 - 1:
        out.append(j + n2)
    if i2 > 0:
        out.append(j - 1)
    if i2 < n2 - 1:
        out.append(j + 1)
    return out


def stitch_signs(
    states: np.ndarray, defined: np.ndarray, grid: ParameterGrid
) -> tuple[np.ndarray, int]:
    """Align per-node antipodal representatives across grid neighbors.

    Breadth-first from the first defined node of each connected component,
    flipping each newly visited node toward its discovered neighbor.  Returns
    the aligned states and the number of components stitched independently.
    """
    states = states.copy()
    visited = np.zeros(grid.size, dtype=bool)
    components = 0
    for seed in range(grid.size):
        if not defined[seed] or visited[seed]:
            continue
        components += 1
        queue = [seed]
        visited[seed] = True
        while queue:
            u = queue.pop(0)
            for v in _grid_neighbors(grid, u):
                if not defined[v] or visited[v]:
                    continue
                if float(np.dot(states[u], states[v])) < 0.0:
                    states[v] = -states[v]
                visited[v] = True
                queue.append(v)
    return states, components


# --- end-to-end pipeline ----------------------------------------------------


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def reconstruct(
    phi: Poly,
    grid: ParameterGrid,
    truth_profile: Profile,
    truth_density: Density,
    config: ReconstructionConfig,
) -> ReconstructionResult:
    """Run the full inverse pipeline against the hidden truth pair.

    The truth is consulted only through the channel the mode allows: exact
    psi samples, quadrature moments, or the simulated output signal.
    """
    n = phi.homogeneous_degree
    if phi.is_zero or n is None or n < 1 or not phi.is_harmonic or not phi.is_real:
        raise ValueError("observable must be real, nonzero, harmonic, of degree >= 1")
    diagnostics: dict = {"mode": config.mode}

    words = _stage("word-basis-search", word_basis_search, phi)
    basis_polys = [apply_word(w, phi) for w in words]
    kappas = [kappa_of_word(w) for w in words]
    diagnostics["words"] = ["".join(str(i) for i in w) for w in words]

    identity = _stage(
        "quadratic-identity",
        lambda: constant_quadratic_form(
            HarmonicBasis(n, tuple(basis_polys), provenance="ladder-derived")
        ),
    )

    truth = (truth_profile, truth_density)
    if config.mode == "oracle-psi":
        psi = _stage("psi-samples", oracle_psi_samples, truth, grid, basis_polys, kappas)
    else:
        if config.mode == "oracle-moments":
            table = _stage("moments", oracle_moments, truth, grid, phi, words, config.D)
        else:
            sim = OutputSimulator(truth_profile, grid, truth_density)
            table = _stage(
                "moments",
                measured_moment_table,
                sim,
                phi,
                words,
                config.D,
                config.fd_step,
                config.fd_word_cap,
            )
        fb = _feature_basis(grid.box, config.D)
        diagnostics["gram_condition"] = fb.gram_condition()
        diagnostics["gram_min_pivot"] = fb.min_pivot
        rows = [fit_psi(table, grid, i) for i in range(len(words))]
        psi = PsiSamples(np.array(rows), table.provenance)

    density, undefined = _stage(
        "density", recover_density, psi, identity, kappas, grid, config.rho_floor
    )
    diagnostics["undefined_count"] = len(undefined)

    values = _stage(
        "harmonic-values", recover_harmonic_values, psi, density, kappas, grid, undefined
    )

    defined = np.ones(grid.size, dtype=bool)
    defined[list(undefined)] = False
    states = np.full((grid.size, 3), np.nan)
    diagnostics["inversion_max_residual"] = 0.0
    if defined.any():
        inverter = PointInverter(identity.basis).invert_with_residual
        points, _, residuals = _stage("point-inversion", inverter, values[:, defined])
        states[defined] = points
        diagnostics["inversion_max_residual"] = float(residuals.max())

    if n % 2 == 0:
        stitched, components = _stage("stitch", stitch_signs, states, defined, grid)
        states = stitched
        diagnostics["stitch_components"] = components
        ambiguity = "antipodal-pair"
    else:
        ambiguity = "unique"

    return ReconstructionResult(
        density_est=density,
        profile_est=Profile(states),
        ambiguity=ambiguity,
        undefined_nodes=tuple(undefined),
        diagnostics=diagnostics,
    )
