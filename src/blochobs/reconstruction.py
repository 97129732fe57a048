"""Moment-based recovery of the unknown density and initial profile.

Pipeline: search words whose images of the observable form a harmonic basis,
extract the moments

    M_i(a, b) = integral of m_xi^a m_zeta^b psi_i over the box,
    psi_i(sigma) = sigma^kappa_i p_i(x_sigma(0)) rho(sigma),

fit each psi_i in the polynomial algebra generated by m_xi = sigma1 sigma2^2
and m_zeta = sigma2^4, then pointwise: map psi / sigma^kappa once into the
degree's normalized basis, whose diagonal quadratic form gives rho^2 as a sum
of nonnegative terms, divide by rho, and invert to x_sigma(0) up to the
parity ambiguity, resolved globally by a neighbor sweep for even degrees.

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
    Density,
    ParameterBox,
    ParameterGrid,
    Profile,
    RotationPlan,
    compile_phi,
    compile_polys,
    read_axes,
    rotate_planned,
    rotate_states,
    row_dots,
    segment_axis,
)
from .exactlinalg import certified_gram_schmidt
from .identities import HarmonicBasis, QuadraticIdentity, normalized_identity
from .polynomials import Poly
from .representation import (
    KappaSignature,
    Word,
    apply_word,
    coordinates,
    kappa_of_word,
    weight_ladder,
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


# Largest forward residual PointInverter accepts, relative to the largest
# basis value when that exceeds 1.
CONSISTENCY_TOL = 1e-5


def kappa_weights(kappas: Sequence[KappaSignature], nodes: np.ndarray) -> np.ndarray:
    """sigma1^k1 sigma2^k2, one row per signature and one column per node."""
    weights = np.empty((len(kappas), len(nodes)))
    for row, sig in zip(weights, kappas):
        np.multiply(nodes[:, 0] ** sig.k1, nodes[:, 1] ** sig.k2, out=row)
    return weights


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


def oracle_psi_samples(
    truth: tuple[Profile, Density], basis_polys: Sequence[Poly], kexp: np.ndarray
) -> np.ndarray:
    """psi_i on the grid nodes, one row per basis element, from the hidden
    truth and the kappa weights (``kappa_weights``) of the basis words."""
    profile, density = truth
    psi = compile_polys(basis_polys)(profile.states)
    psi *= kexp
    psi *= density.values
    return psi


def feature_pairs(D: int) -> list[tuple[int, int]]:
    """Exponents (a, b) of the features m_xi^a m_zeta^b with a + b <= D, by
    total degree, then a: the column order of every moment array."""
    return [(a, s - a) for s in range(D + 1) for a in range(s + 1)]


def _axis_powers(grid: ParameterGrid, D: int):
    """Rows sigma1^a (a <= D) over the n1 sigma1 values and sigma2^e (e = 0, 2,
    .., 4D) over the n2 sigma2 values of make_grid's node i*n2 + j, and the
    rows (a, a + 2b) of each feature m_xi^a m_zeta^b = sigma1^a sigma2^(2a+4b)."""
    n2 = grid.shape[1]
    a, b = np.array(feature_pairs(D)).T
    p1 = grid.nodes[::n2, 0] ** np.arange(D + 1)[:, None]
    p2 = grid.nodes[:n2, 1] ** np.arange(0, 4 * D + 1, 2)[:, None]
    return p1, p2, (a, a + 2 * b)


def _bilinear(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[m, r, s] = sum_i u[r, i] sum_j v[s, j] x[m, i, j], both sums by row_dots."""
    inner = row_dots(x[:, :, None, :], v)
    return row_dots(inner.transpose(0, 2, 1)[:, None], u[:, None, :])


def oracle_moments(psi: np.ndarray, grid: ParameterGrid, D: int) -> np.ndarray:
    """Quadrature of m_xi^a m_zeta^b psi_i over the grid, from the psi samples
    of ``oracle_psi_samples``: row i per basis element, one column per
    feature in ``feature_pairs(D)`` order, in O(N (3D + 2)): see _bilinear."""
    p1, p2, (a, e) = _axis_powers(grid, D)
    weighted = (psi * grid.weights).reshape(len(psi), *grid.shape)
    return _bilinear(weighted, p1, p2)[:, a, e]


@dataclass(frozen=True)
class OutputSimulator:
    """Read-only view of the hidden ensemble that only exposes y."""

    profile: Profile
    grid: ParameterGrid
    density: Density

    # Node states per block of output_tree: the rows its segment plans are
    # tiled to, and what one tree level holds of each segment at a time.
    _BLOCK = 1024

    def output_fn(self, phi: Poly) -> Callable[[Sequence[float], Sequence], float]:
        phi_eval = compile_phi(phi)
        base = self.grid.weights * self.density.values
        nodes = self.grid.nodes
        start = self.profile.states

        def y(taus: Sequence[float], us: Sequence[Sequence[float]]) -> float:
            states = start
            for tau, u in zip(taus, us):
                states = rotate_states(states, nodes, u, tau)
            return float(row_dots(phi_eval(states), base))

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
        ys[0][0] = row_dots(phi_eval(self.profile.states), base)

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
            ys[level + 1][numbers] = row_dots(vals, base)
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


def measured_moment_table(
    sim: OutputSimulator,
    phi: Poly,
    words: Sequence[Word],
    D: int,
    fd_step: float,
    fd_word_cap: int,
) -> np.ndarray:
    """Moments measured through the eigen-operators xi^a zeta^b, laid out as
    ``oracle_moments`` lays them out.

    The moment (i, a, b) needs output derivatives of order 3a + 4b + |word_i|:
    every word of xi^a zeta^b has length 3a + 4b, and none of these products
    is zero.  Anything past the cap raises before any operator is expanded,
    which with the defaults limits measured mode to low orders (pure
    measured density recovery is not claimed).
    """
    n = phi.homogeneous_degree
    lam = float(-n * (n + 1))
    pairs = feature_pairs(D)
    max_length = 0
    for i, base_word in enumerate(words):
        for a, b in pairs:
            length = 3 * a + 4 * b + len(base_word)
            if length > fd_word_cap:
                raise WordTooLongError(
                    f"moment ({i},{a},{b}) needs word length {length} > cap {fd_word_cap}"
                )
            max_length = max(max_length, length)
    moments = measured_word_moments(sim, phi, max_length, fd_step)
    table = np.empty((len(words), len(pairs)))
    for k, (a, b) in enumerate(pairs):
        terms = xi().power(a).compose(zeta().power(b)).terms.items()
        for i, base in enumerate(map(tuple, words)):
            total = 0.0
            for w, c in terms:
                total += float(c.re) * float(moments[len(w) + len(base)][w + base])
            table[i, k] = total / lam ** (a + b)
    return table


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
        self.pairs = feature_pairs(D)
        exps = [(a, 2 * a + 4 * b) for a, b in self.pairs]
        gram = _feature_gram(box, exps)
        rows, pivots = certified_gram_schmidt(gram)
        self._orth = np.array(rows)
        self._sqrt_norms = np.sqrt(np.array(pivots))
        self.min_pivot = min(pivots)
        self._exps = np.array(exps)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def raw_values(self, nodes: np.ndarray) -> np.ndarray:
        values = nodes[:, 0][:, None] ** self._exps[:, 0][None, :]
        values *= nodes[:, 1][:, None] ** self._exps[:, 1][None, :]
        return values

    def solve(self, raw_moments: np.ndarray, ridge: float) -> np.ndarray:
        """Coefficients over the raw features from moments against them."""
        normalized = (self._orth @ raw_moments) / self._sqrt_norms
        c = normalized / (1.0 + ridge)
        return self._orth.T @ (c / self._sqrt_norms)

    def fit_residual(self, weights: np.ndarray, raw_moments: np.ndarray) -> float:
        lhs = np.array(_feature_gram(self.box, self._exps.tolist()), dtype=float) @ weights
        scale = max(1.0, float(np.linalg.norm(raw_moments)))
        return float(np.linalg.norm(lhs - raw_moments)) / scale


@lru_cache(maxsize=None)
def _feature_basis(box: ParameterBox, D: int) -> FeatureBasis:
    return FeatureBasis(box, D)


def fit_psi(moments: np.ndarray, grid: ParameterGrid, D: int) -> np.ndarray:
    """The fitted expansion of every psi_i, to degree D, on the grid nodes,
    from row i of the moments: its coefficients, put at their axis powers'
    rows [a, a + 2b], through the two sums of oracle_moments run back."""
    fb = _feature_basis(grid.box, D)
    if np.shape(moments)[1:] != (fb.size,):
        raise ValueError(f"moments need one column per feature up to D={D}, {fb.size} in all")
    p1, p2, (a, e) = _axis_powers(grid, D)
    coeffs = np.zeros((len(moments), D + 1, 2 * D + 1))
    for c, row in zip(coeffs, moments):
        c[a, e] = fb.solve(row, 0.0)
    return _bilinear(coeffs, p1.T, p2.T).reshape(len(moments), grid.size)


# --- pointwise recovery -----------------------------------------------------


def recover_density(
    psi: np.ndarray, kexp: np.ndarray, change: list, identity: QuadraticIdentity, rho_floor: float
) -> tuple[Density, np.ndarray, np.ndarray]:
    """rho(sigma), its defined-node mask, and q = rho times the values of the
    identity's basis (NaN off the mask), from psi over the word images: psi is
    divided by its kappa weights in place and mapped by ``change``, whose row k
    holds the exact coordinates of basis element k over the word images.  The
    form is diagonal and positive (``normalized_identity``), so rho^2 =
    sum_k C_kk q_k^2 has no cancellation.  A node is undefined where rho falls
    below rho_floor * max(rho), and where any kappa weight vanishes: psi
    carries no value to divide there, and rho reads 0."""
    m = len(kexp)
    if psi.shape[0] != m or len(change) != m or len(identity.coeffs) != m:
        raise ValueError("psi samples, kappa weights, and identity basis disagree in size")
    weighted = np.all(kexp != 0.0, axis=0)
    np.divide(psi, kexp, out=psi, where=weighted)
    psi[:, ~weighted] = 0.0
    q = row_dots(psi.T, np.array([[float(c.re) for c in row] for row in change])[:, None, :])
    diagonal = [float(row[k]) for k, row in enumerate(identity.coeffs)]
    rho = np.sqrt(sum(c * row * row for c, row in zip(diagonal, q)))
    peak = rho.max(initial=0.0)
    defined = weighted & (rho >= rho_floor * peak) & (peak > 0.0)
    q[:, ~defined] = np.nan
    return Density(rho), defined, q


class PointInverter:
    """Closed-form recovery of a sphere point from its basis values.

    Change basis exactly to (x1+ix2)^n and x3 (x1+ix2)^(n-1), the first two
    weight-ladder vectors p_0 and p_1 / (-2n); read the horizontal part off
    the n-th roots of the first value and the vertical part off the second.
    Candidates are ranked by forward residual over the full value vector,
    which subsumes matching any single basis element and also covers the
    axis, where the first two values vanish.
    """

    # Columns per block: keeps the candidate and forward-evaluation
    # temporaries small next to the arrays the pipeline already holds.
    _BLOCK = 512

    def __init__(self, basis: HarmonicBasis):
        self.n = basis.n
        top, lowered = coordinates(basis.polys, weight_ladder(basis.n).vectors[:2])
        self._transform = np.array(
            [[c.to_complex() for c in top], [(c / (-2 * basis.n)).to_complex() for c in lowered]]
        )
        self._evaluate = compile_polys(basis.polys)

    def _rank(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best candidate and its residual per column.  The slots, in ranking
        order, are both poles, always usable, then one per n-th root; the
        first usable slot of least residual wins, so a tie keeps the earlier
        slot.  Near the axis the first two transformed values degenerate and
        the root construction loses the vertical component; the pole snap
        stays within the distance to the axis."""
        n = self.n
        c1, c2 = self._transform.real @ values + 1j * (self._transform.imag @ values)
        points = np.zeros((n + 2, values.shape[1], 3))
        points[:2, :, 2] = [[1.0], [-1.0]]
        usable = np.ones((n + 2, values.shape[1]), dtype=bool)
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
                np.divide(cand, norm[:, None], out=points[2 + mth])
            usable[2 + mth] = has_root & (0.5 < norm) & (norm < 2.0)
        # one evaluation per slot: a column keeps its row in the block, and
        # with it the bits BLAS gives that row (see compile_polys)
        res = np.empty(usable.shape)
        for p, r in zip(points, res):
            forward = self._evaluate(p)
            forward -= values
            np.max(np.abs(forward, out=forward), axis=0, out=r)
        res[~usable] = np.inf
        best = np.argmin(res, axis=0)
        cols = np.arange(values.shape[1])
        return points[best, cols], res[best, cols]

    def invert_with_residual(self, values: np.ndarray) -> tuple[np.ndarray, str, np.ndarray]:
        """Points (N, 3), ambiguity flag and forward residuals (N,) from a
        (2n+1, N) array of basis values, one column per point.

        Raises InconsistentValuesError naming the first column whose best
        candidate misses its values by more than CONSISTENCY_TOL (relative
        to the largest value when that exceeds 1).
        """
        values = np.asarray(values, dtype=float)
        best = np.empty((values.shape[1], 3))
        best_res = np.empty(values.shape[1])
        for lo in range(0, values.shape[1], self._BLOCK):
            cols = slice(lo, lo + self._BLOCK)
            best[cols], best_res[cols] = self._rank(values[:, cols])
        scale = np.maximum(1.0, np.max(np.abs(values), axis=0))
        missed = np.flatnonzero(best_res > CONSISTENCY_TOL * scale)
        if missed.size:
            j = int(missed[0])
            raise InconsistentValuesError(
                f"column {j}: best candidate residual {best_res[j]:.3e} exceeds tolerance"
            )
        if self.n % 2 == 0:
            return _canonical_representative(best), "antipodal-pair", best_res
        return best, "unique", best_res


def _canonical_representative(x: np.ndarray) -> np.ndarray:
    """Per row, the one of x and -x whose first nonzero of (x3, x1, x2) is positive."""
    x1, x2, x3 = x.T
    flip = (x3 < 0) | ((x3 == 0) & ((x1 < 0) | ((x1 == 0) & (x2 < 0))))
    return np.where(flip[:, None], -x, x)


def stitch_signs(
    states: np.ndarray, defined: np.ndarray, grid: ParameterGrid
) -> tuple[np.ndarray, int]:
    """Align per-node antipodal representatives across grid neighbors.

    Breadth-first from the first defined node of each connected component,
    visiting neighbors up, down, left, right, and flipping each newly visited
    node toward the node that discovered it.  Returns the aligned states and
    the number of components stitched independently.

    The dot of every grid edge is taken once, on the unflipped states.
    Flipping an endpoint negates that dot exactly (rounding is symmetric), so
    the test against the discoverer's current state reads the stored dot and
    the discoverer's flip; a zero dot of either sign flips nothing.
    """
    n1, n2 = grid.shape
    cells = states.reshape(n1, n2, 3)
    down = np.zeros((n1, n2))  # down[j]: node j with node j + n2
    right = np.zeros((n1, n2))  # right[j]: node j with node j + 1
    down[:-1] = row_dots(cells[:-1], cells[1:])
    right[:, :-1] = row_dots(cells[:, :-1], cells[:, 1:])
    down = down.ravel().tolist()
    right = right.ravel().tolist()
    defined = defined.tolist()
    visited = [False] * grid.size
    flipped = [False] * grid.size
    components = 0
    for seed in range(grid.size):
        if not defined[seed] or visited[seed]:
            continue
        components += 1
        queue = [seed]  # read from head on: a pop(0) would cost O(len)
        visited[seed] = True
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            i1, i2 = divmod(u, n2)
            edges = []
            if i1 > 0:
                edges.append((u - n2, down[u - n2]))
            if i1 < n1 - 1:
                edges.append((u + n2, down[u]))
            if i2 > 0:
                edges.append((u - 1, right[u - 1]))
            if i2 < n2 - 1:
                edges.append((u + 1, right[u]))
            for v, dot in edges:
                if not defined[v] or visited[v]:
                    continue
                flipped[v] = dot > 0.0 if flipped[u] else dot < 0.0
                visited[v] = True
                queue.append(v)
    return np.where(np.array(flipped)[:, None], -states, states), components


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
    diagnostics["words"] = ["".join(str(i) for i in w) for w in words]

    identity = _stage("quadratic-identity", normalized_identity, n)
    change = _stage("quadratic-identity", coordinates, basis_polys, identity.basis.polys)
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    if config.mode == "measured-moments":
        sim = OutputSimulator(truth_profile, grid, truth_density)
        moments = _stage(
            "moments",
            measured_moment_table,
            sim,
            phi,
            words,
            config.D,
            config.fd_step,
            config.fd_word_cap,
        )
    else:
        truth = (truth_profile, truth_density)
        psi = _stage("psi-samples", oracle_psi_samples, truth, basis_polys, kexp)
        if config.mode == "oracle-moments":
            moments = _stage("moments", oracle_moments, psi, grid, config.D)
    if config.mode != "oracle-psi":
        psi = _stage("fit", fit_psi, moments, grid, config.D)
        diagnostics["gram_min_pivot"] = _feature_basis(grid.box, config.D).min_pivot

    density, defined, q = _stage(
        "density", recover_density, psi, kexp, change, identity, config.rho_floor
    )
    del psi  # divided in place and mapped into q
    undefined = np.flatnonzero(~defined).tolist()
    diagnostics["undefined_count"] = len(undefined)

    values = _stage("harmonic-values", lambda: q[:, defined] / density.values[defined])
    del q

    states = np.full((grid.size, 3), np.nan)
    inverter = PointInverter(identity.basis).invert_with_residual
    states[defined], ambiguity, residuals = _stage("point-inversion", inverter, values)
    diagnostics["inversion_max_residual"] = float(residuals.max(initial=0.0))
    if n % 2 == 0:
        states, components = _stage("stitch", stitch_signs, states, defined, grid)
        diagnostics["stitch_components"] = components

    return ReconstructionResult(
        density_est=density,
        profile_est=Profile(states),
        ambiguity=ambiguity,
        undefined_nodes=tuple(undefined),
        diagnostics=diagnostics,
    )
