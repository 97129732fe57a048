"""Discretized ensemble over the parameter box: grid, density, profile, flow.

Each node sigma = (sigma1, sigma2) carries an independent unit vector evolving
under sigma1 * f0 + sigma2 * (u1 f1 + u2 f2).  With piecewise-constant controls
the flow is a closed-form rotation about

    omega = (-sigma2 u2, sigma2 u1, -sigma1)

by angle ||omega|| tau, so propagation has no integration drift.  The scalar
output integrates a polynomial observable against weight * density over the
tensor Gauss-Legendre grid.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polynomials import Poly


@dataclass(frozen=True)
class ParameterBox:
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if not self.a1 < self.b1:
            raise ValueError("need a1 < b1")
        if not 0 < self.a2 < self.b2:
            raise ValueError("need 0 < a2 < b2")
        if not all(map(math.isfinite, (self.a1, self.b1, self.a2, self.b2))):
            raise ValueError("box bounds must be finite")

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)


@dataclass(frozen=True)
class ParameterGrid:
    box: ParameterBox
    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def make_grid(box: ParameterBox, n1: int, n2: int) -> ParameterGrid:
    """Tensor Gauss-Legendre nodes and weights mapped onto the box."""
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1, n2 >= 1")
    x1, w1 = np.polynomial.legendre.leggauss(n1)
    x2, w2 = (x1, w1) if n2 == n1 else np.polynomial.legendre.leggauss(n2)
    # node i*n2 + j is (s1[i], s2[j]) with weight w1[i]*w2[j]
    nodes = np.empty((n1, n2, 2))
    nodes[:, :, 0] = (box.a1 + (x1 + 1.0) * (box.b1 - box.a1) / 2.0)[:, None]
    nodes[:, :, 1] = box.a2 + (x2 + 1.0) * (box.b2 - box.a2) / 2.0
    nodes = nodes.reshape(n1 * n2, 2)
    weights = np.outer(w1 * (box.b1 - box.a1) / 2.0, w2 * (box.b2 - box.a2) / 2.0).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return ParameterGrid(box, nodes, weights, (n1, n2))


@dataclass(frozen=True)
class Density:
    values: np.ndarray  # (N,), nonnegative

    def __post_init__(self):
        if not np.all(self.values >= 0):  # NaN values fail too
            raise ValueError("density values must be nonnegative")


def uniform_density(grid: ParameterGrid, value: float = 1.0) -> Density:
    return Density(np.full(grid.size, float(value)))


def gaussian_density(
    grid: ParameterGrid,
    center: Sequence[float],
    widths: Sequence[float],
    amplitude: float = 1.0,
) -> Density:
    """Truncated Gaussian bump evaluated on the grid nodes."""
    c1, c2 = center
    w1, w2 = widths
    if w1 <= 0 or w2 <= 0 or amplitude <= 0:
        raise ValueError("widths and amplitude must be positive")
    # amplitude * exp(-0.5 * (d1 * d1 + d2 * d2)) in two node arrays
    d1 = np.subtract(grid.nodes[:, 0], c1)
    d1 /= w1
    d1 *= d1
    d2 = np.subtract(grid.nodes[:, 1], c2)
    d2 /= w2
    d2 *= d2
    d1 += d2
    d1 *= -0.5
    np.exp(d1, out=d1)
    d1 *= amplitude
    return Density(d1)


def table_density(grid: ParameterGrid, values: Sequence[float]) -> Density:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} density values, got {arr.shape}")
    return Density(arr)


@dataclass(frozen=True)
class Profile:
    states: np.ndarray  # (N, 3) unit vectors


# Largest deviation from unit norm that validate_profile accepts.
_UNIT_TOL = 1e-12


def validate_profile(profile: Profile) -> None:
    norms = np.linalg.norm(profile.states, axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if not worst <= _UNIT_TOL:  # NaN states fail too
        raise ValueError(f"profile states deviate from unit norm by {worst:.3e}")


def constant_profile(grid: ParameterGrid, x: Sequence[float]) -> Profile:
    v = np.asarray(x, dtype=float)
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError("constant profile needs a finite nonzero vector")
    v = v / norm
    return Profile(np.tile(v, (grid.size, 1)))


def angles_profile(
    grid: ParameterGrid,
    theta_coeffs: Sequence[float],
    phi_coeffs: Sequence[float],
) -> Profile:
    """Smooth profile x(sigma) from affine polar/azimuthal angle maps.

    theta(sigma) = t0 + t1 sigma1 + t2 sigma2 and likewise for phi.
    """
    s1, s2 = grid.nodes.T
    scratch = np.empty(grid.size)

    def affine(c0, c1, c2):  # (c0 + c1 sigma1) + c2 sigma2
        out = np.multiply(s1, c1)
        out += c0
        out += np.multiply(s2, c2, out=scratch)
        return out

    theta = affine(*theta_coeffs)
    phi = affine(*phi_coeffs)
    # sin theta cos phi, sin theta sin phi, cos theta; the trig functions
    # write contiguous arrays, and only the products go into the columns
    states = np.empty((grid.size, 3))
    states[:, 2] = np.cos(theta, out=scratch)
    np.sin(theta, out=theta)
    np.multiply(theta, np.cos(phi, out=scratch), out=states[:, 0])
    np.multiply(theta, np.sin(phi, out=phi), out=states[:, 1])
    return Profile(states)


def table_profile(grid: ParameterGrid, states: Sequence[Sequence[float]]) -> Profile:
    """Build a profile from explicit rows, renormalizing mild float drift."""
    arr = np.array(states, dtype=float)  # a copy: normalized in place
    if arr.shape != (grid.size, 3):
        raise ValueError(f"expected {grid.size} states of dimension 3")
    norms = np.linalg.norm(arr, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN rows fail too
        raise ValueError("profile states must be unit vectors (within 1e-6)")
    arr /= norms[:, None]
    profile = Profile(arr)
    validate_profile(profile)
    return profile


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant input: segments of (duration, u1, u2)."""

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        for tau, u1, u2 in self.segments:
            if not 0 < tau < math.inf:  # NaN fails too
                raise ValueError("segment durations must be positive and finite")
            if not (math.isfinite(u1) and math.isfinite(u2)):
                raise ValueError("segment controls must be finite")

    @property
    def total_duration(self) -> float:
        return sum(seg[0] for seg in self.segments)


@dataclass(frozen=True)
class OutputTrace:
    times: np.ndarray
    values: np.ndarray
    states: np.ndarray  # (N, 3) at the end of the schedule

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")


# Elements per partial sum of row_dots: a power of two below the length
# (10,000 in OpenBLAS) from which a BLAS dot may split its sum over threads.
# simulate sweeps larger grids a chunk at a time, each through the whole
# schedule, so its working set is one chunk's: a chunk's rotation set-up
# serves its samples and its segment end.
_DOT_CHUNK = 8192

# Lattice samples per direct cos and sin of the angle rows in simulate; the
# steps between them each add about one rounding to the rows.  Over a 50 s
# segment at dt = 0.01 the error between 1 and 10 s stayed within 2.3e-15 of
# max |y| up to 64 and reached 6.9e-15 at 256.
_RESEED = 64


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows (last axis) of a and b, broadcast over the
    other axes: the one weighted sum over the grid nodes (outputs, moments)
    and over short rows (stitch edges, the report).  Each chunk of at most
    _DOT_CHUNK elements is one stacked 1 x K by K x 1 matmul, which numpy
    sends to np.dot's inner loop (a @ v would not), and the chunks add in
    order: an entry has np.dot's bits up to _DOT_CHUNK elements, and never
    depends on the BLAS thread count."""
    total = np.matmul(a[..., None, :_DOT_CHUNK], b[..., :_DOT_CHUNK, None])[..., 0, 0]
    for lo in range(_DOT_CHUNK, a.shape[-1], _DOT_CHUNK):
        hi = lo + _DOT_CHUNK
        total += np.matmul(a[..., None, lo:hi], b[..., lo:hi, None])[..., 0, 0]
    return total


class RotationPlan:
    """The part of a rotation about each omega row that does not depend on
    the states: the norms and unit axes and, when a duration tau is given,
    cos and sin of the angles.  A zero row keeps axis 0, so the rotation
    formula gives its states back.

    A fixed-duration plan applies to the leading rows of any set of states
    (rotate_planned), so a plan built on a grid tiled m times serves every
    block of at most m node sets.
    """

    def __init__(self, omega: np.ndarray, tau: float | None = None):
        # np.linalg.norm's sum in its order, without its (M, 3) squares
        w0, w1, w2 = omega.T
        self.norms = np.sqrt((w0 * w0 + w1 * w1) + w2 * w2)
        self.axis = omega / np.where(self.norms == 0.0, 1.0, self.norms)[:, None]
        if tau is not None:
            self.trig = _angles(self.norms, tau, np.empty((2, len(omega))))

    def bind(self, states: np.ndarray, axes: Sequence[int] = range(3)):
        """The cross products (rows d in axes of a (3, M) array, from
        np.cross's products and differences in its order, so with its bits)
        and the dot products of the leading M unit axes with the C-ordered
        (M, 3) states; einsum's summation order depends on the memory layout."""
        axis = self.axis[: len(states)]
        cross = np.empty((3, len(states)))
        for d in axes:
            i, j = (d + 1) % 3, (d + 2) % 3
            np.multiply(axis[:, i], states[:, j], out=cross[d])
            cross[d] -= axis[:, j] * states[:, i]
        return cross, np.einsum("ij,ij->i", axis, states)


def _angles(norms: np.ndarray, tau: float, work: np.ndarray):
    """cos and sin of the angles norms*tau, in the rows of the (2, rows) work
    array; the sin row holds the angles until sin overwrites them."""
    cos, sin = work
    np.multiply(norms, tau, out=sin)
    return np.cos(sin, out=cos), np.sin(sin, out=sin)


def _write(states, cross, axis, dot, trig, axes, out, scratch) -> None:
    """The rotation formula: out[d] = states[:, d]*cos + cross[d]*sin +
    axis[d]*(dot*(1-cos)) for d in axes, summed in this order, so the bits match
    the one-expression formula.  It holds at every angle; a zero omega row has
    cos 1, sin 0 and axis 0.  cross and axis are (3, rows) arrays, and out is
    one, a dict of the rows in axes, or states.T.  trig is (cos, sin) on
    the rows of states, or two columns of them, one out row per angle, and
    scratch two buffers of out's row shape, the second of which may be sin
    or a row of cross: it is written only after their last read."""
    cos, sin = trig
    tmp, scale = scratch
    for d in axes:
        np.multiply(states[:, d], cos, out=out[d])
        out[d] += np.multiply(cross[d], sin, out=tmp)
    np.multiply(dot, np.subtract(1.0, cos, out=scale), out=scale)
    for d in axes:
        out[d] += np.multiply(axis[d], scale, out=tmp)


def rotate_planned(
    states: np.ndarray, plan: RotationPlan, axes: Sequence[int], out: np.ndarray
) -> None:
    """Rotate the C-ordered (M, 3) states by a fixed-duration plan of at least
    M rows, writing coordinate d in axes to out[d] of a (3, M) view, which
    may be states.T."""
    rows = len(states)
    cross, dot = plan.bind(states, axes)
    trig = [t[:rows] for t in plan.trig]
    _write(states, cross, plan.axis[:rows].T, dot, trig, axes, out, np.empty((2, rows)))


def segment_axis(sigma: np.ndarray, u: Sequence[float]) -> np.ndarray:
    """Rotation axis (-sigma2 u2, sigma2 u1, -sigma1) per node."""
    u1, u2 = u
    omega = np.empty(sigma.shape[:-1] + (3,))
    omega[..., 0] = -sigma[..., 1] * u2
    omega[..., 1] = sigma[..., 1] * u1
    omega[..., 2] = -sigma[..., 0]
    return omega


def rotate_states(
    states: np.ndarray, sigmas: np.ndarray, u: Sequence[float], tau: float
) -> np.ndarray:
    rotated = np.empty(states.shape)
    rotate_planned(states, RotationPlan(segment_axis(sigmas, u), tau), range(3), rotated.T)
    return rotated


def evolve_profile(
    profile: Profile, grid: ParameterGrid, schedule: ControlSchedule
) -> Profile:
    states = profile.states
    for tau, u1, u2 in schedule.segments:
        states = rotate_states(states, grid.nodes, (u1, u2), tau)
    return Profile(states)


def compile_phi(phi: Poly) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized evaluator for a real observable over (N, 3) state arrays,
    or (N, R) arrays of only the R coordinates phi reads, in axis order.

    Powers come from iterated multiplication, not libm pow, so evaluation is
    exactly parity-covariant: even-degree observables give bitwise-identical
    values on antipodal states.  Each term is the product of its powers in
    axis order, built in its column of a C-ordered (N, K) array; coordinates
    phi does not read are never read.
    """
    if not phi.is_real:
        raise ValueError("observable must be real-valued")
    items = phi.sorted_terms()
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 3)
    coeffs = np.array([float(c.re) for _, c in items])
    # per axis, for each power e = 1, 2, ... up to the largest: the terms
    # that take x_d^e, each with whether x_d^e is its first factor
    steps = [
        [
            [(t, not exps[t, :d].any()) for t in np.flatnonzero(exps[:, d] == e)]
            for e in range(1, int(exps[:, d].max(initial=0)) + 1)
        ]
        for d in range(3)
    ]
    constant = np.flatnonzero(~exps.any(axis=1))
    reads = [d for d in range(3) if steps[d]]

    def evaluate(states: np.ndarray) -> np.ndarray:
        term_vals = np.empty((states.shape[0], exps.shape[0]))
        term_vals[:, constant] = 1.0
        for j, d in enumerate(reads):
            x = power = states[:, d if states.shape[1] == 3 else j]
            for e, terms in enumerate(steps[d], start=1):
                if e > 1:
                    power = np.multiply(power, x, out=None if e == 2 else power)
                for t, first in terms:
                    if first:
                        term_vals[:, t] = power
                    else:
                        term_vals[:, t] *= power
        return term_vals @ coeffs

    return evaluate


def read_axes(phi: Poly) -> list[int]:
    """The coordinates phi reads, in order: the only ones its evaluator needs."""
    return sorted({d for exps, _ in phi.sorted_terms() for d in range(3) if exps[d]})


def output(profile: Profile, grid: ParameterGrid, density: Density, phi: Poly) -> float:
    """Quadrature of phi(x_sigma) against weight * density, in fixed node order."""
    vals = compile_phi(phi)(profile.states)
    return float(row_dots(vals, grid.weights * density.values))


def simulate(
    profile: Profile,
    grid: ParameterGrid,
    density: Density,
    schedule: ControlSchedule,
    phi: Poly,
    dt: float,
) -> OutputTrace:
    """Sample y(t) at multiples of dt plus every segment boundary; the trace
    also holds the states at the end of the schedule."""
    times, (values,), states = _simulate_pairs([(profile, density)], grid, schedule, phi, dt)
    return OutputTrace(times, values, states)


def _simulate_pairs(
    pairs: Sequence[tuple[Profile, Density]],
    grid: ParameterGrid,
    schedule: ControlSchedule,
    phi: Poly,
    dt: float,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """simulate for every (profile, density) pair in one pass, one dot chunk
    of nodes at a time through the whole schedule.  Under a segment's control
    a node turns about a fixed axis by the angle |omega| t, so phi on its
    orbit is a trigonometric polynomial of degree d, phi's degree, fixed by
    its values at 2d + 1 orbit points.  The first point is the segment start,
    whose phi row the chunk keeps from t = 0 or the previous segment end, so
    phi runs 2d + 1 times per node and segment.  A chunk's set-up keeps the
    weighted Fourier rows and rotates the chunk to the segment end; each
    lattice sample then steps the angle rows e^(i m |omega| t), which the
    pairs share, and takes one row_dots.  Each chunk fills its own row of
    values, added to the total in chunk order.  Returns the sample times, one
    value array per pair and the stacked final states."""
    if not dt > 0:  # NaN fails too
        raise ValueError("dt must be positive")
    total = schedule.total_duration
    boundaries = [0.0]
    for tau, _, _ in schedule.segments:
        boundaries.append(boundaries[-1] + tau)
    samples = set(boundaries)
    slack = 1e-12 * max(1.0, total)
    k = 0
    while k * dt <= total + slack:
        samples.add(min(k * dt, total))
        k += 1
    times = sorted(samples)
    # per segment: its control, duration and start, and its lattice and end
    # columns, as index arrays: a chunk holds every segment's at once
    segments, i = [], 1
    for k, (tau, u1, u2) in enumerate(schedule.segments):
        j = bisect_right(times, boundaries[k + 1] + slack)
        cols, ends = np.arange(i, j), np.array(times[i:j]) == boundaries[k + 1]
        segments.append(((u1, u2), tau, boundaries[k], cols[~ends], cols[ends]))
        i = j
    phi_eval = compile_phi(phi)
    axes = read_axes(phi)
    degree = max((sum(exps) for exps, _ in phi.sorted_terms()), default=0)
    count = 2 * degree + 1
    # the orbit angles 2 pi l / count for l = 0, 1..degree, -1..-degree, and
    # per angle (2 / count) e^(i m angle) for m = 1..degree
    angles = 2 * math.pi / count * np.concatenate([np.arange(degree + 1), -np.arange(1, degree + 1)])
    turns = np.cos(angles[1:, None]), np.sin(angles[1:, None])
    harmonic = 2 / count * np.exp(1j * np.outer(angles, np.arange(1, degree + 1)))[..., None]
    sub = max(1, _DOT_CHUNK // count)  # nodes per orbit set-up

    def orbit(x, f0, cross, axis, dot, base, coef) -> None:
        # phi at the turned orbit points of the states x, whose own phi row
        # is f0; f0 becomes the sum over all count points, and coef gains
        # the weighted rows A_m + i B_m
        points = np.empty((len(axes), count - 1, len(x)))
        _write(x, cross, axis, dot, turns, axes, dict(zip(axes, points)), np.empty((2, count - 1, len(x))))
        turned = phi_eval(points.reshape(len(axes), (count - 1) * len(x)).T)
        del points  # before f, which would raise the set-up's peak
        f = np.empty((count, len(x)))
        f[0], f[1:] = f0, turned.reshape(count - 1, len(x))
        np.sum(f, axis=0, out=f0)
        f *= base
        for fl, hl in zip(f, harmonic):
            coef += hl * fl

    def setup(x, f, base, nodes, u, tau: float):
        # the chunk's rows A_m + i B_m and A_0, set up on sub-blocks of at
        # most _DOT_CHUNK orbit points, then its rotation to the segment end
        rows = len(nodes)
        plan = RotationPlan(segment_axis(nodes, u))
        axis = plan.axis.T
        coef = np.zeros((len(pairs), degree, rows), complex)
        const = np.empty(len(pairs))
        for p, (xp, fp, bp) in enumerate(zip(x, f, base)):
            cross, dot = plan.bind(xp)
            for lo in range(0, rows, sub):
                s = slice(lo, lo + sub)
                orbit(xp[s], fp[s], cross[:, s], axis[:, s], dot[s], bp[s], coef[p, :, s])
            const[p] = row_dots(fp, bp) / count
            if not p:  # past the set-up's peak
                trig = _angles(plan.norms, tau, np.empty((2, rows)))
            _write(xp, cross, axis, dot, trig, range(3), xp.T, (fp, cross[0]))
        return plan.norms, coef.view(float).reshape(len(pairs), -1), const

    def cis(rot, angle) -> None:  # rot[m - 1] = e^(i m angle), m = 1..degree
        np.cos(angle, out=rot.real[:1])
        np.sin(angle, out=rot.imag[:1])
        for m in range(1, degree):
            np.multiply(rot[m - 1], rot[0], out=rot[m])

    # the one working copy, rotated in place at each segment end
    states = np.concatenate([profile.states for profile, _ in pairs])
    stacked = states.reshape(len(pairs), grid.size, 3)
    for lo in range(0, grid.size, _DOT_CHUNK):
        ns = slice(lo, lo + _DOT_CHUNK)
        x = stacked[:, ns]
        base = np.stack([grid.weights[ns] * density.values[ns] for _, density in pairs])
        f = np.stack([phi_eval(xp) for xp in x])  # phi of the states
        row = np.empty((len(pairs), len(times)))
        row[:, 0] = row_dots(f, base)  # t = 0, the one sample of an empty schedule
        for u, tau, start, lattice, ends in segments:
            norms, coef, const = setup(x, f, base, grid.nodes[ns], u, tau)
            for p, xp in enumerate(x):
                f[p] = phi_eval(xp)
            row[:, ends] = row_dots(f, base)[:, None]
            # e^(i m |omega| t) and its lattice step, m = 1..degree
            z, step = np.empty((2, degree, len(norms)), complex)
            work = np.empty(len(norms))
            cis(step, np.multiply(norms, dt, out=work))
            flat = z.view(float).ravel()
            for q, c in enumerate(lattice):
                if q % _RESEED:
                    z *= step
                else:
                    cis(z, np.multiply(norms, times[c] - start, out=work))
                row[:, c] = row_dots(coef, flat) + const
            del norms, coef, z, step, work, flat  # before the next set-up
        # a value is its pair's sum over the dot chunks, added in order
        values = values + row if lo else row
    return np.array(times), list(values), states


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "equivalent-so-far" | "distinguished"
    gap: float
    schedule: ControlSchedule | None = None
    time: float | None = None
    trial: int | None = None


# Most segments in one random schedule of output_equiv_test.
_MAX_SEGMENTS = 4


def random_schedule(rng: random.Random) -> ControlSchedule:
    """1 to _MAX_SEGMENTS segments of duration in [0.1, 1) and controls in
    [-2, 2), from ``rng.random()`` alone (``uniform`` scales one such draw),
    whose sequence Python keeps across versions for an int seed."""
    count = 1 + int(_MAX_SEGMENTS * rng.random())
    segs = tuple(
        (rng.uniform(0.1, 1.0), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(count)
    )
    return ControlSchedule(segs)


def output_equiv_test(
    pair_a: tuple[Profile, Density],
    pair_b: tuple[Profile, Density],
    grid: ParameterGrid,
    phi: Poly,
    trials: int,
    seed: int,
    tol: float,
    dt: float = 0.05,
) -> EquivalenceVerdict:
    """Randomized one-sided distinguishing test over piecewise-constant inputs.

    A "distinguished" verdict is conclusive; "equivalent-so-far" only says the
    sampled schedules failed to separate the pairs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if seed < 0:  # random.Random would silently use abs(seed)
        raise ValueError("seed must be nonnegative")
    rng = random.Random(seed)
    worst = 0.0
    for trial in range(trials):
        schedule = random_schedule(rng)
        times, (values_a, values_b), _ = _simulate_pairs([pair_a, pair_b], grid, schedule, phi, dt)
        gaps = np.abs(values_a - values_b)
        exceeding = np.nonzero(gaps > tol)[0]
        if exceeding.size:
            idx = int(exceeding[0])
            return EquivalenceVerdict(
                "distinguished",
                float(gaps[idx]),
                schedule=schedule,
                time=float(times[idx]),
                trial=trial,
            )
        worst = max(worst, float(gaps.max()))
    return EquivalenceVerdict("equivalent-so-far", worst)


# Rows per block of the CSV writers.  A block is formatted from Python floats,
# about twice as fast as from numpy scalars, by one % on the row template
# repeated; converting one block at a time keeps those floats and their
# strings small next to the state arrays.
_CSV_BLOCK = 256


def _write_csv(path, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write float columns (1-D, or 2-D for several fields) as %.17g rows."""
    line = ",".join(["%.17g"] * len(names)) + "\n"
    full = line * _CSV_BLOCK
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.column_stack([c[lo : lo + _CSV_BLOCK] for c in columns])
            template = full if len(block) == _CSV_BLOCK else line * len(block)
            fh.write(template % tuple(block.ravel().tolist()))


def write_trace_csv(trace: OutputTrace, path) -> None:
    _write_csv(path, ("t", "y"), (trace.times, trace.values))


def write_profile_csv(
    profile: Profile, grid: ParameterGrid, density: Density, path
) -> None:
    _write_csv(
        path,
        ("sigma1", "sigma2", "weight", "rho", "x1", "x2", "x3"),
        (grid.nodes, grid.weights, density.values, profile.states),
    )


# Rows per block of the JSON writer's float arrays; one block's floats and
# text stay small next to the arrays themselves.
_JSON_BLOCK = 256


class NullRows:
    """A float array for write_json whose rows (elements, if 1-D) where null is
    True are written as null.  A plain class: numpy.ma costs more to import
    than writing a 64 x 64 grid, and a dataclass compiles its methods at
    import, which measurably raised a CLI call's peak memory."""

    def __init__(self, values: np.ndarray, null: np.ndarray):
        self.values = values
        self.null = null


def write_json(write, value, pad: str = "\n") -> None:
    """Write value through write as json.dump(value, fh, sort_keys=True,
    indent=2) would, byte for byte; pad is a newline and the indent of value's
    own line.  Dict keys are strings.  value may also hold float arrays, 1-D
    or 2-D with at least one column, written as json writes their tolist(),
    and NullRows of them."""
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        _write_json_array(write, value, np.zeros(len(value), dtype=bool), pad)
    elif isinstance(value, NullRows):
        _write_json_array(write, value.values, value.null, pad)
    elif isinstance(value, dict) and value:
        sep = "{"
        for key, item in sorted(value.items()):
            write(f"{sep}{inner}{json.dumps(key)}: ")
            write_json(write, item, inner)
            sep = ","
        write(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "["
        for item in value:
            write(sep + inner)
            write_json(write, item, inner)
            sep = ","
        write(pad + "]")
    else:  # scalars, strings and empty containers
        write(json.dumps(value))


def _write_json_array(write, array: np.ndarray, null: np.ndarray, pad: str) -> None:
    """A float array a block of rows at a time, each block by one % on a
    repeated item template.  %r is the repr json writes for a finite float;
    a finite repr holds no letter but e, so the nan and inf of the
    non-finite ones are renamed to json's NaN and Infinity in place."""
    if not len(array):
        write("[]")
        return
    inner = pad + "  "
    if array.ndim == 1:
        item = inner + "%r"
    else:
        fields = ",".join([inner + "  %r"] * array.shape[1])
        item = f"{inner}[{fields}{inner}]"
    full = ",".join([item] * _JSON_BLOCK)
    write("[")
    for lo in range(0, len(array), _JSON_BLOCK):
        hi = lo + _JSON_BLOCK
        rows = null[lo:hi]
        if rows.any():
            template = ",".join([inner + "null" if r else item for r in rows.tolist()])
            block = array[lo:hi][~rows]
        else:
            block = array[lo:hi]
            template = full if len(block) == _JSON_BLOCK else ",".join([item] * len(block))
        text = template % tuple(block.ravel().tolist())
        write(("," if lo else "") + text.replace("nan", "NaN").replace("inf", "Infinity"))
    write(pad + "]")
