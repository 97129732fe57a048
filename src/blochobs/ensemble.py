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

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .polynomials import Poly

_SMALL_ANGLE = 1e-8

# Node states per block of simulate and of the measured-moments prefix tree.
# At 1024 a 256-node grid batches 4 samples per numpy call; 4096 ran no
# faster there and raised the peak resident memory by about 0.3 MB.
_BLOCK = 1024


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
    x2, w2 = np.polynomial.legendre.leggauss(n2)
    s1 = box.a1 + (x1 + 1.0) * (box.b1 - box.a1) / 2.0
    s2 = box.a2 + (x2 + 1.0) * (box.b2 - box.a2) / 2.0
    w1 = w1 * (box.b1 - box.a1) / 2.0
    w2 = w2 * (box.b2 - box.a2) / 2.0
    nodes = np.empty((n1 * n2, 2))
    weights = np.empty(n1 * n2)
    for i in range(n1):
        lo = i * n2
        nodes[lo : lo + n2, 0] = s1[i]
        nodes[lo : lo + n2, 1] = s2
        weights[lo : lo + n2] = w1[i] * w2
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
    d1 = (grid.nodes[:, 0] - c1) / w1
    d2 = (grid.nodes[:, 1] - c2) / w2
    return Density(amplitude * np.exp(-0.5 * (d1 * d1 + d2 * d2)))


def table_density(grid: ParameterGrid, values: Sequence[float]) -> Density:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} density values, got {arr.shape}")
    return Density(arr)


@dataclass(frozen=True)
class Profile:
    states: np.ndarray  # (N, 3) unit vectors
    time_tag: float = 0.0


def validate_profile(profile: Profile, tol: float = 1e-12) -> None:
    norms = np.linalg.norm(profile.states, axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if not worst <= tol:  # NaN states fail too
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
    t0, t1, t2 = theta_coeffs
    p0, p1, p2 = phi_coeffs
    theta = t0 + t1 * grid.nodes[:, 0] + t2 * grid.nodes[:, 1]
    phi = p0 + p1 * grid.nodes[:, 0] + p2 * grid.nodes[:, 1]
    states = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )
    return Profile(states)


def table_profile(grid: ParameterGrid, states: Sequence[Sequence[float]]) -> Profile:
    """Build a profile from explicit rows, renormalizing mild float drift."""
    arr = np.asarray(states, dtype=float)
    if arr.shape != (grid.size, 3):
        raise ValueError(f"expected {grid.size} states of dimension 3")
    norms = np.linalg.norm(arr, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN rows fail too
        raise ValueError("profile states must be unit vectors (within 1e-6)")
    profile = Profile(arr / norms[:, None])
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

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")


class _rotation:
    """Axis-angle rotation of each row of states about its own omega row.

    Everything that does not depend on the duration (norms, unit axes, the
    cross and dot products with the states) is computed here once, on the
    (N, 3) rows, since einsum's summation order depends on the memory layout.
    Each duration then pays only for the angles, cos/sin and one combination
    per coordinate computed.
    """

    def __init__(self, states: np.ndarray, omega: np.ndarray):
        self.states, self.omega = states, omega
        self.norms = np.linalg.norm(omega, axis=1)
        self.axis = omega / np.where(self.norms == 0.0, 1.0, self.norms)[:, None]
        self.cross = np.cross(self.axis, states)
        self.dot = np.einsum("ij,ij->i", self.axis, states)

    def __call__(self, tau: float) -> np.ndarray:
        rotated = np.empty(self.states.shape)  # C order, as the next set-up needs
        self._write(tau, range(3), rotated.T, np.empty((3, len(rotated))))
        return rotated

    def samples(self, taus: Sequence[float], axes: Sequence[int]) -> Iterator[np.ndarray]:
        """The states after each duration in taus, in blocks of at most _BLOCK
        node-samples: (m*N, 3) views of one reused (3, m*N) buffer, so each
        coordinate is a contiguous column.  Coordinates not in axes are NaN."""
        n = len(self.states)
        m = max(1, _BLOCK // n)
        work = np.empty((3, n))
        buf = np.full((3, min(m, len(taus)) * n), np.nan)
        for lo in range(0, len(taus), m):
            chunk = taus[lo : lo + m]
            out = buf[:, : len(chunk) * n]
            for j, tau in enumerate(chunk):
                self._write(tau, axes, out[:, j * n : (j + 1) * n], work)
            yield out.T

    def _write(self, tau, axes, out, work) -> None:
        # out[d] = states*cos + cross*sin + axis*(dot*(1-cos)) for d in axes,
        # summed in this order, so the bits match the one-expression formula;
        # the third scratch row holds sin, then dot*(1-cos)
        tmp, cos, sin = work
        np.multiply(self.norms, tau, out=tmp)
        np.cos(tmp, out=cos)
        np.sin(tmp, out=sin)
        small = np.flatnonzero(np.abs(tmp, out=tmp) < _SMALL_ANGLE)
        for d in axes:
            np.multiply(self.states[:, d], cos, out=out[d])
            out[d] += np.multiply(self.cross[:, d], sin, out=tmp)
        scale = np.multiply(self.dot, np.subtract(1.0, cos, out=sin), out=sin)
        for d in axes:
            out[d] += np.multiply(self.axis[:, d], scale, out=tmp)
        if small.size:
            # second-order series in tau avoids 0/0 on the axis normalization
            x = self.states[small]
            wxs = np.cross(self.omega[small], x)
            wwxs = np.cross(self.omega[small], wxs)
            for d in axes:
                out[d, small] = x[:, d] + tau * wxs[:, d] + 0.5 * tau * tau * wwxs[:, d]


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
    return _rotation(states, segment_axis(sigmas, u))(tau)


def rotation_step(
    x: Sequence[float], sigma: Sequence[float], u: Sequence[float], tau: float
) -> np.ndarray:
    """Closed-form flow of one state for one constant-control segment."""
    states = np.asarray(x, dtype=float)[None, :]
    sig = np.asarray(sigma, dtype=float)[None, :]
    return rotate_states(states, sig, u, tau)[0]


def evolve_profile(
    profile: Profile, grid: ParameterGrid, schedule: ControlSchedule
) -> Profile:
    states = profile.states
    for tau, u1, u2 in schedule.segments:
        states = rotate_states(states, grid.nodes, (u1, u2), tau)
    return Profile(states, profile.time_tag + schedule.total_duration)


def compile_phi(phi: Poly) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized evaluator for a real observable over (N, 3) state arrays.

    Powers come from iterated multiplication, not libm pow, so evaluation is
    exactly parity-covariant: even-degree observables give bitwise-identical
    values on antipodal states.
    """
    if not phi.is_real:
        raise ValueError("observable must be real-valued")
    items = phi.sorted_terms()
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 3)
    coeffs = np.array([float(c.re) for _, c in items])
    maxes = exps.max(axis=0) if len(items) else np.zeros(3, dtype=np.int64)

    def evaluate(states: np.ndarray) -> np.ndarray:
        if exps.shape[0] == 0:
            return np.zeros(states.shape[0])
        term_vals = np.ones((states.shape[0], exps.shape[0]))
        for d in range(3):
            if maxes[d] == 0:
                continue
            table = np.empty((states.shape[0], maxes[d] + 1))
            table[:, 0] = 1.0
            for e in range(1, maxes[d] + 1):
                table[:, e] = table[:, e - 1] * states[:, d]
            term_vals *= table[:, exps[:, d]]
        return term_vals @ coeffs

    return evaluate


def output(profile: Profile, grid: ParameterGrid, density: Density, phi: Poly) -> float:
    """Quadrature of phi(x_sigma) against weight * density, in fixed node order."""
    vals = compile_phi(phi)(profile.states)
    return float(np.dot(grid.weights * density.values, vals))


def simulate(
    profile: Profile,
    grid: ParameterGrid,
    density: Density,
    schedule: ControlSchedule,
    phi: Poly,
    dt: float,
) -> OutputTrace:
    """Sample y(t) at multiples of dt plus every segment boundary."""
    if not dt > 0:  # NaN fails too
        raise ValueError("dt must be positive")
    total = schedule.total_duration
    boundaries = [0.0]
    for tau, _, _ in schedule.segments:
        boundaries.append(boundaries[-1] + tau)
    samples = set(boundaries)
    t = 0.0
    k = 0
    slack = 1e-12 * max(1.0, total)
    while t <= total + slack:
        samples.add(min(t, total))
        k += 1
        t = k * dt
    times = sorted(samples)
    phi_eval = compile_phi(phi)
    axes = sorted({d for exps, _ in phi.sorted_terms() for d in range(3) if exps[d]})
    base = grid.weights * density.values
    n = grid.size

    def y(block: np.ndarray) -> list[float]:
        # block: (m * n, 3) states of m samples, one after another
        vals = phi_eval(block)
        return [float(np.dot(base, vals[lo : lo + n])) for lo in range(0, vals.shape[0], n)]

    values = []
    states = profile.states
    i = 0
    for k, (tau, u1, u2) in enumerate(schedule.segments):
        rotation = _rotation(states, segment_axis(grid.nodes, (u1, u2)))
        durations = []
        while i < len(times) and times[i] <= boundaries[k + 1] + slack:
            if times[i] > boundaries[k]:
                durations.append(times[i] - boundaries[k])
            else:
                values.extend(y(states))
            i += 1
        for block in rotation.samples(durations, axes):
            values.extend(y(block))
        states = rotation(tau)
        del rotation  # free this segment's arrays before the next set-up
    for _ in times[i:]:  # an empty schedule samples t = 0
        values.extend(y(states))
    return OutputTrace(np.array(times), np.array(values))


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "equivalent-so-far" | "distinguished"
    gap: float
    schedule: ControlSchedule | None = None
    time: float | None = None
    trial: int | None = None


def random_schedule(rng: np.random.Generator, max_segments: int = 4) -> ControlSchedule:
    count = int(rng.integers(1, max_segments + 1))
    segs = tuple(
        (float(rng.uniform(0.1, 1.0)), float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for _ in range(count)
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
    rng = np.random.default_rng(seed)
    prof_a, dens_a = pair_a
    prof_b, dens_b = pair_b
    worst = 0.0
    for trial in range(trials):
        schedule = random_schedule(rng)
        tr_a = simulate(prof_a, grid, dens_a, schedule, phi, dt)
        tr_b = simulate(prof_b, grid, dens_b, schedule, phi, dt)
        gaps = np.abs(tr_a.values - tr_b.values)
        exceeding = np.nonzero(gaps > tol)[0]
        if exceeding.size:
            idx = int(exceeding[0])
            return EquivalenceVerdict(
                "distinguished",
                float(gaps[idx]),
                schedule=schedule,
                time=float(tr_a.times[idx]),
                trial=trial,
            )
        worst = max(worst, float(gaps.max()))
    return EquivalenceVerdict("equivalent-so-far", worst)


# Rows per block of the CSV writers.  Rows are formatted from Python floats,
# about twice as fast as from numpy scalars; converting one block at a time
# keeps those floats and their strings small next to the state arrays.
_CSV_BLOCK = 256


def _write_csv(path, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write float columns (1-D, or 2-D for several fields) as %.17g rows."""
    line = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.column_stack([c[lo : lo + _CSV_BLOCK] for c in columns]).tolist()
            fh.write("".join(line % tuple(r) for r in block))


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
