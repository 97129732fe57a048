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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polynomials import Poly

# Node-samples per evaluation of phi in simulate, and node states per block of
# the measured-moments prefix tree.  At 1024 a 256-node grid batches 4 samples
# per numpy call (2 in equivalence, which stacks both pairs); 4096 ran no
# faster there and raised the peak resident memory by about 0.3 MB.
_BLOCK = 1024
# Node rows per block of simulate's segment set-up and in-place segment-end
# rotation.  On a 192 x 192 grid over 100 segments, 1024 took 0.3 s longer
# than 4096 and 8192 ran no faster; the samples, not the blocks, set the peak.
_NODE_BLOCK = 4096


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
    x2, w2 = np.polynomial.legendre.leggauss(n2)
    s1 = box.a1 + (x1 + 1.0) * (box.b1 - box.a1) / 2.0
    s2 = box.a2 + (x2 + 1.0) * (box.b2 - box.a2) / 2.0
    w1 = w1 * (box.b1 - box.a1) / 2.0
    w2 = w2 * (box.b2 - box.a2) / 2.0
    # node i*n2 + j is (s1[i], s2[j]) with weight w1[i]*w2[j]
    nodes = np.stack([np.repeat(s1, n2), np.tile(s2, n1)], axis=1)
    weights = np.outer(w1, w2).ravel()
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
    states: np.ndarray  # (N, 3) at the end of the schedule

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows (last axis) of a and b, broadcast over the
    other axes: the one weighted sum over the grid nodes (outputs, moments)
    and over short rows (stitch edges, the report).  numpy's matmul sends
    each stacked 1 x K by K x 1 product to the inner loop np.dot uses, so
    every entry has the bits of np.dot on the two rows; a matrix-vector
    product (a @ v) does not."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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
        self.norms = np.linalg.norm(omega, axis=1)
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
    cos 1, sin 0 and axis 0.  cross, axis and out are rows of (3, rows) arrays
    or dicts of the rows in axes; out may be states.T.  trig is (cos, sin) on
    the rows of states, and scratch two row buffers, the second of which may
    be sin."""
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
    """simulate for every (profile, density) pair in one pass: the pairs'
    states are stacked, so each numpy call serves all of them.  Returns the
    sample times, one value array per pair and the stacked final states."""
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
    phi_eval = compile_phi(phi)
    axes = read_axes(phi)
    bases = np.array([grid.weights * density.values for _, density in pairs])
    values = [[] for _ in pairs]

    def y(block: np.ndarray) -> None:
        # block: states of one sample after another, each pair's rows in turn
        dots = row_dots(phi_eval(block).reshape(-1, *bases.shape), bases)
        for column, v in zip(dots.T, values):
            v.extend(column.tolist())

    sigmas = grid.nodes if len(pairs) == 1 else np.tile(grid.nodes, (len(pairs), 1))
    # the one working copy, rotated in place at each segment end
    states = np.concatenate([profile.states for profile, _ in pairs])
    rows = len(states)
    m = max(1, _BLOCK // rows)  # samples per evaluation of phi

    def sample(durations: list[float], u: tuple[float, float]) -> None:
        # the segment's norms, dot products, and cross rows and axis columns
        # of the coordinates phi reads, set up a node block at a time
        norms, dot = np.empty(rows), np.empty(rows)
        cross = {d: np.empty(rows) for d in axes}
        axis = {d: np.empty(rows) for d in axes}
        for lo in range(0, rows, _NODE_BLOCK):
            block = slice(lo, lo + _NODE_BLOCK)
            plan = RotationPlan(segment_axis(sigmas[block], u))
            c, dot[block] = plan.bind(states[block], axes)
            norms[block] = plan.norms
            for d in axes:
                cross[d][block], axis[d][block] = c[d], plan.axis[:, d]
            del c, plan  # before the next block's
        work = np.empty((3, rows))  # a scratch row, then cos and sin
        buf = np.empty((len(axes), m * rows))  # the coordinates phi reads
        for lo in range(0, len(durations), m):
            chunk = durations[lo : lo + m]
            out = buf[:, : len(chunk) * rows]
            for j, tau in enumerate(chunk):
                cols = dict(zip(axes, out[:, j * rows : (j + 1) * rows]))
                trig = _angles(norms, tau, work[1:])
                _write(states, cross, axis, dot, trig, axes, cols, (work[0], work[2]))
            y(out.T)

    y(states)  # t = 0, the one sample of an empty schedule
    i = 1
    for k, (tau, u1, u2) in enumerate(schedule.segments):
        j = bisect_right(times, boundaries[k + 1] + slack)
        if j > i:
            sample([t - boundaries[k] for t in times[i:j]], (u1, u2))
        i = j
        for lo in range(0, rows, _NODE_BLOCK):  # in place, a node block at a time
            block = states[lo : lo + _NODE_BLOCK]
            plan = RotationPlan(segment_axis(sigmas[lo : lo + _NODE_BLOCK], (u1, u2)), tau)
            rotate_planned(block, plan, range(3), block.T)
            del plan  # before the next block's
    return np.array(times), [np.array(v) for v in values], states


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "equivalent-so-far" | "distinguished"
    gap: float
    schedule: ControlSchedule | None = None
    time: float | None = None
    trial: int | None = None


# Most segments in one random schedule of output_equiv_test.
_MAX_SEGMENTS = 4


def random_schedule(rng) -> ControlSchedule:
    """A schedule from ``rng``'s ``integers`` and ``uniform``: a
    ``PCG64Stream`` or a ``numpy.random.Generator``."""
    count = int(rng.integers(1, _MAX_SEGMENTS + 1))
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
    from ._pcg64 import PCG64Stream

    rng = PCG64Stream(seed)
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
