import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from blochobs import ensemble
from blochobs.ensemble import (
    ControlSchedule,
    ParameterBox,
    Profile,
    angles_profile,
    compile_phi,
    compile_polys,
    constant_profile,
    evolve_profile,
    gaussian_density,
    make_grid,
    output,
    output_equiv_test,
    rotate_states,
    simulate,
    table_density,
    table_profile,
    uniform_density,
    validate_profile,
    write_profile_csv,
    write_trace_csv,
)
from blochobs.polynomials import Poly, X1, X2, X3

BOX = ParameterBox(0.0, 1.0, 0.5, 1.5)


def test_box_validation():
    with pytest.raises(ValueError):
        ParameterBox(1.0, 0.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        ParameterBox(0.0, 1.0, -0.5, 1.5)
    with pytest.raises(ValueError):
        ParameterBox(0.0, 1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        ParameterBox(math.nan, 1.0, 0.5, 1.5)
    # make_grid would map Gauss nodes onto inf or NaN
    inf = math.inf
    for bounds in ((0.0, 1.0, 0.5, inf), (-inf, 1.0, 0.5, 1.5), (0.0, inf, 0.5, 1.5)):
        with pytest.raises(ValueError, match="finite"):
            ParameterBox(*bounds)


def test_single_node_grid():
    box = ParameterBox(0.0, 1.0, 1.0, 2.0)
    grid = make_grid(box, 1, 1)
    assert grid.size == 1
    np.testing.assert_allclose(grid.nodes[0], [0.5, 1.5], atol=1e-15)
    assert grid.weights[0] == pytest.approx(box.area, abs=1e-15)


def test_weights_sum_to_area():
    grid = make_grid(BOX, 7, 5)
    assert abs(grid.weights.sum() - BOX.area) <= 1e-14 * max(1.0, BOX.area)
    assert np.all(grid.nodes[:, 0] > BOX.a1) and np.all(grid.nodes[:, 0] < BOX.b1)
    assert np.all(grid.nodes[:, 1] > BOX.a2) and np.all(grid.nodes[:, 1] < BOX.b2)


def test_quadrature_exact_on_monomials():
    grid = make_grid(BOX, 4, 4)
    approx = float(np.sum(grid.weights * grid.nodes[:, 0] ** 3 * grid.nodes[:, 1] ** 5))
    exact = (BOX.b1**4 - BOX.a1**4) / 4 * (BOX.b2**6 - BOX.a2**6) / 6
    assert abs(approx - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize(
    "box, n1, n2",
    [("box", 1, 1), ("box", 3, 4), ("sym", 3, 4), ("sym", 1, 5), ("box", 6, 1), ("sym", 101, 103)],
)
def test_grid_node_order(box, n1, n2):
    """Node i*n2 + j is (s1[i], s2[j]) with weight w1[i]*w2[j], bit for bit,
    the order that sign stitching, the CSV writers and the benchmark checks
    read; nodes and weights are read-only."""
    box = {"box": BOX, "sym": SYM_BOX}[box]
    grid = make_grid(box, n1, n2)
    x1, w1 = np.polynomial.legendre.leggauss(n1)
    x2, w2 = np.polynomial.legendre.leggauss(n2)
    s1 = box.a1 + (x1 + 1.0) * (box.b1 - box.a1) / 2.0
    s2 = box.a2 + (x2 + 1.0) * (box.b2 - box.a2) / 2.0
    w1 = w1 * (box.b1 - box.a1) / 2.0
    w2 = w2 * (box.b2 - box.a2) / 2.0
    i, j = np.divmod(np.arange(n1 * n2), n2)
    assert grid.shape == (n1, n2)
    assert grid.nodes.tobytes() == np.stack([s1[i], s2[j]], axis=1).tobytes()
    assert grid.weights.tobytes() == (w1[i] * w2[j]).tobytes()
    for array in (grid.nodes, grid.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def rotate_one(x, sigma, u, tau):
    """One state through one constant-control segment: a one-row batch."""
    return rotate_states(np.array([x], dtype=float), np.array([sigma], dtype=float), u, tau)[0]


def test_rotation_step_drift_only():
    x = rotate_one((1.0, 0.0, 0.0), (1.0, 1.0), (0.0, 0.0), math.pi / 2)
    np.testing.assert_allclose(x, [0.0, -1.0, 0.0], atol=1e-15)


def test_rotation_step_control_only():
    x = rotate_one((0.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.0), math.pi)
    np.testing.assert_allclose(x, [0.0, 0.0, -1.0], atol=1e-12)
    # quarter turn: x1 = sin t, x3 = cos t
    x = rotate_one((0.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.0), math.pi / 2)
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-12)


def test_rotation_step_zero_tau():
    x0 = (0.6, 0.0, 0.8)
    np.testing.assert_array_equal(rotate_one(x0, (0.3, 1.1), (0.5, -0.2), 0.0), x0)


def test_small_angle_branch_matches_rotation():
    x0 = np.array([0.6, 0.0, 0.8])
    for tau in (1e-9, 2e-9):
        small = rotate_one(x0, (1.0, 1.0), (0.7, -0.4), tau)
        coarse = rotate_one(x0, (1.0, 1.0), (0.7, -0.4), 1e-6)
        # both must stay on the sphere and be first-order consistent
        assert abs(np.linalg.norm(small) - 1) <= 1e-12
        direction = (coarse - x0) / 1e-6
        np.testing.assert_allclose((small - x0) / tau, direction, atol=1e-5)


def _exact_rotation(x, omega, tau, terms=5):
    """exp(tau [omega]x) x as a Taylor series of the given number of terms in
    exact rational arithmetic on the float inputs."""
    w, t = [Fraction(c) for c in omega], Fraction(tau)
    total = term = [Fraction(c) for c in x]
    for k in range(1, terms):
        term = [
            t / k * (w[(d + 1) % 3] * term[(d + 2) % 3] - w[(d + 2) % 3] * term[(d + 1) % 3])
            for d in range(3)
        ]
        total = [a + b for a, b in zip(total, term)]
    return total


@pytest.mark.parametrize("angle", [1e-300, 1e-12, 1e-9, 9.9e-9, 1e-8, 1.1e-8, 1e-6])
def test_rotation_within_one_eps_at_tiny_angles(angle):
    """The closed form rotates every row, at angles on both sides of 1e-8,
    within 1 eps (absolute) of the exact rotation in every component."""
    rng = np.random.default_rng(21)
    eps = Fraction(float(np.finfo(float).eps))
    for _ in range(20):
        x, v = rng.normal(size=(2, 3))
        x /= np.linalg.norm(x)
        v /= np.linalg.norm(v)
        # sigma = (-v3, 1) and u = (v2, -v1) give omega = v exactly
        sigma, u = (-v[2], 1.0), (v[1], -v[0])
        omega = ensemble.segment_axis(np.array(sigma), u)
        assert np.array_equal(omega, v)
        tau = angle / float(np.linalg.norm(v))
        got = rotate_one(x, sigma, u, tau)
        exact = _exact_rotation(x, omega, tau)
        assert all(abs(Fraction(g) - e) <= eps for g, e in zip(got.tolist(), exact))


@pytest.mark.parametrize("tau", [0.7, -0.3, 1e-9, 0.0])
def test_zero_axis_rows_keep_their_states(tau):
    """Where omega = 0 (sigma1 = 0, u = 0) cos 1, sin 0 and axis 0 give each
    state back bit for bit."""
    grid = make_grid(SYM_BOX, 3, 4)
    zero = grid.nodes[:, 0] == 0.0
    assert zero.sum() == 4
    states = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4)).states
    assert np.all(states != 0.0)
    rotated = rotate_states(states, grid.nodes, (0.0, 0.0), tau)
    assert rotated[zero].tobytes() == states[zero].tobytes()


def test_norm_preservation_long_run():
    rng = np.random.default_rng(0)
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    states = profile.states
    for _ in range(1000):
        u = rng.uniform(-2, 2, size=2)
        tau = rng.uniform(0.05, 0.2)
        states = rotate_states(states, grid.nodes, u, tau)
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_reversibility():
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    states = profile.states
    fwd = rotate_states(states, grid.nodes, (0.8, -0.5), 0.7)
    back = rotate_states(fwd, grid.nodes, (0.8, -0.5), -0.7)
    assert np.max(np.abs(back - states)) <= 1e-12


def test_evolve_empty_schedule():
    grid = make_grid(BOX, 2, 2)
    profile = constant_profile(grid, (0, 0, 1))
    out = evolve_profile(profile, grid, ControlSchedule(()))
    np.testing.assert_array_equal(out.states, profile.states)


def test_evolve_antipodal_symmetry_exact():
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    schedule = ControlSchedule(((0.3, 1.0, -0.5), (0.4, -0.7, 0.2)))
    plus = evolve_profile(profile, grid, schedule)
    minus = evolve_profile(Profile(-profile.states), grid, schedule)
    np.testing.assert_array_equal(minus.states, -plus.states)


def test_evolve_shared_sigma_same_rotation():
    box = ParameterBox(-1.0, 1.0, 0.5, 1.5)
    grid = make_grid(box, 1, 1)
    sigma = grid.nodes[0]
    xs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    batch = rotate_states(xs, np.tile(sigma, (3, 1)), (0.3, 0.8), 0.9)
    for x, got in zip(xs, batch):
        np.testing.assert_array_equal(got, rotate_one(x, sigma, (0.3, 0.8), 0.9))


def test_output_north_pole():
    box = ParameterBox(0.0, 1.0, 0.5, 1.5)
    grid = make_grid(box, 3, 3)
    profile = constant_profile(grid, (0, 0, 1))
    dens = uniform_density(grid, 1.0)
    assert output(profile, grid, dens, X3) == pytest.approx(box.area, abs=1e-14)


def test_output_zero_density_and_linearity():
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    zero = table_density(grid, np.zeros(grid.size))
    assert output(profile, grid, zero, X3) == 0.0
    rho_a = gaussian_density(grid, (0.5, 1.0), (0.4, 0.4))
    rho_b = uniform_density(grid, 0.7)
    both = table_density(grid, rho_a.values + rho_b.values)
    ya = output(profile, grid, rho_a, X3)
    yb = output(profile, grid, rho_b, X3)
    assert output(profile, grid, both, X3) == pytest.approx(ya + yb, rel=1e-14)


def test_output_matches_analytic_for_shared_state():
    grid = make_grid(BOX, 5, 5)
    xstar = np.array([0.48, -0.6, 0.64])
    xstar = xstar / np.linalg.norm(xstar)
    profile = constant_profile(grid, xstar)
    rho = gaussian_density(grid, (0.5, 1.0), (0.7, 0.9))
    phi = X1 * X2 * X3
    expected = float(phi.evaluate(tuple(xstar)).real) * float(
        np.dot(grid.weights, rho.values)
    )
    assert output(profile, grid, rho, phi) == pytest.approx(expected, rel=1e-13)


def test_simulate_first_sample_and_boundaries():
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    dens = uniform_density(grid)
    schedule = ControlSchedule(((0.35, 1.0, 0.0), (0.5, 0.0, 1.0)))
    trace = simulate(profile, grid, dens, schedule, X3, dt=0.2)
    assert trace.values[0] == pytest.approx(output(profile, grid, dens, X3), abs=1e-15)
    for b in (0.0, 0.35, 0.85):
        assert np.min(np.abs(trace.times - b)) <= 1e-12


def test_simulate_large_dt_keeps_endpoints():
    grid = make_grid(BOX, 2, 2)
    profile = constant_profile(grid, (0, 0, 1))
    dens = uniform_density(grid)
    schedule = ControlSchedule(((0.3, 0.5, 0.5),))
    trace = simulate(profile, grid, dens, schedule, X3, dt=10.0)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(0.3)
    assert len(trace.times) >= 2


def test_simulate_equator_zero_controls():
    grid = make_grid(BOX, 3, 3)
    profile = constant_profile(grid, (1.0, 0.0, 0.0))
    dens = uniform_density(grid)
    schedule = ControlSchedule(((1.0, 0.0, 0.0),))
    trace = simulate(profile, grid, dens, schedule, X3, dt=0.1)
    assert np.max(np.abs(trace.values)) <= 1e-14


def test_simulate_even_phi_antipodal_traces_identical():
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    dens = gaussian_density(grid, (0.5, 1.0), (0.5, 0.5))
    schedule = ControlSchedule(((0.4, 1.2, -0.3), (0.3, -0.8, 0.9)))
    phi = X1 * X2
    tr_plus = simulate(profile, grid, dens, schedule, phi, dt=0.05)
    tr_minus = simulate(Profile(-profile.states), grid, dens, schedule, phi, dt=0.05)
    assert np.max(np.abs(tr_plus.values - tr_minus.values)) <= 1e-12


def test_flow_composition():
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    s1 = ControlSchedule(((0.3, 1.0, -0.5),))
    s2 = ControlSchedule(((0.4, -0.7, 0.2), (0.2, 0.3, 0.9)))
    combined = ControlSchedule(s1.segments + s2.segments)
    once = evolve_profile(profile, grid, combined)
    twice = evolve_profile(evolve_profile(profile, grid, s1), grid, s2)
    assert np.max(np.abs(once.states - twice.states)) <= 1e-12


def test_equivalence_reflexive():
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    dens = uniform_density(grid)
    verdict = output_equiv_test(
        (profile, dens), (profile, dens), grid, X3, trials=5, seed=1, tol=1e-12
    )
    assert verdict.kind == "equivalent-so-far"
    assert verdict.gap == 0.0


def test_equivalence_antipodal_even_phi():
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    dens = gaussian_density(grid, (0.5, 1.0), (0.5, 0.5))
    verdict = output_equiv_test(
        (profile, dens),
        (Profile(-profile.states), dens),
        grid,
        X1 * X2,
        trials=10,
        seed=7,
        tol=1e-12,
    )
    assert verdict.kind == "equivalent-so-far"


def test_equivalence_scaled_density_distinguished_at_zero():
    grid = make_grid(BOX, 3, 3)
    profile = constant_profile(grid, (0.0, 0.0, 1.0))
    dens = uniform_density(grid, 1.0)
    dens2 = uniform_density(grid, 2.0)
    verdict = output_equiv_test(
        (profile, dens), (profile, dens2), grid, X3, trials=3, seed=2, tol=1e-12
    )
    assert verdict.kind == "distinguished"
    assert verdict.time == 0.0
    assert verdict.gap == pytest.approx(BOX.area)


def test_validate_profile():
    grid = make_grid(BOX, 2, 2)
    good = constant_profile(grid, (0, 0, 1))
    validate_profile(good)
    bad = Profile(good.states * 1.001)
    with pytest.raises(ValueError):
        validate_profile(bad)


def test_compile_phi_rejects_complex():
    from blochobs.polynomials import CRational

    with pytest.raises(ValueError):
        compile_phi(X1.scale(CRational(0, 1)))


def _compile_phi_tables(phi):
    """The evaluator with a ones array and per-axis power tables, kept as the
    bit reference."""
    items = phi.sorted_terms()
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 3)
    coeffs = np.array([float(c.re) for _, c in items])
    maxes = exps.max(axis=0) if len(items) else np.zeros(3, dtype=np.int64)

    def evaluate(states):
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


@pytest.mark.parametrize(
    "phi",
    [
        X3,
        X1 * X2,
        X1 * X2 * X3,
        X1**6 - 15 * X1**4 * X2**2 + 15 * X1**2 * X2**4 - X2**6,
        X1**3 * X3 - 2 * X2 * X3**4 + X2**2 + Poly.constant(3),
        Poly.constant(3),
        Poly.zero(),
    ],
    ids=["x3", "x1x2", "x1x2x3", "re-w6", "mixed-with-constant", "constant", "zero-poly"],
)
def test_compile_phi_matches_power_tables(phi):
    """Terms built in place give the bits of the power-table evaluator, on
    C-ordered rows and on the transposed column buffers that simulate's
    samples yield, whose unread columns hold NaN."""
    grid = make_grid(SYM_BOX, 5, 4)
    smooth = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4)).states
    rows = np.concatenate([smooth, -np.eye(3), np.zeros((1, 3))])
    reads = [d for d in range(3) if any(e[d] for e, _ in phi.sorted_terms())]
    columns = np.full((3, len(rows)), np.nan)
    columns[reads] = rows.T[reads]
    for states in (rows, columns.T):
        got = compile_phi(phi)(states)
        expected = _compile_phi_tables(phi)(states)
        assert got.shape == (len(rows),)
        assert np.array_equal(got, expected)


def _word_images(phi):
    from blochobs.representation import apply_word, word_basis_search

    return [apply_word(w, phi) for w in word_basis_search(phi)]


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: compile_phi(X1**6 - 15 * X1**4 * X2**2 + 15 * X1**2 * X2**4 - X2**6),
        lambda: compile_phi(X1**2 - X2**2),
        lambda: compile_phi(X3 + X1 * X2 + Poly.constant(3)),
        lambda: compile_polys(_word_images(X1 * X2 * X3)),
    ],
    ids=["re-w6", "x1^2-x2^2", "x3+x1x2+3", "x1x2x3-word-images"],
)
def test_evaluation_does_not_depend_on_the_block(evaluate):
    """A state gets the same bits alone as inside a block of any size: a
    one-row block is summed by BLAS like the rows of any other block, not by
    numpy's dot.  Every polynomial here has at most 7 terms (compile_polys
    names the limit)."""
    evaluate = evaluate()
    rng = np.random.default_rng(29)
    states = rng.normal(size=(20000, 3))
    states /= np.linalg.norm(states, axis=1)[:, None]
    checked = states[:2000]
    alone = np.concatenate([evaluate(checked[i : i + 1]) for i in range(len(checked))], axis=-1)
    for size in (2, 3, 5, 13):
        blocks = [evaluate(checked[lo : lo + size]) for lo in range(0, len(checked), size)]
        assert np.concatenate(blocks, axis=-1).tobytes() == alone.tobytes()
    # the checked states at every position mod 4 of one 20,000-row block
    whole = evaluate(np.roll(states, 7, axis=0))
    assert np.roll(whole, -7, axis=-1)[..., :2000].tobytes() == alone.tobytes()


def test_compile_polys_rows_are_compile_phi():
    """Row i of the list evaluator is compile_phi(polys[i]) bit for bit, on
    C-ordered rows and on (N, R) arrays of only the coordinates read."""
    polys = _word_images(X1 * X2 * X3) + [Poly.zero(), Poly.constant(3), X3 * X3]
    rng = np.random.default_rng(7)
    states = rng.normal(size=(700, 3))
    states /= np.linalg.norm(states, axis=1)[:, None]
    evaluate = compile_polys(polys)
    for rows in (0, 1, 2, 513, 700):
        got = evaluate(states[:rows])
        assert got.shape == (len(polys), rows)
        for p, row in zip(polys, got):
            assert row.tobytes() == compile_phi(p)(states[:rows]).tobytes()
    x3 = compile_polys([X3, X3 * X3 - Poly.constant(1)])
    assert x3(states[:, 2:]).tobytes() == x3(states).tobytes()
    from blochobs.polynomials import CRational

    with pytest.raises(ValueError):
        compile_polys([X3, X1.scale(CRational(0, 1))])


def test_compile_phi_zero_poly_gives_zeros():
    """No terms: the (N, 0) by (0,) product gives +0.0 zeros, also for N = 0."""
    evaluate = compile_phi(Poly.zero())
    for shape in ((5, 3), (5, 1), (0, 3)):
        got = evaluate(np.full(shape, 0.5))
        assert got.shape == (shape[0],)
        assert got.tobytes() == np.zeros(shape[0]).tobytes()


def test_table_profile_rejects_nan_row():
    grid = make_grid(BOX, 2, 2)
    rows = [[0.0, 0.0, 1.0]] * 3 + [[float("nan"), 0.0, 1.0]]
    with pytest.raises(ValueError):
        table_profile(grid, rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda grid: table_density(grid, [np.nan] * grid.size),
        lambda grid: gaussian_density(grid, (np.nan, 1.0), (0.6, 0.6)),
    ],
    ids=["table", "gaussian"],
)
def test_density_rejects_nan_values(build):
    """A NaN density used to pass the nonnegativity check."""
    with pytest.raises(ValueError):
        build(make_grid(BOX, 2, 2))


def test_validate_profile_rejects_nan_states():
    grid = make_grid(BOX, 2, 2)
    states = constant_profile(grid, (0, 0, 1)).states.copy()
    states[1, 0] = np.nan
    with pytest.raises(ValueError):
        validate_profile(Profile(states))


@pytest.mark.parametrize(
    "x",
    [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0)],
    ids=["zero", "nan", "inf"],
)
def test_constant_profile_rejects_zero_and_non_finite(x):
    with pytest.raises(ValueError):
        constant_profile(make_grid(BOX, 2, 2), x)


@pytest.mark.parametrize(
    "trials, tol",
    [(0, 1e-12), (-3, 1e-12), (2, -1e-12)],
    ids=["zero-trials", "negative-trials", "negative-tol"],
)
def test_equivalence_rejects_meaningless_settings(trials, tol):
    grid = make_grid(BOX, 2, 2)
    pair = (constant_profile(grid, (0, 0, 1)), uniform_density(grid))
    with pytest.raises(ValueError):
        output_equiv_test(pair, pair, grid, X3, trials=trials, seed=0, tol=tol)


def test_negative_seed_rejected():
    """random.Random(-3) would silently draw what seed 3 draws.  Seeds past
    64 bits run, and draw schedules of their own."""
    grid = make_grid(BOX, 2, 2)
    pair = (constant_profile(grid, (0, 0, 1)), uniform_density(grid))
    with pytest.raises(ValueError, match="seed"):
        output_equiv_test(pair, pair, grid, X3, trials=1, seed=-3, tol=1e-12)
    for seed in (2**64 + 3, 10**30):
        verdict = output_equiv_test(pair, pair, grid, X3, trials=2, seed=seed, tol=1e-12)
        assert verdict.kind == "equivalent-so-far"
    draws = [ensemble.random_schedule(random.Random(seed)) for seed in (3, 2**64 + 3)]
    assert draws[0] != draws[1]


def test_random_schedule_draws_only_random():
    """Every draw is one rng.random(): the count is 1 + int(4 * u) and each
    segment is three uniform draws, so the schedule is fixed by the
    documented sequence of random() for an int seed."""
    draws = iter([0.25, 0.5, 0.25, 0.75, 0.999, 0.0, 0.5])

    class Stream(random.Random):
        def random(self):
            return next(draws)

    schedule = ensemble.random_schedule(Stream())
    assert schedule.segments == (
        (0.1 + 0.9 * 0.5, -1.0, 1.0),
        (0.1 + 0.9 * 0.999, -2.0, 0.0),
    )
    assert next(draws, None) is None


def _sample_times(schedule, dt):
    """simulate's sample times, the segment boundaries and the slack."""
    total = schedule.total_duration
    slack = 1e-12 * max(1.0, total)
    boundaries = [0.0]
    for tau, _, _ in schedule.segments:
        boundaries.append(boundaries[-1] + tau)
    samples = set(boundaries)
    k = 0
    while k * dt <= total + slack:
        samples.add(min(k * dt, total))
        k += 1
    return sorted(samples), boundaries, slack


def _simulate_reference(profile, grid, density, schedule, phi, dt):
    """Per-sample reference: rotate from the segment start at every sample."""
    times, boundaries, slack = _sample_times(schedule, dt)
    phi_eval = compile_phi(phi)
    base = grid.weights * density.values
    values = []
    states = profile.states
    seg = 0
    for t in times:
        while seg < len(schedule.segments) and t > boundaries[seg + 1] + slack:
            tau, u1, u2 = schedule.segments[seg]
            states = rotate_states(states, grid.nodes, (u1, u2), tau)
            seg += 1
        if seg < len(schedule.segments) and t > boundaries[seg]:
            _, u1, u2 = schedule.segments[seg]
            current = rotate_states(states, grid.nodes, (u1, u2), t - boundaries[seg])
        else:
            current = states
        values.append(float(np.dot(base, phi_eval(current))))
    return np.array(times), np.array(values)


def _cis(angle):
    """cos and sin of a Decimal angle at the context precision: Taylor series
    after halving the angle to at most 1/2, then the double-angle formulas."""
    halvings = 0
    while abs(angle) > Decimal("0.5"):
        angle /= 2
        halvings += 1
    square, tiny = angle * angle, Decimal(10) ** -45
    cos, sin, c_term, s_term, k = Decimal(1), angle, Decimal(1), angle, 1
    while abs(c_term) > tiny or abs(s_term) > tiny:
        c_term = -c_term * square / ((2 * k - 1) * (2 * k))
        s_term = -s_term * square / ((2 * k) * (2 * k + 1))
        cos, sin, k = cos + c_term, sin + s_term, k + 1
    for _ in range(halvings):
        cos, sin = cos * cos - sin * sin, 2 * cos * sin
    return cos, sin


def _decimal_trace(profile, grid, density, schedule, phi, dt):
    """y at simulate's sample times by the exact flow of the float inputs, in
    40-digit Decimal arithmetic: a sample at a segment end is the state after
    the whole segment, any other sample in segment k is at t minus the exact
    sum of the durations before it (simulate's float boundaries assign the
    samples to segments)."""
    times, boundaries, slack = _sample_times(schedule, dt)
    with localcontext() as ctx:
        ctx.prec = 40
        terms = [(e, Decimal(c.re.numerator) / c.re.denominator) for e, c in phi.sorted_terms()]
        base = [Decimal(w) * Decimal(r) for w, r in zip(grid.weights.tolist(), density.values.tolist())]
        states = [[Decimal(v) for v in row] for row in profile.states.tolist()]
        sigmas = [[Decimal(v) for v in row] for row in grid.nodes.tolist()]

        def y(xs):
            return sum(
                b * sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for e, c in terms)
                for b, x in zip(base, xs)
            )

        def flow(xs, u1, u2):
            """The segment's rotation of each node as a function of time."""
            rows = []
            for (s1, s2), x in zip(sigmas, xs):
                w = [-s2 * Decimal(u2), s2 * Decimal(u1), -s1]
                norm = sum(v * v for v in w).sqrt()
                a = [v / norm for v in w] if norm else [0, 0, 0]
                cross = [a[1] * x[2] - a[2] * x[1], a[2] * x[0] - a[0] * x[2], a[0] * x[1] - a[1] * x[0]]
                along = [v * (a[0] * x[0] + a[1] * x[1] + a[2] * x[2]) for v in a]
                rows.append((norm, x, cross, along))

            def at(t):
                out = []
                for norm, x, cross, along in rows:
                    cos, sin = _cis(norm * t) if norm and t else (1, 0)
                    out.append([x[d] * cos + cross[d] * sin + along[d] * (1 - cos) for d in range(3)])
                return out

            return at

        values, i, start = [], 0, Decimal(0)
        for k, (tau, u1, u2) in enumerate(schedule.segments):
            at = flow(states, u1, u2)
            while i < len(times) and times[i] <= boundaries[k + 1] + slack:
                t = times[i]
                local = Decimal(t) - start if t > boundaries[k] else 0
                values.append(y(at(Decimal(tau) if t == boundaries[k + 1] else local)))
                i += 1
            states = at(Decimal(tau))
            start += Decimal(tau)
        values += [y(states)] * (len(times) - i)
        return np.array([float(v) for v in values])


# Largest error of simulate against the exact flow, relative to max |y|, on
# schedules of about a second.  On the 12- and 15-node grids below simulate
# reached 9.6e-16 (Re (x1 + i x2)^6 in dot chunks of 30) and the float
# formula rotating from the segment start at every sample 9.0e-16.
ACCURACY = 2e-15
# The same over one 50 s segment, where the rounding of the sample times
# alone moves the angle by about 1e-14: simulate reached 1.1e-14, the
# per-sample formula 7.3e-15.
LONG_ACCURACY = 3e-14


def _error(values, exact):
    """Largest error relative to max |exact| (absolute if exact is all 0)."""
    scale = np.max(np.abs(exact))
    return float(np.max(np.abs(values - exact)) / (scale if scale else 1.0))


# sigma1 = 0 is a node of the 3-point rule on [-1, 1], so a zero-control
# segment there has omega = 0 and the norm guard runs.
SYM_BOX = ParameterBox(-1.0, 1.0, 0.5, 1.5)

# Three segments, the middle one zero-control; the sample at 0.3 lies about
# 1e-10 after the first boundary (an angle below 1e-8), the first lattice
# sample of its segment.
MIXED = ((0.3 - 1e-10, 1.0, -0.5), (0.25, 0.0, 0.0), (0.2, -1.1, 0.6))
RE_W2 = X1 * X1 - X2 * X2
RE_W6 = X1**6 - 15 * X1**4 * X2**2 + 15 * X1**2 * X2**4 - X2**6


@pytest.mark.parametrize(
    "schedule, dt, phi, block",
    [
        # the sample at 0.3 lies about 1e-10 after the boundary: a tiny angle
        (((0.3 - 1e-10, 1.0, -0.5), (0.4, -0.7, 0.2)), 0.1, X3, None),
        (((0.25, 0.8, 0.3), (0.3, 0.0, 0.0), (0.2, -1.1, 0.6)), 0.05, X3, None),
        (((0.3, 0.5, 0.5), (0.2, -0.4, 1.3)), 10.0, X3, None),
        (((0.4, 1.2, -0.3), (0.3, -0.8, 0.9), (0.15, 0.0, 0.0)), 0.03, X1 * X2 * X3, None),
        ((), 0.1, X3, None),
        (MIXED, 0.03, X1, None),
        (MIXED, 0.03, X1 * X2, None),
        (MIXED, 0.03, Poly.constant(3), None),
        (MIXED, 0.03, Poly.zero(), None),
        (MIXED, 0.03, RE_W2, None),
        (MIXED, 0.03, RE_W6, None),
        # dot chunks of 30 split the orbit set-up into sub-blocks of 10, 4
        # and 2 nodes; chunks of 5 sweep the 12-node grid in three
        (MIXED, 0.03, X3, 30),
        (MIXED, 0.03, X1 * X2 * X3, 30),
        (MIXED, 0.03, RE_W6, 30),
        (MIXED, 0.03, X1 * X2, 5),
    ],
    ids=[
        "near-boundary",
        "zero-control",
        "dt-beyond-duration",
        "x1x2x3",
        "empty",
        "x1",
        "x1x2",
        "constant",
        "zero-poly",
        "re-w2",
        "re-w6",
        "block-30-x3",
        "block-30-x1x2x3",
        "block-30-re-w6",
        "block-5-x1x2",
    ],
)
def test_simulate_matches_per_sample_reference(schedule, dt, phi, block, monkeypatch):
    """Within ACCURACY of the exact flow, as the float formula rotating from
    the segment start at every sample is, for observables that read one, two,
    three or no coordinates, and with several orbit sub-blocks or dot chunks;
    the times and y(0) are exact."""
    if block is not None:
        monkeypatch.setattr(ensemble, "_DOT_CHUNK", block)
    grid = make_grid(SYM_BOX, 3, 4)
    assert np.any(grid.nodes[:, 0] == 0.0)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    density = gaussian_density(grid, (0.1, 1.0), (0.6, 0.6))
    schedule = ControlSchedule(schedule)
    times, values = _simulate_reference(profile, grid, density, schedule, phi, dt)
    trace = simulate(profile, grid, density, schedule, phi, dt)
    assert np.array_equal(trace.times, times)
    assert trace.values[0] == output(profile, grid, density, phi)
    exact = _decimal_trace(profile, grid, density, schedule, phi, dt)
    assert _error(trace.values, exact) <= ACCURACY
    assert _error(values, exact) <= ACCURACY


class _Rotation:
    """The sequential sampler simulate used before its bounded working set,
    kept as the bit reference: a segment's norms, unit axes, and cross and dot
    products with its start states over all nodes, set up once; then the
    rotation formula as one expression per duration."""

    def __init__(self, states, omega):
        self.states = states
        self.norms = np.linalg.norm(omega, axis=1)
        self.axis = omega / np.where(self.norms == 0.0, 1.0, self.norms)[:, None]
        self.cross = np.cross(self.axis, states)
        self.dot = np.einsum("ij,ij->i", self.axis, states)

    def __call__(self, tau):
        angles = self.norms * tau
        cos, sin = np.cos(angles), np.sin(angles)
        return (
            self.states * cos[:, None]
            + self.cross * sin[:, None]
            + self.axis * (self.dot * (1.0 - cos))[:, None]
        )


def _sequential_states(states, grid, schedule, dt):
    """The states at each sample time and, last, at the end of the schedule,
    one sample at a time through _Rotation."""
    times, boundaries, slack = _sample_times(schedule, dt)
    i = 0
    for k, (tau, u1, u2) in enumerate(schedule.segments):
        rotation = _Rotation(states, ensemble.segment_axis(grid.nodes, (u1, u2)))
        while i < len(times) and times[i] <= boundaries[k + 1] + slack:
            yield rotation(times[i] - boundaries[k]) if times[i] > boundaries[k] else states
            i += 1
        states = rotation(tau)
    for _ in times[i:]:
        yield states
    yield states


def _chunked_dot(x, y):
    """np.dot over consecutive 8,192-element chunks, added in order: the sum
    row_dots forms, whose bits no BLAS thread count changes."""
    total = np.dot(x[:8192], y[:8192])
    for lo in range(8192, len(x), 8192):
        total += np.dot(x[lo : lo + 8192], y[lo : lo + 8192])
    return total


def _simulate_sequential(pairs, grid, schedule, phi, dt):
    """simulate's sample times, values per pair and stacked final states, one
    pair and one sample at a time."""
    times, _, _ = _sample_times(schedule, dt)
    phi_eval = compile_phi(phi)
    values, finals = [], []
    for profile, density in pairs:
        base = grid.weights * density.values
        *samples, final = _sequential_states(profile.states, grid, schedule, dt)
        values.append(np.array([float(_chunked_dot(base, phi_eval(x))) for x in samples]))
        finals.append(final)
    return np.array(times), values, np.concatenate(finals)


# The schedule of the sequential-reference tests: the sample at 0.3 lies about
# 1e-10 after the first boundary, the 1e-9 segment turns every node by less
# than 1e-8, and the last segment has zero control.
SEQUENTIAL = ((0.3 - 1e-10, 1.0, -0.5), (1e-9, 0.7, 1.9), (0.25, -1.1, 0.6), (0.2, 0.0, 0.0))
SEQ_PHIS = [Poly.constant(3), X3, X1 * X2, X1 * X2 * X3]
SEQ_IDS = ["constant", "x3", "x1x2", "x1x2x3"]


@pytest.mark.parametrize("phi", SEQ_PHIS, ids=SEQ_IDS)
@pytest.mark.parametrize(
    "n1, n2, dt",
    [(1, 1, 0.03), (3, 5, 0.03), (3, 5, 10.0), (16, 17, 0.02), (64, 65, 0.05), (101, 103, 0.07)],
    ids=["1x1", "3x5", "3x5-dt-beyond-duration", "16x17", "64x65", "101x103"],
)
def test_simulate_matches_sequential_reference(n1, n2, dt, phi):
    """Values within twice ACCURACY of the sequential sampler's (each is
    within ACCURACY of the exact flow where that is computed) and y(0) and
    the final states its bits, on grids that split into uneven dot chunks
    (101 x 103) and orbit sub-blocks; the final states are evolve_profile's.
    The caller's states are not written."""
    grid = make_grid(SYM_BOX, n1, n2)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    start = profile.states.copy()
    density = gaussian_density(grid, (0.1, 1.0), (0.6, 0.6))
    schedule = ControlSchedule(SEQUENTIAL)
    times, (values,), final = _simulate_sequential([(profile, density)], grid, schedule, phi, dt)
    trace = simulate(profile, grid, density, schedule, phi, dt)
    assert np.array_equal(trace.times, times)
    assert trace.values[0] == values[0]
    assert _error(trace.values, values) <= 2 * ACCURACY
    assert trace.states.tobytes() == final.tobytes()
    assert trace.states.tobytes() == evolve_profile(profile, grid, schedule).states.tobytes()
    assert profile.states.tobytes() == start.tobytes()


@pytest.mark.parametrize("phi", SEQ_PHIS, ids=SEQ_IDS)
@pytest.mark.parametrize(
    "n1, n2",
    [(1, 1), (3, 5), (11, 13), (64, 65), (71, 73), (91, 91)],
    ids=["1x1", "3x5", "11x13", "64x65", "71x73", "91x91"],
)
def test_equivalence_matches_sequential_reference(n1, n2, phi):
    """Two stacked pairs (8,281 nodes per pair on the 91 x 91 grid, so two
    dot chunks per pair, the second of 89 nodes) give each pair the values
    of its own simulate, bit for bit, within twice ACCURACY of the
    sequential sampler's, and its final states; output_equiv_test gives the
    sequential sampler's verdict, its gap within twice that (once per pair)."""
    grid = make_grid(SYM_BOX, n1, n2)
    pair_a = (
        angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4)),
        gaussian_density(grid, (0.5, 1.0), (0.6, 0.6)),
    )
    pair_b = (
        angles_profile(grid, (math.pi - 0.8, -0.5, -0.3), (0.2 + math.pi, 0.9, -0.4)),
        gaussian_density(grid, (0.45, 1.05), (0.6, 0.6)),
    )
    schedule = ControlSchedule(SEQUENTIAL)
    expected = _simulate_sequential([pair_a, pair_b], grid, schedule, phi, 0.05)
    times, values, final = ensemble._simulate_pairs([pair_a, pair_b], grid, schedule, phi, 0.05)
    assert np.array_equal(times, expected[0])
    for pair, got, want in zip((pair_a, pair_b), values, expected[1]):
        assert got.tobytes() == simulate(pair[0], grid, pair[1], schedule, phi, 0.05).values.tobytes()
        assert got[0] == want[0] and _error(got, want) <= 2 * ACCURACY
    assert final.tobytes() == expected[2].tobytes()
    verdict = output_equiv_test(pair_a, pair_b, grid, phi, trials=2, seed=3, tol=1e-9)
    kind, gap, time, trial, drawn = _equiv_test_reference(pair_a, pair_b, grid, phi, trials=2, seed=3, tol=1e-9)
    assert (verdict.kind, verdict.time, verdict.trial, verdict.schedule) == (kind, time, trial, drawn)
    scale = max(float(np.max(np.abs(v))) for v in expected[1])
    assert abs(verdict.gap - gap) <= 4 * ACCURACY * scale


@pytest.mark.parametrize(
    "phi, n, bound",
    [(X3, 128, 128), (X1 * X2, 128, 154), (X3, 256, 52), (X1 * X2, 256, 53)],
    ids=["x3", "x1x2", "x3-256", "x1x2-256"],
)
def test_simulate_peak_memory_per_node(phi, n, bound):
    """simulate keeps per segment only one dot chunk's set-up, so its peak
    per node falls as the grid grows.  Its traced peak is 88.8 (x3) and
    103.5 (x1x2) bytes per node on a 128 x 128 grid, and 40.1 and 43.9 on a
    256 x 256 grid; the 256 x 256 bounds allow 10% more than the 47 and 48
    taken when they were set.  Keeping the set-up over all nodes took 116
    and 140 at 128 x 128, and 113 and 137 at 256 x 256; the 128 x 128 bounds
    allow 10% more than that.  Holding the segment's full omega, axis and
    cross arrays and a 3-coordinate sample buffer took 197 for both."""
    import tracemalloc

    grid = make_grid(BOX, n, n)
    profile = angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4))
    density = gaussian_density(grid, (0.5, 1.0), (0.6, 0.6))
    rng = np.random.default_rng(0)
    schedule = ControlSchedule(
        tuple(
            (float(rng.uniform(0.1, 1)), float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            for _ in range(20)
        )
    )
    tracemalloc.start()
    try:
        simulate(profile, grid, density, schedule, phi, schedule.total_duration / 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.size <= bound


@pytest.mark.parametrize("block", [None, 30, 5], ids=["default-block", "block-30", "block-5"])
def test_rotation_samples_match_calls(block, monkeypatch):
    """phi is evaluated one dot chunk at a time through the whole schedule:
    on the chunk's states at t = 0 and at each segment end, with the bits of
    successive rotate_states calls, and per segment on each node's 2d turned
    orbit points only, whatever the number of samples: its rotations by
    +-2 pi l / (2d + 1) about the segment's axis (x cos for a zero axis).
    So each segment-start state reaches phi once, as t = 0 or the previous
    segment end, and a node costs 2d + 1 rows per segment.  Dot chunks of 30
    split the orbit set-up into sub-blocks, and chunks of 5 sweep the grid in
    three, the last of 2 nodes; a constant phi has no turned points.  The
    schedule has a sample 1e-10 after a boundary and zero-control nodes
    (omega = 0)."""
    if block is not None:
        monkeypatch.setattr(ensemble, "_DOT_CHUNK", block)
    chunk = ensemble._DOT_CHUNK
    grid = make_grid(SYM_BOX, 3, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    schedule = ControlSchedule(MIXED)
    starts = [profile.states]  # the states at t = 0 and at each segment end
    for tau, u1, u2 in schedule.segments:
        starts.append(rotate_states(starts[-1], grid.nodes, (u1, u2), tau))
    compile_phi_ = ensemble.compile_phi
    blocks = []

    def capturing(phi):
        evaluate = compile_phi_(phi)
        return lambda states: (blocks.append(states.copy()), evaluate(states))[1]

    monkeypatch.setattr(ensemble, "compile_phi", capturing)
    for phi in (X3, X1 * X2, X1 * X2 * X3, Poly.constant(3), X1 * X3):
        blocks.clear()
        simulate(profile, grid, uniform_density(grid), schedule, phi, 0.03)
        axes = ensemble.read_axes(phi)
        count = 2 * max(sum(e) for e, _ in phi.sorted_terms()) + 1
        turns = 2 * math.pi / count * np.arange(1, count // 2 + 1)
        turns = np.concatenate([turns, -turns])
        sub = max(1, chunk // count)
        assert sum(map(len, blocks)) == grid.size * (1 + len(schedule.segments) * count)
        calls = iter(blocks)
        for lo in range(0, grid.size, chunk):
            ns = slice(lo, lo + chunk)
            assert next(calls).tobytes() == starts[0][ns].tobytes()
            for (_, u1, u2), x, end in zip(schedule.segments, starts, starts[1:]):
                omega = ensemble.segment_axis(grid.nodes[ns], (u1, u2))
                norms = np.linalg.norm(omega, axis=1)[:, None]
                axis = omega / np.where(norms == 0.0, 1.0, norms)
                for s in range(0, len(omega), sub):
                    got = next(calls)
                    xs, a = x[ns][s : s + sub], axis[s : s + sub]
                    assert got.shape == ((count - 1) * len(xs), len(axes))
                    points = got.reshape(count - 1, len(xs), len(axes))
                    for point, turn in zip(points, turns):
                        dot = np.einsum("ij,ij->i", a, xs)[:, None]
                        cos, sin = math.cos(turn), math.sin(turn)
                        want = xs * cos + np.cross(a, xs) * sin + a * dot * (1 - cos)
                        assert np.max(np.abs(point - want[:, axes]), initial=0.0) <= 1e-15
                assert next(calls).tobytes() == end[ns].tobytes()
        assert next(calls, None) is None


@pytest.mark.parametrize(
    "phi, schedule, dt, bound",
    [
        (X3 + X1 * X2 + 3, MIXED, 0.03, ACCURACY),
        (Poly.constant(3), MIXED, 0.03, ACCURACY),
        (X3, ((50.0, 1.3, -0.4),), 0.01, LONG_ACCURACY),
        (X1 * X2, ((50.0, 1.3, -0.4),), 0.01, LONG_ACCURACY),
    ],
    ids=["non-homogeneous", "constant", "x3-50s", "x1x2-50s"],
)
def test_simulate_orbit_edge_cases_within_accuracy(phi, schedule, dt, bound):
    """A phi with terms of degrees 0, 1 and 2, and a constant phi (one orbit
    point, no angle rows, an exactly flat trace); MIXED has a sample 1e-10
    after a boundary and a zero-control segment.  One 50 s segment at
    dt = 0.01 steps the angle rows 5,000 times, reseeding them every _RESEED
    samples.  simulate and the per-sample float formula both meet the bound."""
    grid = make_grid(SYM_BOX, 3, 2 if len(schedule) == 1 else 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    density = gaussian_density(grid, (0.1, 1.0), (0.6, 0.6))
    schedule = ControlSchedule(schedule)
    trace = simulate(profile, grid, density, schedule, phi, dt)
    times, values = _simulate_reference(profile, grid, density, schedule, phi, dt)
    assert np.array_equal(trace.times, times) and trace.values[0] == values[0]
    exact = _decimal_trace(profile, grid, density, schedule, phi, dt)
    assert _error(trace.values, exact) <= bound and _error(values, exact) <= bound
    if len(schedule.segments) > 1:
        assert np.any((trace.times > MIXED[0][0]) & (trace.times < MIXED[0][0] + 1e-9))
    else:
        assert len(trace.times) > 10 * ensemble._RESEED
    if phi == Poly.constant(3):
        assert np.all(trace.values == trace.values[0])


def _equiv_test_reference(pair_a, pair_b, grid, phi, trials, seed, tol, dt=0.05):
    """output_equiv_test one pair and one sample at a time, kept as the
    reference for the one-pass pair simulation."""
    rng = random.Random(seed)
    worst = 0.0
    for trial in range(trials):
        schedule = ensemble.random_schedule(rng)
        times, (a, b), _ = _simulate_sequential([pair_a, pair_b], grid, schedule, phi, dt)
        gaps = np.abs(a - b)
        exceeding = np.nonzero(gaps > tol)[0]
        if exceeding.size:
            idx = int(exceeding[0])
            return ("distinguished", float(gaps[idx]), float(times[idx]), trial, schedule)
        worst = max(worst, float(gaps.max()))
    return ("equivalent-so-far", worst, None, None, None)


@pytest.mark.parametrize(
    "phi, n, tol",
    [
        (X3, 4, 1e-9),
        (X3, 4, 10.0),
        (X1 * X2, 4, 1e-9),
        (X3, 23, 1e-9),
        (X1 * X2, 23, 1e-9),
    ],
    ids=["x3-distinguished", "x3-large-tol", "x1x2-antipodal", "x3-529-nodes", "x1x2-529-nodes"],
)
def test_equivalence_matches_two_simulations(phi, n, tol):
    """Both pairs in one pass give each pair simulate's bits, also on a
    23 x 23 grid, and the verdict of the sequential
    sampler, its gap within twice ACCURACY (once per pair).  The antipode is
    built from the angle maps, so x1x2's gaps are roundoff, not exact zeros;
    for x3 the second pair also has its own density."""
    grid = make_grid(BOX, n, n)
    pair_a = (
        angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4)),
        gaussian_density(grid, (0.5, 1.0), (0.6, 0.6)),
    )
    antipode = angles_profile(grid, (math.pi - 0.8, -0.5, -0.3), (0.2 + math.pi, 0.9, -0.4))
    pair_b = (antipode, gaussian_density(grid, (0.45, 1.05), (0.6, 0.6)) if phi == X3 else pair_a[1])
    schedule = ensemble.random_schedule(random.Random(5))
    times, values, _ = ensemble._simulate_pairs([pair_a, pair_b], grid, schedule, phi, 0.05)
    for (profile, density), got in zip((pair_a, pair_b), values):
        trace = simulate(profile, grid, density, schedule, phi, 0.05)
        assert np.array_equal(times, trace.times) and np.array_equal(got, trace.values)
    verdict = output_equiv_test(pair_a, pair_b, grid, phi, trials=3, seed=5, tol=tol)
    kind, gap, time, trial, schedule = _equiv_test_reference(
        pair_a, pair_b, grid, phi, trials=3, seed=5, tol=tol
    )
    assert (verdict.kind, verdict.time, verdict.trial) == (kind, time, trial)
    assert verdict.schedule == schedule
    scale = max(float(np.max(np.abs(v))) for v in values)
    assert abs(verdict.gap - gap) <= 4 * ACCURACY * scale
    assert (kind == "distinguished") == (phi == X3 and tol < 1)
    assert gap > 0 and verdict.gap > 0


def test_simulate_rejects_nan_dt():
    """dt <= 0 is false for NaN, which used to sample only the boundaries."""
    grid = make_grid(BOX, 2, 2)
    profile = constant_profile(grid, (0, 0, 1))
    schedule = ControlSchedule(((0.5, 1.0, 0.0), (0.3, 0.0, 1.0)))
    with pytest.raises(ValueError):
        simulate(profile, grid, uniform_density(grid), schedule, X3, dt=float("nan"))
    pair = (profile, uniform_density(grid))
    with pytest.raises(ValueError):
        output_equiv_test(pair, pair, grid, X3, trials=2, seed=0, tol=1e-12, dt=float("nan"))


@pytest.mark.parametrize(
    "segment",
    [
        (float("nan"), 1.0, 0.0),
        (float("inf"), 1.0, 0.0),
        (0.5, float("nan"), 0.0),
        (0.5, 0.0, float("inf")),
        (0.5, -float("inf"), 0.0),
    ],
    ids=["nan-duration", "inf-duration", "nan-u1", "inf-u2", "minus-inf-u1"],
)
def test_schedule_rejects_non_finite_segments(segment):
    """NaN controls gave an all-NaN trace, and an infinite duration would
    never end simulate's sampling loop."""
    with pytest.raises(ValueError):
        ControlSchedule(((0.2, 0.5, 0.5), segment))


def _rotate_one_expression(states, omega, tau):
    """The rotation formula as a single expression, kept as the bit reference."""
    norms = np.linalg.norm(omega, axis=1)
    angles = norms * tau
    axis = omega / np.where(norms == 0.0, 1.0, norms)[:, None]
    cross = np.cross(axis, states)
    dot = np.einsum("ij,ij->i", axis, states)
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    return states * cos + cross * sin + axis * (dot * (1.0 - cos.ravel()))[:, None]


def test_rotation_plan_norms_match_linalg_norm():
    """RotationPlan sums the squared omega columns in np.linalg.norm's order,
    so its norms have np.linalg.norm's bits: over entries of magnitude 1e-3
    to 1e3, mixed within a row, and on zero rows."""
    rng = np.random.default_rng(7)
    for rows in (1, 7, 8192, 36864):
        omega = rng.uniform(-1.0, 1.0, (rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 3))
        omega[::5] = 0.0
        norms = ensemble.RotationPlan(omega).norms
        assert norms.tobytes() == np.linalg.norm(omega, axis=1).tobytes()


@pytest.mark.parametrize("tau", [0.7, -0.3, 1e-10, 0.0])
def test_rotate_states_matches_one_expression_formula(tau):
    grid = make_grid(SYM_BOX, 5, 4)
    states = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4)).states
    for u in ((0.8, -1.3), (0.0, 0.0)):
        expected = _rotate_one_expression(states, ensemble.segment_axis(grid.nodes, u), tau)
        assert np.array_equal(rotate_states(states, grid.nodes, u, tau), expected)


def test_evolve_profile_matches_successive_rotations():
    grid = make_grid(SYM_BOX, 3, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    schedule = ControlSchedule(((0.25, 0.8, 0.3), (0.3, 0.0, 0.0), (1e-9, -1.1, 0.6)))
    states = profile.states
    for tau, u1, u2 in schedule.segments:
        states = rotate_states(states, grid.nodes, (u1, u2), tau)
    assert np.array_equal(evolve_profile(profile, grid, schedule).states, states)


def test_simulate_sets_up_each_segment_once(monkeypatch):
    """One rotation set-up per node block and segment, not one per sample,
    and none for the segment end, which rotates from the same set-up: 5
    segments and about 60 samples give 5 set-ups per block, all without a
    duration, in one block of the 9 nodes, and with dot chunks of 4 nodes in
    blocks of 4, 4 and 1, each block running the whole schedule before the
    next."""
    grid = make_grid(BOX, 3, 3)
    profile = angles_profile(grid, (0.4, 0.3, 0.2), (0.1, 0.5, -0.3))
    schedule = ControlSchedule(
        ((0.2, 1.0, 0.0), (0.5, 0.0, 1.0), (0.1, -0.6, 0.4), (0.3, 0.0, 0.0), (0.4, 0.9, -1.2))
    )
    plans = []
    plan = ensemble.RotationPlan

    def counting(omega, tau=None):
        plans.append((len(omega), tau))
        return plan(omega, tau)

    monkeypatch.setattr(ensemble, "RotationPlan", counting)
    for chunk, sizes in ((ensemble._DOT_CHUNK, [grid.size]), (4, [4, 4, 1])):
        monkeypatch.setattr(ensemble, "_DOT_CHUNK", chunk)
        plans.clear()
        trace = simulate(profile, grid, uniform_density(grid), schedule, X3, dt=0.025)
        assert len(trace.times) > 60
        assert plans == [(size, None) for size in sizes for _ in schedule.segments]


def _write_csv_per_row(path, header, rows):
    """Per-row writer formatting numpy scalars, kept as the byte reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.mark.parametrize("block", [None, 4], ids=["default-block", "block-4"])
def test_csv_writers_match_per_row_reference(tmp_path, monkeypatch, block):
    """Blocked writers give the bytes of the per-row writer; 7 x 5 nodes are
    not a multiple of either block size."""
    if block is not None:
        monkeypatch.setattr(ensemble, "_CSV_BLOCK", block)
    grid = make_grid(BOX, 7, 5)
    assert grid.size % ensemble._CSV_BLOCK
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    states = profile.states.copy()
    states[0] = (-0.0, 0.0, 1.0)
    density = gaussian_density(grid, (0.5, 1.0), (0.6, 0.6))
    write_profile_csv(Profile(states), grid, density, tmp_path / "profile.csv")
    rows = [
        (*grid.nodes[j], grid.weights[j], density.values[j], *states[j])
        for j in range(grid.size)
    ]
    _write_csv_per_row(tmp_path / "ref.csv", "sigma1,sigma2,weight,rho,x1,x2,x3\n", rows)
    assert (tmp_path / "profile.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    schedule = ControlSchedule(((0.3, 1.0, -0.5), (0.4, -0.7, 0.2)))
    trace = simulate(profile, grid, density, schedule, X1 * X2, dt=0.07)
    write_trace_csv(trace, tmp_path / "trace.csv")
    _write_csv_per_row(tmp_path / "ref.csv", "t,y\n", zip(trace.times, trace.values))
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "k, rows",
    [(3, 5), (3, 10_007), (64, 5), (64, 10_007), (8192, 5), (10_001, 5), (36_864, 5)],
)
def test_row_dots_match_per_row_dot(k, rows):
    """Each stacked row dot has the bits of np.dot on its two rows, summed
    over 8,192-element chunks in order, for a second stack of rows, for one
    vector broadcast against the stack (the forms stitch_signs, the report,
    output and the moments use) and for a (samples, pairs, k) stack against
    one row per pair (simulate's samples).  Up to 8,192 elements that is
    np.dot itself; rows longer than 10,000 would go to the BLAS dot whole."""
    rng = np.random.default_rng(k + rows)
    a = rng.normal(size=(rows, k)) * rng.uniform(1e-3, 1e3, size=(rows, 1))
    b = rng.normal(size=(rows, k))
    per_row = np.array([_chunked_dot(x, y) for x, y in zip(a, b)])
    assert ensemble.row_dots(a, b).tobytes() == per_row.tobytes()
    base = b[0]
    per_row = np.array([_chunked_dot(base, x) for x in a])
    assert ensemble.row_dots(a, base).tobytes() == per_row.tobytes()
    samples = a[: rows - rows % 2].reshape(-1, 2, k)
    per_row = np.array([[_chunked_dot(x, y) for x, y in zip(sample, b[:2])] for sample in samples])
    assert ensemble.row_dots(samples, b[:2]).tobytes() == per_row.tobytes()
    if k <= 8192:
        assert per_row.tobytes() == np.array(
            [[np.dot(x, y) for x, y in zip(sample, b[:2])] for sample in samples]
        ).tobytes()


def _one_expression_grid(box, n1, n2):
    """make_grid's nodes and weights as repeat/tile/stack built them."""
    x1, w1 = np.polynomial.legendre.leggauss(n1)
    x2, w2 = np.polynomial.legendre.leggauss(n2)
    s1 = box.a1 + (x1 + 1.0) * (box.b1 - box.a1) / 2.0
    s2 = box.a2 + (x2 + 1.0) * (box.b2 - box.a2) / 2.0
    w1 = w1 * (box.b1 - box.a1) / 2.0
    w2 = w2 * (box.b2 - box.a2) / 2.0
    return np.stack([np.repeat(s1, n2), np.tile(s2, n1)], axis=1), np.outer(w1, w2).ravel()


BUILDER_GRIDS = [(1, 1), (1, 4), (5, 3), (8, 8), (17, 23), (64, 48)]


@pytest.mark.parametrize("box", [BOX, SYM_BOX], ids=["box", "sym-box"])
@pytest.mark.parametrize("n1, n2", BUILDER_GRIDS, ids=[f"{a}x{b}" for a, b in BUILDER_GRIDS])
def test_grid_density_and_profile_builders_match_one_expression_formulas(box, n1, n2):
    """make_grid, gaussian_density, angles_profile and table_profile write
    their results in place; each keeps the bits of the one-expression
    formula it replaced, and table_profile leaves the caller's rows alone."""
    grid = make_grid(box, n1, n2)
    nodes, weights = _one_expression_grid(box, n1, n2)
    assert grid.nodes.shape == nodes.shape and grid.weights.shape == weights.shape
    assert grid.nodes.tobytes() == nodes.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    s1, s2 = nodes.T
    for (c1, c2), (w1, w2), amplitude in [
        ((0.5, 1.0), (0.6, 0.6), 1.0),
        ((-0.3, 0.7), (0.25, 1.7), 2.5),
    ]:
        d1 = (s1 - c1) / w1
        d2 = (s2 - c2) / w2
        expected = amplitude * np.exp(-0.5 * (d1 * d1 + d2 * d2))
        density = gaussian_density(grid, (c1, c2), (w1, w2), amplitude)
        assert density.values.tobytes() == expected.tobytes()
    for (t0, t1, t2), (p0, p1, p2) in [
        ((0.8, 0.5, 0.3), (0.2, 0.9, -0.4)),
        ((2.0, -1.3, 0.7), (-0.5, 3.1, 1.9)),
    ]:
        theta = t0 + t1 * s1 + t2 * s2
        phi = p0 + p1 * s1 + p2 * s2
        expected = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
        )
        profile = angles_profile(grid, (t0, t1, t2), (p0, p1, p2))
        assert profile.states.tobytes() == expected.tobytes()
    rows = expected * (1.0 + 1e-7 * np.sin(np.arange(grid.size)))[:, None]
    given = rows.copy()
    expected = rows / np.linalg.norm(rows, axis=1)[:, None]
    assert table_profile(grid, given).states.tobytes() == expected.tobytes()
    assert table_profile(grid, rows.tolist()).states.tobytes() == expected.tobytes()
    assert given.tobytes() == rows.tobytes()


def test_make_grid_builds_one_rule_per_distinct_size(monkeypatch):
    """A square grid computes its Gauss-Legendre rule once."""
    leggauss = np.polynomial.legendre.leggauss
    sizes = []

    def counted(n):
        sizes.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    make_grid(BOX, 6, 6)
    make_grid(BOX, 6, 4)
    assert sizes == [6, 6, 4]
