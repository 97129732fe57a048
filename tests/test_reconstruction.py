import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from blochobs.ensemble import (
    ParameterBox,
    angles_profile,
    compile_phi,
    compile_polys,
    constant_profile,
    gaussian_density,
    make_grid,
    output,
    table_density,
    uniform_density,
)
from blochobs.identities import (
    HarmonicBasis,
    example_basis,
    normalized_identity,
    real_harmonic_basis,
    verify_quadratic_identity,
)
from blochobs import identities, reconstruction
from blochobs.exactlinalg import certified_gram_schmidt
from blochobs.polynomials import Poly, X1, X2, X3
from blochobs.reconstruction import (
    _CHOICES,
    _UNMIX,
    InconsistentValuesError,
    OutputSimulator,
    PointInverter,
    ReconstructionConfig,
    StageError,
    WordTooLongError,
    _feature_basis,
    _feature_gram,
    feature_pairs,
    fit_psi,
    kappa_weights,
    measured_moment_table,
    measured_word_moments,
    oracle_psi_samples,
    reconstruct,
    recover_density,
    stitch_signs,
)
from blochobs.representation import (
    OperatorExpr,
    apply_word,
    coordinates,
    kappa_of_word,
    word_basis_search,
    xi,
)

BOX = ParameterBox(0.0, 1.0, 0.5, 1.5)
SYM_BOX = ParameterBox(-1.0, 1.0, 0.5, 1.5)


def smooth_truth(grid, widths=(0.6, 0.6)):
    profile = angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4))
    density = gaussian_density(grid, (0.5, 1.0), widths)
    return profile, density


def test_oracle_moments_empty_word_is_y0(oracle_table):
    grid = make_grid(BOX, 6, 6)
    truth = smooth_truth(grid)
    words = word_basis_search(X3)
    table = oracle_table(truth, grid, X3, words, D=0)
    y0 = output(truth[0], grid, truth[1], X3)
    assert table.shape == (len(words), 1)
    assert table[0, 0] == pytest.approx(y0, abs=1e-13)


def test_oracle_moments_zero_image_word(oracle_table):
    # f0 x3 = 0, so a moment built on that image vanishes identically
    grid = make_grid(BOX, 4, 4)
    truth = smooth_truth(grid)
    table = oracle_table(truth, grid, X3, [(0,)], D=1)
    assert table.shape == (1, 3)
    assert np.all(table == 0.0)


def test_oracle_moment_matches_direct_quadrature(oracle_table):
    grid = make_grid(BOX, 6, 6)
    profile, density = smooth_truth(grid)
    table = oracle_table((profile, density), grid, X3, [(1,)], D=0)
    direct = -float(
        np.dot(
            grid.weights,
            grid.nodes[:, 1] * profile.states[:, 0] * density.values,
        )
    )
    assert table[0, 0] == pytest.approx(direct, rel=1e-12)


def test_eigen_operator_moment_consistency():
    """Applying xi to the basis image multiplies every moment by -n(n+1)."""
    grid = make_grid(BOX, 8, 8)
    profile, density = smooth_truth(grid)
    phi = X3
    lam = -2.0
    for word in word_basis_search(phi):
        p = apply_word(word, phi)
        xi_p = xi().apply(p)
        sig = kappa_of_word(word)
        base = grid.weights * density.values
        from blochobs.ensemble import compile_phi

        m_xi = grid.nodes[:, 0] * grid.nodes[:, 1] ** 2
        kexp = grid.nodes[:, 0] ** sig.k1 * grid.nodes[:, 1] ** sig.k2
        lhs = float(np.dot(base, kexp * m_xi * compile_phi(xi_p)(profile.states)))
        rhs = lam * float(np.dot(base, kexp * m_xi * compile_phi(p)(profile.states)))
        if rhs == 0.0:
            assert lhs == pytest.approx(0.0, abs=1e-14)
        else:
            assert lhs == pytest.approx(rhs, rel=1e-10)


def _word_moment(sim, phi, word, fd_step):
    return float(measured_word_moments(sim, phi, len(word), fd_step)[len(word)][word])


def test_measured_moments_empty_word():
    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    sim = OutputSimulator(profile, grid, density)
    y0 = output(profile, grid, density, X3)
    assert _word_moment(sim, X3, (), fd_step=1e-2) == y0


@pytest.mark.parametrize("word", [(1,), (2,), (0,)])
def test_measured_moments_single_letters(oracle_table, word):
    grid = make_grid(BOX, 6, 6)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    oracle = oracle_table(truth, grid, X3, [word], D=0)[0, 0]
    measured = _word_moment(sim, X3, word, fd_step=1e-2)
    assert measured == pytest.approx(oracle, rel=1e-3, abs=1e-9)


def test_measured_moments_length_two_h2(oracle_table):
    grid = make_grid(BOX, 6, 6)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    phi = X1 * X2
    for word in [(1, 2), (0, 1)]:
        oracle = oracle_table(truth, grid, phi, [word], D=0)[0, 0]
        measured = _word_moment(sim, phi, word, fd_step=1e-2)
        assert measured == pytest.approx(oracle, rel=1e-2, abs=1e-8)


def test_measured_moments_word_cap():
    """A basis word longer than the cap raises even at D = 0."""
    grid = make_grid(BOX, 2, 2)
    profile, density = smooth_truth(grid)
    sim = OutputSimulator(profile, grid, density)
    with pytest.raises(WordTooLongError, match="length 5 > cap 4"):
        measured_moment_table(sim, X3, [(1, 2, 1, 2, 1)], D=0, fd_step=1e-2, fd_word_cap=4)


def _sequential_word_moments(sim, phi, length, fd_step):
    """Reference: one output_fn call per (control choice, sign) pattern, then
    the same signed sum, Richardson step and unmix."""
    y = sim.output_fn(phi)
    if length == 0:
        return np.array(y([], []))

    def mixed_central(us, h):
        total = 0.0
        for signs in product((-1.0, 1.0), repeat=length):
            prod_sign = 1.0
            for s in signs:
                prod_sign *= s
            total += prod_sign * y([s * h for s in signs], us)
        return total / (2.0 * h) ** length

    d_h = np.empty((3,) * length)
    d_h2 = np.empty((3,) * length)
    for assignment in product(range(3), repeat=length):
        us = [_CHOICES[c] for c in assignment]
        d_h[assignment] = mixed_central(us, fd_step)
        d_h2[assignment] = mixed_central(us, fd_step / 2.0)
    mixed = (4.0 * d_h2 - d_h) / 3.0
    for axis in range(length):
        mixed = np.moveaxis(np.tensordot(_UNMIX, mixed, axes=(1, axis)), 0, axis)
    return mixed


@pytest.mark.parametrize(
    "phi", [X3, X1 * X2, X1 * X1 - X2 * X2], ids=["x3", "x1x2", "re-w2"]
)
def test_measured_word_moments_match_sequential_reference(phi, monkeypatch):
    """The prefix-tree walk, with one phi evaluation per block of children,
    gives bit-identical moments, also when its blocks (here 4 nodes of 9)
    split a tree level."""
    grid = make_grid(BOX, 3, 3)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    reference = [_sequential_word_moments(sim, phi, k, 1e-2) for k in range(5)]
    for block in (OutputSimulator._BLOCK, 40):
        monkeypatch.setattr(OutputSimulator, "_BLOCK", block)
        moments = measured_word_moments(sim, phi, 4, 1e-2)
        assert len(moments) == 5
        for k in range(5):
            assert moments[k].shape == (3,) * k
            assert np.array_equal(moments[k], reference[k])


def test_measured_word_moments_rotate_each_tree_edge_once(monkeypatch):
    """Lengths 0..4 take under a thousand block rotations even with 4-node
    blocks, each tree edge once per step size, where one call per pattern
    and segment needs 2 * 4 * 6**4 = 10368 calls for length 4 alone."""
    grid = make_grid(BOX, 3, 3)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    rows = []
    rotate = reconstruction.rotate_planned

    def counting(states, *args):
        rows.append(states.shape[0])
        return rotate(states, *args)

    monkeypatch.setattr(reconstruction, "rotate_planned", counting)
    monkeypatch.setattr(OutputSimulator, "_BLOCK", 40)
    measured_word_moments(sim, X3, 4, 1e-2)
    assert len(rows) < 1000
    assert max(rows) <= 40
    assert sum(rows) == 2 * grid.size * sum(6**k for k in range(1, 5))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_output_tree_plans_each_segment_once(depth, monkeypatch):
    """One rotation plan per segment choice and step size, whatever the depth
    and however many blocks a level splits into; each plan is tiled to the
    block, here 4 node sets of the 9-node grid."""
    grid = make_grid(BOX, 3, 3)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    builds = []
    plan = reconstruction.RotationPlan

    def counting(omega, *args):
        builds.append(omega.shape[0])
        return plan(omega, *args)

    monkeypatch.setattr(reconstruction, "RotationPlan", counting)
    monkeypatch.setattr(OutputSimulator, "_BLOCK", 40)
    measured_word_moments(sim, X3, depth, 1e-2)
    assert builds == [4 * grid.size] * (2 * 6)


def test_measured_moment_table_low_order(oracle_table):
    """(a,b) = (1,0) entries need xi words: length 3 + base, within cap for phi words of length <= 1."""
    grid = make_grid(BOX, 5, 5)
    truth = smooth_truth(grid)
    sim = OutputSimulator(truth[0], grid, truth[1])
    words = [()]
    table = measured_moment_table(sim, X3, words, D=1, fd_step=2e-2, fd_word_cap=4)
    oracle = oracle_table(truth, grid, X3, words, D=1)
    assert table.shape == oracle.shape == (1, 3)
    for val, ref in zip(table.ravel(), oracle.ravel()):
        assert val == pytest.approx(ref, rel=2e-2, abs=1e-6)


def test_measured_moment_table_checks_cap_before_expanding(monkeypatch):
    """With the defaults (D = 6, cap 4) the first entry past the cap raises
    before any xi^a zeta^b is expanded, with the entry named in the message."""
    grid = make_grid(BOX, 2, 2)
    profile, density = smooth_truth(grid)
    sim = OutputSimulator(profile, grid, density)
    compose = OperatorExpr.compose
    calls = []

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(OperatorExpr, "compose", counted)
    with pytest.raises(WordTooLongError) as err:
        measured_moment_table(sim, X3, word_basis_search(X3), D=6, fd_step=1e-2, fd_word_cap=4)
    assert str(err.value) == "moment (0,0,2) needs word length 8 > cap 4"
    assert calls == []


def test_measured_moment_table_cap_exceeded():
    grid = make_grid(BOX, 2, 2)
    profile, density = smooth_truth(grid)
    sim = OutputSimulator(profile, grid, density)
    with pytest.raises(WordTooLongError):
        measured_moment_table(sim, X3, [()], D=2, fd_step=1e-2, fd_word_cap=4)


def _feature_moments(grid, D, targets):
    """Quadrature moments of each target against the features, one row per
    target in feature_pairs(D) order."""
    m_xi = grid.nodes[:, 0] * grid.nodes[:, 1] ** 2
    m_zeta = grid.nodes[:, 1] ** 4
    return np.array(
        [[np.dot(grid.weights, m_xi**a * m_zeta**b * t) for a, b in feature_pairs(D)]
         for t in targets]
    )


def test_fit_psi_constant_exact():
    grid = make_grid(BOX, 6, 6)
    (samples,) = fit_psi(_feature_moments(grid, 2, [np.ones(grid.size)]), grid, 2)
    np.testing.assert_allclose(samples, np.ones(grid.size), atol=1e-10)


def test_fit_psi_feature_exact():
    grid = make_grid(BOX, 8, 8)
    target = grid.nodes[:, 0] * grid.nodes[:, 1] ** 2  # m_xi lies in the feature span
    (samples,) = fit_psi(_feature_moments(grid, 3, [target]), grid, 3)
    np.testing.assert_allclose(samples, target, atol=1e-9)


def test_fit_psi_sin_improves_with_degree():
    grid = make_grid(BOX, 12, 12)
    target = np.sin(grid.nodes[:, 0])
    errors = []
    for D in (2, 4, 6):
        (samples,) = fit_psi(_feature_moments(grid, D, [target]), grid, D)
        err = math.sqrt(float(np.dot(grid.weights, (samples - target) ** 2)))
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_fit_psi_rows_match_one_row_fits_bit_for_bit():
    grid = make_grid(BOX, 9, 7)
    s1, s2 = grid.nodes.T
    targets = [np.sin(s1), np.cos(s2) * s1, np.exp(-s1 * s2), s2**3]
    moments = _feature_moments(grid, 5, targets)
    fitted = fit_psi(moments, grid, 5)
    assert fitted.shape == (len(targets), grid.size)
    for row, fit in zip(moments, fitted):
        (single,) = fit_psi(row[None, :], grid, 5)
        assert single.tobytes() == fit.tobytes()


def _dyadic(x):
    """The float x as n * 2**e, exactly."""
    n, d = float(x).as_integer_ratio()
    return n, 1 - d.bit_length()


def _exact_rel_error(value, terms):
    """|value - S| / sum |t|, for S the exact sum of the terms t, each a
    product of float powers given as (float, exponent) pairs: the error in
    units of the magnitude the float sum had to carry."""
    ints = []
    for term in terms:
        n, e = 1, 0
        for x, k in term:
            xn, xe = _dyadic(x)
            n, e = n * xn**k, e + xe * k
        ints.append((n, e))
    vn, ve = _dyadic(value)
    low = min(ve, *(e for _, e in ints))
    err = (vn << (ve - low)) - sum(n << (e - low) for n, e in ints)
    return abs(err) / sum(abs(n) << (e - low) for n, e in ints)


@pytest.mark.parametrize("n1, n2", [(7, 9), (33, 31), (91, 91), (128, 128)])
@pytest.mark.parametrize("box", [BOX, SYM_BOX], ids=["box", "sym-box"])
def test_fit_psi_matches_exact_expansion(box, n1, n2):
    """At sampled nodes, each fitted value is the exact value of
    sum_k c_k sigma1^a sigma2^(2a+4b) for the float coefficients c that
    fb.solve returns, within 1e-15 of the sum of the terms' magnitudes, at D
    up to 12: at most 2.8e-16 at these nodes, and 4.4e-16 over every node."""
    grid = make_grid(box, n1, n2)
    rng = np.random.default_rng(n1)
    worst = 0.0
    for D in (0, 1, 2, 3, 5, 6, 8, 10, 12):
        fb = _feature_basis(box, D)
        moments = rng.standard_normal((3, fb.size))
        fitted = fit_psi(moments, grid, D)
        nodes = rng.choice(grid.size, size=12, replace=False)
        for row, fit in zip(moments, fitted):
            c = fb.solve(row, 0.0)
            for j in nodes:
                s1, s2 = grid.nodes[j]
                terms = [((ck, 1), (s1, a), (s2, 2 * a + 4 * b)) for ck, (a, b) in zip(c, fb.pairs)]
                worst = max(worst, _exact_rel_error(fit[j], terms))
    assert worst <= 1e-15


@pytest.mark.parametrize("shape", [(3, 9), (3, 11), (10,)])
def test_fit_psi_rejects_moments_of_another_degree(shape):
    grid = make_grid(BOX, 4, 4)
    with pytest.raises(ValueError, match="one column per feature up to D=3, 10 in all"):
        fit_psi(np.zeros(shape), grid, 3)


def test_feature_pairs_order_is_shared(oracle_table):
    """The fit's features and the oracle's columns follow feature_pairs:
    by total degree, then a."""
    assert feature_pairs(2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert _feature_basis(BOX, 4).pairs == feature_pairs(4)
    grid = make_grid(BOX, 6, 6)
    truth = smooth_truth(grid)
    words = word_basis_search(X3)
    oracle = oracle_table(truth, grid, X3, words, D=3)
    polys = [apply_word(w, X3) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples(truth, polys, kexp)
    # Column k is the quadrature of feature k, to within 2.5e-16 of the sum
    # of the terms' magnitudes (1.3e-16 seen); another order misses by O(1).
    for row, p in zip(oracle, psi):
        for value, (a, b) in zip(row, feature_pairs(3)):
            terms = [
                ((w, 1), (v, 1), (s1, a), (s2, 2 * a + 4 * b))
                for (s1, s2), w, v in zip(grid.nodes, grid.weights, p)
            ]
            assert _exact_rel_error(value, terms) <= 2.5e-16


@pytest.mark.parametrize("mode", ["oracle-moments", "measured-moments"])
def test_reconstruct_evaluates_features_once(monkeypatch, mode):
    """The features are evaluated as one row of powers per axis, for all
    2n+1 psi_i; the (nodes, features) array of raw_values is never built."""
    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    raw_values = reconstruction.FeatureBasis.raw_values
    calls = []

    def counted(self, nodes):
        calls.append(len(nodes))
        return raw_values(self, nodes)

    monkeypatch.setattr(reconstruction.FeatureBasis, "raw_values", counted)
    cfg = ReconstructionConfig(mode, D=6 if mode == "oracle-moments" else 0)
    result = reconstruct(X3, grid, profile, density, cfg)
    assert len(result.diagnostics["words"]) == 3
    assert calls == []


def test_reconstruct_oracle_moments_weights_the_words_once(monkeypatch):
    """oracle-moments integrates the psi samples that oracle-psi builds, so
    the kappa weights of the words are evaluated once per run."""
    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    calls = []

    def counted(kappas, nodes):
        calls.append(len(kappas))
        return kappa_weights(kappas, nodes)

    monkeypatch.setattr(reconstruction, "kappa_weights", counted)
    reconstruct(X3, grid, profile, density, ReconstructionConfig("oracle-moments", D=2))
    assert calls == [3]


@pytest.mark.parametrize("mode", ["oracle-moments", "measured-moments"])
def test_reconstruct_fit_failure_names_the_fit_stage(monkeypatch, mode):
    """The feature basis is built inside the fit stage, so a Gram matrix
    that cannot be certified surfaces as a failure of stage 'fit'."""

    def uncertified(gram):
        raise ArithmeticError("Gram matrix not certified")

    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    monkeypatch.setattr(reconstruction, "certified_gram_schmidt", uncertified)
    _feature_basis.cache_clear()
    try:
        with pytest.raises(StageError) as err:
            reconstruct(X3, grid, profile, density, ReconstructionConfig(mode, D=0))
    finally:
        _feature_basis.cache_clear()
    assert err.value.stage == "fit"
    assert isinstance(err.value.cause, ArithmeticError)


@pytest.mark.parametrize("phi", [X3, X1 * X2, X1 * X2 * X3], ids=["x3", "x1x2", "x1x2x3"])
@pytest.mark.parametrize("box", [BOX, SYM_BOX], ids=["box", "sym-box"])
@pytest.mark.parametrize("n1, n2", [(1, 1), (5, 3), (17, 23)], ids=["1x1", "5x3", "17x23"])
def test_kappa_weights_and_psi_samples_match_one_expression_formulas(phi, box, n1, n2):
    """kappa_weights and oracle_psi_samples fill one preallocated array row
    by row, with the bits of the list of rows they replaced."""
    grid = make_grid(box, n1, n2)
    profile, density = smooth_truth(grid)
    words = word_basis_search(phi)
    kappas = [kappa_of_word(w) for w in words]
    kexp = kappa_weights(kappas, grid.nodes)
    s1, s2 = grid.nodes.T
    expected = np.array([s1**sig.k1 * s2**sig.k2 for sig in kappas])
    assert kexp.shape == expected.shape and kexp.tobytes() == expected.tobytes()
    polys = [apply_word(w, phi) for w in words]
    psi = oracle_psi_samples((profile, density), polys, kexp)
    expected = np.array(
        [k * compile_phi(p)(profile.states) * density.values for p, k in zip(polys, kexp)]
    )
    assert psi.shape == expected.shape and psi.tobytes() == expected.tobytes()


@pytest.mark.parametrize("D", [6, 12])
def test_reconstruct_peak_memory_per_node(D):
    """The moments and the fit sum over one axis's powers at a time and
    never hold the (N, K) features, so the traced peak of an oracle-moments
    run does not grow with the number of features: 145 bytes per node at
    D = 6 and at D = 12 on a 256 x 256 grid, with the feature basis
    already built.  The bound is 10% over the 193 measured while the
    density stage still held a divided copy of psi.  Evaluating the (N, K)
    features at once took 498 and 1,506."""
    import tracemalloc

    grid = make_grid(BOX, 256, 256)
    profile, density = smooth_truth(grid)
    _feature_basis(BOX, D)
    tracemalloc.start()
    try:
        reconstruct(X3, grid, profile, density, ReconstructionConfig("oracle-moments", D=D))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.size <= 213


def test_gram_min_pivot_is_the_smallest_certified_pivot():
    grid = make_grid(BOX, 12, 12)
    profile, density = smooth_truth(grid)
    cfg = ReconstructionConfig("oracle-moments", D=6)
    pivot = reconstruct(X3, grid, profile, density, cfg).diagnostics["gram_min_pivot"]
    exps = [(a, 2 * a + 4 * b) for a, b in _feature_basis(BOX, 6).pairs]
    _, pivots = certified_gram_schmidt(_feature_gram(BOX, exps))
    assert pivot > 0
    assert pivot == min(pivots)


def _word_images(phi, grid):
    """Word images of phi, their kappa weights on the grid, the exact change
    of basis into the normalized basis of phi's degree, and its identity."""
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    identity = normalized_identity(phi.homogeneous_degree)
    return polys, kexp, coordinates(polys, identity.basis.polys), identity


def test_recover_density_exact_n1():
    grid = make_grid(BOX, 8, 8)
    profile, density = smooth_truth(grid)
    polys, kexp, change, identity = _word_images(X3, grid)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    est, defined, _ = recover_density(psi, kexp, change, identity, rho_floor=1e-6)
    assert defined.all()
    rel = np.abs(est.values - density.values) / np.max(density.values)
    assert np.max(rel) <= 1e-10


def test_recover_density_n1_identity_structure():
    """For words {empty, 1, 2}: rho^2 = psi_0^2 + psi_1^2/s2^2 + psi_2^2/s2^2."""
    grid = make_grid(BOX, 5, 5)
    profile, density = smooth_truth(grid)
    phi = X3
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    s2 = grid.nodes[:, 1]
    rho_sq = psi[0] ** 2 + psi[1] ** 2 / s2**2 + psi[2] ** 2 / s2**2
    np.testing.assert_allclose(np.sqrt(rho_sq), density.values, rtol=1e-12)


def test_recover_density_zero_region_flagged():
    grid = make_grid(BOX, 6, 6)
    profile, density = smooth_truth(grid)
    vals = density.values.copy()
    dead = grid.nodes[:, 0] > 0.8
    vals[dead] = 0.0
    density = table_density(grid, vals)
    polys, kexp, change, identity = _word_images(X3, grid)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    est, defined, q = recover_density(psi, kexp, change, identity, rho_floor=1e-6)
    np.testing.assert_array_equal(defined, ~dead)
    assert np.all(np.isfinite(est.values))
    assert np.all(np.isnan(q[:, dead])) and np.all(np.isfinite(q[:, ~dead]))


def test_recover_density_vanishing_kappa_weight_is_undefined():
    """A fitted psi need not vanish where a kappa weight does (sigma1 = 0 for
    the drift word of x1x2); such nodes are undefined, with no division."""
    grid = make_grid(ParameterBox(-1.0, 1.0, 0.5, 1.5), 5, 4)
    _, kexp, change, identity = _word_images(X1 * X2, grid)
    zero = grid.nodes[:, 0] == 0.0
    assert zero.any() and np.all((kexp == 0.0).any(axis=0) == zero)
    psi = np.random.default_rng(7).uniform(0.5, 1.0, size=kexp.shape)
    with np.errstate(all="raise"):
        est, defined, q = recover_density(psi, kexp, change, identity, rho_floor=1e-6)
    assert not defined[zero].any()
    assert np.all(est.values[zero] == 0.0) and np.all(np.isfinite(est.values))
    assert np.all(np.isnan(q[:, zero]))


def test_recover_density_divides_psi_in_place():
    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    polys, kexp, change, identity = _word_images(X1 * X2 * X3, grid)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    expected = psi / kexp
    recover_density(psi, kexp, change, identity, rho_floor=1e-6)
    assert psi.tobytes() == expected.tobytes()


def test_normalized_values_roundtrip():
    """q / rho are the values of the normalized basis at the truth, and its
    diagonal form sums them to 1 at every node."""
    grid = make_grid(BOX, 6, 6)
    profile, density = smooth_truth(grid)
    polys, kexp, change, identity = _word_images(X1 * X2, grid)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    est, defined, q = recover_density(psi, kexp, change, identity, rho_floor=1e-6)
    assert defined.all()
    rel = np.abs(est.values - density.values) / np.max(density.values)
    assert np.max(rel) <= 1e-10
    values = q / est.values
    truth_values = compile_polys(identity.basis.polys)(profile.states)
    np.testing.assert_allclose(values, truth_values, atol=1e-10)
    diagonal = np.array([float(row[k]) for k, row in enumerate(identity.coeffs)])
    np.testing.assert_allclose(diagonal @ (values * values), np.ones(grid.size), atol=1e-10)


@pytest.mark.parametrize("n", range(1, 13))
def test_normalized_identity_is_power_of_two_scaled_and_diagonal(n):
    identity = normalized_identity(n)
    m = 2 * n + 1
    for k, (p, plain, row) in enumerate(
        zip(identity.basis.polys, real_harmonic_basis(n).polys, identity.coeffs)
    ):
        assert all(c == 0 for j, c in enumerate(row) if j != k)
        assert Fraction(1, 4) <= row[k] < 4
        (e, c), *_ = p.sorted_terms()
        ratio = c.re / plain.coefficient(e).re
        assert ratio > 0 and 1 in (ratio.numerator, ratio.denominator)
        assert bin(ratio.numerator * ratio.denominator).count("1") == 1
        assert p == plain.scale(ratio)
    assert len(identity.coeffs) == m
    assert verify_quadratic_identity(identity)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_one_normalized_basis_per_degree(n, monkeypatch):
    """Two observables of one degree are inverted in the same basis, built
    from one quadratic form over real_harmonic_basis(n) and none over word
    images."""
    built, bases = [], []
    form = identities.constant_quadratic_form

    def recording(basis):
        built.append(basis)
        return form(basis)

    class Recording(PointInverter):
        def __init__(self, basis):
            bases.append(basis)
            super().__init__(basis)

    monkeypatch.setattr(identities, "constant_quadratic_form", recording)
    monkeypatch.setattr(reconstruction, "PointInverter", Recording)
    normalized_identity.cache_clear()
    grid = make_grid(BOX, 4, 4)
    profile, density = smooth_truth(grid)
    for phi in (real_harmonic_basis(n).polys[0], real_harmonic_basis(n).polys[-1]):
        reconstruct(phi, grid, profile, density, ReconstructionConfig())
    assert bases[0] is bases[1] and bases[0] == normalized_identity(n).basis
    assert built == [real_harmonic_basis(n)]


def _invert_one(inverter, values):
    x, flag, _ = inverter.invert_with_residual(np.asarray(values, dtype=float)[:, None])
    return x[0], flag


def test_invert_point_n1_chart():
    basis = example_basis(1)
    x, flag = _invert_one(PointInverter(basis), (0.6, 0.0, 0.8))
    np.testing.assert_allclose(x, [0.6, 0.0, 0.8], atol=1e-12)
    assert flag == "unique"


def test_invert_point_n2_axis():
    basis = example_basis(2)
    vals_north = [float(p.evaluate((0, 0, 1)).real) for p in basis.polys]
    vals_south = [float(p.evaluate((0, 0, -1)).real) for p in basis.polys]
    assert vals_north == vals_south
    x, flag = _invert_one(PointInverter(basis), vals_north)
    np.testing.assert_allclose(x, [0, 0, 1], atol=1e-12)
    assert flag == "antipodal-pair"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invert_point_roundtrip(n):
    basis = real_harmonic_basis(n)
    inverter = PointInverter(basis)
    rng = np.random.default_rng(100 + n)
    xs = rng.normal(size=(300, 3))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    values = np.array([[float(p.evaluate(tuple(x)).real) for x in xs] for p in basis.polys])
    got, flag, _ = inverter.invert_with_residual(values)
    direct = np.linalg.norm(got - xs, axis=1)
    assert np.all(np.minimum(direct, np.linalg.norm(got + xs, axis=1)) <= 1e-9)
    if n % 2 == 1:
        assert flag == "unique"
        assert np.all(direct <= 1e-9)
    else:
        assert flag == "antipodal-pair"


def test_invert_point_special_points():
    basis = example_basis(3)
    inverter = PointInverter(basis)
    for x in ([0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, 0, 0]):
        x = np.array(x, dtype=float)
        values = [float(p.evaluate(tuple(x)).real) for p in basis.polys]
        got, flag = _invert_one(inverter, values)
        assert flag == "unique"
        np.testing.assert_allclose(got, x, atol=1e-9)


def test_invert_point_near_axis_degrades_gracefully():
    """Points almost on the x3-axis recover with error bounded by the offset."""
    for n in (2, 3):
        basis = real_harmonic_basis(n) if n == 3 else example_basis(2)
        inverter = PointInverter(basis)
        for eps in (1e-5, 1e-6, 1e-8):
            x = np.array([eps, eps, 1.0])
            x = x / np.linalg.norm(x)
            values = [float(p.evaluate(tuple(x)).real) for p in basis.polys]
            got, _ = _invert_one(inverter, values)
            err = min(np.linalg.norm(got - x), np.linalg.norm(got + x))
            assert err <= 3 * eps


def test_invert_point_rejects_garbage():
    basis = example_basis(2)
    inverter = PointInverter(basis)
    with pytest.raises(InconsistentValuesError):
        _invert_one(inverter, [5.0, -3.0, 2.0, 0.4, 0.1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invert_batch_mixed_points(n):
    basis = real_harmonic_basis(n)
    inverter = PointInverter(basis)
    inverter._BLOCK = 5  # the batch below spans several column blocks
    rng = np.random.default_rng(200 + n)
    random_pts = rng.normal(size=(20, 3))
    special = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    near = [[eps, eps, s] for eps in (1e-5, 1e-8) for s in (1.0, -1.0)]
    pts = np.vstack([random_pts, special, near]).astype(float)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    # Near-axis points recover with error bounded by their offset.
    tol = np.concatenate([np.full(len(random_pts) + len(special), 1e-9), [3e-5] * 2, [3e-8] * 2])
    values = np.array([[float(p.evaluate(tuple(x)).real) for x in pts] for p in basis.polys])

    got, flag, residuals = inverter.invert_with_residual(values)
    assert got.shape == pts.shape and residuals.shape == (len(pts),)
    direct = np.linalg.norm(got - pts, axis=1)
    if n % 2 == 1:
        assert flag == "unique"
        assert np.all(direct <= tol)
    else:
        assert flag == "antipodal-pair"
        assert np.all(np.minimum(direct, np.linalg.norm(got + pts, axis=1)) <= tol)
        for x in got:  # canonical representative: first nonzero of x3, x1, x2 positive
            lead = next(c for c in (x[2], x[0], x[1]) if c != 0)
            assert lead > 0
    # One column at a time agrees with the batch.
    for j in range(len(pts)):
        x, single_flag = _invert_one(inverter, values[:, j])
        assert single_flag == flag
        np.testing.assert_allclose(x, got[j], atol=1e-12)

    garbage = values.copy()
    garbage[:, [7, 20]] = rng.uniform(-5.0, 5.0, size=(values.shape[0], 2))
    with pytest.raises(InconsistentValuesError, match="column 7:"):
        inverter.invert_with_residual(garbage)


RE_W6 = X1**6 - 15 * X1**4 * X2**2 + 15 * X1**2 * X2**4 - X2**6
BASES = {
    **{
        f"words-{name}": (phi, None)
        for name, phi in (("x3", X3), ("x1x2", X1 * X2), ("x1x2x3", X1 * X2 * X3), ("re-w6", RE_W6))
    },
    **{f"harmonic-{n}": (None, n) for n in range(1, 7)},
}


def _basis(key):
    """A basis of H_n: the word images of an observable, or real_harmonic_basis(n)."""
    phi, n = BASES[key]
    if phi is None:
        return real_harmonic_basis(n), None
    words = word_basis_search(phi)
    return HarmonicBasis(phi.homogeneous_degree, tuple(apply_word(w, phi) for w in words)), words


def _reference_invert(inverter, evaluators, values):
    """PointInverter.invert_with_residual as it ranked before the basis had
    one evaluator: one evaluator per polynomial, and per column block the
    candidate slots one at a time against a running best with a strict '<'."""
    n = inverter.n

    def candidates(values):
        c1, c2 = inverter._transform.real @ values + 1j * (inverter._transform.imag @ values)
        for x3 in (1.0, -1.0):
            yield np.tile([0.0, 0.0, x3], (values.shape[1], 1)), True
        has_root = np.abs(c1) > 1e-15
        radius = np.abs(c1) ** (1.0 / n)
        base_angle = np.arctan2(c1.imag, c1.real) / n
        for mth in range(n):
            ang = base_angle + 2.0 * math.pi * mth / n
            w = radius * np.cos(ang) + 1j * (radius * np.sin(ang))
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.stack([w.real, w.imag, (c2 * w / c1).real], axis=1)
                norm = np.sqrt(np.sum(cand * cand, axis=1))
                points = cand / norm[:, None]
            yield points, has_root & (0.5 < norm) & (norm < 2.0)

    def residual(points, values):
        res = np.zeros(points.shape[0])
        for ev, row in zip(evaluators, values):
            np.maximum(res, np.abs(ev(points) - row), out=res)
        return res

    def rank(values):
        slots = candidates(values)
        best, _ = next(slots)
        best_res = residual(best, values)
        for points, usable in slots:
            res = residual(points, values)
            better = usable & (res < best_res)
            best[better] = points[better]
            best_res[better] = res[better]
        return best, best_res

    best = np.empty((values.shape[1], 3))
    best_res = np.empty(values.shape[1])
    for lo in range(0, values.shape[1], inverter._BLOCK):
        cols = slice(lo, lo + inverter._BLOCK)
        best[cols], best_res[cols] = rank(values[:, cols])
    scale = np.maximum(1.0, np.max(np.abs(values), axis=0))
    missed = np.flatnonzero(best_res > reconstruction.CONSISTENCY_TOL * scale)
    if missed.size:
        raise InconsistentValuesError(f"column {int(missed[0])}")
    if n % 2 == 0:
        return reconstruction._canonical_representative(best), "antipodal-pair", best_res
    return best, "unique", best_res


def _inversion_points():
    """Both poles, equator points, points 1e-9 off the axis, then 2,000
    random sphere points."""
    rng = np.random.default_rng(28)
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    equator = np.stack([np.cos(angles), np.sin(angles), np.zeros(16)], axis=1)
    off = [[1e-9, 0.0, 1.0], [0.0, -1e-9, -1.0], [1e-9, 1e-9, 1.0], [-1e-9, 1e-9, -1.0]]
    pts = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], equator, off, rng.normal(size=(2000, 3))])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("key", list(BASES))
def test_point_inverter_keeps_the_per_slot_ranking(key):
    """One evaluator per basis and one residual array per block return the
    points, flag and residuals of the per-polynomial, per-slot ranking bit for
    bit, with blocks of 1, 511, 512 and 513 columns and the full batch."""
    basis, _ = _basis(key)
    inverter = PointInverter(basis)
    evaluators = [compile_phi(p) for p in basis.polys]
    pts = _inversion_points()
    values = np.stack([ev(pts) for ev in evaluators])
    for count in (1, 511, 512, 513, len(pts)):
        for lo in {0, len(pts) - count}:
            v = values[:, lo : lo + count]
            got, flag, res = inverter.invert_with_residual(v)
            want, want_flag, want_res = _reference_invert(inverter, evaluators, v)
            assert flag == want_flag
            assert got.tobytes() == want.tobytes()
            assert res.tobytes() == want_res.tobytes()


@pytest.mark.parametrize("key", list(BASES))
@pytest.mark.parametrize("n1", [1, 17], ids=["1x1", "17x17"])
def test_oracle_psi_samples_rows_are_the_per_polynomial_formula(key, n1):
    """Every row of the one-evaluator psi samples is kexp_i * p_i(x) * rho
    with p_i from its own compile_phi, bit for bit."""
    basis, words = _basis(key)
    grid = make_grid(BOX, n1, n1)
    profile, density = smooth_truth(grid)
    if words is None:
        kexp = np.random.default_rng(3).uniform(0.5, 2.0, (len(basis.polys), grid.size))
    else:
        kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples((profile, density), basis.polys, kexp)
    assert psi.shape == (len(basis.polys), grid.size)
    for row, p, k in zip(psi, basis.polys, kexp):
        assert row.tobytes() == (k * compile_phi(p)(profile.states) * density.values).tobytes()


def test_reconstruct_compiles_one_evaluator_per_basis_list(monkeypatch):
    """oracle-psi compiles the word images once for the psi samples and once
    for the point inverter, and compiles no polynomial on its own."""
    compiled = []
    compile_polys = reconstruction.compile_polys

    def counting(polys):
        compiled.append(len(polys))
        return compile_polys(polys)

    def refuse(phi):
        raise AssertionError("a basis polynomial was compiled on its own")

    monkeypatch.setattr(reconstruction, "compile_polys", counting)
    monkeypatch.setattr(reconstruction, "compile_phi", refuse)
    grid = make_grid(BOX, 6, 6)
    profile, density = smooth_truth(grid)
    result = reconstruct(X1 * X2 * X3, grid, profile, density, ReconstructionConfig())
    assert not result.undefined_nodes
    assert compiled == [7, 7]


def test_stitch_signs_global_flip():
    grid = make_grid(BOX, 8, 8)
    profile, _ = smooth_truth(grid)
    truth = profile.states
    rng = np.random.default_rng(5)
    scrambled = truth * np.where(rng.random(grid.size) < 0.5, 1.0, -1.0)[:, None]
    defined = np.ones(grid.size, dtype=bool)
    stitched, components = stitch_signs(scrambled, defined, grid)
    assert components == 1
    err_direct = np.max(np.linalg.norm(stitched - truth, axis=1))
    err_flipped = np.max(np.linalg.norm(stitched + truth, axis=1))
    assert min(err_direct, err_flipped) <= 1e-12


def test_stitch_signs_single_and_empty():
    grid = make_grid(BOX, 1, 1)
    states = np.array([[0.0, 0.0, 1.0]])
    stitched, components = stitch_signs(states, np.array([True]), grid)
    assert components == 1
    np.testing.assert_array_equal(stitched, states)
    stitched, components = stitch_signs(states, np.array([False]), grid)
    assert components == 0


def _stitch_signs_reference(states, defined, grid):
    """The per-edge stitch kept as the reference: a list queue, and one np.dot
    per edge on the states as flipped so far."""
    n1, n2 = grid.shape
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
            i1, i2 = divmod(u, n2)
            neighbors = []
            if i1 > 0:
                neighbors.append(u - n2)
            if i1 < n1 - 1:
                neighbors.append(u + n2)
            if i2 > 0:
                neighbors.append(u - 1)
            if i2 < n2 - 1:
                neighbors.append(u + 1)
            for v in neighbors:
                if not defined[v] or visited[v]:
                    continue
                if float(np.dot(states[u], states[v])) < 0.0:
                    states[v] = -states[v]
                visited[v] = True
                queue.append(v)
    return states, components


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (6, 7), (11, 8), (16, 16)]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stitch_signs_matches_reference(shape, seed):
    """Random unit states, a quarter of them axis vectors so that exact zero
    dots of both signs occur; holes cut the grid into several components;
    undefined nodes hold NaN as in reconstruct."""
    grid = make_grid(BOX, *shape)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(grid.size, 3))
    states /= np.linalg.norm(states, axis=1)[:, None]
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0], [-0.0, 0, 1.0]])
    on_axis = rng.random(grid.size) < 0.25
    states[on_axis] = axes[rng.integers(0, 4, on_axis.sum())]
    states *= np.where(rng.random(grid.size) < 0.5, 1.0, -1.0)[:, None]
    defined = rng.random(grid.size) < 0.7
    if grid.shape[1] > 2:
        defined[grid.shape[1] // 2 :: grid.shape[1]] = False  # a wall of holes
    states[~defined] = np.nan
    got, components = stitch_signs(states, defined, grid)
    want, want_components = _stitch_signs_reference(states, defined, grid)
    assert got.tobytes() == want.tobytes()
    assert components == want_components


def test_reconstruct_oracle_psi_n1():
    grid = make_grid(BOX, 10, 10)
    profile, density = smooth_truth(grid)
    result = reconstruct(X3, grid, profile, density, ReconstructionConfig("oracle-psi"))
    assert result.ambiguity == "unique"
    assert result.undefined_nodes == ()
    rel = np.max(np.abs(result.density_est.values - density.values)) / np.max(
        density.values
    )
    assert rel <= 1e-8
    ang = np.max(np.linalg.norm(result.profile_est.states - profile.states, axis=1))
    assert ang <= 1e-8


def test_reconstruct_oracle_psi_n2():
    grid = make_grid(BOX, 10, 10)
    profile, density = smooth_truth(grid)
    result = reconstruct(
        X1 * X2, grid, profile, density, ReconstructionConfig("oracle-psi")
    )
    assert result.ambiguity == "antipodal-pair"
    rel = np.max(np.abs(result.density_est.values - density.values)) / np.max(
        density.values
    )
    assert rel <= 1e-8
    direct = np.max(np.linalg.norm(result.profile_est.states - profile.states, axis=1))
    flipped = np.max(np.linalg.norm(result.profile_est.states + profile.states, axis=1))
    assert min(direct, flipped) <= 1e-8
    assert result.diagnostics["stitch_components"] == 1


# Largest max relative rho error and profile error (up to sign for even n)
# of oracle-psi on the criterion-7 truth at 32 x 32, per degree n, for
# real_harmonic_basis(n).polys[0] and .polys[n]: about ten times what is
# achieved (n = 16: 1.5e-9 and 4.8e-7 for polys[0], inversion residual
# 2.5e-6; 1.8e-13 and 5.3e-12 for polys[n]).
HIGH_DEGREE_BOUNDS = {
    (4, 0): (3e-14, 3e-14),
    (4, 4): (1e-14, 1e-14),
    (8, 0): (1e-12, 2e-11),
    (8, 8): (2e-14, 5e-14),
    (12, 0): (1e-10, 3e-9),
    (12, 12): (1e-13, 2e-12),
    (16, 0): (1e-8, 5e-6),
    (16, 16): (2e-12, 5e-11),
}


def _oracle_psi_errors(phi):
    grid = make_grid(BOX, 32, 32)
    profile, density = smooth_truth(grid)
    result = reconstruct(phi, grid, profile, density, ReconstructionConfig("oracle-psi"))
    assert result.undefined_nodes == ()
    rho = np.max(np.abs(result.density_est.values - density.values) / density.values)
    est = result.profile_est.states
    err = np.max(np.abs(est - profile.states))
    if phi.homogeneous_degree % 2 == 0:
        err = min(err, np.max(np.abs(est + profile.states)))
    return rho, err


@pytest.mark.parametrize("n, k", sorted(HIGH_DEGREE_BOUNDS))
def test_reconstruct_oracle_psi_high_degree(n, k):
    """The float stage works in the normalized basis, where rho^2 sums
    nonnegative terms: with the dense form over the word images, polys[0]
    at n = 16 missed the inversion gate by a residual of 1.3e19."""
    rho_bound, profile_bound = HIGH_DEGREE_BOUNDS[n, k]
    rho, err = _oracle_psi_errors(real_harmonic_basis(n).polys[k])
    assert rho <= rho_bound
    assert err <= profile_bound


@pytest.mark.xfail(
    strict=True,
    raises=StageError,
    reason="length-20 word images evaluated in floats miss the 1e-5 inversion "
    "gate (residual 1.7e-3)",
)
def test_reconstruct_oracle_psi_degree_20_zonal():
    _oracle_psi_errors(real_harmonic_basis(20).polys[0])


def gentle_truth(grid):
    """Slowly varying truth: the D=6 feature algebra resolves it to ~1e-2."""
    profile = angles_profile(grid, (0.9, 0.05, 0.20), (0.3, 0.05, -0.25))
    density = gaussian_density(grid, (0.5, 1.0), (4.0, 1.5))
    return profile, density


def test_reconstruct_oracle_moments_n1():
    grid = make_grid(BOX, 12, 12)
    profile, density = gentle_truth(grid)
    cfg = ReconstructionConfig("oracle-moments", D=6)
    result = reconstruct(X3, grid, profile, density, cfg)
    num = math.sqrt(
        float(np.dot(grid.weights, (result.density_est.values - density.values) ** 2))
    )
    den = math.sqrt(float(np.dot(grid.weights, density.values**2)))
    assert num / den <= 1e-2
    assert result.diagnostics["gram_min_pivot"] > 0


def test_reconstruct_oracle_moments_d8_improves_on_d6():
    """The exact Gram-Schmidt certificate is the PD gate, so D=8 runs although
    roundoff makes the float smallest eigenvalue of the raw Gram matrix
    negative there."""
    grid = make_grid(BOX, 16, 16)
    profile, density = smooth_truth(grid)
    errors = []
    for D in (6, 8):
        cfg = ReconstructionConfig("oracle-moments", D=D)
        est = reconstruct(X3, grid, profile, density, cfg).density_est.values
        errors.append(float(np.max(np.abs(est - density.values)) / np.max(density.values)))
    assert errors[1] < errors[0]


@pytest.mark.parametrize("phi", [X3, X1 * X2], ids=["x3", "x1x2"])
def test_reconstruct_zero_density_all_undefined(phi):
    grid = make_grid(BOX, 4, 4)
    profile, _ = smooth_truth(grid)
    result = reconstruct(phi, grid, profile, uniform_density(grid, 0.0), ReconstructionConfig())
    assert result.undefined_nodes == tuple(range(16))
    assert np.isnan(result.profile_est.states).all()
    assert result.diagnostics["inversion_max_residual"] == 0.0
    if phi.homogeneous_degree % 2 == 0:
        assert result.diagnostics["stitch_components"] == 0


def test_reconstruct_measured_moments_within_cap():
    """Full measured-mode pipeline on a truth whose psi's are D=0 features.

    With every member at the north pole the basis images have constant
    weighted samples, so the lowest-order table already determines the
    density; the only error left is the finite differencing itself.
    """
    grid = make_grid(BOX, 6, 6)
    profile = constant_profile(grid, (0.0, 0.0, 1.0))
    density = uniform_density(grid, 0.8)
    cfg = ReconstructionConfig("measured-moments", D=0, fd_step=1e-2)
    result = reconstruct(X3, grid, profile, density, cfg)
    assert result.undefined_nodes == ()
    np.testing.assert_allclose(result.density_est.values, density.values, rtol=1e-8)
    np.testing.assert_allclose(
        result.profile_est.states, profile.states, atol=1e-7
    )


def test_reconstruct_measured_moments_word_length_five():
    """D = 1 for x3 needs zeta applied to the empty word: length 5.  On the
    smooth truth the density matches oracle-moments at D = 1."""
    grid = make_grid(BOX, 8, 8)
    profile, density = smooth_truth(grid)
    measured = reconstruct(
        X3, grid, profile, density,
        ReconstructionConfig("measured-moments", D=1, fd_word_cap=5),
    )
    oracle = reconstruct(
        X3, grid, profile, density, ReconstructionConfig("oracle-moments", D=1)
    )
    ref = oracle.density_est.values
    gap = np.max(np.abs(measured.density_est.values - ref)) / np.max(np.abs(ref))
    assert gap <= 1e-4


def test_reconstruct_measured_mode_cap_error():
    grid = make_grid(BOX, 3, 3)
    profile, density = smooth_truth(grid)
    cfg = ReconstructionConfig("measured-moments", D=6)
    with pytest.raises(StageError) as err:
        reconstruct(X3, grid, profile, density, cfg)
    assert err.value.stage == "moments"


def test_reconstruct_rejects_bad_phi():
    grid = make_grid(BOX, 2, 2)
    profile, density = smooth_truth(grid)
    cfg = ReconstructionConfig()
    with pytest.raises(ValueError):
        reconstruct(Poly.norm_sq(), grid, profile, density, cfg)
    with pytest.raises(ValueError):
        reconstruct(Poly.zero(), grid, profile, density, cfg)


def test_prop2_parity_equality_pointwise():
    """Even-degree basis values agree machine-exactly on antipodal profiles."""
    grid = make_grid(BOX, 5, 5)
    profile, density = smooth_truth(grid)
    phi = X1 * X2
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    from blochobs.ensemble import compile_phi

    for p in polys:
        ev = compile_phi(p)
        plus = ev(profile.states) * density.values
        minus = ev(-profile.states) * density.values
        np.testing.assert_array_equal(plus, minus)


def test_reconstruction_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(mode="bogus")
    with pytest.raises(ValueError):
        ReconstructionConfig(rho_floor=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fd_step": math.nan},
        {"fd_step": math.inf},
        {"D": -1},
        {"fd_step": 0.0},
        {"rho_floor": math.nan},
        {"rho_floor": math.inf},
        {"fd_word_cap": -1},
    ],
)
def test_reconstruction_config_rejects_non_finite_and_negative_cap(kwargs):
    with pytest.raises(ValueError):
        ReconstructionConfig(mode="measured-moments", **kwargs)
