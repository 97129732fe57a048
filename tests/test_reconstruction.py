import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from blochobs.ensemble import (
    ParameterBox,
    angles_profile,
    compile_phi,
    constant_profile,
    gaussian_density,
    make_grid,
    output,
    table_density,
    uniform_density,
)
from blochobs.identities import (
    HarmonicBasis,
    constant_quadratic_form,
    example_basis,
    real_harmonic_basis,
)
from blochobs import reconstruction
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
    recover_harmonic_values,
    stitch_signs,
)
from blochobs.representation import (
    OperatorExpr,
    apply_word,
    kappa_of_word,
    word_basis_search,
    xi,
)

BOX = ParameterBox(0.0, 1.0, 0.5, 1.5)
SYM_BOX = ParameterBox(-1.0, 1.0, 0.5, 1.5)
SRC = Path(__file__).resolve().parents[1] / "src"


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


# Run in a fresh interpreter on one BLAS thread: the one-shot product below
# is one matrix-vector product over every node, which OpenBLAS splits over
# threads on large enough grids (91 x 91 at D >= 10), and then its bits
# depend on the thread count.
_ONE_SHOT_FIT = """
import sys
import numpy as np
from blochobs.ensemble import ParameterBox, make_grid
from blochobs.reconstruction import _feature_basis, fit_psi

box = ParameterBox(*map(float, sys.argv[1:]))
rng = np.random.default_rng(0)
for n1, n2 in ((7, 9), (33, 31), (91, 91), (128, 128)):
    grid = make_grid(box, n1, n2)
    for D in (0, 1, 2, 3, 5, 6, 8, 10, 12):
        fb = _feature_basis(box, D)
        moments = rng.standard_normal((3, fb.size))
        raw = fb.raw_values(grid.nodes)
        one_shot = np.array([raw @ fb.solve(row, 0.0) for row in moments])
        if fit_psi(moments, grid, D).tobytes() != one_shot.tobytes():
            print(f"{n1}x{n2} D={D}")
"""


@pytest.mark.parametrize("box", [BOX, SYM_BOX], ids=["box", "sym-box"])
def test_fit_psi_blocks_match_one_shot_product_bit_for_bit(box):
    """fit_psi evaluates the raw features one node block at a time; on one
    BLAS thread every node keeps the bits of one product over all nodes, on
    grids whose size is not a multiple of the block (7 x 9, 33 x 31,
    91 x 91) and on one that is (128 x 128), at D from 0 to 12."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    bounds = [str(b) for b in (box.a1, box.b1, box.a2, box.b2)]
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_SHOT_FIT, *bounds],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"cases that changed bits:\n{proc.stdout}"


def test_fit_psi_evaluates_features_one_block_at_a_time(monkeypatch):
    """The raw features are evaluated for at most _BLOCK nodes at a time, in
    node order, once per block for all rows."""
    grid = make_grid(BOX, 33, 40)
    raw_values = reconstruction.FeatureBasis.raw_values
    blocks = []

    def counted(self, nodes):
        blocks.append(nodes)
        return raw_values(self, nodes)

    monkeypatch.setattr(reconstruction.FeatureBasis, "raw_values", counted)
    moments = np.random.default_rng(1).standard_normal((5, _feature_basis(BOX, 3).size))
    assert fit_psi(moments, grid, 3).shape == (5, grid.size)
    assert [len(b) for b in blocks] == [1024, 296]
    assert np.concatenate(blocks).tobytes() == grid.nodes.tobytes()


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
    assert oracle.tobytes() == _feature_moments(grid, 3, psi).tobytes()


@pytest.mark.parametrize("mode", ["oracle-moments", "measured-moments"])
def test_reconstruct_evaluates_features_once(monkeypatch, mode):
    """All 2n+1 psi_i are fitted from one evaluation of the raw features per
    node block, and a grid of at most _BLOCK nodes is one block."""
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
    assert calls == [grid.size]


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
    """fit_psi holds the raw features of one node block, not of the whole
    grid, so the traced peak of an oracle-moments run no longer grows with
    the number of features: 193 bytes per node at D = 6 and at D = 12 on a
    256 x 256 grid, with the feature basis already built; the bound allows
    10% more.  Evaluating the (N, K) features at once took 498 and 1,506."""
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


def test_recover_density_exact_n1():
    grid = make_grid(BOX, 8, 8)
    profile, density = smooth_truth(grid)
    phi = X3
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    identity = constant_quadratic_form(HarmonicBasis(1, tuple(polys)))
    est, defined = recover_density(psi, identity, kexp, rho_floor=1e-6)
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
    phi = X3
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    identity = constant_quadratic_form(HarmonicBasis(1, tuple(polys)))
    est, defined = recover_density(psi, identity, kexp, rho_floor=1e-6)
    np.testing.assert_array_equal(defined, ~dead)
    assert np.all(np.isfinite(est.values))


def test_recover_density_vanishing_kappa_weight_is_undefined():
    """A fitted psi need not vanish where a kappa weight does (sigma1 = 0 for
    the drift word of x1x2); such nodes are undefined, with no division."""
    grid = make_grid(ParameterBox(-1.0, 1.0, 0.5, 1.5), 5, 4)
    words = word_basis_search(X1 * X2)
    polys = [apply_word(w, X1 * X2) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    zero = grid.nodes[:, 0] == 0.0
    assert zero.any() and np.all((kexp == 0.0).any(axis=0) == zero)
    psi = np.random.default_rng(7).uniform(0.5, 1.0, size=kexp.shape)
    identity = constant_quadratic_form(HarmonicBasis(2, tuple(polys)))
    with np.errstate(all="raise"):
        est, defined = recover_density(psi, identity, kexp, rho_floor=1e-6)
        values = recover_harmonic_values(psi, est, kexp, defined)
    assert not defined[zero].any()
    assert np.all(est.values[zero] == 0.0) and np.all(np.isfinite(est.values))
    assert np.all(np.isnan(values[:, zero]))


def test_recover_harmonic_values_roundtrip():
    grid = make_grid(BOX, 6, 6)
    profile, density = smooth_truth(grid)
    phi = X1 * X2
    words = word_basis_search(phi)
    polys = [apply_word(w, phi) for w in words]
    kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
    psi = oracle_psi_samples((profile, density), polys, kexp)
    identity = constant_quadratic_form(HarmonicBasis(2, tuple(polys)))
    est, defined = recover_density(psi, identity, kexp, rho_floor=1e-6)
    assert defined.all()
    rel = np.abs(est.values - density.values) / np.max(density.values)
    assert np.max(rel) <= 1e-10
    values = recover_harmonic_values(psi, est, kexp, defined)
    from blochobs.ensemble import compile_phi

    for i, p in enumerate(polys):
        truth_vals = compile_phi(p)(profile.states)
        np.testing.assert_allclose(values[i], truth_vals, atol=1e-10)
    # consistency: quadratic identity evaluates to ~1 per node
    C = np.array([[float(c) for c in row] for row in identity.coeffs])
    q = np.einsum("ij,in,jn->n", C, values, values)
    np.testing.assert_allclose(q, np.ones(grid.size), atol=1e-10)


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
    assert result.diagnostics["gram_condition"] > 0


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
