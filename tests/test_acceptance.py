"""Acceptance suite: ten criteria, one test each, one pass/fail line printed per
criterion.  Tolerances are pinned here and nowhere else."""

import math
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from blochobs.ensemble import (
    ControlSchedule,
    ParameterBox,
    Profile,
    angles_profile,
    constant_profile,
    evolve_profile,
    gaussian_density,
    make_grid,
    output_equiv_test,
    rotation_step,
    simulate,
)
from blochobs.exactlinalg import RowSpan
from blochobs.identities import (
    HarmonicBasis,
    addition_theorem_residual,
    assoc_legendre,
    casimir_normalizer,
    constant_quadratic_form,
    example_basis,
    real_harmonic_basis,
    verify_quadratic_identity,
)
from blochobs.polynomials import Poly, X1, X2, X3, monomial_basis
from blochobs.reconstruction import (
    OutputSimulator,
    PointInverter,
    ReconstructionConfig,
    measured_moments,
    oracle_moments,
    reconstruct,
)
from blochobs.representation import (
    apply_field,
    casimir,
    check_ladder,
    commutator_check,
    poly_to_vec,
    verify_casimir_eigen,
    weight_ladder,
    xi,
    zeta,
)

BOX = ParameterBox(0.0, 1.0, 0.5, 1.5)
GOLDEN = Path(__file__).parent / "golden"


def announce(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status}{suffix}")
    assert ok


def test_criterion_01_exact_algebra_suite():
    """Commutators, Casimir centrality and eigenvalues, kappa, ladder, top coefficient."""
    start = time.monotonic()
    for n in range(0, 6):
        assert commutator_check(n)
    cz = casimir()
    for n in range(1, 6):
        for exps in monomial_basis(n):
            m = Poly({exps: 1})
            for f in (0, 1, 2):
                assert cz.apply(apply_field(f, m)) == apply_field(f, cz.apply(m))
    for n in range(1, 6):
        cert = verify_casimir_eigen(n)
        assert cert.eigenvalue == Fraction(-n * (n + 1))
    assert xi().kappa() == (1, 2)
    assert zeta().kappa() == (0, 4)
    for n in range(1, 5):
        assert check_ladder(weight_ladder(n))
    for n in range(1, 6):
        lad = weight_ladder(n)
        assert lad.vectors[n].coefficient((0, 0, n)).re == math.factorial(n) * (-2) ** n
    elapsed = time.monotonic() - start
    announce(1, elapsed < 120.0, f"exact algebra suite in {elapsed:.1f}s")


def test_criterion_02_example_identities_golden():
    """Low-degree identities byte-exact against the committed golden JSON."""
    from blochobs.cli import main

    ok = True
    for n in (1, 2, 3):
        out = GOLDEN.parent / f"_tmp_identity_{n}.json"
        try:
            assert main(["identities", "--degree", str(n), "--out", str(out)]) == 0
            ok = ok and out.read_bytes() == (GOLDEN / f"identities_n{n}.json").read_bytes()
        finally:
            out.unlink(missing_ok=True)
    ident1 = constant_quadratic_form(example_basis(1))
    ok = ok and all(
        ident1.coeffs[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)
    )
    ident3 = constant_quadratic_form(example_basis(3))
    ok = ok and all(ident3.coeffs[i][i] == Fraction(1, 4) for i in (0, 1, 2))
    ok = ok and all(ident3.coeffs[i][i] == Fraction(15, 4) for i in (3, 4, 5))
    ok = ok and ident3.coeffs[6][6] == 15
    ident2 = constant_quadratic_form(example_basis(2))
    ok = ok and ident2.coeffs[0][0] == 1 and ident2.coeffs[1][1] == 1
    ok = ok and ident2.coeffs[0][1] == Fraction(1, 2)
    ok = ok and all(ident2.coeffs[i][i] == 3 for i in (2, 3, 4))
    announce(2, ok, "n=1 identity; n=2 diag (1,1,3,3,3) cross 1; n=3 (1/4,15/4,15)")


@pytest.mark.xfail(
    strict=True,
    reason="the quadratic form with coefficient 2 on the three cross-product "
    "squares does not reproduce ||x||^4 (at (1,1,0) it gives 3, not 4); the "
    "exact expansion is unique and carries coefficient 3",
)
def test_criterion_02_n2_stated_coefficient_two():
    ident2 = constant_quadratic_form(example_basis(2))
    assert all(ident2.coeffs[i][i] == 2 for i in (2, 3, 4))


def _random_real_basis(n: int, seed: int) -> HarmonicBasis:
    rng = random.Random(seed)
    base = real_harmonic_basis(n).polys
    m = 2 * n + 1
    while True:
        polys = []
        span = RowSpan()
        ok = True
        for _ in range(m):
            p = Poly.zero()
            for q in base:
                p = p + q.scale(rng.randint(-2, 2))
            if p.is_zero or not span.add(poly_to_vec(p, monomial_basis(n))):
                ok = False
                break
            polys.append(p)
        if ok:
            return HarmonicBasis(n, tuple(polys))


def test_criterion_03_quadratic_form_all_bases():
    """Exact identity for ladder-derived and random bases; normalizer value."""
    for n in range(1, 6):
        for basis in (
            real_harmonic_basis(n),
            _random_real_basis(n, 1000 + n),
            _random_real_basis(n, 2000 + n),
        ):
            identity = constant_quadratic_form(basis)
            assert verify_quadratic_identity(identity)
        c = casimir_normalizer(n)
        assert c == Fraction(math.factorial(n) ** 2 * 4**n)
        # independent oracle: evaluate q* at the north pole, where only the
        # weight-zero ladder element contributes
        lad = weight_ladder(n)
        north = 0.0
        for k in range(2 * n + 1):
            sign = -1 if (n + k) % 2 else 1
            north += sign * (
                lad.vectors[k].evaluate((0, 0, 1)) * lad.vectors[2 * n - k].evaluate((0, 0, 1))
            ).real
        assert north == pytest.approx(float(c), rel=1e-12)
    announce(3, True, "exact for n=1..5, ladder + 2 random bases each, c = (n!)^2 4^n")


def test_criterion_04_addition_theorem():
    worst = max(addition_theorem_residual(n, 100, seed=40 + n) for n in range(1, 5))
    legendre_err = max(abs(assoc_legendre(n, 0, 1.0) - 1.0) for n in range(1, 6))
    ok = worst <= 1e-10 and legendre_err <= 1e-12
    announce(4, ok, f"residual {worst:.2e}, L_n(1) error {legendre_err:.2e}")


def test_criterion_05_simulation_properties():
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    rng = np.random.default_rng(3)
    states = profile.states
    for _ in range(1000):
        u = tuple(rng.uniform(-2, 2, size=2))
        tau = float(rng.uniform(0.05, 0.2))
        states = np.array(
            [rotation_step(states[j], grid.nodes[j], u, tau) for j in range(grid.size)]
        )
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))

    dens = gaussian_density(grid, (0.5, 1.0), (0.5, 0.5))
    schedule = ControlSchedule(((0.4, 1.2, -0.3), (0.3, -0.8, 0.9)))
    tr_plus = simulate(profile, grid, dens, schedule, X1 * X2, dt=0.05)
    tr_minus = simulate(Profile(-profile.states), grid, dens, schedule, X1 * X2, dt=0.05)
    parity_gap = float(np.max(np.abs(tr_plus.values - tr_minus.values)))

    s1 = ControlSchedule(((0.3, 1.0, -0.5),))
    s2 = ControlSchedule(((0.4, -0.7, 0.2), (0.2, 0.3, 0.9)))
    once = evolve_profile(profile, grid, ControlSchedule(s1.segments + s2.segments))
    twice = evolve_profile(evolve_profile(profile, grid, s1), grid, s2)
    comp_gap = float(np.max(np.abs(once.states - twice.states)))

    ok = drift <= 1e-12 and parity_gap <= 1e-12 and comp_gap <= 1e-12
    announce(
        5,
        ok,
        f"norm drift {drift:.2e}, parity gap {parity_gap:.2e}, composition {comp_gap:.2e}",
    )


def test_criterion_06_point_inversion():
    worst = 0.0
    for n in (1, 2, 3):
        basis = real_harmonic_basis(n)
        inverter = PointInverter(basis)
        rng = np.random.default_rng(600 + n)
        for _ in range(1000):
            v = rng.normal(size=3)
            x = v / np.linalg.norm(v)
            values = [float(p.evaluate(tuple(x)).real) for p in basis.polys]
            got, flag = inverter.invert(values)
            if n % 2 == 1:
                assert flag == "unique"
                err = float(np.linalg.norm(got - x))
            else:
                assert flag == "antipodal-pair"
                err = min(
                    float(np.linalg.norm(got - x)), float(np.linalg.norm(got + x))
                )
            worst = max(worst, err)
    announce(6, worst <= 1e-9, f"worst recovery error {worst:.2e} over 3000 points")


def test_criterion_07_end_to_end_oracle_psi():
    start = time.monotonic()
    grid = make_grid(BOX, 16, 16)
    profile = angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4))
    density = gaussian_density(grid, (0.5, 1.0), (0.6, 0.6))
    cfg = ReconstructionConfig("oracle-psi")

    res1 = reconstruct(X3, grid, profile, density, cfg)
    rho_err1 = float(
        np.max(np.abs(res1.density_est.values - density.values)) / np.max(density.values)
    )
    ang1 = float(np.max(np.linalg.norm(res1.profile_est.states - profile.states, axis=1)))
    ok1 = res1.ambiguity == "unique" and rho_err1 <= 1e-8 and ang1 <= 1e-8

    res2 = reconstruct(X1 * X2, grid, profile, density, cfg)
    rho_err2 = float(
        np.max(np.abs(res2.density_est.values - density.values)) / np.max(density.values)
    )
    direct = float(np.max(np.linalg.norm(res2.profile_est.states - profile.states, axis=1)))
    flipped = float(np.max(np.linalg.norm(res2.profile_est.states + profile.states, axis=1)))
    ok2 = (
        res2.ambiguity == "antipodal-pair"
        and rho_err2 <= 1e-8
        and min(direct, flipped) <= 1e-8
    )
    elapsed = time.monotonic() - start
    ok = ok1 and ok2 and elapsed < 60.0
    announce(
        7,
        ok,
        f"n=1 rho {rho_err1:.1e} profile {ang1:.1e}; n=2 rho {rho_err2:.1e} "
        f"profile {min(direct, flipped):.1e}; {elapsed:.1f}s",
    )


def test_criterion_08_oracle_moments_density():
    grid = make_grid(BOX, 16, 16)
    profile = angles_profile(grid, (0.9, 0.05, 0.20), (0.3, 0.05, -0.25))
    density = gaussian_density(grid, (0.5, 1.0), (4.0, 1.5))
    cfg = ReconstructionConfig("oracle-moments", D=6)
    res = reconstruct(X3, grid, profile, density, cfg)
    num = math.sqrt(
        float(np.dot(grid.weights, (res.density_est.values - density.values) ** 2))
    )
    den = math.sqrt(float(np.dot(grid.weights, density.values**2)))
    rel = num / den
    cond = res.diagnostics["gram_condition"]
    announce(8, rel <= 1e-2, f"density L2 rel {rel:.2e}, Gram condition {cond:.2e}")


def test_criterion_09_measured_vs_oracle_moments():
    grid = make_grid(BOX, 8, 8)
    profile = angles_profile(grid, (0.8, 0.5, 0.3), (0.2, 0.9, -0.4))
    density = gaussian_density(grid, (0.5, 1.0), (0.6, 0.6))
    sim = OutputSimulator(profile, grid, density)
    words = [()] + [(i,) for i in range(3)] + list(product(range(3), repeat=2))
    worst = 0.0
    for phi in (X3, X1 * X2):
        oracle = oracle_moments((profile, density), grid, phi, words, D=0)
        scale = max(abs(v) for v in oracle.entries.values())
        for idx, w in enumerate(words):
            o = oracle.entries[(idx, 0, 0)]
            m = measured_moments(sim, phi, w, fd_step=1e-2)
            worst = max(worst, abs(m - o) / max(abs(o), 1e-3 * scale))
    announce(9, worst <= 1e-3, f"worst relative deviation {worst:.2e}")


def test_criterion_10_equivalence_sampler():
    grid = make_grid(BOX, 4, 4)
    profile = angles_profile(grid, (0.7, 0.2, 0.1), (0.0, 0.9, 0.4))
    density = gaussian_density(grid, (0.5, 1.0), (0.5, 0.5))
    verdict = output_equiv_test(
        (profile, density),
        (Profile(-profile.states), density),
        grid,
        X1 * X2,
        trials=50,
        seed=10,
        tol=1e-12,
    )
    ok_antipodal = verdict.kind == "equivalent-so-far" and verdict.gap <= 1e-12

    pole = constant_profile(grid, (0.0, 0.0, 1.0))
    scaled = gaussian_density(grid, (0.5, 1.0), (0.5, 0.5), amplitude=1.01)
    verdict2 = output_equiv_test(
        (pole, density), (pole, scaled), grid, X3, trials=5, seed=11, tol=1e-12
    )
    ok_scaled = verdict2.kind == "distinguished" and verdict2.time == 0.0
    announce(
        10,
        ok_antipodal and ok_scaled,
        f"antipodal max gap {verdict.gap:.1e}; scaled density caught at t=0",
    )
