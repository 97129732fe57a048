"""Batch command-line entry points: JSON configs in, JSON/CSV artifacts out.

Subcommands: verify-rep, identities, simulate, equivalence, reconstruct,
addition-check.  Exit codes: 0 success, 1 computational failure, 2 usage or
config error.  Configs are schema-checked (unknown keys rejected) before any
computation runs; identical inputs (config, plus ``--seed`` for equivalence
and addition-check) give byte-identical outputs on a fixed numpy/BLAS build,
under any BLAS thread count (``ensemble.row_dots``).  The seeded commands draw
only ``random()`` from ``random.Random(seed)``, a sequence that Python keeps
across versions for an int seed and that no numpy version changes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from . import ensemble as ens
from .identities import (
    addition_theorem_residual,
    constant_quadratic_form,
    example_basis,
    real_harmonic_basis,
)
from .polynomials import Poly, monomial_basis
from .reconstruction import ReconstructionConfig, StageError, reconstruct
from .representation import (
    COMMUTATOR_DEGREE_CAP,
    casimir,
    check_ladder,
    commutator_check,
    harmonic_decompose,
    verify_casimir_eigen,
    weight_ladder,
    xi,
    zeta,
)


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not math.isfinite(value):  # json parses NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number")
    return value


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer")
    return obj


def _vector(obj, length: int, path: str) -> list[float]:
    if not isinstance(obj, list) or len(obj) != length:
        raise ConfigError(f"{path}: expected a list of {length} numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


NAMED_PHI = {
    "x1": {(1, 0, 0): 1},
    "x2": {(0, 1, 0): 1},
    "x3": {(0, 0, 1): 1},
    "x1x2": {(1, 1, 0): 1},
    "x1x3": {(1, 0, 1): 1},
    "x2x3": {(0, 1, 1): 1},
    "x1^2-x2^2": {(2, 0, 0): 1, (0, 2, 0): -1},
    "x2^2-x3^2": {(0, 2, 0): 1, (0, 0, 2): -1},
    "x1x2x3": {(1, 1, 1): 1},
}


def parse_box(obj, path="box") -> ens.ParameterBox:
    _require_keys(obj, {"a1", "b1", "a2", "b2"}, {"a1", "b1", "a2", "b2"}, path)
    try:
        return ens.ParameterBox(
            _number(obj["a1"], f"{path}.a1"),
            _number(obj["b1"], f"{path}.b1"),
            _number(obj["a2"], f"{path}.a2"),
            _number(obj["b2"], f"{path}.b2"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_grid(obj, box: ens.ParameterBox, path="grid") -> ens.ParameterGrid:
    _require_keys(obj, {"n1", "n2"}, {"n1", "n2"}, path)
    n1 = _integer(obj["n1"], f"{path}.n1")
    n2 = _integer(obj["n2"], f"{path}.n2")
    if n1 < 1 or n2 < 1:
        raise ConfigError(f"{path}: n1 and n2 must be positive")
    return ens.make_grid(box, n1, n2)


def _coefficient(value: float) -> Fraction:
    """The closest fraction to value with denominator at most 10**9 if it
    rounds back to value (so 0.1 is 1/10), else value exactly: a small or
    finely given coefficient is never changed."""
    limited = Fraction(value).limit_denominator(10**9)
    return limited if float(limited) == value else Fraction(value)


def parse_phi(obj, path="phi") -> Poly:
    _require_keys(obj, {"degree", "named", "coefficients"}, {"degree"}, path)
    degree = _integer(obj["degree"], f"{path}.degree")
    if "named" in obj:
        name = obj["named"]
        if not isinstance(name, str) or name not in NAMED_PHI:
            raise ConfigError(
                f"{path}.named: unknown observable {name!r}; choose from "
                f"{sorted(NAMED_PHI)}"
            )
        phi = Poly(NAMED_PHI[name])
    elif "coefficients" in obj:
        terms = {}
        rows = obj["coefficients"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{path}.coefficients: expected a nonempty list")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2 or not isinstance(row[0], list):
                raise ConfigError(
                    f"{path}.coefficients[{i}]: expected [[e1,e2,e3], value]"
                )
            exps, value = row
            e = [_integer(v, f"{path}.coefficients[{i}].exponent") for v in exps]
            if len(e) != 3 or min(e) < 0:
                raise ConfigError(f"{path}.coefficients[{i}]: bad exponent triple")
            value = _number(value, f"{path}.coefficients[{i}].value")
            terms[tuple(e)] = terms.get(tuple(e), 0) + _coefficient(value)
        phi = Poly(terms)
    else:
        raise ConfigError(f"{path}: needs either 'named' or 'coefficients'")
    if phi.is_zero or phi.homogeneous_degree != degree:
        raise ConfigError(f"{path}: polynomial is not homogeneous of degree {degree}")
    if not phi.is_harmonic:
        raise ConfigError(f"{path}: polynomial is not harmonic")
    return phi


def parse_density(obj, grid: ens.ParameterGrid, path="density") -> ens.Density:
    _require_keys(
        obj, {"kind", "value", "center", "widths", "amplitude", "values"}, {"kind"}, path
    )
    kind = obj.get("kind")
    try:
        if kind == "uniform":
            return ens.uniform_density(grid, _number(obj.get("value", 1.0), f"{path}.value"))
        if kind == "gaussian":
            center = _vector(obj.get("center", [0.0, 1.0]), 2, f"{path}.center")
            widths = _vector(obj.get("widths", [1.0, 1.0]), 2, f"{path}.widths")
            amplitude = _number(obj.get("amplitude", 1.0), f"{path}.amplitude")
            return ens.gaussian_density(grid, center, widths, amplitude)
        if kind == "table":
            values = obj.get("values")
            if not isinstance(values, list):
                raise ConfigError(f"{path}.values: expected a list")
            return ens.table_density(grid, [_number(v, f"{path}.values") for v in values])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: expected uniform, gaussian, or table")


def parse_profile(obj, grid: ens.ParameterGrid, path="profile") -> ens.Profile:
    if obj is None:
        return ens.constant_profile(grid, (0.0, 0.0, 1.0))
    _require_keys(obj, {"kind", "x", "theta", "phi", "states"}, {"kind"}, path)
    kind = obj.get("kind")
    try:
        if kind == "constant":
            return ens.constant_profile(grid, _vector(obj.get("x", [0, 0, 1]), 3, f"{path}.x"))
        if kind == "angles":
            theta = _vector(obj.get("theta", [0, 0, 0]), 3, f"{path}.theta")
            phi = _vector(obj.get("phi", [0, 0, 0]), 3, f"{path}.phi")
            return ens.angles_profile(grid, theta, phi)
        if kind == "table":
            states = obj.get("states")
            if not isinstance(states, list):
                raise ConfigError(f"{path}.states: expected a list")
            rows = [_vector(row, 3, f"{path}.states[{i}]") for i, row in enumerate(states)]
            return ens.table_profile(grid, rows)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: expected constant, angles, or table")


def parse_pair(obj, grid: ens.ParameterGrid, path: str) -> tuple[ens.Profile, ens.Density]:
    """A hidden {profile, density} pair."""
    _require_keys(obj, {"profile", "density"}, {"profile", "density"}, path)
    return (
        parse_profile(obj["profile"], grid, f"{path}.profile"),
        parse_density(obj["density"], grid, f"{path}.density"),
    )


def parse_schedule(obj, path="schedule") -> ens.ControlSchedule:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of [tau, u1, u2]")
    segments = []
    for i, seg in enumerate(obj):
        vals = _vector(seg, 3, f"{path}[{i}]")
        if vals[0] <= 0:
            raise ConfigError(f"{path}[{i}]: duration must be positive")
        segments.append(tuple(vals))
    try:
        return ens.ControlSchedule(tuple(segments))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    return obj


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as json.dump(payload, fh, sort_keys=True, indent=2) and a
    newline would, byte for byte (see ensemble.write_json for the float arrays
    it may also hold)."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            ens.write_json(fh.write, payload)
            fh.write("\n")
    else:
        ens.write_json(sys.stdout.write, payload)
        sys.stdout.write("\n")


# --- subcommands ------------------------------------------------------------


def cmd_verify_rep(args) -> int:
    cap = COMMUTATOR_DEGREE_CAP
    if not 1 <= args.degree_max <= cap:
        print(f"verify-rep: --degree-max must be within 1..{cap}", file=sys.stderr)
        return 2
    if args.dump:
        print(f"eta* = {casimir().text()}")
        print(f"xi   = {xi().text()}")
        print(f"zeta = {zeta().text()}")
    checks = [
        ("kappa(xi) = (1,2)", xi().kappa() == (1, 2)),
        ("kappa(zeta) = (0,4)", zeta().kappa() == (0, 4)),
        ("kappa(eta*) undefined", casimir().kappa() is None),
    ]
    for name, ok in checks:
        print(f"{name:<44s} {'pass' if ok else 'FAIL'}")
        if not ok:
            print(f"verify-rep: failed at: {name}", file=sys.stderr)
            return 1
    rng = random.Random(20240)
    print(f"{'n':>3s} {'commutators':>12s} {'ladder':>8s} {'eigenvalue':>11s} {'decompose':>10s}")
    for n in range(1, args.degree_max + 1):
        row = [f"{n:>3d}"]
        if not commutator_check(n):
            print(f"verify-rep: commutator identities fail on degree {n}", file=sys.stderr)
            return 1
        row.append(f"{'pass':>12s}")
        if not check_ladder(weight_ladder(n)):
            print(f"verify-rep: ladder relations fail for n={n}", file=sys.stderr)
            return 1
        row.append(f"{'pass':>8s}")
        try:
            cert = verify_casimir_eigen(n)
        except AssertionError as exc:
            print(f"verify-rep: {exc}", file=sys.stderr)
            return 1
        row.append(f"{str(cert.eigenvalue):>11s}")
        p = Poly({e: rng.randint(-4, 4) for e in monomial_basis(n)})
        if p.is_zero:
            p = Poly({(n, 0, 0): 1})
        total = Poly.zero()
        for k, h in harmonic_decompose(p):
            if not h.is_harmonic:
                print(f"verify-rep: non-harmonic component at n={n}", file=sys.stderr)
                return 1
            total = total + h.mul_norm_sq_power(k)
        if total != p:
            print(f"verify-rep: decomposition does not re-assemble at n={n}", file=sys.stderr)
            return 1
        row.append(f"{'pass':>10s}")
        print(" ".join(row))
    return 0


def _identity_payload(n: int) -> dict:
    basis = example_basis(n) if n <= 3 else real_harmonic_basis(n)
    identity = constant_quadratic_form(basis)
    return {
        "n": n,
        "basis": [p.text() for p in identity.basis.polys],
        "coeffs": [[str(c) for c in row] for row in identity.coeffs],
    }


def cmd_identities(args) -> int:
    if args.degree < 1:
        print("identities: --degree must be >= 1", file=sys.stderr)
        return 2
    if args.format != "json":
        print("identities: only --format json is supported", file=sys.stderr)
        return 2
    payload = _identity_payload(args.degree)
    residual = addition_theorem_residual(args.degree, sample_count=100, seed=0)
    if residual > 1e-10:
        print(f"identities: addition-theorem residual {residual:.3e}", file=sys.stderr)
        return 1
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _require_keys(
        cfg,
        {"box", "grid", "phi", "density", "profile", "schedule", "dt"},
        {"box", "grid", "phi", "density", "schedule", "dt"},
        "config",
    )
    box = parse_box(cfg["box"])
    grid = parse_grid(cfg["grid"], box)
    phi = parse_phi(cfg["phi"])
    density = parse_density(cfg["density"], grid)
    profile = parse_profile(cfg.get("profile"), grid)
    schedule = parse_schedule(cfg["schedule"])
    dt = _number(cfg["dt"], "config.dt")
    if dt <= 0:
        raise ConfigError("config.dt: must be positive")
    trace = ens.simulate(profile, grid, density, schedule, phi, dt)
    ens.write_trace_csv(trace, args.out)
    if args.profile_out:
        ens.write_profile_csv(ens.Profile(trace.states), grid, density, args.profile_out)
    return 0


def cmd_equivalence(args) -> int:
    cfg = _load_config(args.config)
    _require_keys(
        cfg,
        {"box", "grid", "phi", "pair_a", "pair_b", "trials", "tol", "dt", "seed"},
        {"box", "grid", "phi", "pair_a", "pair_b", "trials", "tol"},
        "config",
    )
    box = parse_box(cfg["box"])
    grid = parse_grid(cfg["grid"], box)
    phi = parse_phi(cfg["phi"])
    pairs = [parse_pair(cfg[key], grid, f"config.{key}") for key in ("pair_a", "pair_b")]
    trials = _integer(cfg["trials"], "config.trials")
    if trials < 1:
        raise ConfigError("config.trials: must be at least 1")
    tol = _number(cfg["tol"], "config.tol")
    if tol < 0:
        raise ConfigError("config.tol: must be nonnegative")
    dt = _number(cfg.get("dt", 0.05), "config.dt")
    if dt <= 0:
        raise ConfigError("config.dt: must be positive")
    field = "--seed" if args.seed is not None else "config.seed"
    seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), field)
    if seed < 0:
        raise ConfigError(f"{field}: must be nonnegative")
    verdict = ens.output_equiv_test(pairs[0], pairs[1], grid, phi, trials, seed, tol, dt)
    payload = {
        "verdict": verdict.kind,
        "gap": verdict.gap,
        "time": verdict.time,
        "trial": verdict.trial,
        "schedule": [list(seg) for seg in verdict.schedule.segments]
        if verdict.schedule
        else None,
        "trials": trials,
        "tol": tol,
        "seed": seed,
    }
    _emit(payload, args.out)
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args.config)
    _require_keys(
        cfg,
        {"box", "grid", "phi", "truth", "reconstruction"},
        {"box", "grid", "phi", "truth"},
        "config",
    )
    box = parse_box(cfg["box"])
    grid = parse_grid(cfg["grid"], box)
    phi = parse_phi(cfg["phi"])
    if phi.homogeneous_degree < 1:
        raise ConfigError("config.phi: reconstruct needs an observable of degree >= 1")
    profile, density = parse_pair(cfg["truth"], grid, "config.truth")
    rc = cfg.get("reconstruction", {})
    # Keys left out keep the ReconstructionConfig defaults.
    parsers = {"D": _integer, "rho_floor": _number, "fd_step": _number, "fd_word_cap": _integer}
    _require_keys(rc, set(parsers), set(), "config.reconstruction")
    try:
        settings = {
            key: parse(rc[key], f"config.reconstruction.{key}")
            for key, parse in parsers.items()
            if key in rc
        }
        config = ReconstructionConfig(mode=args.mode, **settings)
    except ValueError as exc:
        raise ConfigError(f"config.reconstruction: {exc}") from exc
    result = reconstruct(phi, grid, profile, density, config)
    undefined = np.zeros(grid.size, dtype=bool)
    undefined[list(result.undefined_nodes)] = True
    payload = {
        "density": result.density_est.values,
        "profile": ens.NullRows(result.profile_est.states, undefined),
        "ambiguity": result.ambiguity,
        "undefined_nodes": sorted(result.undefined_nodes),
        "diagnostics": result.diagnostics,
    }
    _emit(payload, args.out)
    if args.report:
        est = result.profile_est.states
        direct = np.linalg.norm(est - profile.states, axis=1)
        flipped = np.linalg.norm(est + profile.states, axis=1)
        use_flip = result.ambiguity == "antipodal-pair" and float(
            np.nansum(flipped)
        ) < float(np.nansum(direct))
        if use_flip:
            est = -est
        # fmax/fmin clamp a NaN dot to -1 as Python's max and min do.
        dots = np.fmin(1.0, np.fmax(-1.0, ens.row_dots(est, profile.states)))
        # math.acos per node, so the angle bits do not depend on numpy's SIMD arccos.
        angles = np.array(list(map(math.acos, dots.tolist())))
        angles[undefined] = np.nan
        ens._write_csv(
            args.report,
            ("sigma1", "sigma2", "rho_true", "rho_est", "angle_error_rad"),
            (grid.nodes, density.values, result.density_est.values, angles),
        )
    return 0


def cmd_addition_check(args) -> int:
    if args.degree < 0:
        print("addition-check: --degree must be >= 0", file=sys.stderr)
        return 2
    if args.samples < 1:
        print("addition-check: --samples must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.tol < math.inf:  # NaN fails too
        print("addition-check: --tol must be finite and nonnegative", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("addition-check: --seed must be >= 0", file=sys.stderr)
        return 2
    residual = addition_theorem_residual(args.degree, args.samples, args.seed)
    print(f"degree {args.degree}: max residual {residual:.3e} over {args.samples} samples")
    return 0 if residual <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochobs",
        description="Exact representation checks, ensemble simulation, and "
        "moment-based reconstruction for Bloch ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-rep", help="run the exact operator-identity suite")
    p.add_argument("--degree-max", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="print operator expressions")
    p.set_defaults(fn=cmd_verify_rep)

    p = sub.add_parser("identities", help="emit the constant quadratic form")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("simulate", help="simulate the ensemble output trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile-out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("equivalence", help="randomized output-equivalence test")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_equivalence)

    p = sub.add_parser("reconstruct", help="recover density and initial profile")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--mode",
        required=True,
        choices=["oracle-psi", "oracle-moments", "measured-moments"],
    )
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("addition-check", help="spherical-harmonic addition theorem")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_addition_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StageError, ValueError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
