"""Seeded workload generator: configs, command lines and the outputs to check.

Each workload is a list of steps; one repetition runs every step once, each in
a fresh interpreter.  Seed 0 gives the reference configs; any other seed
jitters the truth angles, the density centre and the simulation schedule
within ranges where every output check still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BOX = {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5}
THETA = (0.8, 0.5, 0.3)
PHI = (0.2, 0.9, -0.4)
CENTER = (0.5, 1.0)
WIDTHS = (0.6, 0.6)
ANGLE_JITTER = 0.1
CENTER_JITTER = 0.1

# Re (x1 + i x2)^n in the CLI's explicit coefficient form.
RE_W = {
    2: [[[2, 0, 0], 1], [[0, 2, 0], -1]],
    6: [[[6, 0, 0], 1], [[4, 2, 0], -15], [[2, 4, 0], 15], [[0, 6, 0], -1]],
}

WHY = {
    "exact-core": "exact CRational algebra (word search, quadratic identity, "
    "fit orthogonalization) does nearly all the work; the ensemble layer is idle",
    "recon-grid": "per-node point inversion, sign stitching and the JSON/CSV "
    "writers dominate; the exact layers are trivial because n <= 3",
    "sim-wide": "few rotate_states calls over 36,864 nodes each, a working set "
    "in L3 rather than L1: the ensemble layer in its wide shape",
    "measured-narrow": "thousands of rotate_states calls on 64 nodes: per-call "
    "overhead of the ensemble layer, and the only measured-moments path",
}

# Sizes per workload.  "full" is what the benchmark measures, sized so that
# one repetition takes a few seconds on a 2-CPU box (measured-narrow about 10 s:
# D = 1 needs word length 5, which alone is 2 * 6^5 output evaluations); a run
# then holds several repetitions.  "smoke" keeps every layer busy at a
# fraction of the cost, for the smoke test.
SIZES = {
    "full": {
        "exact_degree": 6,
        "exact_grid": 4,
        "identities_degree": 6,
        "feature_D": 8,
        "recon_grid": 64,
        "moments_D": 6,
        "sim_grid": 192,
        "sim_segments": 20,
        "sim_samples": 400,
        "measured_grid": 8,
        "measured_D": 1,
        "measured_cap": 5,
        "equiv_grid": 16,
        "equiv_trials": 50,
    },
    "smoke": {
        "exact_degree": 2,
        "exact_grid": 4,
        "identities_degree": 2,
        "feature_D": 3,
        "recon_grid": 8,
        "moments_D": 2,
        "sim_grid": 16,
        "sim_segments": 4,
        "sim_samples": 50,
        "measured_grid": 4,
        "measured_D": 0,
        "measured_cap": 4,
        "equiv_grid": 4,
        "equiv_trials": 3,
    },
}


@dataclass
class Step:
    """One invocation: child kind, argument template and what to check.

    ``{cfg}`` in an argument names the run's config directory and ``{out}``
    the repetition's output directory.  ``outputs`` must be byte-identical
    across repetitions; ``checks`` name functions in ``checks.py`` with their
    keyword arguments.
    """

    name: str
    kind: str
    args: list[str]
    outputs: list[str]
    checks: list[tuple[str, dict]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    why: str
    configs: dict[str, dict]
    steps: list[Step]
    # Steps run once per run, untimed, to build references for the checks.
    references: list[Step] = field(default_factory=list)


def _truth(rng: random.Random, jitter: bool) -> dict:
    def j(values, width):
        return [v + (rng.uniform(-width, width) if jitter else 0.0) for v in values]

    return {
        "profile": {
            "kind": "angles",
            "theta": j(THETA, ANGLE_JITTER),
            "phi": j(PHI, ANGLE_JITTER),
        },
        "density": {"kind": "gaussian", "center": j(CENTER, CENTER_JITTER), "widths": list(WIDTHS)},
    }


def _antipode(profile: dict) -> dict:
    """Angle maps of -x(sigma): theta -> pi - theta, phi -> phi + pi."""
    t0, t1, t2 = profile["theta"]
    p0, p1, p2 = profile["phi"]
    return {"kind": "angles", "theta": [math.pi - t0, -t1, -t2], "phi": [p0 + math.pi, p1, p2]}


def _rec_config(grid: int, phi: dict, truth: dict, D: int = 6, cap: int = 4) -> dict:
    return {
        "box": BOX,
        "grid": {"n1": grid, "n2": grid},
        "phi": phi,
        "truth": truth,
        "reconstruction": {"D": D, "fd_word_cap": cap},
    }


def _reconstruct(name, cfg, mode, checks, report=True) -> Step:
    args = ["reconstruct", "--config", f"{{cfg}}/{cfg}", "--mode", mode, "--out", f"{{out}}/{name}.json"]
    outputs = [f"{name}.json"]
    if report:
        args += ["--report", f"{{out}}/{name}.csv"]
        outputs.append(f"{name}.csv")
    return Step(name, "cli", args, outputs, checks)


def _oracle_psi_checks(cfg: str, flip: bool) -> list[tuple[str, dict]]:
    return [
        ("words_digest", {"config": cfg}),
        ("oracle_psi_exact", {"config": cfg, "flip": flip}),
    ]


def build(name: str, seed: int, size: str = "full") -> Workload:
    s = SIZES[size]
    rng = random.Random(seed)
    truth = _truth(rng, jitter=seed != 0)
    if name == "exact-core":
        n = s["exact_degree"]
        configs = {
            "exact.json": _rec_config(
                s["exact_grid"], {"degree": n, "coefficients": RE_W[n]}, truth
            ),
            "feature.json": {
                "box": BOX,
                "D": s["feature_D"],
                "grid": {"n1": 2 * s["feature_D"] + 2, "n2": 4 * s["feature_D"] + 4},
            },
        }
        steps = [
            _reconstruct("exact", "exact.json", "oracle-psi", _oracle_psi_checks("exact.json", n % 2 == 0), report=False),
            Step(
                "identities",
                "cli",
                ["identities", "--degree", str(s["identities_degree"]), "--out", "{out}/identities.json"],
                ["identities.json"],
                [("coeffs_digest", {"degree": s["identities_degree"]})],
            ),
            Step(
                "feature-basis",
                "feature-basis",
                ["{cfg}/feature.json", "{out}/feature.json"],
                ["feature.json"],
                [("feature_fit", {})],
            ),
        ]
        return Workload(name, WHY[name], configs, steps)
    if name == "recon-grid":
        g = s["recon_grid"]
        configs = {
            "x1x2.json": _rec_config(g, {"degree": 2, "named": "x1x2"}, truth),
            "x1x2x3.json": _rec_config(g, {"degree": 3, "named": "x1x2x3"}, truth),
            "x3.json": _rec_config(g, {"degree": 1, "named": "x3"}, truth, D=s["moments_D"]),
        }
        steps = [
            _reconstruct("x1x2", "x1x2.json", "oracle-psi", _oracle_psi_checks("x1x2.json", True)),
            _reconstruct("x1x2x3", "x1x2x3.json", "oracle-psi", _oracle_psi_checks("x1x2x3.json", False)),
            _reconstruct(
                "x3-moments",
                "x3.json",
                "oracle-moments",
                [("words_digest", {"config": "x3.json"}), ("rho_error", {"config": "x3.json"})],
            ),
        ]
        return Workload(name, WHY[name], configs, steps)
    if name == "sim-wide":
        schedule = [
            [rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            for _ in range(s["sim_segments"])
        ]
        total = sum(seg[0] for seg in schedule)
        g = s["sim_grid"]
        configs = {
            "sim.json": {
                "box": BOX,
                "grid": {"n1": g, "n2": g},
                "phi": {"degree": 1, "named": "x3"},
                "density": truth["density"],
                "profile": truth["profile"],
                "schedule": schedule,
                "dt": total / s["sim_samples"],
            }
        }
        steps = [
            Step(
                "simulate",
                "cli",
                ["simulate", "--config", "{cfg}/sim.json", "--out", "{out}/trace.csv", "--profile-out", "{out}/profile.csv"],
                ["trace.csv", "profile.csv"],
                [("simulation", {"config": "sim.json"})],
            )
        ]
        return Workload(name, WHY[name], configs, steps)
    if name == "measured-narrow":
        x3 = {"degree": 1, "named": "x3"}
        measured = _rec_config(s["measured_grid"], x3, truth, D=s["measured_D"], cap=s["measured_cap"])
        eg = s["equiv_grid"]
        configs = {
            "measured.json": measured,
            "equivalence.json": {
                "box": BOX,
                "grid": {"n1": eg, "n2": eg},
                "phi": {"degree": 2, "named": "x1x2"},
                "pair_a": truth,
                "pair_b": {"profile": _antipode(truth["profile"]), "density": truth["density"]},
                "trials": s["equiv_trials"],
                "tol": 1e-9,
                "seed": seed,
            },
        }
        steps = [
            _reconstruct(
                "measured",
                "measured.json",
                "measured-moments",
                [
                    ("words_digest", {"config": "measured.json"}),
                    ("matches_reference", {"reference": "oracle-reference.json", "tol": 1e-4}),
                    ("rho_error", {"config": "measured.json"}),
                ],
                report=False,
            ),
            Step(
                "equivalence",
                "cli",
                ["equivalence", "--config", "{cfg}/equivalence.json", "--out", "{out}/equivalence.json"],
                ["equivalence.json"],
                [("equivalent", {})],
            ),
        ]
        references = [_reconstruct("oracle-reference", "measured.json", "oracle-moments", [], report=False)]
        return Workload(name, WHY[name], configs, steps, references)
    raise KeyError(name)


NAMES = tuple(WHY)


def write_configs(workload: Workload, directory: Path) -> None:
    for fname, cfg in workload.configs.items():
        with open(directory / fname, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
