import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blochobs import cli
from blochobs import ensemble as ens
from blochobs.cli import main, parse_phi
from blochobs.polynomials import Poly
from blochobs.reconstruction import ReconstructionConfig, reconstruct

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def base_config(**overrides):
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 4, "n2": 4},
        "phi": {"degree": 1, "named": "x3"},
        "density": {"kind": "uniform", "value": 1.0},
        "profile": {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]},
        "schedule": [[0.4, 1.0, 0.0], [0.3, 0.0, 1.0]],
        "dt": 0.1,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_rep_ok(capsys):
    assert main(["verify-rep", "--degree-max", "3"]) == 0
    out = capsys.readouterr().out
    for lam in ("-2", "-6", "-12"):
        assert lam in out


def test_verify_rep_dump(capsys):
    assert main(["verify-rep", "--degree-max", "1", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "[1212]" in out and "[00]" in out


def test_verify_rep_usage_error():
    assert main(["verify-rep", "--degree-max", "0"]) == 2


def test_verify_rep_degree_above_cap_is_usage_error(capsys):
    """Rejected before any check runs, so no table row is printed."""
    assert main(["verify-rep", "--degree-max", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify-rep: --degree-max must be within 1..12\n"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identities_golden_bytes(tmp_path, n):
    out = tmp_path / "identity.json"
    assert main(["identities", "--degree", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"identities_n{n}.json").read_bytes()


def test_identities_stdout_matches_golden(capsys):
    assert main(["identities", "--degree", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "identities_n2.json").read_text(encoding="utf-8")


# sha256 of the `identities --degree n` output bytes, recorded with the
# Fraction-backed scalar that preceded the integer one.
IDENTITY_SHA256 = {
    4: "037cbe028d7af9bad2922ef69545229b83901a49b99ca4866c78ba3b00ae1fcd",
    5: "142c51d433b36e2568c8ac698597bcd98eb48bc6f6a90718ed0a61db2578f9e9",
    6: "6eea7c169fa3ba81ffcb4ed2806cf6cecda2f17dfe02af39fce71e57b4eec20d",
    7: "0aab41a1a0ed7efb045cd938b3539f6093bcbe67bd1dec74b54356655b964d04",
    8: "009609388a5fbbab64d39ace16cb77f200bb5fddcb1136d7e6b6f990fb816471",
}


@pytest.mark.parametrize("n", sorted(IDENTITY_SHA256))
def test_identities_pinned_sha256(tmp_path, n):
    out = tmp_path / "identity.json"
    assert main(["identities", "--degree", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == IDENTITY_SHA256[n]


TRUTH = {
    "profile": {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]},
    "density": {"kind": "gaussian", "center": [0.5, 1.0], "widths": [0.6, 0.6]},
}
# The same angle maps for -x(sigma): theta -> pi - theta, phi -> phi + pi.
ANTIPODE = {
    "profile": {
        "kind": "angles",
        "theta": [math.pi - 0.8, -0.5, -0.3],
        "phi": [0.2 + math.pi, 0.9, -0.4],
    },
    "density": TRUTH["density"],
}

# sha256 of the output bytes of small equivalence and measured-moments runs,
# recorded before the two pairs of a trial shared one simulation pass and
# before the prefix tree shared its rotation plans.  The equivalence pins
# were re-recorded when the schedules came to be drawn from random.Random.
# x3 is odd, so the antipodal pair is distinguished; x1x2 is even, so it is
# equivalent so far, here on a grid of 576 nodes.  The
# measured-moments pin was re-recorded when the ridge setting and three
# diagnostics went: its bytes are the earlier run with "ridge": 0.0, less the
# fit_residuals, identity_max_residual and gram_min_eigenvalue keys, plus
# gram_min_pivot.  The oracle-moments pin (8 x 8 grid, D = 6) was recorded
# while the moments still travelled in a dict keyed by (basis index, a, b).
# Both moment-mode pins were re-recorded when the moments and the fit became
# one separable sum over the sigma2 powers, then the sigma1 powers: their
# floats moved at roundoff (2.8e-12 relative in the oracle-moments density,
# 1.4e-16 on one measured-moments node), and the gram_condition key went.
# The equivalence-x1x2 pin (was 2535640a...) was re-recorded when simulate
# came to sample each segment from phi's Fourier rows on the node orbits: its
# gap, roundoff between antipodal pairs, moved from 8.3e-17 to 1.7e-16.
PINNED_RUNS = {
    "equivalence-x3": (
        ["equivalence"],
        {"phi": {"degree": 1, "named": "x3"}, "grid": 5},
        "6e58523a588031087fabf862f28dc85aeb28f5bdb688d1a10e8ca0828b323014",
    ),
    "equivalence-x1x2": (
        ["equivalence"],
        {"phi": {"degree": 2, "named": "x1x2"}, "grid": 24},
        "836b6b6d2f790ced3c979f57e223a7b7c21290c993f976cc1ea517a4aad0daa0",
    ),
    "measured-moments-x3": (
        ["reconstruct", "--mode", "measured-moments"],
        {"phi": {"degree": 1, "named": "x3"}, "grid": 3},
        "234472e2b0979f9f20efa00c33fbccf337edfa9a846016b84a38d171b0c5c9c0",
    ),
    "oracle-moments-x3": (
        ["reconstruct", "--mode", "oracle-moments"],
        {"phi": {"degree": 1, "named": "x3"}, "grid": 8, "D": 6},
        "196e0205142e2eb24314e9f897e26c32e2ace3c11beb38ac901910c39d337e2f",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_runs_pinned_sha256(tmp_path, name):
    command, setup, digest = PINNED_RUNS[name]
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": setup["grid"], "n2": setup["grid"]},
        "phi": setup["phi"],
    }
    if command[0] == "equivalence":
        cfg.update(pair_a=TRUTH, pair_b=ANTIPODE, trials=4, tol=1e-9, seed=3)
    else:
        cfg.update(truth=TRUTH, reconstruction={"D": setup.get("D", 1), "fd_word_cap": 5})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.json"
    assert main(command[:1] + ["--config", path] + command[1:] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of simulate's outputs on a 91 x 91 grid, whose 8,281 nodes span two
# dot chunks, recorded while every segment was still set up over all nodes
# at once and set up again for its end rotation.  trace.csv (was d2fb1d17...)
# was re-recorded when each segment came to be sampled from phi's Fourier
# rows on the node orbits: 114 of its 151 y(t > 0) moved, by at most 5.0e-16
# of max |y|; the times, y(0) and profile.csv kept their bytes.
SIMULATE_SHA256 = {
    "trace.csv": "ebe126864b085b2d18c6299e0463529fea5d24fbb3d2c6720b9c33e94781bef4",
    "profile.csv": "be5d4113f83a2160967f6197afc3fec66505f6a2c71088ccf3e4bb5bcdc97ffa",
}


def test_simulate_pinned_sha256(tmp_path):
    schedule = [[0.3, 1.0, -0.5], [0.25, -0.7, 1.9], [0.4, -1.1, 0.6], [0.2, 0.0, 0.0], [0.35, 1.3, 0.8]]
    cfg = base_config(
        grid={"n1": 91, "n2": 91}, phi={"degree": 2, "named": "x1x2"}, schedule=schedule, dt=0.01, **TRUTH
    )
    path = write_config(tmp_path, cfg)
    args = ["--out", str(tmp_path / "trace.csv"), "--profile-out", str(tmp_path / "profile.csv")]
    assert main(["simulate", "--config", path] + args) == 0
    for name, digest in SIMULATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_identities_usage_error():
    assert main(["identities", "--degree", "0"]) == 2


def test_simulate_trace(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,y"
    assert lines[1].startswith("0,")
    times = [float(row.split(",")[0]) for row in lines[1:]]
    assert times[-1] == pytest.approx(0.7)
    assert any(abs(t - 0.4) < 1e-12 for t in times)  # boundary included


def test_simulate_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_profile_snapshot(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "trace.csv"
    snap = tmp_path / "profile.csv"
    assert main(
        ["simulate", "--config", cfg, "--out", str(out), "--profile-out", str(snap)]
    ) == 0
    lines = snap.read_text().strip().splitlines()
    assert lines[0] == "sigma1,sigma2,weight,rho,x1,x2,x3"
    assert len(lines) == 1 + 16


def test_simulate_dt_larger_than_duration(tmp_path):
    cfg = write_config(tmp_path, base_config(schedule=[[0.3, 0.5, 0.5]], dt=10.0))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 3  # header + both endpoints


def test_simulate_unknown_key_rejected(tmp_path):
    cfg = base_config()
    cfg["extra"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_bad_box_rejected(tmp_path):
    cfg = base_config()
    cfg["box"]["a2"] = -1.0
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_seed_flag_rejected(tmp_path):
    path = write_config(tmp_path, base_config())
    args = ["simulate", "--config", path, "--out", str(tmp_path / "x.csv"), "--seed", "1"]
    assert main(args) == 2


def test_simulate_seed_key_rejected(tmp_path):
    path = write_config(tmp_path, base_config(seed=1))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_inharmonic_phi_rejected(tmp_path):
    cfg = base_config()
    cfg["phi"] = {"degree": 2, "coefficients": [[[2, 0, 0], 1.0]]}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_phi_exponent_not_a_list_rejected(tmp_path):
    cfg = base_config()
    cfg["phi"] = {"degree": 1, "coefficients": [[5, 1]]}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("name", [["x3"], {"x3": 1}], ids=["list", "object"])
def test_phi_named_not_a_string_rejected(tmp_path, capsys, name):
    cfg = base_config()
    cfg["phi"] = {"degree": 1, "named": name}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: phi.named: unknown observable")


def test_config_not_utf8_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(base_config()).encode("utf-16"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not UTF-8")


def test_constant_phi_accepted_by_simulate_and_equivalence(tmp_path):
    const = {"degree": 0, "coefficients": [[[0, 0, 0], 1]]}
    path = write_config(tmp_path, base_config(phi=const))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 0
    density = {"kind": "uniform", "value": 1.0}
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 3, "n2": 3},
        "phi": const,
        "pair_a": {"profile": {"kind": "constant", "x": [0.0, 0.6, 0.8]}, "density": density},
        "pair_b": {"profile": {"kind": "constant", "x": [1.0, 0.0, 0.0]}, "density": density},
        "trials": 3,
        "tol": 1e-12,
    }
    path = write_config(tmp_path, cfg, "eq.json")
    out = tmp_path / "verdict.json"
    assert main(["equivalence", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "equivalent-so-far"


def test_equivalence_self_pair(tmp_path):
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 3, "n2": 3},
        "phi": {"degree": 1, "named": "x3"},
        "pair_a": {
            "profile": {"kind": "constant", "x": [0.0, 0.6, 0.8]},
            "density": {"kind": "uniform", "value": 1.0},
        },
        "pair_b": {
            "profile": {"kind": "constant", "x": [0.0, 0.6, 0.8]},
            "density": {"kind": "uniform", "value": 1.0},
        },
        "trials": 5,
        "tol": 1e-12,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verdict.json"
    assert main(["equivalence", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["verdict"] == "equivalent-so-far"
    assert verdict["gap"] == 0.0


def test_equivalence_scaled_density(tmp_path):
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 3, "n2": 3},
        "phi": {"degree": 1, "named": "x3"},
        "pair_a": {
            "profile": {"kind": "constant", "x": [0.0, 0.0, 1.0]},
            "density": {"kind": "uniform", "value": 1.0},
        },
        "pair_b": {
            "profile": {"kind": "constant", "x": [0.0, 0.0, 1.0]},
            "density": {"kind": "uniform", "value": 1.01},
        },
        "trials": 3,
        "tol": 1e-12,
        "seed": 4,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verdict.json"
    assert main(["equivalence", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["verdict"] == "distinguished"
    assert verdict["time"] == 0.0


def test_equivalence_rejects_nan_tol(tmp_path):
    """A NaN tolerance would compare false everywhere and call two clearly
    different pairs equivalent."""
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 3, "n2": 3},
        "phi": {"degree": 1, "named": "x3"},
        "pair_a": {
            "profile": {"kind": "constant", "x": [0.0, 0.0, 1.0]},
            "density": {"kind": "uniform", "value": 1.0},
        },
        "pair_b": {
            "profile": {"kind": "constant", "x": [0.0, 0.6, 0.8]},
            "density": {"kind": "uniform", "value": 1.0},
        },
        "trials": 3,
        "tol": float("nan"),
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verdict.json"
    assert main(["equivalence", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "profile",
    [
        {"kind": "table", "states": [[0.0, 0.0, 1.0]] * 15 + [[float("nan"), 0.0, 1.0]]},
        {"kind": "constant", "x": [0, 0, 0]},
    ],
    ids=["table-nan-row", "constant-zero"],
)
def test_simulate_rejects_nan_and_zero_profiles(tmp_path, profile):
    """Both used to exit 0 with an all-NaN trace."""
    path = write_config(tmp_path, base_config(profile=profile))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "row",
    [[False, "0", True], [0.0, 0.0, "1"], [0.0, 0.0, True]],
    ids=["mixed", "string", "boolean"],
)
def test_simulate_rejects_non_numeric_table_states(tmp_path, row):
    """Table states used to go to np.asarray unchecked, so booleans and
    numeric strings parsed as coordinates and the run exited 0."""
    profile = {"kind": "table", "states": [[0.0, 0.0, 1.0]] * 15 + [row]}
    path = write_config(tmp_path, base_config(profile=profile))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("trials", 0), ("trials", -2), ("tol", -1e-12), ("dt", 0.0), ("dt", -0.05)],
    ids=["trials-zero", "trials-negative", "tol-negative", "dt-zero", "dt-negative"],
)
def test_equivalence_rejects_meaningless_settings(tmp_path, key, value):
    """trials < 1 gave a vacuous verdict, tol < 0 distinguished identical
    pairs, and dt <= 0 exited 1 where simulate exits 2."""
    same = {
        "profile": {"kind": "constant", "x": [0.0, 0.6, 0.8]},
        "density": {"kind": "uniform", "value": 1.0},
    }
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 3, "n2": 3},
        "phi": {"degree": 1, "named": "x3"},
        "pair_a": same,
        "pair_b": same,
        "trials": 3,
        "tol": 1e-12,
        key: value,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verdict.json"
    assert main(["equivalence", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def reconstruct_config():
    return {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 6, "n2": 6},
        "phi": {"degree": 2, "named": "x1x2"},
        "truth": {
            "profile": {
                "kind": "angles",
                "theta": [0.8, 0.5, 0.3],
                "phi": [0.2, 0.9, -0.4],
            },
            "density": {
                "kind": "gaussian",
                "center": [0.5, 1.0],
                "widths": [0.6, 0.6],
            },
        },
    }


def test_reconstruct_oracle_psi_n2(tmp_path):
    path = write_config(tmp_path, reconstruct_config())
    out = tmp_path / "result.json"
    report = tmp_path / "report.csv"
    code = main(
        [
            "reconstruct",
            "--config",
            path,
            "--mode",
            "oracle-psi",
            "--out",
            str(out),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["ambiguity"] == "antipodal-pair"
    assert result["undefined_nodes"] == []
    assert len(result["density"]) == 36
    assert all(r is not None and len(r) == 3 for r in result["profile"])
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "sigma1,sigma2,rho_true,rho_est,angle_error_rad"
    angles = [float(r.split(",")[4]) for r in lines[1:]]
    assert max(angles) <= 1e-7


def test_reconstruct_measured_low_order(tmp_path):
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 4, "n2": 4},
        "phi": {"degree": 1, "named": "x3"},
        "truth": {
            "profile": {"kind": "constant", "x": [0.0, 0.0, 1.0]},
            "density": {"kind": "uniform", "value": 0.8},
        },
        "reconstruction": {"D": 0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "result.json"
    code = main(
        ["reconstruct", "--config", path, "--mode", "measured-moments", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["ambiguity"] == "unique"
    assert all(abs(v - 0.8) < 1e-7 for v in result["density"])


def test_reconstruct_measured_cap_error(tmp_path):
    cfg = reconstruct_config()
    path = write_config(tmp_path, cfg)
    code = main(
        ["reconstruct", "--config", path, "--mode", "measured-moments", "--out",
         str(tmp_path / "r.json")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("fd_step", float("nan")),
        ("fd_step", float("inf")),
        ("rho_floor", float("nan")),
        ("fd_step", 10**400),
        ("fd_word_cap", -1),
    ],
    ids=["fd_step-nan", "fd_step-inf", "rho_floor-nan", "fd_step-huge-int", "cap-negative"],
)
def test_reconstruct_rejects_non_finite_and_negative_cap(tmp_path, key, value):
    cfg = reconstruct_config()
    cfg["reconstruction"] = {key: value}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    code = main(["reconstruct", "--config", path, "--mode", "measured-moments", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_reconstruct_rejects_ridge_as_unknown_key(tmp_path, capsys):
    """ridge only scaled every fitted psi_i by 1/(1+ridge), which scales rho
    and leaves the profile unchanged; it is no longer a setting."""
    cfg = reconstruct_config()
    cfg["reconstruction"] = {"ridge": 0.0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["reconstruct", "--config", path, "--mode", "oracle-psi", "--out", str(out)]) == 2
    assert "unknown keys ['ridge']" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


ZERO = {"kind": "uniform", "value": 0.0}
MODES = ["oracle-psi", "oracle-moments", "measured-moments"]
# x1x2 with a nonzero density aborts in point-inversion in the moment modes.
RECONSTRUCT_CASES = [(mode, "x3", TRUTH["density"]) for mode in MODES] + [
    (mode, phi, ZERO) for mode in MODES for phi in ("x3", "x1x2")
] + [("oracle-psi", "x1x2", TRUTH["density"])]


@pytest.mark.parametrize(
    "mode, phi, density",
    RECONSTRUCT_CASES,
    ids=[f"{m}-{p}-{'zero' if d is ZERO else 'gaussian'}" for m, p, d in RECONSTRUCT_CASES],
)
def test_reconstruct_output_is_strict_json_with_exact_diagnostics(tmp_path, mode, phi, density):
    """A zero density used to write "identity_max_residual": NaN, which is not JSON."""
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 4, "n2": 4},
        "phi": {"degree": 2 if phi == "x1x2" else 1, "named": phi},
        "truth": {"profile": TRUTH["profile"], "density": density},
        "reconstruction": {"D": 0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["reconstruct", "--config", path, "--mode", mode, "--out", str(out)]) == 0
    result = json.loads(out.read_text(), parse_constant=_reject_constant)
    expected = {"mode", "words", "undefined_count", "inversion_max_residual"}
    if phi == "x1x2":
        expected.add("stitch_components")
    if mode != "oracle-psi":
        expected.add("gram_min_pivot")
    assert set(result["diagnostics"]) == expected
    assert len(result["undefined_nodes"]) == (16 if density is ZERO else 0)


@pytest.mark.parametrize("phi, degree", [("x1x2", 2), ("x1x2x3", 3)])
def test_reconstruct_sigma1_zero_nodes_are_undefined(tmp_path, phi, degree):
    """On [-1, 1] x [0.5, 1.5] with n1 = 5 the middle Gauss column lies at
    sigma1 = 0, where the drift word's kappa weight sigma1 vanishes; those
    nodes are undefined and the rest recover the truth.  This used to divide
    0/0 and exit 1 in the density stage."""
    truth = {
        "profile": TRUTH["profile"],
        "density": {"kind": "gaussian", "center": [0.0, 1.0], "widths": [0.6, 0.6]},
    }
    cfg = {
        "box": {"a1": -1.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 5, "n2": 4},
        "phi": {"degree": degree, "named": phi},
        "truth": truth,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    args = ["reconstruct", "--config", path, "--mode", "oracle-psi", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 0
    result = json.loads(out.read_text(), parse_constant=_reject_constant)
    grid = ens.make_grid(ens.ParameterBox(-1.0, 1.0, 0.5, 1.5), 5, 4)
    zero = grid.nodes[:, 0] == 0.0
    assert result["undefined_nodes"] == np.flatnonzero(zero).tolist() == [8, 9, 10, 11]
    assert result["diagnostics"]["undefined_count"] == 4
    profile = ens.angles_profile(grid, [0.8, 0.5, 0.3], [0.2, 0.9, -0.4])
    density = ens.gaussian_density(grid, [0.0, 1.0], [0.6, 0.6])
    rho = np.array(result["density"])
    np.testing.assert_allclose(rho[~zero], density.values[~zero], rtol=0.0, atol=1e-8)
    assert all(result["profile"][j] is None for j in np.flatnonzero(zero))
    est = np.array([result["profile"][j] for j in np.flatnonzero(~zero)])
    direct = np.max(np.abs(est - profile.states[~zero]))
    if degree % 2:
        assert direct <= 1e-8
    else:
        # the undefined column cuts the grid in two, each stitched on its own
        assert result["diagnostics"]["stitch_components"] == 2
        left = grid.nodes[~zero, 0] < 0.0
        for side in (left, ~left):
            gap = np.abs(est[side] - profile.states[~zero][side])
            flipped = np.abs(est[side] + profile.states[~zero][side])
            assert min(np.max(gap), np.max(flipped)) <= 1e-8


def _old_report(path, grid, density, result, profile):
    """The per-node writer that --report used before it shared ensemble._write_csv."""
    undefined = set(result.undefined_nodes)
    est = result.profile_est.states
    direct = np.linalg.norm(est - profile.states, axis=1)
    flipped = np.linalg.norm(est + profile.states, axis=1)
    use_flip = result.ambiguity == "antipodal-pair" and float(
        np.nansum(flipped)
    ) < float(np.nansum(direct))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sigma1,sigma2,rho_true,rho_est,angle_error_rad\n")
        for j in range(grid.size):
            if j in undefined:
                angle = float("nan")
            else:
                x = -est[j] if use_flip else est[j]
                dot = min(1.0, max(-1.0, float(np.dot(x, profile.states[j]))))
                angle = math.acos(dot)
            fh.write(
                f"{grid.nodes[j, 0]:.17g},{grid.nodes[j, 1]:.17g},"
                f"{density.values[j]:.17g},{result.density_est.values[j]:.17g},"
                f"{angle:.17g}\n"
            )
    return use_flip


def test_reconstruct_report_matches_per_node_writer(tmp_path):
    """17 x 17 nodes span two CSV blocks, the second one partial; every
    seventh node has zero density and is undefined; the antipodal truths make
    the report flip the estimate in one of the two runs."""
    grid = ens.make_grid(ens.ParameterBox(0.0, 1.0, 0.5, 1.5), 17, 17)
    assert grid.size > ens._CSV_BLOCK and grid.size % ens._CSV_BLOCK
    values = [0.0 if j % 7 == 0 else 1.0 + 0.01 * j for j in range(grid.size)]
    flips = set()
    for truth in (TRUTH, ANTIPODE):
        cfg = {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
            "grid": {"n1": 17, "n2": 17},
            "phi": {"degree": 2, "named": "x1x2"},
            "truth": {"profile": truth["profile"], "density": {"kind": "table", "values": values}},
        }
        path = write_config(tmp_path, cfg)
        report = tmp_path / "report.csv"
        assert main(
            ["reconstruct", "--config", path, "--mode", "oracle-psi", "--out",
             str(tmp_path / "r.json"), "--report", str(report)]
        ) == 0
        p = truth["profile"]
        profile = ens.angles_profile(grid, p["theta"], p["phi"])
        density = ens.table_density(grid, values)
        result = reconstruct(
            parse_phi(cfg["phi"]), grid, profile, density, ReconstructionConfig("oracle-psi")
        )
        assert len(result.undefined_nodes) == len(values[::7])
        reference = tmp_path / "reference.csv"
        flips.add(_old_report(reference, grid, density, result, profile))
        assert report.read_bytes() == reference.read_bytes()
    assert flips == {False, True}


def _old_payload(grid, result):
    """The per-node payload cmd_reconstruct built before _emit took arrays."""
    undefined = set(result.undefined_nodes)
    return {
        "density": [v for v in result.density_est.values.tolist()],
        "profile": [
            None if j in undefined else result.profile_est.states[j].tolist()
            for j in range(grid.size)
        ],
        "ambiguity": result.ambiguity,
        "undefined_nodes": sorted(undefined),
        "diagnostics": result.diagnostics,
    }


@pytest.mark.parametrize("truth", [TRUTH, ANTIPODE], ids=["truth", "antipode"])
def test_reconstruct_json_matches_per_node_payload(tmp_path, truth):
    """17 x 17 nodes span two JSON blocks, the second one partial; every
    seventh node has zero density, so its profile row is null."""
    grid = ens.make_grid(ens.ParameterBox(0.0, 1.0, 0.5, 1.5), 17, 17)
    assert grid.size > ens._JSON_BLOCK and grid.size % ens._JSON_BLOCK
    values = [0.0 if j % 7 == 0 else 1.0 + 0.01 * j for j in range(grid.size)]
    cfg = {
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
        "grid": {"n1": 17, "n2": 17},
        "phi": {"degree": 2, "named": "x1x2"},
        "truth": {"profile": truth["profile"], "density": {"kind": "table", "values": values}},
    }
    out = tmp_path / "r.json"
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path, "--mode", "oracle-psi", "--out", str(out)]) == 0
    p = truth["profile"]
    profile = ens.angles_profile(grid, p["theta"], p["phi"])
    density = ens.table_density(grid, values)
    result = reconstruct(
        parse_phi(cfg["phi"]), grid, profile, density, ReconstructionConfig("oracle-psi")
    )
    assert len(result.undefined_nodes) == len(values[::7])
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(_old_payload(grid, result), fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert out.read_bytes() == reference.read_bytes()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -2.5e-17, 0.1]
_STRINGS = ["", "plain", "quote\"back\\slash", "line\nbreak\ttab", "\x00\x1f", "σ₁ρ☃", "\U0001f600"]


def _random_json(rng, depth):
    """A random payload for _emit and the plain json equivalent of it."""
    kind = rng.integers(0, 10 if depth < 3 else 5)
    if kind == 0:
        value = int(rng.integers(-(10**6), 10**6)) * int(rng.choice([1, 10**30]))
        return value, value
    if kind == 1:
        value = [True, False, None][rng.integers(0, 3)]
        return value, value
    if kind == 2:
        value = _STRINGS[rng.integers(0, len(_STRINGS))]
        return value, value
    if kind in (3, 4):
        value = float(_SPECIAL_FLOATS[rng.integers(0, len(_SPECIAL_FLOATS))])
        if rng.random() < 0.5:
            value = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
        return value, value
    if kind in (5, 6):
        shape = (int(rng.choice([0, 1, 4, 300])),)
        if kind == 6:
            shape += (int(rng.integers(1, 5)),)
        array = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        specials = rng.random(shape) < 0.1
        array[specials] = rng.choice(_SPECIAL_FLOATS, size=int(specials.sum()))
        plain = array.tolist()
        if rng.random() < 0.5:
            null = rng.random(shape[0]) < 0.3
            array = ens.NullRows(array, null)
            plain = [None if n else row for n, row in zip(null.tolist(), plain)]
        return array, plain
    if kind == 7:
        pairs = [_random_json(rng, depth + 1) for _ in range(rng.integers(0, 4))]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    if kind == 8:
        pairs = [_random_json(rng, depth + 1) for _ in range(rng.integers(0, 3))]
        return tuple(p[0] for p in pairs), [p[1] for p in pairs]
    keys = [_STRINGS[i] + str(i) for i in rng.permutation(len(_STRINGS))[: rng.integers(0, 5)]]
    pairs = [_random_json(rng, depth + 1) for _ in keys]
    return (
        {k: p[0] for k, p in zip(keys, pairs)},
        {k: p[1] for k, p in zip(keys, pairs)},
    )


@pytest.mark.parametrize("seed", range(40))
def test_emit_matches_json_dump(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    payload, plain = _random_json(rng, 0)
    if seed % 4 == 0:  # payloads that are all arrays, like reconstruct's
        fields = [_random_json(rng, 2) for _ in range(3)]
        arrays = (np.ndarray, ens.NullRows)
        while not all(isinstance(f[0], arrays) for f in fields):
            fields = [f if isinstance(f[0], arrays) else _random_json(rng, 2) for f in fields]
        payload = {"a": fields[0][0], "b": {"c": fields[1][0], "d": [fields[2][0]]}}
        plain = {"a": fields[0][1], "b": {"c": fields[1][1], "d": [fields[2][1]]}}
    want = json.dumps(plain, sort_keys=True, indent=2) + "\n"
    cli._emit(payload, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == want
    cli._emit(payload, None)
    assert capsys.readouterr().out == want


def test_reconstruct_rejects_constant_phi(tmp_path):
    cfg = reconstruct_config()
    cfg["phi"] = {"degree": 0, "coefficients": [[[0, 0, 0], 1]]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["reconstruct", "--config", path, "--mode", "oracle-psi", "--out", str(out)]) == 2
    assert not out.exists()


def test_reconstruct_unknown_reconstruction_key(tmp_path):
    cfg = reconstruct_config()
    cfg["reconstruction"] = {"bogus": 1}
    path = write_config(tmp_path, cfg)
    code = main(
        ["reconstruct", "--config", path, "--mode", "oracle-psi", "--out",
         str(tmp_path / "r.json")]
    )
    assert code == 2


def test_reconstruct_seed_flag_rejected(tmp_path):
    path = write_config(tmp_path, reconstruct_config())
    code = main(
        ["reconstruct", "--config", path, "--mode", "oracle-psi", "--out",
         str(tmp_path / "r.json"), "--seed", "1"]
    )
    assert code == 2


def test_reconstruct_seed_key_rejected(tmp_path):
    cfg = reconstruct_config()
    cfg["seed"] = 1
    path = write_config(tmp_path, cfg)
    code = main(
        ["reconstruct", "--config", path, "--mode", "oracle-psi", "--out",
         str(tmp_path / "r.json")]
    )
    assert code == 2


NEGATIVE_SEEDS = {
    "equivalence-config": ([], {"seed": -1}, "config.seed"),
    "equivalence-flag": (["--seed", "-1"], {}, "--seed"),
    "addition-check-flag": (None, None, "--seed"),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_SEEDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, name):
    """numpy rejects a negative seed, which used to exit 1 with its message."""
    flags, extra, field = NEGATIVE_SEEDS[name]
    if flags is None:
        code = main(["addition-check", "--degree", "2", "--seed", "-1"])
    else:
        cfg = {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
            "grid": {"n1": 3, "n2": 3},
            "phi": {"degree": 1, "named": "x3"},
            "pair_a": TRUTH,
            "pair_b": ANTIPODE,
            "trials": 2,
            "tol": 1e-9,
            **extra,
        }
        path = write_config(tmp_path, cfg)
        code = main(["equivalence", "--config", path, "--out", str(tmp_path / "v.json")] + flags)
    assert code == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


def test_addition_check():
    assert main(["addition-check", "--degree", "3", "--samples", "50"]) == 0
    assert main(["addition-check", "--degree", "2", "--tol", "1e-30"]) == 1


def test_addition_check_pinned_line(capsys):
    """Recorded with each |Y_n^k|^2 rounded once from an exact ratio; the
    stream is random.Random(7)."""
    assert main(["addition-check", "--degree", "4", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "degree 4: max residual 2.220e-16 over 100 samples\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--degree", "10"],
        ["identities", "--degree", "12"],
        ["addition-check", "--degree", "12"],
        ["addition-check", "--degree", "100", "--samples", "10"],
    ],
    ids=["identities-10", "identities-12", "addition-check-12", "addition-check-100"],
)
def test_high_degree_addition_theorem_passes(tmp_path, capsys, argv):
    """The float-summed Legendre polynomials failed the 1e-10 gate from n = 10
    (residual 2.6e-10), although the theorem is exact, and a float norm of
    factorials exited 1 at n = 100 with "int too large to convert to float"."""
    if argv[0] == "identities":
        argv = argv + ["--out", str(tmp_path / "identity.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


# Runs the command through cli.main in a fresh interpreter and reports, on the
# last line of stderr, its exit code, whether importing numpy alone loaded
# numpy.random, and whether numpy.random is loaded after the command.
_IMPORT_PROBE = """
import sys
import numpy
eager = "numpy.random" in sys.modules
from blochobs.cli import main
code = main(sys.argv[1:])
print(code, eager, "numpy.random" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("command", ["equivalence", "identities", "addition-check"])
def test_seeded_commands_do_not_import_numpy_random(tmp_path, command):
    """In this process other tests have loaded numpy.random already."""
    if command == "equivalence":
        cfg = {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
            "grid": {"n1": 4, "n2": 4},
            "phi": {"degree": 2, "named": "x1x2"},
            "pair_a": TRUTH,
            "pair_b": ANTIPODE,
            "trials": 3,
            "tol": 1e-9,
        }
        argv = ["equivalence", "--config", write_config(tmp_path, cfg)]
    elif command == "identities":
        argv = ["identities", "--degree", "2"]
    else:
        argv = ["addition-check", "--degree", "2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, eager, loaded = proc.stderr.split()[-3:]
    if eager == "True":
        pytest.skip("this numpy loads numpy.random whenever numpy is imported")
    assert (code, loaded) == ("0", "False"), proc.stderr


# Runs whose BLAS calls OpenBLAS would split over threads if they covered the
# whole grid: a dot over more than 10,000 nodes (simulate at 110 x 110,
# oracle-moments at 128 x 128), and the fit at 91 x 91, D = 12, where one
# product of the (nodes, features) array, 8,281 by 91, was split.  Each run
# is repeated under OPENBLAS_NUM_THREADS=1 and =2 in fresh interpreters.
BLAS_THREAD_RUNS = {
    "simulate": (
        ["simulate"],
        base_config(grid={"n1": 110, "n2": 110}),
    ),
    "oracle-moments": (
        ["reconstruct", "--mode", "oracle-moments"],
        {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
            "grid": {"n1": 128, "n2": 128},
            "phi": {"degree": 1, "named": "x3"},
            "truth": TRUTH,
            "reconstruction": {"D": 2},
        },
    ),
    "oracle-moments-fit": (
        ["reconstruct", "--mode", "oracle-moments"],
        {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5},
            "grid": {"n1": 91, "n2": 91},
            "phi": {"degree": 1, "named": "x3"},
            "truth": TRUTH,
            "reconstruction": {"D": 12},
        },
    ),
}


@pytest.mark.parametrize("name", sorted(BLAS_THREAD_RUNS))
def test_outputs_do_not_depend_on_blas_threads(tmp_path, name):
    """With whole-grid dots the simulate trace and the oracle-moments result
    both changed bytes between one and two BLAS threads.  So did the
    91 x 91, D = 12 fit while it evaluated the features of every node in one
    matrix-vector product.  Every sum over nodes or features now goes
    through row_dots, whose dots of at most 8,192 elements stay on one
    thread."""
    command, cfg = BLAS_THREAD_RUNS[name]
    argv = command[:1] + ["--config", write_config(tmp_path, cfg)] + command[1:]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from blochobs.cli import main; sys.exit(main())",
             *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol=-1e-10"],
    ],
    ids=["no-samples", "negative-samples", "nan-tol", "inf-tol", "negative-tol"],
)
def test_addition_check_rejects_meaningless_settings(flags, capsys):
    """No samples gave a residual of 0 and exit 0, and a NaN tolerance exit 1
    as if the computation had failed."""
    assert main(["addition-check", "--degree", "2"] + flags) == 2
    assert capsys.readouterr().out == ""


def test_addition_theorem_residual_needs_samples():
    from blochobs.identities import addition_theorem_residual

    with pytest.raises(ValueError):
        addition_theorem_residual(2, sample_count=0)


@pytest.mark.parametrize(
    "value, expected",
    [
        (1e-12, Fraction(1e-12)),
        (3e-10, Fraction(3e-10)),
        (0.1, Fraction(1, 10)),
        (0.3333333333333333, Fraction(1, 3)),
    ],
    ids=["1e-12", "3e-10", "0.1", "1/3"],
)
def test_phi_coefficients_are_exact(value, expected):
    """limit_denominator(10**9) alone dropped coefficients below about 1e-9
    without a word; a value is now kept exactly unless a fraction with a
    denominator of at most 10**9 rounds back to it."""
    phi = parse_phi({"degree": 2, "coefficients": [[[1, 1, 0], 1], [[1, 0, 1], value]]})
    assert phi == Poly({(1, 1, 0): 1, (1, 0, 1): expected})
    assert float(expected) == value


def test_phi_small_inharmonic_term_rejected(tmp_path):
    """x1^2 - x2^2 + 1e-12 x3^2 is not harmonic; it used to parse as the
    harmonic x1^2 - x2^2."""
    cfg = base_config()
    cfg["phi"] = {
        "degree": 2,
        "coefficients": [[[2, 0, 0], 1], [[0, 2, 0], -1], [[0, 0, 2], 1e-12]],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
    ) == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        (["identities", "--degree", "1"], "--out"),
        (["simulate"], "--out"),
        (["simulate"], "--profile-out"),
        (["equivalence"], "--out"),
        (["reconstruct", "--mode", "oracle-psi"], "--out"),
        (["reconstruct", "--mode", "oracle-psi"], "--report"),
    ],
    ids=["identities", "simulate", "simulate-profile", "equivalence", "reconstruct", "report"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, flag):
    """An output path in a missing directory is bad usage: one stderr line
    naming the path and exit 2, as for a config that cannot be read.  It
    used to leave main as a FileNotFoundError."""
    common = {key: base_config()[key] for key in ("box", "grid", "phi")}
    configs = {
        "simulate": base_config(),
        "equivalence": dict(common, pair_a=TRUTH, pair_b=ANTIPODE, trials=1, tol=1e-9),
        "reconstruct": dict(common, truth=TRUTH, reconstruction={"D": 0}),
    }
    if command[0] in configs:
        command = command + ["--config", write_config(tmp_path, configs[command[0]])]
    bad = tmp_path / "missing" / "out"
    argv = command + [flag, str(bad)]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(bad) in err


@pytest.mark.parametrize(
    "command, outputs, bad",
    [
        (["simulate"], ["--out", "o/trace.csv"], ["--profile-out", "missing/p.csv"]),
        (["simulate"], ["--profile-out", "o/p.csv"], ["--out", "o"]),
        (["reconstruct", "--mode", "oracle-psi"], ["--out", "o/r.json"], ["--report", "missing/r.csv"]),
        (["reconstruct", "--mode", "oracle-psi"], ["--out", "o/r.json"], ["--report", "o"]),
    ],
    ids=["simulate-missing-dir", "simulate-directory", "report-missing-dir", "report-directory"],
)
def test_bad_later_output_path_writes_nothing(tmp_path, capsys, command, outputs, bad):
    """Every output path is checked before any work: a missing directory or
    a directory as the path exits 2 with one error line, and the outputs
    before it are not written either."""
    (tmp_path / "o").mkdir()
    common = {key: base_config()[key] for key in ("box", "grid", "phi")}
    configs = {
        "simulate": base_config(),
        "reconstruct": dict(common, truth=TRUTH, reconstruction={"D": 0}),
    }
    config = write_config(tmp_path, configs[command[0]])
    paths = [str(tmp_path / arg) if arg.startswith(("o", "missing")) else arg for arg in outputs + bad]
    assert main(command + ["--config", config] + paths) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and paths[-1] in err
    assert list((tmp_path / "o").iterdir()) == []
