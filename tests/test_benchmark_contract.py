"""The benchmark's child runner, traced, still runs against the package.

``perfbench/tracer.py`` wraps blochobs functions and methods by name; a name
it reads that the package no longer has stops every traced run.  Each case
runs ``perfbench/child.py`` in its own interpreter, because the tracer
patches modules process-wide.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOX = {"a1": 0.0, "b1": 1.0, "a2": 0.5, "b2": 1.5}


def _run_child(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "1", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["exit"] == 0
    assert rec["trace"]["spans"]
    return rec


def test_traced_measured_moments_reconstruct(tmp_path):
    cfg = {
        "box": BOX,
        "grid": {"n1": 4, "n2": 4},
        "phi": {"degree": 1, "named": "x3"},
        "truth": {
            "profile": {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]},
            "density": {"kind": "gaussian", "center": [0.5, 1.0], "widths": [0.6, 0.6]},
        },
        "reconstruction": {"D": 0},
    }
    path = tmp_path / "measured.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "result.json"
    rec = _run_child(
        tmp_path, "cli", "reconstruct", "--config", str(path), "--mode", "measured-moments",
        "--out", str(out),
    )
    names = {span[0] for span in rec["trace"]["spans"]}
    assert {"reconstruction.reconstruct", "reconstruction.measured_word_moments"} <= names
    assert json.loads(out.read_text())["undefined_nodes"] == []


def test_traced_oracle_psi_reconstruct_with_report(tmp_path):
    """The tracer wraps PointInverter.__init__ as a span and
    invert_with_residual as a hot call."""
    cfg = {
        "box": BOX,
        "grid": {"n1": 6, "n2": 6},
        "phi": {"degree": 2, "named": "x1x2"},
        "truth": {
            "profile": {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]},
            "density": {"kind": "gaussian", "center": [0.5, 1.0], "widths": [0.6, 0.6]},
        },
    }
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(cfg))
    out, report = tmp_path / "result.json", tmp_path / "report.json"
    rec = _run_child(
        tmp_path, "cli", "reconstruct", "--config", str(path), "--mode", "oracle-psi",
        "--out", str(out), "--report", str(report),
    )
    names = {span[0] for span in rec["trace"]["spans"]}
    assert "reconstruction.PointInverter.init" in names
    calls = [row[2] for row in rec["trace"]["hot_calls"] if row[0].endswith("Inverter.invert")]
    assert calls == [1]
    assert json.loads(out.read_text())["ambiguity"] == "antipodal-pair"
    assert report.is_file()


def test_traced_feature_basis(tmp_path):
    path = tmp_path / "feature.json"
    path.write_text(json.dumps({"box": BOX, "D": 2, "grid": {"n1": 6, "n2": 12}}))
    out = tmp_path / "feature_out.json"
    rec = _run_child(tmp_path, "feature-basis", str(path), str(out))
    names = {span[0] for span in rec["trace"]["spans"]}
    assert {"reconstruction.FeatureBasis.init", "reconstruction.fit"} <= names
    assert json.loads(out.read_text())["size"] == 6


def test_traced_simulate_with_profile_out(tmp_path):
    """The tracer reads len(r.times) from what simulate returns, and set-up
    ends at the first call to ensemble.simulate."""
    cfg = {
        "box": BOX,
        "grid": {"n1": 5, "n2": 6},
        "phi": {"degree": 1, "named": "x3"},
        "density": {"kind": "gaussian", "center": [0.5, 1.0], "widths": [0.6, 0.6]},
        "profile": {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]},
        "schedule": [[0.4, 1.0, -0.5], [0.3, -0.7, 0.2]],
        "dt": 0.1,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    trace, profile = tmp_path / "trace.csv", tmp_path / "profile.csv"
    rec = _run_child(
        tmp_path, "cli", "simulate", "--config", str(path), "--out", str(trace),
        "--profile-out", str(profile),
    )
    spans = [span for span in rec["trace"]["spans"] if span[0] == "ensemble.simulate"]
    samples = len(trace.read_text().splitlines()) - 1
    assert [span[4] for span in spans] == [{"samples": samples}]
    assert "first_call" in rec
    assert len(profile.read_text().splitlines()) == 1 + 30


def test_traced_equivalence(tmp_path):
    """Set-up ends at the first call to ensemble.output_equiv_test, which the
    tracer records as one span."""
    truth = {"kind": "angles", "theta": [0.8, 0.5, 0.3], "phi": [0.2, 0.9, -0.4]}
    antipode = {
        "kind": "angles",
        "theta": [math.pi - 0.8, -0.5, -0.3],
        "phi": [0.2 + math.pi, 0.9, -0.4],
    }
    density = {"kind": "gaussian", "center": [0.5, 1.0], "widths": [0.6, 0.6]}
    cfg = {
        "box": BOX,
        "grid": {"n1": 4, "n2": 4},
        "phi": {"degree": 2, "named": "x1x2"},
        "pair_a": {"profile": truth, "density": density},
        "pair_b": {"profile": antipode, "density": density},
        "trials": 3,
        "tol": 1e-9,
    }
    path = tmp_path / "equivalence.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "verdict.json"
    rec = _run_child(tmp_path, "cli", "equivalence", "--config", str(path), "--out", str(out))
    spans = [span for span in rec["trace"]["spans"] if span[0] == "ensemble.output_equiv_test"]
    assert len(spans) == 1
    assert "first_call" in rec
    assert json.loads(out.read_text())["verdict"] == "equivalent-so-far"


def test_traced_identities(tmp_path):
    out = tmp_path / "n2.json"
    _run_child(tmp_path, "cli", "identities", "--degree", "2", "--out", str(out))
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "identities_n2.json").read_bytes()
