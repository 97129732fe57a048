"""Output checks.  Each returns a list of failure messages (empty when it passes).

The truth is rebuilt here from the config with numpy alone (Gauss-Legendre
nodes, the Gaussian density and the angle-map profile), so the checks do not
trust the package to describe its own inputs.  The chosen words, and a sha256
digest of each identity's basis and exact coefficients, were recorded at the
commit that added the benchmark, in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text(encoding="utf-8"))


@dataclass
class Context:
    cfg_dir: Path
    ref_dir: Path
    # Values the checks measure on the way, such as rho_max_rel_err.
    values: dict = field(default_factory=dict)

    def config(self, name: str) -> dict:
        return json.loads((self.cfg_dir / name).read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def words_key(phi: dict) -> str:
    return "words:" + json.dumps(phi, sort_keys=True)


def grid_nodes(box: dict, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    x1, w1 = np.polynomial.legendre.leggauss(n1)
    x2, w2 = np.polynomial.legendre.leggauss(n2)
    s1 = box["a1"] + (x1 + 1.0) * (box["b1"] - box["a1"]) / 2.0
    s2 = box["a2"] + (x2 + 1.0) * (box["b2"] - box["a2"]) / 2.0
    w1 = w1 * (box["b1"] - box["a1"]) / 2.0
    w2 = w2 * (box["b2"] - box["a2"]) / 2.0
    nodes = np.stack([np.repeat(s1, n2), np.tile(s2, n1)], axis=1)
    return nodes, np.outer(w1, w2).ravel()


def truth_on_grid(cfg: dict, truth: dict) -> tuple[np.ndarray, ...]:
    """(nodes, weights, rho, states) for a Gaussian density and angle-map profile."""
    nodes, weights = grid_nodes(cfg["box"], cfg["grid"]["n1"], cfg["grid"]["n2"])
    dens = truth["density"]
    d = (nodes - np.array(dens["center"])) / np.array(dens["widths"])
    rho = dens.get("amplitude", 1.0) * np.exp(-0.5 * (d * d).sum(axis=1))
    prof = truth["profile"]
    t = prof["theta"][0] + nodes @ np.array(prof["theta"][1:])
    p = prof["phi"][0] + nodes @ np.array(prof["phi"][1:])
    states = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)
    return nodes, weights, rho, states


def _result(out: Path, step: str) -> dict:
    return json.loads((out / f"{step}.json").read_text(encoding="utf-8"))


def words_digest(ctx: Context, out: Path, step: str, config: str) -> list[str]:
    key = words_key(ctx.config(config)["phi"])
    words = _result(out, step)["diagnostics"]["words"]
    if words != DIGESTS.get(key):
        return [f"{step}: chosen words {words} do not match the recorded digest"]
    return []


def coeffs_digest(ctx: Context, out: Path, step: str, degree: int) -> list[str]:
    payload = _result(out, step)
    got = sha256(json.dumps([payload["basis"], payload["coeffs"]]).encode())
    if payload.get("n") != degree or got != DIGESTS.get(f"identities:{degree}"):
        return [f"{step}: identity basis/coefficients do not match the recorded digest"]
    return []


def oracle_psi_exact(ctx: Context, out: Path, step: str, config: str, flip: bool) -> list[str]:
    """rho and profile within 1e-8 of the truth (up to -x for even degree)."""
    cfg = ctx.config(config)
    _, _, rho, states = truth_on_grid(cfg, cfg["truth"])
    res = _result(out, step)
    if res["undefined_nodes"]:
        return [f"{step}: {len(res['undefined_nodes'])} undefined nodes"]
    est = np.array(res["profile"], dtype=float)
    err = np.abs(est - states).max()
    if flip:
        err = min(err, np.abs(est + states).max())
    rho_err = np.abs(np.array(res["density"]) - rho).max()
    failures = []
    if not rho_err <= 1e-8:
        failures.append(f"{step}: density off the truth by {rho_err:.3e}")
    if not err <= 1e-8:
        failures.append(f"{step}: profile off the truth by {err:.3e}")
    return failures


def rho_error(ctx: Context, out: Path, step: str, config: str) -> list[str]:
    """Record max|rho_est - rho| / max rho; a fit error, not a pass/fail check."""
    cfg = ctx.config(config)
    _, _, rho, _ = truth_on_grid(cfg, cfg["truth"])
    est = np.array(_result(out, step)["density"])
    ctx.values["rho_max_rel_err"] = float(np.abs(est - rho).max() / rho.max())
    return []


def matches_reference(ctx: Context, out: Path, step: str, reference: str, tol: float) -> list[str]:
    est = np.array(_result(out, step)["density"])
    ref = np.array(json.loads((ctx.ref_dir / reference).read_text(encoding="utf-8"))["density"])
    gap = float(np.abs(est - ref).max() / np.abs(ref).max())
    if not gap <= tol:
        return [f"{step}: density {gap:.3e} of peak from the oracle-moments reference"]
    return []


def equivalent(ctx: Context, out: Path, step: str) -> list[str]:
    verdict = _result(out, step)["verdict"]
    if verdict != "equivalent-so-far":
        return [f"{step}: antipodal pair reported {verdict!r}"]
    return []


def feature_fit(ctx: Context, out: Path, step: str) -> list[str]:
    res = _result(out, "feature")
    if not res["span_fit_max_rel_err"] <= 1e-6:
        return [f"{step}: fit of a span member off by {res['span_fit_max_rel_err']:.3e}"]
    return []


def simulation(ctx: Context, out: Path, step: str, config: str) -> list[str]:
    """Final profile on the sphere, grid and density as configured, y(0) right."""
    cfg = ctx.config(config)
    nodes, weights, rho, states = truth_on_grid(cfg, cfg)
    with open(out / "profile.csv", newline="", encoding="utf-8") as fh:
        rows = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        trace = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
    failures = []
    norm_err = np.abs(np.linalg.norm(rows[:, 4:7], axis=1) - 1.0).max()
    if not norm_err <= 1e-12:
        failures.append(f"{step}: final states off the sphere by {norm_err:.3e}")
    if not (np.allclose(rows[:, 0:2], nodes, rtol=0, atol=1e-14)
            and np.allclose(rows[:, 2], weights, rtol=1e-13, atol=0)
            and np.allclose(rows[:, 3], rho, rtol=1e-13, atol=0)):
        failures.append(f"{step}: profile CSV grid, weights or density differ from the config")
    y0 = float(np.dot(weights * rho, states[:, 2]))
    if not (trace[0, 0] == 0.0 and abs(trace[0, 1] - y0) <= 1e-12 * max(1.0, abs(y0))):
        failures.append(f"{step}: y(0) = {trace[0, 1]!r}, expected {y0!r}")
    total = sum(seg[0] for seg in cfg["schedule"])
    if not abs(trace[-1, 0] - total) <= 1e-9 * total:
        failures.append(f"{step}: trace ends at {trace[-1, 0]!r}, schedule at {total!r}")
    return failures
