"""Smoke test of the benchmark itself, at reduced sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload with ``--size smoke``, untraced once and traced twice,
and fails unless:

- every run is correct and prints the result JSON as its last line;
- the metrics are exactly those BENCHMARK.json declares, each with its unit,
  and the human-readable lines name wall_s, setup_s, peak_rss_mb, fail_ratio
  and, where it applies, rho_max_rel_err;
- each layer metric is nonzero on the workloads that exercise its layer, and
  the exact-layer metrics are zero on sim-wide;
- the two traced runs report identical counts;
- the benchmark exits nonzero, without a result, when the package is absent.

The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

EXACT = [
    "polynomials.Poly.mul.calls",
    "exactlinalg.solve_exact.calls",
    "exactlinalg.solve_exact.max_unknowns",
    "exactlinalg.RowSpan.add.calls",
    "exactlinalg.RowSpan.add.accepted",
    "representation.apply_field.calls",
    "representation.word_basis_search.s",
    "representation.word_basis_search.kept_ratio",
    "identities.constant_quadratic_form.s",
    "identities.verify_quadratic_identity.s",
]
RECONSTRUCT = [
    "reconstruction.stage.word-basis-search.s",
    "reconstruction.stage.quadratic-identity.s",
    "reconstruction.stage.density.s",
    "reconstruction.stage.harmonic-values.s",
    "reconstruction.stage.point-inversion.s",
    "reconstruction.PointInverter.invert.calls",
    "reconstruction.PointInverter.init.s",
    "reconstruction.defined_ratio",
    "cli.parse.s",
    "cli.emit.s",
    "cli.cmd.reconstruct.self_s",
]
ENSEMBLE = [
    "ensemble.rotate_states.calls",
    "ensemble.rotate_states.nodes",
    "ensemble.rotate_states.s",
    "ensemble.rotate_states.nodes_per_call",
    "ensemble.phi_eval.calls",
    "ensemble.simulate.s",
    "ensemble.simulate.samples",
]
NONZERO = {
    "exact-core": EXACT + RECONSTRUCT + [
        "reconstruction.FeatureBasis.init.s",
        "reconstruction.fit.s",
        "reconstruction.stage.psi-samples.s",
        "reconstruction.stage.stitch.s",
        "cli.cmd.identities.self_s",
    ],
    "recon-grid": EXACT + RECONSTRUCT + [
        "reconstruction.FeatureBasis.init.s",
        "reconstruction.fit.s",
        "reconstruction.stage.psi-samples.s",
        "reconstruction.stage.moments.s",
        "reconstruction.stage.stitch.s",
    ],
    "sim-wide": ENSEMBLE + ["ensemble.evolve_profile.s", "cli.parse.s", "cli.emit.s", "cli.cmd.simulate.self_s"],
    "measured-narrow": RECONSTRUCT + ENSEMBLE + [
        "reconstruction.stage.moments.s",
        "reconstruction.measured_word_moments.s",
        "reconstruction.output_evals",
        "ensemble.output_equiv_test.s",
        "cli.cmd.equivalence.self_s",
    ],
}
ZERO = {"sim-wide": EXACT}
RHO_ERROR = {"recon-grid", "measured-narrow"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, label: str) -> tuple[dict, str]:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: not correct\n{proc.stdout}")
    return result, "\n".join(lines)


def check_declared(result: dict, declared: list[dict], label: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics/units differ from BENCHMARK.json: {got} vs {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import layers

    if BENCH["per_layer"] != layers.declared():
        raise AssertionError("BENCHMARK.json per_layer differs from layers.declared()")
    for wl in BENCH["workloads"]:
        name = wl["name"]
        result, text = result_of(run(name, 0), f"{name} untraced")
        check_declared(result, BENCH["end_to_end"], name)
        for m in BENCH["end_to_end"]:
            if not result["metrics"][m["name"]]["value"] > 0:
                raise AssertionError(f"{name}: {m['name']} is not positive")
        for label in ("wall_s:", "setup_s:", "peak_rss_mb:", "fail_ratio:"):
            if f"\n{label}" not in f"\n{text}":
                raise AssertionError(f"{name}: no {label} line")
        if (f"\nrho_max_rel_err:" in f"\n{text}") != (name in RHO_ERROR):
            raise AssertionError(f"{name}: rho_max_rel_err reported where it does not apply, or missing")

        traced = [result_of(run(name, 1), f"{name} traced")[0] for _ in range(2)]
        for result in traced:
            check_declared(result, BENCH["per_layer"], name)
        metrics = traced[0]["metrics"]
        for metric in NONZERO[name]:
            if not metrics[metric]["value"] > 0:
                raise AssertionError(f"{name}: {metric} is zero")
        for metric in ZERO.get(name, []):
            if metrics[metric]["value"] != 0:
                raise AssertionError(f"{name}: {metric} should be absent (zero)")
        for m in BENCH["per_layer"]:
            if m["unit"] in ("count", "ratio", "nodes/call"):
                a, b = (t["metrics"][m["name"]]["value"] for t in traced)
                if a != b:
                    raise AssertionError(f"{name}: count {m['name']} differs: {a} vs {b}")
        print(f"PASS {name}")

    tmp = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_tmp-smoke-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sim-wide", 0, cwd=tmp)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without the package")
    finally:
        shutil.rmtree(tmp)
    print("PASS exits nonzero without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
