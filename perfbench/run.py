"""The blochobs benchmark: one workload, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs every step of
the workload once, each step in a fresh interpreter (``child.py``), one at a
time: a closed loop with one client, as a researcher runs the CLI.  The
package's lru caches therefore start cold in every repetition, as they do for
every CLI call.  Repetitions continue while the next one is expected to
end within S seconds (with at least MIN_REPS); the metrics are medians over
the repetitions.

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
``--trace 1`` interleaves untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead (traced
minus untraced median wall time).  See README.md for every metric, the
layer-to-metric mapping and why each workload exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Repetitions per run at least: untraced ones with --trace 0, and of each
# kind with --trace 1.
MIN_REPS = {0: 2, 1: 1}
# The whole run, set-up included, must end within 180 s; invocations still
# running at this many seconds after start are killed and count as failed.
HARD_LIMIT_S = 165
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_step(step, cfg_dir: Path, out_dir: Path, trace: bool, env: dict, timeout: float) -> dict:
    """Run one invocation; return its wall time, set-up time, RSS and trace."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{step.name}.record.json"
    args = [a.format(cfg=cfg_dir, out=out_dir) for a in step.args]
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), str(int(trace)), step.kind, *args]
    with open(out_dir / f"{step.name}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.perf_counter()
    record = {}
    if code == 0 and record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    return {
        "exit": code,
        "wall_s": end - start,
        "setup_s": record.get("first_call", end) - start,
        "maxrss_kb": record.get("maxrss_kb", 0),
        "trace": record.get("trace"),
    }


def digest_outputs(step, out_dir: Path) -> dict:
    return {
        name: checks.sha256((out_dir / name).read_bytes())
        if (out_dir / name).exists()
        else None
        for name in step.outputs
    }


def check_step(step, result, ctx, out_dir: Path, reference_digests: dict) -> list[str]:
    if result["exit"] != 0:
        log = (out_dir / f"{step.name}.log").read_text(encoding="utf-8", errors="replace")
        return [f"{step.name}: exit {result['exit']}: {log.strip()[-300:]}"]
    failures = []
    digests = digest_outputs(step, out_dir)
    if None in digests.values():
        return [f"{step.name}: missing output files"]
    if step.name in reference_digests:
        if digests != reference_digests[step.name]:
            failures.append(f"{step.name}: outputs differ from the first repetition")
    else:
        reference_digests[step.name] = digests
    for fn_name, kwargs in step.checks:
        try:
            failures += getattr(checks, fn_name)(ctx, out_dir, step.name, **kwargs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{step.name}: check {fn_name} raised {exc!r}")
    return failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(args) -> dict:
    return {
        "seed": args.seed,
        "workload": args.workload,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": THREAD_PINS,
        "pythonhashseed": "0",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=tuple(workloads.SIZES), default="full",
        help="'smoke' runs every layer at reduced sizes (for smoke.py)",
    )
    args = parser.parse_args(argv)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S

    if not (ROOT / "src" / "blochobs" / "cli.py").is_file():
        print(f"error: no blochobs source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    warm = subprocess.run(
        [sys.executable, "-c", "import blochobs.cli"], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        print(f"error: cannot import blochobs:\n{warm.stderr}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, args.size)
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, workload, tmp, env, hard_deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def measure(args, workload, tmp: Path, env: dict, hard_deadline: float) -> int:
    cfg_dir = tmp / "configs"
    ref_dir = tmp / "references"
    cfg_dir.mkdir()
    workloads.write_configs(workload, cfg_dir)
    ctx = checks.Context(cfg_dir, ref_dir)

    attempted = failed = 0
    failures: list[str] = []
    for step in workload.references:
        result = run_step(step, cfg_dir, ref_dir, False, env, hard_deadline - time.perf_counter())
        if result["exit"] != 0:
            failures.append(f"reference {step.name}: exit {result['exit']}")

    reps = {False: [], True: []}  # traced? -> list of per-repetition summaries
    reference_digests: dict = {}
    deadline = time.perf_counter() + args.seconds
    plan = [False, True] if args.trace else [False]
    rep_index = 0
    while True:
        traced = plan[rep_index % len(plan)]
        out_dir = tmp / f"rep{rep_index}"
        summary = {"wall_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0, "traces": [], "steps": {}}
        for step in workload.steps:
            result = run_step(step, cfg_dir, out_dir, traced, env, hard_deadline - time.perf_counter())
            attempted += 1
            step_failures = check_step(step, result, ctx, out_dir, reference_digests)
            if step_failures:
                failed += 1
                failures += step_failures
            summary["wall_s"] += result["wall_s"]
            summary["setup_s"] += result["setup_s"]
            summary["peak_rss_mb"] = max(summary["peak_rss_mb"], result["maxrss_kb"] / 1024.0)
            summary["traces"].append(result["trace"])
            summary["steps"][step.name] = result["wall_s"]
        reps[traced].append(summary)
        shutil.rmtree(out_dir)
        rep_index += 1
        done = min(len(reps[t]) for t in plan)
        typical = statistics.median(s["wall_s"] for s in reps[False] + reps[True])
        now = time.perf_counter()
        if now + typical > hard_deadline:
            break
        if done >= MIN_REPS[args.trace] and now + typical > deadline:
            break
    if not all(reps[t] for t in plan):
        print("error: the time limit ended the run before one repetition of each kind", file=sys.stderr)
        return 1

    lines = [f"workload {workload.name}: {workload.why}", f"environment: {json.dumps(environment(args), sort_keys=True)}"]
    if args.trace:
        metrics, layer_failures = layers.per_layer_metrics(reps[True], reps[False])
        failures += layer_failures
        count = len(reps[True])
        for name, m in metrics.items():
            lines.append(f"{name}: {m['value']:.6g} {m['unit']}  (traced reps: {count})")
    else:
        metrics = {}
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            values = [s[name] for s in reps[False]]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name}: median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        for step in workload.steps:
            med = statistics.median(s["steps"][step.name] for s in reps[False])
            lines.append(f"  step {step.name}: median wall {med:.6g} s")
    lines.append(f"fail_ratio: {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    if "rho_max_rel_err" in ctx.values:
        lines.append(f"rho_max_rel_err: {ctx.values['rho_max_rel_err']:.6g} ratio  (deterministic for the seed)")
    for failure in failures:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
