"""Per-layer metrics from the spans and counters that ``tracer.py`` records.

A span's self time is its duration minus the part covered by its child spans
and by the outermost hot calls made directly under it.  Counts are summed
over the invocations of one repetition and must repeat exactly from one
traced repetition to the next; times are medians over traced repetitions.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

STAGES = (
    "word-basis-search",
    "quadratic-identity",
    "psi-samples",
    "moments",
    "density",
    "harmonic-values",
    "point-inversion",
    "stitch",
)
COMMANDS = ("reconstruct", "identities", "simulate", "equivalence")


def raw_counters(trace: dict) -> dict:
    """Flatten one invocation's trace into summed counters keyed by kind and name."""
    raw: dict = defaultdict(float)
    spans = trace["spans"]
    covered = defaultdict(float)
    for p, s in trace["hot_top"]:
        covered[p] += s
    for name, parent, start, end, attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    for idx, (name, parent, start, end, attrs) in enumerate(spans):
        raw[("spans", name)] += 1
        raw[("s", name)] += end - start
        raw[("self_s", name)] += end - start - covered[idx]
        for key, value in attrs.items():
            raw[(key, name)] += value
        if name == "exactlinalg.solve_exact":
            raw["max_unknowns"] = max(raw["max_unknowns"], attrs["unknowns"])
    wbs = {i for i, row in enumerate(spans) if row[0] == "representation.word_basis_search"}
    for name, parent, calls, seconds, extra in trace["hot_calls"]:
        raw[("calls", name)] += calls
        raw[("s", name)] += seconds
        raw[("extra", name)] += extra
        if name == "exactlinalg.RowSpan.add" and parent in wbs:
            raw["wbs_candidates"] += calls
    return raw


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, kind, value from the summed counters).  "count"
# metrics must repeat exactly; "time" metrics are medians.
METRICS = [
    ("polynomials.Poly.mul.calls", "count", "lower", "count", lambda r: r[("calls", "polynomials.Poly.mul")]),
    ("polynomials.Poly.mul.s", "s", "lower", "time", lambda r: r[("s", "polynomials.Poly.mul")]),
    ("exactlinalg.solve_exact.calls", "count", "lower", "count", lambda r: r[("spans", "exactlinalg.solve_exact")]),
    ("exactlinalg.solve_exact.s", "s", "lower", "time", lambda r: r[("s", "exactlinalg.solve_exact")]),
    ("exactlinalg.solve_exact.max_unknowns", "count", "lower", "count", lambda r: r["max_unknowns"]),
    ("exactlinalg.RowSpan.add.calls", "count", "lower", "count", lambda r: r[("calls", "exactlinalg.RowSpan.add")]),
    ("exactlinalg.RowSpan.add.accepted", "count", "higher", "count", lambda r: r[("extra", "exactlinalg.RowSpan.add")]),
    ("exactlinalg.RowSpan.add.s", "s", "lower", "time", lambda r: r[("s", "exactlinalg.RowSpan.add")]),
    ("representation.apply_field.calls", "count", "lower", "count", lambda r: r[("calls", "representation.apply_field")]),
    ("representation.word_basis_search.s", "s", "lower", "time", lambda r: r[("s", "representation.word_basis_search")]),
    (
        "representation.word_basis_search.kept_ratio", "ratio", "higher", "count",
        lambda r: _ratio(r[("kept", "representation.word_basis_search")], r["wbs_candidates"]),
    ),
    ("identities.constant_quadratic_form.s", "s", "lower", "time", lambda r: r[("s", "identities.constant_quadratic_form")]),
    ("identities.verify_quadratic_identity.s", "s", "lower", "time", lambda r: r[("s", "identities.verify_quadratic_identity")]),
    ("reconstruction.FeatureBasis.init.s", "s", "lower", "time", lambda r: r[("s", "reconstruction.FeatureBasis.init")]),
    ("reconstruction.fit.s", "s", "lower", "time", lambda r: r[("s", "reconstruction.fit")]),
    *[
        (f"reconstruction.stage.{st}.s", "s", "lower", "time", lambda r, st=st: r[("s", f"reconstruction.stage.{st}")])
        for st in STAGES
    ],
    ("reconstruction.PointInverter.invert.calls", "count", "lower", "count", lambda r: r[("calls", "reconstruction.PointInverter.invert")]),
    ("reconstruction.PointInverter.init.s", "s", "lower", "time", lambda r: r[("s", "reconstruction.PointInverter.init")]),
    (
        "reconstruction.defined_ratio", "ratio", "higher", "count",
        lambda r: _ratio(r[("defined", "reconstruction.reconstruct")], r[("nodes", "reconstruction.reconstruct")]),
    ),
    ("reconstruction.measured_word_moments.s", "s", "lower", "time", lambda r: r[("s", "reconstruction.measured_word_moments")]),
    ("reconstruction.output_evals", "count", "lower", "count", lambda r: r[("calls", "reconstruction.output_eval")]),
    ("ensemble.rotate_states.calls", "count", "lower", "count", lambda r: r[("calls", "ensemble.rotate_states")]),
    ("ensemble.rotate_states.nodes", "count", "lower", "count", lambda r: r[("extra", "ensemble.rotate_states")]),
    ("ensemble.rotate_states.s", "s", "lower", "time", lambda r: r[("s", "ensemble.rotate_states")]),
    (
        "ensemble.rotate_states.nodes_per_call", "nodes/call", "higher", "count",
        lambda r: _ratio(r[("extra", "ensemble.rotate_states")], r[("calls", "ensemble.rotate_states")]),
    ),
    ("ensemble.phi_eval.calls", "count", "lower", "count", lambda r: r[("calls", "ensemble.phi_eval")]),
    ("ensemble.phi_eval.s", "s", "lower", "time", lambda r: r[("s", "ensemble.phi_eval")]),
    ("ensemble.simulate.s", "s", "lower", "time", lambda r: r[("s", "ensemble.simulate")]),
    ("ensemble.simulate.samples", "count", "lower", "count", lambda r: r[("samples", "ensemble.simulate")]),
    ("ensemble.evolve_profile.s", "s", "lower", "time", lambda r: r[("s", "ensemble.evolve_profile")]),
    ("ensemble.output_equiv_test.s", "s", "lower", "time", lambda r: r[("s", "ensemble.output_equiv_test")]),
    ("cli.parse.s", "s", "lower", "time", lambda r: r[("s", "cli.parse")]),
    ("cli.emit.s", "s", "lower", "time", lambda r: r[("s", "cli.emit")]),
    *[
        (f"cli.cmd.{c}.self_s", "s", "lower", "time", lambda r, c=c: r[("self_s", f"cli.cmd.{c}")])
        for c in COMMANDS
    ],
]
OVERHEAD = ("trace.overhead_s", "s", "lower")
TRACED_WALL = ("trace.wall_s", "s", "lower")


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Metrics over traced repetitions, and failures for counts that did not repeat."""
    per_rep = []
    for rep in traced:
        raw: dict = defaultdict(float)
        for trace in rep["traces"]:
            if trace is None:
                continue
            for key, value in raw_counters(trace).items():
                raw[key] = max(raw[key], value) if key == "max_unknowns" else raw[key] + value
        per_rep.append(raw)
    metrics = {}
    failures = []
    for name, unit, _better, kind, fn in METRICS:
        values = [fn(raw) for raw in per_rep]
        if kind == "count":
            if len(set(values)) > 1:
                failures.append(f"count {name} differs between traced repetitions: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
    metrics[TRACED_WALL[0]] = {"value": traced_wall, "unit": "s"}
    metrics[OVERHEAD[0]] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, failures


def declared() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in order."""
    rows = [(n, u, b) for n, u, b, _k, _f in METRICS] + [TRACED_WALL, OVERHEAD]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]
