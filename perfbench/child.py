"""One invocation of blochobs in a fresh interpreter, as a user would run it.

    python3 perfbench/child.py RECORD TRACE cli ARG...
    python3 perfbench/child.py RECORD TRACE feature-basis CONFIG OUT

``cli`` runs ``blochobs.cli.main(ARG...)``.  ``feature-basis`` builds
``FeatureBasis(box, D)`` from a JSON config (the fit-layer set-up that the CLI
cannot reach for D >= 8) and writes a fit of a polynomial inside the feature
span to OUT, so the result can be checked.

RECORD receives a JSON object with the time (``time.perf_counter``, the
system-wide monotonic clock on Linux) of the first call into a compute layer,
which ends set-up, the peak resident set size and the exit code.  With
TRACE = 1 it also holds the spans and hot-call counts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _mark_first_call(record, modules_and_names):
    """Note the time of the first call into any of the given entry points."""
    for module, name in modules_and_names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, **kwargs):
            if "first_call" not in record:
                record["first_call"] = time.perf_counter()
            return _fn(*args, **kwargs)

        setattr(module, name, wrapper)


def _peak_rss_kb() -> int:
    """Peak resident set of this process image since exec.

    ``ru_maxrss`` also counts the parent's peak when the child was started by
    vfork, so VmHWM from /proc is preferred where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _feature_basis(config_path, out_path, record):
    import numpy as np

    from blochobs.ensemble import ParameterBox, make_grid
    from blochobs.reconstruction import FeatureBasis

    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    box = ParameterBox(**cfg["box"])
    grid = make_grid(box, cfg["grid"]["n1"], cfg["grid"]["n2"])
    record["first_call"] = time.perf_counter()
    fb = FeatureBasis(box, cfg["D"])
    # A member of the feature span, fitted from its exact quadrature moments
    # against the raw features, must come back unchanged on the grid nodes.
    raw = fb.raw_values(grid.nodes)
    coeffs = np.array([1.0 / (1 + k) for k in range(fb.size)])
    target = raw @ coeffs
    moments = (grid.weights[:, None] * raw).T @ target
    fitted = raw @ fb.solve(moments, 0.0)
    err = float(np.max(np.abs(fitted - target)) / np.max(np.abs(target)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"size": fb.size, "span_fit_max_rel_err": err}, fh)
    return 0


def main(argv):
    record_path, trace, kind, *rest = argv
    record: dict = {}
    tracer = None
    code = 99
    try:
        from blochobs import cli, ensemble

        if trace == "1":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        _mark_first_call(
            record,
            [
                (cli, "reconstruct"),
                (cli, "_identity_payload"),
                (ensemble, "simulate"),
                (ensemble, "output_equiv_test"),
            ],
        )
        if kind == "cli":
            code = cli.main(rest)
        elif kind == "feature-basis":
            code = _feature_basis(rest[0], rest[1], record)
        else:
            raise ValueError(f"unknown invocation kind {kind!r}")
    except Exception:
        traceback.print_exc()
    finally:
        record["exit"] = code
        record["maxrss_kb"] = _peak_rss_kb()
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
