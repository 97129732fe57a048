"""Spans and call counters installed around blochobs from outside the package.

Nothing under ``src/`` knows about this module.  ``install`` rebinds each
traced name where callers look it up: module globals for functions that other
modules import by name, class attributes for methods.  Two kinds of wrapper:

- a *span* records name, start, end, parent span and a few attributes, for
  calls that happen a handful of times per invocation;
- a *hot* wrapper only adds a count and the summed time under the enclosing
  span, for calls that happen tens of thousands of times (``Poly.__mul__``,
  ``RowSpan.add``, ``rotate_states`` and so on).

Everything stays in memory until ``Tracer.dump`` writes it out.
"""

from __future__ import annotations

import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # One row per span: [name, parent index or -1, start, end, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (name, parent index) -> [calls, seconds, extra count]
        self.hot_calls: dict[tuple[str, int], list] = {}
        # parent index -> seconds spent in outermost hot calls directly under it
        self.hot_top: dict[int, float] = {}
        self._hot_depth = 0

    def call(self, name, fn, args, kwargs, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return fn(*args, **kwargs)  # re-entry into the same layer: one span
        row = [name, parent, clock(), 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                row[4].update(attrs(args, result))
            return result
        finally:
            row[3] = clock()
            self._stack.pop()

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def hot(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._hot_depth -= 1
            parent = self._stack[-1] if self._stack else -1
            entry = self.hot_calls.get((name, parent))
            if entry is None:
                entry = self.hot_calls[(name, parent)] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if extra is not None:
                entry[2] += extra(args, result)
            if self._hot_depth == 0:
                self.hot_top[parent] = self.hot_top.get(parent, 0.0) + elapsed
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot_calls": [[n, p, c, s, x] for (n, p), (c, s, x) in self.hot_calls.items()],
            "hot_top": [[p, s] for p, s in self.hot_top.items()],
        }


def _rebind(modules, attr, wrapper):
    for module in modules:
        setattr(module, attr, wrapper)


def install(tr: Tracer) -> None:
    """Wrap the public entry points of every blochobs layer."""
    from blochobs import cli, ensemble, exactlinalg, identities, polynomials
    from blochobs import reconstruction, representation

    mul = tr.hot("polynomials.Poly.mul", polynomials.Poly.__mul__)
    polynomials.Poly.__mul__ = mul
    polynomials.Poly.__rmul__ = mul

    _rebind(
        (exactlinalg, representation, identities),
        "solve_exact",
        tr.span(
            "exactlinalg.solve_exact",
            exactlinalg.solve_exact,
            lambda a, r: {"unknowns": len(a[0][0]) if a[0] else 0},
        ),
    )
    exactlinalg.RowSpan.add = tr.hot(
        "exactlinalg.RowSpan.add", exactlinalg.RowSpan.add, lambda a, r: int(bool(r))
    )
    _rebind(
        (representation, identities),
        "apply_field",
        tr.hot("representation.apply_field", representation.apply_field),
    )
    _rebind(
        (representation, reconstruction),
        "word_basis_search",
        tr.span(
            "representation.word_basis_search",
            representation.word_basis_search,
            lambda a, r: {"kept": len(r)},
        ),
    )
    _rebind(
        (identities, reconstruction, cli),
        "constant_quadratic_form",
        tr.span("identities.constant_quadratic_form", identities.constant_quadratic_form),
    )
    _rebind(
        (identities, cli),
        "verify_quadratic_identity",
        tr.span("identities.verify_quadratic_identity", identities.verify_quadratic_identity),
    )

    fb = reconstruction.FeatureBasis
    fb.__init__ = tr.span("reconstruction.FeatureBasis.init", fb.__init__)
    for method in ("solve", "raw_values", "fit_residual"):
        setattr(fb, method, tr.span("reconstruction.fit", getattr(fb, method)))
    reconstruction.fit_psi = tr.span("reconstruction.fit", reconstruction.fit_psi)

    stage = reconstruction._stage

    def traced_stage(name, fn, *args, **kwargs):
        return tr.call(f"reconstruction.stage.{name}", stage, (name, fn) + args, kwargs)

    reconstruction._stage = traced_stage

    pi = reconstruction.PointInverter
    pi.__init__ = tr.span("reconstruction.PointInverter.init", pi.__init__)
    pi.invert_with_residual = tr.hot(
        "reconstruction.PointInverter.invert", pi.invert_with_residual
    )
    _rebind(
        (reconstruction, cli),
        "reconstruct",
        tr.span(
            "reconstruction.reconstruct",
            reconstruction.reconstruct,
            lambda a, r: {
                "nodes": a[1].size,
                "defined": a[1].size - len(r.undefined_nodes),
            },
        ),
    )
    reconstruction.measured_word_moments = tr.span(
        "reconstruction.measured_word_moments", reconstruction.measured_word_moments
    )
    output_fn = reconstruction.OutputSimulator.output_fn
    reconstruction.OutputSimulator.output_fn = lambda self, phi: tr.hot(
        "reconstruction.output_eval", output_fn(self, phi)
    )

    _rebind(
        (ensemble, reconstruction),
        "rotate_states",
        tr.hot(
            "ensemble.rotate_states",
            ensemble.rotate_states,
            lambda a, r: a[0].shape[0],
        ),
    )
    compile_phi = ensemble.compile_phi
    _rebind(
        (ensemble, reconstruction),
        "compile_phi",
        lambda phi: tr.hot("ensemble.phi_eval", compile_phi(phi)),
    )
    ensemble.simulate = tr.span(
        "ensemble.simulate", ensemble.simulate, lambda a, r: {"samples": len(r.times)}
    )
    ensemble.evolve_profile = tr.span("ensemble.evolve_profile", ensemble.evolve_profile)
    ensemble.output_equiv_test = tr.span(
        "ensemble.output_equiv_test", ensemble.output_equiv_test
    )

    cli._load_config = tr.span("cli.parse", cli._load_config)
    for name in dir(cli):
        if name.startswith("parse_"):
            setattr(cli, name, tr.span("cli.parse", getattr(cli, name)))
        elif name.startswith("cmd_"):
            command = name[4:].replace("_", "-")
            setattr(cli, name, tr.span(f"cli.cmd.{command}", getattr(cli, name)))
    cli._emit = tr.span("cli.emit", cli._emit)
    ensemble.write_trace_csv = tr.span("cli.emit", ensemble.write_trace_csv)
    ensemble.write_profile_csv = tr.span("cli.emit", ensemble.write_profile_csv)
