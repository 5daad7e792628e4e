"""Spans and counts recorded around prefractal's public functions.

Used only in a traced child process. Times come from CLOCK_MONOTONIC,
the clock the parent uses for spawn and exit. `Tracer.install` replaces each
listed function wherever a prefractal module looks it up (its own module
and every module that imported it by name) and each listed method on
its class, with a wrapper that records a span (name, start, end, parent)
in memory and adds counts taken from the call's arguments and result.
`Tracer.write` hands the spans to the parent when the command ends.
No file under src/ changes; pool workers forked by the program inherit
the wrappers, but their spans stay in the worker and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import monotonic

MODULES = ("cli", "gasket", "metric", "harmonic", "spectrum", "modes", "svg",
           "transport")

# the exact-arithmetic support cap of kantorovich at the benchmark's first
# commit; unions above it are counted as inexact solves
EXACT_SUPPORT_CAP = 64


def _count_rows(counts, args, kwargs, result):
    counts["metric.sources"] += len(result)


def _count_one_source(counts, args, kwargs, result):
    counts["metric.sources"] += 1


def _count_multi_source(counts, args, kwargs):
    sources = kwargs.get("sources", args[1] if len(args) > 1 else ())
    counts["metric.sources"] += len(sources)


def _count_support(counts, args, kwargs):
    mu, nu = (args + (None, None))[1:3]
    mu, nu = kwargs.get("mu", mu), kwargs.get("nu", nu)
    union = len(set(mu.support) | set(nu.support))
    counts["transport.support_points"] += union
    counts["transport.inexact_solves"] += union > EXACT_SUPPORT_CAP


def _count_length(counts, args, kwargs, result):
    counts["harmonic.curves"] += 1
    counts["harmonic.refinements"] += len(result.increments)
    counts["harmonic.unconverged"] += not result.converged


def _adder(key, size):
    def count(counts, args, kwargs, result):
        counts[key] += size(result)
    return count


def _target(home, target, name, after=None, before=None):
    return home, target, name, after, before


# where each wrapped callable is defined, the span it records (None: no
# span), and the counts taken from its arguments (before) and its result
# (after). A span that raises adds one to "<span name>_failures".
TARGETS = (
    _target("gasket", "build_gasket", "gasket.build",
            _adder("gasket.vertices", lambda r: len(r.vertices))),
    _target("gasket", "complex_to_dict", "gasket.to_dict"),
    _target("metric", "gasket_metric_graph", "metric.graph_build",
            _adder("metric.edges", lambda r: len(r.edges))),
    _target("metric", "MetricGraph.internal_rows", "metric.traversal", _count_rows),
    _target("metric", "MetricGraph.single_source", "metric.traversal", _count_one_source),
    _target("metric", "MetricGraph.multi_source", "metric.traversal",
            before=_count_multi_source),
    # the bound chain calls the private multi-source run directly
    _target("metric", "MetricGraph._sssp", "metric.traversal"),
    _target("metric", "certify_vertex_agreement", "metric.agreement",
            _adder("metric.agreement_pairs",
                   lambda r: r.vertices_compared * (r.vertices_compared - 1) // 2)),
    _target("metric", "gh_upper_bound", "metric.bound"),
    _target("metric", "hausdorff_vertex_sets", "metric.bound"),
    _target("metric", "FiniteMetricSpace.from_graph", "metric.space_build",
            _adder("metric.space_entries", lambda r: len(r) ** 2)),
    _target("metric", "FiniteMetricSpace.from_dict", "metric.space_load",
            _adder("metric.space_entries", lambda r: len(r) ** 2)),
    _target("harmonic", "derive_subdivision_rule", "harmonic.table"),
    _target("harmonic", "HarmonicTable.__init__", "harmonic.table"),
    _target("harmonic", "harmonic_curve_length", "harmonic.quadrature", _count_length),
    _target("harmonic", "build_harmonic_gasket", "harmonic.quadrature"),
    # called thousands of times: counted, but timed inside its callers
    _target("spectrum", "mode_count", None, _adder("spectrum.mode_counts", lambda r: 1)),
    _target("spectrum", "SpectrumSpec.entries_for", "spectrum.count"),
    _target("spectrum", "counting_function", "spectrum.count"),
    _target("spectrum", "dimension_fit", "spectrum.count"),
    _target("spectrum", "enumerate_eigenvalues", "spectrum.enumerate",
            _adder("spectrum.eigenvalues", lambda r: r.total)),
    _target("modes", "covariant_reach_witness", "modes.reach",
            _adder("modes.trials", lambda r: r.trials)),
    _target("svg", "gasket_svg", "svg.render"),
    _target("svg", "line_plot", "svg.render"),
    _target("svg", "plane_coords", "svg.render"),
    _target("transport", "kantorovich", "transport.solve", before=_count_support),
    _target("transport", "certify_extent", "transport.extent"),
    _target("transport", "CoupledGraph.from_gasket", "transport.coupled_build"),
    _target("cli", "main", "cli.self"),
)


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = Counter()

    def wrap(self, name, fn, after=None, before=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(counts, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + "_failures"] += 1
                raise
            finally:
                spans[idx] = (name, start, monotonic(), parent)
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module("prefractal." + m) for m in MODULES}
        mods["package"] = importlib.import_module("prefractal")
        for home, target, name, after, before in TARGETS:
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(mods[home], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, after, before)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, after, before))
                continue
            original = getattr(mods[home], target)
            wrapped = self.wrap(name, original, after, before)
            for mod in mods.values():
                if getattr(mod, target, None) is original:
                    setattr(mod, target, wrapped)

    def write(self, path: str) -> None:
        """Spans and counts as one JSON line, then the time writing ended."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}))
            fh.write("\n" + json.dumps({"written": monotonic()}) + "\n")
