"""Per-layer tracing for the benchmark, installed from outside vnum.

A Tracer replaces each public function listed in TARGETS by a wrapper in
every vnum module that holds it, because callers look the name up in their
own module (edgeideals imports colon_ideal by name, for example).  Each call
records a span in memory: name, parent span, start and end.  Counters that
need the call's arguments or result are kept beside the spans.  `poly` gets
no wrapper: its calls are shorter than a wrapper, and their cost shows in
the self time of the groebner functions that make them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# (module, function): the span name is "module.function".
TARGETS = [
    ("graphs", "enumerate_min_cuts"),
    ("graphs", "gamma_c"),
    ("graphs", "gamma_c_pair"),
    ("matroids", "delta_family"),
    ("matroids", "min_transversal_weight"),
    ("groebner", "buchberger"),
    ("groebner", "s_polynomial"),
    ("groebner", "normal_form"),
    ("groebner", "is_groebner_basis"),
    ("idealops", "colon_ideal"),
    ("idealops", "colon_poly"),
    ("idealops", "intersect"),
    ("idealops", "min_new_degree_candidates"),
    ("edgeideals", "vnumber_at_prime"),
    ("edgeideals", "check_colon_equals_prime"),
    ("edgeideals", "oracle_vnumber_at_prime"),
    ("edgeideals", "admissible_path_basis"),
    ("cycles", "s_consistent_permutation"),
    ("cli", "report_document"),
    ("cli", "render_json"),
]

# (calling module, function): the calls one module makes, recorded as
# "calling_module.function" on top of any general wrapper.
SITE_TARGETS = [
    ("cycles", "is_groebner_basis"),
    ("cli", "parse_graph"),
]

# Sums of per-name totals reported as one layer metric.
COMBINED = {
    "graphs.domination.s": ("graphs.gamma_c.s", "graphs.gamma_c_pair.s"),
    "cli.report.s": ("cli.report_document.s", "cli.render_json.s"),
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, outermost]
        self.counters = Counter()
        self._stack = []
        self._depth = Counter()
        self._patched = []
        self._last_spair = None
        self._hooks = {
            "groebner.buchberger": self._count_basis,
            "groebner.s_polynomial": self._note_spair,
            "groebner.normal_form": self._count_spair_nf,
            "matroids.delta_family": self._count_family,
            "cli.render_json": self._count_report,
        }

    # -- counters fed by call results --------------------------------------

    def _count_basis(self, args, result):
        self.counters["groebner.basis_polys"] += len(result.generators)

    def _note_spair(self, args, result):
        self._last_spair = result

    def _count_spair_nf(self, args, result):
        # the engine reduces each S-polynomial right after forming it
        if args and args[0] is self._last_spair:
            self._last_spair = None
            if not result.is_zero:
                self.counters["groebner.spair_nonzero"] += 1

    def _count_family(self, args, result):
        self.counters["matroids.family_members"] += len(result.members)

    def _count_report(self, args, result):
        self.counters["cli.report_bytes"] += len(result.encode("utf-8"))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[name] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self):
        """Patch every vnum module namespace that holds a target function."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "vnum" or name.startswith("vnum."))
        }
        wrappers = {}
        for home, fn in TARGETS:
            original = getattr(modules[f"vnum.{home}"], fn)
            wrappers[id(original)] = self._wrap(f"{home}.{fn}", original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        # a site wrapper wraps whatever the calling module now holds, so
        # cycles' calls to is_groebner_basis also count under groebner
        for site, fn in SITE_TARGETS:
            mod = modules[f"vnum.{site}"]
            self._patch(mod, fn, self._wrap(f"{site}.{fn}", getattr(mod, fn)))
        return self

    def _patch(self, mod, attr, wrapper):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-name calls, total time (outermost calls) and self time, plus
        the counters and the combined layer totals."""
        out = Counter()
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, outermost) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            if outermost:
                out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        out.update(self.counters)
        for combined, parts in COMBINED.items():
            out[combined] = sum(out[p] for p in parts)
        return out

    def dump(self):
        """The spans in a compact form: names once, then one row per span
        with times relative to the first span's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [index[name], parent, round(start - t0, 7), round(end - t0, 7)]
            for name, parent, start, end, _ in self.spans
        ]
        return {"names": names, "columns": ["name", "parent", "start_s", "end_s"], "spans": rows}


# The per-layer metrics a traced run reports, with their units.
METRICS = {
    "graphs.enumerate_min_cuts.calls": "count",
    "graphs.enumerate_min_cuts.s": "s",
    "graphs.domination.s": "s",
    "matroids.delta_family.calls": "count",
    "matroids.delta_family.s": "s",
    "matroids.min_transversal_weight.s": "s",
    "matroids.family_members": "count",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.buchberger.self_s": "s",
    "groebner.basis_polys": "count",
    "groebner.s_polynomial.calls": "count",
    "groebner.spair_nonzero": "count",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.s": "s",
    "groebner.is_groebner_basis.calls": "count",
    "groebner.is_groebner_basis.s": "s",
    "idealops.colon_ideal.calls": "count",
    "idealops.colon_ideal.s": "s",
    "idealops.colon_ideal.self_s": "s",
    "idealops.colon_poly.calls": "count",
    "idealops.colon_poly.s": "s",
    "idealops.intersect.calls": "count",
    "idealops.intersect.s": "s",
    "idealops.min_new_degree_candidates.s": "s",
    "edgeideals.vnumber_at_prime.calls": "count",
    "edgeideals.vnumber_at_prime.s": "s",
    "edgeideals.check_colon_equals_prime.calls": "count",
    "edgeideals.check_colon_equals_prime.s": "s",
    "edgeideals.oracle_vnumber_at_prime.s": "s",
    "edgeideals.admissible_path_basis.s": "s",
    "cycles.s_consistent_permutation.s": "s",
    "cycles.is_groebner_basis.s": "s",
    "cli.parse_graph.s": "s",
    "cli.report.s": "s",
    "cli.report_bytes": "bytes",
}


def summary(tracers, walls, traced_walls):
    """Median over traced rounds of each layer metric, plus the overhead of
    tracing: median traced round minus median untraced round."""
    per_round = [t.metrics() for t in tracers]
    metrics = {
        name: (statistics.median(m[name] for m in per_round), unit)
        for name, unit in METRICS.items()
    }
    spairs = metrics["groebner.s_polynomial.calls"][0]
    metrics["groebner.spair_useful_share"] = (
        metrics["groebner.spair_nonzero"][0] / spairs if spairs else 0.0, "ratio")
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = (traced / untraced - 1, "ratio")
    return metrics
