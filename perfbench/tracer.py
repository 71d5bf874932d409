"""Spans around the public functions of each anglekit layer.

install() replaces each traced function, in every anglekit module
namespace that imported it, by a wrapper that records one span: name,
parent span, start, end, the job it ran in, and a size where one is
defined. Spans stay in memory; write() saves them at the end of a run,
and layer_metrics() reduces one pass of them to the per-layer metrics.
Self time is a span's duration minus the durations of its children.
Per-element helpers (dot, fr, matvec, ...) are not wrapped.
"""

import functools
import importlib
import json
import statistics
from time import perf_counter

LAYERS = ("triangulation", "cwsurface", "normal", "linalg", "lp",
          "polytope", "angles", "prescribe", "cli")

TRACED = {
    "triangulation": ("build",),
    "cwsurface": ("realize", "gauss_bonnet_check"),
    "normal": ("verify_basis", "coefficients", "chi_star", "expand",
               "matching_matrix"),
    "linalg": ("rank", "solve", "nullspace", "rref"),
    "lp": ("solve_lp",),
    "polytope": ("enumerate_vertices",),
    "angles": ("decide", "farkas_to_normal", "angle_matrix"),
    "prescribe": ("decide_prescribed", "dual_to_normal", "chi_ak",
                  "b_system"),
    "cli": ("parse", "parse_data", "run", "render", "main"),
}


def _matrix_entries(args, kwargs):
    m = args[0] if args else kwargs.get("m")
    return len(m) * len(m[0]) if m else 0


def _tableau_entries(args, kwargs):
    # the simplex tableau: m rows over n structural, m artificial and
    # one right-hand-side column
    a_rows, _, c = args[:3]
    m = len(a_rows)
    return m * (len(c) + m + 1)


SIZERS = {"linalg.rank": _matrix_entries, "lp.solve_lp": _tableau_entries}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, parent, start, end, job, size)
        self.stack = []
        self.job = None
        self.vertex_calls = {}   # job -> list of vertex vector lists
        self._wrapped = []       # (module, name, original, wrapper)

    def _wrap(self, name, fn):
        sizer = SIZERS.get(name)
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = sizer(args, kwargs) if sizer else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end, self.job, size)
            if name == "polytope.enumerate_vertices":
                spans[sid] = spans[sid][:5] + (len(out),)
                self.vertex_calls.setdefault(self.job, []).append(
                    [list(v.vector) for v in out])
            return out
        return wrapper

    def install(self):
        """Wrap every traced function in every namespace holding it."""
        if not self._wrapped:
            self._wrapped = self._wrappers()
        for mod, fname, _, wrapped in self._wrapped:
            setattr(mod, fname, wrapped)

    def uninstall(self):
        for mod, fname, fn, _ in self._wrapped:
            setattr(mod, fname, fn)

    def _wrappers(self):
        import anglekit
        modules = [anglekit] + [importlib.import_module("anglekit." + m)
                                for m in LAYERS]
        out = []
        for layer, names in TRACED.items():
            home = importlib.import_module("anglekit." + layer)
            for fname in names:
                fn = getattr(home, fname)
                wrapped = self._wrap("%s.%s" % (layer, fname), fn)
                out += [(mod, fname, fn, wrapped) for mod in modules
                        if mod.__dict__.get(fname) is fn]
        return out

    def mark(self):
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, parent, start, end, job, size) in enumerate(
                    self.spans):
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "job": job, "size": size})
                    + "\n")


def layer_metrics(spans, first, complexes, decisions):
    """Per-layer metrics of spans[first:], one pass of a workload.

    complexes is the number of distinct input complexes in the pass and
    decisions the number of decision calls (decide and
    decide_prescribed, directly or through the command line).
    """
    calls = {}
    total = {}
    self_time = {}
    sizes = {}
    rank_under_enum = 0
    for sid in range(first, len(spans)):
        name, parent, start, end, _, size = spans[sid]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur
        if parent >= first:
            pname = spans[parent][0]
            self_time[pname] = self_time.get(pname, 0.0) - dur
        if size is not None:
            sizes[name] = sizes.get(name, 0) + size
        if name == "linalg.rank":
            p = parent
            while p >= first:
                if spans[p][0] == "polytope.enumerate_vertices":
                    rank_under_enum += 1
                    break
                p = spans[p][1]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def own(name):
        return self_time.get(name, 0.0)

    enum = "polytope.enumerate_vertices"
    return {
        enum + ".calls": (c(enum), "count"),
        enum + ".self_s": (own(enum), "s"),
        enum + ".rank_calls": (rank_under_enum, "count"),
        enum + ".calls_per_triangulation": (c(enum) / complexes, "ratio"),
        "polytope.vertex_solutions": (sizes.get(enum, 0), "count"),
        "normal.verify_basis.calls": (c("normal.verify_basis"), "count"),
        "normal.verify_basis.self_s": (own("normal.verify_basis"), "s"),
        "normal.verify_basis.calls_per_triangulation":
            (c("normal.verify_basis") / complexes, "ratio"),
        "linalg.rank.calls": (c("linalg.rank"), "count"),
        "linalg.rank.self_s": (own("linalg.rank"), "s"),
        "linalg.rank.entries": (sizes.get("linalg.rank", 0), "count"),
        "lp.solve_lp.calls": (c("lp.solve_lp"), "count"),
        "lp.solve_lp.self_s": (own("lp.solve_lp"), "s"),
        "lp.solve_lp.tableau_entries": (sizes.get("lp.solve_lp", 0), "count"),
        "lp.solve_lp.calls_per_decision":
            (c("lp.solve_lp") / decisions if decisions else 0.0, "ratio"),
        "normal.coefficients.calls": (c("normal.coefficients"), "count"),
        "normal.coefficients.self_s": (own("normal.coefficients"), "s"),
        "linalg.solve.calls": (c("linalg.solve"), "count"),
        "linalg.solve.self_s": (own("linalg.solve"), "s"),
        "prescribe.chi_ak.calls": (c("prescribe.chi_ak"), "count"),
        "angles.decide.s": (s("angles.decide"), "s"),
        "angles.farkas_to_normal.s": (s("angles.farkas_to_normal"), "s"),
        "prescribe.decide_prescribed.s":
            (s("prescribe.decide_prescribed"), "s"),
        "prescribe.dual_to_normal.s": (s("prescribe.dual_to_normal"), "s"),
        "triangulation.build.calls": (c("triangulation.build"), "count"),
        "triangulation.build.s": (s("triangulation.build"), "s"),
        "cli.parse.s": (s("cli.parse"), "s"),
        "cli.run.self_s": (own("cli.run"), "s"),
        "cli.render.s": (s("cli.render"), "s"),
        "cwsurface.realize.s": (s("cwsurface.realize"), "s"),
        "cwsurface.gauss_bonnet_check.s":
            (s("cwsurface.gauss_bonnet_check"), "s"),
    }


def median_metrics(per_pass):
    """Median of each metric over passes, keeping its unit."""
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (statistics.median(p[name][0] for p in per_pass), unit)
    return out
