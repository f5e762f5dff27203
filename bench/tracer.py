"""Spans around lgmirror's layer functions, installed from outside the
package by replacing module attributes in an op process.

Each wrapper records a span [name, start, end, parent index, op id] in
memory and may add to work counters.  `Tracer.summary()`, called when the op ends, turns
the spans into per-name call counts and self times (a span's duration minus
the time its child spans cover) and returns them with the counters.

Names bound with `from .x import y` in other modules, and functions held in
module-level dicts, are patched too, so no call path skips its wrapper.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter


def _matrix_size(m):
    return len(m) * len(m[0]) if m and isinstance(m[0], (list, tuple)) else len(m or ())


def _float_entries(m):
    if not m:
        return 0
    if isinstance(m[0], (list, tuple)):
        return sum(1 for row in m for x in row if isinstance(x, float))
    return sum(1 for x in m if isinstance(x, float))


# --- counters: called with (counts, args); return the args to call with ----

def _count_hull_points(counts, args, kwargs):
    points = args[0] if args else kwargs.pop("points")
    if not isinstance(points, (list, tuple)):
        points = list(points)
    counts["lattice.convex_hull.points"] += len(points)
    return (points,) + tuple(args[1:]), kwargs


def _count_matrix_args(prefix):
    def count(counts, args, kwargs):
        for m in args:
            if isinstance(m, (list, tuple)):
                counts["linalg.float_entries"] += _float_entries(m)
        if prefix == "rank" and args:
            counts["linalg.rank.entries"] += _matrix_size(args[0])
        elif prefix == "mat_mul" and len(args) == 2 and args[0] and args[1]:
            a, b = args
            counts["linalg.mat_mul.mults"] += len(a) * len(b) * len(b[0])
        return args, kwargs
    return count


def _count_cone_pairs(counts, args, kwargs):
    k = len(args[0].maximal_cones)
    counts["fans.Fan.validate.cone_pairs"] += k * (k - 1) // 2
    return args, kwargs


def _count_page(counts, page):
    for m in page.diff.values():
        counts["spectral.diff_entries"] += _matrix_size(m)
        counts["spectral.diff_nonzero"] += sum(1 for row in m for x in row if x != 0)


# (module, attribute path, span name, counter before the call, after it)
SPANS = [
    ("cli", "emit", "cli.emit", None, None),
    ("lattice", "polytope_from_doc", "cli.load", None, None),
    ("partitions", "partition_from_doc", "cli.load", None, None),
    ("nef", "nef_from_doc", "cli.load", None, None),
    ("strata", "strata_from_doc", "cli.load", None, None),
    ("spectral", "complex_from_doc", "cli.load", None, None),
    ("lattice", "convex_hull", "lattice.convex_hull", _count_hull_points, None),
    ("lattice", "polytope_from_inequalities", "lattice.polytope_from_inequalities", None, None),
    ("lattice", "recession_rays", "lattice.recession_rays", None, None),
    ("lattice", "face_lattice", "lattice.face_lattice", None, None),
    ("lattice", "lattice_points", "lattice.lattice_points", None, None),
    ("lattice", "polar_dual", "lattice.polar_dual", None, None),
    ("lattice", "intersect", "lattice.intersect", None, None),
    ("fans", "Fan.validate", "fans.Fan.validate", _count_cone_pairs, None),
    ("fans", "Cone.from_rays", "fans.Cone.from_rays", None, None),
    ("fans", "refine_with_boundary_rays", "fans.refine_with_boundary_rays", None, None),
    ("fans", "face_fan", "fans.face_fan", None, None),
    ("partitions", "validate_semistable", "partitions.validate_semistable", None, None),
    ("partitions", "check_tiling", "partitions.check_tiling", None, None),
    ("partitions", "build_F_Gamma", "partitions.build_F_Gamma", None, None),
    ("partitions", "lifting_polyhedron", "partitions.lifting_polyhedron", None, None),
    ("partitions", "central_frame", "partitions.central_frame", None, None),
    ("partitions", "build_fibration_fans", "partitions.build_fibration_fans", None, None),
    ("nef", "validate_nef", "nef.validate_nef", None, None),
    ("lg", "givental_hybrid", "lg.givental_hybrid", None, None),
    ("lg", "compactify_fiber", "lg.compactify_fiber", None, None),
    ("linalg", "nullspace", "linalg.nullspace", _count_matrix_args("nullspace"), None),
    ("linalg", "solve", "linalg.solve", _count_matrix_args("solve"), None),
    ("linalg", "rank", "linalg.rank", _count_matrix_args("rank"), None),
    ("linalg", "mat_mul", "linalg.mat_mul", _count_matrix_args("mat_mul"), None),
    ("linalg", "transpose", "linalg.transpose", _count_matrix_args("transpose"), None),
    ("spectral", "build_weight_E1", "spectral.build", None, _count_page),
    ("spectral", "build_monodromy_E1", "spectral.build", None, _count_page),
    ("spectral", "build_G_flag_E1", "spectral.build", None, _count_page),
    ("spectral", "build_delta_E1", "spectral.build", None, _count_page),
    ("spectral", "BigradedPage.check_d1_squared", "spectral.check_d1_squared", None, None),
    ("spectral", "BigradedPage.e2", "spectral.e2", None, None),
    ("spectral", "page_report_doc", "spectral.page_report_doc", None, None),
    ("spectral", "check_mirror_pw", "spectral.check_mirror_pw", None, None),
    ("strata", "check_topological_mirror", "strata.check_topological_mirror", None, None),
]

COUNTERS = ("lattice.convex_hull.points", "linalg.rank.entries",
            "linalg.mat_mul.mults", "linalg.float_entries",
            "fans.Fan.validate.cone_pairs", "spectral.diff_entries",
            "spectral.diff_nonzero")


class Tracer:
    def __init__(self, op_id=None):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, counts, op_id = self.spans, self.stack, self.counts, self.op_id

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(counts, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in SPANS and rebind every module-level
        reference to it inside lgmirror."""
        package = "lgmirror"
        originals = {}
        for mod_name, path, name, before, after in SPANS:
            mod = importlib.import_module(f"{package}.{mod_name}")
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self.wrap(name, fn, before, after)
            setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            if owner is mod:
                originals[id(fn)] = wrapper
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if not isinstance(mod, types.ModuleType):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, key, originals[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in originals:
                            value[k] = originals[id(v)]

    def summary(self):
        return summarize(self.spans, self.counts)


def summarize(spans, counts):
    """Per-name call counts and self times of a list of spans, plus counts."""
    calls, self_s = {}, {}
    for name, start, end, parent, _ in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - dur
    return {"calls": calls, "self_s": self_s, "counts": dict(counts)}


# Per-layer metrics reported by a traced run: (metric, kind, key).
LAYER_METRICS = [
    ("cli.load.s", "self_s", "cli.load"),
    ("cli.emit.s", "self_s", "cli.emit"),
    ("lattice.convex_hull.calls", "calls", "lattice.convex_hull"),
    ("lattice.convex_hull.s", "self_s", "lattice.convex_hull"),
    ("lattice.convex_hull.points", "counts", "lattice.convex_hull.points"),
    ("lattice.polytope_from_inequalities.calls", "calls", "lattice.polytope_from_inequalities"),
    ("lattice.polytope_from_inequalities.s", "self_s", "lattice.polytope_from_inequalities"),
    ("lattice.recession_rays.calls", "calls", "lattice.recession_rays"),
    ("lattice.recession_rays.s", "self_s", "lattice.recession_rays"),
    ("lattice.face_lattice.s", "self_s", "lattice.face_lattice"),
    ("lattice.lattice_points.s", "self_s", "lattice.lattice_points"),
    ("lattice.polar_dual.s", "self_s", "lattice.polar_dual"),
    ("lattice.intersect.calls", "calls", "lattice.intersect"),
    ("fans.Fan.validate.calls", "calls", "fans.Fan.validate"),
    ("fans.Fan.validate.s", "self_s", "fans.Fan.validate"),
    ("fans.Fan.validate.cone_pairs", "counts", "fans.Fan.validate.cone_pairs"),
    ("fans.Cone.from_rays.calls", "calls", "fans.Cone.from_rays"),
    ("fans.refine_with_boundary_rays.s", "self_s", "fans.refine_with_boundary_rays"),
    ("fans.face_fan.s", "self_s", "fans.face_fan"),
    ("partitions.validate_semistable.calls", "calls", "partitions.validate_semistable"),
    ("partitions.validate_semistable.s", "self_s", "partitions.validate_semistable"),
    ("partitions.check_tiling.s", "self_s", "partitions.check_tiling"),
    ("partitions.build_F_Gamma.calls", "calls", "partitions.build_F_Gamma"),
    ("partitions.build_F_Gamma.s", "self_s", "partitions.build_F_Gamma"),
    ("partitions.lifting_polyhedron.s", "self_s", "partitions.lifting_polyhedron"),
    ("partitions.central_frame.s", "self_s", "partitions.central_frame"),
    ("partitions.build_fibration_fans.s", "self_s", "partitions.build_fibration_fans"),
    ("nef.validate_nef.s", "self_s", "nef.validate_nef"),
    ("lg.givental_hybrid.s", "self_s", "lg.givental_hybrid"),
    ("lg.compactify_fiber.s", "self_s", "lg.compactify_fiber"),
    ("linalg.nullspace.calls", "calls", "linalg.nullspace"),
    ("linalg.nullspace.s", "self_s", "linalg.nullspace"),
    ("linalg.solve.calls", "calls", "linalg.solve"),
    ("linalg.solve.s", "self_s", "linalg.solve"),
    ("linalg.rank.calls", "calls", "linalg.rank"),
    ("linalg.rank.s", "self_s", "linalg.rank"),
    ("linalg.rank.entries", "counts", "linalg.rank.entries"),
    ("linalg.mat_mul.calls", "calls", "linalg.mat_mul"),
    ("linalg.mat_mul.s", "self_s", "linalg.mat_mul"),
    ("linalg.mat_mul.mults", "counts", "linalg.mat_mul.mults"),
    ("linalg.float_entries", "counts", "linalg.float_entries"),
    ("spectral.build.s", "self_s", "spectral.build"),
    ("spectral.check_d1_squared.s", "self_s", "spectral.check_d1_squared"),
    ("spectral.e2.calls", "calls", "spectral.e2"),
    ("spectral.e2.s", "self_s", "spectral.e2"),
    ("spectral.page_report_doc.s", "self_s", "spectral.page_report_doc"),
    ("spectral.check_mirror_pw.s", "self_s", "spectral.check_mirror_pw"),
    ("spectral.diff_entries", "counts", "spectral.diff_entries"),
    ("strata.check_topological_mirror.s", "self_s", "strata.check_topological_mirror"),
]


# The end-to-end metrics and workloads each layer metric should move.
_MOVES_BY_PREFIX = [
    ("cli.", "op_p50_ms on hulls, fibrations and pages"),
    ("lattice.intersect", "wall_s on fibrations (dual complex, tiling)"),
    ("lattice.", "wall_s and op_p90_ms on hulls; near zero on pages"),
    ("fans.", "wall_s and op_p90_ms on fibrations; absent on hulls and pages"),
    ("partitions.", "op_p50_ms and wall_s on fibrations"),
    ("nef.", "op_p50_ms on fibrations"),
    ("lg.", "op_p50_ms on fibrations"),
    ("linalg.nullspace", "wall_s on hulls"),
    ("linalg.solve", "wall_s on hulls"),
    ("linalg.float_entries", "ok_share (failed_share) on pages"),
    ("linalg.", "wall_s, op_p90_ms and peak_rss_mb on pages"),
    ("spectral.", "wall_s, op_p90_ms and peak_rss_mb on pages"),
    ("strata.", "op_p50_ms on pages"),
]
MOVES = {metric: next(text for prefix, text in _MOVES_BY_PREFIX
                      if metric.startswith(prefix))
         for metric in [m for m, _, _ in LAYER_METRICS] + ["spectral.diff_nonzero_share"]}


def merge(total, part):
    """Add one op's summary into a pass total."""
    for kind in ("calls", "self_s", "counts"):
        bucket = total.setdefault(kind, {})
        for k, v in part[kind].items():
            bucket[k] = bucket.get(k, 0) + v
    return total


def layer_values(total):
    """The per-layer metric values of one pass total."""
    out = {}
    for metric, kind, key in LAYER_METRICS:
        out[metric] = total.get(kind, {}).get(key, 0)
    counts = total.get("counts", {})
    entries = counts.get("spectral.diff_entries", 0)
    out["spectral.diff_nonzero_share"] = (
        counts.get("spectral.diff_nonzero", 0) / entries if entries else 0.0)
    return out


def unit_of(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_share"):
        return "fraction"
    return "count"

