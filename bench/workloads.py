"""Seeded generators for the three workloads.

    python3 bench/workloads.py <workload> <seed> <out-dir>

writes every input document under <out-dir>/inputs and the op list, with the
expected result of each op, to <out-dir>/ops.json; op argv paths are
relative to <out-dir>.  The same seed gives
byte-identical files.  The seed only moves inputs by symmetries (signed
coordinate permutations, vertex order, bases of graded pieces) and picks
among inputs of the same shape, so the work in a pass hardly depends on it.

Expectations come from closed forms and invariances, never from lgmirror:
see geometry.py for lattice facts and complexes.py for E2 tables.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import complexes  # noqa: E402
import geometry as geo  # noqa: E402

WORKLOADS = ("hulls", "fibrations", "pages")

# Seed for claims made after a change: it is used by no tuning run.
HELD_OUT_SEED = 9001

# Products P x Q by vertex counts of the factors; the seed picks the factors.
# Hull cost grows with C(|V(P)| |V(Q)|, 4), so larger classes would dominate a
# pass (a hexagon x hexagon hull alone takes about 10 s at this size).
PRODUCT_CLASSES = ((3, 3), (3, 4), (3, 4), (3, 4), (3, 5), (4, 4), (3, 6), (4, 5))

KOSZUL = ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2),
          (6, 1), (7, 1))          # (components, block scale)
CYCLES = (2, 3, 4, 6, 8, 12, 16, 24)
PW_CONJUGATES = 3


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class Writer:
    """Writes input documents; op argv names them relative to the out dir,
    where the op processes run."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        os.makedirs(os.path.join(out_dir, "inputs"), exist_ok=True)
        self.ops = []

    def doc(self, name, doc):
        path = f"inputs/{name}.json"
        with open(os.path.join(self.out_dir, path), "w") as fh:
            fh.write(_dump(doc))
        return path

    def op(self, argv, expect, name):
        self.ops.append({"id": f"{self.workload}:{'-'.join(argv[:2])}:{name}",
                         "argv": argv, "expect": expect})


def _pts(points):
    return sorted(list(p) for p in points)


def _poly_doc(name, verts):
    return {"name": name, "rank": len(verts[0]),
            "vertices": [list(v) for v in verts]}


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

def _hull_ops(w, rng, name, fact):
    """All five polytope queries on one polytope, moved by a seeded signed
    permutation, with expectations carried along by the same map."""
    rank = len(fact.vertices[0])
    g = geo.signed_permutation(rng, rank)
    verts = geo.apply_all(g, fact.vertices)
    rng.shuffle(verts)
    path = w.doc(name, _poly_doc(name, verts))
    for action in ("reflexive", "points", "faces", "dual", "smooth"):
        expect = {"kind": f"polytope-{action}", "exit": 0}
        if action == "reflexive":
            expect["reflexive"] = fact.reflexive
        elif action == "points":
            expect["points"] = _pts(geo.apply_all(g, fact.points))
            expect["interior"] = _pts(geo.apply_all(g, fact.interior))
        elif action == "faces":
            expect["fvector"] = fact.fvector
        elif action == "dual":
            if fact.reflexive:
                expect["vertices"] = _pts(geo.apply_all(g, fact.dual))
            else:
                expect["exit"] = 2
        else:
            expect["simplicial"] = True
            expect["smooth"] = fact.smooth
        w.op(["polytope", action, path, "--format", "json"], expect, name)


def gen_hulls(w, rng):
    seg = geo.segment_factor()
    for pname, verts in geo.POLYGONS.items():
        _hull_ops(w, rng, pname, geo.polygon_factor(verts))
        _hull_ops(w, rng, f"{pname}-x2", geo.polygon_factor(verts, dilation=2))
        _hull_ops(w, rng, f"{pname}-prism",
                  geo.product([geo.polygon_factor(verts), seg]))
    by_count = {}
    for pname, verts in geo.POLYGONS.items():
        by_count.setdefault(len(verts), []).append(pname)
    for k, (a, b) in enumerate(PRODUCT_CLASSES):
        p, q = rng.choice(by_count[a]), rng.choice(by_count[b])
        fact = geo.product([geo.polygon_factor(geo.POLYGONS[p]),
                            geo.polygon_factor(geo.POLYGONS[q])])
        _hull_ops(w, rng, f"product{k}-{p}-times-{q}", fact)


# ---------------------------------------------------------------------------
# fibrations
# ---------------------------------------------------------------------------

def _box(lo, hi):
    return [tuple(p) for p in itertools.product(*zip(lo, hi))]


PARTITION_ACTIONS = ("validate", "dual-complex", "lift", "frame", "fans")


def _partition_ops(w, rng, name, host_fact, pieces, wall_normal, expect_of,
                   actions=PARTITION_ACTIONS):
    # The third axis stays in place (up to sign): the F_Gamma search scans
    # functionals in a fixed order, so moving the cut to another axis would
    # change its cost with the seed.
    g2 = geo.signed_permutation(rng, 2)
    g = [g2[0] + [0], g2[1] + [0], [0, 0, rng.choice((1, -1))]]
    host = geo.apply_all(g, host_fact.vertices)
    rng.shuffle(host)
    moved = []
    for piece in pieces:
        pv = geo.apply_all(g, piece)
        rng.shuffle(pv)
        moved.append(pv)
    path = w.doc(name, {"polytope": _poly_doc(name, host),
                        "pieces": [[list(v) for v in pv] for pv in moved]})
    ctx = {"g": g, "pieces": [_pts(pv) for pv in moved],
           "wall_normal": list(geo.apply(g, wall_normal)) if wall_normal else None}
    for action in actions:
        expect = dict(expect_of(action, ctx), kind=f"partition-{action}")
        w.op(["partition", action, path, "--format", "json"], expect, name)


def _halves_expect(fact, base):
    """Prism P x [-1, 1] split at height 0.  Both halves are prisms, so the
    partition is semi-stable; it is non-singular, and the rest of the pipeline
    applies, exactly when P is smooth."""
    nv = len(base.vertices)
    smooth = base.smooth
    boundary = [p for p in fact.points if any(p)]

    def expect(action, ctx):
        g = ctx["g"]
        if action == "validate":
            return {"exit": 0, "valid": True, "violations": 0}
        if action == "dual-complex":
            return {"exit": 0, "vertices": 2, "simplices": [[0], [1], [0, 1]]}
        if not smooth:
            return {"exit": 2}
        if action == "lift":
            return {"exit": 0, "pieces": ctx["pieces"], "lifted_vertices": 3 * nv}
        if action == "frame":
            up = list(geo.apply(g, (0, 0, 1)))
            return {"exit": 0, "l": 1, "wall_normal": ctx["wall_normal"],
                    "v_vectors": [up, [-x for x in up]]}
        b = len(base.points) - 1
        return {"exit": 0,
                "sigma_delta": {"rays": _pts(geo.apply_all(g, fact.vertices)),
                                "cones": nv + 2},
                # a fine triangulation of the boundary has one cone per unit
                # of normalized facet area: b on top, b below, 4b on the sides
                "sigma_prime": {"rays": _pts(geo.apply_all(g, boundary)),
                                "cones": 6 * b},
                "sigma_v": {"cones": 2}}
    return expect


def _not_semistable_expect(n_pieces):
    """Cube quarters and octants: four pieces share the central axis, one more
    than the face-count clause allows, so only the dual complex (every subset
    of pieces meets at the origin) is defined."""
    def expect(action, ctx):
        if action == "validate":
            return {"exit": 2, "valid": False, "violations": "some"}
        if action == "dual-complex":
            subsets = [list(s) for r in range(1, n_pieces + 1)
                       for s in itertools.combinations(range(n_pieces), r)]
            return {"exit": 0, "vertices": n_pieces, "simplices": subsets}
        return {"exit": 2}
    return expect


def _lg_ops(w, rng, pname, verts):
    """The one-part nef partition of a reflexive polygon P: the potential has
    a monomial per lattice point of P, and the compactified fibre one term
    per nonzero point rho, with exponent <sigma, rho> + 1 at each nonzero
    point sigma of the polar dual."""
    g = geo.signed_permutation(rng, 2)
    fact = geo.polygon_factor(verts)
    moved = geo.apply_all(g, fact.vertices)
    rng.shuffle(moved)
    name = f"{pname}-nef"
    path = w.doc(name, {"polytope": _poly_doc(name, moved),
                        "parts": [list(range(len(moved)))]})
    pts = geo.apply_all(g, fact.points)
    dual_pts = [s for s in geo.apply_all(g, geo.polygon_points(fact.dual)) if any(s)]
    w.op(["lg", "emit", path, "--format", "json"],
         {"kind": "lg-emit", "exit": 0, "monomials": _pts(pts)}, name)
    terms = [[list(rho), sorted([list(s), s[0] * rho[0] + s[1] * rho[1] + 1]
                                for s in dual_pts
                                if s[0] * rho[0] + s[1] * rho[1] + 1)]
             for rho in pts if any(rho)]
    w.op(["lg", "compactify", path, "--format", "json"],
         {"kind": "lg-compactify", "exit": 0, "rays": _pts(dual_pts),
          "terms": sorted(terms)}, name)


def gen_fibrations(w, rng):
    seg = geo.segment_factor()
    for pname, verts in geo.POLYGONS.items():
        base = geo.polygon_factor(verts)
        fact = geo.product([base, seg])
        lower = [v + (z,) for v in verts for z in (-1, 0)]
        upper = [v + (z,) for v in verts for z in (0, 1)]
        _partition_ops(w, rng, f"{pname}-halves", fact, [lower, upper],
                       (0, 0, 1), _halves_expect(fact, base))
    # The cube is the prism over the square b8v4b, so its halves are among
    # the prisms above; quarters and octants cut it further.
    cube = geo.product([geo.polygon_factor(geo.POLYGONS["b8v4b"]), seg])
    quarters = [_box((x, y, -1), (x + 1, y + 1, 1))
                for x, y in itertools.product((-1, 0), repeat=2)]
    _partition_ops(w, rng, "cube-quarters", cube, quarters, None,
                   _not_semistable_expect(4))
    # Octants get the verdict only: their dual complex intersects all 255
    # subsets of pieces (about 6 s), which would leave room for one pass.
    octants = [_box(lo, [x + 1 for x in lo])
               for lo in itertools.product((-1, 0), repeat=3)]
    _partition_ops(w, rng, "cube-octants", cube, octants, None,
                   _not_semistable_expect(8), actions=("validate",))
    for pname, verts in geo.POLYGONS.items():
        _lg_ops(w, rng, pname, verts)


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------

ELLIPTIC_DEG = {
    "n": 1, "side": "degeneration",
    "strata": [
        {"I": [0], "dims": {"0": 1, "2": 1}, "hodge": {"0": {"0": 1}, "2": {"0": 1}}},
        {"I": [1], "dims": {"0": 1, "2": 1}, "hodge": {"0": {"0": 1}, "2": {"0": 1}}},
        {"I": [0, 1], "dims": {"0": 2}, "hodge": {"0": {"0": 2}}}],
    "maps": [
        {"kind": "restrict", "from": [0], "to": [0, 1], "degree": 0, "matrix": [["1"], ["1"]]},
        {"kind": "restrict", "from": [1], "to": [0, 1], "degree": 0, "matrix": [["1"], ["1"]]}],
}
ELLIPTIC_HYB = {
    "n": 1, "side": "hybrid",
    "strata": [{"I": [0], "dims": {"1": 2}}, {"I": [1], "dims": {"1": 2}},
               {"I": [0, 1], "dims": {"0": 2}}],
    "maps": [
        {"kind": "rho", "from": [0, 1], "to": [0], "degree": 0, "matrix": [["1", "-1"], ["0", "0"]]},
        {"kind": "rho", "from": [0, 1], "to": [1], "degree": 0, "matrix": [["1", "-1"], ["0", "0"]]},
        {"kind": "rho_dual", "from": [0], "to": [0, 1], "degree": 1, "matrix": [["0", "-1"], ["0", "1"]]},
        {"kind": "rho_dual", "from": [1], "to": [0, 1], "degree": 1, "matrix": [["0", "-1"], ["0", "1"]]}],
    "pairings": [
        {"I": [0], "degree": 1, "matrix": [["0", "1"], ["-1", "0"]]},
        {"I": [1], "degree": 1, "matrix": [["0", "1"], ["-1", "0"]]}],
}
# Euler numbers of the elliptic pair: both sides of the degeneration are two
# rational curves meeting in two points, so e(X_c) = 2 + 2 - 2 and the
# smoothing, an elliptic curve, has e(X) = 0.
ELLIPTIC_EULER_DEG = {"n": 1, "components": 2, "side": "degeneration",
                      "entries": [{"I": [0], "e": 2}, {"I": [1], "e": 2},
                                  {"I": [0, 1], "e": 2}]}
ELLIPTIC_EULER_HYB = {"n": 1, "components": 2, "side": "hybrid",
                      "entries": [{"I": [0], "e": 0}, {"I": [1], "e": 0},
                                  {"I": [0, 1], "e": 2}]}


def _e2_doc(e2):
    return sorted([p, q, v] for (p, q), v in e2.items())


def gen_pages(w, rng):
    references = {}
    for c, scale in KOSZUL:
        # Fixed coefficients, and the seed picks the bases: where a page with
        # float signs first goes wrong, and so its cost, depends on them.
        a, b = [1] * c, [1] * (c - 1) + [1 - c]
        # n = c - 1 makes every stratum's degrees symmetric, so the duality
        # check compares every rho with its dual: b_x against +-a_x.  As
        # <a, b> = 0 and a > 0, b_x / a_x differs in size or sign between two
        # x of one depth, so the check fails.
        if c not in references:
            base = complexes.koszul(c, a, b, n=c - 1)
            references[c] = {kind: complexes.reference_e2(base, kind)
                             for kind in ("gflag", "delta")}
        e2 = references[c]
        plain = complexes.koszul(c, a, b, n=c - 1, scale=scale)
        n_dual_maps = sum(len(I) for I in plain["strata"] if len(I) > 1)
        for label, cx in (("plain", plain),
                          ("conj", complexes.conjugated(plain, rng))):
            name = f"koszul-c{c}-s{scale}-{label}"
            path = w.doc(name, complexes.to_doc(cx))
            for kind in ("gflag", "delta"):
                table = {k: v * scale for k, v in e2[kind].items()}
                w.op(["ss", kind, path, "--format", "json"],
                     {"kind": "ss-page", "exit": 0, "e2": _e2_doc(table)}, name)
            w.op(["ss", "pd", path, "--format", "json"],
                 {"kind": "ss-pd", "exit": 2, "ok": False,
                  "asymmetric": 0, "dual_maps": n_dual_maps}, name)
    for r in CYCLES:
        plain = complexes.cycle(r)
        conj = complexes.conjugated(complexes.with_explicit_gysin(plain), rng)
        for label, cx in (("plain", plain), ("conj", conj)):
            name = f"cycle-r{r}-{label}"
            path = w.doc(name, complexes.to_doc(cx))
            for kind, table in (("weight", complexes.cycle_weight_e2(r)),
                                ("monodromy", complexes.cycle_monodromy_e2(r))):
                w.op(["ss", kind, path, "--format", "json"],
                     {"kind": "ss-page", "exit": 0, "e2": _e2_doc(table)}, name)
    deg = complexes.from_doc(ELLIPTIC_DEG)
    hyb = complexes.from_doc(ELLIPTIC_HYB)
    pairs = [("plain", deg, hyb)]
    for i in range(PW_CONJUGATES):
        pairs.append((f"conj{i}",
                      complexes.conjugated(complexes.with_explicit_gysin(deg), rng),
                      complexes.conjugated(hyb, rng)))
    for label, d, h in pairs:
        name = f"elliptic-{label}"
        dpath = w.doc(name + "-deg", complexes.to_doc(d))
        hpath = w.doc(name + "-hyb", complexes.to_doc(h))
        for mode in ("smoothing", "central_fiber"):
            w.op(["ss", "pw", dpath, hpath, "--mode", mode, "--format", "json"],
                 {"kind": "ss-pw", "exit": 0, "ok": True, "labelled": True,
                  "mode": mode}, f"{name}-{mode}")
    for label, perm in (("plain", (0, 1)), ("swapped", (1, 0))):
        docs = []
        for base in (ELLIPTIC_EULER_DEG, ELLIPTIC_EULER_HYB):
            docs.append(dict(base, entries=[
                {"I": sorted(perm[i] for i in e["I"]), "e": e["e"]}
                for e in base["entries"]]))
        name = f"elliptic-euler-{label}"
        dpath = w.doc(name + "-deg", docs[0])
        hpath = w.doc(name + "-hyb", docs[1])
        w.op(["euler", "check", dpath, hpath, "--format", "json"],
             {"kind": "euler", "exit": 0, "ok": True, "n": 1, "e_X": 0,
              "e_Xc": 2, "e_Y": 0, "e_Y_tilde": -2}, name)


GENERATORS = {"hulls": gen_hulls, "fibrations": gen_fibrations,
              "pages": gen_pages}


def generate(workload, seed, out_dir):
    """Write the inputs and ops.json of one workload; return the op list."""
    w = Writer(workload, out_dir)
    GENERATORS[workload](w, random.Random(f"{workload}/{seed}"))
    with open(os.path.join(out_dir, "ops.json"), "w") as fh:
        fh.write(_dump(w.ops))
    return w.ops


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED OUT_DIR")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
