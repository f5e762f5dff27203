"""Batch command-line surface for the toolkit.

Exit codes: 0 on success (including negative query answers), 2 on validation
or check failure, 3 on unreadable or malformed input or a wrong number of
input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import lattice, partitions, nef as nef_mod, lg as lg_mod
from . import strata as strata_mod, spectral
from .lattice import LatticeError
from .fans import FanError, fan_to_doc
from .nef import NefError
from .lg import LGError
from .partitions import PartitionError
from .strata import StrataError
from .spectral import SpectralError


class CliValidationFailure(Exception):
    """Raised for failed checks and validations (exit code 2)."""


class CliUsageError(Exception):
    """Raised for a command line the parser accepts but cannot run (exit
    code 3)."""


def data_dir():
    return resources.files("lgmirror") / "data"


def corpus_names():
    return sorted(p.name[:-5] for p in data_dir().iterdir()
                  if p.name.endswith(".json"))


def resolve_polytope(name):
    path = data_dir() / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled polytope named '{name}'")
    return lattice.polytope_from_doc(json.loads(path.read_text()))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos)


def emit(payload, fmt, text_renderer=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_renderer(payload) if text_renderer else
              json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------

def cmd_polytope(args):
    p = lattice.polytope_from_doc(_load_json(args.file))
    fmt = args.format
    if args.action == "dual":
        if not lattice.is_reflexive(p):
            raise CliValidationFailure(
                f"not reflexive: {lattice.reflexivity_diagnostic(p)}")
        emit(lattice.polytope_to_doc(lattice.polar_dual(p)), "json")
    elif args.action == "reflexive":
        verdict = lattice.is_reflexive(p)
        emit({"reflexive": verdict,
              "diagnostic": lattice.reflexivity_diagnostic(p)}, fmt,
             lambda d: str(d["reflexive"]).lower())
    elif args.action == "points":
        pts = lattice.lattice_points(p)
        interior = lattice.interior_lattice_points(p)
        emit({"count": len(pts), "points": [list(q) for q in pts],
              "interior": [list(q) for q in interior]}, fmt,
             lambda d: f"{d['count']} lattice points, "
                       f"{len(d['interior'])} interior")
    elif args.action == "faces":
        by_dim = {}
        for f in lattice.face_lattice(p):
            by_dim.setdefault(f.dimension, []).append(
                [list(v) for v in f.vertices()])
        emit({"faces": {str(k): v for k, v in sorted(by_dim.items())}}, fmt,
             lambda d: "\n".join(f"dim {k}: {len(v)} faces"
                                 for k, v in sorted(d["faces"].items())))
    elif args.action == "smooth":
        emit({"simplicial": lattice.is_simplicial(p),
              "smooth": lattice.is_smooth(p)}, fmt,
             lambda d: f"simplicial: {d['simplicial']}, smooth: {d['smooth']}")


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _partition_from_file(path):
    return partitions.partition_from_doc(_load_json(path), resolve_polytope)


def cmd_partition(args):
    part = _partition_from_file(args.file)
    fmt = args.format
    if args.action == "validate":
        report = partitions.validate_semistable(part)
        emit(report.to_doc(), fmt, _render_validation)
        if not report.valid:
            raise CliValidationFailure("partition is not semi-stable")
        return
    if args.action == "dual-complex":
        report = partitions.validate_semistable(part)
        if not report.tiling_ok:
            raise CliValidationFailure(report.tiling_message)
        K = partitions.dual_complex(part)
        emit(K.to_doc(), fmt,
             lambda d: f"dual complex on {d['vertices']} vertices, "
                       f"dimension {d['dimension']}; simplices: "
                       + " ".join(str(tuple(s)) for s in d["simplices"]))
        return
    if args.action == "lift":
        F = partitions.build_F_Gamma(part, bound=args.bound)
        lifted = partitions.lifting_polyhedron(part, F)
        doc = lifted.to_doc()
        doc["functionals"] = [list(m) for m in F.functionals]
        emit(doc, fmt, _render_lift)
        return
    if args.action == "frame":
        frame = partitions.central_frame(part)
        emit({
            "l": frame.l,
            "L_basis": [list(r) for r in frame.L_basis],
            "v_vectors": [list(v) for v in frame.v_vectors],
        }, fmt, lambda d: f"l = {d['l']}; L basis {d['L_basis']}; "
                          f"v vectors {d['v_vectors']}")
        return
    if args.action == "fans":
        frame = partitions.central_frame(part)
        fans = partitions.build_fibration_fans(part, frame)
        doc = fans.to_doc()
        pg = lg_mod.pi_gamma_monomials(fans.sigma_prime, frame)
        doc["pi_gamma"] = pg.to_doc()
        doc["pi_gamma_text"] = "[" + " : ".join(pg.monomials_text()) + "]"
        emit(doc, fmt, _render_fans)
        return


def _render_validation(doc):
    lines = [f"valid: {doc['valid']}",
             f"tiling: {doc['tiling']['ok']} ({doc['tiling']['message']})",
             f"simplicial pieces: {doc['simplicial']}"]
    for clause in doc["clauses"]:
        lines.append(f"clause {clause['id']}: "
                     f"{len(clause['violations'])} violation(s)")
        for v in clause["violations"]:
            lines.append(f"  {v}")
    return "\n".join(lines)


def _render_lift(doc):
    lines = ["lifted polyhedron (y >= m_i(x), host facets):"]
    for i in doc["inequalities"]:
        lines.append(f"  normal {i['normal']} offset {i['offset']}")
    lines.append(f"recession rays: {doc['recession_rays']}")
    lines.append(f"vertices: {doc['vertices']}")
    lines.append(f"piece functionals: {doc['functionals']}")
    return "\n".join(lines)


def _render_fans(doc):
    def count(fan):
        rays = {tuple(r) for c in fan["maximal_cones"] for r in c}
        return len(rays)
    return "\n".join([
        f"Sigma_Delta: {count(doc['sigma_delta'])} rays",
        f"Sigma':      {count(doc['sigma_prime'])} rays",
        f"Sigma_Gamma: {count(doc['sigma_gamma'])} rays",
        f"Sigma_v:     {count(doc['sigma_v'])} rays",
        f"pi_Gamma = {doc['pi_gamma_text']}",
    ])


# ---------------------------------------------------------------------------
# lg
# ---------------------------------------------------------------------------

def _parse_split(s, n_parts):
    if s is None:
        return n_parts - 1, 1
    k, _, r = s.partition(":")
    return int(k), int(r)


def cmd_lg(args):
    doc = _load_json(args.file)
    nef = nef_mod.nef_from_doc(doc, resolve_polytope)
    k, r = _parse_split(args.split, nef.n_parts)
    lam = args.lambda_names.split(",") if args.lambda_names else None
    fmt = args.format
    if args.action == "emit":
        model = lg_mod.givental_hybrid(nef, k, r)
        payload = {
            "constraints": [c.to_text() for c in model.constraints],
            "potentials": [h.to_text() for h in model.potentials],
        }
        emit(payload, fmt, lambda d: "\n".join(
            [f"constraint: {c} = 0" for c in d["constraints"]]
            + [f"potential:  {h}" for h in d["potentials"]]))
        return
    if args.action == "compactify":
        nd = lg_mod.NablaData.from_nef(nef)
        split_points = doc.get("split_last_points")
        if split_points and r == 1 and len(split_points) > 1:
            model = lg_mod.givental_hybrid(nef, k, 1)
            groups = [[tuple(q) for q in grp] for grp in split_points]
            eqs = lg_mod.non_nef_split_fiber(model, groups, nd, lam)
            banner = ("mirror status open: the split of the last part is not "
                      "certified nef")
        else:
            model = lg_mod.givental_hybrid(nef, k, r)
            eqs = lg_mod.compactify_fiber(model, nd, lam)
            banner = None
        payload = lg_mod.equations_to_doc(eqs)
        payload["text"] = [eq.to_text() for eq in eqs]
        if banner:
            payload["banner"] = banner
        emit(payload, fmt, lambda d: "\n".join(
            ([d["banner"]] if "banner" in d else []) + d["text"]))
        return


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

def cmd_euler(args):
    deg = strata_mod.strata_from_doc(_load_json(args.deg))
    hyb = strata_mod.strata_from_doc(_load_json(args.hyb))
    report = strata_mod.check_topological_mirror(deg, hyb)
    emit(report, args.format, _render_euler)
    if not report["ok"]:
        raise CliValidationFailure("topological mirror check failed")


def _render_euler(r):
    verdict = "PASS" if r["ok"] else "FAIL"
    sgn = "-" if r["n"] % 2 else ""
    lines = [
        f"topological mirror: {verdict} "
        f"({r['e_Y']} = {sgn}{r['e_X']}; {r['e_Y_tilde']} = {sgn}{r['e_Xc']})",
        f"e(X) = {r['e_X']}, e(X_c) = {r['e_Xc']}, "
        f"e(Y) = {r['e_Y']}, e(Y~) = {r['e_Y_tilde']}",
    ]
    for s in r["per_stratum"]:
        mark = "ok" if s["ok"] else "FAIL"
        lines.append(f"  stratum {s['I']}: {s['lhs']} vs {s['rhs']} [{mark}]")
    if not r["identity_central_statement_reading"]["ok"]:
        lines.append("note: the statement-literal reading e(Y~) = (-1)^n e(X) "
                     "does not hold; the proof-level reading against e(X_c) "
                     "is reported above")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ss
# ---------------------------------------------------------------------------

_BUILDERS = {
    "weight": spectral.build_weight_E1,
    "monodromy": spectral.build_monodromy_E1,
    "gflag": spectral.build_G_flag_E1,
    "delta": spectral.build_delta_E1,
}


def cmd_ss(args):
    fmt = args.format
    names = "DEG HYB" if args.action == "pw" else "FILE"
    want = len(names.split())
    if len(args.files) != want:
        raise CliUsageError(
            f"ss {args.action} needs {want} file{'s' if want > 1 else ''} "
            f"({names}), got {len(args.files)}")
    if args.action in _BUILDERS:
        data = spectral.complex_from_doc(_load_json(args.files[0]))
        page = _BUILDERS[args.action](data)
        emit(spectral.page_report_doc(page), fmt, lambda d: _render_page(page))
        return
    if args.action == "pw":
        deg = spectral.complex_from_doc(_load_json(args.files[0]))
        hyb = spectral.complex_from_doc(_load_json(args.files[1]))
        report = spectral.check_mirror_pw(deg, hyb, args.mode)
        emit(report, fmt, _render_pw)
        if not report["ok"]:
            raise CliValidationFailure("mirror P=W check failed")
        return
    if args.action == "pd":
        hyb = spectral.complex_from_doc(_load_json(args.files[0]))
        report = spectral.check_poincare_duality(hyb)
        emit(report, fmt, _render_pd)
        if not report["ok"]:
            raise CliValidationFailure("Poincare duality check failed")
        return


def _render_page(page):
    return page.table()


def _render_pw(r):
    verdict = "PASS" if r["ok"] else "FAIL"
    lines = [f"mirror P=W ({r['mode']} mode): {verdict}"
             + ("" if r["labelled"] else " [total-dimension mode: no Hodge "
                                         "labels supplied]")]
    lines.append("  a   l   degeneration   fibration")
    for c in r["cells"]:
        a = "-" if c["a"] is None else c["a"]
        mark = "" if c["ok"] else "   <- MISMATCH"
        lines.append(f"  {a:>2} {c['l']:>3}   {c['degeneration']:>12} "
                     f"{c['fibration']:>11}{mark}")
    return "\n".join(lines)


def _render_pd(r):
    lines = [f"Poincare duality: {'PASS' if r['ok'] else 'FAIL'}"]
    for bad in r["dimension_symmetry"]:
        lines.append(f"  asymmetric dims on {bad['I']}: degree {bad['degree']} "
                     f"has {bad['dim']}, degree {bad['dual_degree']} has "
                     f"{bad['dual_dim']}")
    for m in r["dual_maps"]:
        mark = "ok" if m["ok"] else "FAIL"
        lines.append(f"  dual map {m['rho_dual']}: {mark}"
                     + (f" (sign {m.get('sign')})" if m["ok"] else ""))
    if r.get("matched_signs"):
        lines.append(f"  matched signs by depth: {r['matched_signs']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def cmd_corpus(args):
    if args.name:
        path = data_dir() / f"{args.name}.json"
        if not path.is_file():
            raise FileNotFoundError(f"no bundled document named '{args.name}'")
        print(path)
    else:
        for name in corpus_names():
            print(name)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact toolkit for semi-stable partitions of reflexive "
                    "polytopes, hybrid LG models and mirror checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="lattice polytope queries")
    p.add_argument("action", choices=["dual", "reflexive", "points", "faces",
                                      "smooth"])
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("partition", help="semi-stable partition pipeline")
    p.add_argument("action", choices=["validate", "dual-complex", "lift",
                                      "frame", "fans"])
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=10,
                   help="coefficient box bound for the F_Gamma search")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("lg", help="Givental-style LG model generators")
    p.add_argument("action", choices=["emit", "compactify"])
    p.add_argument("file")
    p.add_argument("--split", default=None, metavar="K:R",
                   help="constraint:potential split (default: all but one "
                        "part as constraints)")
    p.add_argument("--lambda", dest="lambda_names", default=None,
                   help="comma-separated fiber parameter names")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_lg)

    p = sub.add_parser("euler", help="strata Euler characteristic checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("deg")
    p.add_argument("hyb")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("ss", help="spectral-sequence pages and mirror checks")
    p.add_argument("action", choices=["weight", "monodromy", "gflag", "delta",
                                      "pw", "pd"])
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", choices=["smoothing", "central_fiber"],
                   default="smoothing")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("corpus", help="bundled example documents")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CliValidationFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatticeError, FanError, PartitionError, NefError, LGError,
            StrataError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # str() names the file, repr() does not
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"cannot read input: {exc!r}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
