"""Batch command-line surface for the toolkit.

Exit codes: 0 on success (including negative query answers), 2 on validation
or check failure, 3 on unreadable or malformed input (an unknown key, a file
of the wrong side for its slot, two sides of different shape) or on a command
line that cannot run.

A command imports only argparse, json, fractions (with the standard modules
they import themselves) and the package; a heavier module, such as
importlib.resources for the bundled data, is imported where it is used.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import lattice, partitions, nef as nef_mod, lg as lg_mod
from . import strata as strata_mod, spectral
from .lattice import InputError, LatticeError
from .fans import FanError
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
    from importlib import resources
    return resources.files("lgmirror") / "data"


def corpus_names():
    return sorted(p.name[:-5] for p in data_dir().iterdir()
                  if p.name.endswith(".json"))


def bundled(name, kind):
    """The bundled file name.json; a name with a path separator names none."""
    path = data_dir() / f"{name}.json"
    if path.name != f"{name}.json" or not path.is_file():
        raise FileNotFoundError(f"no bundled {kind} named '{name}'")
    return path


def resolve_polytope(name):
    text = bundled(name, "polytope").read_text(encoding="utf-8")
    return lattice.polytope_from_doc(json.loads(text))


def _load_json(path):
    """The JSON document in the file at path.  Bytes that are not UTF-8, a
    nesting deeper than the parser's recursion limit and an int literal
    longer than int() accepts are InputErrors naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos)
    except (ValueError, RecursionError) as exc:
        raise InputError(path, str(exc)) from None


def _load_side(loader, path, side, slot):
    """loader's reading of the file at path, whose side must be the one the
    slot reads; it is checked once the whole document is read."""
    data = loader(_load_json(path))
    if data.side != side:
        raise InputError("side", f"{slot} expects '{side}', got {data.side!r}")
    return data


def _same_shape(deg, hyb, count, slots):
    """The two sides of a mirror check must have the same n and the same
    number of components, which each document fixes at the key count."""
    for where, a, b in (("n", f"n = {deg.n}", f"n = {hyb.n}"),
                        (count, f"{deg.components} components",
                         f"{hyb.components} components")):
        if a != b:
            raise InputError(where, f"{slots[0]} has {a}, {slots[1]} has {b}")


def _json_text(value, indent="\n"):
    """value as json.dumps writes it with sort_keys and an indent of 2, for
    the exact types dict with str keys, list, tuple, str, int, bool and
    None; any other type, a float among them, is a TypeError, so no report
    writes one.  indent is a newline and the indent of value's line."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        for x in value:
            if type(x) is not int:
                items = [_json_text(x, inner) for x in value]
                break
        else:  # a list of ints, the common case
            items = map(int.__repr__, value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        for k in value:
            if type(k) is not str:
                raise TypeError(f"cannot write a key of type {type(k).__name__} as JSON")
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(value[k], inner)
             for k in sorted(value)]) + indent + "}"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot write a value of type {kind.__name__} as JSON")


def emit(payload, fmt, text_renderer=None):
    print(text_renderer(payload) if fmt != "json" and text_renderer
          else _json_text(payload))


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------

def cmd_polytope(args):
    p = lattice.polytope_from_doc(_load_json(args.file))
    fmt = args.format
    if args.action == "dual":
        try:
            dual = lattice.polar_dual(p)
        except LatticeError as exc:
            raise CliValidationFailure(exc) from None
        emit(lattice.polytope_to_doc(dual), "json")
    elif args.action == "reflexive":
        diagnostic = lattice.reflexivity_diagnostic(p)
        emit({"reflexive": diagnostic == "reflexive", "diagnostic": diagnostic},
             fmt, lambda d: str(d["reflexive"]).lower())
    elif args.action == "points":
        pts = lattice.lattice_points(p)
        interior = lattice.interior_lattice_points(p)
        emit({"count": len(pts), "points": [list(q) for q in pts],
              "interior": [list(q) for q in interior]}, fmt,
             lambda d: f"{d['count']} lattice points, "
                       f"{len(d['interior'])} interior")
    elif args.action == "faces":
        by_dim = {}
        for f in p.all_faces():
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
        emit(report, fmt, _render_validation)
        if not report["valid"]:
            raise CliValidationFailure("partition is not semi-stable")
        return
    if args.action == "dual-complex":
        tiling_ok, message = partitions.check_tiling(part)
        if not tiling_ok:
            raise CliValidationFailure(message)
        emit(partitions.dual_complex(part), fmt,
             lambda d: f"dual complex on {d['vertices']} vertices, "
                       f"dimension {d['dimension']}; simplices: "
                       + " ".join(str(tuple(s)) for s in d["simplices"]))
        return
    if args.action == "lift":
        functionals = partitions.build_F_Gamma(part)
        emit(partitions.lifting_polyhedron(part, functionals), fmt, _render_lift)
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
        comps = [sorted(c.items())
                 for c in lg_mod.pi_gamma_monomials(fans.sigma_prime, frame)]
        doc["pi_gamma"] = {"components": [
            {lg_mod.var_label(s): e for s, e in c} for c in comps]}
        doc["pi_gamma_text"] = "[" + " : ".join(
            "".join(lg_mod.var_label(s) + (f"^{e}" if e > 1 else "") for s, e in c)
            for c in comps) + "]"
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
    lines = ["lifted polyhedron (y >= -m_i(x), host facets):"]
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
    try:
        k, r = int(k), int(r)
    except ValueError:
        raise CliUsageError(f"--split must be K:R with integers K and R, "
                            f"got {s!r}") from None
    if k < 0:
        raise CliUsageError(f"--split must be K:R with K >= 0, got {s!r}")
    if k + r != n_parts:
        raise CliUsageError(f"split {k}:{r} does not match {n_parts} parts")
    if r < 1:
        raise CliUsageError("at least one potential part is required")
    return k, r


def _read_split(doc, nef, model, r):
    """The groups of doc["split_last_points"]: nonempty, and a partition of
    the nonzero points of the last part, which must be the one potential."""
    groups = lattice.read_list(
        doc["split_last_points"], "split_last_points",
        lambda grp, where: lattice.read_points(grp, where, nef.host.ambient_rank))
    if r != 1:
        raise InputError("split_last_points", f"splits the last part, but "
                         f"--split leaves {r} potential parts")
    points = [rho for rho in model.potentials[0] if any(rho)]
    if not all(groups) or sorted(q for g in groups for q in g) != points:
        raise InputError("split_last_points", "the groups must be nonempty and "
                         "partition the nonzero points of the last part")
    return groups


def cmd_lg(args):
    if args.action == "emit" and args.lambda_names is not None:
        raise CliUsageError("--lambda names the fiber parameters of "
                            "lg compactify; lg emit takes none")
    doc = _load_json(args.file)
    nef = nef_mod.nef_from_doc(doc, resolve_polytope)
    k, r = _parse_split(args.split, nef.n_parts)
    model = lg_mod.givental_hybrid(nef, k, r)
    split = _read_split(doc, nef, model, r) if "split_last_points" in doc else None
    fmt = args.format
    if args.action == "emit":
        payload = {
            "constraints": [lg_mod.laurent_text(c) for c in model.constraints],
            "potentials": [lg_mod.laurent_text(h) for h in model.potentials],
        }
        emit(payload, fmt, lambda d: "\n".join(
            [f"constraint: {c} = 0" for c in d["constraints"]]
            + [f"potential:  {h}" for h in d["potentials"]]))
        return
    lam = args.lambda_names.split(",") if args.lambda_names else None
    want = len(split) if split else r
    if lam and len(lam) != want:
        raise CliUsageError(f"--lambda names {len(lam)} symbols for "
                            f"{want} potentials")
    eqs = lg_mod.compactify_fiber(model, nef, lam, split)
    payload = {"equations": eqs,
               "text": [lg_mod.equation_text(eq) for eq in eqs]}
    if split and len(split) > 1:
        payload["banner"] = ("mirror status open: the split of the last "
                             "part is not certified nef")
    emit(payload, fmt, lambda d: "\n".join(
        ([d["banner"]] if "banner" in d else []) + d["text"]))


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

def cmd_euler(args):
    slots = "euler check DEG", "euler check HYB"
    deg = _load_side(strata_mod.strata_from_doc, args.deg, "degeneration", slots[0])
    hyb = _load_side(strata_mod.strata_from_doc, args.hyb, "hybrid", slots[1])
    _same_shape(deg, hyb, "components", slots)
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


# (name, side) of each file an ss action reads; a page reads its spec's side
_SLOTS = {spec.name: (("FILE", spec.side),) for spec in (
    spectral.WEIGHT, spectral.MONODROMY, spectral.GFLAG, spectral.DELTA)}
_SLOTS.update(pw=(("DEG", "degeneration"), ("HYB", "hybrid")),
              pd=(("FILE", "hybrid"),))


def cmd_ss(args):
    fmt = args.format
    slots = _SLOTS[args.action]
    if len(args.files) != len(slots):
        raise CliUsageError(
            f"ss {args.action} needs {len(slots)} file{'s' if len(slots) > 1 else ''} "
            f"({' '.join(name for name, _ in slots)}), got {len(args.files)}")
    names = [f"ss {args.action} {name}" for name, _ in slots]
    data = [_load_side(spectral.complex_from_doc, path, side, name)
            for path, name, (_, side) in zip(args.files, names, slots)]
    if args.action == "pw":
        _same_shape(*data, "strata", names)
    if args.action in _BUILDERS:
        page = _BUILDERS[args.action](data[0])
        emit(spectral.page_report_doc(page), fmt, _render_page)
        return
    if args.action == "pw":
        report = spectral.check_mirror_pw(*data, args.mode)
        emit(report, fmt, _render_pw)
        if not report["ok"]:
            raise CliValidationFailure("mirror P=W check failed")
        return
    if args.action == "pd":
        report = spectral.check_poincare_duality(data[0])
        emit(report, fmt, _render_pd)
        if not report["ok"]:
            raise CliValidationFailure("Poincare duality check failed")
        return


def _render_page(doc):
    return "\n".join(
        [f"{doc['name']} E2 graded dimensions"
         + (f" ({doc['grading']})" if doc["grading"] else "")]
        + [f"  E2[{c['p']},{c['q']}] = {c['dim']}" for c in doc["e2"]])


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
                     + (f" (sign {m['sign']})" if m["ok"] else f" ({m['note']})"))
    if r.get("matched_signs"):
        lines.append(f"  matched signs by depth: {r['matched_signs']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def cmd_corpus(args):
    if args.name:
        print(bundled(args.name, "document"))
    else:
        for name in corpus_names():
            print(name)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FORMAT = ("--format", dict(choices=["text", "json"], default="text"))

# name: (help, handler, [(argument, add_argument keywords)]).  main reads a
# plain argv (see _read_argv) from this table without argparse, whose
# parsers and help formatters took most of the time of a short op.  Any
# other argv goes to argparse.
COMMANDS = {
    "polytope": ("lattice polytope queries", cmd_polytope, [
        ("action", dict(choices=["dual", "reflexive", "points", "faces", "smooth"])),
        ("file", {}), _FORMAT]),
    "partition": ("semi-stable partition pipeline", cmd_partition, [
        ("action", dict(choices=["validate", "dual-complex", "lift", "frame", "fans"])),
        ("file", {}), _FORMAT]),
    "lg": ("Givental-style LG model generators", cmd_lg, [
        ("action", dict(choices=["emit", "compactify"])), ("file", {}),
        ("--split", dict(default=None, metavar="K:R",
                         help="constraint:potential split (default: all but "
                              "one part as constraints)")),
        ("--lambda", dict(dest="lambda_names", default=None,
                          help="comma-separated fiber parameter names")),
        _FORMAT]),
    "euler": ("strata Euler characteristic checks", cmd_euler, [
        ("action", dict(choices=["check"])), ("deg", {}), ("hyb", {}), _FORMAT]),
    "ss": ("spectral-sequence pages and mirror checks", cmd_ss, [
        ("action", dict(choices=["weight", "monodromy", "gflag", "delta", "pw", "pd"])),
        ("files", dict(nargs="+")),
        ("--mode", dict(choices=["smoothing", "central_fiber"], default="smoothing")),
        _FORMAT]),
    "corpus": ("bundled example documents", cmd_corpus, [("name", dict(nargs="?"))]),
}


def build_parser():
    """The lgmirror parser, with every subcommand of COMMANDS."""
    ap = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact toolkit for semi-stable partitions of reflexive "
                    "polytopes, hybrid LG models and mirror checks")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return ap


def _plain(word, keywords):
    """word read as an argument with these add_argument keywords, as argparse
    reads it; ValueError when argparse would not read it as a plain value."""
    if not word or word.startswith("-"):
        raise ValueError(word)
    if "choices" in keywords and word not in keywords["choices"]:
        raise ValueError(word)
    return word


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) returns, read from
    COMMANDS when argv is plain: a command, its positional words, then long
    options written in full, as --opt VALUE or --opt=VALUE, where no word or
    value is empty or starts with '-' and each value is one argparse
    accepts.  None for every other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    words = list(argv[1:])
    first_option = next((i for i, w in enumerate(words) if w.startswith("-")),
                        len(words))
    positionals, rest = words[:first_option], words[first_option:]
    values, options = {"command": argv[0], "func": func}, {}
    try:
        for argument, keywords in arguments:
            nargs = keywords.get("nargs")
            if argument.startswith("--"):
                dest = keywords.get("dest", argument[2:].replace("-", "_"))
                options[argument] = dest, keywords
                values[dest] = keywords.get("default")
            elif nargs == "+":
                if not positionals:
                    return None
                values[argument] = [_plain(w, keywords) for w in positionals]
                positionals = []
            elif nargs == "?" and not positionals:
                values[argument] = keywords.get("default")
            elif positionals:
                values[argument] = _plain(positionals.pop(0), keywords)
            else:
                return None
        if positionals:
            return None
        while rest:
            option, eq, value = rest.pop(0).partition("=")
            if option not in options or not (eq or rest):
                return None
            dest, keywords = options[option]
            values[dest] = _plain(value if eq else rest.pop(0), keywords)
    except ValueError:
        return None
    return argparse.Namespace(**values)


def main(argv=None):
    """Run one command; return its exit code.  A plain argv (_read_argv) is
    read from COMMANDS; argparse reads any other, and alone writes help,
    usage and error text, exiting on them as it does."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CliValidationFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except (LatticeError, FanError, PartitionError, NefError, LGError,
            StrataError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # str() names the file, repr() does not
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"cannot read input: {exc!r}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
