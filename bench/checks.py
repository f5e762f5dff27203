"""Check one op's outcome against the expectation written by workloads.py.

`check(op, outcome)` returns a list of reasons; an empty list means the op
passed.  An outcome is {"exit": int or None, "stdout": str, "stderr": str,
"error": str or None}, where "error" holds the exception an op raised out of
`lgmirror.cli.main`.
"""

from __future__ import annotations

import json
import re
from math import gcd


class _Float(str):
    """A float literal as it appeared in the JSON text."""


def _floats(node, path="$"):
    if isinstance(node, _Float):
        yield path, str(node)
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _floats(v, f"{path}[{i}]")


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


def check(op, outcome):
    expect = op["expect"]
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    reasons = []
    code = outcome["exit"]
    if code != expect["exit"]:
        if code == 3:
            reasons.append("exit 3 (input error) on a generated well-formed "
                           f"input: {_last_line(outcome['stderr'])}")
        else:
            reasons.append(f"exit {code}, expected {expect['exit']}: "
                           f"{_last_line(outcome['stderr'])}")
        return reasons
    if not outcome["stdout"].strip():
        return reasons if code else ["no output"]
    try:
        doc = json.loads(outcome["stdout"], parse_float=_Float)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    floats = list(_floats(doc))
    if floats:
        shown = ", ".join(f"{p} = {v}" for p, v in floats[:3])
        reasons.append(f"float in JSON output ({len(floats)}): {shown}")
    try:
        reasons.extend(CHECKS[expect["kind"]](doc, expect))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        reasons.append(f"output lacks an expected field: {exc!r}")
    return reasons


def _same(label, got, want):
    return [] if got == want else [f"{label}: got {_short(got)}, expected {_short(want)}"]


def _short(x):
    s = json.dumps(x) if not isinstance(x, str) else x
    return s if len(s) <= 120 else s[:117] + "..."


def _sorted_points(points):
    return sorted([int(c) for c in p] for p in points)


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------

def _reflexive(doc, e):
    return _same("reflexive", doc["reflexive"], e["reflexive"])


def _points(doc, e):
    return (_same("count", doc["count"], len(e["points"]))
            + _same("points", _sorted_points(doc["points"]), e["points"])
            + _same("interior", _sorted_points(doc["interior"]), e["interior"]))


def _faces(doc, e):
    got = [len(doc["faces"].get(str(k), [])) for k in range(len(e["fvector"]))]
    extra = sorted(set(doc["faces"]) - {str(k) for k in range(len(e["fvector"]))})
    return _same("f-vector", got, e["fvector"]) + _same("extra face dims", extra, [])


def _dual(doc, e):
    return _same("dual vertices", _sorted_points(doc["vertices"]), e["vertices"])


def _smooth(doc, e):
    return (_same("simplicial", doc["simplicial"], e["simplicial"])
            + _same("smooth", doc["smooth"], e["smooth"]))


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _validate(doc, e):
    out = _same("valid", doc["valid"], e["valid"])
    out += _same("tiling", doc["tiling"]["ok"], True)
    n = sum(len(c["violations"]) for c in doc["clauses"])
    if e["violations"] == "some":
        if n == 0:
            out.append("no clause violation reported for a partition that is "
                       "not semi-stable")
    else:
        out += _same("clause violations", n, e["violations"])
    return out


def _dual_complex(doc, e):
    want = sorted(e["simplices"])
    return (_same("vertices", doc["vertices"], e["vertices"])
            + _same("simplices", sorted(doc["simplices"]), want)
            + _same("dimension", doc["dimension"], max(len(s) for s in want) - 1))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lift(doc, e):
    """The functionals certify the lifting: on the vertices u of piece j,
    m_i(u) == m_j(u) when u lies in piece i, and m_i(u) > m_j(u) otherwise."""
    fn = doc["functionals"]
    pieces = [set(map(tuple, p)) for p in e["pieces"]]
    out = _same("functionals", len(fn), len(pieces))
    if out:
        return out
    for j, pj in enumerate(pieces):
        for u in pj:
            for i, pi in enumerate(pieces):
                if i == j:
                    continue
                vi, vj = _dot(fn[i], u), _dot(fn[j], u)
                if (vi != vj) if u in pi else (vi <= vj):
                    out.append(f"functional {i} against {j} fails at {list(u)}")
    up = [1] + [0] * len(fn[0])
    out += _same("recession rays", doc["recession_rays"], [up])
    out += _same("lifted vertices", len(doc["vertices"]), e["lifted_vertices"])
    return out


def _frame(doc, e):
    out = _same("l", doc["l"], e["l"])
    out += _same("v_vectors", doc["v_vectors"], e["v_vectors"])
    basis = doc["L_basis"]
    normal = e["wall_normal"]
    if len(basis) != 2 or any(_dot(r, normal) for r in basis):
        out.append(f"L_basis {basis} does not span the wall {normal}")
    else:
        # the rows span the wall's lattice iff their 2x2 minors are coprime
        a, b = basis
        minors = [a[i] * b[j] - a[j] * b[i] for i in range(3) for j in range(i + 1, 3)]
        g = 0
        for m in minors:
            g = gcd(g, abs(m))
        out += _same("L_basis index", g, 1)
    return out


def _fan_rays(fan):
    return sorted({tuple(r) for c in fan["maximal_cones"] for r in c})


def _fans(doc, e):
    out = []
    for key in ("sigma_delta", "sigma_prime"):
        out += _same(f"{key} rays", [list(r) for r in _fan_rays(doc[key])],
                     e[key]["rays"])
        out += _same(f"{key} cones", len(doc[key]["maximal_cones"]), e[key]["cones"])
    out += _same("sigma_v cones", len(doc["sigma_v"]["maximal_cones"]),
                 e["sigma_v"]["cones"])
    out += _same("added rays", doc["added_rays"], [])
    return out


# ---------------------------------------------------------------------------
# lg
# ---------------------------------------------------------------------------

_LABEL = re.compile(r"[az]_\((-?\d+(?:,-?\d+)*)\)")


def _label_point(text):
    m = _LABEL.fullmatch(text)
    if m is None:
        raise ValueError(f"unreadable label {text!r}")
    return [int(x) for x in m.group(1).split(",")]


def _lg_emit(doc, e):
    out = _same("constraints", doc["constraints"], [])
    if len(doc["potentials"]) != 1:
        return out + [f"potentials: got {len(doc['potentials'])}, expected 1"]
    coefs = re.findall(r"a_\((-?\d+(?:,-?\d+)*)\)", doc["potentials"][0])
    got = sorted([int(x) for x in c.split(",")] for c in coefs)
    return out + _same("monomials", got, e["monomials"])


def _lg_compactify(doc, e):
    eqs = doc["equations"]
    if len(eqs) != 1:
        return [f"equations: got {len(eqs)}, expected 1"]
    head, *tail = eqs[0]["terms"]
    out = _same("lambda term", [head["coef"], head["sign"]], ["lambda_1", 1])
    out += _same("rays", sorted(_label_point(z) for z in head["exps"]), e["rays"])
    if any(v != 1 for v in head["exps"].values()):
        out.append("lambda term exponents differ from 1")
    if any(t["sign"] != -1 for t in tail):
        out.append("potential terms do not all carry sign -1")
    got = sorted([_label_point(t["coef"]),
                  sorted([_label_point(z), x] for z, x in t["exps"].items())]
                 for t in tail)
    return out + _same("terms", got, e["terms"])


# ---------------------------------------------------------------------------
# ss and euler
# ---------------------------------------------------------------------------

def _page(doc, e):
    got = sorted([c["p"], c["q"], c["dim"]] for c in doc["e2"])
    return _same("E2", got, e["e2"])


def _pd(doc, e):
    return (_same("ok", doc["ok"], e["ok"])
            + _same("asymmetric dimensions", len(doc["dimension_symmetry"]),
                    e["asymmetric"])
            + _same("dual maps compared", len(doc["dual_maps"]), e["dual_maps"]))


def _pw(doc, e):
    out = [r for k in ("ok", "labelled", "mode") for r in _same(k, doc[k], e[k])]
    bad = [c for c in doc["cells"] if c["degeneration"] != c["fibration"]]
    if bad:
        out.append(f"cells differ: {_short(bad)}")
    if not doc["cells"]:
        out.append("no cells compared")
    return out


def _euler(doc, e):
    return [r for k in ("ok", "n", "e_X", "e_Xc", "e_Y", "e_Y_tilde")
            for r in _same(k, doc[k], e[k])]


CHECKS = {
    "polytope-reflexive": _reflexive,
    "polytope-points": _points,
    "polytope-faces": _faces,
    "polytope-dual": _dual,
    "polytope-smooth": _smooth,
    "partition-validate": _validate,
    "partition-dual-complex": _dual_complex,
    "partition-lift": _lift,
    "partition-frame": _frame,
    "partition-fans": _fans,
    "lg-emit": _lg_emit,
    "lg-compactify": _lg_compactify,
    "ss-page": _page,
    "ss-pd": _pd,
    "ss-pw": _pw,
    "euler": _euler,
}
