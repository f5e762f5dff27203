"""Symbolic Givental-style hybrid Landau-Ginzburg models: Laurent constraint
and potential polynomials, their compactifications in homogeneous coordinates,
and the monomial map of the induced toric fibration.  No polytope is built
past the host: the points of Delta_i = conv(0, E_i), nabla_i and nabla are
those of the host or its polar dual that meet Batyrev-Borisov inequalities.

Coefficients stay symbolic throughout ("a_(p,q)" tagged by the lattice point,
"lambda_j" for the fiber parameters); every check is structural.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import lattice_points, polar_dual
from .linalg import dot, primitive, solve, vec_gcd


class LGError(ValueError):
    pass


def coef_label(rho):
    return "a_(" + ",".join(str(c) for c in rho) + ")"


def var_label(sigma):
    return "z_(" + ",".join(str(c) for c in sigma) + ")"


def laurent_text(points):
    """The Laurent polynomial in x1, ..., xn with support `points`, one
    symbolic coefficient coef_label(rho) per point, in the given order."""
    names = [f"x{i+1}" for i in range(len(points[0]))]
    parts = []
    for rho in points:
        factors = [coef_label(rho)]
        for name, e in zip(names, rho):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def equation_text(eq):
    """The line Sum(sign * coef * monomial) = 0 of an equation document
    {"terms": [{"coef", "sign", "exps": {variable: exponent}}]}."""
    out = []
    for t in eq["terms"]:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in t["exps"].items())
        piece = f"{t['coef']}*{mono}" if mono else t["coef"]
        out.append(piece if not out and t["sign"] > 0
                   else (" + " if t["sign"] > 0 else " - ") + piece)
    return "".join(out) + " = 0"


class HybridLGModel(namedtuple("HybridLGModel", "constraints potentials")):
    """Torus constraints and potentials built from a nef partition, each
    Laurent polynomial given by its support, the lex-sorted lattice points
    of Delta_i = conv(0, E_i), per constraint part and per potential part."""

    __slots__ = ()


def givental_hybrid(nef, k, r):
    """Constraints from the first k parts, potentials from the last r >= 1,
    where k + r is the number of parts.

    The support of part i: the host's lattice points x, in lex order, with
    <u, x> >= 0 at every vertex u of every other nabla_j.  Proof: phi_j =
    max over u in nabla_j of -<u, .> (validate_nef) is sublinear, >= 0 as
    0 lies in nabla_j, and 0 on E_i and 0, so 0 on Delta_i.  Conversely,
    x in the host is sum mu_v v over the rays of its face-fan cone, with
    mu >= 0 and sum mu_v <= 1; phi_j is linear there and 1 on E_j, so
    phi_j(x) = 0 for all j != i forces mu_v = 0 off E_i: x is in Delta_i.
    """
    points = lattice_points(nef.host)
    supports = [tuple(x for x in points if all(
        dot(u, x) >= 0 for j, vs in enumerate(nef.nabla) if j != i for u in vs))
        for i in range(nef.n_parts)]
    return HybridLGModel(tuple(supports[:k]), tuple(supports[k:]))


def _fan_rays(nef, points):
    """The rays of the fan over nabla = conv(nabla_1 u ... u nabla_r), its
    boundary lattice points: the nonzero lattice points u of the polar dual
    (points) with sum over i of min(0, min over v in E_i of <v, u>) >= -1.
    Proof: nabla is reflexive with polar Delta_1 + ... + Delta_r (Borisov
    1993; Batyrev-Borisov 1996), so its boundary points are its nonzero
    points, and u is in nabla when the minimum of <., u> over that sum, the
    sum of its minima over the Delta_i, is >= -1."""
    parts = [nef.part_vertices(i) for i in range(nef.n_parts)]
    return tuple(u for u in points
                 if any(u) and sum(min(0, *(dot(v, u) for v in vs)) for vs in parts) >= -1)


def _compactified_terms(points, part, rays, sign):
    """One term per point rho of Delta_i = conv(0, part), with exponent
    <sigma, rho> - sigma_min >= 0 of z_sigma; the zero exponents are left
    out.  sigma_min = min(0, min over v in part of <sigma, v>): a linear
    form takes its minimum over a hull at a point it is the hull of."""
    mins = {s: min(0, *(dot(s, v) for v in part)) for s in rays}
    return [{"coef": coef_label(rho), "sign": sign,
             "exps": {var_label(s): e for s in rays if (e := dot(s, rho) - mins[s])}}
            for rho in points]


def compactify_fiber(model, nef, lam=None, split=None):
    """Homogeneous equations of a compactified fiber of the model that
    givental_hybrid built from nef, in the coordinates z_sigma, sigma in
    _fan_rays(nef, points), points the polar dual's lattice points.

    Constraint i: sum over Delta_i of a_rho z^(<sigma,rho> - sigma_min_i).
    Potential j: lambda_j times the z_sigma at the nonzero points of
    nabla_j, minus the analogous sum over the nonzero points of Delta_j.
    Those of nabla_j are the polar dual's points u with <v, u> >= 0 at the
    host vertices v off E_j, its definition (NefPartition) cut from the
    polar dual that holds it; one that is not a fan ray, as when nabla is
    not reflexive, is an LGError.  With a split (groups that partition the
    nonzero points of a model's one potential part, possibly not nef),
    each group is a potential of its own against the sigma-minimum of the
    whole part; no mirror status is asserted.  lam holds one symbol per
    potential.  Each equation is the document that equation_text prints.
    """
    k = len(model.constraints)
    parts = [k] * len(split) if split else range(k, nef.n_parts)
    split = split or [[rho for rho in pts if any(rho)] for pts in model.potentials]
    lam = lam or [f"lambda_{j+1}" for j in range(len(split))]
    points = lattice_points(polar_dual(nef.host))
    rays = _fan_rays(nef, points)
    eqs = [{"terms": _compactified_terms(model.constraints[i],
                                         nef.part_vertices(i), rays, 1)}
           for i in range(k)]
    for name, i, group in zip(lam, parts, split):
        off = [v for j, v in enumerate(nef.host.vertices) if j not in nef.parts[i]]
        nabla_i = [u for u in points if any(u) and all(dot(v, u) >= 0 for v in off)]
        for q in nabla_i:
            if q not in rays:
                raise LGError(f"lambda monomial point {q} is not a fan ray")
        lam_term = {"coef": name, "sign": 1,
                    "exps": {var_label(s): 1 for s in rays if s in nabla_i}}
        eqs.append({"terms": [lam_term] + _compactified_terms(
            sorted(group), nef.part_vertices(i), rays, -1)})
    return eqs


def check_degree_consistency(eq, rays):
    """All terms of one equation in the coordinates z_sigma, sigma in rays,
    lie in a single divisor class: pairwise exponent differences are
    lattice-pairing vectors <sigma, x>."""
    A = [list(s) for s in rays]
    labels = [var_label(s) for s in rays]
    base = eq["terms"][0]["exps"]
    for t in eq["terms"][1:]:
        diff = [t["exps"].get(v, 0) - base.get(v, 0) for v in labels]
        x = solve(A, diff)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return True


def pi_gamma_monomials(sigma_prime, frame):
    """The monomial components of the fibration map, one {sigma: exponent}
    dict per distinguished ray, in ray order.  Exponent of z_sigma in
    component i is c when sigma projects to c times the i-th distinguished
    quotient ray; rays projecting to zero are absent.  A projection inside
    no ray is a structural error."""
    comps = [dict() for _ in frame.v_quotient]
    for s in sigma_prime.rays:
        q = frame.project(s)
        if not any(q):
            continue
        if primitive(q) not in frame.v_quotient:
            raise LGError(f"ray {s} projects to {q}, outside every "
                          "distinguished ray")
        comps[frame.v_quotient.index(primitive(q))][s] = vec_gcd(q)
    return tuple(comps)
