"""Symbolic Givental-style hybrid Landau-Ginzburg models: Laurent constraint
and potential polynomials, their compactifications in homogeneous coordinates,
and the monomial map of the induced toric fibration.

Coefficients stay symbolic throughout ("a_(p,q)" tagged by the lattice point,
"lambda_j" for the fiber parameters); every check is structural.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import (
    boundary_lattice_points,
    lattice_points,
)
from .linalg import dot, primitive, solve, vec_gcd
from .nef import nabla_hull


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


class HybridLGModel(namedtuple("HybridLGModel", "constraints potentials delta_pieces")):
    """Torus constraints and potentials built from a nef partition, each
    Laurent polynomial given by its lex-sorted support: the support per
    constraint part, the support per potential part, and Conv(0 u E_i) per
    part, constraint parts first."""

    __slots__ = ()


def givental_hybrid(nef, k, r):
    """Constraints from the first k parts, potentials from the last r >= 1,
    where k + r is the number of parts."""
    pieces = [nef.delta_piece(i) for i in range(nef.n_parts)]
    supports = [tuple(sorted(lattice_points(p))) for p in pieces]
    return HybridLGModel(tuple(supports[:k]), tuple(supports[k:]), tuple(pieces))


def _fan_rays(nabla_pieces):
    """The rays of the refined fan over the hull of the dual pieces: its
    boundary lattice points."""
    return tuple(sorted(boundary_lattice_points(nabla_hull(nabla_pieces))))


def _sigma_min(sigma, piece):
    return min(dot(sigma, v) for v in piece.vertices)


def _compactified_terms(points, piece, rays, sign):
    """One term per point rho of piece, with exponent <sigma, rho> -
    sigma_min >= 0 of z_sigma; the zero exponents are left out."""
    terms = []
    mins = {s: _sigma_min(s, piece) for s in rays}
    for rho in points:
        exps = {}
        for s in rays:
            e = dot(s, rho) - mins[s]
            if e:
                exps[var_label(s)] = e
        terms.append({"coef": coef_label(rho), "sign": sign, "exps": exps})
    return terms


def _lambda_term(name, nabla_piece, rays):
    support = [q for q in lattice_points(nabla_piece) if any(q)]
    for q in support:
        if q not in rays:
            raise LGError(f"lambda monomial point {q} is not a fan ray")
    return {"coef": name, "sign": 1,
            "exps": {var_label(s): 1 for s in rays if s in support}}


def compactify_fiber(model, nabla_pieces, lam=None, split=None):
    """Homogeneous equations of a compactified fiber, given the dual pieces
    of the nef partition in part order, which nef.nabla_pieces reads off
    the functionals validate_nef solved.  The coordinates z_sigma run over
    the boundary lattice points sigma of their hull.

    Constraint i: sum over Delta_i of a_rho z^(<sigma,rho> - sigma_min_i).
    Potential j: lambda_j times the product of the nonzero dual-piece
    coordinates minus the analogous sum over the nonzero points of the
    potential polytope.  With a split (groups that partition the nonzero
    points of a model's one potential part, possibly not nef), each group
    is a potential of its own against the sigma-minimum of the whole part;
    no mirror status is asserted.  lam holds one symbol per potential.
    Each equation is the document that equation_text prints.
    """
    k = len(model.constraints)
    parts = [k] * len(split) if split else range(k, len(model.delta_pieces))
    split = split or [[rho for rho in pts if any(rho)] for pts in model.potentials]
    lam = lam or [f"lambda_{j+1}" for j in range(len(split))]
    rays = _fan_rays(nabla_pieces)
    eqs = [{"terms": _compactified_terms(model.constraints[i],
                                         model.delta_pieces[i], rays, 1)}
           for i in range(k)]
    for name, i, group in zip(lam, parts, split):
        eqs.append({"terms": [_lambda_term(name, nabla_pieces[i], rays)]
                    + _compactified_terms(sorted(group), model.delta_pieces[i],
                                          rays, -1)})
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
