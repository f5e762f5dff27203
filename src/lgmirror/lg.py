"""Symbolic Givental-style hybrid Landau-Ginzburg models: Laurent constraint
and potential polynomials, their compactifications in homogeneous coordinates,
and the monomial map of the induced toric fibration.

Coefficients stay symbolic throughout ("a_(p,q)" tagged by the lattice point,
"lambda_j" for the fiber parameters); every check is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    LatticeError,
    boundary_lattice_points,
    convex_hull,
    lattice_points,
)
from .linalg import dot, primitive, solve
from .nef import NefError, NefPartition, nabla_hull, nabla_pieces


class LGError(ValueError):
    pass


def coef_label(rho):
    return "a_(" + ",".join(str(c) for c in rho) + ")"


def var_label(sigma):
    return "z_(" + ",".join(str(c) for c in sigma) + ")"


@dataclass(frozen=True)
class SymbolicLaurent:
    """Sum of symbolically-weighted torus monomials, one per lattice point."""

    monomials: tuple  # tuple of (coef label, exponent tuple = lattice point)

    @staticmethod
    def from_points(points):
        return SymbolicLaurent(tuple((coef_label(rho), tuple(rho))
                                     for rho in sorted(points)))

    def newton_polytope(self):
        return convex_hull([exps for _, exps in self.monomials])

    def to_text(self, variables=None):
        names = variables or [f"x{i+1}" for i in
                              range(len(self.monomials[0][1]))]
        parts = []
        for coef, exps in self.monomials:
            factors = [coef]
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


@dataclass(frozen=True)
class HomogeneousTerm:
    coef: str
    sign: int
    exps: tuple  # tuple of (sigma, exponent >= 0), sigma a lattice point
    rho: tuple | None  # provenance lattice point, None for the lambda term

    def exponent_of(self, sigma):
        for s, e in self.exps:
            if s == sigma:
                return e
        return 0

    def monomial_text(self):
        factors = []
        for s, e in self.exps:
            if e == 1:
                factors.append(var_label(s))
            elif e != 0:
                factors.append(var_label(s) + f"^{e}")
        return "*".join(factors) if factors else "1"

    def to_text(self):
        mono = self.monomial_text()
        return f"{self.coef}*{mono}" if mono != "1" else self.coef


@dataclass(frozen=True)
class HomogeneousEquation:
    """Equation Sum(sign * coef * monomial) = 0 in the homogeneous coordinates
    indexed by the rays sigma."""

    terms: tuple
    rays: tuple

    def to_text(self):
        out = []
        for t in self.terms:
            piece = t.to_text()
            out.append(piece if not out and t.sign > 0
                       else (" + " if t.sign > 0 else " - ") + piece)
        return "".join(out) + " = 0"

    def to_doc(self):
        return {"terms": [{
            "coef": t.coef,
            "sign": t.sign,
            "exps": {var_label(s): e for s, e in t.exps if e != 0},
        } for t in self.terms]}


@dataclass
class HybridLGModel:
    """k torus constraints and r potentials built from a nef partition."""

    nef: NefPartition
    k: int
    r: int
    constraints: tuple  # SymbolicLaurent per constraint part
    potentials: tuple   # SymbolicLaurent per potential part
    delta_pieces: tuple  # Conv(0 u E_i) per part, constraint parts first


def givental_hybrid(nef, k, r):
    """Constraints from the first k parts, potentials from the last r."""
    if k + r != nef.n_parts:
        raise LGError(f"split {k}:{r} does not match {nef.n_parts} parts")
    if r < 1:
        raise LGError("at least one potential part is required")
    pieces = [nef.delta_piece(i) for i in range(nef.n_parts)]
    laurents = [SymbolicLaurent.from_points(lattice_points(p)) for p in pieces]
    return HybridLGModel(nef, k, r, tuple(laurents[:k]), tuple(laurents[k:]),
                         tuple(pieces))


@dataclass
class NablaData:
    """Dual-side data for compactification: the dual pieces and the rays of
    the refined fan over their hull (its boundary lattice points)."""

    pieces: tuple
    hull: object
    rays: tuple

    @staticmethod
    def from_nef(nef):
        pieces = nabla_pieces(nef)
        hull = nabla_hull(nef)
        rays = tuple(sorted(boundary_lattice_points(hull)))
        return NablaData(tuple(pieces), hull, rays)


def _sigma_min(sigma, piece):
    return min(dot(sigma, v) for v in piece.vertices)


def _compactified_terms(laurent, piece, rays, skip_origin=False):
    terms = []
    mins = {s: _sigma_min(s, piece) for s in rays}
    for coef, rho in laurent.monomials:
        if skip_origin and not any(rho):
            continue
        exps = []
        for s in rays:
            e = dot(s, rho) - mins[s]
            if e < 0:
                raise LGError(f"negative exponent for sigma={s}, rho={rho}; "
                              "inconsistent dual-side data")
            exps.append((s, e))
        terms.append(HomogeneousTerm(coef, 1, tuple(exps), tuple(rho)))
    return terms


def _lambda_term(name, nabla_piece, rays):
    support = [q for q in lattice_points(nabla_piece) if any(q)]
    exps = []
    for s in rays:
        exps.append((s, 1 if s in support else 0))
    for q in support:
        if q not in rays:
            raise LGError(f"lambda monomial point {q} is not a fan ray")
    return HomogeneousTerm(name, 1, tuple(exps), None)


def compactify_fiber(model, nabla_data, lam=None):
    """Homogeneous equations of a compactified fiber.

    Constraint i: sum over Delta_i of a_rho z^(<sigma,rho> - sigma_min_i).
    Potential j: lambda_j times the product of the nonzero dual-piece
    coordinates minus the analogous sum over the nonzero points of the
    potential polytope.
    """
    lam = lam or [f"lambda_{j+1}" for j in range(model.r)]
    if len(lam) != model.r:
        raise LGError("one lambda symbol per potential is required")
    rays = nabla_data.rays
    eqs = []
    for i in range(model.k):
        terms = _compactified_terms(model.constraints[i], model.delta_pieces[i],
                                    rays)
        eqs.append(HomogeneousEquation(tuple(terms), rays))
    for j in range(model.r):
        piece = model.delta_pieces[model.k + j]
        head = _lambda_term(lam[j], nabla_data.pieces[model.k + j], rays)
        tail = [HomogeneousTerm(t.coef, -1, t.exps, t.rho)
                for t in _compactified_terms(model.potentials[j], piece, rays,
                                             skip_origin=True)]
        eqs.append(HomogeneousEquation((head,) + tuple(tail), rays))
    return eqs


def non_nef_split_fiber(model, split, nabla_data, lam=None):
    """Equations for a (possibly non-nef) split F_1, ..., F_r of the last part.

    All r equations share the sigma-minimum of the undivided last part; the
    toolkit emits them without asserting any mirror status.
    """
    if model.r != 1:
        raise LGError("splitting applies to a model with a single potential")
    last = model.delta_pieces[-1]
    part_points = [pt for _, pt in model.potentials[0].monomials if any(pt)]
    flat = [q for group in split for q in group]
    if sorted(flat) != sorted(part_points):
        raise LGError("split does not partition the nonzero potential points")
    lam = lam or [f"lambda_{j+1}" for j in range(len(split))]
    if len(lam) != len(split):
        raise LGError("one lambda symbol per split group is required")
    rays = nabla_data.rays
    mins = {s: _sigma_min(s, last) for s in rays}
    eqs = []
    for j, group in enumerate(split):
        head = _lambda_term(lam[j], nabla_data.pieces[model.k], rays)
        tail = []
        for rho in sorted(group):
            exps = []
            for s in rays:
                e = dot(s, rho) - mins[s]
                if e < 0:
                    raise LGError(f"negative exponent for sigma={s}, rho={rho}")
                exps.append((s, e))
            tail.append(HomogeneousTerm(coef_label(rho), -1, tuple(exps),
                                        tuple(rho)))
        eqs.append(HomogeneousEquation((head,) + tuple(tail), rays))
    return eqs


def check_exponent_identity(eq, piece):
    """Recompute every stored exponent of z_sigma from its (sigma, rho) tags
    against the sigma-minimum of the generating polytope piece."""
    mins = {s: _sigma_min(s, piece) for s in eq.rays}
    for t in eq.terms:
        if t.rho is None:
            continue
        for s, e in t.exps:
            if e != dot(s, t.rho) - mins[s]:
                return False
    return True


def check_degree_consistency(eq):
    """All terms of one equation lie in a single divisor class: pairwise
    exponent differences are lattice-pairing vectors <sigma, x>."""
    rays = eq.rays
    base = eq.terms[0]
    A = [list(s) for s in rays]
    for t in eq.terms[1:]:
        diff = [t.exponent_of(s) - base.exponent_of(s) for s in rays]
        x = solve(A, diff)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return True


@dataclass
class PiGammaMap:
    """Monomial components of the fibration map, one per distinguished ray."""

    components: tuple  # tuple of dicts sigma -> positive exponent
    v_vectors: tuple

    def monomials_text(self):
        out = []
        for comp in self.components:
            out.append("".join(var_label(s) + (f"^{e}" if e > 1 else "")
                               for s, e in sorted(comp.items())))
        return out

    def to_doc(self):
        return {"components": [
            {var_label(s): e for s, e in sorted(comp.items())}
            for comp in self.components]}


def pi_gamma_monomials(sigma_prime, frame):
    """Exponent of z_sigma in component i is c when sigma projects to c times
    the i-th distinguished quotient ray; rays projecting to zero are absent.
    A projection inside no ray is a structural error."""
    if frame.l == 0:
        return PiGammaMap((), ())
    comps = [dict() for _ in frame.v_quotient]
    for s in sigma_prime.rays:
        q = frame.project(s)
        if not any(q):
            continue
        qp = primitive(q)
        hit = None
        for i, vq in enumerate(frame.v_quotient):
            if qp == vq:
                hit = i
                break
        if hit is None:
            raise LGError(f"ray {s} projects to {q}, outside every "
                          "distinguished ray")
        c = _ray_multiple(q, frame.v_quotient[hit])
        comps[hit][s] = c
    return PiGammaMap(tuple(comps), frame.v_vectors)


def _ray_multiple(q, vq):
    for a, b in zip(q, vq):
        if b != 0:
            c, rem = divmod(a, b)
            if rem != 0 or c < 1:
                raise LGError(f"projection {q} is not a positive integer "
                              f"multiple of {vq}")
            return c
    raise LGError("zero distinguished ray")


def equations_to_doc(eqs):
    return {"equations": [eq.to_doc() for eq in eqs]}
