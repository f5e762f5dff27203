"""Nef partitions of a reflexive polytope's vertex set, the certifying convex
piecewise-linear functions, and the dual Minkowski pieces."""

from __future__ import annotations

from dataclasses import dataclass

from .fans import Cone, Fan, FanError, PLFunction, face_fan
from .lattice import (
    LatticeError,
    LatticePolytope,
    boundary_lattice_points,
    convex_hull,
    is_reflexive,
    lattice_points,
    minkowski_sum,
    polytope_from_doc,
    polytope_from_inequalities,
)
from .linalg import dot, solve


class NefError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class NefPartition:
    """Vertex partition E_1, ..., E_{k+1} of a reflexive polytope, together
    with the integral convex certificates (1 on own part, 0 elsewhere)."""

    host: LatticePolytope
    parts: tuple            # tuple of tuples of vertex indices
    certificates: tuple     # PLFunction per part on the face fan

    @property
    def n_parts(self):
        return len(self.parts)

    def part_vertices(self, i):
        return tuple(self.host.vertices[j] for j in self.parts[i])

    def delta_piece(self, i):
        """Conv(0 and the part's vertices), the i-th Minkowski summand."""
        origin = tuple(0 for _ in range(self.host.ambient_rank))
        return convex_hull((origin,) + self.part_vertices(i),
                           lattice=self.host.lattice)


def validate_nef(host, parts):
    """Certificate construction and convexity check for a vertex partition.

    Builds each candidate function cone by cone (the prescribed vertex values
    determine the functional on a simplicial cone) and verifies integrality
    and global convexity; the first failing cone or cone/ray pair is raised
    as the witness.
    """
    if not is_reflexive(host):
        raise NefError("nef partitions need a reflexive host polytope")
    nverts = len(host.vertices)
    seen = [j for part in parts for j in part]
    if sorted(seen) != list(range(nverts)):
        raise NefError("parts do not partition the vertex set")
    fan = face_fan(host)
    for c in fan.maximal_cones:
        if len(c.rays) != host.dim:
            raise NefError(f"face fan cone {c.rays} is not simplicial",
                           witness={"cone": [list(r) for r in c.rays]})
    certs = []
    for idx, part in enumerate(parts):
        marked = set(host.vertices[j] for j in part)
        values = {r: (1 if r in marked else 0) for r in fan.rays}
        phi = PLFunction(fan, values)
        try:
            ext = phi.linear_extensions()
        except FanError as exc:
            raise NefError(f"part {idx}: {exc}")
        if not phi.is_integral():
            bad = _non_integral_cone(phi, ext)
            raise NefError(
                f"part {idx}: certificate is not integral on cone {bad}",
                witness={"part": idx, "cone": bad})
        witness = _convexity_witness(phi, ext)
        if witness is not None:
            raise NefError(
                f"part {idx}: certificate not convex at cone {witness[0]} "
                f"against ray {witness[1]}",
                witness={"part": idx, "cone": witness[0], "ray": witness[1]})
        certs.append(phi)
    # The certificates sum to the support function of the anticanonical class;
    # a failure here is a bug in this module, not bad input.
    for r in fan.rays:
        if sum(phi.values[r] for phi in certs) != 1:
            raise RuntimeError(f"certificates do not sum to 1 on ray {r}")
    return NefPartition(host, tuple(tuple(p) for p in parts), tuple(certs))


def _non_integral_cone(phi, ext):
    from .linalg import integer_kernel
    from fractions import Fraction
    for c, m in ext.items():
        ann = integer_kernel([list(r) for r in c.rays])
        sat = integer_kernel(ann) if ann else \
            [[1 if i == j else 0 for j in range(c.ambient_rank)]
             for i in range(c.ambient_rank)]
        for b in sat:
            if Fraction(dot(b, m)).denominator != 1:
                return [list(r) for r in c.rays]
    return None


def _convexity_witness(phi, ext):
    for c, m in ext.items():
        for r in phi.fan.rays:
            if r in c.rays:
                continue
            if dot(r, m) > phi.values[r]:
                return ([list(x) for x in c.rays], list(r))
    return None


def nabla(i, nef):
    """The i-th dual piece {u : <u, v> >= -phi_i(v)} in the dual lattice."""
    phi = nef.certificates[i]
    ineqs = [(v, phi.values[v]) for v in nef.host.vertices]
    other = "N" if nef.host.lattice == "M" else "M"
    try:
        return polytope_from_inequalities(ineqs, ambient_rank=nef.host.ambient_rank,
                                          lattice=other)
    except LatticeError as exc:
        raise NefError(f"nabla piece {i} is not a lattice polytope: {exc}")


def nabla_pieces(nef, verify=True):
    """All dual pieces; checks the Minkowski decomposition of the polar dual."""
    from .lattice import polar_dual
    pieces = [nabla(i, nef) for i in range(nef.n_parts)]
    if verify:
        total = pieces[0]
        for p in pieces[1:]:
            total = minkowski_sum(total, p)
        if total != polar_dual(nef.host):
            raise NefError("Minkowski sum of the dual pieces is not the polar dual")
    return pieces


def nabla_hull(nef):
    """Convex hull of the union of the dual pieces; contained in the polar dual."""
    from .lattice import polar_dual
    pieces = nabla_pieces(nef, verify=False)
    pts = [v for p in pieces for v in p.vertices]
    hull = convex_hull(pts, lattice=pieces[0].lattice)
    dual = polar_dual(nef.host)
    if not all(dual.contains(v) for v in hull.vertices):
        raise NefError("nabla hull escapes the polar dual")
    return hull


def nef_from_doc(doc, resolve_polytope=None):
    poly = doc["polytope"]
    if isinstance(poly, str):
        if resolve_polytope is None:
            raise NefError(f"cannot resolve polytope reference '{poly}'")
        host = resolve_polytope(poly)
    else:
        host = polytope_from_doc(poly)
    return validate_nef(host, [tuple(part) for part in doc["parts"]])
