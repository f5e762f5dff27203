"""Nef partitions of a reflexive polytope's vertex set, their check by the
certifying convex piecewise-linear functions, and the dual Minkowski pieces."""

from __future__ import annotations

from dataclasses import dataclass

from .fans import face_fan
from .lattice import (
    LatticeError,
    LatticePolytope,
    convex_hull,
    host_from_doc,
    is_reflexive,
    minkowski_sum,
    polar_dual,
    polytope_from_inequalities,
    read_field,
    read_keys,
    read_list,
)
from .linalg import dot, solve


class NefError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class NefPartition:
    """Vertex partition E_1, ..., E_{k+1} of a reflexive polytope that
    validate_nef has certified: the function that is 1 on the vertices of
    each part and 0 on the others is linear on each cone of the face fan,
    integral and convex."""

    host: LatticePolytope
    parts: tuple            # tuple of tuples of vertex indices

    @property
    def n_parts(self):
        return len(self.parts)

    def part_vertices(self, i):
        return tuple(self.host.vertices[j] for j in self.parts[i])

    def delta_piece(self, i):
        """Conv(0 and the part's vertices), the i-th Minkowski summand."""
        origin = tuple(0 for _ in range(self.host.ambient_rank))
        return convex_hull((origin,) + self.part_vertices(i))


def validate_nef(host, parts):
    """Check that the parts are nonempty and partition the host's vertices,
    and that each part's certificate is linear, integral and convex on
    every cone of the face fan.

    The certificate of a part is 1 on its vertices and 0 on the other rays
    of the face fan, whose rays are the host's vertices.  On each cone the
    functional is solved from the values at all of the cone's rays; when
    they fit no functional, the certificate is not linear on that cone.
    The fan is complete, so each cone spans Z^n and a functional is
    integral exactly when its coefficients are integers.  For each part,
    linearity and integrality are checked on every cone before convexity;
    the first failing cone, or cone and ray, is raised as the witness.
    """
    if not is_reflexive(host):
        raise NefError("nef partitions need a reflexive host polytope")
    for idx, part in enumerate(parts):
        if not part:
            raise NefError(f"part {idx} is empty")
    nverts = len(host.vertices)
    seen = [j for part in parts for j in part]
    if sorted(seen) != list(range(nverts)):
        raise NefError("parts do not partition the vertex set")
    fan = face_fan(host)
    for idx, part in enumerate(parts):
        marked = {host.vertices[j] for j in part}
        pieces = [(c, solve([list(r) for r in c.rays],
                            [int(r in marked) for r in c.rays]))
                  for c in fan.maximal_cones]
        for c, m in pieces:
            if m is None or any(x.denominator != 1 for x in m):
                bad = [list(r) for r in c.rays]
                what = "linear" if m is None else "integral"
                raise NefError(
                    f"part {idx}: certificate is not {what} on cone {bad}",
                    witness={"part": idx, "cone": bad})
        for c, m in pieces:
            for r in fan.rays:
                if r not in c.rays and dot(r, m) > int(r in marked):
                    cone, ray = [list(x) for x in c.rays], list(r)
                    raise NefError(
                        f"part {idx}: certificate not convex at cone {cone} "
                        f"against ray {ray}",
                        witness={"part": idx, "cone": cone, "ray": ray})
    return NefPartition(host, tuple(tuple(p) for p in parts))


def nabla(i, nef):
    """The i-th dual piece {u : <u, v> >= -phi_i(v)} in the dual lattice,
    where phi_i is 1 on the vertices of part i and 0 on the others."""
    ineqs = [(v, int(j in nef.parts[i])) for j, v in enumerate(nef.host.vertices)]
    try:
        return polytope_from_inequalities(ineqs, ambient_rank=nef.host.ambient_rank)
    except LatticeError as exc:
        raise NefError(f"nabla piece {i} is not a lattice polytope: {exc}")


def nabla_pieces(nef):
    """All dual pieces; checks the Minkowski decomposition of the polar dual."""
    pieces = [nabla(i, nef) for i in range(nef.n_parts)]
    total = pieces[0]
    for p in pieces[1:]:
        total = minkowski_sum(total, p)
    if total != polar_dual(nef.host):
        raise NefError("Minkowski sum of the dual pieces is not the polar dual")
    return pieces


def nabla_hull(pieces):
    """Convex hull of the union of the dual pieces.  Each piece holds 0, so
    the hull lies in their Minkowski sum, the polar dual."""
    return convex_hull([v for p in pieces for v in p.vertices])


def nef_from_doc(doc, resolve_polytope):
    host = host_from_doc(doc, resolve_polytope)
    parts = read_list(read_field(doc, "parts", list), "parts", read_list)
    read_keys(doc, "", {"polytope", "parts", "split_last_points"})
    return validate_nef(host, parts)
