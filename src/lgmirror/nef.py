"""Nef partitions of a reflexive polytope's vertex set, their check by the
certifying convex piecewise-linear functions, and the dual Minkowski pieces,
read off the functionals of that certificate."""

from __future__ import annotations

from collections import namedtuple

from .fans import face_fan
from .lattice import (InputError, convex_hull, host_from_doc, is_reflexive,
                      read_field, read_int, read_keys, read_list)
from .linalg import dot, solve


class NefError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NefPartition(namedtuple("NefPartition", "host parts functionals")):
    """Vertex partition E_1, ..., E_{k+1} of a reflexive polytope that
    validate_nef has certified: the function that is 1 on the vertices of
    each part and 0 on the others is linear on each cone of the face fan,
    integral and convex.  functionals[i] is that function for part i: its
    functional on each maximal cone of face_fan(host), in the fan's order.
    parts: a tuple of tuples of vertex indices; functionals: per part, a
    tuple of int tuples."""

    __slots__ = ()

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
    functionals = []
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
        functionals.append(tuple(tuple(int(x) for x in m) for _, m in pieces))
    return NefPartition(host, tuple(tuple(p) for p in parts), tuple(functionals))


def nabla_pieces(nef):
    """The dual pieces {u : <u, v> >= -phi_i(v)}, in part order.  phi_i is
    the convex max of its functionals m_c, so the i-th piece is the hull of
    the -m_c; the pieces sum to the host's polar dual (Batyrev-Borisov)."""
    return [convex_hull([tuple(-x for x in m) for m in fs])
            for fs in nef.functionals]


def nabla_hull(pieces):
    """Convex hull of the union of the dual pieces.  Each piece holds 0, so
    the hull lies in their Minkowski sum, the polar dual."""
    return convex_hull([v for p in pieces for v in p.vertices])


def nef_from_doc(doc, resolve_polytope):
    """A nef partition document: {"polytope": a polytope document or the
    name of one, "parts": [[vertex index, ...], ...]}, plus the optional
    "split_last_points" that `lg` reads.  The indices point into
    host.vertices, the hull's vertices in lex order, not the order in
    which a polytope document lists them."""
    host = host_from_doc(doc, resolve_polytope)
    nverts = len(host.vertices)

    def read_vertex(j, path):
        if not 0 <= read_int(j, path) < nverts:
            raise InputError(path, f"expected a vertex index below {nverts}, got {j!r}")
        return j

    parts = read_list(read_field(doc, "parts", list), "parts",
                      lambda part, path: read_list(part, path, read_vertex))
    read_keys(doc, "", {"polytope", "parts", "split_last_points"})
    return validate_nef(host, parts)
