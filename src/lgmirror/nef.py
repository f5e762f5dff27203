"""Nef partitions of a reflexive polytope's vertex set, decided by one dual
Cayley cone, whose rays at height one are the vertices of the dual
Minkowski pieces (Batyrev-Borisov)."""

from __future__ import annotations

from collections import namedtuple

from .lattice import (InputError, cone_generators, host_from_doc, is_reflexive,
                      read_field, read_int, read_keys, read_list)


class NefError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NefPartition(namedtuple("NefPartition", "host parts nabla")):
    """Vertex partition E_1, ..., E_{k+1} of a reflexive polytope (the hull
    of the Delta_i = conv(0, E_i)) that validate_nef has certified nef.
    nabla[i] is the sorted vertex tuple of the dual piece nabla_i = {u :
    <u, v> >= -1 on E_i, >= 0 on the other vertices}, a lattice polytope
    that holds 0; the pieces sum to the host's polar dual.  parts: a tuple
    of tuples of vertex indices; nabla: per part, a tuple of int tuples."""

    __slots__ = ()

    @property
    def n_parts(self):
        return len(self.parts)

    def part_vertices(self, i):
        return tuple(self.host.vertices[j] for j in self.parts[i])


def validate_nef(host, parts):
    """Check that the host is reflexive and the parts are nonempty and
    partition its vertices, then decide nef-ness by one dual cone
    (Batyrev & Borisov, "Dual cones and mirror symmetry for generalized
    Calabi-Yau manifolds", 1997).

    C, the cone over the Cayley polytope of the Delta_i = conv(0, E_i), is
    spanned by (v, e_i), v in E_i, and (0, e_i) in Z^n x Z^r.  Its dual
    C^v = {(u, t) : <v, u> + t_i >= 0 on E_i, t >= 0} is pointed.  The
    parts are nef (phi_i, 1 on E_i and 0 on the other vertices, is linear
    on each face-fan cone, integral and convex) exactly when every extreme
    ray (u, t) of C^v has a unit vector e_i as its height t; the u at
    height e_i are then the vertices of nabla_i.  If nef: for (u, t) in
    C^v, <x, u> + sum t_i phi_i(x) is linear on each face-fan cone and
    >= 0 on its rays, so u lies in sum t_i nabla_i.  If unit heights: the
    nabla_i are lattice polytopes summing to the polar dual, whose support
    function is linear on each face-fan cone, so each summand's, -phi_i,
    is too.  Otherwise the witness is the lexicographically smallest ray
    of another height; the rays do not depend on the index order inside
    a part.
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
    n, r = host.ambient_rank, len(parts)
    units = [tuple(int(i == k) for k in range(r)) for i in range(r)]
    rows = [host.vertices[j] + units[i] for i, part in enumerate(parts) for j in part]
    rows += [(0,) * n + e for e in units]
    nabla = [[] for _ in parts]
    for ray in sorted(ray for ray, _ in cone_generators(rows, n + r)[0]):
        u, t = ray[:n], ray[n:]
        if t not in units:
            raise NefError(f"not nef: ray {list(u)} of the dual Cayley cone has "
                           f"height {list(t)}, not a unit vector",
                           witness={"ray": list(u), "height": list(t)})
        nabla[t.index(1)].append(u)
    return NefPartition(host, tuple(tuple(p) for p in parts),
                        tuple(tuple(vs) for vs in nabla))


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
