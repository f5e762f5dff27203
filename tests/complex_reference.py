"""Reference readers of the complex and cubical documents: one path-naming
reader per object, with no per-document cache, so every field is read and
every entry parsed where it stands.  `spectral.complex_from_doc` and
`spectral.cubical_from_doc` must return what these return, or raise the
same first InputError; tests/test_spectral.py compares them.
"""

import re
from fractions import Fraction

from lgmirror.lattice import InputError, read_count, read_field, read_index_set, read_keys
from lgmirror.spectral import DEGREE_SHIFT, CubicalData, StrataComplexData

_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
_DECIMAL = re.compile(r"-?[0-9]+")
_STRATUM_KEYS = {"I", "dims", "hodge"}
_MAP_KEYS = {"kind", "from", "to", "degree", "matrix"}
_PAIRING_KEYS = {"I", "degree", "matrix"}


def _index_set(doc, key, path):
    return read_index_set(read_field(doc, key, list, path=path), f"{path}.{key}")


def _graded(d, path, read_value=read_count):
    if type(d) is not dict:
        raise InputError(path, f"expected an object keyed by ints, got {d!r}")
    out = {}
    for k, v in d.items():
        if not _DECIMAL.fullmatch(k):
            raise InputError(path, f"a key of length {len(k)} is not a decimal int")
        try:
            i = int(k)
        except ValueError as exc:  # more digits than int() reads
            raise InputError(path, f"a key of length {len(k)}: {exc}") from None
        if str(i) != k:
            raise InputError(path, f"a key of length {len(k)} has a leading zero or is -0")
        out[i] = read_value(v, f"{path}.{k}")
    return out


def _matrix(doc, path):
    out = []
    for i, row in enumerate(read_field(doc, "matrix", list, path=path)):
        if type(row) is not list:
            raise InputError(f"{path}.matrix[{i}]", f"expected a list, got {row!r}")
        out.append([])
        for j, x in enumerate(row):
            m = _FRACTION.fullmatch(x) if type(x) is str else None
            if type(x) is not int and m is None:
                raise InputError(f"{path}.matrix[{i}][{j}]",
                                 f"expected an int or a 'p/q' string, got {x!r}")
            try:
                out[-1].append(Fraction(x) if m and m[1] else int(x))
            except ValueError as exc:  # more digits than int() reads
                raise InputError(f"{path}.matrix[{i}][{j}]", str(exc)) from None
    return out


def _check_shape(m, rows, cols, path):
    if rows and cols:
        wrong = len(m) != rows or any(len(row) != cols for row in m)
    else:
        wrong = any(m)
    if wrong:
        raise InputError(f"{path}.matrix",
                         f"expected a {rows}x{cols} matrix by the declared dims")


def _read_stratum(s, where, strata):
    I = _index_set(s, "I", where)
    if not I:
        raise InputError(f"{where}.I", "empty index set")
    if I in strata:
        raise InputError(f"{where}.I", f"repeats stratum {sorted(I)}")
    dims = _graded(read_field(s, "dims", dict, path=where), f"{where}.dims")
    hodge = _graded(s["hodge"], f"{where}.hodge", _graded) if "hodge" in s else None
    read_keys(s, where, _STRATUM_KEYS)
    for k, dist in (hodge or {}).items():
        count, dim = sum(dist.values()), dims.get(k, 0)
        if count != dim:
            raise InputError(f"{where}.hodge.{k}", f"the labels count {count}, but dims gives {dim}")
    return I, dims, hodge


def _read_map(m, where, maps):
    key = (read_field(m, "kind", str, path=where), _index_set(m, "from", where),
           _index_set(m, "to", where), read_field(m, "degree", int, path=where))
    if key[0] not in DEGREE_SHIFT:
        raise InputError(f"{where}.kind", f"unknown map kind {key[0]!r}")
    if key in maps:
        raise InputError(where, "repeats the kind, from, to and degree of an earlier map")
    matrix = _matrix(m, where)
    read_keys(m, where, _MAP_KEYS)
    return key, matrix


def _read_pairing(p, where, pairings):
    key = (_index_set(p, "I", where), read_field(p, "degree", int, path=where))
    if key in pairings:
        raise InputError(where, "repeats the I and degree of an earlier pairing")
    matrix = _matrix(p, where)
    read_keys(p, where, _PAIRING_KEYS)
    return key, matrix


def complex_from_doc(doc):
    strata, hodge = {}, {}
    for i, s in enumerate(read_field(doc, "strata", list)):
        I, dims, h = _read_stratum(s, f"strata[{i}]", strata)
        strata[I] = dims
        if h is not None:
            hodge[I] = h
    maps = {}
    for i, m in enumerate(read_field(doc, "maps", list) if "maps" in doc else []):
        key, matrix = _read_map(m, f"maps[{i}]", maps)
        kind, frm, to, degree = key
        maps[key] = matrix
        _check_shape(matrix, strata.get(to, {}).get(degree + DEGREE_SHIFT[kind], 0),
                     strata.get(frm, {}).get(degree, 0), f"maps[{i}]")
    pairings = {}
    for i, p in enumerate(read_field(doc, "pairings", list)
                          if "pairings" in doc else []):
        key, matrix = _read_pairing(p, f"pairings[{i}]", pairings)
        pairings[key] = matrix
    if not strata:
        raise InputError("strata", "no strata")
    n = read_count(read_field(doc, "n", int), "n")
    for i, ((I, degree), m) in enumerate(pairings.items()):
        dims = strata.get(I, {})
        _check_shape(m, dims.get(degree, 0),
                     dims.get(2 * (n - len(I) + 1) - degree, 0), f"pairings[{i}]")
    side = read_field(doc, "side", str)
    read_keys(doc, "", {"n", "side", "strata", "maps", "pairings"})
    return StrataComplexData(n, side, strata, hodge, maps, pairings)


def cubical_from_doc(doc):
    entries = {}
    for i, e in enumerate(read_field(doc, "entries", list)):
        where = f"entries[{i}]"
        I = _index_set(e, "I", where)
        if I in entries:
            raise InputError(f"{where}.I", f"repeats index set {sorted(I)}")
        entries[I] = read_count(read_field(e, "dim", int, path=where), f"{where}.dim")
        read_keys(e, where, {"I", "dim"})
    maps = {}
    for i, m in enumerate(read_field(doc, "maps", list) if "maps" in doc else []):
        where = f"maps[{i}]"
        key = (_index_set(m, "from", where), _index_set(m, "to", where))
        if key in maps:
            raise InputError(where, "repeats the from and to of an earlier map")
        maps[key] = _matrix(m, where)
        read_keys(m, where, {"from", "to", "matrix"})
        _check_shape(maps[key], entries.get(key[1], 0), entries.get(key[0], 0), where)
    label = read_field(doc, "label", int) if "label" in doc else 0
    read_keys(doc, "", {"label", "entries", "maps"})
    return CubicalData(label, entries, maps)
