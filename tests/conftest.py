import json

import pytest
from hypothesis import settings

from lgmirror.cli import data_dir, resolve_polytope
from lgmirror.lattice import convex_hull

# Property tests draw the same examples on every run and never fail on time,
# so a slow moment of a shared machine cannot flake them.
settings.register_profile("lgmirror", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("lgmirror")


@pytest.fixture
def square():
    return convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], name="square")


@pytest.fixture
def diamond():
    return convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)], name="diamond")


@pytest.fixture
def cube():
    return convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], name="cube")


def corpus_path(name):
    return str(data_dir() / f"{name}.json")


def corpus_doc(name):
    with open(corpus_path(name)) as fh:
        return json.load(fh)


@pytest.fixture
def vsplit(square):
    from lgmirror.partitions import partition_from_doc
    return partition_from_doc(corpus_doc("square-vsplit"), resolve_polytope)


@pytest.fixture
def tsigma_part():
    from lgmirror.partitions import partition_from_doc
    return partition_from_doc(corpus_doc("tsigma-3piece"), resolve_polytope)


@pytest.fixture
def elliptic_deg_complex():
    from lgmirror.spectral import complex_from_doc
    return complex_from_doc(corpus_doc("elliptic-deg-complex"))


@pytest.fixture
def elliptic_hyb_complex():
    from lgmirror.spectral import complex_from_doc
    return complex_from_doc(corpus_doc("elliptic-hyb-complex"))
