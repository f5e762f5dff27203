"""Self-tests of the benchmark:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    workloads.generate(workload, 5, str(tmp_path / "a"))
    workloads.generate(workload, 5, str(tmp_path / "b"))
    workloads.generate(workload, 6, str(tmp_path / "c"))
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert len(a) == len(c) and a != c


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9];  b is named
    # like a, so "a" gathers both self times.
    spans = [["root", 0.0, 10.0, -1, "op"], ["a", 1.0, 4.0, 0, "op"],
             ["leaf", 2.0, 3.0, 1, "op"], ["a", 5.0, 9.0, 0, "op"]]
    s = tracer.summarize(spans, {})
    assert s["calls"] == {"root": 1, "a": 2, "leaf": 1}
    assert s["self_s"] == pytest.approx({"root": 3.0, "a": 6.0, "leaf": 1.0})


def test_wrapped_calls_record_parents():
    t = tracer.Tracer("op-1")
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(name, parent, op) for name, _, _, parent, op in t.spans] == \
        [("outer", -1, "op-1"), ("inner", 0, "op-1"), ("inner", 0, "op-1")]
    s = t.summary()
    assert s["calls"] == {"outer": 1, "inner": 2}
    assert all(v >= 0 for v in s["self_s"].values())


def test_install_patches_rebound_names():
    """fans.convex_hull and spectral.rank are bound by `from .x import y`;
    the CLI holds the page builders in a dict.  All must be wrapped."""
    code = (
        "import tracer, lgmirror.cli, lgmirror.fans as f, lgmirror.spectral as s\n"
        "import lgmirror.lattice as l, lgmirror.partitions as p\n"
        "tracer.Tracer().install()\n"
        "assert f.convex_hull is l.convex_hull and hasattr(f.convex_hull, '__wrapped__')\n"
        "assert hasattr(s.rank, '__wrapped__') and hasattr(s.mat_mul, '__wrapped__')\n"
        "assert hasattr(p.intersect, '__wrapped__')\n"
        "assert hasattr(lgmirror.cli._BUILDERS['delta'], '__wrapped__')\n"
        "assert hasattr(f.Cone.from_rays, '__wrapped__')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(os.path.dirname(HERE), "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


PAGE_OP = {"id": "pages:ss-delta:x", "argv": ["ss", "delta", "x", "--format", "json"],
           "expect": {"kind": "ss-page", "exit": 0, "e2": [[-1, 3, 1]]}}


def _outcome(doc=None, code=0, stderr=""):
    return {"exit": code, "stdout": json.dumps(doc) if doc is not None else "",
            "stderr": stderr, "error": None}


def _page(e2, e1_sum=0):
    return {"e2": [{"p": p, "q": q, "dim": d} for p, q, d in e2],
            "row_euler": [{"q": 3, "e1_sum": e1_sum, "e2_sum": -1, "ok": True}]}


def test_checker_passes_a_right_page():
    assert checks.check(PAGE_OP, _outcome(_page([[-1, 3, 1]]))) == []


def test_checker_flags_a_float():
    reasons = checks.check(PAGE_OP, _outcome(_page([[-1, 3, 1]], e1_sum=0.0)))
    assert len(reasons) == 1 and "float" in reasons[0] and "e1_sum" in reasons[0]


def test_checker_flags_a_wrong_e2_table():
    reasons = checks.check(PAGE_OP, _outcome(_page([[-1, 3, 2]])))
    assert len(reasons) == 1 and reasons[0].startswith("E2")


def test_checker_flags_an_unexpected_exit_3():
    reasons = checks.check(PAGE_OP, _outcome(code=3, stderr="cannot read input: KeyError('x')"))
    assert len(reasons) == 1 and "exit 3" in reasons[0]


def test_checker_flags_an_exception():
    out = dict(_outcome(), error="ZeroDivisionError: division by zero")
    assert checks.check(PAGE_OP, out) == ["raised ZeroDivisionError: division by zero"]
