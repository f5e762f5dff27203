"""The benchmark workloads as tier-1 tests: every generated op of seed 3,
run in-process, meets the closed-form expectation that bench/checks.py
holds it to."""

import checks
import pytest
import workloads

from lgmirror.cli import main


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_ops_meet_their_expectations(capsys, monkeypatch, tmp_path,
                                              workload):
    ops = workloads.generate(workload, 3, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # op argv names inputs relative to it
    failures = {}
    for op in ops:
        code, error = None, None
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        out = capsys.readouterr()
        reasons = checks.check(op, {"exit": code, "stdout": out.out,
                                    "stderr": out.err, "error": error})
        if reasons:
            failures[op["id"]] = reasons
    assert ops and failures == {}
