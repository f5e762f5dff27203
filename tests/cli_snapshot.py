"""Snapshot of the command-line output of an lgmirror source tree.

    python3 tests/cli_snapshot.py SRC OUT.json [--against BASE.json]

imports lgmirror from SRC (the directory that holds the lgmirror package)
and calls lgmirror.cli.main in-process on:

- every op of the three benchmark workloads (bench/workloads.py) at seeds
  1, 3 and 9001, generated into a temporary directory;
- every bundled corpus document through every action that reads one file,
  in both output formats;
- the corpus pairs of TWO_FILE_CALLS through `ss pw` in both modes and
  `euler check`, swapped pairs and a pair of two shapes included, in both
  output formats;
- the partition documents whose pieces do not tile their host
  (tests_data_helpers.NON_TILING) through `partition validate` and
  `partition dual-complex`, in both output formats;
- the central partitions with a projected fan beyond rank 1 or a rank-4
  host (tests_data_helpers.FRAME_PATH) through `partition validate`,
  `frame` and `fans`, and the partitions that are not central
  (tests_data_helpers.NON_CENTRAL) and the ones the lifting path refuses
  (tests_data_helpers.LIFTING_REFUSALS) through `partition validate`,
  `lift`, `frame` and `fans`, in both output formats;
- the polytopes that are not full-dimensional
  (tests_data_helpers.lower_dimensional_documents) through every
  `polytope` action, in both output formats;
- every cut of a reflexive polygon or of a prism over one into two
  lattice halves (tests_data_helpers.lattice_cuts, 472), valid or not,
  through `partition validate` and `partition dual-complex`, and the 92
  valid non-singular ones (tests_data_helpers.cut_partitions) also through
  `lift`, `frame` and `fans`, in both output formats;
- the single edits of the complex documents
  (tests_data_helpers.COMPLEX_EDITS) through `ss pd` and `ss delta`, and
  those of elliptic-deg-complex, the degeneration side, also through
  `ss pw` against elliptic-hyb-complex in both modes, in both output
  formats;
- every split of the vertices of each reflexive polygon, of the
  octahedron and of P^3 into 1, 2 or 3 nonempty parts, as an inline nef
  document (tests_data_helpers.polygon_nef_documents and
  rank3_nef_documents), nef or not, through `lg emit` and
  `lg compactify`, in both output formats;
- the 2- and 3-part polygon nef documents through `lg emit` and
  `lg compactify` with every `--split K:R` that has R >= 1 and one whose
  K + R is not the number of parts, and through `lg compactify` with each
  of those valid splits and a `--lambda` of R names and of R + 1 names, in
  both output formats;
- tests_data_helpers.ASYMMETRIC_GYSIN through `ss monodromy`, and
  tests_data_helpers.HODGE_AT_A_ZERO_DEGREE through `ss pw` against
  elliptic-hyb-complex in both modes, in both output formats;
- the files of tests_data_helpers.UNREADABLE_FILES, which json.load cannot
  read, through `polytope points`, `partition validate`, `lg emit` and
  `ss weight`;
- the help, usage and error shapes and the other spellings of
  test_cli.ARGV_SHAPES, with COLUMNS=80, so that argparse wraps the same
  way on every terminal.  They name corpus files by absolute path, which
  the record writes as <data>.

It writes {call: [exit code, stdout, stderr]} to OUT.json.  With --against
it lists the calls whose record differs from BASE.json, or that only one of
the two has, and exits 1 if there are any.  Two trees print the same bytes
on these inputs exactly when their snapshots agree.  bench/ is read, never
written.  Not a pytest module: tier-1 runs the seed-3 ops already.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 3, 9001)
# The actions that read one input file, by command.
ONE_FILE_ACTIONS = {
    "polytope": ("dual", "reflexive", "points", "faces", "smooth"),
    "partition": ("validate", "dual-complex", "lift", "frame", "fans"),
    "lg": ("emit", "compactify"),
    "ss": ("weight", "monodromy", "gflag", "delta", "pd"),
}
# The calls that read two corpus documents, without --format.
TWO_FILE_CALLS = (
    ("ss", "pw", "elliptic-deg-complex.json", "elliptic-hyb-complex.json"),
    ("ss", "pw", "elliptic-deg-complex.json", "elliptic-hyb-complex.json",
     "--mode", "central_fiber"),
    ("euler", "check", "elliptic-deg.json", "elliptic-hyb.json"),
    ("euler", "check", "elliptic-deg.json", "elliptic-hyb-corrupt.json"),
    # swapped: each file in the slot of the other side
    ("euler", "check", "elliptic-hyb.json", "elliptic-deg.json"),
    ("ss", "pw", "elliptic-hyb-complex.json", "elliptic-deg-complex.json"),
    # two shapes: n = 1 against n = 2
    ("ss", "pw", "elliptic-deg-complex.json", "delta-sign-instance.json"),
)


def run(main, argv):
    """[exit code, stdout, stderr] of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is recorded, not raised
            code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def snapshot(src):
    sys.path[:0] = [str(Path(src).resolve()), str(BENCH)]
    from lgmirror import cli
    import workloads
    from tests_data_helpers import (ASYMMETRIC_GYSIN, COMPLEX_EDITS, FRAME_PATH,
                                    HODGE_AT_A_ZERO_DEGREE, LIFTING_REFUSALS,
                                    NON_CENTRAL, NON_TILING, UNREADABLE_FILES,
                                    cut_partitions, edit_document, lattice_cuts,
                                    lower_dimensional_documents, partition_document,
                                    polygon_nef_documents, rank3_nef_documents)

    calls = {}
    cwd = os.getcwd()
    try:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                with tempfile.TemporaryDirectory() as tmp:
                    ops = workloads.generate(workload, seed, tmp)
                    os.chdir(tmp)  # op argv names inputs relative to it
                    for op in ops:
                        calls[f"{workload}/{seed} {op['id']}"] = run(
                            cli.main, op["argv"])
                    os.chdir(cwd)
        # relative paths, so no message names the tree
        os.chdir(cli.data_dir())
        for name in cli.corpus_names():
            for command, actions in ONE_FILE_ACTIONS.items():
                for action in actions:
                    for fmt in ("text", "json"):
                        argv = [command, action, f"{name}.json", "--format", fmt]
                        calls["corpus " + " ".join(argv)] = run(cli.main, argv)
        for call in TWO_FILE_CALLS:
            for fmt in ("text", "json"):
                argv = [*call, "--format", fmt]
                calls["corpus " + " ".join(argv)] = run(cli.main, argv)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for label, docs, actions in (
                    ("non-tiling", NON_TILING, ("validate", "dual-complex")),
                    ("frame-path", FRAME_PATH, ("validate", "frame", "fans")),
                    ("non-central", NON_CENTRAL, ("validate", "lift", "frame", "fans")),
                    ("lifting-refusal", LIFTING_REFUSALS,
                     ("validate", "lift", "frame", "fans"))):
                for name, doc in docs.items():
                    with open(f"{name}.json", "w") as fh:
                        json.dump(doc, fh)
                    for action in actions:
                        for fmt in ("text", "json"):
                            argv = ["partition", action, f"{name}.json", "--format", fmt]
                            calls[f"{label} " + " ".join(argv)] = run(cli.main, argv)
            for name, doc in lower_dimensional_documents().items():
                with open("polytope.json", "w") as fh:
                    json.dump(doc, fh)
                for action in ONE_FILE_ACTIONS["polytope"]:
                    for fmt in ("text", "json"):
                        argv = ["polytope", action, "polytope.json", "--format", fmt]
                        calls[f"lower-dim {name}: " + " ".join(argv)] = run(cli.main, argv)
            lifted = cut_partitions()
            for name, part in lattice_cuts().items():
                with open("cut.json", "w") as fh:
                    json.dump(partition_document(part), fh)
                for action in ("validate", "dual-complex") + (
                        ("lift", "frame", "fans") if name in lifted else ()):
                    for fmt in ("text", "json"):
                        argv = ["partition", action, "cut.json", "--format", fmt]
                        calls[f"cut {name}: " + " ".join(argv)] = run(cli.main, argv)
            shutil.copy(cli.data_dir() / "elliptic-hyb-complex.json", ".")
            for name, (base, path, action, value) in COMPLEX_EDITS.items():
                with open(cli.data_dir() / f"{base}.json") as fh:
                    doc = edit_document(json.load(fh), path, action, value)
                with open("complex.json", "w") as fh:
                    json.dump(doc, fh)
                for action in ("pd", "delta"):
                    for fmt in ("text", "json"):
                        argv = ["ss", action, "complex.json", "--format", fmt]
                        calls[f"complex-edit {name}: " + " ".join(argv)] = run(cli.main, argv)
                if base == "elliptic-deg-complex":
                    for mode in ("smoothing", "central_fiber"):
                        for fmt in ("text", "json"):
                            argv = ["ss", "pw", "complex.json", "elliptic-hyb-complex.json",
                                    "--mode", mode, "--format", fmt]
                            calls[f"complex-edit {name}: " + " ".join(argv)] = run(cli.main, argv)
            for label, docs in (("polygon-nef", polygon_nef_documents()),
                                ("rank3-nef", rank3_nef_documents())):
                for name, doc in docs.items():
                    with open("nef.json", "w") as fh:
                        json.dump(doc, fh)
                    for action in ("emit", "compactify"):
                        for fmt in ("text", "json"):
                            argv = ["lg", action, "nef.json", "--format", fmt]
                            calls[f"{label} {name}: " + " ".join(argv)] = run(cli.main, argv)
            for name, doc in polygon_nef_documents().items():
                parts = len(doc["parts"])
                if parts == 1:
                    continue
                with open("nef.json", "w") as fh:
                    json.dump(doc, fh)
                splits = [f"{parts - r}:{r}" for r in range(1, parts + 1)]
                options = [(action, ["--split", split])
                           for split in splits + [f"1:{parts}"]
                           for action in ("emit", "compactify")]
                options += [("compactify", ["--split", split, "--lambda", ",".join(
                                 f"t{i}" for i in range(names))])
                            for r, split in enumerate(splits, 1) for names in (r, r + 1)]
                for action, opts in options:
                    for fmt in ("text", "json"):
                        argv = ["lg", action, "nef.json", *opts, "--format", fmt]
                        calls[f"polygon-nef {name}: " + " ".join(argv)] = run(cli.main, argv)
            with open("gysin.json", "w") as fh:
                json.dump(ASYMMETRIC_GYSIN, fh)
            for fmt in ("text", "json"):
                argv = ["ss", "monodromy", "gysin.json", "--format", fmt]
                calls["asymmetric-gysin " + " ".join(argv)] = run(cli.main, argv)
            with open("zero-degree.json", "w") as fh:
                json.dump(HODGE_AT_A_ZERO_DEGREE, fh)
            for mode in ("smoothing", "central_fiber"):
                for fmt in ("text", "json"):
                    argv = ["ss", "pw", "zero-degree.json", "elliptic-hyb-complex.json",
                            "--mode", mode, "--format", fmt]
                    calls["hodge-at-a-zero-degree " + " ".join(argv)] = run(cli.main, argv)
            for name, content in UNREADABLE_FILES.items():
                with open(name, "wb") as fh:
                    fh.write(content)
                for argv in (["polytope", "points", name], ["partition", "validate", name],
                             ["lg", "emit", name], ["ss", "weight", name]):
                    calls["unreadable " + " ".join(argv)] = run(cli.main, argv)
            os.chdir(cwd)
        from test_cli import ARGV_SHAPES
        data = str(cli.data_dir())
        with mock.patch.dict(os.environ, COLUMNS="80"):
            for argv in ARGV_SHAPES:
                record = [part.replace(data, "<data>") if isinstance(part, str)
                          else part for part in run(cli.main, argv)]
                calls["shape " + " ".join(argv).replace(data, "<data>")] = record
    finally:
        os.chdir(cwd)
    return calls


def differences(calls, base):
    return sorted(k for k in calls.keys() | base.keys()
                  if calls.get(k) != base.get(k))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="directory that holds the lgmirror package")
    ap.add_argument("out", help="where to write the snapshot (JSON)")
    ap.add_argument("--against", help="snapshot to compare with")
    args = ap.parse_args(argv)
    calls = snapshot(args.src)
    with open(args.out, "w") as fh:
        json.dump(calls, fh, indent=1, sort_keys=True)
    print(f"{len(calls)} calls written to {args.out}")
    if args.against:
        with open(args.against) as fh:
            diff = differences(calls, json.load(fh))
        for key in diff:
            print(f"differs: {key}")
        print(f"{len(diff)} of the calls differ from {args.against}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
