"""lgmirror benchmark: time to verdict on generated workloads.

    python3 bench/run.py --workload {hulls,fibrations,pages} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout.  The command

1. generates the workload's inputs and expected results from the seed, in a
   separate process (workloads.py), before any timing starts;
2. times set-up: fresh interpreters that import `lgmirror.cli` and build the
   parser (setup_s, the median of several);
3. imports lgmirror in this parent process and runs the op list in passes
   until the next pass would end after S seconds, and at least twice if
   that ends within 1.5 S.  Each op is one `lgmirror.cli.main(argv)` call
   in a process forked from the parent, so module-level caches never carry
   over between ops, as for a shell user.  One op process runs at a time (a closed loop with one
   client), timed inside the op process around `cli.main` and scaled to a
   reference machine speed (see `calibration_loop`).  An op's time is the
   fastest of its runs;
4. checks every op against its expectation (checks.py) and prints a report
   with every failed op and why, then one JSON line with the metrics.

With --trace 0 the metrics are end to end.  With --trace 1 every op runs
untraced and then traced, back to back; traced runs put spans around
lgmirror's layer functions (tracer.py).  The run reports the per-layer metrics and the tracing
overhead, traced wall_s minus untraced wall_s.

`correct` is false only when the benchmark could not judge the run: an op
gave different results on different passes.  Ops whose result differs from
the expectation count in `failed`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
# Every op runs at least this often, so its fastest run is a minimum over
# samples spread across the run even when a pass takes most of the window,
# unless that would take the run past OVERRUN times the window.
MIN_PASSES = 2
OVERRUN = 1.5
OP_TIMEOUT_S = 90
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lgmirror.cli\n"
    "lgmirror.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB", "ok_share": "fraction"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median time for a fresh interpreter to import lgmirror.cli and build
    its parser, scaled like op times.  One unmeasured run first writes the
    bytecode caches, which a user also pays for only once."""
    times, samples = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(calibration_loop())
        if i:
            times.append(float(out.stdout))
    return statistics.median(times) * CALIBRATION_REF_S / statistics.median(samples)


def generate(workload, seed, work_dir):
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                    workload, str(seed), work_dir], check=True, timeout=120)
    with open(os.path.join(work_dir, "ops.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one op in a forked process
# ---------------------------------------------------------------------------

def _child(cli, op, trace, wfd, cwd):
    """Body of an op process: never returns."""
    try:
        signal.alarm(OP_TIMEOUT_S)
        os.chdir(cwd)
        tracer = None
        if trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer(op["id"])
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        error = None
        code = None
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        result = {"exit": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue()[-2000:], "error": error,
                  "elapsed": elapsed,
                  "trace": tracer.summary() if tracer else None}
        data = json.dumps(result).encode()
        while data:
            data = data[os.write(wfd, data):]
    except BaseException:
        os.write(wfd, json.dumps({"crash": traceback.format_exc()[-600:]}).encode())
    finally:
        os._exit(0)


def run_op(cli, op, cwd, trace=False):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(cli, op, trace, wfd, cwd)
    os.close(wfd)
    chunks = []
    try:
        while True:
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(rfd)
    _, status, usage = os.wait4(pid, 0)
    try:
        result = json.loads(b"".join(chunks))
    except json.JSONDecodeError:
        result = {}
    if "exit" not in result:
        why = result.get("crash") or f"op process ended with status {status}"
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
            why = f"op timed out after {OP_TIMEOUT_S} s"
        result = {"exit": None, "stdout": "", "stderr": "", "error": why,
                  "elapsed": None, "trace": None}
    result["rss_kb"] = usage.ru_maxrss
    return result


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# Other tenants of a shared machine slow every process on it by up to half,
# in phases that last from seconds to minutes, so raw op times of one commit
# moved by 30% between runs.  The parent therefore times a fixed loop of
# Fraction and list work between ops, and each op time is reported at the
# speed where that loop takes CALIBRATION_REF_S: raw time * REF / loop time
# around the op.  The loop is benchmark code, so a change to lgmirror moves
# only the raw time.  The raw sum is printed next to wall_s.
CALIBRATION_REF_S = 0.0004
CALIBRATION_WINDOW = 3      # loop samples on each side of an op


def calibration_loop():
    """Seconds for a fixed piece of interpreter work; fastest of three."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        acc, counts = Fraction(0), {}
        for i in range(1, 150):
            acc += Fraction(i % 7 - 3, i)
            counts[i % 17] = counts.get(i % 17, 0) + i
        rows = [[(i * j) % 5 for j in range(12)] for i in range(12)]
        sum(sum(row) for row in rows)
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def speed_factors(samples):
    """Factor for op i, run between samples i and i + 1: REF over the median
    of the loop samples within CALIBRATION_WINDOW of it."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.median(samples[max(0, i + 1 - w):i + 1 + w])
            for i in range(len(samples) - 1)]


def run_pass(cli, ops, cwd, modes):
    """Run every op once in each of `modes` (trace off/on), back to back, and
    keep a compact record of each run: {mode: [record per op]}.

    Before each fork the parent's objects move to the collector's permanent
    generation, and outputs are checked and dropped at once: an op process
    must not pay for walking or copying the parent's heap, or op times would
    grow with every pass.
    """
    runs, samples = [], [calibration_loop()]
    for i, op in enumerate(ops):
        # every other op swaps the order, so the second run's warm start
        # does not favour one mode
        for trace in modes if i % 2 == 0 else modes[::-1]:
            gc.freeze()
            out = run_op(cli, op, cwd, trace)
            samples.append(calibration_loop())
            runs.append((trace, {
                "raw": out["elapsed"], "rss_kb": out["rss_kb"],
                "reasons": checks.check(op, out),
                "digest": hash((out["exit"], out["stdout"], out["error"])),
                "trace": out["trace"]}))
    for (_, rec), factor in zip(runs, speed_factors(samples)):
        rec["elapsed"] = None if rec["raw"] is None else rec["raw"] * factor
    return {m: [rec for trace, rec in runs if trace == m] for m in modes}


def run_passes(cli, ops, cwd, seconds, modes):
    """Passes until the next would end after `seconds`, and at least
    MIN_PASSES unless the next would end after OVERRUN * `seconds`."""
    passes = {m: [] for m in modes}
    start = time.perf_counter()
    count = 0
    while True:
        for m, records in run_pass(cli, ops, cwd, modes).items():
            passes[m].append(records)
        count += 1
        elapsed = time.perf_counter() - start
        ends = elapsed + elapsed / count
        if ends > seconds and (count >= MIN_PASSES or ends > OVERRUN * seconds):
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def judge(ops, passes):
    """Return (failures {op id: reasons}, failed op runs, op ids whose result
    differed between passes)."""
    failures, failed, unstable = {}, 0, []
    for i, op in enumerate(ops):
        for p in passes:
            if p[i]["reasons"]:
                failed += 1
                failures.setdefault(op["id"], "; ".join(p[i]["reasons"]))
        if len({p[i]["digest"] for p in passes}) > 1:
            unstable.append(op["id"])
    return failures, failed, unstable


def op_times(passes, key="elapsed"):
    """Each op's time: the fastest of its runs.  Other tenants of the machine
    only ever add time, and they come and go within seconds, so the fastest
    of runs spread over the measuring window is the steadiest estimate."""
    return [min(t) for t in zip(*[[o[key] for o in p] for p in passes])
            if None not in t]


def end_to_end(passes, setup_s):
    times = op_times(passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * percentile(times, 90),
        "peak_rss_mb": max(o["rss_kb"] for p in passes for o in p) / 1024,
    }, len(times)


def layer_metrics(traced, untraced_wall, traced_wall):
    """Per-layer values: the median over traced passes of each pass total."""
    import tracer
    per_pass = []
    for p in traced:
        total = {}
        for o in p:
            if o["trace"]:
                tracer.merge(total, o["trace"])
        per_pass.append(tracer.layer_values(total))
    layer = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    layer["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return layer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still removes its inputs and its op process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One process runs at a time, so all of them share one CPU: a fork that
    # lands on an idle CPU of a virtual machine first waits for it to wake,
    # and that made a pass of op times about 10% slower and noisier.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isdir(os.path.join(SRC, "lgmirror")):
        print(f"error: no lgmirror sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    modes = (False, True) if args.trace else (False,)
    try:
        ops = generate(args.workload, args.seed, work_dir)
        setup_s = measure_setup()
        sys.path.insert(0, SRC)
        import lgmirror.cli as cli

        run_op(cli, ops[0], work_dir)  # warm the page cache; not timed
        passes = run_passes(cli, ops, work_dir, args.seconds, modes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = passes[False]
    failures, failed, unstable = judge(ops, untraced)
    attempted = len(ops) * len(untraced)
    metrics, samples = end_to_end(untraced, setup_s)
    metrics["ok_share"] = 1 - failed / attempted

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per "
          f"pass, {len(untraced)} untraced pass(es); each op's time is the "
          f"fastest of its runs, {samples} op samples")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'raw wall':<12} {sum(op_times(untraced, 'raw')):12.4f} s, "
          "unscaled by the calibration loop")
    print(f"  {'failed_share':<12} {failed / attempted:12.4f} fraction "
          f"({failed} of {attempted} op runs)")
    if failures:
        print(f"failed ops ({len(failures)}):")
        for op_id, reason in failures.items():
            print(f"  {op_id}: {reason}")
    if unstable:
        print(f"ops with different results on different passes: {unstable}")

    if args.trace:
        import tracer
        traced = passes[True]
        traced_wall = end_to_end(traced, setup_s)[0]["wall_s"]
        layer = layer_metrics(traced, metrics["wall_s"], traced_wall)
        print(f"{len(traced)} traced pass(es); tracing overhead "
              f"{layer['bench.trace_overhead_s']:.4f} s (traced wall_s "
              f"{traced_wall:.4f} s, untraced {metrics['wall_s']:.4f} s)")
        for k, v in layer.items():
            print(f"  {k:<44} {v:14.6g} {tracer.unit_of(k):<8} "
                  f"{tracer.MOVES.get(k, '')}")
        report = {k: {"value": v, "unit": tracer.unit_of(k)} for k, v in layer.items()}
    else:
        report = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                  for k, v in metrics.items()}
    print(json.dumps({"correct": not unstable, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
