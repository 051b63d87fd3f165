"""Benchmark of the redform CLI: seeded job mixes through ``redform.cli.main``.

    python3 bench/run.py --workload harvest --seed 1 --seconds 30 --trace 0

One process per workload, one closed-loop client, one job at a time: the
next job starts when the previous one returns.  Inputs are generated from
the seed and written as JSON files under ``bench/out``; the program sees
only those files and its argv.  Every execution is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and with span wrappers installed, and prints the per-layer
metrics (per traced job) and the tracing overhead; the spans are written to
``bench/out/spans-<workload>.jsonl.gz`` as gzipped JSON lines, replacing the
previous run's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up is repeated; setup_s is the sum over its phases of each phase's
# median, so work moved into import, generation or warm-up shows in it
# without one slow repetition dominating
SETUP_REPEATS = 7
SETUP_PHASES = ("import", "generate", "write", "warm_up")

# On a shared 2-vCPU virtual machine (Python 3.11) the speed of the same
# code drifted by up to 1.8x within minutes (the same jobs took 1.97 s and
# 3.51 s in two processes), far beyond any useful regression bound.
# A fixed exact-arithmetic task, run before the first job, after the last
# and between jobs at least every CAL_EVERY_S, slows down with the host.
# Each job's time is scaled by CAL_NOMINAL_S / (mean time of the task's
# CAL_WINDOW runs nearest to the job), i.e. expressed in seconds on a host
# where the task takes CAL_NOMINAL_S.  Same-input runs that differed by 24%
# in raw time differed by 1.5% relative to a similar task run between jobs.
CAL_NOMINAL_S = 0.003
CAL_EVERY_S = 0.05
CAL_WINDOW = 4
_CAL_MATRIX = [[Fraction((i + 1) * (j + 3) % 7 - 3, 1 + i * j % 5) for j in range(9)] for i in range(8)]


def calibrate() -> float:
    """Seconds the fixed calibration task takes now.

    Gauss-Jordan over Q on a fixed 8x9 matrix plus printing it, twice:
    the same kind of work (Fractions, lists, strings) the program
    does, in code the program does not share, so it never changes.  The
    garbage collector is off while it runs: a collection of the program's
    heap would be charged to the task and divided out of the job times.
    """
    gc.disable()
    try:
        return _calibration_task()
    finally:
        gc.enable()


def _calibration_task() -> float:
    start = time.perf_counter()
    for _ in range(2):
        work = [row[:] for row in _CAL_MATRIX]
        r = 0
        for col in range(len(work[0])):
            pivot = next((k for k in range(r, len(work)) if work[k][col] != 0), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            pv = work[r][col]
            work[r] = [a / pv for a in work[r]]
            for k in range(len(work)):
                if k != r and work[k][col] != 0:
                    f = work[k][col]
                    work[k] = [a - f * b for a, b in zip(work[k], work[r])]
            r += 1
            if r == len(work):
                break
        json.dumps([[str(a) for a in row] for row in work])
    return time.perf_counter() - start


class SetupError(Exception):
    pass


def import_redform():
    """Import redform afresh from SRC (dropping any earlier import)."""
    if not (SRC / "redform" / "__init__.py").is_file():
        raise SetupError(f"no redform package under {SRC}")
    for name in [n for n in sys.modules if n == "redform" or n.startswith("redform.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    rf = importlib.import_module("redform")
    importlib.import_module("redform.cli")
    if Path(rf.__file__).resolve().parent != (SRC / "redform").resolve():
        raise SetupError(f"imported redform from {rf.__file__}, not from {SRC}")
    return rf


def run_job(rf, argv):
    """(exit code or None if it raised, payload text, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = rf.cli.main(argv)
    except Exception:
        code = None
    return code, buf.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, warm up: everything before the
    first timed job.

    Returns (redform package, jobs, argvs, seconds per SETUP_PHASES name).
    The calibration task runs before each phase and after the last; the
    phase times are scaled to the nominal host speed by the median of those
    calibrations.  The warm-up runs the same jobs for every seed
    (workloads.warm_up_jobs), so its cost does not follow the seed.
    """
    cal, raw = [calibrate()], []

    def phase(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        raw.append(time.perf_counter() - start)
        cal.append(calibrate())
        return out

    def generate():
        return workloads.make_pool(workload, seed), workloads.warm_up_jobs(workload)

    def write():
        shutil.rmtree(workdir, ignore_errors=True)
        return workloads.write_pool(jobs, workdir), workloads.write_pool(warm, workdir / "warm-up")

    def warm_up():
        # first calls that import or compile lazily
        for argv in warm_argvs:
            run_job(rf, argv)

    rf = phase(import_redform)
    jobs, warm = phase(generate)
    argvs, warm_argvs = phase(write)
    phase(warm_up)
    scale = CAL_NOMINAL_S / statistics.median(cal)
    return rf, jobs, argvs, {name: t * scale for name, t in zip(SETUP_PHASES, raw)}


def timed_loop(rf, argvs, seconds: float, checker, log, cal, tr=None, traced_log=None):
    """Run jobs in pool order, cycling, until ``seconds`` have passed.

    Appends (job index, seconds, failure reason or None, calibration mark)
    to ``log``; the mark is the number of calibration times in ``cal`` when
    the job ran.  The payload digest check runs between jobs, outside each
    job's own time.  With a tracer, each job runs twice, untraced and traced,
    in alternating order so that neither side always gets the warmer caches;
    the traced executions go to ``traced_log``.  Returns the wall time from
    the first job's start to the last job's end, less the calibrations.
    """
    cal.append(calibrate())
    start = last_cal = time.perf_counter()
    deadline = start + seconds
    cal_time = 0.0
    i = 0
    while True:
        k = i % len(argvs)
        for traced in ((False, True) if i % 2 == 0 else (True, False)) if tr else (False,):
            if traced:
                tr.current_job = i
                tr.enable()
            try:
                code, text, dt = run_job(rf, argvs[k])
            finally:
                if traced:
                    tr.disable()
            (traced_log if traced else log).append((k, dt, checker.execution(k, code, text), len(cal)))
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            cal.append(calibrate())
            return now - start - cal_time
        if now - last_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            last_cal = time.perf_counter()
            cal_time += last_cal - now


def host_scaled(log, cal):
    """``log`` with each job's seconds scaled to the nominal host speed."""
    out = []
    for k, dt, reason, mark in log:
        # the calibrations just before (mark - 1) and after (mark) the job,
        # widened to CAL_WINDOW samples
        lo = max(0, min(mark - CAL_WINDOW // 2, len(cal) - CAL_WINDOW))
        out.append((k, dt * CAL_NOMINAL_S / statistics.fmean(cal[lo : lo + CAL_WINDOW]), reason))
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(log, raw_log, wall, setup_phases, failed):
    times = [dt for _, dt, _ in log]
    n = len(times)
    p90 = percentile(times, 90)
    # the harness's time between jobs is scaled by the jobs' mean scale
    scale = sum(times) / sum(dt for _, dt, _, _ in raw_log)
    setup_medians = {name: statistics.median(v) for name, v in setup_phases.items()}
    return {
        "jobs_per_s": metric(n / (wall * scale), "jobs/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_p90_s": metric(p90, "s"),
        "setup_s": metric(sum(setup_medians.values()), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "failed_ratio": metric(failed / n, "ratio"),
        "jobs": metric(n, "count"),
        "jobs_beyond_p90": metric(sum(t > p90 for t in times), "count"),
        "host_scale": metric(scale, "ratio"),
        "raw_jobs_per_s": metric(n / wall, "jobs/s"),
        **{f"setup.{name}_s": metric(t, "s") for name, t in setup_medians.items()},
    }


def per_layer(tr, log, traced_log, raw_traced_log):
    """Per-layer metrics per traced job; ``log`` holds the same jobs untraced.
    Span times are scaled by the traced jobs' mean host scale."""
    jobs = len(traced_log)
    traced_wall = sum(dt for _, dt, _ in traced_log)
    per_job = traced_wall / sum(dt for _, dt, _, _ in raw_traced_log) / jobs
    agg = tr.aggregate()
    out = {}
    layer_self = dict.fromkeys(tracer.LAYERS, 0.0)
    for name in tracer.SPAN_NAMES:
        calls, total, self_s = agg[name]
        out[f"{name}.calls"] = metric(calls / jobs, "1/job")
        out[f"{name}.total_s"] = metric(total * per_job, "s/job")
        out[f"{name}.self_s"] = metric(self_s * per_job, "s/job")
        layer_self[name.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        out[f"layer.{layer}.self_s"] = metric(self_s * per_job, "s/job")
    c = tr.counts
    out["jsonio.emit.bytes"] = metric(c["jsonio.emit.bytes"] / jobs, "bytes/job")
    out["ratfun.ratfn_new.calls"] = metric(c["ratfun.ratfn_new.calls"] / jobs, "1/job")
    out["linalg.rref.qq.cells"] = metric(c["linalg.rref.qq.cells"] / jobs, "1/job")
    out["linalg.rref.qq.nnz_ratio"] = metric(c["linalg.rref.qq.nnz"] / max(c["linalg.rref.qq.cells"], 1), "ratio")
    out["linalg.rref.rf.cells"] = metric(c["linalg.rref.rf.cells"] / jobs, "1/job")
    out["series.terms"] = metric(c["series.terms"] / jobs, "1/job")
    ansatz = max(c["solutions.ansatz.count"], 1)
    out["solutions.ansatz.rows"] = metric(c["solutions.ansatz.rows"] / ansatz, "rows")
    out["solutions.ansatz.cols"] = metric(c["solutions.ansatz.cols"] / ansatz, "cols")
    out["solutions.kernel_dim"] = metric(c["solutions.kernel_dim"] / ansatz, "dim")
    out["solutions.complete_ratio"] = metric(c["solutions.complete"] / max(c["solutions.spaces"], 1), "ratio")
    # the traced jobs' wall time is their summed durations: the harness's
    # own work between jobs is not part of any job
    out["trace.wall_s"] = metric(traced_wall / jobs, "s/job")
    out["trace.remainder_s"] = metric(traced_wall / jobs - sum(layer_self.values()) * per_job, "s/job")
    out["trace.overhead_ratio"] = metric(traced_wall / sum(dt for _, dt, _ in log), "ratio")
    return out


def traits(tr, metrics):
    """Workload traits printed by traced runs (not metrics): span count, the
    ansatz size and density range, and each layer's share of the self time."""
    out = {"spans": metric(tr.span_count(), "count")}
    if tr.ansatz_sizes:
        rows, cols, nnz = zip(*tr.ansatz_sizes)
        density = [z / (r * c) for r, c, z in tr.ansatz_sizes]
        out.update({
            "ansatz.rows.min": metric(min(rows), "rows"), "ansatz.rows.max": metric(max(rows), "rows"),
            "ansatz.cols.min": metric(min(cols), "cols"), "ansatz.cols.max": metric(max(cols), "cols"),
            "ansatz.density.min": metric(min(density), "ratio"), "ansatz.density.max": metric(max(density), "ratio"),
        })
    out["payload.max_bytes"] = metric(tr.counts["jsonio.emit.max_bytes"], "bytes")
    total = sum(metrics[f"layer.{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    for layer in tracer.LAYERS:
        out[f"layer.{layer}.share"] = metric(metrics[f"layer.{layer}.self_s"]["value"] / total, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_phases = {name: [] for name in SETUP_PHASES}
        for _ in range(SETUP_REPEATS):
            rf, jobs, argvs, times = setup(args.workload, args.seed, workdir)
            for name, t in times.items():
                setup_phases[name].append(t)

        checker = checks.Checker(jobs, checks.load_reference(args.workload, args.seed), rf)
        raw_log, raw_traced_log, cal = [], [], []
        tr = tracer.Tracer(rf) if args.trace else None
        wall = timed_loop(rf, argvs, args.seconds, checker, raw_log, cal, tr, raw_traced_log)
        log, traced_log = host_scaled(raw_log, cal), host_scaled(raw_traced_log, cal)
        failed = checker.count_failed(log + traced_log)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(log) + len(traced_log)
    if args.trace == 0:
        metrics, extra = end_to_end(log, raw_log, wall, setup_phases, failed)
    else:
        metrics = per_layer(tr, log, traced_log, raw_traced_log)
        tr.write_jsonl(OUT / f"spans-{args.workload}.jsonl.gz")
        extra = traits(tr, metrics)
    for name, m in {**metrics, **extra}.items():
        print(f"{args.workload:10s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
