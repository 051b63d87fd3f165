"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` once per seed (1-10), workload (every one in
BENCHMARK.json) and set (two), one run at a time, with ``run_seconds`` from
BENCHMARK.json.  For each end-to-end metric
and workload it prints, per set, the median and the spread (distance between
the first and third quartile from ``statistics.quantiles(values, n=4)``, as a
share of the median), and whether the sets agree within the metric's bound:

* ``spread``: every set's spread is within the bound;
* ``steady``: every spread is below a third of the bound;
* ``drift``: no later set's median is worse than the first set's by more
  than the bound.

The raw results go to ``bench/out/steady.json``.  Exit code 0 when every
metric passes ``spread`` and ``drift``, else 1.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    duration = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = duration
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                r = run_once(w, seed, spec["run_seconds"])
                if not r["correct"]:
                    raise SystemExit(f"{w} seed {seed}: {r['failed']} of {r['attempted']} jobs failed")
                results[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['duration_s']:.1f} s", file=sys.stderr, flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    print(f"{'workload':10s} {'metric':12s} {'bound':>5s}  " + "  ".join(f"{'median':>10s} {'spread':>6s}" for _ in range(SETS)) + "  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            spread_ok = all(sp <= bound for sp in spreads)
            steady = all(sp < bound / 3 for sp in spreads)
            drift_ok = all(worse_by(medians[0], med, m["better"]) <= bound for med in medians[1:])
            ok = ok and spread_ok and drift_ok
            verdict = " ".join(
                label for label, good in (("spread", spread_ok), ("steady", steady), ("drift", drift_ok)) if good
            ) or "-"
            cells = "  ".join(f"{med:10.5g} {sp:6.1%}" for med, sp in zip(medians, spreads))
            print(f"{w:10s} {name:12s} {bound:5.2f}  {cells}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
