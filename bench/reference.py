"""Write the reference tables that ``checks.py`` compares payloads against.

    python3 bench/reference.py [workload ...]

Runs every job of each workload's pool for the default seed once and writes
``bench/reference/<workload>.json``: per job id, the sha256 of its inputs,
its exit code and the sha256 of its payload.  The committed tables were made
at the commit that introduced the benchmark; regenerate them only when the
generator changes, never to make a changed payload pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def make_table(workload: str) -> dict:
    seed = workloads.DEFAULT_SEED
    workdir = run.OUT / f"reference-{workload}"
    try:
        rf, jobs, argvs, _ = run.setup(workload, seed, workdir)
        checker = checks.Checker(jobs, None, rf)
        table = {}
        for k, (job, argv) in enumerate(zip(jobs, argvs)):
            code, text, _ = run.run_job(rf, argv)
            reason = checker.execution(k, code, text) or checker.semantic(k)
            if reason is not None:
                raise SystemExit(f"{job.id}: {reason}")
            table[job.id] = {"input": checks.input_digest(job), "exit": code, "sha256": checks.digest(text)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "jobs": table}


def main(argv) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        table = make_table(workload)
        path = checks.reference_path(workload)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(table['jobs'])} jobs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
