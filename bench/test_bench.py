"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
from types import SimpleNamespace

import pytest

import checks
import run
import tracer
import workloads


@pytest.fixture(scope="module")
def transform():
    """The default-seed transform pool on disk, and redform imported."""
    workdir = run.OUT / "test-transform"
    rf, jobs, argvs, _ = run.setup("transform", workloads.DEFAULT_SEED, workdir)
    yield rf, jobs, argvs
    shutil.rmtree(workdir, ignore_errors=True)


def flip_byte(text: str, pos: int) -> str:
    ch = text[pos]
    return text[:pos] + ("1" if ch != "1" else "2") + text[pos + 1 :]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    one = [j.input_text() for j in workloads.make_pool(workload, 7)]
    again = [j.input_text() for j in workloads.make_pool(workload, 7)]
    other = [j.input_text() for j in workloads.make_pool(workload, 8)]
    assert one == again
    assert one != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_tables_match_the_generator(workload):
    jobs = workloads.make_pool(workload, workloads.DEFAULT_SEED)
    table = checks.load_reference(workload, workloads.DEFAULT_SEED)
    assert table is not None
    assert {j.id: checks.input_digest(j) for j in jobs} == {k: v["input"] for k, v in table.items()}
    assert checks.load_reference(workload, workloads.DEFAULT_SEED + 1) is None


def test_a_flipped_payload_byte_fails_the_job(transform):
    rf, jobs, argvs = transform
    k = next(i for i, j in enumerate(jobs) if j.kind == "gauge")
    code, text, dt = run.run_job(rf, argvs[k])
    reference = checks.load_reference("transform", workloads.DEFAULT_SEED)
    # a digit inside the first entry of the gauged matrix
    pos = next(i for i in range(text.index('"A"'), len(text)) if text[i].isdigit())
    bad = flip_byte(text, pos)
    assert bad != text and len(bad) == len(text)

    # against the committed reference, on the job's first execution
    checker = checks.Checker(jobs, reference, rf)
    reason = checker.execution(k, code, bad)
    assert reason is not None
    assert checker.count_failed([(k, dt, reason)]) == 1

    # against an earlier execution of the same job, with no reference
    checker = checks.Checker(jobs, None, rf)
    log = [(k, dt, checker.execution(k, code, text)), (k, dt, checker.execution(k, code, bad))]
    assert checker.count_failed(log) == 1

    # and by meaning alone: the semantic re-check rejects the flipped payload
    checker = checks.Checker(jobs, None, rf)
    log = [(k, dt, checker.execution(k, code, bad))]
    assert log[0][2] is None
    assert checker.count_failed(log) == 1


def test_correct_payloads_pass(transform):
    rf, jobs, argvs = transform
    reference = checks.load_reference("transform", workloads.DEFAULT_SEED)
    checker = checks.Checker(jobs, reference, rf)
    log = []
    for k in range(len(workloads.TRANSFORM_STRATA)):
        code, text, dt = run.run_job(rf, argvs[k])
        log.append((k, dt, checker.execution(k, code, text)))
    assert checker.count_failed(log) == 0


def test_series_check_catches_a_wrong_coefficient(transform):
    rf = transform[0]
    job = workloads.make_pool("series", 3)[0]
    workdir = run.OUT / "test-series"
    try:
        (argv,) = workloads.write_pool([job], workdir)
        code, text, _ = run.run_job(rf, argv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = json.loads(text)
    assert checks._check_series(rf, job, code, payload) is None
    payload["coeffs"][3][0][0] = str(checks.Fraction(payload["coeffs"][3][0][0]) + 1)
    assert checks._check_series(rf, job, code, payload) is not None


def test_timed_loop_wall_excludes_each_calibration_once(monkeypatch):
    """With a stubbed clock, jobs of 20 ms and calibrations of 3 ms: the
    wall time is the jobs' time alone, whichever calibration came last."""
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(run, "time", SimpleNamespace(perf_counter=lambda: clock.now))

    def advance(seconds, value=None):
        clock.now += seconds
        return value

    monkeypatch.setattr(run, "calibrate", lambda: advance(0.003, 0.003))
    monkeypatch.setattr(run, "run_job", lambda rf, argv: advance(0.02, (0, "", 0.02)))
    checker = SimpleNamespace(execution=lambda k, code, text: None)
    for seconds in (0.1, 0.5, 1.0):
        log, cal = [], []
        wall = run.timed_loop(None, [["a"], ["b"]], seconds, checker, log, cal)
        assert len(cal) > 2
        assert wall == pytest.approx(len(log) * 0.02, rel=1e-9)


def test_tracer_accounts_for_the_job_and_restores_the_program(transform):
    rf, jobs, argvs = transform
    before = {(id(owner), attr): value for owner, attr, value in _bound(rf)}
    tr = tracer.Tracer(rf)
    k = next(i for i, j in enumerate(jobs) if j.kind == "reduce")
    tr.current_job = 0
    tr.enable()
    try:
        code, text, dt = run.run_job(rf, argvs[k])
    finally:
        tr.disable()
    assert {(id(owner), attr): value for owner, attr, value in _bound(rf)} == before
    agg = tr.aggregate()
    assert agg["cli.main"][0] == 1
    assert agg["systems.gauge"][0] >= 1 and agg["linalg.inv"][0] >= 1
    assert tr.counts["ratfun.ratfn_new.calls"] > 0
    # self times partition the top-level span, which lies inside the job time
    total_self = sum(row[2] for row in agg.values())
    assert total_self == pytest.approx(agg["cli.main"][1], rel=1e-9)
    assert agg["cli.main"][1] <= dt
    # the untraced rerun gives the same payload
    assert run.run_job(rf, argvs[k])[:2] == (code, text)


def _bound(rf):
    """Every (owner, attribute, value) the tracer may patch."""
    mods = [m for name, m in vars(rf).items() if hasattr(m, "__file__")] + [rf]
    out = [(m, a, v) for m in mods for a, v in vars(m).items() if callable(v)]
    for cls in (rf.Mat, rf.Poly, rf.RatFn, rf.TruncSeries, rf.ReductionCertificate):
        out += [(cls, a, v) for a, v in vars(cls).items()]
    return out
