"""The names the benchmark's span tracer (``bench/tracer.py``) binds in the
package resolve, and the solver crosses the null-space binding the tracer
reads its ansatz sizes from.

The tracer wraps functions from outside the package by name, so renaming or
inlining one breaks every traced benchmark run; these cases fail first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import redform
from redform import Mat, Poly, RatFn, linalg, rational_solutions, solutions, system
from redform.ratfun import common_denominator
from redform.solutions import _ansatz_rows

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """``bench/tracer.py`` loaded by path, with no bytecode written next to it."""
    spec = importlib.util.spec_from_file_location("redform_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    importlib.import_module("redform.cli")
    return module


def test_every_boundary_target_resolves(tracer):
    for span, targets in tracer.BOUNDARIES.items():
        for mod_name, attr in targets:
            module = importlib.import_module(f"redform.{mod_name}")
            owner, _, name = attr.rpartition(".")
            # a method is looked up in the class dict, as the tracer patches it
            found = getattr(module, owner).__dict__.get(name) if owner else getattr(module, name, None)
            assert found is not None, (span, mod_name, attr)


def test_the_special_bindings_resolve():
    assert solutions.nullspace is linalg.nullspace
    for cls, name in [(Mat, "rref"), (Mat, "__mul__"), (RatFn, "__init__")]:
        assert callable(cls.__dict__.get(name)), name
    assert isinstance(linalg.FractionField, type)


def test_the_tracer_installs_and_restores_the_program(tracer):
    before = (solutions.nullspace, Mat.__dict__["rref"], RatFn.__dict__["__init__"])
    tr = tracer.Tracer(redform)
    tr.enable()
    try:
        assert solutions.nullspace is not before[0]
    finally:
        tr.disable()
    assert (solutions.nullspace, Mat.__dict__["rref"], RatFn.__dict__["__init__"]) == before


def test_one_solve_crosses_the_nullspace_binding_once_with_the_ansatz(tracer, monkeypatch):
    # the nilpotent 2x2 system over the denominator 1 at cap 3: no bound
    # certifies it, so the ansatz is built at the cap
    sys_, cap = system("x", [["0", "1"], ["0", "0"]]), 3
    q, nums = common_denominator([e for row in sys_.mat.data for e in row])
    rows = _ansatz_rows(q, nums, 2, Poly.ONE, cap)
    seen = []
    real = solutions.nullspace
    monkeypatch.setattr(solutions, "nullspace", lambda m: seen.append(m) or real(m))
    space = rational_solutions(sys_, cap, den_override=Poly.ONE)
    (m,) = seen
    assert isinstance(m, Mat) and (m.rows, m.cols) == (len(rows), 2 * (cap + 1))
    assert m.data == rows
    monkeypatch.undo()
    # the tracer's wrapper counts that one null space and its shape
    tr = tracer.Tracer(redform)
    tr.enable()
    try:
        assert rational_solutions(sys_, cap, den_override=Poly.ONE) == space
    finally:
        tr.disable()
    counts = tr.counts
    assert counts["solutions.ansatz.count"] == 1
    assert (counts["solutions.ansatz.rows"], counts["solutions.ansatz.cols"]) == (m.rows, m.cols)
    assert counts["solutions.kernel_dim"] == space.dim == 2
