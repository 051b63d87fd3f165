"""Stable JSON schemas for systems, matrices, vectors, bases and results.

All matrices and vectors are exchanged as row-major nested lists of
rational-function strings; emitted JSON is deterministic (sorted keys, fixed
separators) and every value re-parses to an equal object.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .linalg import Mat, QQ, RF
from .ratfun import RatFn, _quote, check_var, parse_rat, parse_ratfn, rat_str, ratfn_str
from .reduction import LieBasis, ReductionCertificate
from .constructions import parse_construction
from .systems import DiffSystem


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _require(mapping, key, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {key!r}")
    value = mapping[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"field {key!r} has the wrong type")
    return value


def _var(payload, system_var=None) -> str:
    """The field 'var', a name (``ratfun.check_var``).  A file read for a
    system is in the system's variable: it may leave the field out, and
    naming another variable is a ParseError."""
    var = payload.get("var", system_var) if isinstance(payload, dict) else None
    if var is None:
        raise ParseError("missing field 'var'")
    check_var(var)
    if system_var is not None and var != system_var:
        raise ParseError(f"the file is in {_quote(var)}, the system in {_quote(system_var)}")
    return var


def matrix_to_lists(m: Mat, var: str):
    return [[ratfn_str(e, var) for e in row] for row in m.data]


def _rows(rows) -> list:
    """``rows``, checked to be a non-empty list of lists of equal length."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a non-empty list of rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows must have equal lengths")
    return rows


def _declared_size(payload):
    """The optional field 'n', an int (not a bool) of at least 1; None when
    the field is absent."""
    if "n" not in payload:
        return None
    n = payload["n"]
    if type(n) is not int or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    return n


def lists_to_matrix(rows, var: str) -> Mat:
    rows = _rows(rows)
    parsed = [
        [parse_ratfn(e, var) if isinstance(e, str) else RatFn.const(_const_entry(e)) for e in row]
        for row in rows
    ]
    return Mat(RF, parsed)


def _const_entry(value):
    """A constant matrix entry: a string or an int, never a bool or a float."""
    if isinstance(value, str) or type(value) is int:
        return parse_rat(value)
    raise ParseError(f"matrix entries must be strings or integers, got {type(value).__name__}")


def system_to_json(sys: DiffSystem) -> dict:
    return {"var": sys.var, "n": sys.n, "A": matrix_to_lists(sys.mat, sys.var)}


def system_from_json(payload) -> DiffSystem:
    var = _var(payload)
    rows = _require(payload, "A", list)
    mat = lists_to_matrix(rows, var)
    n = _declared_size(payload)
    if n is not None and n != mat.rows:
        raise ParseError("declared size does not match the matrix")
    if not mat.is_square:
        raise ParseError("system matrix must be square")
    return DiffSystem(var, mat)


def matrix_to_json(m: Mat, var: str) -> dict:
    return {"var": var, "M": matrix_to_lists(m, var)}


def matrix_from_json(payload, system_var=None) -> tuple:
    var = _var(payload, system_var)
    key = "M" if "M" in payload else "P" if "P" in payload else None
    if key is None:
        raise ParseError("matrix payload needs an 'M' (or 'P') field")
    return var, lists_to_matrix(payload[key], var)


def vector_from_json(payload, system_var=None):
    var = _var(payload, system_var)
    entries = _require(payload, "v", list)
    return var, tuple(parse_ratfn(e, var) for e in entries)


def constant_matrix_from_lists(rows) -> Mat:
    return Mat(QQ, [[_const_entry(e) for e in row] for row in _rows(rows)])


def lie_basis_from_json(payload) -> LieBasis:
    gens = _require(payload, "generators", list)
    mats = [constant_matrix_from_lists(g) for g in gens]
    n = _declared_size(payload)
    if n is None:
        if not mats:
            raise ParseError("empty basis needs an explicit 'n'")
        n = mats[0].rows
    return LieBasis(n, tuple(mats))


def end_basis_from_json(payload, system_var=None):
    var = _var(payload, system_var)
    elements = _require(payload, "elements", list)
    return var, [lists_to_matrix(e, var) for e in elements]


def _constr_vectors(payload, key: str, system_var):
    var = _var(payload, system_var)
    out = []
    for item in _require(payload, key, list):
        c = parse_construction(_require(item, "constr", str))
        entries = _require(item, "v", list)
        out.append((c, tuple(parse_ratfn(e, var) for e in entries)))
    return var, out


def invariants_from_json(payload, system_var=None):
    return _constr_vectors(payload, "invariants", system_var)


def lines_from_json(payload, system_var=None):
    return _constr_vectors(payload, "lines", system_var)


def solution_space_to_json(space, var: str) -> dict:
    return {
        "size": space.size,
        "dim": space.dim,
        "basis": [[ratfn_str(e, var) for e in v] for v in space.basis],
        "denominator": ratfn_str(RatFn(space.denominator), var),
        "num_degree_cap": space.num_degree_cap,
        "complete": space.complete,
    }


def certificate_to_json(cert: ReductionCertificate) -> dict:
    return {
        "var": cert.var,
        "extension_order": cert.extension_order,
        "P": matrix_to_lists(cert.gauge_matrix, cert.var),
        "B": matrix_to_lists(cert.reduced, cert.var),
        "basis": [[[rat_str(e) for e in row] for row in g.data] for g in cert.basis],
        "coeffs": [ratfn_str(f, cert.var) for f in cert.coeffs],
    }


def certificate_from_json(payload) -> ReductionCertificate:
    var = _var(payload)
    return ReductionCertificate(
        var=var,
        extension_order=_require(payload, "extension_order", int),
        gauge_matrix=lists_to_matrix(_require(payload, "P", list), var),
        reduced=lists_to_matrix(_require(payload, "B", list), var),
        basis=tuple(constant_matrix_from_lists(g) for g in _require(payload, "basis", list)),
        coeffs=tuple(parse_ratfn(f, var) for f in _require(payload, "coeffs", list)),
    )


def series_to_json(series) -> dict:
    return {
        "var": series.var,
        "x0": rat_str(series.x0),
        "order": series.order,
        "n": series.n,
        "coeffs": [[[rat_str(e) for e in row] for row in c.data] for c in series.coeffs],
    }


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON in {path} is nested too deeply") from exc
