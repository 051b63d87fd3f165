"""Batch command-line front end with stable JSON I/O and exit-code triage.

Exit codes: 0 definitive success, 1 definitive negative verdict (carrying a
witness), 2 inconclusive within the configured bounds, 3 input or usage
error, 4 internal error.  The separation keeps scripts from mistaking
bound-limited incompleteness, or a bug, for refutation.  The payload goes
to stdout, or to the ``--out`` file; when that file cannot be written the
exit code is 3 and the ``usage_error`` payload goes to stdout instead.
"""

from __future__ import annotations

import argparse
import sys
from itertools import count

from . import jsonio
from .constructions import _MAX_DIM, constr_dim, constr_group, constr_lie, parse_construction
from .errors import (
    DefectiveEigenstructure,
    InternalError,
    InvalidArity,
    NotReduced,
    NotSemiInvariant,
    NotSplit,
    NotStable,
    ParseError,
    RedformError,
)
from .katz import (
    EndBasis,
    annihilates_invariants,
    check_nabla_stable_span,
    commutant,
    eigenring,
    eigenring_matrices,
    stabilizer_of_invariant,
)
from .ratfun import parse_rat, parse_ratfn, rat_str, ratfn_str
from .reduction import (
    is_reduced,
    reduce_by_diagonalization,
    verify_reduction_matrix,
    wei_norman,
)
from .series import fundamental_series
from .solutions import NUM_DEG_CAP, POLE_CAP, check_semi_invariant, harvest_invariants, rational_solutions
from .systems import DiffSystem, gauge, pullback

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_VERDICT_ERRORS = (NotSemiInvariant, NotSplit, DefectiveEigenstructure, NotStable, NotReduced)


def _load_system(path):
    return jsonio.system_from_json(jsonio.load_json(path))


def _parse_den(text, var):
    r = parse_ratfn(text, var)
    if r.den.degree != 0 or r.num.is_zero:
        raise ParseError("denominator override must be a nonzero polynomial")
    return r.num.monic()


def _constr_list(text):
    items = [part.strip() for part in text.split(";") if part.strip()]
    if not items:
        raise ParseError("empty construction list")
    return [parse_construction(part) for part in items]


def cmd_gauge(args):
    sys_ = _load_system(args.system)
    _, p = jsonio.matrix_from_json(jsonio.load_json(args.P), sys_.var)
    result = gauge(sys_, p)
    return jsonio.system_to_json(result), EXIT_OK


def cmd_pullback(args):
    sys_ = _load_system(args.system)
    result = pullback(sys_, args.pullback, new_var=args.new_var)
    return jsonio.system_to_json(result), EXIT_OK


def cmd_constr(args):
    c = parse_construction(args.constr)
    var, m = jsonio.matrix_from_json(jsonio.load_json(args.matrix))
    out = constr_group(c, m) if args.mode == "group" else constr_lie(c, m)
    return jsonio.matrix_to_json(out, var), EXIT_OK


def cmd_series(args):
    sys_ = _load_system(args.system)
    result = fundamental_series(sys_, parse_rat(args.x0), args.order)
    return jsonio.series_to_json(result), EXIT_OK


def cmd_ratsols(args):
    sys_ = _load_system(args.system)
    c = parse_construction(args.constr)
    target = DiffSystem(sys_.var, constr_lie(c, sys_.mat))
    den = _parse_den(args.den, sys_.var) if args.den else None
    space = rational_solutions(
        target, num_deg_cap=args.num_deg, den_override=den, pole_cap=args.pole_cap
    )
    payload = jsonio.solution_space_to_json(space, sys_.var)
    payload["constr"] = str(c)
    return payload, EXIT_OK if space.complete else EXIT_INCONCLUSIVE


def cmd_semiinv_check(args):
    sys_ = _load_system(args.system)
    c = parse_construction(args.constr)
    _, v = jsonio.vector_from_json(jsonio.load_json(args.vector), sys_.var)
    rate = check_semi_invariant(sys_, c, v)
    if rate is None:
        return {
            "semi_invariant": False,
            "reason": "image is not a rational multiple of the vector",
        }, EXIT_NEGATIVE
    return {"semi_invariant": True, "rate": ratfn_str(rate, sys_.var)}, EXIT_OK


def cmd_harvest(args):
    sys_ = _load_system(args.system)
    constructions = _constr_list(args.constrs)
    entries = harvest_invariants(
        sys_, constructions, num_deg_cap=args.num_deg, pole_cap=args.pole_cap
    )
    payload = {"results": []}
    all_complete = True
    for entry in entries:
        item = {"constr": str(entry.constr)}
        if entry.space is None:
            item["error"] = entry.error
            all_complete = False
        else:
            item.update(jsonio.solution_space_to_json(entry.space, sys_.var))
            all_complete = all_complete and entry.space.complete
        payload["results"].append(item)
    return payload, EXIT_OK if all_complete else EXIT_INCONCLUSIVE


def cmd_eigenring(args):
    sys_ = _load_system(args.system)
    den = _parse_den(args.den, sys_.var) if args.den else None
    space = eigenring(
        sys_, num_deg_cap=args.num_deg, pole_cap=args.pole_cap, den_override=den
    )
    payload = jsonio.solution_space_to_json(space, sys_.var)
    payload["matrices"] = [
        jsonio.matrix_to_lists(m, sys_.var)
        for m in eigenring_matrices(space, sys_.n)
    ]
    return payload, EXIT_OK if space.complete else EXIT_INCONCLUSIVE


def cmd_wei_norman(args):
    sys_ = _load_system(args.system)
    basis = jsonio.lie_basis_from_json(jsonio.load_json(args.basis))
    coeffs = wei_norman(sys_, basis)
    if coeffs is None:
        return {
            "decomposable": False,
            "reason": "matrix is outside the span of the generators",
        }, EXIT_NEGATIVE
    return {
        "decomposable": True,
        "coeffs": [ratfn_str(f, sys_.var) for f in coeffs],
    }, EXIT_OK


def cmd_check_reduced(args):
    sys_ = _load_system(args.system)
    basis = jsonio.lie_basis_from_json(jsonio.load_json(args.basis)) if args.basis else None
    constructions = _constr_list(args.constrs) if args.constrs else []
    lines = []
    if args.lines:
        _, lines = jsonio.lines_from_json(jsonio.load_json(args.lines), sys_.var)
    report = is_reduced(
        sys_,
        basis=basis,
        constructions=constructions,
        lines=lines,
        num_deg_cap=args.num_deg,
        pole_cap=args.pole_cap,
    )
    payload = {
        "wei_norman_ok": report.wei_norman_ok,
        "wei_norman_coeffs": [ratfn_str(f, sys_.var) for f in report.wei_norman_coeffs]
        if report.wei_norman_coeffs is not None
        else None,
        "lines_constant": report.lines_constant,
        "lines": [
            {
                "constr": str(lv.constr),
                "is_stable_line": lv.is_stable_line,
                "rate": ratfn_str(lv.rate, sys_.var) if lv.rate is not None else None,
                "constant_basis": [rat_str(c) for c in lv.constant_basis]
                if lv.constant_basis is not None
                else None,
                "witness": None
                if lv.ok
                else (
                    "line has non-constant ratio"
                    if lv.is_stable_line
                    else "not a stable line"
                ),
            }
            for lv in report.lines
        ],
        "invariants_constant": report.invariants_constant,
        "invariants": [
            {
                "constr": str(iv.constr),
                "v": [ratfn_str(e, sys_.var) for e in iv.vector],
                "constant": iv.constant,
            }
            for iv in report.invariants
        ],
        "harvest_complete": report.harvest_complete,
        "caveats": list(report.caveats),
    }
    if any(lv.is_stable_line is False for lv in report.lines):
        return payload, EXIT_USAGE
    if not report.all_passed:
        return payload, EXIT_NEGATIVE
    if report.invariants_constant is not None and not report.harvest_complete:
        return payload, EXIT_INCONCLUSIVE
    return payload, EXIT_OK


def cmd_verify_reduction(args):
    sys_ = _load_system(args.system)
    _, p = jsonio.matrix_from_json(jsonio.load_json(args.P), sys_.var)
    _, invariants = jsonio.invariants_from_json(jsonio.load_json(args.invariants), sys_.var)
    ok = verify_reduction_matrix(sys_, p, parse_rat(args.x0), invariants)
    return {"transported": ok}, EXIT_OK if ok else EXIT_NEGATIVE


def cmd_reduce(args):
    sys_ = _load_system(args.system)
    _, endo = jsonio.matrix_from_json(jsonio.load_json(args.semiinv), sys_.var)
    cert = reduce_by_diagonalization(sys_, endo, args.pullback)
    return jsonio.certificate_to_json(cert), EXIT_OK


def cmd_katz_check(args):
    sys_ = _load_system(args.system)
    _, elements = jsonio.end_basis_from_json(jsonio.load_json(args.basis), sys_.var)
    report = check_nabla_stable_span(sys_, EndBasis(tuple(elements)))
    payload = {
        "stable": report.stable,
        "elements": [
            {
                "index": e.index,
                "stable": e.stable,
                "coordinates": [ratfn_str(c, sys_.var) for c in e.coordinates]
                if e.coordinates is not None
                else None,
            }
            for e in report.entries
        ],
    }
    exit_code = EXIT_OK if report.stable else EXIT_NEGATIVE
    if args.invariants:
        _, invariants = jsonio.invariants_from_json(jsonio.load_json(args.invariants), sys_.var)
        ann = annihilates_invariants(elements, invariants)
        payload["annihilates_invariants"] = ann.all_annihilated
        payload["annihilation"] = [
            {
                "generator": e.generator_index,
                "invariant": e.invariant_index,
                "annihilated": e.annihilated,
            }
            for e in ann.entries
        ]
        if not ann.all_annihilated:
            exit_code = EXIT_NEGATIVE
    return payload, exit_code


def cmd_commutant(args):
    basis = jsonio.lie_basis_from_json(jsonio.load_json(args.basis))
    mats = commutant(basis)
    return {
        "n": basis.n,
        "dim": len(mats),
        "basis": [[[rat_str(e) for e in row] for row in m.data] for m in mats],
    }, EXIT_OK


def cmd_stabilizer_of_invariant(args):
    c = parse_construction(args.constr)
    var, v = jsonio.vector_from_json(jsonio.load_json(args.vector))
    # constr_dim(c, k) increases strictly with k on the range where it is
    # defined (below it an ext power exceeds its child, above it the size
    # bound is exceeded), so only the first k whose dimension reaches the
    # vector length can fit; past len(v) + 1000 none can
    for n in count(1):
        try:
            if constr_dim(c, n) >= len(v):
                break
        except InvalidArity:
            if n > len(v) + _MAX_DIM:
                raise
    mats = stabilizer_of_invariant(c, v, n)
    return {
        "n": n,
        "dim": len(mats),
        "basis": [jsonio.matrix_to_lists(m, var) for m in mats],
    }, EXIT_OK


# argparse options of each flag (a default applies only where it is optional)
_FLAGS = {
    "system": {},
    "P": {},
    "semiinv": {},
    "matrix": {},
    "vector": {},
    "constr": {"default": "base"},
    "constrs": {},
    "basis": {},
    "invariants": {},
    "lines": {},
    "mode": {"choices": ["group", "lie"], "default": "group"},
    "num-deg": {"type": int, "default": NUM_DEG_CAP},
    "den": {},
    "order": {"type": int, "default": 12},
    "x0": {"default": "1"},
    "pullback": {"type": int, "default": 1},
    "pole-cap": {"type": int, "default": POLE_CAP},
    "new-var": {},
    "out": {},
}

# subcommand: (required flags, optional flags besides --out); handler cmd_<name>, - as _
_COMMANDS = {
    "gauge": ("system P", ""),
    "pullback": ("system", "pullback new-var"),
    "constr": ("constr matrix", "mode"),
    "series": ("system", "x0 order"),
    "ratsols": ("system", "constr num-deg den pole-cap"),
    "semiinv-check": ("system constr vector", ""),
    "harvest": ("system constrs", "num-deg pole-cap"),
    "eigenring": ("system", "num-deg den pole-cap"),
    "wei-norman": ("system basis", ""),
    "check-reduced": ("system", "basis constrs lines num-deg pole-cap"),
    "verify-reduction": ("system P invariants", "x0"),
    "reduce": ("system semiinv", "pullback"),
    "katz-check": ("system basis", "invariants"),
    "commutant": ("basis", ""),
    "stabilizer-of-invariant": ("constr vector", ""),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser with every subcommand; ``main`` parses with
    the one built at import."""
    parser = argparse.ArgumentParser(
        prog="redform",
        description="Exact reduced-form analysis of linear differential systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (required, optional) in _COMMANDS.items():
        # no abbreviations: a prefix such as --n must not stand in for
        # --new-var or --num-deg
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in required.split():
            p.add_argument("--" + flag, required=True, **_FLAGS[flag])
        for flag in optional.split() + ["out"]:
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


_PARSER = build_parser()


def _error(reason, message):
    return {"ok": False, "error": {"reason": reason, "message": message}}


def _internal_error(exc):
    """Payload and exit code for a bug; the traceback goes to stderr."""
    import traceback

    traceback.print_exception(exc, file=sys.stderr)
    return _error(InternalError.reason, str(exc) or type(exc).__name__), EXIT_INTERNAL


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        payload, code = globals()["cmd_" + args.command.replace("-", "_")](args)
    except InternalError as exc:
        payload, code = _internal_error(exc)
    except RedformError as exc:
        code = EXIT_NEGATIVE if isinstance(exc, _VERDICT_ERRORS) else EXIT_USAGE
        payload = _error(exc.reason, str(exc))
    except (OSError, ValueError) as exc:
        payload, code = _error("usage_error", str(exc)), EXIT_USAGE
    except Exception as exc:
        payload, code = _internal_error(exc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dumps(payload))
            return code
        except OSError as exc:
            payload, code = _error("usage_error", str(exc)), EXIT_USAGE
    sys.stdout.write(jsonio.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
