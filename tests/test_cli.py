"""End-to-end CLI: exit-code triage, determinism, JSON round trips."""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

import redform
from redform import cli, solutions
from redform.cli import main
from redform.reduction import ReductionCertificate
from redform.errors import ParseError
from redform.jsonio import certificate_from_json, matrix_to_lists, system_from_json
from redform.linalg import Mat, RF
from redform.ratfun import RatFn, parse_ratfn
from redform.systems import pullback

from helpers import time_limit

DEMO = {"var": "x", "n": 2, "A": [["0", "1"], ["x", "1/(2*x)"]]}
SWAP = {"var": "x", "M": [["0", "1/x"], ["1", "0"]]}
DIAG_BASIS = {"n": 2, "generators": [[["1", "0"], ["0", "-1"]]]}
ZERO_2X2 = {"var": "x", "n": 2, "A": [["0", "0"], ["0", "0"]]}
DEEP_CONSTR = "dual(" * 3000 + "base" + ")" * 3000
# the README system twice, as one 4x4 block-diagonal system
DEMO_TWICE = {
    "var": "x",
    "A": [["0", "1", "0", "0"], ["x", "1/(2*x)", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "x", "1/(2*x)"]],
}
# reduce --pullback 1 inputs (system, endomorphism) for each verdict error
REDUCE_VERDICTS = {
    "not_semi_invariant": (DEMO, {"var": "x", "M": [["1", "0"], ["0", "0"]]}),
    "defective_eigenstructure": (
        DEMO_TWICE,
        {"var": "x", "M": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "2"]]},
    ),
    "not_split": (DEMO, SWAP),
}


@pytest.fixture
def work(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return tmp_path, write


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestGaugePath:
    def test_reduce_demo_end_to_end(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        swap_path = write("n.json", SWAP)
        code, payload = run(
            ["reduce", "--system", sys_path, "--semiinv", swap_path, "--pullback", "2"],
            capsys,
        )
        assert code == 0
        assert payload["B"] == [["2*t^2", "0"], ["0", "-2*t^2"]]
        assert payload["coeffs"] == ["t^2"]

    def test_gauge_to_diagonal(self, work, capsys):
        tmp, write = work
        pulled = {"var": "t", "n": 2, "A": [["0", "2*t"], ["2*t^3", "1/t"]]}
        sys_path = write("b.json", pulled)
        p_path = write("p.json", {"var": "t", "M": [["1", "-1"], ["t", "t"]]})
        code, payload = run(["gauge", "--system", sys_path, "--P", p_path], capsys)
        assert code == 0
        assert payload["A"] == [["2*t^2", "0"], ["0", "-2*t^2"]]

    def test_pullback(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(["pullback", "--system", sys_path, "--pullback", "2"], capsys)
        assert code == 0
        assert payload == {"var": "t", "n": 2, "A": [["0", "2*t"], ["2*t^3", "(1)/(t)"]]}


class TestVerdicts:
    def test_check_reduced_negative_with_witness(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        lines_path = write(
            "lines.json",
            {
                "var": "x",
                "lines": [
                    {"constr": "tensor(base,dual(base))", "v": ["0", "1/x", "1", "0"]}
                ],
            },
        )
        code, payload = run(
            ["check-reduced", "--system", sys_path, "--lines", lines_path], capsys
        )
        assert code == 1
        assert payload["lines"][0]["witness"] == "line has non-constant ratio"

    def test_check_reduced_line_payload(self, work, capsys):
        # a stable line is the d = 1 module of the constant-basis test: its
        # basis is scaled so the first nonzero entry reads the leading
        # coefficient of that entry's numerator; a line of non-constant
        # ratio carries its rate and witness
        tmp, write = work
        line = {"constr": "base", "v": ["(2*x+1)/(x^2+1)", "(4*x+2)/(3*x^2+3)"]}
        lines_path = write("l.json", {"var": "x", "lines": [line]})
        code, payload = run(["check-reduced", "--system", write("z.json", ZERO_2X2), "--lines", lines_path], capsys)
        assert code == 0 and payload["lines"][0]["constant_basis"] == ["2", "4/3"]
        line = {"constr": "tensor(base,dual(base))", "v": ["0", "3/x", "3", "0"]}
        lines_path = write("s.json", {"var": "x", "lines": [line]})
        code, payload = run(["check-reduced", "--system", write("a.json", DEMO), "--lines", lines_path], capsys)
        assert code == 1
        assert (payload["lines"][0]["rate"], payload["lines"][0]["witness"]) == (
            "(-1)/(2*x)",
            "line has non-constant ratio",
        )

    def test_semiinv_check_positive(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        vec_path = write("v.json", {"var": "x", "v": ["0", "1/x", "1", "0"]})
        code, payload = run(
            [
                "semiinv-check",
                "--system",
                sys_path,
                "--constr",
                "tensor(base,dual(base))",
                "--vector",
                vec_path,
            ],
            capsys,
        )
        assert code == 0 and payload["rate"] == "(-1)/(2*x)"

    def test_semiinv_check_negative(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        vec_path = write("v.json", {"var": "x", "v": ["1", "0", "0", "0"]})
        code, payload = run(
            [
                "semiinv-check",
                "--system",
                sys_path,
                "--constr",
                "tensor(base,dual(base))",
                "--vector",
                vec_path,
            ],
            capsys,
        )
        assert code == 1 and payload["semi_invariant"] is False

    def test_semiinv_check_on_the_top_power(self, work, capsys):
        # sym(999,base) is past the solve budget, but the check never solves:
        # it builds one 1000 x 1000 constr_lie, each column's runs placed once
        tmp, write = work
        sys_path = write("a.json", DEMO)
        vec_path = write("v.json", {"var": "x", "v": ["1"] + ["0"] * 999})
        with time_limit(5):
            code, payload = run(
                ["semiinv-check", "--system", sys_path, "--constr", "sym(999,base)", "--vector", vec_path],
                capsys,
            )
        assert code == 1 and payload["semi_invariant"] is False

    def test_ratsols_inconclusive_within_bounds(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(
            ["ratsols", "--system", sys_path, "--num-deg", "4"], capsys
        )
        assert code == 2
        assert payload["basis"] == [] and payload["complete"] is False

    def test_ratsols_complete(self, work, capsys):
        tmp, write = work
        sys_path = write("z.json", {"var": "x", "n": 1, "A": [["-1/x"]]})
        code, payload = run(["ratsols", "--system", sys_path, "--num-deg", "2"], capsys)
        assert code == 0 and payload["complete"] is True
        assert payload["basis"] == [["(1)/(x)"]]

    @pytest.mark.parametrize(
        "entry",
        [
            # 2000000000000001/2 is past where a divisor scan of the charpoly's
            # trailing coefficient stops; 99999999999973 is a prime below it
            "(2000000000000001)/(2*x)",
            "99999999999973/(2*x)",
            # a root 2/3^50 next to a rootless factor of degree 20, and a
            # rootless place of degree 40 with the leading coefficient 3^50
            "7/((3^50*x-2)*(x^20+1))",
            "1/(3^50*x^40+1)",
        ],
    )
    def test_ratsols_complete_for_large_non_integer_residue(self, work, capsys, entry):
        tmp, write = work
        sys_path = write("z.json", {"var": "x", "n": 1, "A": [[entry]]})
        with time_limit(20):
            code, payload = run(["ratsols", "--system", sys_path], capsys)
        assert code == 0 and payload["complete"] is True
        assert payload["dim"] == 0 and payload["denominator"] == "1"

    @pytest.mark.parametrize(
        "rows, basis, den",
        [
            # x^2 + 1 is a simple place of degree 2, its residue read off the
            # one cleared form of the system: eigenvalue 1 on both roots, and
            # the residue 1 at x
            ([["2*x/(x^2+1)", "0"], ["0", "1/x"]], [["x^2 + 1", "0"], ["0", "x"]], "x^3 + x"),
            # x^2 - 1 splits at its rational roots -1 and 1, where the residues
            # are 2x2 integer matrices; x^2 + 1 takes the quotient-ring residue
            (
                [["-2*x/(x^2-1)", "0"], ["0", "2*x/(x^2+1)"]],
                [["(1)/(x^2 - 1)", "0"], ["0", "-x^2 - 1"]],
                "x^4 - 1",
            ),
        ],
        ids=["quadratic", "split"],
    )
    def test_ratsols_at_places_of_degree_two(self, work, capsys, rows, basis, den):
        tmp, write = work
        sys_path = write("q.json", {"var": "x", "n": 2, "A": rows})
        code, payload = run(["ratsols", "--system", sys_path], capsys)
        assert code == 0
        assert (payload["basis"], payload["denominator"], payload["complete"]) == (basis, den, True)

    def test_eigenring_lists_the_echelon_basis(self, work, capsys):
        # every constant matrix, in the reduced echelon order E11, E12, E21,
        # E22: a kernel vector or the list of them left unreversed after the
        # reversed-column elimination fails
        tmp, write = work
        code, payload = run(["eigenring", "--system", write("z.json", ZERO_2X2), "--num-deg", "0"], capsys)
        assert code == 0
        assert payload["matrices"] == [
            [["1", "0"], ["0", "0"]],
            [["0", "1"], ["0", "0"]],
            [["0", "0"], ["1", "0"]],
            [["0", "0"], ["0", "1"]],
        ]

    def test_ratsols_with_denominator_override(self, work, capsys):
        tmp, write = work
        sys_path = write("z.json", {"var": "x", "n": 1, "A": [["-1/x"]]})
        code, payload = run(
            ["ratsols", "--system", sys_path, "--num-deg", "3", "--den", "x^2"], capsys
        )
        # the override finds the solution but forfeits the completeness claim
        assert code == 2
        assert payload["basis"] == [["(1)/(x)"]] and payload["complete"] is False

    def test_harvest_entry_error_is_inconclusive(self, work, capsys):
        # ext(3) of a 2-dimensional space does not exist; the harvest reports
        # the entry's error and stays inconclusive instead of failing whole
        tmp, write = work
        sys_path = write("z.json", ZERO_2X2)
        code, payload = run(["harvest", "--system", sys_path, "--constrs", "base;ext(3,base)"], capsys)
        assert code == 2
        assert payload["results"][0]["constr"] == "base" and payload["results"][0]["complete"] is True
        assert payload["results"][1] == {
            "constr": "ext(3,base)",
            "error": "InvalidArity: ext(3) exceeds child dimension 2",
        }

    def test_harvest_entry_past_the_solve_bound(self, work, capsys):
        # sym(255,base) is refused from its sizes before constr_lie, as an
        # entry error of the harvest and of check-reduced --constrs
        tmp, write = work
        sys_path = write("a.json", DEMO)
        with time_limit(2):
            code, payload = run(["harvest", "--system", sys_path, "--constrs", "base;sym(255,base)"], capsys)
        assert code == 2 and payload["results"][1] == {
            "constr": "sym(255,base)",
            "error": "InvalidArity: solving sym(255,base) on a 2-dimensional system takes 50,135,556 work units,"
            " over the budget of 50,000,000",
        }
        with time_limit(2):
            code, payload = run(["check-reduced", "--system", sys_path, "--constrs", "sym(255,base)"], capsys)
        assert code == 2 and payload["harvest_complete"] is False

    def test_check_reduced_with_incomplete_harvest_is_inconclusive(self, work, capsys):
        # 1/x^2 has an irregular singularity at 0: no certified pole bound
        tmp, write = work
        sys_path = write("p.json", {"var": "x", "n": 1, "A": [["1/x^2"]]})
        code, payload = run(["check-reduced", "--system", sys_path, "--constrs", "base"], capsys)
        assert code == 2
        assert payload["harvest_complete"] is False
        assert "invariant harvest incomplete within bounds" in payload["caveats"]

    def test_katz_check_invariant_not_annihilated(self, work, capsys):
        # the identity is a stable endomorphism, but it acts on the base
        # invariant (1, 0) as the identity, not as zero
        tmp, write = work
        sys_path = write("a.json", DEMO)
        basis_path = write("i.json", {"var": "x", "elements": [[["1", "0"], ["0", "1"]]]})
        invs_path = write("invs.json", {"var": "x", "invariants": [{"constr": "base", "v": ["1", "0"]}]})
        code, payload = run(
            ["katz-check", "--system", sys_path, "--basis", basis_path, "--invariants", invs_path], capsys
        )
        assert code == 1
        assert payload["stable"] is True and payload["annihilates_invariants"] is False
        assert payload["annihilation"] == [{"annihilated": False, "generator": 0, "invariant": 0}]

    def test_check_reduced_invalid_line_is_usage_error(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        lines_path = write(
            "lines.json",
            {"var": "x", "lines": [{"constr": "base", "v": ["1", "0"]}]},
        )
        code, payload = run(
            ["check-reduced", "--system", sys_path, "--lines", lines_path], capsys
        )
        assert code == 3
        assert payload["lines"][0]["witness"] == "not a stable line"

    def test_reduce_companion_with_rational_eigenvalues(self, work, capsys):
        # the constant companion matrix of (T-1)(T-2)(T-3) commutes with
        # itself, so it spans a stable line of the system it defines
        companion = [["0", "0", "6"], ["1", "0", "-11"], ["0", "1", "6"]]
        sys_json = {"var": "x", "n": 3, "A": companion}
        sys_path = work[1]("s.json", sys_json)
        endo_path = work[1]("e.json", {"var": "x", "M": companion})
        code, payload = run(
            ["reduce", "--system", sys_path, "--semiinv", endo_path, "--pullback", "1"],
            capsys,
        )
        assert code == 0
        assert payload["B"] == [["3", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]
        assert certificate_from_json(payload).verify(system_from_json(sys_json))

    @pytest.mark.parametrize(
        "companion, witness",
        [
            # eigenvalues +-sqrt(2): the constant charpoly is the witness
            ([["0", "2"], ["1", "0"]], "T^2 - 2"),
            # cube roots of unity: tr(F^2) = 0 while F^3 = Id
            ([["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]], "tr(F^2) = 0"),
        ],
        ids=["T^2-2", "T^3-1"],
    )
    def test_reduce_companion_with_irrational_eigenvalues_not_split(
        self, work, capsys, companion, witness
    ):
        sys_path = work[1]("s.json", {"var": "x", "A": companion})
        endo_path = work[1]("e.json", {"var": "x", "M": companion})
        code, payload = run(
            ["reduce", "--system", sys_path, "--semiinv", endo_path, "--pullback", "1"],
            capsys,
        )
        assert code == 1 and payload["error"]["reason"] == "not_split"
        assert witness in payload["error"]["message"]

    @pytest.mark.parametrize("reason", sorted(REDUCE_VERDICTS))
    def test_reduce_reaches_each_verdict_error(self, work, capsys, reason):
        # the cases together reach every error that exits 1, and no other
        assert set(REDUCE_VERDICTS) == {e.reason for e in cli._VERDICT_ERRORS}
        tmp, write = work
        sys_json, endo = REDUCE_VERDICTS[reason]
        argv = ["reduce", "--system", write("s.json", sys_json), "--semiinv", write("e.json", endo)]
        code, payload = run(argv + ["--pullback", "1"], capsys)
        assert code == 1 and payload["error"]["reason"] == reason

    def test_reduce_block_system(self, work, capsys):
        # the README system plus a zero block, with the weighted swap on the
        # first two coordinates: eigenvalues 0 and +-t^-1 over x = t^2 only
        tmp, write = work
        sys_json = {"var": "x", "A": [["0", "1", "0"], ["x", "1/(2*x)", "0"], ["0", "0", "0"]]}
        sys_path = write("s.json", sys_json)
        endo_path = write(
            "e.json", {"var": "x", "M": [["0", "1/x", "0"], ["1", "0", "0"], ["0", "0", "0"]]}
        )
        argv = ["reduce", "--system", sys_path, "--semiinv", endo_path, "--pullback"]
        code, payload = run(argv + ["1"], capsys)
        assert code == 1 and payload["error"]["reason"] == "not_split"
        code, payload = run(argv + ["2"], capsys)
        assert code == 0
        assert payload["B"] == [["0", "0", "0"], ["0", "2*t^2", "0"], ["0", "0", "-2*t^2"]]
        assert certificate_from_json(payload).verify(system_from_json(sys_json))


class TestUsageErrors:
    def test_malformed_expression(self, work, capsys):
        tmp, write = work
        sys_path = write("bad.json", {"var": "x", "n": 1, "A": [["x +* 1"]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "entry",
        ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
        ids=["parentheses", "signs"],
    )
    def test_deep_nesting_is_parse_error(self, work, capsys, entry):
        tmp, write = work
        sys_path = write("deep.json", {"var": "x", "n": 1, "A": [[entry]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "entry",
        ["x^100000000", "((x^30)^30)^30", "(3^1000)^1000"],
        ids=["exponent", "degree-tower", "coefficient-tower"],
    )
    def test_oversized_power_is_parse_error(self, work, capsys, entry):
        tmp, write = work
        sys_path = write("power.json", {"var": "x", "n": 1, "A": [[entry]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_missing_file(self, work, capsys):
        tmp, write = work
        code, payload = run(
            ["gauge", "--system", str(tmp / "nope.json"), "--P", str(tmp / "nope.json")],
            capsys,
        )
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_overlong_integer_literal_is_parse_error(self, work, capsys):
        # 5,000 digits passes the interpreter's int conversion limit
        tmp, write = work
        sys_path = write("long.json", {"var": "x", "n": 1, "A": [["7" * 5000]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_huge_decimal_exponent_is_parse_error(self, work, capsys):
        # Fraction("1e100000") is a 100,001-digit number
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(["series", "--system", sys_path, "--x0", "1e100000"], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_huge_constant_generator_entry_is_parse_error(self, work, capsys):
        tmp, write = work
        sys_path = write("b.json", {"var": "t", "n": 2, "A": [["2*t^2", "0"], ["0", "-2*t^2"]]})
        basis = {"n": 2, "generators": [[["1e100000", "0"], ["0", "-1"]]]}
        code, payload = run(
            ["wei-norman", "--system", sys_path, "--basis", write("basis.json", basis)], capsys
        )
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_deeply_nested_json_is_parse_error(self, work, capsys):
        tmp, write = work
        path = tmp / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, payload = run(["series", "--system", str(path)], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "basis",
        [
            {"n": 2, "generators": [["12", "34"]]},
            {"n": 2, "generators": [[5, 6]]},
            {"n": "2", "generators": []},
            {"n": 2.5, "generators": []},
            {"n": -1, "generators": []},
            {"n": 0, "generators": []},
            {"n": True, "generators": [[["1"]]]},
        ],
        ids=["string-rows", "int-rows", "string-n", "float-n", "negative-n", "zero-n", "bool-n"],
    )
    def test_malformed_basis_is_parse_error(self, work, capsys, basis):
        tmp, write = work
        code, payload = run(["commutant", "--basis", write("basis.json", basis)], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("n", [True, 1.0, None, "1"], ids=["bool-n", "float-n", "null-n", "string-n"])
    def test_malformed_system_size_is_parse_error(self, work, capsys, n):
        tmp, write = work
        sys_path = write("s.json", {"var": "x", "n": n, "A": [["1/x"]]})
        code, payload = run(["series", "--system", sys_path, "--x0", "1", "--order", "2"], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("system", {"var": "x", "A": [["0", "1"], ["0"]]}),
            ("matrix", {"var": "x", "P": [["1", "0"], ["0"]]}),
            ("basis", {"n": 2, "generators": [[["1", "0"], ["0"]]]}),
        ],
        ids=["system", "matrix", "basis"],
    )
    def test_ragged_matrix_is_parse_error(self, work, capsys, kind, payload):
        tmp, write = work
        path = write("ragged.json", payload)
        argv = {
            "system": ["series", "--system", path],
            "matrix": ["gauge", "--system", write("a.json", DEMO), "--P", path],
            "basis": ["commutant", "--basis", path],
        }[kind]
        code, out = run(argv, capsys)
        assert code == 3 and out["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("constr", ["sym(40,sym(3,base))", "sym(3000000,base)"], ids=["dimension", "power"])
    def test_oversized_construction_is_invalid_arity(self, work, capsys, constr):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        with time_limit(1):
            code, payload = run(["ratsols", "--system", sys_path, "--constr", constr], capsys)
        assert code == 3 and payload["error"]["reason"] == "invalid_arity"

    @pytest.mark.parametrize(
        "constr, reason, seconds",
        [
            ("sym(254,base)", "usage_error", 20),
            ("sym(255,base)", "invalid_arity", 2),
            ("sym(999,base)", "invalid_arity", 2),
        ],
        ids=["at-the-bound", "past-the-bound", "top-power"],
    )
    def test_construction_solve_bound(self, work, capsys, constr, reason, seconds):
        # solve_work on a 2x2 system: 49,549,564 units at sym(254,base), which
        # builds its matrix and denominator bound and then refuses the ansatz
        # at cap 127; 50,135,556 at sym(255,base) and about 3*10^9 at
        # sym(999,base), which the size bound admits, refused before
        # constr_lie
        tmp, write = work
        sys_path = write("a.json", DEMO)
        with time_limit(seconds):
            code, payload = run(["ratsols", "--system", sys_path, "--constr", constr], capsys)
        assert code == 3 and payload["error"]["reason"] == reason

    def test_eigenring_past_the_solve_bound(self, work, capsys):
        # the End system of diag(1/x) at n = 20 takes 64,161,200 solve units:
        # eigenring refuses it as ratsols does, before building its matrix
        tmp, write = work
        n = 20
        diag = [["1/x" if i == j else "0" for j in range(n)] for i in range(n)]
        sys_path = write("d.json", {"var": "x", "n": n, "A": diag})
        with time_limit(5):
            code, payload = run(["eigenring", "--system", sys_path], capsys)
            ratsols = run(["ratsols", "--system", sys_path, "--constr", "tensor(base,dual(base))"], capsys)
        assert code == 3 and payload["error"]["reason"] == "invalid_arity"
        assert (code, payload) == ratsols

    def test_overlong_power_literal_is_parse_error(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        constr = "sym(" + "9" * 5000 + ",base)"
        code, payload = run(["ratsols", "--system", sys_path, "--constr", constr], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("entry", [True, False, 1.5], ids=["true", "false", "float"])
    def test_non_string_system_entry_is_parse_error(self, work, capsys, entry):
        tmp, write = work
        sys_path = write("s.json", {"var": "x", "A": [[entry]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_non_string_entry_message_names_only_its_type(self, work, capsys):
        # quoting the value whole made a 300,131-byte payload from this entry
        tmp, write = work
        sys_path = write("s.json", {"var": "x", "A": [[[1] * 100_000]]})
        code = main(["series", "--system", sys_path])
        out = capsys.readouterr().out
        assert code == 3 and len(out.encode()) < 1000
        error = json.loads(out)["error"]
        assert error["reason"] == "parse_error" and error["message"].endswith("got list")

    def test_bool_generator_entries_are_parse_error(self, work, capsys):
        tmp, write = work
        basis = {"generators": [[[True, False], [False, True]]]}
        code, payload = run(["commutant", "--basis", write("basis.json", basis)], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_float_generator_entry_is_parse_error(self, work, capsys):
        # str() of this float would be read as 1543209862654321/12500000000000000
        tmp, write = work
        sys_path = write("b.json", {"var": "t", "n": 2, "A": [["2*t^2", "0"], ["0", "-2*t^2"]]})
        basis = {"n": 2, "generators": [[[0.12345678901234567890, "0"], ["0", "-1"]]]}
        code, payload = run(
            ["wei-norman", "--system", sys_path, "--basis", write("basis.json", basis)], capsys
        )
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("order", [True, 2.0, "2"], ids=["bool", "float", "string"])
    def test_malformed_extension_order_is_parse_error(self, order):
        cert = {"var": "t", "extension_order": order, "P": [["1"]], "B": [["0"]], "basis": [], "coeffs": []}
        assert certificate_from_json(dict(cert, extension_order=2)).extension_order == 2
        with pytest.raises(ParseError):
            certificate_from_json(cert)

    def test_long_x0_prints_and_reparses(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        x0 = "12" * 2258  # 4,516 digits
        code, payload = run(["series", "--system", sys_path, "--x0", x0, "--order", "2"], capsys)
        assert code == 0 and payload["x0"] == x0
        code, again = run(
            ["series", "--system", sys_path, "--x0", payload["x0"], "--order", "2"], capsys
        )
        assert code == 0 and again == payload

    def test_negative_pole_cap_is_usage_error(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(["ratsols", "--system", sys_path, "--pole-cap", "-1"], capsys)
        assert code == 3
        assert payload["error"] == {"reason": "usage_error", "message": "pole cap must be >= 0"}

    def test_oversized_ansatz_is_usage_error(self, work, capsys):
        # 8,012 x 8,004 cells at cap 2,000 and 400,012 x 400,004 at cap
        # 100,000, over the budget: refused before a row is built
        tmp, write = work
        sys_path = write("a.json", DEMO)
        for cap in ("2000", "100000"):
            with time_limit(1):
                code, payload = run(["eigenring", "--system", sys_path, "--num-deg", cap], capsys)
            assert code == 3 and payload["error"]["reason"] == "usage_error"
            assert f"cap {cap}" in payload["error"]["message"] and "--num-deg" in payload["error"]["message"]

    def test_large_certified_denominator_answers_at_the_certified_degree(self, work, capsys):
        # the complete solution is x^-3000: at the cap, deg den = 3000, the
        # ansatz would have 6,000 x 3,001 cells; at the certified degree 0 it
        # has 3,001 x 1
        tmp, write = work
        sys_path = write("a.json", {"var": "x", "n": 1, "A": [["-3000/x"]]})
        with time_limit(2):
            code, payload = run(["ratsols", "--system", sys_path], capsys)
        assert code == 0
        assert payload == {
            "basis": [["(1)/(x^3000)"]],
            "complete": True,
            "constr": "base",
            "denominator": "x^3000",
            "dim": 1,
            "num_degree_cap": 3000,
            "size": 1,
        }

    def test_complete_system_at_a_huge_cap_answers(self, work, capsys):
        # complete, so the ansatz is built at the certified degree 3, not at
        # --num-deg; the payload keeps the cap
        tmp, write = work
        sys_path = write("q.json", {"var": "x", "n": 2, "A": [["2*x/(x^2+1)", "0"], ["0", "1/x"]]})
        with time_limit(20):
            code, payload = run(["ratsols", "--system", sys_path, "--num-deg", "100000"], capsys)
        assert code == 0 and payload["complete"] is True
        assert payload["basis"] == [["x^2 + 1", "0"], ["0", "x"]]
        assert payload["denominator"] == "x^3 + x" and payload["num_degree_cap"] == 100000

    def test_oversized_pullback_and_order_are_usage_errors(self, work, capsys):
        # refused from the sizes alone: x = t^(10^9) would give entries of
        # degree 2*10^9 - 1, order 10^9 a 2x2 series of 4*10^18 cells, and
        # the endomorphism x^1000 over x = t^500 entries of degree 500,000
        tmp, write = work
        sys_path, swap_path = write("a.json", DEMO), write("swap.json", SWAP)
        inv_path, power_path = (
            write("inv.json", {"var": "x", "n": 1, "A": [["1/x"]]}),
            write("power.json", {"var": "x", "M": [["x^1000"]]}),
        )
        huge = "1000000000"
        for argv, word in (
            (["pullback", "--system", sys_path, "--pullback", huge], "degree"),
            (["reduce", "--system", sys_path, "--semiinv", swap_path, "--pullback", huge], "degree"),
            (["reduce", "--system", inv_path, "--semiinv", power_path, "--pullback", "500"], "degree"),
            (["series", "--system", sys_path, "--x0", "1", "--order", huge], "budget"),
        ):
            with time_limit(1):
                code, payload = run(argv, capsys)
            assert code == 3 and payload["error"]["reason"] == "usage_error"
            assert word in payload["error"]["message"]

    def test_largest_accepted_pullback(self, work, capsys):
        # the demo system has d = 1: m = 500 reaches degree 999 and answers,
        # for the pullback and for the reducer over x = t^500, where B is
        # m*t^(3m/2 - 1)*diag(1, -1)
        tmp, write = work
        sys_path, swap_path = write("a.json", DEMO), write("swap.json", SWAP)
        code, payload = run(["pullback", "--system", sys_path, "--pullback", "500"], capsys)
        assert code == 0 and payload["A"][1][0] == "500*t^999"
        argv = ["reduce", "--system", sys_path, "--semiinv", swap_path, "--pullback", "500"]
        code, payload = run(argv, capsys)
        assert code == 0 and payload["B"] == [["500*t^749", "0"], ["0", "-500*t^749"]]

    def test_pole_is_usage_error(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(["series", "--system", sys_path, "--x0", "0"], capsys)
        assert code == 3 and payload["error"]["reason"] == "pole_at_point"

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 3


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, work, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_pullback", boom)
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code = main(["pullback", "--system", sys_path, "--pullback", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["error"] == {"reason": "internal_error", "message": "unexpected"}
        assert "RuntimeError: unexpected" in captured.err

    def test_failed_self_check_exits_4(self, work, capsys, monkeypatch):
        monkeypatch.setattr(ReductionCertificate, "verify", lambda self, sys_: False)
        tmp, write = work
        sys_path = write("a.json", DEMO)
        swap_path = write("n.json", SWAP)
        code, payload = run(
            ["reduce", "--system", sys_path, "--semiinv", swap_path, "--pullback", "2"],
            capsys,
        )
        assert code == 4 and payload["error"]["reason"] == "internal_error"

    def test_failed_residue_self_check_exits_4(self, work, capsys, monkeypatch):
        # a place that is not coprime to its cofactor is a bug in the
        # singularity refinement, not bad input: here the report calls every
        # double pole simple, so q' vanishes at the rational root 0 of x^2,
        # and x^2 + 1 shares a factor with the rest of (x^2 + 1)^2
        report = solutions.singularities
        monkeypatch.setattr(
            solutions,
            "singularities",
            lambda s: replace(report(s), finite_places=tuple((p, 1) for p, _ in report(s).finite_places)),
        )
        tmp, write = work
        for entry in ("1/x^2", "1/(x^2+1)^2"):
            sys_path = write("a.json", {"var": "x", "n": 1, "A": [[entry]]})
            code, payload = run(["ratsols", "--system", sys_path], capsys)
            assert code == 4
            assert payload["error"] == {
                "reason": "internal_error",
                "message": "place not coprime to residual denominator",
            }


class TestHostileConstructions:
    """Construction text reaches the CLI through --constr, --constrs and the
    constr of an invariants file; each path is bounded like an expression."""

    def _constr(self, work, constr):
        tmp, write = work
        mat_path = write("m.json", {"var": "x", "M": [["1", "x"], ["0", "1"]]})
        return ["constr", "--constr", constr, "--matrix", mat_path, "--mode", "group"]

    def _harvest(self, work, constr):
        tmp, write = work
        return ["harvest", "--system", write("z.json", ZERO_2X2), "--constrs", f"base;{constr}"]

    def _verify_reduction(self, work, constr):
        tmp, write = work
        invs = {"var": "x", "invariants": [{"constr": constr, "v": ["1", "0"]}]}
        return [
            "verify-reduction",
            "--system",
            write("z.json", ZERO_2X2),
            "--P",
            write("p.json", {"var": "x", "M": [["1", "0"], ["0", "1"]]}),
            "--invariants",
            write("invs.json", invs),
        ]

    @pytest.mark.parametrize("entry", ["_constr", "_harvest", "_verify_reduction"])
    @pytest.mark.parametrize(
        "constr",
        [DEEP_CONSTR, "dual(" * 101 + "base" + ")" * 101, "dual(b@se)"],
        ids=["depth-3000", "depth-101", "character"],
    )
    def test_hostile_construction_is_parse_error(self, work, capsys, entry, constr):
        code, payload = run(getattr(self, entry)(work, constr), capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    def test_depth_100_is_read(self, work, capsys):
        # dual applied an even number of times is base again, up to the
        # canonical basis
        constr = "dual(" * 100 + "base" + ")" * 100
        code, payload = run(self._constr(work, constr), capsys)
        assert code == 0 and payload["M"] == [["1", "x"], ["0", "1"]]

    def test_unexpected_character_in_an_entry_is_parse_error(self, work, capsys):
        tmp, write = work
        sys_path = write("bad.json", {"var": "x", "n": 1, "A": [["x @ 1"]]})
        code, payload = run(["series", "--system", sys_path], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"


class TestBoundedParseMessages:
    """A parse error names the offending character and its offset, or quotes
    a short prefix of the token, however long the input."""

    @pytest.mark.parametrize(
        "field, text",
        [
            ("entry", "+".join(["x"] * 5000) + "#"),
            ("entry", "y" * 100_000),
            ("constr", "dual(" * 3000 + "#" + ")" * 3000),
            ("x0", "1/" + "2" * 5000 + "#"),
        ],
        ids=["long-sum", "long-name", "deep-construction", "long-constant"],
    )
    def test_message_is_short(self, work, capsys, field, text):
        tmp, write = work
        if field == "constr":
            mat_path = write("m.json", {"var": "x", "M": [["1", "x"], ["0", "1"]]})
            args = ["constr", "--constr", text, "--matrix", mat_path]
        else:
            entry, x0 = (text, "1") if field == "entry" else ("x", text)
            sys_path = write("a.json", {"var": "x", "n": 1, "A": [[entry]]})
            args = ["series", "--system", sys_path, "--x0", x0]
        code, payload = run(args, capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"
        assert len(payload["error"]["message"]) < 200


class TestStability:
    def test_determinism_byte_identical(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        main(["eigenring", "--system", sys_path, "--num-deg", "6"])
        first = capsys.readouterr().out
        main(["eigenring", "--system", sys_path, "--num-deg", "6"])
        second = capsys.readouterr().out
        assert first == second

    def test_determinism_across_processes(self, work):
        import subprocess
        import sys as _sys

        tmp, write = work
        sys_path = write("a.json", DEMO)
        cmd = [
            _sys.executable,
            "-m",
            "redform.cli",
            "harvest",
            "--system",
            sys_path,
            "--constrs",
            "base;ext(2,base)",
            "--num-deg",
            "5",
        ]
        # the child imports the redform under test, not an installed copy
        src = str(Path(redform.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout

    def test_out_flag_writes_file(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        out_path = tmp / "result.json"
        code = main(["pullback", "--system", sys_path, "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out_path.read_text())
        assert payload["var"] == "t"

    def test_unwritable_out_is_usage_error(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        out_path = tmp / "missing" / "result.json"
        code, payload = run(["pullback", "--system", sys_path, "--out", str(out_path)], capsys)
        assert code == 3
        assert payload["error"]["reason"] == "usage_error"
        assert str(out_path) in payload["error"]["message"]
        assert not out_path.exists()

    def test_emitted_system_round_trips(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(["pullback", "--system", sys_path, "--pullback", "3"], capsys)
        assert code == 0
        again = system_from_json(payload)
        from redform import pullback

        assert again.mat == pullback(system_from_json(DEMO), 3).mat

    def test_coefficients_past_the_digit_limit_print_and_reparse(self, work, capsys):
        # 2^15000 has 4,516 digits, past the interpreter's 4,300-digit
        # int-to-string limit
        tmp, write = work
        big = RatFn.const(2 ** 15000)
        sys_path = write("big.json", {"var": "x", "n": 1, "A": [["2^5000*2^5000*2^5000"]]})
        code, payload = run(["pullback", "--system", sys_path, "--pullback", "1"], capsys)
        assert code == 0
        assert len(payload["A"][0][0]) == 4516
        assert system_from_json(payload).mat.data[0][0] == big
        again = write("again.json", payload)
        code, repeated = run(["pullback", "--system", again, "--pullback", "1"], capsys)
        assert code == 0 and repeated["A"] == payload["A"]
        code, payload = run(["series", "--system", sys_path, "--order", "2"], capsys)
        assert code == 0
        assert parse_ratfn(payload["coeffs"][1][0][0]) == big


class TestOtherCommands:
    def test_series_envelope(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(
            ["series", "--system", sys_path, "--x0", "1", "--order", "3"], capsys
        )
        assert code == 0
        assert payload["order"] == 3
        assert payload["coeffs"][0] == [["1", "0"], ["0", "1"]]
        assert payload["coeffs"][1] == [["0", "1"], ["1", "1/2"]]

    def test_integer_entries_read_as_constants(self, work, capsys):
        # a Q(x) matrix may give a constant entry as a JSON integer
        tmp, write = work
        argv = ["series", "--x0", "1", "--order", "3", "--system"]
        ints = run(argv + [write("i.json", {"var": "x", "A": [[0, 1], [-2, "x"]]})], capsys)
        strings = run(argv + [write("s.json", {"var": "x", "A": [["0", "1"], ["-2", "x"]]})], capsys)
        assert ints == strings and ints[0] == 0

    def test_wei_norman(self, work, capsys):
        tmp, write = work
        sys_path = write("b.json", {"var": "t", "n": 2, "A": [["2*t^2", "0"], ["0", "-2*t^2"]]})
        basis_path = write("basis.json", DIAG_BASIS)
        code, payload = run(
            ["wei-norman", "--system", sys_path, "--basis", basis_path], capsys
        )
        assert code == 0 and payload["coeffs"] == ["2*t^2"]

    def test_wei_norman_negative(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        basis_path = write("basis.json", DIAG_BASIS)
        code, payload = run(
            ["wei-norman", "--system", sys_path, "--basis", basis_path], capsys
        )
        assert code == 1 and payload["decomposable"] is False

    def test_commutant(self, work, capsys):
        tmp, write = work
        basis_path = write("basis.json", DIAG_BASIS)
        code, payload = run(["commutant", "--basis", basis_path], capsys)
        assert code == 0 and payload["dim"] == 2

    def test_constr_command(self, work, capsys):
        tmp, write = work
        mat_path = write("m.json", {"var": "x", "M": [["1", "x"], ["0", "1"]]})
        code, payload = run(
            ["constr", "--constr", "dual(base)", "--matrix", mat_path, "--mode", "group"],
            capsys,
        )
        assert code == 0
        assert payload["M"] == [["1", "0"], ["-x", "1"]]

    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("group", [["1", "x", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "-x", "1"]]),
            ("lie", [["1", "x", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "-x", "-1"]]),
        ],
        ids=["group", "lie"],
    )
    def test_constr_direct_sum(self, work, capsys, mode, expected):
        # base and dual side by side: M (+) M^-T on the group, M (+) -M^T on
        # the Lie algebra
        tmp, write = work
        m = Mat(RF, [[parse_ratfn("1"), parse_ratfn("x")], [RatFn.ZERO, parse_ratfn("1")]])
        dual = m.inv().transpose() if mode == "group" else -m.transpose()
        mat_path = write("m.json", {"var": "x", "M": matrix_to_lists(m, "x")})
        argv = ["constr", "--constr", "dsum(base,dual(base))", "--matrix", mat_path, "--mode", mode]
        code, payload = run(argv, capsys)
        assert code == 0
        assert payload["M"] == expected == matrix_to_lists(m.block_diag(dual), "x")

    def test_harvest(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        code, payload = run(
            [
                "harvest",
                "--system",
                sys_path,
                "--constrs",
                "base;tensor(base,dual(base))",
                "--num-deg",
                "6",
            ],
            capsys,
        )
        assert code == 2
        dims = {item["constr"]: item["dim"] for item in payload["results"]}
        assert dims == {"base": 0, "tensor(base,dual(base))": 1}

    def test_katz_check(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        basis_path = write(
            "endbasis.json", {"var": "x", "elements": [[["0", "1/x"], ["1", "0"]]]}
        )
        invs_path = write(
            "invs.json",
            {
                "var": "x",
                "invariants": [
                    {"constr": "tensor(base,dual(base))", "v": ["1", "0", "0", "1"]}
                ],
            },
        )
        code, payload = run(
            [
                "katz-check",
                "--system",
                sys_path,
                "--basis",
                basis_path,
                "--invariants",
                invs_path,
            ],
            capsys,
        )
        assert code == 0
        assert payload["stable"] and payload["annihilates_invariants"]

    def test_verify_reduction(self, work, capsys):
        tmp, write = work
        sys_path = write(
            "b.json", {"var": "t", "n": 2, "A": [["0", "2*t"], ["2*t^3", "1/t"]]}
        )
        # transport-normalized gauge P*P(1)^-1 at t0 = 1 for the pulled-back
        # demo collapses to diag(1, t)
        p_path = write("p.json", {"var": "t", "M": [["1", "0"], ["0", "t"]]})
        invs_path = write(
            "invs.json",
            {
                "var": "t",
                "invariants": [
                    {"constr": "tensor(base,dual(base))", "v": ["1", "0", "0", "1"]},
                    {"constr": "ext(2,base)", "v": ["t"]},
                ],
            },
        )
        code, payload = run(
            [
                "verify-reduction",
                "--system",
                sys_path,
                "--P",
                p_path,
                "--x0",
                "1",
                "--invariants",
                invs_path,
            ],
            capsys,
        )
        assert code == 0 and payload["transported"] is True

    def test_stabilizer_of_invariant(self, work, capsys):
        tmp, write = work
        vec_path = write("v.json", {"var": "x", "v": ["1", "0", "0", "1"]})
        code, payload = run(
            [
                "stabilizer-of-invariant",
                "--constr",
                "tensor(base,dual(base))",
                "--vector",
                vec_path,
            ],
            capsys,
        )
        assert code == 0 and payload["dim"] == 4 and payload["n"] == 2

    @pytest.mark.parametrize(
        "constr, v, n, dim",
        [("ext(2,base)", ["1"], 2, 3), ("sym(2,base)", ["1", "0", "1"], 2, 1), ("base", ["0", "0", "1"], 3, 6)],
        ids=["ext", "sym", "base"],
    )
    def test_stabilizer_infers_n_from_the_vector_length(self, work, capsys, constr, v, n, dim):
        tmp, write = work
        vec_path = write("v.json", {"var": "x", "v": v})
        code, payload = run(["stabilizer-of-invariant", "--constr", constr, "--vector", vec_path], capsys)
        assert code == 0 and payload["n"] == n and payload["dim"] == dim

    @pytest.mark.parametrize(
        "constr, length, reason",
        [
            ("tensor(base,dual(base))", 5, "dimension_mismatch"),
            ("tensor(base,base)", 1100, "invalid_arity"),
            ("sym(3000000,base)", 1, "invalid_arity"),
        ],
        ids=["between-sizes", "above-bound", "power"],
    )
    def test_stabilizer_without_a_fitting_n(self, work, capsys, constr, length, reason):
        tmp, write = work
        vec_path = write("v.json", {"var": "x", "v": ["1"] * length})
        code, payload = run(["stabilizer-of-invariant", "--constr", constr, "--vector", vec_path], capsys)
        assert code == 3 and payload["error"]["reason"] == reason

    @pytest.mark.parametrize(
        "constr, length, code",
        [("base", 31, 0), ("base", 32, 3), ("ext(27,base)", 1, 3)],
        ids=["largest-base", "past-the-budget", "top-ext"],
    )
    def test_stabilizer_work_budget(self, work, capsys, constr, length, code):
        # n^2 * lie_work: 923,521 units at n = 31 under base, 1,048,576 at
        # n = 32, and 1,063,611 for ext(27,base) at n = 27, whose one
        # dimension hides the n^2 entries of every unit matrix
        tmp, write = work
        vec_path = write("v.json", {"var": "x", "v": ["1"] * length})
        with time_limit(60 if code == 0 else 1):
            got, payload = run(["stabilizer-of-invariant", "--constr", constr, "--vector", vec_path], capsys)
        assert got == code
        if code:
            assert payload["error"]["reason"] == "usage_error"
        else:
            assert payload["n"] == length and payload["dim"] == length * (length - 1)


class TestVariables:
    @pytest.mark.parametrize("var", ["", "x+1", "x y", "2"])
    def test_new_var_must_be_a_name(self, work, capsys, var):
        tmp, write = work
        code, payload = run(["pullback", "--system", write("a.json", DEMO), "--new-var", var], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("var", ["x1", "_t"])
    def test_named_new_var_reparses(self, work, capsys, var):
        tmp, write = work
        code, payload = run(
            ["pullback", "--system", write("a.json", DEMO), "--pullback", "2", "--new-var", var], capsys
        )
        assert code == 0 and payload["var"] == var
        assert system_from_json(payload) == pullback(system_from_json(DEMO), 2, new_var=var)

    @pytest.mark.parametrize("var", ["", "x+1", "x y", "2", " x", 1, None])
    def test_system_var_must_be_a_name(self, work, capsys, var):
        tmp, write = work
        code, payload = run(["series", "--system", write("s.json", {"var": var, "A": [["1"]]})], capsys)
        assert code == 3 and payload["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "flag, payload",
        [
            ("--P", {"P": [["1", "0"], ["0", "1"]]}),
            ("--vector", {"v": ["0", "1", "1", "0"]}),
            ("--semiinv", {"M": [["0", "1"], ["1", "0"]]}),
            ("--basis", {"elements": [[["1", "0"], ["0", "1"]]]}),
            ("--lines", {"lines": [{"constr": "tensor(base,dual(base))", "v": ["1", "0", "0", "1"]}]}),
            ("--invariants", {"invariants": [{"constr": "ext(2,base)", "v": ["1"]}]}),
        ],
        ids=["P", "vector", "semiinv", "basis", "lines", "invariants"],
    )
    def test_a_file_must_be_in_the_systems_variable(self, work, capsys, flag, payload):
        tmp, write = work
        argv = {
            "--P": ["gauge"],
            "--vector": ["semiinv-check", "--constr", "tensor(base,dual(base))"],
            "--semiinv": ["reduce"],
            "--basis": ["katz-check"],
            "--lines": ["check-reduced"],
            "--invariants": ["verify-reduction", "--P", write("p.json", {"var": "x", "P": [["1", "0"], ["0", "1"]]})],
        }[flag] + ["--system", write("a.json", DEMO), flag]
        for same in (dict(payload, var="x"), payload):
            code, out = run(argv + [write("f.json", same)], capsys)
            assert code in (0, 1)
        code, out = run(argv + [write("f.json", dict(payload, var="y"))], capsys)
        assert code == 3 and out["error"] == {"reason": "parse_error", "message": "the file is in 'y', the system in 'x'"}


# the flags each subcommand reads besides --out, written out independently
# of the parser's table, and an argv carrying just the required ones
READS = {
    "gauge": ("--system --P", "--system s --P p"),
    "pullback": ("--system --pullback --new-var", "--system s"),
    "constr": ("--constr --matrix --mode", "--constr base --matrix m"),
    "series": ("--system --x0 --order", "--system s"),
    "ratsols": ("--system --constr --num-deg --den --pole-cap", "--system s"),
    "semiinv-check": ("--system --constr --vector", "--system s --constr base --vector v"),
    "harvest": ("--system --constrs --num-deg --pole-cap", "--system s --constrs base"),
    "eigenring": ("--system --num-deg --den --pole-cap", "--system s"),
    "wei-norman": ("--system --basis", "--system s --basis b"),
    "check-reduced": ("--system --basis --constrs --lines --num-deg --pole-cap", "--system s"),
    "verify-reduction": ("--system --P --invariants --x0", "--system s --P p --invariants i"),
    "reduce": ("--system --semiinv --pullback", "--system s --semiinv e"),
    "katz-check": ("--system --basis --invariants", "--system s --basis b"),
    "commutant": ("--basis", "--basis b"),
    "stabilizer-of-invariant": ("--constr --vector", "--constr base --vector v"),
}
# --n, which stabilizer-of-invariant once read, is now read by none
ALL_FLAGS = sorted({flag for flags, _ in READS.values() for flag in flags.split()} | {"--n"})
UNREAD = [
    (name, flag)
    for name, (flags, _) in READS.items()
    for flag in ALL_FLAGS
    if flag not in flags.split()
]


class TestFlagTable:
    @pytest.mark.parametrize("name", sorted(READS))
    def test_subcommand_takes_exactly_the_flags_it_reads(self, name):
        sub = next(a for a in cli.build_parser()._actions if a.choices and name in a.choices)
        options = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert options == set(READS[name][0].split()) | {"--out", "-h", "--help"}

    @pytest.mark.parametrize("name,flag", UNREAD, ids=[f"{n}{f}" for n, f in UNREAD])
    def test_unread_flag_is_usage_error(self, name, flag, capsys):
        argv = [name] + READS[name][1].split()
        cli.build_parser().parse_args(argv)  # parses without the flag
        assert main(argv + [flag, "1"]) == 3
        assert capsys.readouterr().out == ""

    def test_flag_prefix_is_usage_error(self, capsys):
        assert main(["series", "--system", "s", "--ord", "5"]) == 3
        assert capsys.readouterr().out == ""


class TestSharedParser:
    def test_usage_error_leaves_later_calls_unchanged(self, work, capsys):
        tmp, write = work
        sys_path = write("a.json", DEMO)
        good = ["pullback", "--system", sys_path, "--pullback", "2"]
        assert main(good[:3] + ["--bogus", "1"]) == 3
        assert capsys.readouterr().out == ""
        first = main(good), capsys.readouterr().out
        second = main(good), capsys.readouterr().out
        assert first == second and first[0] == 0
        assert json.loads(first[1])["var"] == "t"

    @pytest.mark.parametrize(
        "argv",
        [["frobnicate"], ["gauge", "--system", "s", "--P", "p", "--bogus", "1"]],
        ids=["unknown-command", "unread-flag"],
    )
    def test_usage_line_names_every_subcommand(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        usage = captured.err.split("redform: error:")[0]
        assert "{" + ",".join(READS) + "}" in usage
