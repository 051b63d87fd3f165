"""Rational solutions: bounds, oracles, semi-invariants, harvesting."""

import random
from fractions import Fraction
from math import prod

import pytest

from redform import (
    Base,
    DiffSystem,
    DimensionMismatch,
    END_CONSTRUCTION,
    Mat,
    Poly,
    RF,
    RatFn,
    check_semi_invariant,
    constr_lie,
    gauge,
    harvest_invariants,
    parse_construction,
    rational_solutions,
    singularities,
    system,
    vec_row_major,
)
from redform.linalg import QQ, charpoly, charpoly_ints, mat_vec
from redform import solutions
from redform.ratfun import common_denominator
from redform.solutions import _ansatz_rows, _bounds

from helpers import (
    demo_system,
    oracle_ansatz_rows,
    oracle_det,
    oracle_integer_roots,
    oracle_lead_at_infinity,
    oracle_rational_roots,
    oracle_residue_matrix,
    oracle_rref,
    oracle_solution_basis,
    rand_invertible,
    rand_matrix,
    rand_poly,
    rf,
    same_constant_span,
    weighted_swap,
)


def cleared(sys_):
    """(q, nums, n): the system's entries written as nums[i*n+j] / q."""
    q, nums = common_denominator([e for row in sys_.mat.data for e in row])
    return q, nums, sys_.n


def denominator_bound(sys_, pole_cap=10):
    return _bounds(*cleared(sys_), pole_cap, singularities(sys_))[0]


def ansatz_rows(sys_, den, cap):
    return _ansatz_rows(*cleared(sys_), den, cap)


def _check_solution(sys_, v):
    lie = sys_.mat
    for i in range(sys_.n):
        acc = v[i].derivative()
        for j in range(sys_.n):
            acc = acc - lie.data[i][j] * v[j]
        assert acc.is_zero


class TestDenominatorBound:
    def test_polynomial_system(self):
        assert denominator_bound(system("x", [["0", "1"], ["0", "0"]])) == Poly.ONE

    def test_positive_residue(self):
        assert denominator_bound(system("x", [["1/x"]])) == Poly([0, 1])

    def test_negative_residue_covers_pole(self):
        # solutions c/x have a pole of order one; the bound must include it
        assert denominator_bound(system("x", [["-1/x"]])) == Poly([0, 1])

    def test_higher_order_pole_uses_cap(self):
        den = denominator_bound(system("x", [["1/x^2"]]), pole_cap=4)
        assert den == Poly.monomial(1, 4)

    def test_demo_has_trivial_bound(self):
        assert denominator_bound(demo_system()) == Poly.ONE

    def test_quadratic_place(self):
        # residue at the squarefree place x^2 - 2 has eigenvalue 1 on each branch
        den = denominator_bound(system("x", [["(2*x)/(x^2-2)"]]))
        assert den == Poly([-2, 0, 1])


def ten_place_system():
    """4x4, each entry sum_k c/(x - k) over k = 0..9, c drawn from -3..3 in
    the order k, i, j."""
    rng = random.Random(3)
    c = [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)] for _ in range(10)]
    def entry(i, j):
        return sum((RatFn(c[k][i][j], Poly([-k, 1])) for k in range(10)), RatFn.ZERO)

    return DiffSystem("x", Mat(RF, [[entry(i, j) for j in range(4)] for i in range(4)]))


class TestClearedForm:
    """The residues and the 1/x coefficient that ``rational_solutions`` reads
    off the cleared form nums/q, against the entry-by-entry oracles.  Each
    simple place, in the order of the singularity report, splits into its
    rational roots z, in ascending order, whose residue matrix goes to
    ``charpoly_ints``, and the cofactor without one, whose quotient-ring
    residue goes to ``charpoly``; then the 1/x coefficient goes to
    ``charpoly_ints`` when every place is simple and the entries vanish at
    infinity.  The factor charpolys of a place multiply to the charpoly of
    its whole residue, so the eigenvalues, and the bound, are those of the
    place."""

    PLACES = [rf(p).num for p in ("x", "x-1", "x+2", "x^2+1", "x^2-2", "x^3-x-1")]

    def _check(self, sys_, monkeypatch):
        """The kinds of matrices compared: "lead" for the 1/x coefficient,
        and for the places, "linear", "split" (two rational roots or more, no
        cofactor), "mixed" (a rational root and a cofactor) or "rootless"."""
        report = singularities(sys_)
        places, want, kinds = [], [], set()
        for place, order in report.finite_places:
            if order == 1:
                roots = oracle_rational_roots(place)
                factors = [Poly([-z, 1]) for z in roots]
                rest = place // prod(factors, start=Poly.ONE)
                factors += [rest] if rest.degree else []
                places.append((place, len(factors)))
                want += [oracle_residue_matrix(sys_, f) for f in factors]
                if not roots:
                    kinds.add("rootless")
                else:
                    kinds.add("mixed" if rest.degree else "split" if len(roots) > 1 else "linear")
        if len(places) == len(report.finite_places) and report.order_at_infinity <= -1:
            want.append(oracle_lead_at_infinity(sys_))
            kinds.add("lead")
        seen = []
        monkeypatch.setattr(solutions, "charpoly", lambda m: seen.append(m) or charpoly(m))
        monkeypatch.setattr(
            solutions,
            "charpoly_ints",
            lambda a, d: seen.append(Mat(QQ, [[Fraction(c, d) for c in row] for row in a])) or charpoly_ints(a, d),
        )
        rational_solutions(sys_, num_deg_cap=0, pole_cap=1)
        assert seen == want
        for place, count in places:
            factors, seen = seen[:count], seen[count:]
            whole = charpoly(oracle_residue_matrix(sys_, place))
            assert prod(map(charpoly, factors), start=Poly.ONE) == whole
        return kinds

    def _entry(self, rng):
        roll = rng.random()
        if roll < 0.2:
            return RatFn.ZERO
        if roll < 0.3:  # growth >= 0
            return RatFn(rand_poly(rng, 2), rng.choice(self.PLACES + [Poly.ONE]))
        den = Poly.ONE
        for p in rng.sample(self.PLACES, rng.randint(1, 3)):
            den = den * p ** rng.choice([1, 1, 1, 2])
        return RatFn(rand_poly(rng, den.degree - 1), den)

    def test_seeded_systems_match_the_entry_by_entry_oracles(self, monkeypatch):
        rng = random.Random(2319)
        kinds = []
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            sys_ = DiffSystem("x", Mat(RF, [[self._entry(rng) for _ in range(n)] for _ in range(n)]))
            kinds += self._check(sys_, monkeypatch)
        assert kinds.count("lead") >= 5
        assert {"linear", "split", "mixed", "rootless"} <= set(kinds)

    def test_places_dividing_some_denominators(self, monkeypatch):
        # x - 1 divides two of the four denominators, x^2 + 1 one, x + 2 two
        sys_ = system("x", [["1/(x-1)", "2/((x-1)*(x+2))"], ["(3*x)/(x^2+1)", "-1/(x+2)"]])
        assert {p.degree for p, _ in singularities(sys_).finite_places} == {1, 2}
        self._check(sys_, monkeypatch)
        # x^2 - 1 splits at -1 and 1; x^2 + 1 has no rational root
        sys_ = system("x", [["-2*x/(x^2-1)", "0"], ["0", "2*x/(x^2+1)"]])
        assert self._check(sys_, monkeypatch) == {"split", "rootless", "lead"}
        # roots that are not integers: x^2 - 1/4 splits at -1/2 and 1/2, and
        # (x - 1/3)(x^2 - 2) at 1/3, leaving x^2 - 2
        sys_ = system("x", [["1/((3*x-1)*(x^2-2))", "2*x/((3*x-1)*(x^2-2))"], ["5/(4*x^2-1)", "0"]])
        assert self._check(sys_, monkeypatch) == {"split", "mixed", "lead"}

    def test_rootless_places_with_a_non_monic_integer_form(self, monkeypatch):
        # the places 3x^2 + 1, 2x^3 - 5 and 2x^5 - 2x^3 - 1 have no rational
        # root and a leading coefficient other than 1 in integer form; so has
        # the cofactor 3x^2 + 1 that (2x - 1)(3x^2 + 1) leaves after its root 1/2
        quintic, mixed = "(2*x^5-2*x^3-1)", "((2*x-1)*(3*x^2+1))"
        cases = [
            ([["1/(3*x^2+1)", "x/(3*x^2+1)"], ["2/(3*x^2+1)", "0"]], {"rootless", "lead"}),
            ([["x^2/(2*x^3-5)", "1"], ["3/(2*x^3-5)", "-x/(2*x^3-5)"]], {"rootless"}),
            ([[f"x^4/{quintic}", f"1/{quintic}"], [f"x/{quintic}", "0"]], {"rootless", "lead"}),
            ([[f"1/{mixed}", f"x/{mixed}"], ["0", f"5*x^2/{mixed}"]], {"mixed", "lead"}),
        ]
        for rows, kinds in cases:
            sys_ = system("x", rows)
            ((place, order),) = singularities(sys_).finite_places
            assert order == 1 and place.ints[-1] != 1
            assert self._check(sys_, monkeypatch) == kinds

    def test_zero_entries_and_growth_at_least_zero(self, monkeypatch):
        for rows in (
            [["0", "0"], ["0", "0"]],
            [["x", "1/(x^2-2)"], ["0", "x^2/(x-1)"]],
            [["0", "(x^2+1)/(x^3-x-1)"], ["2", "0"]],
        ):
            self._check(system("x", rows), monkeypatch)

    def test_ten_linear_places(self, monkeypatch):
        sys_ = ten_place_system()
        assert [order for _, order in singularities(sys_).finite_places] == [1] * 10
        self._check(sys_, monkeypatch)


class TestRationalSolutions:
    def test_nilpotent_block(self):
        space = rational_solutions(system("x", [["0", "1"], ["0", "0"]]), num_deg_cap=2)
        assert space.basis == ((rf("1"), rf("0")), (rf("x"), rf("1")))
        for v in space.basis:
            _check_solution(system("x", [["0", "1"], ["0", "0"]]), v)

    def test_simple_pole_solution(self):
        sys_ = system("x", [["-1/x"]])
        space = rational_solutions(sys_, num_deg_cap=3)
        assert space.dim == 1 and space.complete
        assert space.basis[0][0] == rf("1/x")

    def test_end_system_of_demo(self):
        sys_ = DiffSystem("x", constr_lie(END_CONSTRUCTION, demo_system().mat))
        space = rational_solutions(sys_, num_deg_cap=6)
        assert space.dim == 1
        assert space.basis[0] == tuple(rf(s) for s in ("1", "0", "0", "1"))

    def test_zero_system_constants(self):
        space = rational_solutions(system("x", [["0", "0"], ["0", "0"]]), num_deg_cap=0)
        assert space.dim == 2 and space.complete
        assert all(all(e.is_constant for e in v) for v in space.basis)

    def test_gauge_of_zero_oracle(self):
        rng = random.Random(77)
        for _ in range(8):
            n = rng.choice([2, 3])
            p = rand_invertible(rng, n)
            zero = system("x", [["0"] * n for _ in range(n)])
            sys_ = gauge(zero, p)
            pinv = p.inv()
            den = Poly.ONE
            cap = 0
            for row in pinv.data:
                for e in row:
                    den = den.lcm(e.den)
            for row in pinv.data:
                for e in row:
                    cap = max(cap, (e * RatFn(den)).num.degree)
            space = rational_solutions(sys_, num_deg_cap=cap, den_override=den)
            assert space.dim == n
            columns = list(zip(*pinv.data))
            assert same_constant_span(space.basis, columns)
            for v in space.basis:
                _check_solution(sys_, v)

    def test_power_family_with_certified_completeness(self):
        # y' = (k/x) y has solution space span{x^k}; the automatic bounds
        # certify completeness once the cap covers the degree bound at
        # infinity (k) plus the denominator degree (|k| for k < 0)
        for k in range(-3, 4):
            sys_ = system("x", [[f"({k})/x"]])
            space = rational_solutions(sys_, num_deg_cap=8)
            assert space.dim == 1
            expected = (rf(f"x^{k}") if k >= 0 else rf(f"1/x^{-k}"),)
            assert same_constant_span(space.basis, [expected])
            assert space.complete
            _check_solution(sys_, space.basis[0])

    def test_echelon_determinism(self):
        sys_ = system("x", [["0", "1"], ["0", "0"]])
        a = rational_solutions(sys_, num_deg_cap=4)
        b = rational_solutions(sys_, num_deg_cap=4)
        assert a.basis == b.basis

    def test_gauge_equivariance_of_solution_spaces(self):
        base_sys = system("x", [["0", "0"], ["0", "0"]])
        p = Mat(RF, [[rf("1"), rf("x")], [rf("0"), rf("1")]])
        gauged = gauge(base_sys, p)
        space = rational_solutions(gauged, num_deg_cap=3)
        pinv = p.inv()
        original = rational_solutions(base_sys, num_deg_cap=3)
        moved = [mat_vec(pinv, v) for v in original.basis]
        assert same_constant_span(space.basis, moved)


def _linear_gauge_of_zero(rng, n):
    """The gauge of the zero system by P = C0 + C1*x, C1 invertible: its n
    solutions are rational, its poles are simple at the roots of det P, and
    it vanishes at infinity, so the bounds certify it complete."""
    while True:
        c0 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        c1 = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if oracle_det([[Fraction(a) for a in row] for row in c1]):
            break
    p = Mat(RF, [[rf(f"{a} + {b}*x") for a, b in zip(r0, r1)] for r0, r1 in zip(c0, c1)])
    return gauge(system("x", [["0"] * n for _ in range(n)]), p)


class TestCanonicalBasisOracle:
    """The one elimination of ``rational_solutions`` against the dense
    two-elimination route: null space of the ansatz rows, then its RREF."""

    @staticmethod
    def _check(sys_, num_deg_cap, den_override=None, pole_cap=2):
        space = rational_solutions(sys_, num_deg_cap, den_override, pole_cap)
        assert space.basis == oracle_solution_basis(sys_, space.denominator, space.num_degree_cap)
        return space

    def test_seeded_systems(self):
        rng = random.Random(4049)
        dims = set()
        for _ in range(30):
            n = rng.choice([1, 2, 2, 3])
            if rng.random() < 0.5:
                # a gauge of the zero system, whose n solutions are rational
                sys_ = gauge(system("x", [["0"] * n for _ in range(n)]), rand_invertible(rng, n, ops=2))
            else:
                sys_ = system("x", rand_matrix(rng, n, max_deg=1, density=0.6).data)
            dims.add(self._check(sys_, rng.randint(0, 3)).dim)
        assert {0, 1, 2} <= dims

    def test_empty_kernel(self):
        # no rational solution: the second RREF gets no vectors
        assert self._check(demo_system(), 4).dim == 0
        assert self._check(demo_system(), 6, den_override=rf("x^2*(x-1)").num).dim == 0
        exponential = system("x", [["1", "0", "0"], ["0", "x", "0"], ["0", "1", "1/x^2"]])
        assert self._check(exponential, 3).dim == 0

    @staticmethod
    def _pivots(space):
        """The pivots of the basis's numerator coefficients in the
        entry-major order, and those in the degree-major order mapped to
        entry-major columns."""
        n, width = space.size, space.num_degree_cap + 1
        den = RatFn(space.denominator)
        rows = [[(e * den).num.coeff(s) for e in v for s in range(width)] for v in space.basis]
        degree_major = [[row[j * width + s] for s in reversed(range(width)) for j in range(n)] for row in rows]
        mapped = sorted((c % n) * width + width - 1 - c // n for c in oracle_rref(degree_major)[1])
        return oracle_rref(rows)[1], mapped

    def test_dimension_three_where_the_degree_major_pivots_differ(self):
        # the gauge of the zero 3x3 system by the inverse of the unimodular
        # polynomial Q: its solutions are the columns of Q, (1, x, 0),
        # (x, x^2+1, 2x-1) and (0, 0, 1); the x^2 of the second sits in
        # entry 1, which the highest degree reaches first
        q = Mat(RF, [[rf("1"), rf("x"), rf("0")], [rf("x"), rf("x^2+1"), rf("0")], [rf("0"), rf("2*x-1"), rf("1")]])
        zero = system("x", [["0"] * 3 for _ in range(3)])
        for cap in (2, 3, 5):
            space = self._check(gauge(zero, q.inv()), cap)
            assert same_constant_span(space.basis, zip(*q.data))
            entry_major, degree_major = self._pivots(space)
            assert entry_major != degree_major
        # and gauges by P = C0 + C1*x, complete, over the denominator det P
        rng = random.Random(3)
        for _ in range(3):
            assert self._check(_linear_gauge_of_zero(rng, 3), rng.randint(4, 9)).dim == 3

    def test_den_override_with_the_cap_above_the_certified_degree(self):
        # a complete system solved again over a multiple of its certified
        # denominator, at caps above the certified degree: the same span
        rng = random.Random(2027)
        differ = []
        for k in range(6):
            sys_ = _linear_gauge_of_zero(rng, 2 + k % 2)
            certified = rational_solutions(sys_, 12)
            assert certified.complete
            den = certified.denominator * rf(rng.choice(["1", "x^2+1", "x-3", "(x+1/2)^2"])).num
            space = self._check(sys_, den.degree + rng.randint(1, 6), den_override=den)
            assert not space.complete and space.dim == certified.dim
            assert same_constant_span(space.basis, certified.basis)
            entry_major, degree_major = self._pivots(space)
            differ.append(entry_major != degree_major)
        assert any(differ)

    def test_zero_systems(self):
        # at cap 0 the ansatz rows are zero and the kernel is full; above it
        # the constants remain
        for n, cap in [(1, 0), (2, 0), (3, 0), (2, 2), (3, 1)]:
            space = self._check(system("x", [["0"] * n for _ in range(n)]), cap)
            assert space.dim == n

    def test_den_override(self):
        sys_ = system("x", [["0", "1/x"], ["0", "-1/x"]])
        for den in [Poly.ONE, rf("x").num, rf("x^2*(x+1)").num, rf("x^2+1/3").num]:
            space = self._check(sys_, 2, den_override=den)
            assert space.denominator == den.monic() and not space.complete

    def test_complete_systems_at_caps_above_the_certified_degree(self, monkeypatch):
        # the ansatz is built at the certified degree deg den + dmax, and the
        # oracle at the payload's cap, well above it: equal bases show that
        # nothing above the certified degree was cut
        degrees = []
        monkeypatch.setattr(
            solutions, "_ansatz_rows", lambda *args: degrees.append(args[-1]) or _ansatz_rows(*args)
        )
        rng = random.Random(1999)
        dims = set()
        for k in range(12):
            if k % 3 == 0:
                sys_ = _linear_gauge_of_zero(rng, 2 + k % 2)
            elif k % 3 == 1:
                # y' = (a/x + b/(x-1)) y has the rational solution x^a (x-1)^b
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                sys_ = system("x", [[f"{a}/x + {b}/(x-1)"]])
            else:
                # a 2x2 Fuchsian system with two places
                places = rng.sample(["x", "x-1", "x+2", "x^2+1", "2*x-3"], 2)
                entries = [" + ".join(f"{rng.randint(-3, 3)}/({p})" for p in places) for _ in range(4)]
                sys_ = system("x", [entries[:2], entries[2:]])
            cap = rng.randint(12, 20)
            space = self._check(sys_, cap)
            dmax = max(oracle_integer_roots(charpoly(oracle_lead_at_infinity(sys_))), default=0)
            assert space.complete and space.num_degree_cap == max(cap, space.denominator.degree)
            assert degrees.pop() == max(0, space.denominator.degree + dmax) < space.num_degree_cap
            dims.add(space.dim)
        assert {0, 1, 2, 3} <= dims

    def test_denominator_degree_above_the_cap(self):
        space = self._check(system("x", [["-3/x"]]), 1)
        assert space.denominator.degree == 3 and space.num_degree_cap == 3 and space.dim == 1
        space = self._check(system("x", [["0", "0"], ["0", "0"]]), 0, den_override=rf("x^3").num)
        assert space.num_degree_cap == 3 and space.dim == 2


class TestCheckSemiInvariant:
    def test_weighted_swap_rate(self):
        rate = check_semi_invariant(
            demo_system(), END_CONSTRUCTION, vec_row_major(weighted_swap())
        )
        assert rate == rf("-1/(2*x)")

    def test_top_exterior_rate(self):
        # the derivation on ext(2) is the trace 1/(2x); the constant vector
        # has rate -1/(2x)
        rate = check_semi_invariant(
            demo_system(), parse_construction("ext(2,base)"), (RatFn.ONE,)
        )
        assert rate == rf("-1/(2*x)")

    def test_rational_solution_has_zero_rate(self):
        sys_ = system("x", [["0", "1"], ["0", "0"]])
        space = rational_solutions(sys_, num_deg_cap=2)
        for v in space.basis:
            assert check_semi_invariant(sys_, Base(), v) == RatFn.ZERO

    def test_non_semi_invariant(self):
        v = (rf("1"), rf("0"), rf("0"), rf("0"))
        assert check_semi_invariant(demo_system(), END_CONSTRUCTION, v) is None

    def test_projective_rate_shift(self):
        v = vec_row_major(weighted_swap())
        base_rate = check_semi_invariant(demo_system(), END_CONSTRUCTION, v)
        for h in [rf("x"), rf("1/x"), rf("(x^2+1)/x")]:
            scaled = tuple(h * e for e in v)
            rate = check_semi_invariant(demo_system(), END_CONSTRUCTION, scaled)
            assert rate == base_rate + h.derivative() / h

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_semi_invariant(demo_system(), Base(), (rf("1"), rf("0"), rf("0")))


class TestHarvest:
    def test_zero_system_base(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        entries = harvest_invariants(zero, [Base()], num_deg_cap=0)
        assert entries[0].space.dim == 2

    def test_demo_base_is_empty(self):
        entries = harvest_invariants(demo_system(), [Base()], num_deg_cap=8)
        assert entries[0].space.dim == 0

    def test_demo_end_is_scalars(self):
        entries = harvest_invariants(demo_system(), [END_CONSTRUCTION], num_deg_cap=8)
        space = entries[0].space
        assert space.dim == 1
        assert space.basis[0] == tuple(rf(s) for s in ("1", "0", "0", "1"))

    def test_failures_are_aggregated(self):
        entries = harvest_invariants(
            demo_system(), [parse_construction("ext(3,base)"), Base()], num_deg_cap=4
        )
        assert entries[0].space is None and entries[0].error is not None
        assert entries[1].space is not None


class TestAnsatzRows:
    """The integer rows against the dense assembly from polynomial products,
    once their columns are mapped from the degree-major order, u_(j,s) at
    (cap-s)*n + j, to the oracle's entry-major one, u_(j,s) at j*(cap+1) + s:
    same shape, each row a positive multiple of the oracle's, same RREF."""

    @staticmethod
    def _check(sys_, den, cap):
        n, width = sys_.n, cap + 1
        raw = ansatz_rows(sys_, den, cap)
        assert {len(row) for row in raw} == {n * width}
        rows = [[row[(cap - s) * n + j] for j in range(n) for s in range(width)] for row in raw]
        oracle = oracle_ansatz_rows(sys_, den, cap)
        assert all(type(a) is int for row in rows for a in row)
        assert len(rows) == len(oracle)
        for row, want in zip(rows, oracle):
            ratios = {a / b if b else None for a, b in zip(row, want) if a or b}
            assert len(ratios) <= 1 and None not in ratios and all(q > 0 for q in ratios)
        got_rref, got_pivots = oracle_rref(rows)
        want_rref, want_pivots = oracle_rref(oracle)
        assert got_pivots == want_pivots
        assert got_rref[: len(got_pivots)] == want_rref[: len(want_pivots)]

    def test_seeded_systems_match_the_dense_assembly(self):
        rng = random.Random(6121)
        overrides = [Poly.ONE, rf("x^2+1/3").num, rf("x^3*(x-1)").num]
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            sys_ = system("x", rand_matrix(rng, n, max_deg=2, density=0.7).data)
            den = denominator_bound(sys_, pole_cap=2) if rng.random() < 0.5 else rng.choice(overrides)
            self._check(sys_, den, rng.randint(0, 4))

    def test_zero_system(self):
        for n, cap in [(1, 0), (2, 0), (2, 3)]:
            zero = system("x", [["0"] * n for _ in range(n)])
            self._check(zero, Poly.ONE, cap)
        assert ansatz_rows(system("x", [["0", "0"], ["0", "0"]]), Poly.ONE, 0) == ((0, 0), (0, 0))

    def test_edge_cases(self):
        rational = system("x", [["(3/2*x+1)/(5*x-1/3)", "2/(3*x)"], ["-5/7", "x/(2*x+1)"]])
        cases = [
            (rational, denominator_bound(rational), 0),  # cap = 0
            (rational, rf("x^2+1/3").num, 2),  # an override unrelated to the poles
            (system("x", [["-4/x"]]), rf("x^4").num, 1),  # n = 1, den degree above the cap
            (demo_system(), rf("x^3*(x-1)").num, 2),
            (system("x", [["2/x"]]), Poly.ONE, 2),  # the top coefficient cancels
        ]
        for sys_, den, cap in cases:
            self._check(sys_, den, cap)

    def test_cell_budget(self, monkeypatch):
        # an ansatz of exactly the budget is built; one cell more is refused
        # with its size, the cap and the flags that lower it
        sys_, den, cap = demo_system(), rf("x^3*(x-1)").num, 2
        monkeypatch.setattr(solutions, "ANSATZ_CELLS", 0)
        with pytest.raises(ValueError, match="cap 2 would have") as exc:
            ansatz_rows(sys_, den, cap)
        assert "lower --num-deg or --pole-cap" in str(exc.value)
        rows, cols = map(int, str(exc.value).split("would have ")[1].split(" cells")[0].split(" x "))
        assert cols == sys_.n * (cap + 1)
        monkeypatch.setattr(solutions, "ANSATZ_CELLS", rows * cols)
        self._check(sys_, den, cap)
        assert len(ansatz_rows(sys_, den, cap)) <= rows
        monkeypatch.setattr(solutions, "ANSATZ_CELLS", rows * cols - 1)
        with pytest.raises(ValueError, match="over the budget"):
            rational_solutions(sys_, num_deg_cap=cap, den_override=den)
