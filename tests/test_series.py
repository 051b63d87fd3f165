"""Fundamental series: recurrence values, residuals, functoriality, transport."""

import random
from fractions import Fraction

import pytest

from redform import (
    Base,
    DiffSystem,
    Mat,
    PoleAtPoint,
    Poly,
    QQ,
    RF,
    RatFn,
    TruncSeries,
    END_CONSTRUCTION,
    constr_group,
    constr_lie,
    fundamental_series,
    is_ordinary_point,
    parse_construction,
    rational_solutions,
    system,
    verify_reduction_matrix,
)

from redform.jsonio import series_to_json
from redform.ratfun import rat_str

from helpers import (
    constr_series_agrees,
    demo_system,
    oracle_fundamental_series,
    oracle_poly_mul,
    rand_matrix,
    rand_ordinary_system,
    rand_ratfn,
    rf,
    series_poly_matrix,
    series_transport,
    truncated_coeffs,
)


class TestFundamentalSeries:
    def test_zero_system(self):
        s = fundamental_series(system("x", [["0"]]), 3, 4)
        assert s.coeffs[0] == Mat(QQ, [[1]])
        for k in range(1, 4):
            assert s.coeffs[k].is_zero

    def test_exponential(self):
        s = fundamental_series(system("x", [["1"]]), 0, 6)
        fact = 1
        for k in range(6):
            if k:
                fact *= k
            assert s.coeffs[k][(0, 0)] == Fraction(1, fact)

    def test_demo_first_coefficients(self):
        s = fundamental_series(demo_system(), 1, 3)
        assert s.coeffs[0] == Mat.identity(QQ, 2)
        assert s.coeffs[1] == Mat(QQ, [[0, 1], [1, Fraction(1, 2)]])
        # frozen from the recurrence 2*C2 = A0*C1 + A1*C0 at x0 = 1
        assert s.coeffs[2] == Mat(
            QQ,
            [
                [Fraction(1, 2), Fraction(1, 4)],
                [Fraction(3, 4), Fraction(3, 8)],
            ],
        )

    def test_pole_rejected(self):
        with pytest.raises(PoleAtPoint):
            fundamental_series(demo_system(), 0, 4)

    def test_work_bound(self):
        # the result grows as order^2 * n^2, refused past 10,000,000 before
        # any work: order 3162 of a 1x1 system and order 316 of a 10x10 one
        # are built, one order more of either is not
        s = fundamental_series(system("x", [["1/x"]]), 1, 3162)
        assert s.order == 3162 and s.coeffs[1] == Mat(QQ, [[1]]) and s.coeffs[-1].is_zero
        zero = DiffSystem("x", Mat.zeros(RF, 10, 10))
        assert fundamental_series(zero, 0, 316).order == 316
        for sys_, order in ((system("x", [["1/x"]]), 3163), (zero, 317), (demo_system(), 10**9)):
            with pytest.raises(ValueError, match="budget"):
                fundamental_series(sys_, 1, order)


class TestShortRecurrence:
    """The recurrence of q*U' = N*U against the full Taylor convolution."""

    @staticmethod
    def _check(sys_, x0, order):
        got = fundamental_series(sys_, x0, order)
        assert got.order == order
        assert list(got.coeffs) == oracle_fundamental_series(sys_, x0, order)

    @pytest.mark.parametrize(
        "rows",
        [
            [["0", "1"], ["x", "1/(2*x)"]],  # deg N > deg q
            [["x^3 - 2", "1"], ["0", "x"]],  # polynomial, q = 1
            [["1/x", "1/(x+1)"], ["x^2", "3/(x+2)^2"]],  # different denominators
            [["(x^2+1)/(x*(x-2))"]],
            [["x^4"]],
            [["0", "0"], ["0", "0"]],
            [["0"]],
            [["1/(x^2+4)", "0"], ["1/x^3", "0"]],  # deg q > deg N + 1
        ],
    )
    @pytest.mark.parametrize("x0", [Fraction(1), Fraction(1, 2), Fraction(-5, 3)])
    @pytest.mark.parametrize("order", [1, 2, 3, 12])
    def test_fixed_systems(self, rows, x0, order):
        self._check(system("x", rows), x0, order)

    def test_random_systems(self):
        rng = random.Random(57)
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            x0 = rng.choice([Fraction(0), Fraction(2), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
            sys_ = rand_ordinary_system(rng, n, x0, max_deg=3)
            self._check(sys_, x0, rng.choice([1, 2, 3, 7, 15]))


def _fuchsian(rng, n, places):
    """A = sum R_k/(x - a_k) with small integer and half-integer residues."""
    residues = [
        [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(n)] for _ in range(n)]
        for _ in places
    ]
    return system(
        "x",
        [
            [" + ".join(f"({r[i][j]})/(x - ({a}))" for r, a in zip(residues, places)) for j in range(n)]
            for i in range(n)
        ],
    )


class TestIntegerKernel:
    """The integer recurrence against the Taylor convolution at the shapes
    of the series benchmark: n = 4, orders 20-40, two Fuchsian places."""

    @pytest.mark.parametrize(
        "places, x0, order",
        [
            ((0, 1), Fraction(3), 20),
            ((-1, 2), Fraction(10 ** 12 + 1, 7), 30),  # large numerator and denominator
            ((0, 2), Fraction(1, 2), 40),  # q(x0) = x0*(x0 - 2) < 0
            ((-1, 1), Fraction(-1, 3), 25),  # q(x0) < 0 again
        ],
    )
    def test_fuchsian_systems(self, places, x0, order):
        sys_ = _fuchsian(random.Random(order), 4, places)
        q = Poly.ONE
        for row in sys_.mat.data:
            for e in row:
                q = q.lcm(e.den)
        assert q == Poly([-places[0], 1]) * Poly([-places[1], 1])  # so q(x0) has the noted sign
        u = fundamental_series(sys_, x0, order)
        assert (u.n, u.order) == (4, order)
        assert list(u.coeffs) == oracle_fundamental_series(sys_, x0, order)


class TestSeriesText:
    """The payload printed from the integer form (M_k, d_k) against the text
    of the Fraction coefficients."""

    @pytest.mark.parametrize(
        "seed, n, x0, order, digits",
        [
            (11, 2, Fraction(-7, 3), 15, 0),  # negative x0
            (12, 3, Fraction(-5), 12, 0),
            (13, 2, Fraction(3, 10 ** 40 + 9), 12, 0),  # large denominator
            (3, 2, Fraction(1, 10 ** 300), 16, 4300),  # entries past the digit limit
            (5, 2, Fraction(-(10 ** 80) - 1, 10 ** 90 + 7), 30, 4300),
        ],
    )
    def test_payload_equals_the_fraction_text(self, seed, n, x0, order, digits):
        s = fundamental_series(rand_ordinary_system(random.Random(seed), n, x0, max_deg=3), x0, order)
        text = series_to_json(s)["coeffs"]
        assert text == [[[rat_str(e) for e in row] for row in c.data] for c in s.coeffs]
        assert max(len(e) for c in text for row in c for e in row) > digits
        assert all(d > 0 for d in s.dens)


def _padded(coeffs, order):
    """The first ``order`` coefficients of a Fraction list, zero-padded."""
    return tuple(list(coeffs[:order]) + [Fraction(0)] * (order - len(coeffs)))


def _oracle_mul(a, b, order):
    """Truncated product of two coefficient lists by Fraction convolution."""
    return _padded(oracle_poly_mul(Poly(a), Poly(b)).coeffs, order)


class TestTruncSeriesOracle:
    """Taylor coefficients by series division against Fraction convolution."""

    def test_from_ratfn(self):
        rng = random.Random(1414)
        for _ in range(150):
            r = rand_ratfn(rng, 3)
            x0 = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-3, 4), Fraction(3)])
            order = rng.randint(1, 10)
            series = TruncSeries.from_ratfn(r, x0, order)
            num, den = r.num.shift(x0), r.den.shift(x0)
            assert series.order == order
            # series * den(x0 + u) == num(x0 + u) through the truncation
            assert _oracle_mul(series.coeffs, den.coeffs, order) == _padded(num.coeffs, order)
        with pytest.raises(PoleAtPoint):
            TruncSeries.from_ratfn(rf("1/(x-1)"), 1, 4)

    def test_entries_are_exact_rationals(self):
        assert TruncSeries([1, Fraction(1, 2), 0, 0], 6).coeffs == (1, Fraction(1, 2), 0, 0, 0, 0)
        for bad in (0.5, "1/2"):
            with pytest.raises(TypeError):
                TruncSeries([1, bad], 3)


def _residual_vanishes(sys, x0, order):
    """dU - A*U vanishes through u^(order-2) and U(x0) = Id: the coefficients
    are those of the Taylor convolution (k+1)*C_(k+1) = sum A_i*C_(k-i)."""
    return list(fundamental_series(sys, x0, order).coeffs) == oracle_fundamental_series(sys, x0, order)


class TestResidual:
    def test_demo(self):
        assert _residual_vanishes(demo_system(), 1, 10)

    def test_random_systems(self):
        rng = random.Random(55)
        for _ in range(6):
            n = rng.choice([1, 2, 3])
            sys_ = system("x", rand_matrix(rng, n).data)
            x0 = Fraction(rng.choice([0, 1, 2, -2]))
            if not is_ordinary_point(sys_, x0):
                continue
            assert _residual_vanishes(sys_, x0, 9)


class TestFunctoriality:
    def test_series_of_construction(self):
        rng = random.Random(56)
        order = 8
        for sys_ in (demo_system(), rand_ordinary_system(rng, 3, 1)):
            u = list(fundamental_series(sys_, 1, order).coeffs)
            for text in ["ext(2,base)", "tensor(base,dual(base))"]:
                c = parse_construction(text)
                big = DiffSystem("x", constr_lie(c, sys_.mat))
                assert constr_series_agrees(c, u, list(fundamental_series(big, 1, order).coeffs))

    def test_construction_series_normalized(self):
        # Constr(U), with U inverted over Q(u) in full, has the Taylor
        # coefficients of the End system's fundamental series, so C_0 = Id
        order = 6
        u = list(fundamental_series(demo_system(), 1, order).coeffs)
        big = constr_group(END_CONSTRUCTION, series_poly_matrix(u))
        end_sys = DiffSystem("x", constr_lie(END_CONSTRUCTION, demo_system().mat))
        assert truncated_coeffs(big, order) == list(fundamental_series(end_sys, 1, order).coeffs)

    def test_derivative_compatibility_on_series(self):
        # dU = A*U implies d Constr(U) = constr_lie(c, A) * Constr(U): with
        # Constr(U)(x0) = Id, Constr(U) is the Taylor convolution of constr_lie
        order = 9
        sys_ = demo_system()
        u = list(fundamental_series(sys_, 1, order).coeffs)
        for text in ["ext(2,base)", "tensor(base,dual(base))", "sym(2,base)"]:
            c = parse_construction(text)
            lie = DiffSystem("x", constr_lie(c, sys_.mat))
            assert constr_series_agrees(c, u, oracle_fundamental_series(lie, 1, order))


class TestTransport:
    def test_zero_vector(self):
        a = demo_system()
        v = (RatFn.ZERO, RatFn.ZERO)
        assert series_transport(a, Base(), 1, v, 6)

    def test_constant_on_zero_system(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        v = (rf("2"), rf("-5"))
        assert series_transport(zero, Base(), 0, v, 6)

    def test_nonconstant_on_zero_system(self):
        zero = system("x", [["0"]])
        assert not series_transport(zero, Base(), 0, (rf("x"),), 6)

    def test_rational_solutions_are_transported(self):
        sys_ = system("x", [["0", "1"], ["0", "0"]])
        space = rational_solutions(sys_, num_deg_cap=2)
        for v in space.basis:
            for order in (4, 9):
                assert series_transport(sys_, Base(), 2, v, order)

    def test_invariant_vector_in_construction(self):
        a = demo_system()
        v = tuple(rf(s) for s in ("1", "0", "0", "1"))
        assert series_transport(a, END_CONSTRUCTION, 1, v, 8)


@pytest.mark.parametrize("point", [0.1, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda x0: fundamental_series(demo_system(), x0, 3),
        lambda x0: TruncSeries.from_ratfn(rf("1/(x+2)"), x0, 3),
        lambda x0: is_ordinary_point(demo_system(), x0),
        lambda x0: verify_reduction_matrix(demo_system(), Mat.identity(RF, 2), x0, []),
    ],
    ids=[
        "fundamental_series",
        "from_ratfn",
        "is_ordinary_point",
        "verify_reduction_matrix",
    ],
)
def test_inexact_point_is_type_error(entry, point):
    # Fraction(0.1) and Fraction("1/2") would expand at a binary float or
    # parse a string; exact points are ints and Fractions only
    with pytest.raises(TypeError):
        entry(point)
