"""Exact arithmetic: worked values, field axioms, and round trips."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redform import (
    DivisionByZero,
    ParseError,
    Poly,
    PoleAtPoint,
    RatFn,
    parse_ratfn,
    poly_str,
    ratfn_str,
    rf_arith,
    rf_diff,
    rf_eval,
    rf_substitute_power,
)
from redform.linalg import RF, Mat, mat_vec
from redform.ratfun import (
    _clear_all,
    _int_gcd,
    common_denominator,
    integer_roots,
    parse_rat,
    poly_sqrt,
    rat_str,
    ratfn_sqrt,
)

from helpers import (
    oracle_integer_roots,
    oracle_parse_ratfn,
    oracle_poly_divmod,
    oracle_poly_gcd,
    oracle_poly_mul,
    oracle_poly_shift,
    oracle_poly_sqrt,
    rand_matrix,
    rand_poly,
    rand_ratfn,
    rf,
)


class TestArith:
    def test_telescoping_sum(self):
        assert rf_arith(rf("x/(x+1)"), rf("1/(x+1)"), "add") == RatFn.ONE

    def test_inverse_product(self):
        assert rf_arith(rf("1/(2*x)"), rf("2*x"), "mul") == RatFn.ONE

    def test_gcd_cancellation_on_construction(self):
        assert rf("(x^2-1)/(x-1)") == rf("x+1")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            rf_arith(rf("x"), RatFn.ZERO, "div")

    def test_zero_is_canonical(self):
        assert (rf("x") - rf("x")).den == Poly.ONE


class TestDiff:
    def test_quotient_rule(self):
        assert rf_diff(rf("1/(2*x)")) == rf("-1/(2*x^2)")

    def test_constant(self):
        assert rf_diff(rf("7/3")) == RatFn.ZERO

    def test_power(self):
        assert rf_diff(rf("x^3")) == rf("3*x^2")


class TestEval:
    def test_simple(self):
        assert rf_eval(rf("1/(2*x)"), 1) == Fraction(1, 2)

    def test_poly(self):
        assert rf_eval(rf("x^2+1"), 2) == 5

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            rf_eval(rf("1/x"), 0)


class TestSubstitutePower:
    def test_inverse_scaling(self):
        assert rf_substitute_power(rf("1/(2*x)"), 2) == rf("1/(2*t^2)", "t")

    def test_cube(self):
        assert rf_substitute_power(rf("x"), 3) == rf("t^3", "t")

    def test_rational(self):
        assert rf_substitute_power(rf("x/(x+1)"), 2) == rf("t^2/(t^2+1)", "t")


class TestParsing:
    def test_spec_grammar_example(self):
        r = parse_ratfn("(x^2+1)/(2*x)")
        assert r.num == Poly([Fraction(1, 2), 0, Fraction(1, 2)])
        assert r.den == Poly([0, 1])

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_ratfn("y + 1", var="x")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_ratfn("x +* 2")

    def test_unary_minus_and_powers(self):
        assert parse_ratfn("-x^2 + 3") == rf("3") - rf("x") * rf("x")

    def test_division_by_zero_inside(self):
        with pytest.raises(ParseError):
            parse_ratfn("1/(x - x)")

    def test_input_at_the_size_bounds_parses(self):
        assert parse_ratfn("(" * 100 + "x" + ")" * 100) == rf("x")
        assert parse_ratfn("-" * 100 + "x") == rf("x")
        assert parse_ratfn("x^1000").num.degree == 1000
        assert parse_ratfn("2^5000") == RatFn.const(2 ** 5000)
        with pytest.raises(ParseError):
            parse_ratfn("(" * 101 + "x" + ")" * 101)
        with pytest.raises(ParseError):
            parse_ratfn("x^1001")
        with pytest.raises(ParseError):
            parse_ratfn("2^5001")


# ---------------------------------------------------------------------------
# Property tests

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys_st = st.lists(fractions_st, min_size=0, max_size=4).map(Poly)
nonzero_polys_st = polys_st.filter(lambda p: not p.is_zero)
ratfns_st = st.builds(RatFn, polys_st, nonzero_polys_st)
nonzero_ratfns_st = ratfns_st.filter(lambda r: not r.is_zero)


@settings(max_examples=120, deadline=None)
@given(ratfns_st, ratfns_st, ratfns_st)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RatFn.ZERO == a
    assert a * RatFn.ONE == a


@settings(max_examples=80, deadline=None)
@given(nonzero_ratfns_st)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == RatFn.ONE


@settings(max_examples=100, deadline=None)
@given(ratfns_st, ratfns_st)
def test_leibniz_rule(a, b):
    assert rf_diff(a * b) == rf_diff(a) * b + a * rf_diff(b)


@settings(max_examples=100, deadline=None)
@given(ratfns_st, ratfns_st)
def test_normalization_is_canonical(a, b):
    # two arithmetic paths to the same value, bit-identical representations
    lhs = (a + b) * (a - b)
    rhs = a * a - b * b
    assert lhs.num.coeffs == rhs.num.coeffs
    assert lhs.den.coeffs == rhs.den.coeffs


@settings(max_examples=100, deadline=None)
@given(ratfns_st, ratfns_st, st.integers(min_value=-3, max_value=3))
def test_eval_commutes_with_arithmetic(a, b, x0):
    if a.has_pole_at(x0) or b.has_pole_at(x0):
        return
    product = a * b
    if not product.has_pole_at(x0):
        assert rf_eval(product, x0) == rf_eval(a, x0) * rf_eval(b, x0)
    total = a + b
    if not total.has_pole_at(x0):
        assert rf_eval(total, x0) == rf_eval(a, x0) + rf_eval(b, x0)


@settings(max_examples=100, deadline=None)
@given(ratfns_st)
def test_print_parse_roundtrip(a):
    assert parse_ratfn(ratfn_str(a, "x"), "x") == a


@settings(max_examples=60, deadline=None)
@given(ratfns_st, st.integers(min_value=1, max_value=3))
def test_substitution_is_a_field_morphism(a, m):
    b = a * a + a
    assert rf_substitute_power(b, m) == (
        rf_substitute_power(a, m) * rf_substitute_power(a, m) + rf_substitute_power(a, m)
    )


# ---------------------------------------------------------------------------
# Root helpers


def test_integer_roots():
    p = Poly([6, -5, 1])  # (x-2)(x-3)
    assert integer_roots(p) == [2, 3]
    assert integer_roots(Poly([0, Fraction(1, 2), Fraction(-1, 2)])) == [0, 1]  # x(1-x)/2
    # 1, 4, 6, 8 collide mod 3, 5 and 7, where the collided roots are not
    # simple and cannot be lifted, so lifting starts at 11
    p = Poly([-1, 1]) * Poly([-4, 1]) * Poly([-6, 1]) * Poly([-8, 1])
    assert integer_roots(p) == [1, 4, 6, 8]


def test_integer_roots_past_any_search_window():
    # (x - 10^20)(x + 3)(2x - 1)^2 x: a root far outside any scan window, a
    # repeated rational non-integer factor, and the root 0
    p = Poly([0, 1])
    for factor in ([-(10 ** 20), 1], [3, 1], [-1, 2], [-1, 2]):
        p = p * Poly(factor)
    assert integer_roots(p) == [-3, 0, 10 ** 20]
    # a prime trailing coefficient just below 10^14, the old divisor scan's
    # slowest case, and one far past it
    assert integer_roots(Poly([99999999999973, 0, 1])) == []
    assert integer_roots(Poly([-(10 ** 40 + 1) * 3, 10 ** 40 - 2, 1])) == [-(10 ** 40) - 1, 3]


@pytest.mark.parametrize(
    "factors, roots",
    [
        ([[-1, 1], [-4, 1]], [1, 4]),  # squarefree, 1 = 4 mod 3
        ([[-2, 1], [-2, 1], [3, 1]], [-3, 2]),  # not squarefree
        ([[1, 0, 1], [1, 0, 1], [-2, 1]], [2]),  # (x^2+1)^2 has no root mod 3
    ],
)
def test_integer_roots_collisions_mod_3_and_repeated_roots(factors, roots):
    p = Poly([1])
    for factor in factors:
        p = p * Poly(factor)
    assert integer_roots(p) == roots


def _seeded_root_poly(rng):
    """A nonzero polynomial mixing the shapes the root finder must handle:
    integer roots of multiplicity up to 3, a power of 2x - 1, an irreducible
    quadratic, a power of x, non-unit content and Fraction coefficients."""
    p = Poly([rng.choice([Fraction(1), Fraction(rng.randint(-30, 30) or 7, rng.randint(1, 12))])])
    budget = 6  # total integer-root multiplicity: |a0| <= 9^6 * 50 after clearing
    for _ in range(rng.randint(0, 3)):
        mult = rng.randint(1, min(3, budget)) if budget else 0
        budget -= mult
        z = rng.randint(-9, 9) or 1
        p = p * Poly([-z, 1]) ** mult
    if rng.random() < 0.4:
        p = p * Poly([-1, 2]) ** rng.randint(1, 2)
    if rng.random() < 0.4:
        c = rng.choice([c for c in range(-50, 51) if c < 0 or math.isqrt(c) ** 2 != c])
        p = p * Poly([-c, 0, 1])  # x^2 - c, c not a square
    return p * Poly([0, 1]) ** rng.choice([0, 0, 0, 1, 2, 3])


def test_integer_roots_match_the_divisor_oracle_seeded():
    rng = random.Random(8)
    polys = [_seeded_root_poly(rng) for _ in range(300)]
    # the draw reaches constants, linear and high-degree polynomials
    assert {p.degree for p in polys} >= {0, 1, 2, 6, 10}
    for i, p in enumerate(polys):
        assert integer_roots(p) == oracle_integer_roots(p), (i, p.coeffs)


def test_poly_sqrt():
    p = Poly([1, 2, 1])  # (x+1)^2
    assert poly_sqrt(p) == Poly([1, 1])
    assert poly_sqrt(Poly([0, 1])) is None


def test_ratfn_sqrt():
    assert ratfn_sqrt(rf("(x^2+2*x+1)/(4)")) == rf("(x+1)/2")
    assert ratfn_sqrt(rf("1/x")) is None


def _nonzero_poly(rng, max_deg):
    p = Poly()
    while p.is_zero:
        p = rand_poly(rng, max_deg)
    return p


def test_poly_sqrt_and_ratfn_sqrt_match_the_recurrence():
    """squares s^2 (with s of either sign), non-squares s^2*(x+1) and
    s^2*(x^2+2), and square polynomials times a non-square or negative
    leading coefficient"""
    rng = random.Random(2718)
    for _ in range(120):
        s = _nonzero_poly(rng, 4)
        square = s * s
        cases = [square, square * Poly([1, 1]), square * Poly([2, 0, 1])]
        cases += [square * c for c in (2, Fraction(3, 2), -1, Fraction(9, 4))]
        for p in cases:
            assert poly_sqrt(p) == oracle_poly_sqrt(p), p.coeffs
        assert poly_sqrt(square) == (s if s.leading > 0 else -s)
        t = _nonzero_poly(rng, 3).monic()
        for num, den in ((square, t * t), (square, t * t * Poly([1, 1])), (-square, t * t)):
            r = RatFn(num, den)
            roots = oracle_poly_sqrt(r.num), oracle_poly_sqrt(r.den)
            want = None if None in roots else RatFn(*roots)
            assert ratfn_sqrt(r) == want


def test_common_denominator_and_clear_all_match_scaling_by_the_lcm():
    """against the route they replace: den the Poly.lcm of the entries'
    denominators, numerators (e * RatFn(den)).num, and the coefficients of
    all numerators cleared together by one _clear"""
    x = Poly([0, 1])
    fixed = [
        [RatFn.ZERO],
        [RatFn.const(Fraction(3, 4)), RatFn.const(-2)],
        [rf("1/x"), rf("3/x"), rf("x/(x+1)")],  # repeated
        [rf("1/(x-1)"), rf("2/(x+2)"), rf("(x^2+1)/(3*x+1)")],  # coprime
        [rf("1/x"), rf("1/x^2"), rf("5/x^3"), rf("1/(x^2*(x+1))")],  # nested
        [RatFn.ZERO, rf("7/(2*x-1)"), RatFn.ZERO, RatFn.const(Fraction(1, 3))],
    ]
    rng = random.Random(3141)
    dens = [Poly.ONE, x, x * x, Poly([1, 1]), Poly([-1, 1]) ** 2, Poly([1, 0, 1])]
    drawn = [
        [
            RatFn(rand_poly(rng, 3), rng.choice(dens) * rng.choice(dens)) if rng.random() < 0.8 else RatFn.ZERO
            for _ in range(rng.randint(1, 6))
        ]
        for _ in range(150)
    ]
    for entries in fixed + drawn:
        den, nums = common_denominator(entries)
        want = Poly.ONE
        for e in entries:
            want = want.lcm(e.den)
        assert den == want
        scaled = [e * RatFn(want) for e in entries]
        assert all(r.den == Poly.ONE for r in scaled)
        assert nums == [r.num for r in scaled]
        ints, scale = _clear_all(nums)
        assert scale > 0
        assert [len(a) for a in ints] == [len(p.coeffs) for p in nums]
        assert all(type(c) is int for a in ints for c in a)
        assert [[c * scale for c in a] for a in ints] == [list(p.coeffs) for p in nums]
        flat = [c for a in ints for c in a]
        assert math.gcd(*flat) == (1 if any(flat) else 0)


def test_poly_str_roundtrip_fractional():
    p = Poly([Fraction(1, 2), 0, Fraction(-3, 2)])
    assert parse_ratfn(poly_str(p, "x"), "x") == RatFn(p)


def test_power_matches_normalized_construction():
    # the power skips the gcd; it must equal the normalizing constructor
    rng = random.Random(1729)
    cases = [RatFn.ZERO, RatFn.ONE, RatFn.const(Fraction(-2, 3)), rf("(2*x+1)/(x^2+3)")]
    cases += [rand_ratfn(rng, max_deg=3) for _ in range(40)]
    for r in cases:
        for k in range(-3, 7):
            if k < 0 and r.is_zero:
                with pytest.raises(DivisionByZero):
                    r ** k
                continue
            num, den = (r.num, r.den) if k >= 0 else (r.den, r.num)
            expected = RatFn(num ** abs(k), den ** abs(k))
            got = r ** k
            assert (got.num, got.den) == (expected.num, expected.den), (r, k)


# ---------------------------------------------------------------------------
# The integer kernel against the Euclidean algorithm over Q

_BIG = 10 ** 20
_KERNEL_COEFFS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, -7),
                  _BIG + 3, Fraction(-_BIG, 7), Fraction(3, _BIG - 1), Fraction(_BIG + 1, -(_BIG + 9))]


def _kernel_poly(rng, deg):
    coeffs = [Fraction(rng.choice(_KERNEL_COEFFS)) for _ in range(deg)]
    return Poly(coeffs + [Fraction(rng.choice(_KERNEL_COEFFS[1:]))])


def _kernel_pairs():
    rng = random.Random(8191)
    pairs = []
    for _ in range(150):
        f = _kernel_poly(rng, rng.randint(0, 3))
        if rng.random() < 0.3:
            f = oracle_poly_mul(f, f)  # repeated factors
        a = oracle_poly_mul(f, _kernel_poly(rng, rng.randint(0, 3)))
        b = oracle_poly_mul(f, _kernel_poly(rng, rng.randint(0, 3)))
        pairs.append((a, b))
    edge = [
        Poly(),
        Poly.const(Fraction(-5, 3)),
        Poly.const(_BIG),
        Poly([1, -3, -2]),  # negative leading coefficient
        Poly([1, 2, 1]),  # (x + 1)^2
        Poly([Fraction(1, -_BIG), 0, Fraction(_BIG, 3)]),
        Poly.x(),
    ]
    pairs += [(p, q) for p in edge for q in edge]
    # the gcd is one of the arguments
    pairs.append((Poly([1, 2, 1]), Poly([1, 3, 3, 1])))
    pairs.append((Poly([-2, -2]), Poly([-1, 0, 1])))
    return pairs


_PAIRS = _kernel_pairs()


def _is_canonical(p):
    return all(type(c) is Fraction for c in p.coeffs) and (not p.coeffs or p.coeffs[-1] != 0)


def test_gcd_and_lcm_match_the_euclidean_oracle():
    for a, b in _PAIRS:
        g = a.gcd(b)
        assert g.coeffs == oracle_poly_gcd(a, b).coeffs, (a, b)
        assert _is_canonical(g)
        lcm = a.lcm(b)
        if a.is_zero or b.is_zero:
            assert lcm.is_zero
        else:
            assert lcm.coeffs == (oracle_poly_mul(a, b) // g).monic().coeffs, (a, b)


def test_product_matches_the_convolution():
    for a, b in _PAIRS:
        got = a * b
        assert got.coeffs == oracle_poly_mul(a, b).coeffs, (a, b)
        assert _is_canonical(got)


def test_divmod_matches_long_division():
    rng = random.Random(4099)
    pairs = [(a, b) for a, b in _PAIRS if not b.is_zero]
    pairs += [(_kernel_poly(rng, rng.randint(0, 6)), _kernel_poly(rng, rng.randint(0, 3))) for _ in range(150)]
    pairs += [
        (Poly([1, 2, 3, 4, 5]), Poly([Fraction(1, 3), 0, Fraction(-5, 2)])),  # non-monic, rational
        (Poly([7, Fraction(-1, 2), 3]), Poly.const(Fraction(-3, 7))),  # constant divisor
        (Poly([1, 1]), Poly([0, 0, Fraction(2, 5)])),  # deg a < deg b
        (Poly(), Poly([1, -3, -2])),  # zero dividend, negative leading coefficient
        (Poly([_BIG, -_BIG, 1, _BIG + 1]), Poly([-(_BIG - 1), Fraction(-_BIG, 3)])),
    ]
    for a, b in pairs:
        quot, rem = divmod(a, b)
        want_quot, want_rem = oracle_poly_divmod(a, b)
        assert (quot.coeffs, rem.coeffs) == (want_quot.coeffs, want_rem.coeffs), (a, b)
        assert (a // b).coeffs == want_quot.coeffs and (a % b).coeffs == want_rem.coeffs
        assert _is_canonical(quot) and _is_canonical(rem)


def test_parse_rat_accepts_the_fraction_syntax():
    cases = {
        "-3/2": Fraction(-3, 2), " +3/2 ": Fraction(3, 2), "1.": 1, ".5": Fraction(1, 2),
        "-1.25e-3": Fraction(-1, 800), "1e5": 10 ** 5, "2E+2": 200, "1_000": 1000,
        "0.000_1": Fraction(1, 10000), "7/0_3": Fraction(7, 3), "\t8\n": 8, "-0": 0,
    }
    for text, value in cases.items():
        assert parse_rat(text) == value, text
    for text in ["", "1/0", "1 / 2", "1.5/2", "1__0", "_1", "x", "1e", "--1", "1.2.3"]:
        with pytest.raises(ParseError):
            parse_rat(text)


def test_parse_rat_bounds_digits_and_exponent():
    assert parse_rat("1e4599") == 10 ** 4599
    assert parse_rat("-3e-4599") == Fraction(-3, 10 ** 4599)
    # 4,516 digits, past the interpreter's int conversion limit
    assert parse_rat("12" * 2258 + "/7") == Fraction(12 * (10 ** 4516 - 1) // 99, 7)
    for text in ["1e4600", "1e-4600", "1e100000", "1.5e4599", "9" * 4601, "1e" + "9" * 5000]:
        with pytest.raises(ParseError):
            parse_rat(text)


def test_normalization_matches_the_euclidean_oracle():
    for num, den in _PAIRS:
        if den.is_zero:
            with pytest.raises(DivisionByZero):
                RatFn(num, den)
            continue
        got = RatFn(num, den)
        if num.is_zero:
            assert (got.num.coeffs, got.den.coeffs) == ((), (1,))
            continue
        g = oracle_poly_gcd(num, den)
        n, d = num // g, den // g
        lead = d.leading
        expected = (tuple(c / lead for c in n.coeffs), tuple(c / lead for c in d.coeffs))
        assert (got.num.coeffs, got.den.coeffs) == expected, (num, den)
        assert _is_canonical(got.num) and _is_canonical(got.den)


def test_ratfn_str_prints_the_integer_cleared_pair():
    r = RatFn(Poly([Fraction(1, 3), Fraction(1, 2)]), Poly([Fraction(1, 5), 0, Fraction(1, 4)]))
    assert ratfn_str(r) == "(30*x + 20)/(15*x^2 + 12)"
    r = RatFn(Poly([0, Fraction(-4, 3)]), Poly([Fraction(2, 9), Fraction(2, 3)]))
    assert ratfn_str(r) == "(-6*x)/(3*x + 1)"


def test_integer_roots_divide_out_the_content():
    # 10^15 (x - 2)(x - 3): the content does not change the roots
    p = Poly([6 * 10 ** 15, -5 * 10 ** 15, 10 ** 15])
    assert integer_roots(p) == [2, 3]
    assert integer_roots(Poly([0, 0, Fraction(-3, 4), Fraction(3, 8)])) == [0, 2]


# ---------------------------------------------------------------------------
# Numbers past the interpreter's int <-> decimal digit limit


def test_rat_str_past_the_digit_limit():
    assert rat_str(Fraction(10 ** 5000 + 7)) == "1" + "0" * 4999 + "7"
    assert rat_str(Fraction(-(10 ** 4000) * 3 - 5)) == "-3" + "0" * 3999 + "5"
    assert rat_str(Fraction(10 ** 6000 - 1, 10 ** 4400 + 1)) == "9" * 6000 + "/1" + "0" * 4399 + "1"
    assert rat_str(Fraction(-7, 12)) == "-7/12"
    assert rat_str(Fraction(0)) == "0"


def test_literal_digit_bound_and_round_trip():
    value = 2 ** 15000  # 4,516 digits
    text = ratfn_str(RatFn.const(value))
    assert len(text) == 4516
    assert parse_ratfn(text) == RatFn.const(value)
    assert parse_ratfn("0" * 10 + "7" * 4590) == RatFn.const(7 * (10 ** 4590 - 1) // 9)
    with pytest.raises(ParseError):
        parse_ratfn("7" * 4601)


# ---------------------------------------------------------------------------
# The integer-pair parser and RF products against RatFn arithmetic


def _parse_outcome(parse, text):
    try:
        r = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return r.num.coeffs, r.den.coeffs


_LEAVES = ["0", "1", "2", "3", "x", "(x-1)", "(2*x+2)", "(-2*x+1)", "(x+1)"]


def _rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    kind = rng.choice("+-*/^nn")
    if kind == "n":
        return "-" + _rand_expr(rng, depth - 1)
    if kind == "^":
        return f"({_rand_expr(rng, depth - 1)})^{rng.randint(0, 3)}"
    return f"({_rand_expr(rng, depth - 1)}){kind}({_rand_expr(rng, depth - 1)})"


def test_parse_matches_the_ratfn_arithmetic_oracle_on_random_trees():
    rng = random.Random(14)
    errors = 0
    for _ in range(400):
        text = _rand_expr(rng, 4)
        got = _parse_outcome(parse_ratfn, text)
        assert got == _parse_outcome(oracle_parse_ratfn, text), text
        errors += got[0] == "error"
    assert 0 < errors < 100


@pytest.mark.parametrize(
    "text",
    [
        "1/x + 1/(2*x)",
        "1/x - 1/(2*x)",
        "(2*x+2)/(x+1)",
        "x/(2*x)",
        "3/(-2*x^2+1) + x",
        "(x+1)/(x-1) - (x+1)/(x-1)",
        "1/(x-1) + 1/(1-x)",
        "(x^2-1)/(x-1)*0",
        "((x+1)/(2*x-2))^3 * ((x-1)/(x+1))^2",
        "((2*x^2-2)/(4*x+4))^2",
        "(1/(x-1) + 1/(x+1))^2 / (x/(x^2-1))",
    ],
)
def test_parse_edge_cases_match_the_oracle(text):
    assert _parse_outcome(parse_ratfn, text) == _parse_outcome(oracle_parse_ratfn, text)


@pytest.mark.parametrize(
    "text", ["1/(x-x)", "1/0", "x/(x^2-x^2)", "x^1001", "2^5001", "((x+1)/x)^1001", "(2*x/3)^5000"]
)
def test_parse_errors_match_the_oracle(text):
    got = _parse_outcome(parse_ratfn, text)
    assert got[0] == "error"
    assert got == _parse_outcome(oracle_parse_ratfn, text)


def test_power_bound_reads_the_normalized_base():
    # each base is x + 1, of degree 1: 600 <= 1000.  The quotient cancels in
    # the pair product; the difference, a pair of degree 2, only when the
    # base is normalized
    for text in ["((x^2-1)/(x-1))^600", "(x^2/(x-1) - 1/(x-1))^600"]:
        assert parse_ratfn(text) == RatFn(Poly([1, 1]) ** 600)


def test_int_gcd_is_primitive():
    # a non-primitive input that divides the other: x against 2x
    assert _int_gcd([0, 1], [0, 2]) in ([0, 1], [0, -1])
    assert _int_gcd([0, 6], [0, 4]) in ([0, 1], [0, -1])
    assert _int_gcd([2, 2, 4, 4], [6, 6]) in ([1, 1], [-1, -1])


def test_shift_matches_horner_on_poly_products():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(rng, 6)
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert p.shift(x0).coeffs == oracle_poly_shift(p, x0).coeffs, (p, x0)
    p = rand_poly(rng, 6)
    assert p.shift(0) is p


def _fold(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def test_rf_matmul_and_mat_vec_match_the_fold():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(6):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            cols = list(zip(*b.data))
            expected = [[_fold(row, col) for col in cols] for row in a.data]
            assert [list(row) for row in (a * b).data] == expected
            assert list(mat_vec(a, cols[0])) == [_fold(row, cols[0]) for row in a.data]
    assert (Mat.zeros(RF, 2, 3) * Mat.zeros(RF, 3, 2)) == Mat.zeros(RF, 2, 2)
