"""Exact arithmetic: worked values, field axioms, and round trips."""

import math
import operator
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
)
from redform import ratfun
from redform.linalg import RF, Mat, charpoly_ints, mat_vec, nullspace
from redform.ratfun import (
    _clear_all,
    _int_gcd,
    _int_mul,
    _pair_add,
    _pair_ratfn,
    _value,
    common_denominator,
    integer_roots,
    parse_rat,
    poly_sqrt,
    rat_str,
    rational_roots,
    ratfn_sqrt,
)

from helpers import (
    oracle_integer_roots,
    oracle_integer_roots_within,
    oracle_parse_ratfn,
    oracle_rational_roots,
    oracle_poly_add,
    oracle_poly_derivative,
    oracle_poly_divmod,
    oracle_poly_eval,
    oracle_poly_gcd,
    oracle_poly_monic,
    oracle_poly_mul,
    oracle_poly_shift,
    oracle_poly_substitute_power,
    oracle_poly_sqrt,
    oracle_ratfn,
    oracle_ratfn_add,
    oracle_ratfn_derivative,
    oracle_ratfn_div,
    oracle_ratfn_mul,
    oracle_ratfn_sqrt,
    oracle_ratfn_str,
    oracle_ratfn_substitute_power,
    rand_matrix,
    rand_poly,
    rand_ratfn,
    rf,
    time_limit,
)


class TestArith:
    def test_telescoping_sum(self):
        assert rf("x/(x+1)") + rf("1/(x+1)") == RatFn.ONE

    def test_inverse_product(self):
        assert rf("1/(2*x)") * rf("2*x") == RatFn.ONE

    def test_gcd_cancellation_on_construction(self):
        assert rf("(x^2-1)/(x-1)") == rf("x+1")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            rf("x") / RatFn.ZERO

    def test_zero_is_canonical(self):
        assert (rf("x") - rf("x")).den == Poly.ONE


class TestDiff:
    def test_quotient_rule(self):
        assert rf("1/(2*x)").derivative() == rf("-1/(2*x^2)")

    def test_constant(self):
        assert rf("7/3").derivative() == RatFn.ZERO

    def test_power(self):
        assert rf("x^3").derivative() == rf("3*x^2")


class TestEval:
    def test_simple(self):
        assert rf("1/(2*x)")(1) == Fraction(1, 2)

    def test_poly(self):
        assert rf("x^2+1")(2) == 5

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            rf("1/x")(0)

    def test_zero_and_constants_at_rational_points(self):
        for x0 in (Fraction(1, 2), Fraction(-7, 3), Fraction(5, 10 ** 15 + 37)):
            for p in (Poly(), Poly.const(Fraction(-5, 3)), Poly.const(_BIG)):
                value = p(x0)
                assert value == (p.coeffs[0] if p.coeffs else 0) and type(value) is Fraction


def test_value_matches_fraction_evaluation_seeded():
    # l^top * p(y/l) on integer lists, the empty one and trailing zeros
    # included, against the sum over Fractions; top reaches past the degree
    rng = random.Random(26)
    for l in range(1, 6):
        for _ in range(60):
            ints = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            y = rng.randint(-30, 30)
            top = len(ints) - 1 + rng.randint(0, 3)
            want = sum(c * Fraction(y, l) ** k for k, c in enumerate(ints)) * l ** top
            assert _value(ints, y, l, top) == want, (ints, y, l, top)
            if l == 1:
                assert _value(ints, y) == want
                m = rng.choice([3, 7, 2 ** 61 - 1])
                assert _value(ints, y, mod=m) == want % m, (ints, y, m)
    assert _value([], -3) == _value([], 2, 5, 4) == _value([], 2, mod=5) == 0


class TestSubstitutePower:
    def test_inverse_scaling(self):
        assert rf("1/(2*x)").substitute_power(2) == rf("1/(2*t^2)", "t")

    def test_cube(self):
        assert rf("x").substitute_power(3) == rf("t^3", "t")

    def test_rational(self):
        assert rf("x/(x+1)").substitute_power(2) == rf("t^2/(t^2+1)", "t")


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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_ratfn, "x @ 1", "unexpected character '@' at offset 2"),
            (parse_ratfn, "x+" * 5000 + "#", "unexpected character '#' at offset 10000"),
            (parse_ratfn, "y + 1", "unknown symbol 'y', expected variable 'x'"),
            (
                parse_ratfn,
                "y" * 100_000,
                "unknown symbol 'yyyyyyyyyyyyyyyyyyyy'... (100000 characters), expected variable 'x'",
            ),
            (parse_rat, "1/2#", "invalid rational constant '1/2#'"),
            (
                parse_rat,
                "1/" + "2" * 5000 + "#",
                "invalid rational constant '1/222222222222222222'... (5003 characters)",
            ),
            (parse_rat, "1/" + "0" * 30, "invalid rational constant '1/000000000000000000'... (32 characters)"),
        ],
    )
    def test_error_messages_quote_a_short_prefix(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

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


@pytest.mark.parametrize(
    "text, check",
    [
        # 5,000 cancelling quotients, which take seconds without the
        # cross-cancellation in the pair product
        ("*".join(f"(x+{i})/(x+{i})" for i in range(1, 5001)), lambda r: r == RatFn.ONE),
        # 1,000 quotients of consecutive linears, which took minutes when
        # every partial sum was normalized
        ("+".join(f"(x+{i})/(x+{i + 1})" for i in range(1000)), lambda r: r.den.degree == 1000),
    ],
    ids=["cancelling-product", "telescoping-sum"],
)
def test_long_products_and_sums_parse_in_time(text, check):
    with time_limit(60):
        assert check(parse_ratfn(text))


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
    assert a * (RatFn.ONE / a) == RatFn.ONE


@settings(max_examples=100, deadline=None)
@given(ratfns_st, ratfns_st)
def test_leibniz_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


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
        assert product(x0) == a(x0) * b(x0)
    total = a + b
    if not total.has_pole_at(x0):
        assert total(x0) == a(x0) + b(x0)


@settings(max_examples=100, deadline=None)
@given(ratfns_st)
def test_print_parse_roundtrip(a):
    assert parse_ratfn(ratfn_str(a, "x"), "x") == a


@settings(max_examples=60, deadline=None)
@given(ratfns_st, st.integers(min_value=1, max_value=3))
def test_substitution_is_a_field_morphism(a, m):
    b = a * a + a
    assert b.substitute_power(m) == (
        a.substitute_power(m) * a.substitute_power(m) + a.substitute_power(m)
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


def _planted_charpoly_matrix(rng, n):
    """An n x n integer matrix conjugate to a triangular one: diagonal
    entries in -40..40, so repeated, and some blocks [[0, 1], [c, 0]] with
    irrational eigenvalues +-sqrt(c), then n seeded row-and-column
    operations that keep the characteristic polynomial."""
    a = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.1:
            a[i][i + 1], a[i + 1][i] = 1, rng.choice([2, 3, 5, 7, -1])
            i += 2
        else:
            a[i][i] = rng.randint(-40, 40)
            i += 1
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.05:
                a[i][j] = rng.randint(-2, 2)
    for _ in range(n):
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice([-1, 1])
        if i != j:
            # conjugation by I + c*E_ij: add c times row j to row i, then
            # subtract c times column i from column j
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in a:
                row[j] -= c * row[i]
    return a


def test_integer_roots_of_large_charpolys_match_the_window_oracle_seeded():
    # degree-100 characteristic polynomials of a/d with coefficients of
    # hundreds of bits, out of reach of divisor enumeration; every root has
    # modulus at most the largest absolute row sum of a/d (Gershgorin), so
    # the oracle scans the divisors up to it
    rng = random.Random(29)
    polys = []
    for d in (2, 1):
        a = _planted_charpoly_matrix(rng, 100)
        p = charpoly_ints(a, d)
        polys.append(p)
        bound = max(sum(map(abs, row)) for row in a) // d + 1
        assert integer_roots(p) == oracle_integer_roots_within(p, bound)
    assert all(p.degree == 100 and max(abs(c) for c in p.ints) > 2 ** 250 for p in polys)
    assert all(p.gcd(p.derivative()).degree > 0 for p in polys)
    assert any(p.coeff(0) == 0 for p in polys)


def _product(factors, lead=1, k=0):
    """lead * x^k * the product of the integer coefficient lists ``factors``."""
    p = Poly([0] * k + [lead])
    for factor in factors:
        p = p * Poly(factor)
    return p


def _gcd_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(ratfun, "_int_gcd", lambda a, b: calls.append(len(a)) or _int_gcd(a, b))
    return calls


# (factors, whether f mod 3 has a repeated root, so that gcd(f, f') is taken)
_ROOT_SHAPES = [
    ([[-3, 1], [-3, 1], [1, 1]], True),  # (x-3)^2 (x+1)
    ([[-2, 0, 1], [-2, 0, 1]], False),  # (x^2-2)^2: x^2 - 2 has no root mod 3
    ([[1, 0, 1], [1, 0, 1], [-5, 1]], False),  # (x^2+1)^2 (x-5)
    ([[-1, 1], [-4, 1]], True),  # squarefree, but 1 = 4 mod 3
    ([[-7, 2], [2, 3], [-1, 1]], False),  # (2x-7)(3x+2)(x-1): 3 divides the leading coefficient
    ([[1, 2], [1, 2], [-7, 1]], True),  # (2x+1)^2 (x-7)
    ([[-5, 1], [3, 1]], False),  # (x-5)(x+3)
]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("lead", [1, -6, 35])
@pytest.mark.parametrize("factors, repeated", _ROOT_SHAPES)
def test_integer_roots_take_the_gcd_only_at_a_repeated_root_mod_3(monkeypatch, factors, repeated, lead, k):
    # the content (lead) and the power of x leave f, and so the route, alone
    p = _product(factors, lead, k)
    calls = _gcd_calls(monkeypatch)
    assert integer_roots(p) == oracle_integer_roots(p)
    f = [c % 3 for c in _product(factors).ints]
    df = [i * c % 3 for i, c in enumerate(f)][1:]
    simple = all(_value(df, r, mod=3) for r in range(3) if _value(f, r, mod=3) == 0)
    assert bool(calls) == repeated == (not simple)


def test_integer_roots_match_the_divisor_oracle_on_repeated_factors_seeded(monkeypatch):
    # products of the shapes above with seeded multiplicities, leading
    # coefficients and powers of x; both routes are taken
    rng = random.Random(33)
    calls = _gcd_calls(monkeypatch)
    routes = set()
    for _ in range(120):
        factors = [f for shape, _ in rng.sample(_ROOT_SHAPES, 2) for f in shape if rng.random() < 0.7]
        p = _product(factors, rng.choice([1, -1, 2, 3, -9, 10]), rng.choice([0, 0, 1, 3]))
        before = len(calls)
        assert integer_roots(p) == oracle_integer_roots(p), p.ints
        routes.add(len(calls) > before)
    assert routes == {False, True}


@pytest.mark.parametrize(
    "roots, cofactors",
    [
        ([10 ** 30], [[1, 0, 1]]),
        ([10 ** 30, -(10 ** 30) - 7], [[-2, 0, 1], [-2, 0, 1]]),
        ([10 ** 30 + 1, 10 ** 30 + 1, -3], [[1, 2]]),  # a repeated huge root
        ([-(10 ** 30), 4, 4, 4], [[1, 0, 1], [-1, 3]]),
    ],
)
@pytest.mark.parametrize("k", [0, 1])
def test_integer_roots_of_10_to_the_30_match_the_planted_roots(roots, cofactors, k):
    # past the divisor oracle's reach: the cofactors (x^2+1, x^2-2, 2x+1,
    # 3x-1) have no integer root, so the roots are the planted ones
    p = _product([[-z, 1] for z in roots] + cofactors, -12, k)
    assert integer_roots(p) == sorted(set(roots) | ({0} if k else set()))


def test_rational_roots():
    # (2x - 1)^3 (x + 4)^2: repeated roots, each once, sorted
    assert rational_roots(Poly([-1, 2]) ** 3 * Poly([4, 1]) ** 2) == [-4, Fraction(1, 2)]
    # x^3 (3x + 2): the root 0
    assert rational_roots(Poly([0, 0, 0, 2, 3])) == [Fraction(-2, 3), 0]
    # no rational root, a constant, and a negative leading coefficient with
    # Fraction coefficients: 1 - x/2
    assert rational_roots(Poly([-2, 0, 1])) == []
    assert rational_roots(Poly([Fraction(5, 3)])) == []
    assert rational_roots(Poly([1, Fraction(-1, 2)])) == [2]
    with pytest.raises(ValueError):
        rational_roots(Poly())


def test_rational_roots_with_a_large_leading_coefficient():
    # past the reach of any divisor enumeration: the root 2/3^50 of
    # (3^50 x - 2)(x^2 + 1), and 3^50 x^40 + 1, which has none
    assert rational_roots(Poly([-2, 3 ** 50]) * Poly([1, 0, 1])) == [Fraction(2, 3 ** 50)]
    assert rational_roots(Poly([1] + [0] * 39 + [3 ** 50])) == []


def _seeded_rational_root_poly(rng):
    """A nonzero polynomial with rational roots u/v of multiplicity up to 3,
    sometimes an irreducible quadratic, a power of x or a linear factor with
    the leading coefficient 10^6, and Fraction content."""
    p = Poly([Fraction(rng.randint(-30, 30) or 7, rng.randint(1, 12))])
    for _ in range(rng.randint(0, 2)):
        u, v = rng.randint(-9, 9) or 1, rng.randint(1, 6)
        p = p * Poly([-u, v]) ** rng.randint(1, 3)
    if rng.random() < 0.3:
        c = rng.choice([c for c in range(-50, 51) if c < 0 or math.isqrt(c) ** 2 != c])
        p = p * Poly([-c, 0, 1])  # x^2 - c, c not a square
    if rng.random() < 0.15:
        p = p * Poly([rng.choice([-1, 1, 7]), 10 ** 6])
    return p * Poly([0, 1]) ** rng.choice([0, 0, 0, 1, 2])


def test_rational_roots_match_the_divisor_oracle_seeded():
    rng = random.Random(25)
    polys = [_seeded_rational_root_poly(rng) for _ in range(200)]
    roots = [rational_roots(p) for p in polys]
    # the draw reaches every shape: repeated and non-integer roots, the root
    # 0, a large leading coefficient and no rational root at all
    assert any(p.gcd(p.derivative()).degree > 0 for p in polys)
    assert any(z.denominator > 1 for r in roots for z in r)
    assert any(0 in r for r in roots) and [] in roots
    assert any(abs(p.leading) > 10 ** 6 * abs(p.coeff(0) or 1) for p in polys)
    for i, p in enumerate(polys):
        assert roots[i] == oracle_rational_roots(p), (i, p.coeffs)


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
    all numerators cleared together to coprime integers"""
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
        Poly([0, 1]),
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


def _rand_print_coeff(rng):
    kind = rng.random()
    if kind < 0.3:
        return 0
    if kind < 0.9:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    # past the interpreter's 4,300-digit int-to-string limit
    return Fraction(rng.choice([-1, 1]) * (10 ** 4400 + rng.randint(0, 99)), rng.choice([1, 3, 10 ** 4350 + 1]))


def test_ratfn_str_matches_the_fraction_formatter():
    rng = random.Random(19)
    values = [RatFn.ZERO, RatFn.ONE, RatFn.const(-1), RatFn.const(Fraction(-7, 2)), RatFn(Poly([0, -1]))]
    for _ in range(600):
        num = Poly([_rand_print_coeff(rng) for _ in range(rng.randint(0, 3))])
        den = Poly([_rand_print_coeff(rng) for _ in range(rng.randint(0, 2))] + [rng.choice([-3, -1, 1, 2])])
        values.append(RatFn(num, den))
    assert sum(abs(c.numerator) > 10 ** 4300 for r in values for c in r.num.coeffs + r.den.coeffs) > 20
    for r in values:
        for var in ("x", "t"):
            assert ratfn_str(r, var) == oracle_ratfn_str(r, var)
            assert poly_str(r.num, var) == oracle_ratfn_str(RatFn(r.num), var)
    assert sum(r.num.leading < 0 for r in values) > 100
    assert sum(r.is_constant for r in values) > 20


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


# ---------------------------------------------------------------------------
# The integer form of Poly against the Fraction-tuple oracles

_SCALES = [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-2, 9), Fraction(1, 10 ** 30 + 3),
           Fraction(-(2 ** 70), 3 ** 45), Fraction(10 ** 20 + 1, 2 ** 64)]


def _int_form_poly(rng):
    """Zero, constants, and polynomials of degree up to 5 with a negative or
    non-unit leading coefficient, over a scale with a large denominator."""
    kind = rng.random()
    if kind < 0.06:
        return Poly()
    deg = 0 if kind < 0.18 else rng.randint(1, 5)
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 10 ** 12 + 39])) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-6, -3, -1, 1, 2, 5])))
    scale = rng.choice(_SCALES)
    return Poly([c * scale for c in coeffs])


def _assert_int_form(p):
    assert type(p.ints) is tuple and all(type(c) is int for c in p.ints), p
    assert type(p.scale) is Fraction and p.scale > 0, p
    if p.ints:
        assert p.ints[-1] != 0 and math.gcd(*p.ints) == 1, p
    else:
        assert p.scale == 1
    assert p.coeffs == tuple(c * p.scale for c in p.ints)


def _assert_same(got, want):
    """got is in integer form and is want: equal Fractions, equal integer
    form, == and the same hash."""
    _assert_int_form(got)
    assert got.coeffs == want.coeffs, (got, want)
    assert (got.ints, got.scale) == (want.ints, want.scale)
    assert got == want and hash(got) == hash(want)


def _int_form_pairs():
    rng = random.Random(1515)
    pairs = [(_int_form_poly(rng), _int_form_poly(rng)) for _ in range(300)]
    for _ in range(60):
        # a common factor, so that gcds, quotients and sums cancel
        f = _int_form_poly(rng)
        pairs.append((oracle_poly_mul(f, _int_form_poly(rng)), oracle_poly_mul(f, _int_form_poly(rng))))
    edge = [
        Poly(), Poly.const(-7), Poly.const(Fraction(1, 10 ** 40)), Poly([3, -1]), Poly([0, 0, Fraction(-2, 3)]),
    ]
    pairs += [(p, q) for p in edge for q in edge]
    return pairs


_INT_FORM_PAIRS = _int_form_pairs()


def test_int_form_sum_difference_negation_and_product_match_the_oracle():
    for a, b in _INT_FORM_PAIRS:
        _assert_same(a + b, oracle_poly_add(a, b))
        _assert_same(a - b, oracle_poly_add(a, b, -1))
        _assert_same(-a, oracle_poly_add(Poly(), a, -1))
        _assert_same(a * b, oracle_poly_mul(a, b))
        _assert_same(a ** 2, oracle_poly_mul(a, a))
    a = Poly([1, Fraction(-1, 2)])
    _assert_same(a + 3, oracle_poly_add(a, Poly([3])))
    _assert_same(3 - a, oracle_poly_add(Poly([3]), a, -1))
    _assert_same(a * Fraction(-2, 5), oracle_poly_mul(a, Poly([Fraction(-2, 5)])))


def test_int_form_identities_on_high_powers():
    # gcd, lcm and division of products of high powers with rational
    # cofactors: a wrong scale or content rule fails an identity
    f = Poly([-1, 3])
    a = f ** 150 * Poly([Fraction(1, 7), 0, 1])
    b = f ** 100 * Poly([Fraction(2, 5), 1])
    with time_limit(60):
        g = a.gcd(b)
        assert g == (f ** 100).monic()
        assert a.lcm(b) == (a * b // g).monic()
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        assert divmod(a, g) == (a // g, Poly()) and (a // g) * g == a
    for p in (a, b, g, q, r):
        _assert_int_form(p)


def test_int_form_division_gcd_and_lcm_match_the_oracle():
    for a, b in _INT_FORM_PAIRS:
        g = a.gcd(b)
        _assert_same(g, oracle_poly_gcd(a, b))
        if not (a.is_zero or b.is_zero):
            _assert_same(a.lcm(b), oracle_poly_monic(oracle_poly_divmod(oracle_poly_mul(a, b), g)[0]))
        if b.is_zero:
            continue
        quot, rem = divmod(a, b)
        want_quot, want_rem = oracle_poly_divmod(a, b)
        _assert_same(quot, want_quot)
        _assert_same(rem, want_rem)
        _assert_same(a // b, want_quot)
        _assert_same(a % b, want_rem)
        if not a.is_zero:
            d, s, t = a.xgcd(b)
            _assert_same(d, g)
            assert oracle_poly_add(oracle_poly_mul(s, a), oracle_poly_mul(t, b)) == g


def test_int_form_unary_operations_match_the_oracle():
    rng = random.Random(1516)
    for a, _ in _INT_FORM_PAIRS:
        _assert_same(a.monic(), oracle_poly_monic(a))
        _assert_same(a.derivative(), oracle_poly_derivative(a))
        m = rng.randint(1, 3)
        _assert_same(a.substitute_power(m), oracle_poly_substitute_power(a, m))
        x0 = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 10 ** 15 + 37]))
        assert a(x0) == oracle_poly_eval(a, x0) and type(a(x0)) is Fraction
        assert a(3) == oracle_poly_eval(a, Fraction(3))
        _assert_same(a.shift(x0), oracle_poly_shift(a, x0))


def _q_poly(rng, deg, bits):
    """A Poly of degree deg with coefficients of up to ``bits`` bits over
    small denominators, its leading coefficient of either sign."""
    big = 2 ** bits
    coeffs = [Fraction(rng.randint(-big, big), rng.choice([1, 2, 3, 7])) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, big), rng.choice([1, 5])))
    return Poly(coeffs)


def _ratfn_operands():
    """(values, pairs): zero, constants and seeded rational functions with
    small or 100-bit coefficients and leading numerators of either sign, in
    groups of three over one denominator or over denominators with a common
    factor; the pairs are those with an edge value, those within a group and
    seeded others."""
    rng = random.Random(3434)
    edge = [RatFn.ZERO, RatFn.ONE, RatFn.const(-3), RatFn.const(Fraction(2 ** 100 + 1, 3)), rf("-x^2/(x+1)")]
    groups = []
    for _ in range(10):
        bits = rng.choice([3, 3, 100])
        f = _q_poly(rng, rng.randint(1, 2), bits)
        shared = rng.random() < 0.5
        dens = [oracle_poly_mul(f, _q_poly(rng, rng.randint(0, 2), bits)) if shared else f for _ in range(3)]
        groups.append([RatFn(_q_poly(rng, rng.randint(0, 3), bits), den) for den in dens])
    values = edge + [r for g in groups for r in g]
    pairs = [p for r in edge for s in values for p in ((r, s), (s, r))]
    pairs += [(r, s) for g in groups for r in g for s in g]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(100)]
    return values, pairs


_RATFN_OPERANDS, _RATFN_PAIRS = _ratfn_operands()


def _assert_ratfn(got, want):
    """got is the RatFn whose normalized parts are the pair ``want``."""
    _assert_same(got.num, want[0])
    _assert_same(got.den, want[1])


def test_ratfn_sum_difference_product_quotient_and_poly_sum_match_the_oracle():
    for r, s in _RATFN_PAIRS:
        _assert_ratfn(r + s, oracle_ratfn_add(r, s))
        _assert_ratfn(r - s, oracle_ratfn_add(r, s, -1))
        _assert_ratfn(r * s, oracle_ratfn_mul(r, s))
        if not s.is_zero:
            _assert_ratfn(r / s, oracle_ratfn_div(r, s))
        _assert_same(r.num + s.num, oracle_poly_add(r.num, s.num))
        _assert_same(r.den - s.num, oracle_poly_add(r.den, s.num, -1))


def test_ratfn_derivative_substitute_power_and_sqrt_match_the_oracle():
    rng = random.Random(3435)
    for r in _RATFN_OPERANDS:
        _assert_ratfn(r.derivative(), oracle_ratfn_derivative(r))
        m = rng.randint(1, 3)
        _assert_ratfn(r.substitute_power(m), oracle_ratfn_substitute_power(r, m))
        square = RatFn(oracle_poly_mul(r.num, r.num), oracle_poly_mul(r.den, r.den))
        for q in (r, square, -square, RatFn(square.num, r.den)):
            want = oracle_ratfn_sqrt(q)
            if want is None:
                assert ratfn_sqrt(q) is None, q
            else:
                _assert_ratfn(ratfn_sqrt(q), want)


def test_equal_values_built_along_different_paths_hash_alike():
    x = Poly([0, 1])
    polys = [
        (Poly([Fraction(2, 4)]), Poly.const(Fraction(1, 2))),
        (Poly.monomial(-3, 2), Poly([0, 0, -3])),
        (Poly([0, 1]), Poly.monomial(1, 1)),
        ((x * 6 + 4) // Poly.const(2), Poly([2, 3])),
        ((Poly([1, 2]) * Poly([-3, 5])) // Poly([1, 2]), Poly([-3, 5])),
        (Poly([Fraction(1, 3), 1]) + Poly([Fraction(2, 3), -1]), Poly.ONE),
        (Poly([1, 1]) - Poly([1, 1]), Poly()),
        (Poly([4, 6]).monic(), Poly([Fraction(2, 3), 1])),
    ]
    for p, q in polys:
        _assert_same(p, q)
    ratfns = [
        (RatFn(Poly.const(2), Poly.const(2)), RatFn.ONE),
        (RatFn(Poly([-2, 0, 2]), Poly([-3, 3])), RatFn(Poly([Fraction(2, 3), Fraction(2, 3)]))),
        (RatFn(6, Poly([2, 4])), RatFn(Poly.const(Fraction(3, 2)), Poly([Fraction(1, 2), 1]))),
        (rf("x/x") - 1, RatFn.ZERO),
        (RatFn.const(3), RatFn(Poly.const(-6), -2)),
    ]
    for r, s in ratfns:
        assert r == s and hash(r) == hash(s)
        _assert_same(r.num, s.num)
        _assert_same(r.den, s.den)


def _ratfn_general(op, a, b):
    """a op b through RatFn(num, den), the path the zero and one cases skip."""
    if op is operator.mul:
        return RatFn(a.num * b.num, a.den * b.den)
    sign = 1 if op is operator.add else -1
    return RatFn(a.num * b.den + sign * (b.num * a.den), a.den * b.den)


def test_ratfn_zero_and_one_operands_match_the_general_path():
    rng = random.Random(1517)
    zeros = [RatFn.ZERO, RatFn(Poly(), Poly([1, 1])), rf("x - x")]
    ones = [RatFn.ONE, RatFn(Poly.const(2), Poly.const(2)), rf("(x+1)/(x+1)")]
    others = [rand_ratfn(rng, 3) for _ in range(40)] + zeros + ones + [RatFn.const(Fraction(-5, 3))]
    for r in others:
        for z in zeros + ones:
            for op in (operator.add, operator.sub, operator.mul):
                for got, want in ((op(r, z), _ratfn_general(op, r, z)),
                                  (op(z, r), _ratfn_general(op, z, r))):
                    assert got == want and hash(got) == hash(want), (op, r, z)
                    _assert_same(got.num, want.num)
                    _assert_same(got.den, want.den)
        assert r + 0 == r and 0 + r == r and r * 1 == r and 1 * r == r and r * 0 == RatFn.ZERO


def test_rf_mat_vec_with_zero_rows_and_columns_matches_the_fold():
    rng = random.Random(1518)
    for n in range(1, 6):
        for _ in range(5):
            rows = [list(row) for row in rand_matrix(rng, n, density=0.6).data]
            rows[rng.randrange(n)] = [RatFn.ZERO] * n
            j = rng.randrange(n)
            for row in rows:
                row[j] = RatFn.ZERO
            m = Mat(RF, rows)
            vec = [rand_ratfn(rng) if rng.random() < 0.6 else RatFn.ZERO for _ in range(n)]
            got = mat_vec(m, vec)
            assert list(got) == [_fold(row, vec) for row in rows]
            assert all(hash(a) == hash(_fold(row, vec)) for a, row in zip(got, rows))
            assert mat_vec(m, [0] * n) == (RatFn.ZERO,) * n


def _assert_canonical(r):
    """r's stored pair (a, b) is canonical: int tuples, a and b coprime in
    Q[x], the content of all their coefficients 1 and lead(b) > 0, zero as
    ((), (1,)); and num/den are the oracle's normalization of a/b."""
    a, b = r.pair
    assert type(a) is tuple and type(b) is tuple, r.pair
    assert all(type(c) is int for c in a + b), r.pair
    assert b and b[-1] > 0 and (not a or a[-1]), r.pair
    if not a:
        assert b == (1,), r.pair
    else:
        assert math.gcd(*a, *b) == 1, r.pair
        assert oracle_poly_gcd(Poly(list(a)), Poly(list(b))).degree == 0, r.pair
    num, den = oracle_ratfn(Poly(list(a)), Poly(list(b)))
    _assert_same(r.num, num)
    _assert_same(r.den, den)


def _stored_form_groups():
    """Groups of one value built along every constructor path: RatFn(n, d),
    const, parse_ratfn, _pair_ratfn, + - * /, derivative, **,
    substitute_power, ratfn_sqrt, and the RF null space, determinant and
    products of one and of two terms."""
    rng = random.Random(3536)
    groups = []
    for q in [Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(2 ** 70, -9)]:
        groups.append([RatFn.const(q), RatFn(Poly.const(q)), parse_ratfn(str(q)),
                       RatFn(Poly.const(q * 4), 4), _pair_ratfn([q.numerator * 6] if q else [], [q.denominator * 6])])
    for r in _RATFN_OPERANDS[:20]:
        s = rng.choice([v for v in _RATFN_OPERANDS if not v.is_constant])
        k = rng.choice([Poly.const(-3), Poly([1, -2]), Poly([Fraction(1, 2), 0, 5])])
        a, b = r.pair
        f = [rng.choice([-6, 5]), 0, 3]
        group = [
            r,
            RatFn(r.num * k, r.den * k),
            parse_ratfn(ratfn_str(r)),
            _pair_ratfn([c * 14 for c in _int_mul(a, f)], [c * 14 for c in _int_mul(b, f)]),
            (r + s) - s,
            (r * s) / s,
            r * RatFn.ONE,
            -(-r),
            nullspace(Mat(RF, [[s, -s * r]]))[0][0],
            Mat(RF, [[r, s], [0, 1]]).det(),
            mat_vec(Mat(RF, [[r + s, -s]]), [1, 1])[0],
            mat_vec(Mat(RF, [[s]]), [r / s])[0],
        ]
        if not r.is_zero:
            group += [(r ** -1) ** -1, RatFn.ONE / (RatFn.ONE / r)]
            groups.append([r ** -1, RatFn.ONE / r])
            groups.append([r ** -2, (RatFn.ONE / r) * (RatFn.ONE / r), RatFn.ONE / (r * r)])
        groups.append(group)
        groups.append([r ** 2, r * r, RatFn(oracle_poly_mul(r.num, r.num), oracle_poly_mul(r.den, r.den))])
        want = oracle_ratfn_derivative(r)
        groups.append([r.derivative(), RatFn(*want), parse_ratfn(ratfn_str(r.derivative()))])
        m = rng.randint(1, 3)
        groups.append([r.substitute_power(m), RatFn(*oracle_ratfn_substitute_power(r, m))])
        root = ratfn_sqrt(r * r)
        groups.append([root, r if root == r else -r])
    return groups


def test_every_constructor_path_stores_the_canonical_pair():
    for group in _stored_form_groups():
        keys = {group[0]: "first"}
        for v in group:
            _assert_canonical(v)
            assert v == group[0] and hash(v) == hash(group[0]), (v, group[0])
            assert keys[v] == "first" and v in keys


def test_products_and_quotients_take_only_the_cross_cancelling_gcds(monkeypatch):
    # cross-cancelling two coprime pairs leaves a coprime pair: at most the
    # gcds of (a, d) and (c, b), none for the product's normalization
    calls = _gcd_calls(monkeypatch)
    for r, s in _RATFN_PAIRS:
        if r.is_constant or s.is_constant:
            continue
        calls.clear()
        _assert_ratfn(r * s, oracle_ratfn_mul(r, s))
        assert len(calls) <= 2, (r, s, calls)
        calls.clear()
        _assert_ratfn(r / s, oracle_ratfn_div(r, s))
        assert len(calls) <= 2, (r, s, calls)


def test_pair_sum_over_equal_denominators_takes_no_gcd_for_a_tuple_and_a_list(monkeypatch):
    # a stored pair (tuples, as after a parsed power) meets a list pair (a
    # parsed literal or a product): x^2/(x+1) + 2/(x+1)
    r = RatFn(Poly([0, 0, 1]), Poly([1, 1]))
    calls = _gcd_calls(monkeypatch)
    assert _pair_add(r.pair, ([2], [1, 1])) == ([2, 0, 1], (1, 1))
    assert _pair_add(([2], [1, 1]), r.pair) == ([2, 0, 1], [1, 1])
    assert calls == []
    assert parse_ratfn("(x^2/(x+1))^1 + 2/(x+1)") == RatFn(Poly([2, 0, 1]), Poly([1, 1]))
