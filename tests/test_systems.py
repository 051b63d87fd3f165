"""Gauge action, pullbacks, and singularity data."""

import random
from fractions import Fraction

import pytest

from redform import (
    DimensionMismatch,
    Mat,
    Poly,
    RF,
    RatFn,
    SingularGauge,
    fundamental_series,
    gauge,
    is_ordinary_point,
    matrix,
    poly_str,
    pullback,
    singularities,
    system,
)
from redform.ratfun import squarefree_factors
from redform.systems import _coprime_basis

from helpers import demo_system, rand_invertible, rand_matrix


class TestGauge:
    def test_identity_gauge(self):
        a = demo_system()
        assert gauge(a, Mat.identity(RF, 2)).mat == a.mat

    def test_demo_pullback_diagonalizes(self):
        pulled = pullback(demo_system(), 2)
        p = matrix("t", [["1", "-1"], ["t", "t"]])
        result = gauge(pulled, p)
        assert result.mat == matrix("t", [["2*t^2", "0"], ["0", "-2*t^2"]])

    def test_cocycle_identity(self):
        rng = random.Random(23)
        for _ in range(6):
            a = system("x", rand_matrix(rng, 2).data)
            p = rand_invertible(rng, 2)
            q = rand_invertible(rng, 2)
            assert gauge(gauge(a, p), q).mat == gauge(a, p * q).mat

    def test_constant_gauge_is_conjugation(self):
        rng = random.Random(29)
        a = system("x", rand_matrix(rng, 3).data)
        p = Mat(RF, [[2, 1, 0], [0, 1, 0], [1, 0, 1]])
        assert gauge(a, p).mat == p.inv() * a.mat * p

    def test_singular_gauge_rejected(self):
        with pytest.raises(SingularGauge):
            gauge(demo_system(), matrix("x", [["1", "1"], ["1", "1"]]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauge(demo_system(), Mat.identity(RF, 3))


class TestPullback:
    def test_order_one_renames(self):
        a = demo_system()
        out = pullback(a, 1)
        assert out.var == "t"
        assert out.mat == matrix("t", [["0", "1"], ["t", "1/(2*t)"]])

    def test_demo_pullback(self):
        out = pullback(demo_system(), 2)
        assert out.mat == matrix("t", [["0", "2*t"], ["2*t^3", "1/t"]])

    def test_diagonal_pullback(self):
        out = pullback(system("x", [["1/x"]]), 2)
        assert out.mat == matrix("t", [["2/t"]])

    def test_degree_bound(self):
        # an entry of numerator or denominator degree at most d pulls back to
        # degree at most m*(d + 1) - 1, refused past 1000 before anything is
        # built: 1/x (d = 1) up to m = 500, a constant (d = 0) up to m = 1001
        assert pullback(system("x", [["1/x"]]), 500).mat == matrix("t", [["500/t"]])
        assert pullback(system("x", [["1"]]), 1001).mat == matrix("t", [["1001*t^1000"]])
        for rows, m in (([["1/x"]], 501), ([["1"]], 1002), ([["0"]], 1002), ([["1/x"]], 10**18)):
            with pytest.raises(ValueError, match="degree up to"):
                pullback(system("x", rows), m)

    def test_commutes_with_gauge(self):
        rng = random.Random(31)
        for _ in range(4):
            a = system("x", rand_matrix(rng, 2).data)
            p = rand_invertible(rng, 2)
            m = rng.choice([2, 3])
            lhs = pullback(gauge(a, p), m).mat
            p_t = p.map_entries(lambda e: e.substitute_power(m))
            rhs = gauge(pullback(a, m), p_t).mat
            assert lhs == rhs

    def test_solution_transport_under_pullback(self):
        # series of the pulled-back system at s equals the re-expansion of
        # the original series evaluated at t^m
        a = demo_system()
        m, s, order = 2, Fraction(1), 8
        direct = fundamental_series(pullback(a, m), s, order)
        original = fundamental_series(a, s ** m, order)
        # (x - x0) = t^m - s^m expanded in u = t - s, composed into each
        # entry sum_k C_k*(x - x0)^k by Horner's rule and truncated
        shift = Poly([s, 1]) ** m - Poly.const(s ** m)
        for i in range(2):
            for j in range(2):
                acc = Poly()
                for c in reversed(original.coeffs):
                    acc = acc * shift + Poly.const(c[(i, j)])
                assert [acc.coeff(k) for k in range(order)] == [
                    direct.coeffs[k][(i, j)] for k in range(order)
                ]


class TestSingularities:
    def test_demo_report(self):
        report = singularities(demo_system())
        assert report.finite_places == ((Poly([0, 1]), 1),)
        assert report.order_at_infinity == 1

    def test_constant_matrix(self):
        report = singularities(system("x", [["2", "1"], ["0", "3"]]))
        assert report.finite_places == ()
        assert report.order_at_infinity <= 0

    def test_squarefree_granularity(self):
        report = singularities(system("x", [["1/(x^2-1)"]]))
        assert report.finite_places == ((Poly([-1, 0, 1]), 1),)

    def test_mixed_orders_refine(self):
        a = system("x", [["1/(x^2*(x+1))", "1/(x*(x+1)^2)"], ["0", "0"]])
        report = singularities(a)
        places = {tuple(p.coeffs): k for p, k in report.finite_places}
        assert places == {(0, 1): 2, (1, 1): 2}

    def test_repeated_denominators(self):
        a = system("x", [["1/x", "2/x", "1/x^2"], ["3/x", "1/x^2", "0"], ["1/x", "5", "1/x"]])
        assert singularities(a).finite_places == ((Poly([0, 1]), 2),)

    def test_places_refine_the_entries_not_their_lcm(self):
        # the lcm x^2 - x is squarefree, but the places are x and x - 1
        a = system("x", [["1/(x^2-x)", "1/x"], ["0", "0"]])
        assert singularities(a).finite_places == ((Poly([-1, 1]), 1), (Poly([0, 1]), 1))

    def test_refinement_against_planted_factorizations(self):
        # build denominators from explicit linear and irreducible quadratic
        # factors, then check the report: pairwise coprime places and the
        # planted max pole orders.  Each quadratic gets distinct orders in
        # the three entries, so it is a pole of different orders there.
        rng = random.Random(37)
        linear = [Poly([-c, 1]) for c in (0, 1, -1, 2)]
        quadratic = [Poly([1, 0, 1]), Poly([-2, 0, 1])]
        for _ in range(12):
            # orders[i][j] is the order of factor j in entry i
            quad = [rng.sample(range(4), 3) for _ in quadratic]
            orders = [[rng.randint(0, 3) for _ in linear] + [q[i] for q in quad] for i in range(3)]
            entries = []
            for row in orders:
                den = Poly.ONE
                for f, k in zip(linear + quadratic, row):
                    den = den * f ** k
                entries.append(RatFn(Poly.ONE, den))
            a = system(
                "x",
                [
                    [entries[0], RatFn.ZERO, RatFn.ZERO],
                    [RatFn.ZERO, entries[1], RatFn.ZERO],
                    [RatFn.ZERO, RatFn.ZERO, entries[2]],
                ],
            )
            report = singularities(a)
            for i, (p, _) in enumerate(report.finite_places):
                for q, _ in report.finite_places[i + 1 :]:
                    assert p.gcd(q).degree == 0
            for f, want in zip(linear + quadratic, map(max, zip(*orders))):
                # the place holding the irreducible factor f
                got = [order for p, order in report.finite_places if not p % f]
                assert got == ([want] if want else []), f"pole order at {poly_str(f)}"


    def test_coprime_basis_properties(self):
        # seeded claim sets built as the squarefree Yun factors of products
        # of small factors with multiplicities, as singularities builds them
        rng = random.Random(41)
        factors = [Poly([c, 1]) for c in range(-3, 4)] + [
            Poly([1, 0, 1]),
            Poly([-2, 0, 1]),
            Poly([1, 1, 1]),
            Poly([3, 0, 0, 1]),
        ]
        for _ in range(200):
            claims = []
            for _ in range(rng.randint(1, 5)):
                den = Poly.ONE
                for f in rng.sample(factors, rng.randint(1, 4)):
                    den = den * f ** rng.randint(1, 3)
                claims += [s for s, _ in squarefree_factors(den)]
            places = _coprime_basis(claims)
            assert len({p.coeffs for p in places}) == len(places)
            for i, p in enumerate(places):
                assert p.degree >= 1 and p.leading == 1
                for q in places[i + 1 :]:
                    assert p.gcd(q) == Poly.ONE
            for claim in claims:
                product = Poly.ONE
                for p in places:
                    if (claim % p).is_zero:
                        product = product * p
                assert product == claim


class TestOrdinaryPoints:
    def test_demo_points(self):
        a = demo_system()
        assert is_ordinary_point(a, 1)
        assert not is_ordinary_point(a, 0)

    def test_zero_matrix(self):
        a = system("x", [["0", "0"], ["0", "0"]])
        assert is_ordinary_point(a, 0)
        assert is_ordinary_point(a, Fraction(7, 3))
