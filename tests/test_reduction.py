"""Reduction criteria, constant bases, and the reducer."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from redform import (
    Base,
    DefectiveEigenstructure,
    DiffSystem,
    DimensionMismatch,
    END_CONSTRUCTION,
    EndBasis,
    LieBasis,
    Mat,
    NotSemiInvariant,
    NotSplit,
    NotStable,
    QQ,
    RF,
    RatFn,
    annihilates_invariants,
    check_nabla_stable_span,
    check_semi_invariant,
    constant_basis_subspace,
    constr_dim,
    gauge,
    harvest_invariants,
    is_reduced,
    mat_from_vec,
    parse_construction,
    pullback,
    reduce_by_diagonalization,
    system,
    vec_row_major,
    verify_reduction_matrix,
    wei_norman,
)
from redform import reduction
from redform.errors import InternalError
from redform.linalg import mat_vec, span_coordinates
from redform.reduction import ReductionCertificate

from helpers import (
    const_vec,
    demo_system,
    diag_basis,
    oracle_constant_basis_line,
    oracle_constant_basis_subspace,
    oracle_eigenvalues_2x2,
    oracle_end_action,
    oracle_rref,
    oracle_semi_invariant,
    oracle_solve,
    rand_matrix,
    rand_poly,
    rand_ratfn,
    reduced_demo,
    rf,
    same_constant_span,
    time_limit,
    weighted_swap,
)


class TestWeiNorman:
    def test_reduced_demo(self):
        coeffs = wei_norman(reduced_demo(), diag_basis())
        assert coeffs == [rf("2*t^2", "t")]

    def test_constant_matrix(self):
        sys_ = system("x", [["2", "0"], ["0", "3"]])
        basis = LieBasis(2, (Mat(QQ, [[1, 0], [0, 0]]), Mat(QQ, [[0, 0], [0, 1]])))
        assert wei_norman(sys_, basis) == [rf("2"), rf("3")]

    def test_outside_span(self):
        assert wei_norman(demo_system(), diag_basis()) is None

    def test_empty_basis(self):
        zero = system("x", [["0"]])
        assert wei_norman(zero, LieBasis(1, ())) == []
        assert wei_norman(system("x", [["1"]]), LieBasis(1, ())) is None


def _line(sys_, c, v):
    """The one line verdict of ``is_reduced`` on the line spanned by v."""
    (verdict,) = is_reduced(sys_, lines=[(c, v)]).lines
    return verdict


class TestConstantBasisLine:
    # a stable line is the d = 1 module; ``is_reduced`` scales its constant
    # basis so that the first nonzero entry p reads lc(numerator of v_p)

    def test_common_factor(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        v = (rf("2*x"), rf("3*x"))
        verdict = _line(zero, Base(), v)
        assert verdict.rate == rf("1/x") and verdict.constant_basis == (Fraction(2), Fraction(3))
        assert oracle_constant_basis_line(v) == (rf("x"), verdict.constant_basis)
        assert constant_basis_subspace(zero, Base(), [v]) == [(Fraction(2, 3), Fraction(1))]

    def test_nonconstant_ratio(self):
        # (x, 1) solves y' = E12*y, so it spans a stable line of rate 0
        sys_ = system("x", [["0", "1"], ["0", "0"]])
        v = (rf("x"), rf("1"))
        verdict = _line(sys_, Base(), v)
        assert verdict.is_stable_line and verdict.rate == RatFn.ZERO
        assert verdict.constant_basis is None and not verdict.ok
        assert constant_basis_subspace(sys_, Base(), [v]) is None

    def test_every_multiple_of_swap_line_fails(self):
        v = vec_row_major(weighted_swap())
        for h in [rf("1"), rf("x"), rf("1/x"), rf("x^2"), rf("(x+1)/x")]:
            scaled = tuple(h * e for e in v)
            verdict = _line(demo_system(), END_CONSTRUCTION, scaled)
            assert verdict.is_stable_line and verdict.constant_basis is None
            assert constant_basis_subspace(demo_system(), END_CONSTRUCTION, [scaled]) is None

    def test_transformed_line_succeeds_after_pullback(self):
        # over the radical extension the stable line in End, read in the
        # reduced frame, is a rational multiple of a constant matrix
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        p = cert.gauge_matrix
        reduced = DiffSystem(cert.var, cert.reduced)
        swap_t = weighted_swap().map_entries(lambda e: e.substitute_power(2))
        transformed = vec_row_major(p.inv() * swap_t * p)
        assert oracle_constant_basis_line(transformed) == (rf("1/t", "t"), (1, 0, 0, -1))
        assert _line(reduced, END_CONSTRUCTION, transformed).constant_basis == (1, 0, 0, -1)
        scaled = tuple(rf("t", "t") * e for e in transformed)
        assert oracle_constant_basis_line(scaled) == (RatFn.ONE, (1, 0, 0, -1))
        verdict = _line(reduced, END_CONSTRUCTION, scaled)
        assert verdict.ok and verdict.constant_basis == (1, 0, 0, -1)


class TestConstantBasisSubspace:
    def test_identity_family(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        w = [(rf("1"), rf("0")), (rf("0"), rf("1"))]
        out = constant_basis_subspace(zero, Base(), w)
        assert out == [(1, 0), (0, 1)]

    def test_scaled_family(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        w = [(rf("x"), rf("0")), (rf("0"), rf("x"))]
        out = constant_basis_subspace(zero, Base(), w)
        assert out == [(1, 0), (0, 1)]

    def test_solution_line_of_reduced_demo(self):
        sys_ = reduced_demo()
        w = [(rf("5*t^2", "t"), rf("0", "t"))]
        out = constant_basis_subspace(sys_, Base(), w)
        assert out == [(1, 0)]

    def test_unstable_family_rejected(self):
        w = [(rf("1"), rf("0"))]
        with pytest.raises(NotStable):
            constant_basis_subspace(demo_system(), Base(), w)

    def test_stable_line_without_constant_basis_returns_none(self):
        # the swap line is stable in End but not constant over the base field
        w = [vec_row_major(weighted_swap())]
        assert constant_basis_subspace(demo_system(), END_CONSTRUCTION, w) is None

    def test_psi_kernel_spans_planted_subspace(self):
        rng = random.Random(91)
        sys_ = system("t", [["t^2", "0", "0"], ["0", "-t^2", "0"], ["0", "0", "3*t^2"]])
        scalings = [rf("t", "t"), rf("t^2+1", "t"), rf("1", "t"), rf("(t+1)", "t")]
        for idx_pair in [(0, 1), (0, 2), (1, 2)]:
            w = []
            for k, i in enumerate(idx_pair):
                vec = [RatFn.ZERO] * 3
                vec[i] = scalings[(k + idx_pair[0]) % len(scalings)]
                w.append(tuple(vec))
            out = constant_basis_subspace(sys_, Base(), w)
            assert out is not None
            out_rf = [tuple(RatFn.const(e) for e in v) for v in out]
            assert same_constant_span(out_rf, out_rf)
            # mutual rank: returned constants span exactly the planted space
            joint = [list(v) for v in w] + [list(v) for v in out_rf]
            m_joint = Mat(RF, [[joint[r][i] for r in range(len(joint))] for i in range(3)])
            m_w = Mat(RF, [[w[r][i] for r in range(len(w))] for i in range(3)])
            assert len(m_joint.rref()[1]) == len(m_w.rref()[1]) == len(w)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _mixed(rng, vectors, rows):
    """``rows`` random Q(x) combinations of the given vectors."""
    return [
        tuple(sum((f * e for f, e in zip(coeffs, col)), RatFn.ZERO) for col in zip(*vectors))
        for coeffs in ([rand_ratfn(rng, 1) for _ in vectors] for _ in range(rows))
    ]


def test_constant_basis_of_a_planted_family_in_a_wide_module():
    # a 5-dimensional family in sym(2,base) of the 8x8 zero system (36
    # coordinates), on disjoint supports with rational-function scalings:
    # one echelon form over Q(x), where the C(36, 5) Plucker coordinates of
    # a wedge test take minutes
    zero = DiffSystem("x", Mat.zeros(RF, 8, 8))
    planted = [[j + 1 if 7 * k <= j < 7 * k + 7 else 0 for j in range(36)] for k in range(5)]
    scalings = [rf(f"(x+{k})/(x^2+{k + 1})") for k in range(5)]
    w = [[f * e for e in v] for f, v in zip(scalings, planted)]
    with time_limit(60):
        out = constant_basis_subspace(zero, parse_construction("sym(2,base)"), w)
    assert out is not None and len(out) == 5
    assert len(Mat(QQ, out).rref()[1]) == len(Mat(QQ, planted + out).rref()[1]) == 5


def test_constant_basis_subspace_matches_the_wedge_oracle():
    rng = random.Random(1601)
    zero = {n: DiffSystem("x", Mat.zeros(RF, n, n)) for n in range(1, 8)}
    cases = []
    for _ in range(120):
        # a random constant subspace of Q^n, mixed over Q(x); a singular mix
        # makes the family dependent or its span unstable
        n = rng.randint(1, 7)
        d = rng.randint(1, min(n, 4))
        basis = [const_vec(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
        cases.append((zero[n], Base(), _mixed(rng, basis, d)))
    for _ in range(30):
        # gauging the zero system by P = I + f*E_ij moves each stable subspace
        # to its image under P^-1 = I - f*E_ij, rarely one with a constant basis
        n = rng.randint(2, 4)
        i, j = rng.sample(range(n), 2)
        f = rand_ratfn(rng, 1)
        p = Mat(RF, [[f if (r, s) == (i, j) else int(r == s) for s in range(n)] for r in range(n)])
        d = rng.randint(1, n - 1)
        pinv = p.inv()
        basis = [mat_vec(pinv, const_vec(rng.randint(-2, 2) for _ in range(n))) for _ in range(d)]
        cases.append((gauge(zero[n], p), Base(), _mixed(rng, basis, d)))
    for n in (1, 3, 7):
        vectors = [const_vec(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1)]
        vectors.append(const_vec([1] * n))
        cases.append((zero[n], Base(), [(RatFn.ZERO,) * n]))
        cases.append((zero[n], Base(), _mixed(rng, vectors, n)))
        if n > 1:
            # d = n with the last vector a Q(x) combination of the others
            dependent = _mixed(rng, vectors[:-1], n - 1)
            cases.append((zero[n], Base(), dependent + _mixed(rng, dependent, 1)))
    scalars_and_e12 = [const_vec((1, 0, 0, 1)), const_vec((0, 1, 0, 0))]
    cases.append((zero[2], END_CONSTRUCTION, _mixed(rng, scalars_and_e12, 2)))
    cases.append((demo_system(), END_CONSTRUCTION, [vec_row_major(weighted_swap())]))
    cases.append((demo_system(), Base(), [(rf("1"), rf("0"))]))
    seen = set()
    for sys_, c, w in cases:
        got = _outcome(constant_basis_subspace, sys_, c, w)
        want = _outcome(oracle_constant_basis_subspace, sys_, c, w)
        assert got == want, (c, w)
        seen.add(got[0].__name__ if isinstance(got, tuple) else type(got).__name__)
    assert seen == {"list", "NoneType", "ValueError", "NotStable"}


def _nonzero_ratfn(rng):
    while True:
        h = rand_ratfn(rng, 2)
        if not h.is_zero:
            return h


def _unit(dim, i, h):
    return tuple(h if k == i else RatFn.ZERO for k in range(dim))


def _diagonal_system(rng, n):
    diag = [_nonzero_ratfn(rng) for _ in range(n)]
    return DiffSystem("x", Mat(RF, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))


def _line_cases(rng):
    """(system, construction, vector) triples: stable lines with and without
    a constant basis, vectors that span no stable line, and zero vectors."""
    end = END_CONSTRUCTION
    zero = {n: DiffSystem("x", Mat.zeros(RF, n, n)) for n in (1, 2, 3)}
    cases = []
    for _ in range(12):
        # a rational multiple of a constant vector is a stable line of the zero system
        n = rng.choice((1, 2, 3))
        c = rng.choice([Base(), end, parse_construction("sym(2,base)"), parse_construction("dual(base)")])
        w = [rng.randint(-2, 2) for _ in range(constr_dim(c, n))]
        w[rng.randrange(len(w))] = rng.choice((1, -3))
        h = _nonzero_ratfn(rng)
        cases.append((zero[n], c, tuple(h * e for e in const_vec(w))))
    for _ in range(10):
        # on a diagonal system the axes of base and the units E_ij of End are
        # stable; gauged by P = I + f*E_ij, the axis e_j moves to the span of
        # e_j - f*e_i, a line of non-constant ratio
        n = rng.choice((2, 3))
        sys_ = _diagonal_system(rng, n)
        cases.append((sys_, Base(), _unit(n, rng.randrange(n), _nonzero_ratfn(rng))))
        cases.append((sys_, end, _unit(n * n, rng.randrange(n * n), _nonzero_ratfn(rng))))
        i, j = rng.sample(range(n), 2)
        f = _nonzero_ratfn(rng)
        p = Mat(RF, [[f if (r, k) == (i, j) else int(r == k) for k in range(n)] for r in range(n)])
        h = _nonzero_ratfn(rng)
        cases.append((gauge(sys_, p), Base(), tuple(h * row[j] for row in p.inv().data)))
    for h in [rf("1"), rf("x"), rf("1/x"), rf("(x^2+1)/x")]:
        # the weighted swap: a stable line of non-constant ratio
        cases.append((demo_system(), end, tuple(h * e for e in vec_row_major(weighted_swap()))))
    for _ in range(10):
        n = rng.choice((1, 2))
        c = rng.choice([Base(), end])
        sys_ = DiffSystem("x", rand_matrix(rng, n))
        cases.append((sys_, c, tuple(_nonzero_ratfn(rng) for _ in range(constr_dim(c, n)))))
    cases.append((demo_system(), Base(), (RatFn.ZERO, RatFn.ZERO)))
    cases.append((demo_system(), end, (RatFn.ZERO,) * 4))
    return cases


def test_lines_match_the_residual_ratio_oracles():
    # the rate, the line verdict of is_reduced and the d = 1 constant basis,
    # against the residual ratio at the first nonzero entry and the entry
    # ratios of the vector
    seen = set()
    for sys_, c, v in _line_cases(random.Random(2101)):
        rate = _outcome(oracle_semi_invariant, sys_, c, v)
        assert _outcome(check_semi_invariant, sys_, c, v) == rate, (c, v)
        subspace = _outcome(constant_basis_subspace, sys_, c, [v])
        if isinstance(rate, tuple):
            assert rate == (ValueError, "semi-invariant candidate must be nonzero")
            assert _outcome(_line, sys_, c, v) == rate
            assert subspace == (ValueError, "family is dependent over the rational functions")
            seen.add("zero")
            continue
        line = None if rate is None else oracle_constant_basis_line(v)
        basis = None if line is None else line[1]
        verdict = _line(sys_, c, v)
        assert (verdict.is_stable_line, verdict.rate, verdict.constant_basis) == (rate is not None, rate, basis)
        if rate is None:
            assert subspace[0] is NotStable
            seen.add("unstable")
        elif basis is None:
            assert subspace is None
            seen.add("non-constant")
        else:
            last = next(a for a in reversed(basis) if a)
            assert subspace == [tuple(a / last for a in basis)]
            seen.add("constant")
    assert seen == {"constant", "non-constant", "unstable", "zero"}


def _oracle_stability(sys_, elements):
    """Per element (stable, coordinates, residual) of an End family, by the
    matrix formula F' - [A, F] and a dense elimination."""
    residuals = [oracle_end_action(sys_, f) for f in elements]
    vecs = [vec_row_major(f) for f in elements]
    if len(oracle_rref([list(row) for row in zip(*vecs)])[1]) < len(vecs):
        raise DimensionMismatch("basis elements are dependent over the rational functions")
    out = []
    for r in residuals:
        x = oracle_solve(vecs, vec_row_major(r), RatFn.ZERO)
        out.append((x is not None, x, None if x is not None else r))
    return out


def test_end_spans_match_the_matrix_formula_oracle():
    rng = random.Random(2102)
    families = [
        (sys_, [mat_from_vec(v, sys_.n, RF)])
        for sys_, c, v in _line_cases(rng)
        if c == END_CONSTRUCTION
    ]
    for _ in range(8):
        n = rng.choice((2, 3))
        sys_ = _diagonal_system(rng, n)
        i, j = rng.sample(range(n * n), 2)
        units = [_unit(n * n, i, _nonzero_ratfn(rng)), _unit(n * n, j, _nonzero_ratfn(rng))]
        families.append((sys_, [mat_from_vec(u, n, RF) for u in units]))
        f = rand_matrix(rng, n)
        families.append((sys_, [f, rand_matrix(rng, n)]))
        families.append((sys_, [f, f.scale(_nonzero_ratfn(rng))]))
    families.append((demo_system(), [weighted_swap(), Mat.identity(RF, 2)]))
    families.append((demo_system(), [Mat.identity(RF, 3)]))
    seen = set()
    for sys_, elements in families:
        want = _outcome(_oracle_stability, sys_, elements)
        report = _outcome(check_nabla_stable_span, sys_, EndBasis(tuple(elements)))
        if isinstance(want, tuple):
            assert report == want
            seen.add(want[1].split()[-1])
            continue
        assert [(e.stable, e.coordinates, e.residual) for e in report.entries] == want
        seen.add("stable" if report.stable else "unstable")
    assert seen == {"stable", "unstable", "functions", "system"}


class TestIsReduced:
    def test_reduced_demo_passes(self):
        sys_ = reduced_demo()
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        transformed = cert.gauge_matrix.inv() * weighted_swap().map_entries(
            lambda e: e.substitute_power(2)
        ) * cert.gauge_matrix
        lines = [(END_CONSTRUCTION, vec_row_major(transformed))]
        constructions = [
            Base(),
            END_CONSTRUCTION,
            parse_construction("ext(2,base)"),
        ]
        report = is_reduced(
            sys_, basis=diag_basis(), constructions=constructions, lines=lines, num_deg_cap=6
        )
        assert report.wei_norman_ok
        assert report.wei_norman_coeffs == (rf("2*t^2", "t"),)
        assert report.lines_constant
        assert report.invariants_constant
        assert report.all_passed

    def test_demo_over_x_fails_on_line(self):
        report = is_reduced(
            demo_system(), lines=[(END_CONSTRUCTION, vec_row_major(weighted_swap()))]
        )
        assert report.lines_constant is False
        assert not report.all_passed
        verdict = report.lines[0]
        assert verdict.is_stable_line and verdict.constant_basis is None

    def test_zero_system_with_empty_basis(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        report = is_reduced(zero, basis=LieBasis(2, ()), constructions=[Base()], num_deg_cap=2)
        assert report.wei_norman_ok
        assert report.invariants_constant
        assert report.all_passed


class TestVerifyReduction:
    def test_identity_on_zero_system(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        invs = [(Base(), (rf("1"), rf("2")))]
        assert verify_reduction_matrix(zero, Mat.identity(RF, 2), 1, invs)

    def test_demo_certificate_transports(self):
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        pulled = pullback(demo_system(), 2)
        invs = [(END_CONSTRUCTION, tuple(rf(s, "t") for s in ("1", "0", "0", "1")))]
        entries = harvest_invariants(
            pulled, [parse_construction("ext(2,base)")], num_deg_cap=6
        )
        invs += [(e.constr, v) for e in entries for v in e.space.basis]
        p = cert.gauge_matrix
        for t0 in (1, 2):
            p_norm = p * p.map_entries(lambda e: RatFn.const(e(t0))).inv()
            assert verify_reduction_matrix(pulled, p_norm, t0, invs)

    def test_generic_matrix_fails(self):
        pulled = pullback(demo_system(), 2)
        entries = harvest_invariants(pulled, [parse_construction("ext(2,base)")], num_deg_cap=6)
        invs = [(e.constr, v) for e in entries for v in e.space.basis]
        q = Mat(RF, [[rf("1", "t"), rf("t", "t")], [rf("0", "t"), rf("1", "t")]])
        assert not verify_reduction_matrix(pulled, q, 1, invs)


class TestReduceByDiagonalization:
    def test_demo_certificate(self):
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        assert cert.extension_order == 2
        b = cert.reduced
        assert b.data[0][1].is_zero and b.data[1][0].is_zero
        diag = {b.data[0][0], b.data[1][1]}
        assert diag == {rf("2*t^2", "t"), rf("-2*t^2", "t")}
        assert cert.verify(demo_system())

    def test_tampered_certificate_fails_verification(self):
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        flipped_b = [list(row) for row in cert.reduced.data]
        flipped_b[0][0] = -flipped_b[0][0]
        assert not replace(cert, reduced=Mat(RF, flipped_b)).verify(demo_system())
        flipped_coeffs = (-cert.coeffs[0],) + cert.coeffs[1:]
        assert not replace(cert, coeffs=flipped_coeffs).verify(demo_system())

    def test_singular_or_mis_sized_gauge_fails_verification(self):
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        p = cert.gauge_matrix
        singular = Mat(RF, [p.data[0], p.data[0]])
        for bad in (singular, Mat.zeros(RF, 2, 2), Mat.identity(RF, 3), Mat(RF, [p.data[0]])):
            assert not replace(cert, gauge_matrix=bad).verify(demo_system())

    def test_certificate_decomposition_recombines(self):
        cert = reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        acc = Mat.zeros(RF, 2, 2)
        for f, g in zip(cert.coeffs, cert.basis):
            acc = acc + g.map_entries(lambda c, _f=f: _f * RatFn.const(c), RF)
        assert acc == cert.reduced

    def test_diagonal_endomorphism_trivial(self):
        sys_ = system("x", [["1/x", "0"], ["0", "2/x"]])
        endo = Mat(RF, [[rf("3"), rf("0")], [rf("0"), rf("1")]])
        cert = reduce_by_diagonalization(sys_, endo, 1)
        assert cert.reduced == sys_.mat
        assert cert.gauge_matrix == Mat.identity(RF, 2)

    def test_triangular_endomorphism_three_by_three(self):
        # constant diagonal system; an upper-triangular constant matrix with
        # distinct diagonal commutes into a stable line and diagonalizes
        sys_ = system("x", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        endo = Mat(
            RF,
            [
                [rf("3"), rf("1"), rf("0")],
                [rf("0"), rf("2"), rf("1")],
                [rf("0"), rf("0"), rf("1")],
            ],
        )
        cert = reduce_by_diagonalization(sys_, endo, 1)
        assert cert.verify(sys_)
        b = cert.reduced
        assert all(b.data[i][j].is_zero for i in range(3) for j in range(3) if i != j)
        assert {b.data[i][i] for i in range(3)} == {rf("1", "t")}

    def test_endomorphism_degree_bound(self):
        # the endomorphism is pulled back too and held to the system's bound:
        # x^142 over x = t^7 reaches degree 7*143 - 1 = 1000 and reduces,
        # x^166 over t^6 would reach 1001 and x^1000 over t^500 far more
        sys_ = system("x", [["1/x"]])
        cert = reduce_by_diagonalization(sys_, Mat(RF, [[rf("x^142")]]), 7)
        assert cert.reduced == Mat(RF, [[rf("7/t", "t")]])
        for power, m in ((166, 6), (1000, 500)):
            with pytest.raises(ValueError, match="degree up to"):
                reduce_by_diagonalization(sys_, Mat(RF, [[rf(f"x^{power}")]]), m)

    def test_without_pullback_not_split(self):
        with pytest.raises(NotSplit):
            reduce_by_diagonalization(demo_system(), weighted_swap(), 1)

    def test_not_semi_invariant_rejected(self):
        bad = Mat(RF, [[rf("0"), rf("1")], [rf("0"), rf("0")]])
        with pytest.raises(NotSemiInvariant):
            reduce_by_diagonalization(demo_system(), bad, 2)

    def test_nilpotent_endomorphism_is_defective(self):
        # a Jordan block spans a stable line of the zero system but cannot be
        # diagonalized
        zero = system("x", [["0", "0"], ["0", "0"]])
        jordan = Mat(RF, [[rf("0"), rf("1")], [rf("0"), rf("0")]])
        with pytest.raises(DefectiveEigenstructure):
            reduce_by_diagonalization(zero, jordan, 1)

    def test_repeated_eigenvalue_is_defective(self):
        # tr(F^2) = 2 is a square, but F/1 has charpoly (T - 1)^2
        zero = system("x", [["0", "0"], ["0", "0"]])
        jordan = Mat(RF, [[rf("1"), rf("1")], [rf("0"), rf("1")]])
        with pytest.raises(DefectiveEigenstructure):
            reduce_by_diagonalization(zero, jordan, 1)


class TestEigenvalues:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gauged_diagonal_endomorphism(self, n):
        # F = g*diag(mu) spans a stable line of a diagonal system for any
        # rational function g; a unimodular polynomial gauge P hides the
        # diagonal form
        def diagonal(entries):
            return Mat(RF, [[e if i == j else RatFn.ZERO for j in range(n)] for i, e in enumerate(entries)])

        rng = random.Random(1200 + n)
        for _ in range(3):
            diag = DiffSystem("x", diagonal([rand_ratfn(rng, 1) for _ in range(n)]))
            g = RatFn.ZERO
            while g.is_zero:
                g = rand_ratfn(rng, 1)
            mu = rng.sample([-3, -2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-5, 3)], n)
            p = Mat.identity(RF, n)
            for _ in range(n + 1):
                i, j = rng.sample(range(n), 2)
                rows = list(p.data)
                factor = RatFn(rand_poly(rng, 1))
                rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
                p = Mat(RF, rows)
            endo = p.inv() * diagonal([g * m for m in mu]) * p
            sys_ = gauge(diag, p)
            eigen = reduction._eigenvalues_ratfn(endo, "x")
            assert sorted(eigen, key=str) == sorted((g * m for m in mu), key=str)
            if n == 2:
                assert set(oracle_eigenvalues_2x2(endo)) == set(eigen)
            cert = reduce_by_diagonalization(sys_, endo, 1)
            assert cert.verify(sys_)


class TestInternalGates:
    """Self-checks raise InternalError, which survives ``python -O``."""

    def test_certificate_self_verification(self, monkeypatch):
        monkeypatch.setattr(ReductionCertificate, "verify", lambda self, sys_: False)
        with pytest.raises(InternalError, match="self-verification"):
            reduce_by_diagonalization(demo_system(), weighted_swap(), 2)

    def test_corrupted_gauge(self, monkeypatch):
        # a reducer that reads B off a P' whose first column is short by t
        # times the first column of P gets B_00 + t, still a diagonal B; the
        # certificate, which re-derives P*B = A_m*P - P' with the true
        # derivative, refuses it
        honest = reduce_by_diagonalization(demo_system(), weighted_swap(), 2).reduced
        derivative, decomposition = reduction.mat_derivative, reduction._diagonal_decomposition
        calls, read = [], []

        def corrupted(p):
            d = [list(row) for row in derivative(p).data]
            if not calls:
                for row, column in zip(d, p.data):
                    row[0] = row[0] - rf("t", "t") * column[0]
            calls.append(p)
            return Mat(RF, d)

        monkeypatch.setattr(reduction, "mat_derivative", corrupted)
        monkeypatch.setattr(
            reduction, "_diagonal_decomposition", lambda diag: read.append(diag) or decomposition(diag)
        )
        with pytest.raises(InternalError, match="self-verification"):
            reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        # one corrupted read by the reducer, one true one by the certificate
        assert len(calls) == 2
        assert read == [[honest.data[0][0] + rf("t", "t"), honest.data[1][1]]]

    def test_eigenspace_dimension(self, monkeypatch):
        monkeypatch.setattr(reduction, "nullspace", lambda m: [])
        with pytest.raises(InternalError, match="eigenspace"):
            reduce_by_diagonalization(demo_system(), weighted_swap(), 2)

    def test_diagonalizing_gauge(self, monkeypatch):
        # kernels that are the unit vectors pass the one-dimensional
        # eigenspace check and make P = Id, which does not diagonalize the
        # pulled-back system: column 0 of A_2*Id - 0 is (0, 2t^3), not a
        # multiple of e_0, and the certificate refuses the B read off it
        units = iter([[(RatFn.ONE, RatFn.ZERO)], [(RatFn.ZERO, RatFn.ONE)]])
        monkeypatch.setattr(reduction, "nullspace", lambda m: next(units))
        with pytest.raises(InternalError, match="self-verification"):
            reduce_by_diagonalization(demo_system(), weighted_swap(), 2)
        assert next(units, None) is None


def _bracket_span(gens, ring):
    """span_coordinates of each unordered bracket [a, b] of the generators in
    the span of the generators, every matrix flattened row-major: the
    generators are independent when the rank is their number, and their span
    is closed under the bracket when no coordinate is None."""
    brackets = [vec_row_major(a * b - b * a) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    return span_coordinates(map(vec_row_major, gens), brackets, ring)


class TestLieBasisFlags:
    E12 = Mat(QQ, [[0, 1], [0, 0]])
    E21 = Mat(QQ, [[0, 0], [1, 0]])

    def test_bracket_outside_the_span(self):
        # [E12, E21] = diag(1, -1) is not a combination of E12 and E21
        assert _bracket_span((self.E12, self.E21), QQ) == (2, [None])

    def test_repeated_generator(self):
        assert _bracket_span((self.E12, self.E12), QQ) == (1, [(0, 0)])

    def test_sl2_is_closed(self):
        # [E12, E21] = h, [E12, h] = -2*E12, [E21, h] = 2*E21
        h = Mat(QQ, [[1, 0], [0, -1]])
        assert _bracket_span((self.E12, self.E21, h), QQ) == (3, [(0, 0, 1), (-2, 0, 0), (0, 2, 0)])

    def test_empty(self):
        assert _bracket_span((), QQ) == (0, [])

    def test_rational_function_bracket_outside_the_span(self):
        # [E12, E21/x] = diag(1, -1)/x is not a combination of E12 and E21/x
        e12 = Mat(RF, [[rf("0"), rf("1")], [rf("0"), rf("0")]])
        e21 = Mat(RF, [[rf("0"), rf("0")], [rf("1/x"), rf("0")]])
        assert _bracket_span((e12,), RF) == (1, [])
        assert _bracket_span((e12, e21), RF) == (2, [None])

    def test_open_bracket_of_seeded_qx_generators(self):
        # six seeded independent 4x4 Q(x) generators with brackets outside
        # their span: one elimination of [generators | brackets] that pivots
        # in the generator columns only, where pivoting in the 15 bracket
        # columns as well takes minutes
        rng = random.Random(6)

        def entry():
            return rf(f"({rng.randint(-3, 3)}*x+{rng.randint(-3, 3)})/(x+{rng.randint(1, 4)})")

        family = [Mat(RF, [[entry() for _ in range(4)] for _ in range(4)]) for _ in range(6)]
        with time_limit(60):
            rank, coords = _bracket_span(family, RF)
        assert rank == 6 and None in coords

    def test_weighted_swap_and_identity(self):
        assert _bracket_span((weighted_swap(), Mat.identity(RF, 2)), RF) == (2, [(0, 0)])

    def test_repeated_weighted_swap(self):
        assert _bracket_span((weighted_swap(), weighted_swap()), RF) == (1, [(0, 0)])


class TestCriterionConsistency:
    def test_generators_annihilate_harvested_invariants(self):
        # with a bracket-closed basis certified by wei_norman, every harvested
        # invariant is annihilated by every generator
        sys_ = reduced_demo()
        basis = diag_basis()
        rank, coords = _bracket_span(basis.generators, QQ)
        assert rank == len(basis.generators) and None not in coords
        assert wei_norman(sys_, basis) is not None
        constructions = [Base(), END_CONSTRUCTION, parse_construction("ext(2,base)")]
        entries = harvest_invariants(sys_, constructions, num_deg_cap=6)
        invs = [(e.constr, v) for e in entries if e.space for v in e.space.basis]
        report = annihilates_invariants(list(basis.generators), invs)
        assert report.all_annihilated
