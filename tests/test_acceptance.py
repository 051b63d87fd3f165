"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from fractions import Fraction

from redform import (
    Base,
    DiffSystem,
    END_CONSTRUCTION,
    LieBasis,
    Mat,
    Poly,
    QQ,
    RF,
    RatFn,
    annihilates_invariants,
    check_semi_invariant,
    commutant,
    constant_basis_subspace,
    constr_group,
    constr_lie,
    eigenring,
    eigenring_matrices,
    fundamental_series,
    gauge,
    harvest_invariants,
    is_reduced,
    parse_construction,
    pullback,
    rational_solutions,
    reduce_by_diagonalization,
    system,
    vec_row_major,
    verify_reduction_matrix,
    wei_norman,
)

from helpers import (
    constr_series_agrees,
    demo_system,
    diag_basis,
    generator_stable,
    nabla_stable,
    oracle_constant_basis_line,
    oracle_end_action,
    oracle_fundamental_series,
    oracle_nullspace,
    rand_invertible,
    rand_matrix,
    rand_ordinary_system,
    reduced_demo,
    rf,
    same_constant_span,
    weighted_swap,
)


def _finish(name, started, budget):
    elapsed = time.monotonic() - started
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_1_worked_example_end_to_end():
    started = time.monotonic()
    a = demo_system()
    swap = weighted_swap()

    # (a) the connection acts on the swap endomorphism by -1/(2x)
    assert oracle_end_action(a, swap) == swap.map_entries(lambda e: rf("-1/(2*x)") * e)

    # (b) the stable-line rate
    assert check_semi_invariant(a, END_CONSTRUCTION, vec_row_major(swap)) == rf("-1/(2*x)")

    # (c) reduction certificate after the quadratic pullback
    cert = reduce_by_diagonalization(a, swap, 2)
    b = cert.reduced
    assert b.data[0][1].is_zero and b.data[1][0].is_zero
    assert {b.data[0][0], b.data[1][1]} == {rf("2*t^2", "t"), rf("-2*t^2", "t")}
    assert cert.verify(a)

    # (d) decomposition over the supplied diagonal generator
    assert wei_norman(reduced_demo(), diag_basis()) == [rf("2*t^2", "t")]

    # (e) no multiple of the stable-line vector is constant over x, while the
    # same line read in the reduced frame after the pullback is
    v = vec_row_major(swap)
    multiples = [rf("1"), rf("x"), rf("1/x"), rf("x^2+x"), rf("(x-1)/x^3")]
    report = is_reduced(a, lines=[(END_CONSTRUCTION, tuple(h * e for e in v)) for h in multiples])
    assert all(lv.is_stable_line and lv.constant_basis is None for lv in report.lines)
    swap_t = swap.map_entries(lambda e: e.substitute_power(2))
    transformed = cert.gauge_matrix.inv() * swap_t * cert.gauge_matrix
    scaled = tuple(rf("t", "t") * e for e in vec_row_major(transformed))
    assert oracle_constant_basis_line(scaled)[0] == RatFn.ONE
    (line,) = is_reduced(DiffSystem("t", cert.reduced), lines=[(END_CONSTRUCTION, scaled)]).lines
    assert line.ok and line.constant_basis == oracle_constant_basis_line(scaled)[1]

    _finish("criterion 1 (worked example)", started, 5)


def test_criterion_2_eigenring_with_oracle():
    started = time.monotonic()
    a = demo_system()

    space = eigenring(a, num_deg_cap=8, den_override=Poly.monomial(1, 8))
    mats = eigenring_matrices(space, 2)
    assert space.dim == 1
    assert mats[0] == Mat.identity(RF, 2)

    # independent oracle: exhaustive ansatz F = U/x^8, deg U <= 8, via the
    # cleared equation x*U' - 8*U - x*[A, U] = 0 assembled with plain
    # fractions and solved by a test-local elimination
    xa = {
        (0, 0): {},
        (0, 1): {1: Fraction(1)},
        (1, 0): {2: Fraction(1)},
        (1, 1): {0: Fraction(1, 2)},
    }
    cap = 8
    unknowns = [(i, j, k) for i in range(2) for j in range(2) for k in range(cap + 1)]
    index = {u: col for col, u in enumerate(unknowns)}
    max_pow = cap + 3
    rows = []
    for i in range(2):
        for j in range(2):
            for power in range(max_pow):
                row = [Fraction(0)] * len(unknowns)
                for (ui, uj, k), col in index.items():
                    if (ui, uj) == (i, j):
                        if power == k:
                            row[col] += Fraction(k) - Fraction(8)
                    # -(xA * U)[i][j]
                    if uj == j:
                        shift = xa[(i, ui)]
                        if power - k in shift:
                            row[col] -= shift[power - k]
                    # +(U * xA)[i][j]
                    if ui == i:
                        shift = xa[(uj, j)]
                        if power - k in shift:
                            row[col] += shift[power - k]
                rows.append(row)
    basis = oracle_nullspace(rows)
    assert len(basis) == 1
    expected = [Fraction(0)] * len(unknowns)
    expected[index[(0, 0, 8)]] = Fraction(1)
    expected[index[(1, 1, 8)]] = Fraction(1)
    assert basis[0] == expected  # U = x^8 * Id, i.e. F = Id

    _finish("criterion 2 (eigenring vs oracle)", started, 30)


CONSTRUCTIONS = [
    parse_construction("dual(base)"),
    parse_construction("tensor(base,dual(base))"),
    parse_construction("sym(2,base)"),
    parse_construction("ext(2,base)"),
]


def test_criterion_3_morphism_laws():
    started = time.monotonic()
    rng = random.Random(2024)
    cases = 200
    for case in range(cases):
        c = CONSTRUCTIONS[case % 4]
        n = 3 if case % 10 < 3 else 2
        p = rand_invertible(rng, n)
        q = rand_invertible(rng, n)
        assert constr_group(c, p * q) == constr_group(c, p) * constr_group(c, q)

        nm = rand_matrix(rng, n, 2)
        mm = rand_matrix(rng, n, 2)
        lhs = constr_lie(c, nm * mm - mm * nm)
        ln, lm = constr_lie(c, nm), constr_lie(c, mm)
        assert lhs == ln * lm - lm * ln

        a = DiffSystem("x", rand_matrix(rng, n, 2))
        lhs = constr_lie(c, gauge(a, p).mat)
        big = DiffSystem("x", constr_lie(c, a.mat))
        rhs = gauge(big, constr_group(c, p)).mat
        assert lhs == rhs
    _finish(f"criterion 3 (morphism laws, {cases} cases)", started, 120)


def test_criterion_4_series_suite():
    started = time.monotonic()
    rng = random.Random(31337)
    order = 12
    targets = [parse_construction("ext(2,base)"), parse_construction("tensor(base,dual(base))")]
    count = 0
    sizes = [2, 2, 3]
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    while count < 50:
        n = sizes[count % 3]
        x0 = points[count % 4]
        sys_ = rand_ordinary_system(rng, n, x0)
        u = fundamental_series(sys_, x0, order)

        # normalization
        assert u.coeffs[0] == Mat.identity(QQ, n)

        # residual vanishes through order - 2: the coefficients are those
        # of the Taylor convolution (k+1)*C_(k+1) = sum A_i*C_(k-i)
        cs = list(u.coeffs)
        assert cs == oracle_fundamental_series(sys_, x0, order)

        # functoriality for both constructions: Constr(U) is the fundamental
        # series of the construction system
        for c in targets:
            big = DiffSystem(sys_.var, constr_lie(c, sys_.mat))
            assert constr_series_agrees(c, cs, list(fundamental_series(big, x0, order).coeffs))
        count += 1
    _finish("criterion 4 (series suite, 50 systems)", started, 120)


def test_criterion_5_rational_solutions_oracle():
    started = time.monotonic()
    rng = random.Random(4242)
    for case in range(50):
        n = 2 if case % 3 else 3
        p = rand_invertible(rng, n)
        zero = system("x", [["0"] * n for _ in range(n)])
        sys_ = gauge(zero, p)
        pinv = p.inv()
        den = Poly.ONE
        for row in pinv.data:
            for e in row:
                den = den.lcm(e.den)
        cap = 0
        for row in pinv.data:
            for e in row:
                cap = max(cap, (e * RatFn(den)).num.degree)
        space = rational_solutions(sys_, num_deg_cap=cap, den_override=den)
        assert space.dim == n
        columns = list(zip(*pinv.data))
        assert same_constant_span(space.basis, columns)
    _finish("criterion 5 (solution-space oracle, 50 systems)", started, 120)


def _planted_cases(rng):
    """Reduced diagonal systems with stable subspaces planted in the base and
    endomorphism constructions, presented with non-constant scalings."""
    cases = []
    diag2 = system("t", [["2*t^2", "0"], ["0", "-2*t^2"]])
    diag3 = system("t", [["t", "0", "0"], ["0", "-t", "0"], ["0", "0", "t^3"]])
    scalings = [rf("t", "t"), rf("1/t", "t"), rf("t^2+1", "t"), rf("(t+2)", "t")]

    def scaled_axes(n, axes, count):
        vectors = []
        for k, axis in enumerate(axes):
            vec = [RatFn.ZERO] * n
            vec[axis] = scalings[(k + count) % len(scalings)]
            vectors.append(tuple(vec))
        return vectors

    count = 0
    for axes in [(0,), (1,), (0, 1)]:
        cases.append((diag2, Base(), scaled_axes(2, axes, count), len(axes)))
        count += 1
    for axes in [(0,), (2,), (0, 1), (1, 2), (0, 2)]:
        cases.append((diag3, Base(), scaled_axes(3, axes, count), len(axes)))
        count += 1
    # eigencoordinates of the endomorphism construction of the 2x2 system
    for axes in [(0,), (3,), (0, 3), (1,), (1, 2), (0, 1)]:
        cases.append((diag2, END_CONSTRUCTION, scaled_axes(4, axes, count), len(axes)))
        count += 1
    # constant mixtures of stable axes stay stable
    mix = [
        (rf("t", "t"), RatFn.ZERO, RatFn.ZERO, rf("2*t", "t")),
        (RatFn.ZERO, RatFn.ZERO, RatFn.ZERO, rf("1/t", "t")),
    ]
    cases.append((diag2, END_CONSTRUCTION, mix, 2))
    for axes in [(0, 5), (2,), (4, 8), (0, 4), (4,), (8,)]:
        cases.append((diag3, END_CONSTRUCTION, scaled_axes(9, axes, count), len(axes)))
        count += 1
    return cases


def test_criterion_6_wedge_kernel_suite():
    started = time.monotonic()
    rng = random.Random(6006)
    cases = _planted_cases(rng)
    assert len(cases) >= 20
    for sys_, c, w, dim_w in cases:
        out = constant_basis_subspace(sys_, c, w)
        assert out is not None
        assert len(out) == dim_w
        out_rf = [tuple(RatFn.const(e) for e in v) for v in out]
        size = len(w[0])
        joint = [list(v) for v in w] + [list(v) for v in out_rf]
        m_joint = Mat(RF, [[joint[r][i] for r in range(len(joint))] for i in range(size)])
        m_w = Mat(RF, [[w[r][i] for r in range(len(w))] for i in range(size)])
        assert len(m_joint.rref()[1]) == len(m_w.rref()[1]) == dim_w
    _finish(f"criterion 6 (constant bases, {len(cases)} cases)", started, 60)


def test_criterion_7_transport_of_invariants():
    started = time.monotonic()
    a = demo_system()
    cert = reduce_by_diagonalization(a, weighted_swap(), 2)
    pulled = pullback(a, 2)
    degree_two = [
        "base",
        "dual(base)",
        "tensor(base,base)",
        "tensor(base,dual(base))",
        "tensor(dual(base),dual(base))",
        "sym(2,base)",
        "ext(2,base)",
        "sym(2,dual(base))",
        "ext(2,dual(base))",
    ]
    entries = harvest_invariants(
        pulled, [parse_construction(s) for s in degree_two], num_deg_cap=8
    )
    invariants = [(e.constr, v) for e in entries if e.space for v in e.space.basis]
    assert len(invariants) >= 6
    eigen_inv = (END_CONSTRUCTION, tuple(rf(s, "t") for s in ("1", "0", "0", "1")))
    invariants.append(eigen_inv)
    p = cert.gauge_matrix
    for t0 in (Fraction(1), Fraction(2)):
        # P*P(t0)^-1 fixes the values at t0
        normalized = p * p.map_entries(lambda e: RatFn.const(e(t0))).inv()
        assert verify_reduction_matrix(pulled, normalized, t0, invariants)
    _finish("criterion 7 (invariant transport at t0 in {1,2})", started, 30)


def test_criterion_8_katz_consistency():
    started = time.monotonic()
    rng = random.Random(8008)
    sys_ = reduced_demo()
    basis = diag_basis()

    # constant eigenring elements coincide with the commutant of the generator
    space = eigenring(sys_, num_deg_cap=4)
    constant_elements = [
        v for v in space.basis if all(e.is_constant for e in v)
    ]
    assert len(constant_elements) == 2
    commutant_mats = commutant(basis)
    assert len(commutant_mats) == 2
    commutant_vecs = [
        tuple(RatFn.const(e) for e in vec_row_major(m)) for m in commutant_mats
    ]
    assert same_constant_span(constant_elements, commutant_vecs)

    # the identity invariant is annihilated by the generator
    report = annihilates_invariants(
        list(basis.generators),
        [(END_CONSTRUCTION, tuple(rf(s, "t") for s in ("1", "0", "0", "1")))],
    )
    assert report.all_annihilated

    # generator-stability vs direct connection-stability on planted subspaces
    checked = 0
    diag3 = system("t", [["t", "0", "0"], ["0", "-t", "0"], ["0", "0", "t^3"]])
    basis3 = LieBasis(
        3,
        (
            Mat(QQ, [[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
            Mat(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
        ),
    )
    for sys_k, basis_k, c, size in [
        (sys_, basis, Base(), 2),
        (sys_, basis, END_CONSTRUCTION, 4),
        (diag3, basis3, Base(), 3),
    ]:
        # Katz's criterion needs the system reduced with respect to the basis
        assert wei_norman(sys_k, basis_k) is not None
        axes = [tuple(Fraction(1) if i == a else Fraction(0) for i in range(size)) for a in range(size)]
        cases = [[axis] for axis in axes]
        for _ in range(4):
            vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(size))
            if any(vec):
                cases.append([vec])
        cases.append([axes[0], axes[size - 1]])
        for w in cases:
            assert generator_stable(basis_k, c, w) == nabla_stable(sys_k, c, w)
        checked += len(cases)
    assert checked >= 20
    _finish(f"criterion 8 (Katz consistency, {checked} subspace cases)", started, 60)
