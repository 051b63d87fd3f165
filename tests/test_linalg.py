"""Exact matrix kernel: inverses, determinants, echelon forms, charpoly."""

import random
from fractions import Fraction

import pytest

from redform import Mat, Poly, QQ, RF, RatFn, SingularGauge
from redform.linalg import charpoly, charpoly_ints, mat_vec, nullspace, span_coordinates

from helpers import oracle_det, oracle_nullspace, oracle_rref, oracle_solve, rand_invertible, rand_matrix, rf


def test_inverse_roundtrip_rational_functions():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([2, 3])
        p = rand_invertible(rng, n)
        assert p * p.inv() == Mat.identity(RF, n)


def test_inverse_of_singular_raises():
    m = Mat(QQ, [[1, 2], [2, 4]])
    with pytest.raises(SingularGauge):
        m.inv()


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(8):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_nullspace_vectors_annihilate():
    rng = random.Random(17)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
    m = Mat(QQ, rows)
    for v in nullspace(m):
        assert all(e == 0 for e in mat_vec(m, v))
    assert len(m.rref()[1]) + len(nullspace(m)) == 5


def test_solve_and_membership():
    cols = list(zip(*Mat(QQ, [[1, 0], [0, 0]]).data))
    rank, (inside, outside) = span_coordinates(cols, [[3, 0], [0, 1]], QQ)
    assert rank == 1
    assert inside == (Fraction(3), Fraction(0))
    assert outside is None
    line = [(Fraction(1), Fraction(2))]
    _, (double, off) = span_coordinates(line, [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(0))], QQ)
    assert double == (Fraction(2),)
    assert off is None


def test_span_coordinates_rejects_ragged_vectors():
    with pytest.raises(ValueError, match="vector length"):
        span_coordinates([(1, 2)], [(1, 2, 3)], QQ)


def _canonical_rows(rows):
    """The nonzero rows of ``oracle_rref``: the canonical basis of the span."""
    reduced, pivots = oracle_rref(rows)
    return [tuple(r) for r in reduced[: len(pivots)]]


def test_row_space_canonical_is_order_free():
    a = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))]
    b = [(Fraction(1), Fraction(3)), (Fraction(2), Fraction(5))]
    assert _canonical_rows(a) == _canonical_rows(b) == list(Mat(QQ, b).rref()[0].data)


def test_kron_row_major_convention():
    a = Mat(QQ, [[1, 2], [3, 4]])
    b = Mat(QQ, [[0, 5], [6, 7]])
    k = a.kron(b)
    # entry ((i,k),(j,l)) = a[i][j]*b[k][l] with pairs flattened row-major
    for i in range(2):
        for kk in range(2):
            for j in range(2):
                for ll in range(2):
                    assert k[(i * 2 + kk, j * 2 + ll)] == a[(i, j)] * b[(kk, ll)]


class _Integers:
    """Z: a ring, but not one of the fields Q and Q(x) that eliminate."""

    zero, one = 0, 1
    promote = staticmethod(int)


_ZZ = _Integers()


@pytest.mark.parametrize(
    "call",
    [
        Mat.rref,
        nullspace,
        lambda m: span_coordinates(m.data, [(1, 0)], _ZZ),
        charpoly,
        Mat.det,
        Mat.inv,
    ],
    ids=["rref", "nullspace", "span_coordinates", "charpoly", "det", "inv"],
)
def test_elimination_rejects_a_ring_other_than_q_and_qx(call):
    with pytest.raises(TypeError):
        call(Mat(_ZZ, [[1, 2], [3, 4]]))


@pytest.mark.parametrize(
    "ring, entry",
    [(QQ, RatFn.ONE), (QQ, 0.5), (RF, 0.5)],
    ids=["QQ-ratfn", "QQ-float", "RF-float"],
)
def test_matrix_rejects_an_entry_outside_its_ring(ring, entry):
    with pytest.raises(TypeError):
        Mat(ring, [[1, entry]])


def test_det_over_q_equals_the_bareiss_det_of_its_constants_seeded():
    rng = random.Random(1984)
    for n in (1, 2, 7, 12):
        for _ in range(3):
            rows = [[_rand_entry(rng) for _ in range(n)] for _ in range(n)]
            if n > 2 and rng.random() < 0.5:
                rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
            det = Mat(QQ, rows).det()
            assert type(det) is Fraction
            assert det == Mat(RF, rows).det().constant_value()


def test_charpoly_companion():
    # companion matrix of x^3 - 2x + 5
    m = Mat(QQ, [[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert charpoly(m) == Poly([5, -2, 0, 1])


def test_charpoly_ints_over_a_denominator_of_either_sign():
    rng = random.Random(25)
    for n in range(5):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for d in (1, 3, -1, -4):
            m = [[Fraction(x, d) for x in row] for row in a]
            p = charpoly_ints(a, d)
            assert p == charpoly(Mat(QQ, m)) and p.degree == n and p.leading == 1
            for t in range(n + 1):
                shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
                assert p(t) == oracle_det(shifted)


# ---------------------------------------------------------------------------
# The integer elimination over QQ against a dense Fraction oracle


def _check_rref_against_oracle(rows):
    m = Mat(QQ, rows)
    reduced, pivots = m.rref()
    want, want_pivots = oracle_rref(rows)
    assert reduced.data == tuple(tuple(r) for r in want)
    assert pivots == tuple(want_pivots)
    return m, pivots


def _check_against_oracle(rows):
    m, _ = _check_rref_against_oracle(rows)
    if m.is_square:
        n = m.rows
        det = oracle_det(m.data)
        assert m.det() == det
        if det:
            assert m * m.inv() == Mat.identity(QQ, n)
        else:
            with pytest.raises(SingularGauge):
                m.inv()
        p = charpoly(m)
        assert p.degree == n and p.leading == 1
        for t in range(n + 1):
            shifted = [
                [(t if i == j else 0) - m.data[i][j] for j in range(n)] for i in range(n)
            ]
            assert p(t) == oracle_det(shifted)


_BIG = 10**20 + 39


def _rand_entry(rng):
    if rng.random() < 0.45:
        return Fraction(0)
    num = rng.choice([rng.randint(-9, 9), rng.randint(-_BIG, _BIG)])
    return Fraction(num, rng.choice([1, 1, 2, -3, 7, -_BIG, 2**61 - 1]))


def test_qq_kernel_matches_dense_oracle_seeded():
    rng = random.Random(2024)
    for _ in range(120):
        rows_n, cols_n = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[_rand_entry(rng) for _ in range(cols_n)] for _ in range(rows_n)]
        if rows_n > 2 and rng.random() < 0.4:
            # rank deficiency: a combination of two earlier rows
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        _check_against_oracle(rows)
        _check_against_oracle([row[: min(rows_n, cols_n)] for row in rows[: min(rows_n, cols_n)]])


def _banded(rng, rows_n, cols_n, band):
    """A sparse rows_n x cols_n Fraction matrix, nonzero only within ``band``
    columns of the stretched diagonal, as an ansatz is: stacked pivots, each
    row filling in the next pivot columns."""
    rows = []
    for i in range(rows_n):
        centre = i * cols_n // rows_n
        row = [Fraction(0)] * cols_n
        for j in range(max(0, centre - band), min(cols_n, centre + band + 1)):
            if rng.random() < 0.6:
                row[j] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        rows.append(row)
    return rows


def test_qq_kernel_matches_dense_oracle_on_banded_matrices_seeded():
    rng = random.Random(2409)
    ranks = set()
    for k in range(16):
        rows_n = rng.randint(20, 40)
        # tall, square, wide and twice as wide
        cols_n = rows_n + [-6, 0, rows_n // 2, rows_n][k % 4]
        rows = _banded(rng, rows_n, cols_n, rng.randint(1, 4))
        if k % 3 == 0:
            # rank deficiency: a few rows become combinations of two others
            for r in rng.sample(range(rows_n), 4):
                a, b = rng.sample(range(rows_n), 2)
                rows[r] = [x - 2 * y for x, y in zip(rows[a], rows[b])]
        m, pivots = _check_rref_against_oracle(rows)
        ranks.add(len(pivots) < min(m.rows, m.cols))
    assert ranks == {False, True}


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 0], [0, 0, 0]],
        [[0]],
        [[Fraction(-7, 3)]],
        [[1, 2], [2, 4]],
        [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]],
        [[0, 1, 2, 3], [0, 2, 4, 7]],
        [[Fraction(1, _BIG), Fraction(-2, 3)], [Fraction(-_BIG, 5), Fraction(1, -_BIG)]],
        # zero entries on the subdiagonal and in the leading blocks
        [[1, 2, 3], [0, 4, 5], [6, 7, 8]],
        [[2, 0, 1, 0], [0, 3, 0, 1], [1, 1, 0, 0], [0, 0, 1, 5]],
    ],
)
def test_qq_kernel_edge_cases(rows):
    _check_against_oracle([[Fraction(a) for a in row] for row in rows])


def test_qq_kernel_empty_shapes():
    empty = Mat(QQ, [])
    assert empty.rref() == (empty, ())
    assert empty.det() == 1 and charpoly(empty) == Poly.ONE
    assert empty.inv() == empty
    no_cols = Mat(QQ, [[], []])
    assert no_cols.rref() == (no_cols, ())
    assert nullspace(no_cols) == []


# ---------------------------------------------------------------------------
# The fraction-free elimination over Q(x) against the dense field oracle


def _check_rf_against_oracle(rows):
    m = Mat(RF, rows)
    reduced, pivots = m.rref()
    want, want_pivots = oracle_rref(rows)
    assert reduced.data == tuple(tuple(r) for r in want)
    assert pivots == tuple(want_pivots)
    if m.is_square:
        n = m.rows
        det = oracle_det(m.data)
        assert m.det() == det
        if det:
            assert m * m.inv() == Mat.identity(RF, n)
        else:
            with pytest.raises(SingularGauge):
                m.inv()
        if n > 5:
            return
        # a wide [m | I] shape
        wide = [list(r) + [RatFn.ONE if i == j else RatFn.ZERO for j in range(n)] for i, r in enumerate(rows)]
        reduced, pivots = Mat(RF, wide).rref()
        want, want_pivots = oracle_rref(wide)
        assert reduced.data == tuple(tuple(r) for r in want)
        assert pivots == tuple(want_pivots)


# distinct denominators, non-monic ones included (normalized to monic)
_RF_DENS = ["1", "1", "x", "x+1", "2*x-3", "x^2+1", "3*x^2-x"]


def _rand_rf_entry(rng):
    if rng.random() < 0.3:
        return RatFn.ZERO
    # non-monic numerators with rational coefficients
    num = Poly([Fraction(rng.randint(-4, 4), rng.choice([1, 2, -3, 5])) for _ in range(rng.randint(1, 3))])
    return RatFn(num, rf(rng.choice(_RF_DENS)).num)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6])
def test_rf_kernel_matches_dense_oracle_seeded(n):
    # n = 5 and 6 lie on both sides of the old cofactor/Gauss size switch
    rng = random.Random(300 + n)
    for trial in range({0: 1, 1: 12, 2: 12, 3: 8, 5: 3, 6: 2}[n]):
        rows = [[_rand_rf_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 2 and trial % 2:
            # rank deficiency: a Q(x)-combination of two earlier rows
            c = _rand_rf_entry(rng) or RatFn.ONE
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        _check_rf_against_oracle(rows)


def test_rf_kernel_non_square_seeded():
    rng = random.Random(41)
    for _ in range(10):
        rows_n, cols_n = rng.randint(1, 4), rng.randint(1, 6)
        _check_rf_against_oracle([[_rand_rf_entry(rng) for _ in range(cols_n)] for _ in range(rows_n)])


@pytest.mark.parametrize(
    "rows",
    [
        [["0", "0"], ["0", "0"]],
        [["0", "0", "0"]],
        [["1/x", "1/(x+1)"], ["x+1", "x"]],
        [["x", "1"], ["x^2", "x"]],
        [["0", "1/(2*x)", "3/7"], ["0", "x/(x-1)", "-1"], ["0", "0", "0"]],
        [["2/3", "x"], ["-5/2*x", "1/(3*x^2+1)"]],
    ],
)
def test_rf_kernel_edge_cases(rows):
    _check_rf_against_oracle([[rf(a) for a in row] for row in rows])


# ---------------------------------------------------------------------------
# nullspace, read from the elimination at the free columns, against the
# dense oracle


def _nullspace_family(rng, entry, one, size):
    """Seeded matrices of the shapes the free-column read must get right,
    one list of rows per shape."""
    zero = one - one

    def block(rows_n, cols_n):
        return [[entry(rng) for _ in range(cols_n)] for _ in range(rows_n)]

    rows_n, cols_n, square = rng.randint(1, size), rng.randint(1, size), rng.randint(1, size)
    # full rank: an upper triangle with a nonzero diagonal, rows permuted
    full = [[(entry(rng) or one) if i == j else entry(rng) if j > i else zero for j in range(square)] for i in range(square)]
    rng.shuffle(full)
    # tall, two of its rows zero
    tall = block(cols_n + rng.randint(1, 3), cols_n)
    for i in rng.sample(range(len(tall)), 2):
        tall[i] = [zero] * cols_n
    repeated = block(rows_n, cols_n)
    repeated += [repeated[0], list(repeated[-1]), [a + a for a in repeated[0]]]
    return {
        "zero": [[zero] * cols_n for _ in range(rows_n)],
        "full": full,
        "tall": tall,
        "wide": block(rows_n, rows_n + rng.randint(1, 4)),
        "repeated": repeated,
    }


@pytest.mark.parametrize("ring, entry, size", [(QQ, _rand_entry, 6), (RF, _rand_rf_entry, 4)], ids=["QQ", "RF"])
def test_nullspace_matches_the_oracle_seeded(ring, entry, size):
    rng = random.Random(5150)
    dims = {}
    for _ in range(25 if ring is QQ else 10):
        for shape, rows in _nullspace_family(rng, entry, ring.one, size).items():
            got = nullspace(Mat(ring, rows))
            assert [list(v) for v in got] == oracle_nullspace(rows), (shape, rows)
            assert all(type(e) is type(ring.one) for v in got for e in v)
            dims.setdefault(shape, set()).add(len(got))
    # the zero matrix keeps every column free, a full-rank one none
    assert dims["full"] == {0} and 0 not in dims["zero"]
    assert max(dims["wide"]) >= 2 and max(dims["repeated"]) >= 2 and {0, 1} <= dims["tall"]


# ---------------------------------------------------------------------------
# The kernel under reversed column order, read backwards, is the canonical one


def _check_reversed_kernel(m):
    flipped = Mat._unchecked(m.ring, tuple(row[::-1] for row in m.data))
    got = tuple(v[::-1] for v in reversed(nullspace(flipped)))
    assert list(got) == _canonical_rows(nullspace(m))
    return len(got)


@pytest.mark.parametrize("ring, entry", [(QQ, _rand_entry), (RF, _rand_rf_entry)], ids=["QQ", "RF"])
def test_reversed_kernel_is_the_canonical_basis_seeded(ring, entry):
    rng = random.Random(2020)
    dims = set()
    for _ in range(60 if ring is QQ else 25):
        rows_n, cols_n = rng.randint(1, 5), rng.randint(1, 8)
        rows = [[entry(rng) for _ in range(cols_n)] for _ in range(rows_n)]
        if rows_n > 2 and rng.random() < 0.5:
            # rank deficiency: a combination of two earlier rows
            c = entry(rng) or ring.one
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        dims.add(_check_reversed_kernel(Mat(ring, rows)))
    # wide and square shapes: kernels of several sizes, the empty one too
    assert {0, 1, 2, 3} <= dims


@pytest.mark.parametrize("ring", [QQ, RF], ids=["QQ", "RF"])
@pytest.mark.parametrize(
    "rows",
    [
        [],  # empty
        [[], []],  # no columns
        [[0, 0, 0], [0, 0, 0]],  # zero: the kernel is everything
        [[0, 0, 0, 0]],
        [[1, 2], [3, 4]],  # full rank: the kernel is empty
        [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]],  # wide and rank-deficient
        [[0, 1, 2, 3], [0, 2, 4, 7]],
        [[1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1]],
    ],
)
def test_reversed_kernel_edge_cases(ring, rows):
    _check_reversed_kernel(Mat(ring, rows))


# ---------------------------------------------------------------------------
# span_coordinates against one oracle solve per target


def _check_span_against_oracle(vectors, targets, ring):
    n = len((vectors or targets)[0])
    rank, coords = span_coordinates(vectors, targets, ring)
    assert rank == len(oracle_rref([[v[i] for v in vectors] for i in range(n)])[1])
    assert coords == [oracle_solve(vectors, t, ring.zero) for t in targets]
    kind = Fraction if ring is QQ else RatFn
    assert all(type(e) is kind for x in coords if x is not None for e in x)
    return coords


def _span_family(rng, n, d, entry, zero):
    """d vectors of length n, some rows dependent, and targets inside the
    span, outside it (almost surely) and zero."""
    vectors = [[entry(rng) for _ in range(n)] for _ in range(d)]
    if d > 2 and rng.random() < 0.5:
        c = entry(rng)
        vectors[-1] = [a + c * b for a, b in zip(vectors[0], vectors[1])]
    combos = [[entry(rng) for _ in range(d)] for _ in range(2)]
    inside = [[sum((c * v[i] for c, v in zip(cs, vectors)), zero) for i in range(n)] for cs in combos]
    outside = [[entry(rng) for _ in range(n)]]
    targets = inside + outside + [[zero] * n]
    rng.shuffle(targets)
    return [tuple(v) for v in vectors], [tuple(t) for t in targets]


def test_span_coordinates_matches_the_oracle_over_q_seeded():
    rng = random.Random(1717)
    seen = {"in": 0, "out": 0}
    for _ in range(150):
        n, d = rng.randint(1, 6), rng.randint(0, 6)
        vectors, targets = _span_family(rng, n, d, _rand_entry, Fraction(0))
        coords = _check_span_against_oracle(vectors, targets, QQ)
        seen["in"] += sum(x is not None for x in coords)
        seen["out"] += sum(x is None for x in coords)
    assert min(seen.values()) > 50


def test_span_coordinates_matches_the_oracle_over_qx_seeded():
    rng = random.Random(1718)
    seen = {"in": 0, "out": 0}
    for _ in range(30):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        vectors, targets = _span_family(rng, n, d, _rand_rf_entry, RatFn.ZERO)
        coords = _check_span_against_oracle(vectors, targets, RF)
        seen["in"] += sum(x is not None for x in coords)
        seen["out"] += sum(x is None for x in coords)
    assert min(seen.values()) > 10


def test_span_coordinates_matches_the_oracle_on_banded_vectors_seeded():
    # pivots only in the d vector columns of the n x (d + targets) system
    rng = random.Random(2410)
    seen = {"in": 0, "out": 0}
    for _ in range(8):
        n, d = rng.randint(20, 40), rng.randint(10, 30)
        vectors = [tuple(c) for c in zip(*_banded(rng, n, d, rng.randint(1, 3)))]
        if rng.random() < 0.5:
            vectors[-1] = tuple(a - 3 * b for a, b in zip(vectors[0], vectors[d // 2]))
        combos = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(2)]
        inside = [tuple(sum(c * v[i] for c, v in zip(cs, vectors)) for i in range(n)) for cs in combos]
        outside = [tuple(c) for c in zip(*_banded(rng, n, 2, 3))]
        coords = _check_span_against_oracle(vectors, inside + outside + [(Fraction(0),) * n], QQ)
        seen["in"] += sum(x is not None for x in coords)
        seen["out"] += sum(x is None for x in coords)
    assert min(seen.values()) > 3


@pytest.mark.parametrize("ring", [QQ, RF])
def test_span_coordinates_edge_families(ring):
    one, zero = ring.one, ring.zero
    unit = [tuple(one if i == j else zero for i in range(3)) for j in range(3)]
    half = ring.promote(Fraction(1, 2))
    target = (half, one, zero)
    # empty family: only the zero vector is in the span
    assert span_coordinates([], [(zero,) * 3, target], ring) == (0, [(), None])
    # no targets, zero-length vectors, and no vectors or targets at all
    assert span_coordinates(unit, [], ring) == (3, [])
    assert span_coordinates([(), ()], [()], ring) == (0, [(zero, zero)])
    assert span_coordinates([], [], ring) == (0, [])
    # a full family spans everything; a zero vector adds nothing
    assert span_coordinates(unit, [target], ring) == (3, [target])
    assert span_coordinates([(zero,) * 3] + unit[:2], [target, unit[2]], ring) == (
        2,
        [(zero, half, one), None],
    )
    for vectors in ([unit[0], unit[0], unit[1]], unit + [target]):
        _check_span_against_oracle(vectors, [target, unit[2], (zero,) * 3], ring)
    # E12 and E21 flattened row-major: their bracket diag(1, -1) is outside
    e12, e21 = (zero, one, zero, zero), (zero, zero, one, zero)
    assert span_coordinates([e12, e21], [(one, zero, zero, -one)], ring) == (2, [None])
