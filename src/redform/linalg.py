"""Exact matrices over the rationals (``QQ``) and the rational functions
(``RF``).

A ring object supplies ``zero``, ``one`` and ``promote``; the scalars
implement Python arithmetic operators.  Reduced row echelon forms and null
spaces are defined over the fields Q and Q(x), with pivots normalized to
one.  The form is unique, so whatever pivot rows an elimination picks, its
result is the one dense field elimination gives.  Elimination runs on Python
ints, in one of two kernels:

* ``_rref_integer``, Gauss-Jordan on sparse ``{column: int}`` rows kept
  primitive, is ``rref`` over Q (so ``nullspace``, ``rank``, ``solve``,
  ``row_space_canonical``, ``in_span`` and ``inv``).  Primitive rows beat
  fraction-free elimination on the large sparse systems over Q.
* ``_ffgj``, fraction-free Gauss-Jordan on rows cleared to Z[x] (integer
  coefficient lists, each row over its ``ratfun.common_denominator``), one
  exact division by the previous pivot per step and no gcd, is ``rref`` over
  Q(x) and the one ``det``: the signed last pivot over the row scales.  A
  matrix over Q takes it as a matrix of constants in Q(x).

``inv`` is the right half of ``rref([m | I])``.  ``charpoly`` runs
Berkowitz's division-free algorithm (Berkowitz 1984) on the integer matrix
d*m, d the lcm of the denominators of m: p_m(T) = d^-n p_dm(d T).  Products
over Q(x) sum each entry as ``ratfun`` integer pairs and normalize it once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from operator import add

from .errors import SingularGauge
from .ratfun import Poly, RatFn, _clear_all, _int_divmod, _int_mul, as_ratfn, common_denominator
from .ratfun import _pair_add, _pair_mul, _pair_ratfn, _ratfn_pair


class FractionField:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def promote(value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot promote {value!r} to a rational constant")


class RatFnField:
    zero = RatFn.ZERO
    one = RatFn.ONE

    @staticmethod
    def promote(value):
        return as_ratfn(value)


QQ = FractionField()
RF = RatFnField()


class Mat:
    """Immutable dense matrix; entries promoted through the ring on build."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, rows):
        data = tuple(tuple(ring.promote(e) for e in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        self.ring = ring
        self.data = data

    @classmethod
    def _unchecked(cls, ring, data) -> "Mat":
        """A matrix over ``ring`` whose ``data`` is already a rectangular
        tuple of row tuples of ring elements: no promotion, no shape check.
        For results built from the entries of existing matrices only."""
        m = object.__new__(cls)
        m.ring = ring
        m.data = data
        return m

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, ring, rows: int, cols: int) -> "Mat":
        return cls(ring, [[ring.zero] * cols for _ in range(rows)])

    @classmethod
    def from_cols(cls, ring, cols) -> "Mat":
        cols = [list(c) for c in cols]
        return cls(ring, [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        self._same_shape(other)
        return Mat._unchecked(
            self.ring,
            tuple(
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.data, other.data)
            ),
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Mat._unchecked(
            self.ring,
            tuple(
                tuple([a - b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.data, other.data)
            ),
        )

    def __neg__(self):
        return Mat._unchecked(self.ring, tuple(tuple([-a for a in row]) for row in self.data))

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("inner dimension mismatch")
            rows, cols = _dot_rows(self.ring, self.data), _dot_rows(self.ring, zip(*other.data))
            return Mat._unchecked(
                self.ring, tuple(tuple([_dot(self.ring, row, col) for col in cols]) for row in rows)
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        scalar = self.ring.promote(scalar)
        return Mat._unchecked(
            self.ring, tuple(tuple([scalar * a for a in row]) for row in self.data)
        )

    def transpose(self) -> "Mat":
        return Mat._unchecked(self.ring, tuple(zip(*self.data)))

    def map_entries(self, fn, ring=None) -> "Mat":
        return Mat(ring or self.ring, [[fn(a) for a in row] for row in self.data])

    def hstack(self, other) -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return Mat(self.ring, [ra + rb for ra, rb in zip(self.data, other.data)])

    def submatrix(self, row_idx, col_idx) -> "Mat":
        return Mat(
            self.ring,
            [[self.data[i][j] for j in col_idx] for i in row_idx],
        )

    def kron(self, other) -> "Mat":
        """Kronecker product; pairs (i, j) are flattened row-major."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.data[i][j]
                    row.extend(a * b for b in other.data[k])
                out.append(row)
        return Mat(self.ring, out)

    def block_diag(self, other) -> "Mat":
        ring = self.ring
        top = [list(row) + [ring.zero] * other.cols for row in self.data]
        bottom = [[ring.zero] * self.cols + list(row) for row in other.data]
        return Mat(ring, top + bottom)

    @property
    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(a == zero for row in self.data for a in row)

    def det(self):
        """Exact determinant, the signed last pivot of ``_ffgj`` over the row
        scales; over Q, that of the same matrix of constants in Q(x)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.ring is QQ:
            return self.map_entries(RatFn.const, RF).det().constant_value()
        rows, num, den = _cleared_rows(self)
        top, pivots, sign = _ffgj(rows, self.cols)
        if len(pivots) < self.rows:
            return RatFn.ZERO
        return RatFn(Poly(top) * (sign * num), den)

    def inv(self) -> "Mat":
        """Inverse, the right half of rref([m | I]); raises SingularGauge."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        reduced, pivots = self.hstack(Mat.identity(self.ring, n)).rref()
        if pivots != tuple(range(n)):
            raise SingularGauge("matrix is not invertible")
        return Mat._unchecked(self.ring, tuple(row[n:] for row in reduced.data))

    def rref(self):
        """Reduced row echelon form over Q or Q(x); returns (matrix, pivot cols)."""
        if self.ring is QQ:
            return _rref_integer(self)
        if self.ring is not RF:
            raise TypeError("rref expects a matrix over Q or Q(x)")
        rows, _, _ = _cleared_rows(self)
        den, pivots, _ = _ffgj(rows, self.cols)
        top = Poly(den)
        out = [
            tuple([RatFn.ONE if e == den else RatFn(Poly(e), top) if e else RatFn.ZERO for e in row])
            for row in rows[: len(pivots)]
        ]
        out.extend([(RatFn.ZERO,) * self.cols] * (self.rows - len(pivots)))
        return Mat._unchecked(RF, tuple(out)), tuple(pivots)


def _cleared_rows(m: Mat):
    """(rows, num, den): row i of ``m`` over Q(x) is ``rows[i]``, a row of
    integer coefficient lists (lowest degree first, [] for zero), times
    num_i/den_i, with den_i the row's ``common_denominator`` and num_i in Q
    the scale of ``_clear_all`` on its numerators; ``num`` and ``den`` are
    the products of the num_i and of the den_i."""
    rows, num, den = [], Fraction(1), Poly.ONE
    for row in m.data:
        common, nums = common_denominator(row)
        ints, scale = _clear_all(nums)
        rows.append(ints)
        num, den = num * scale, den * common
    return rows, num, den


def _ffgj(rows, width):
    """Fraction-free Gauss-Jordan (FFGJ: Bareiss 1968; Nakos, Turner &
    Williams 1997) of ``rows`` of integer coefficient lists, in place.  At
    the pivot p in column j every other row becomes (p*row - row[j]*prow)/d,
    d the previous pivot, an exact division in Z[x].  Returns (den, pivots,
    sign): the first len(pivots) rows are then den times the reduced row
    echelon form, the others zero; sign is the parity of the row swaps, and
    sign*den the determinant of a square matrix of full rank."""
    den, pivots, sign = [1], [], 1
    for j in range(width):
        i = len(pivots)
        k = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if k is None:
            continue
        if k != i:
            rows[i], rows[k] = rows[k], rows[i]
            sign = -sign
        prow = rows[i]
        p = prow[j]
        for r, row in enumerate(rows):
            if r != i:
                f = row[j]
                row[:] = [_cross(p, a, f, b, den) for a, b in zip(row, prow)]
        den = p
        pivots.append(j)
    return den, pivots, sign


def _cross(p, a, f, b, d):
    """(p*a - f*b) / d on integer coefficient lists, d dividing exactly."""
    out = [x - y for x, y in zip_longest(_int_mul(p, a), _int_mul(f, b), fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out if d == [1] else _int_divmod(out, d)[0]


def _integer_row(row):
    """The rational row times the lcm of its denominators, as its nonzero
    entries ``{column: int}``."""
    nonzero = {j: a for j, a in enumerate(row) if a}
    scale = lcm(*(a.denominator for a in nonzero.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in nonzero.items()}


def _rref_integer(m: Mat):
    """Gauss-Jordan over Q on sparse integer rows; same result as the dense
    field elimination because the reduced row echelon form is unique."""
    active = [row for row in map(_integer_row, m.data) if row]
    done = []
    pivots = []
    for col in range(m.cols):
        if not active:
            break
        cands = [k for k, row in enumerate(active) if col in row]
        if not cands:
            continue
        # the shortest candidate keeps the fill-in of the other rows low
        pivot_row = active.pop(min(cands, key=lambda k: len(active[k])))
        active = [_eliminate(row, pivot_row, col) if col in row else row for row in active]
        active = [row for row in active if row]
        done = [_eliminate(row, pivot_row, col) if col in row else row for row in done]
        done.append(pivot_row)
        pivots.append(col)
    zero = Fraction(0)
    out = []
    for col, row in zip(pivots, done):
        dense = [zero] * m.cols
        pv = row[col]
        for j, v in row.items():
            dense[j] = Fraction(v, pv)
        out.append(dense)
    out.extend([zero] * m.cols for _ in range(m.rows - len(done)))
    return Mat._unchecked(m.ring, tuple(map(tuple, out))), tuple(pivots)


def _eliminate(row, pivot_row, col):
    """``row`` with its ``col`` entry cleared by ``pivot_row``, made primitive."""
    pv = pivot_row[col]
    g = gcd(pv, row[col])
    a, b = pv // g, row[col] // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in pivot_row.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    content = gcd(*out.values())
    if content > 1:
        out = {j: v // content for j, v in out.items()}
    return out


def _dot_rows(ring, rows):
    # over RF, _dot takes each entry as an integer pair
    return [[_ratfn_pair(as_ratfn(e)) for e in row] for row in rows] if ring is RF else list(rows)


def _dot(ring, row, col):
    """sum_k row[k] * col[k] of two ``_dot_rows`` rows.  Over RF the products
    are summed as pairs and the entry is normalized once."""
    if ring is RF:
        terms = [_pair_mul(a, b) for a, b in zip(row, col) if a[0] and b[0]]
        return _pair_ratfn(*reduce(_pair_add, terms)) if terms else RatFn.ZERO
    return reduce(add, [a * b for a, b in zip(row, col)])


def mat_vec(m: Mat, vec):
    vec = tuple(vec)
    if m.cols != len(vec):
        raise ValueError("matrix/vector size mismatch")
    (col,) = _dot_rows(m.ring, [vec])
    return tuple(_dot(m.ring, row, col) for row in _dot_rows(m.ring, m.data))


def nullspace(m: Mat):
    """Canonical basis of the right kernel, one vector per free column."""
    ring = m.ring
    reduced, pivots = m.rref()
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [ring.zero] * m.cols
        vec[f] = ring.one
        for r, p in enumerate(pivots):
            vec[p] = -reduced.data[r][f]
        basis.append(tuple(vec))
    return basis


def rank(m: Mat) -> int:
    return len(m.rref()[1])


def solve(m: Mat, rhs):
    """One exact solution of m*x = rhs (free variables zero), or None."""
    ring = m.ring
    rhs = [ring.promote(b) for b in rhs]
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = Mat(ring, [list(row) + [b] for row, b in zip(m.data, rhs)])
    reduced, pivots = aug.rref()
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ring.zero] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][m.cols]
    return tuple(x)


def row_space_canonical(vectors, ring):
    """Canonical (RREF) representation of the span of the given row vectors."""
    vecs = [tuple(ring.promote(a) for a in v) for v in vectors]
    if not vecs:
        return ()
    reduced, pivots = Mat(ring, vecs).rref()
    return tuple(reduced.data[r] for r in range(len(pivots)))


def in_span(vectors, target, ring):
    """Whether target lies in the span of vectors (over the ring's field)."""
    vecs = list(vectors)
    if not vecs:
        return all(ring.promote(a) == ring.zero for a in target)
    return solve(Mat.from_cols(ring, vecs), list(target)) is not None


def charpoly(m: Mat) -> Poly:
    """Characteristic polynomial det(T*I - m) of a rational matrix.

    With d the lcm of the denominators, N = d*m is an integer matrix and
    det(T*I - m) = d^-n det(d*T*I - N).  Berkowitz's algorithm gets the
    characteristic polynomial p_k of each leading k x k block N_k of N without
    division: with r = N[k][:k], c = N[:k][k] and the vector
    q = (1, -N[k][k], -r c, -r N_k c, ..., -r N_k^(k-1) c), the coefficients
    of p_(k+1), highest degree first, are the first k+2 of the convolution
    of q with those of p_k.
    """
    if not isinstance(m.ring, FractionField):
        raise TypeError("charpoly expects a matrix over the rationals")
    n = m.rows
    d = lcm(*(a.denominator for row in m.data for a in row))
    a = [[e.numerator * (d // e.denominator) for e in row] for row in m.data]
    p = [1]
    for k in range(n):
        # residue matrices are sparse, so the products run over nonzero
        # (column, entry) pairs of r and of the rows of N_k only
        block = [[(j, x) for j, x in enumerate(row[:k]) if x] for row in a[:k]]
        r = [(j, x) for j, x in enumerate(a[k][:k]) if x]
        q = [1, -a[k][k]]
        v = [row[k] for row in a[:k]]
        for i in range(k):
            if i:
                v = [sum(x * v[j] for j, x in row) for row in block]
            q.append(-sum(x * v[j] for j, x in r))
        p = [
            sum(q[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    # p[k] is the coefficient of T^(n-k) in det(T*I - N); in det(T*I - m)
    # it is divided by d^k
    return Poly([Fraction(c, d ** k) for k, c in enumerate(p)][::-1])
