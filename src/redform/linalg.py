"""Exact matrices over the rationals (``QQ``) and the rational functions
(``RF``).

A ring object supplies ``zero``, ``one`` and ``promote``; the scalars
implement Python arithmetic operators.  Reduced row echelon forms and null
spaces are defined over the fields Q and Q(x), with pivots normalized to
one.  The form is unique, so whatever pivot rows an elimination picks, its
result is the one dense field elimination gives.  Elimination runs on Python
ints, in one of two kernels, each pivoting only in the columns below a
width limit:

* ``_rref_integer``, Gauss-Jordan on sparse ``{column: int}`` rows kept
  primitive, over Q.  Primitive rows beat fraction-free elimination on the
  large sparse systems over Q.
* ``_ffgj``, fraction-free Gauss-Jordan on rows cleared to Z[x] (integer
  coefficient lists, each row over its entries' ``ratfun._common_den``), one
  exact division by the previous pivot per step and no gcd, over Q(x).

``_echelon`` is the one place that picks the kernel by the field: it clears
the rows, eliminates, and reads each reduced pivot row by its nonzero
entries.  ``rref``, ``nullspace`` and ``span_coordinates`` read its result.

``span_coordinates`` is the one span and membership test: one elimination
of [V | T], vectors then targets as columns, with pivots in V's columns only,
gives the rank of V and the coordinates of every target in the span, or
None for a target outside it.  ``inv`` takes the coordinates of the unit
vectors.  The nonzero rows of ``rref`` are the canonical basis of the row
space.  ``nullspace`` reads each kernel vector off ``_echelon``'s pivot rows
at the free columns only, with no dense reduced matrix; the ``nullspace`` of
m with its columns reversed, each vector and the list read backwards, is the
canonical basis of the kernel of m.
``charpoly_ints`` runs Berkowitz's division-free algorithm (Berkowitz
1984) on an integer matrix a over an integer d: p_(a/d)(T) = d^-n p_a(d T).
``charpoly`` of a rational matrix m hands it d*m over d, d the lcm of the
denominators of m.  ``det`` over Q is (-1)^n p_m(0); over Q(x) it is the
signed last pivot of ``_ffgj`` over the row scales.  Products over Q(x) sum
each entry as ``ratfun`` integer pairs and normalize it once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm, prod
from operator import add, sub

from .errors import SingularGauge
from .ratfun import Poly, RatFn, _common_den, _from_ints, _int_divmod, _int_mul, _rat, as_ratfn
from .ratfun import _coprime_ratfn, _pair_add, _pair_mul, _pair_ratfn


class FractionField:
    zero = Fraction(0)
    one = Fraction(1)
    promote = staticmethod(_rat)


class RatFnField:
    zero = RatFn.ZERO
    one = RatFn.ONE
    promote = staticmethod(as_ratfn)


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

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.data == other.data

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    def _entrywise(self, op, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Mat._unchecked(
            self.ring, tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.data, other.data))
        )

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        return Mat._unchecked(self.ring, tuple(tuple([-a for a in row]) for row in self.data))

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
        """Exact determinant: over Q, (-1)^n charpoly(m)(0) (``charpoly``
        rejects any other ring); over Q(x), the signed last pivot of ``_ffgj``
        over the row scales."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.ring is not RF:
            return (-1) ** self.rows * charpoly(self).coeff(0)
        cleared = [_cleared_row(row) for row in self.data]
        top, pivots, sign = _ffgj([ints for ints, _, _ in cleared], self.cols)
        if len(pivots) < self.rows:
            return RatFn.ZERO
        den = reduce(_int_mul, [den for _, _, den in cleared], [1])
        return _pair_ratfn(top, den, sign * prod(g for _, g, _ in cleared))

    def inv(self) -> "Mat":
        """Inverse, whose column j holds the coordinates of the unit vector
        e_j in the columns of m; raises SingularGauge."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        unit = Mat.identity(self.ring, self.rows).data
        rank, cols = span_coordinates(zip(*self.data), unit, self.ring)
        if rank < self.rows:
            raise SingularGauge("matrix is not invertible")
        return Mat._unchecked(self.ring, tuple(zip(*cols)))

    def rref(self):
        """Reduced row echelon form over Q or Q(x); returns (matrix, pivot cols)."""
        zero, width = self.ring.zero, self.cols
        pivots, reduced_row, _ = _echelon(self.data, width, self.ring)
        out = []
        for r in range(len(pivots)):
            dense = [zero] * width
            for j, v in reduced_row(r):
                dense[j] = v
            out.append(tuple(dense))
        out.extend([(zero,) * width] * (self.rows - len(pivots)))
        return Mat._unchecked(self.ring, tuple(out)), tuple(pivots)


def _echelon(data, width, ring):
    """Gauss-Jordan of the rows ``data`` over the field ``ring``, Q or Q(x),
    pivoting in the columns below ``width`` only: the one place that picks
    the kernel by the field.  Returns (pivots, reduced_row, rest_nonzero):
    ``reduced_row(r, cols=None)`` yields the pairs (j, entry) of the nonzero
    entries of the reduced row of pivot ``pivots[r]``, in the columns ``cols``
    only when they are given, and ``rest_nonzero(j)`` tells whether a row left
    without a pivot is nonzero in column j."""
    if ring is QQ:
        done, pivots, rest = _rref_integer(map(_integer_row, data), width)

        def reduced_row(r, cols=None):
            row = done[r]
            pv = row[pivots[r]]
            items = row.items() if cols is None else ((j, row[j]) for j in cols if j in row)
            return ((j, Fraction(v, pv)) for j, v in items)

        return pivots, reduced_row, lambda j: any(j in row for row in rest)
    if ring is not RF:
        raise TypeError("elimination expects a matrix over Q or Q(x)")
    rows = [_cleared_row(row)[0] for row in data]
    den, pivots, _ = _ffgj(rows, width)
    rest = rows[len(pivots) :]

    def reduced_row(r, cols=None):
        row = rows[r]
        items = enumerate(row) if cols is None else ((j, row[j]) for j in cols)
        return ((j, RatFn.ONE if e == den else _pair_ratfn(e, den)) for j, e in items if e)

    return pivots, reduced_row, lambda j: any(row[j] for row in rest)


def _cleared_row(row):
    """(ints, g, den): the row over Q(x) is ``ints``, a row of integer
    coefficient lists (lowest degree first, [] for zero) coprime together,
    times the integer g over the integer list den, its entries' pairs over
    their ``ratfun._common_den``."""
    den, nums = _common_den(row)
    g = gcd(*[c for a in nums for c in a])
    if g > 1:
        nums = [[c // g for c in a] for a in nums]
    return nums, g, den


def _ffgj(rows, width):
    """Fraction-free Gauss-Jordan (FFGJ: Bareiss 1968; Nakos, Turner &
    Williams 1997) of ``rows`` of integer coefficient lists, in place.  At
    the pivot p in column j every other row becomes (p*row - row[j]*prow)/d,
    d the previous pivot, an exact division in Z[x].  Returns (den, pivots,
    sign): the first len(pivots) rows are then den times the reduced row
    echelon form, the others zero below ``width``; sign is the parity of the
    row swaps, and sign*den the determinant of a square matrix of full rank."""
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
    entries ``{column: int}``; a row of ints as it is."""
    nonzero = {j: a for j, a in enumerate(row) if a}
    if all(type(a) is int for a in nonzero.values()):
        return nonzero
    scale = lcm(*(a.denominator for a in nonzero.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in nonzero.items()}


def _rref_integer(rows, width):
    """Gauss-Jordan over Q on sparse primitive integer rows ``{column: int}``,
    pivoting in the columns below ``width`` only: a forward pass clears each
    new pivot column from the rows not yet pivoted, then one
    back-substitution, from the last pivot row up, clears the later pivot
    columns from each earlier pivot row.  Returns (done, pivots, rest):
    ``done[r]`` is a multiple of the reduced row of pivot column
    ``pivots[r]``, and ``rest`` the nonzero rows left, zero below ``width``.
    Same result as the dense field elimination because the reduced row
    echelon form is unique."""
    active = [row for row in rows if row]
    done = []
    pivots = []
    for col in range(width):
        if not active:
            break
        cands = [k for k, row in enumerate(active) if col in row]
        if not cands:
            continue
        # the shortest candidate keeps the fill-in of the other rows low
        pivot_row = active.pop(min(cands, key=lambda k: len(active[k])))
        active = [_eliminate(row, pivot_row, col) if col in row else row for row in active]
        active = [row for row in active if row]
        done.append(pivot_row)
        pivots.append(col)
    # each later row is already reduced, so clearing its pivot column brings
    # no other pivot column back
    for r in range(len(done) - 2, -1, -1):
        for s in range(r + 1, len(done)):
            if pivots[s] in done[r]:
                done[r] = _eliminate(done[r], done[s], pivots[s])
    return done, pivots, active


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
    # over RF, _dot takes each entry as its integer pair
    return [[e.pair for e in row] for row in rows] if ring is RF else list(rows)


def _dot(ring, row, col):
    """sum_k row[k] * col[k] of two ``_dot_rows`` rows.  Over RF the products
    are summed as pairs and the entry is normalized once; one product
    alone is coprime already."""
    if ring is RF:
        terms = [_pair_mul(a, b) for a, b in zip(row, col) if a[0] and b[0]]
        if len(terms) < 2:
            return _coprime_ratfn(*terms[0]) if terms else RatFn.ZERO
        return _pair_ratfn(*reduce(_pair_add, terms))
    return reduce(add, [a * b for a, b in zip(row, col)])


def mat_vec(m: Mat, vec):
    vec = tuple(vec)
    if m.cols != len(vec):
        raise ValueError("matrix/vector size mismatch")
    (col,) = _dot_rows(m.ring, [[m.ring.promote(a) for a in vec]])
    return tuple(_dot(m.ring, row, col) for row in _dot_rows(m.ring, m.data))


def nullspace(m: Mat):
    """Right kernel, one vector per free column f: 1 at f, 0 at the other
    free columns, nonzero elsewhere only at pivots before f; read backwards,
    each vector and the list, the reduced echelon basis with columns reversed.
    Each pivot row of ``_echelon`` is read at the free columns only."""
    ring = m.ring
    pivots, reduced_row, _ = _echelon(m.data, m.cols, ring)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = {f: [ring.zero] * m.cols for f in free}
    for f, vec in basis.items():
        vec[f] = ring.one
    for r, p in enumerate(pivots):
        for f, v in reduced_row(r, free):
            basis[f][p] = -v
    return [tuple(vec) for vec in basis.values()]


def span_coordinates(vectors, targets, ring):
    """(rank, coords) of the span of ``vectors`` over the field Q or Q(x):
    for each target, ``coords[k]`` is the solution x of
    sum_j x_j vectors[j] = targets[k] with the free coordinates zero, or
    None when the target is outside the span.

    One Gauss-Jordan of [V | T], the vectors and then the targets as
    columns, pivoting in V's columns only: a target lies in the span exactly
    when the rows left without a pivot are zero in its column, and its
    coordinates are then read from the pivot rows.  Only the returned
    entries are normalized."""
    vecs = [tuple(map(ring.promote, v)) for v in vectors]
    cols = vecs + [tuple(map(ring.promote, t)) for t in targets]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("vector length mismatch")
    d = len(vecs)
    pivots, reduced_row, rest_nonzero = _echelon(zip(*cols), d, ring)
    inside = {t: [ring.zero] * d for t in range(d, len(cols)) if not rest_nonzero(t)}
    for r, p in enumerate(pivots):
        for t, v in reduced_row(r, inside):
            inside[t][p] = v
    return len(pivots), [tuple(inside[t]) if t in inside else None for t in range(d, len(cols))]


def charpoly(m: Mat) -> Poly:
    """Characteristic polynomial det(T*I - m) of a rational matrix: that of
    the integer matrix d*m over d, d the lcm of the denominators of m."""
    if not isinstance(m.ring, FractionField):
        raise TypeError("charpoly expects a matrix over the rationals")
    d = lcm(*(a.denominator for row in m.data for a in row))
    return charpoly_ints([[e.numerator * (d // e.denominator) for e in row] for row in m.data], d)


def charpoly_ints(a, d: int = 1) -> Poly:
    """Characteristic polynomial det(T*I - a/d) of the square integer matrix
    a (lists of ints) over the integer d != 0.

    det(T*I - a/d) = d^-n det(d*T*I - a).  Berkowitz's algorithm gets the
    characteristic polynomial p_k of each leading k x k block a_k of a
    without division: with r = a[k][:k], c = a[:k][k] and the vector
    q = (1, -a[k][k], -r c, -r a_k c, ..., -r a_k^(k-1) c), the coefficients
    of p_(k+1), highest degree first, are the first k+2 of the convolution
    of q with those of p_k.
    """
    n = len(a)
    p = [1]
    for k in range(n):
        # residue matrices are sparse, so the products run over nonzero
        # (column, entry) pairs of r and of the rows of a_k only
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
    # p[k] is the coefficient of T^(n-k) in det(T*I - a); in det(T*I - a/d)
    # it is divided by d^k, so the coefficient of T^j is p[n-j] d^j / d^n
    ints, power = [], 1
    for c in reversed(p):
        ints.append(c * power)
        power *= d
    power //= d
    return _from_ints(ints, 1 if power > 0 else -1, abs(power))
