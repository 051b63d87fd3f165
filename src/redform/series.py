"""Truncated power series at an ordinary point, and fundamental matrices.

A fundamental series is the unique truncated solution of U' = A*U with
U(x0) = Id.  It is computed from the polynomial form of the system: with q
the monic lcm of the denominators of A and N = q*A a polynomial matrix,
q*U' = N*U.  Expanding q and N in the local variable u = x - x0 and
clearing all their coefficients together (one lcm of their denominators,
one content) gives, for one rational s > 0, integers Q_j = s*q_j and
integer matrices N_i = s*N_i(x0).  Writing U = sum C_k*u^k and comparing
the coefficients of u^k then gives

    Q_0*(k+1)*C_{k+1} = sum_{i=0}^{k} (N_i - (k-i)*Q_{i+1}*Id)*C_{k-i},

with N_i = 0 past deg N and Q_j = 0 past deg q: at most
max(deg N + 1, deg q) integer matrix products per step.  At an ordinary
point no denominator vanishes, so Q_0 = s*q(x0) != 0 (it may be negative).

Each C_k is kept as M_k/d_k, an integer matrix over one denominator d_k > 0
with gcd(content(M_k), d_k) = 1.  A step multiplies each M_{k-i} by
L/d_{k-i}, L the lcm of the d's it reads, takes d = L*Q_0*(k+1), and
divides M and d by one gcd.  Fractions are built only for the result, one
per entry.  The C_k are determined by U(x0) = Id alone and the arithmetic
is exact, so they equal the coefficients of the convolution with the
Taylor coefficients of A, (k+1)*C_{k+1} = sum_{i+j=k} A_i*C_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .constructions import Construction, constr_dim, constr_group
from .errors import DimensionMismatch, PoleAtPoint
from .linalg import Mat, QQ
from .ratfun import Poly, RatFn, _clear_all, common_denominator
from .systems import DiffSystem


class TruncSeries:
    """Power series in the local variable, known through its u^(order-1)
    term and held as the ``Poly`` of the known terms; each ring operation
    is one ``Poly`` operation truncated to the smaller order."""

    __slots__ = ("poly", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        p = coeffs if isinstance(coeffs, Poly) else Poly(coeffs)
        self.poly = p if p.degree < order else Poly(p.coeffs[:order])
        self.order = order

    @staticmethod
    def constant(c, order: int) -> "TruncSeries":
        return TruncSeries([c], order)

    @staticmethod
    def from_ratfn(r: RatFn, x0, order: int) -> "TruncSeries":
        """Taylor expansion of r at x0 by exact series division."""
        x0 = Fraction(x0)
        den = r.den.shift(x0)
        if den.coeff(0) == 0:
            raise PoleAtPoint(f"pole at {x0}")
        return TruncSeries(r.num.shift(x0), order) * TruncSeries(den, order).inverse()

    @property
    def coeffs(self) -> tuple:
        """The coefficients of u^0, ..., u^(order-1), zeros included."""
        return self.poly.coeffs + (Fraction(0),) * (self.order - len(self.poly.coeffs))

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def is_unit(self) -> bool:
        return self.poly.coeff(0) != 0

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.poly, order)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.constant(other, self.order)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash(("TruncSeries", self.order, self.poly.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.poly + other.poly, min(self.order, other.order))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.poly - other.poly, min(self.order, other.order))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TruncSeries(-self.poly, self.order)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.poly * other.poly, min(self.order, other.order))

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        if not self.is_unit():
            raise ZeroDivisionError("series with zero constant term has no inverse")
        cs = self.coeffs
        inv0 = 1 / cs[0]
        out = [inv0]
        for k in range(1, self.order):
            out.append(-inv0 * sum(cs[i] * out[k - i] for i in range(1, k + 1)))
        return TruncSeries(out, self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def derivative(self) -> "TruncSeries":
        return TruncSeries(self.poly.derivative(), self.order - 1)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r}, order={self.order})"


class SeriesRing:
    def __init__(self, order: int):
        self.order = order
        self.zero = TruncSeries([], order)
        self.one = TruncSeries.constant(1, order)

    def promote(self, value):
        if isinstance(value, TruncSeries):
            return value
        if isinstance(value, (int, Fraction)):
            return TruncSeries.constant(value, self.order)
        raise TypeError(f"cannot promote {value!r} to a truncated series")

    @staticmethod
    def is_unit(value) -> bool:
        return value.is_unit()

    # to and from the polynomials in the local variable, for Mat.det
    @staticmethod
    def lift(value) -> RatFn:
        return RatFn(value.poly)

    def lower(self, value: RatFn) -> TruncSeries:
        return TruncSeries(value.num, self.order)


@dataclass(frozen=True)
class SeriesMat:
    """Truncated matrix series sum C_k*(x - x0)^k, stored as the tuple of its
    coefficient matrices C_0, ..., C_(order-1) over Q."""

    var: str
    x0: Fraction
    coeffs: tuple

    @property
    def n(self) -> int:
        return self.coeffs[0].rows

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff_matrix(self, k: int) -> Mat:
        return self.coeffs[k]

    def coeff_matrices(self):
        return list(self.coeffs)

    @property
    def mat(self) -> Mat:
        """The same series as one matrix of ``TruncSeries``, built on demand."""
        n, order = self.n, self.order
        return Mat._unchecked(
            SeriesRing(order),
            tuple(
                tuple(TruncSeries([c.data[i][j] for c in self.coeffs], order) for j in range(n))
                for i in range(n)
            ),
        )


def ratfn_matrix_series(m: Mat, x0, order: int) -> Mat:
    """Expand a matrix of rational functions into a series matrix at x0."""
    ring = SeriesRing(order)
    return m.map_entries(lambda e: TruncSeries.from_ratfn(e, x0, order), ring)


def fundamental_series(sys: DiffSystem, x0, order: int) -> SeriesMat:
    """Truncated fundamental solution of the system, normalized to identity.

    The coefficient matrices C_0 = Id, C_1, ..., C_(order-1) come from the
    integer recurrence of q*U' = N*U (see the module docstring): q and N
    come from ``common_denominator``, are expanded at x0 by ``Poly.shift``
    and cleared together by one ``_clear_all`` (one lcm), each C_k is
    carried as M_k/d_k with one gcd per order, and one ``Fraction`` per
    entry is built at the end.  A itself is never expanded.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    x0 = Fraction(x0)
    n = sys.n
    q, nums = common_denominator([e for row in sys.mat.data for e in row])
    q = q.shift(x0)
    if not q.coeffs[0]:
        raise PoleAtPoint(f"{x0} is a pole of the system matrix")
    (qs, *entries), _ = _clear_all([q, *(p.shift(x0) for p in nums)])
    # the step to C_(k+1) multiplies C_(k-i) by N_i - (k-i)*Q_(i+1)*Id, for
    # i < width; the N_i (as rows) and the Q_(i+1) are padded with zeros
    width = max([len(qs) - 1, *map(len, entries)])
    ns = [
        [[p[i] if i < len(p) else 0 for p in entries[r * n : r * n + n]] for r in range(n)]
        for i in range(width)
    ]
    diag = qs[1:] + [0] * (width - len(qs) + 1)
    # C_k = M_k/d_k with M_k stored by columns
    ms = [[[int(i == j) for i in range(n)] for j in range(n)]]
    ds = [1]
    for k in range(order - 1):
        terms = range(min(k + 1, width))
        lcm = math.lcm(*[ds[k - i] for i in terms])
        # entry (r, c) of sum_i (lcm/d_(k-i))*(N_i - (k-i)*Q_(i+1)*Id)*M_(k-i)
        # is one dot product: row r of the scaled factors laid end to end,
        # with column c of the M_(k-i) laid end to end
        rows = [[] for _ in range(n)]
        for i in terms:
            f = lcm // ds[k - i]
            t = diag[i] * (k - i)
            for r, (row, out) in enumerate(zip(ns[i], rows)):
                out.extend(f * (a - t if c == r else a) for c, a in enumerate(row))
        cols = [[e for i in terms for e in ms[k - i][c]] for c in range(n)]
        new = [[sum(map(mul, row, col)) for row in rows] for col in cols]
        d = lcm * qs[0] * (k + 1)
        g = math.gcd(d, *[e for col in new for e in col])
        if d < 0:
            g = -g
        ms.append([[e // g for e in col] for col in new])
        ds.append(d // g)
    coeffs = tuple(
        Mat._unchecked(QQ, tuple(tuple([Fraction(e, d) for e in row]) for row in zip(*m)))
        for m, d in zip(ms, ds)
    )
    return SeriesMat(sys.var, x0, coeffs)


def series_mat_derivative(s: Mat) -> Mat:
    order = min(e.order for row in s.data for e in row) - 1
    return s.map_entries(lambda e: e.derivative(), SeriesRing(order))


def series_eval_transport(
    sys: DiffSystem, c: Construction, x0, v, order: int
) -> bool:
    """Whether v(x) = constr_group(c, U)*v(x0) holds through the truncation.

    This is the defining transport property of an invariant's coordinate
    vector with respect to the normalized fundamental series U.
    """
    v = tuple(v)
    dim = constr_dim(c, sys.n)
    if len(v) != dim:
        raise DimensionMismatch(f"vector length {len(v)} != construction dim {dim}")
    x0 = Fraction(x0)
    for e in v:
        if e.has_pole_at(x0):
            raise PoleAtPoint(f"vector entry has a pole at {x0}")
    fundamental = fundamental_series(sys, x0, order)
    transported_mat = constr_group(c, fundamental.mat)
    w = [e(x0) for e in v]
    check_order = min(e.order for row in transported_mat.data for e in row)
    for i in range(dim):
        acc = TruncSeries([], check_order)
        for j in range(dim):
            if w[j] != 0:
                acc = acc + transported_mat.data[i][j] * w[j]
        lhs = TruncSeries.from_ratfn(v[i], x0, check_order)
        if lhs != acc:
            return False
    return True
