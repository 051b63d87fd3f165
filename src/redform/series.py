"""Truncated power series at an ordinary point, and fundamental matrices.

A fundamental series is the unique truncated solution of U' = A*U with
U(x0) = Id.  It is computed from the polynomial form of the system: with q
the monic lcm of the denominators of A and N = q*A a polynomial matrix,
q*U' = N*U.  Expanding q, N and U = sum C_k*u^k in the local variable
u = x - x0 and comparing the coefficients of u^k gives

    q_0*(k+1)*C_{k+1} = sum_{i=0}^{min(k, deg N)} N_i*C_{k-i}
                        - sum_{j=1}^{min(k, deg q)} q_j*(k+1-j)*C_{k+1-j},

a recurrence with at most deg N + 1 matrix products and deg q scalings per
step.  At an ordinary point no denominator vanishes, so q_0 = q(x0) != 0.
The C_k are determined by U(x0) = Id alone and the arithmetic is exact, so
they equal the coefficients of the convolution with the Taylor coefficients
of A, (k+1)*C_{k+1} = sum_{i+j=k} A_i*C_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import Construction, constr_dim, constr_group
from .errors import DimensionMismatch, PoleAtPoint
from .linalg import Mat, QQ
from .ratfun import Poly, RatFn
from .systems import DiffSystem, is_ordinary_point


class TruncSeries:
    """Power series in the local variable known through order-1 terms."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        cs = cs[:order]
        cs.extend([Fraction(0)] * (order - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @staticmethod
    def constant(c, order: int) -> "TruncSeries":
        return TruncSeries([Fraction(c)], order)

    @staticmethod
    def from_ratfn(r: RatFn, x0, order: int) -> "TruncSeries":
        """Taylor expansion of r at x0 by exact series division."""
        x0 = Fraction(x0)
        den = r.den.shift(x0)
        if den.coeff(0) == 0:
            raise PoleAtPoint(f"pole at {x0}")
        num = r.num.shift(x0)
        num_s = TruncSeries([num.coeff(k) for k in range(order)], order)
        den_s = TruncSeries([den.coeff(k) for k in range(order)], order)
        return num_s * den_s.inverse()

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return self.order >= 1 and self.coeffs[0] != 0

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[:order], order)

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
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TruncSeries", self.order, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        return TruncSeries([a + b for a, b in zip(self.coeffs[:k], other.coeffs[:k])], k)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        return TruncSeries([a - b for a, b in zip(self.coeffs[:k], other.coeffs[:k])], k)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        out = [Fraction(0)] * k
        for i, a in enumerate(self.coeffs[:k]):
            if a == 0:
                continue
            for j in range(k - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(out, k)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        if not self.is_unit():
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for k in range(1, self.order):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return TruncSeries(out, self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def derivative(self) -> "TruncSeries":
        return TruncSeries(
            [k * c for k, c in enumerate(self.coeffs) if k >= 1], self.order - 1
        )

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
        return RatFn(Poly(value.coeffs))

    def lower(self, value: RatFn) -> TruncSeries:
        return TruncSeries(value.num.coeffs, self.order)


@dataclass(frozen=True)
class SeriesMat:
    """Matrix of truncated series around x0; coefficient view available."""

    var: str
    x0: Fraction
    mat: Mat

    @property
    def n(self) -> int:
        return self.mat.rows

    @property
    def order(self) -> int:
        return min(e.order for row in self.mat.data for e in row)

    def coeff_matrix(self, k: int) -> Mat:
        return Mat._unchecked(
            QQ, tuple(tuple([e.coeff(k) for e in row]) for row in self.mat.data)
        )

    def coeff_matrices(self):
        return [self.coeff_matrix(k) for k in range(self.order)]


def ratfn_matrix_series(m: Mat, x0, order: int) -> Mat:
    """Expand a matrix of rational functions into a series matrix at x0."""
    ring = SeriesRing(order)
    return m.map_entries(lambda e: TruncSeries.from_ratfn(e, x0, order), ring)


def fundamental_series(sys: DiffSystem, x0, order: int) -> SeriesMat:
    """Truncated fundamental solution of the system, normalized to identity.

    The coefficient matrices C_0 = Id, C_1, ..., C_(order-1) come from the
    recurrence of q*U' = N*U (see the module docstring), with q and N
    expanded at x0 by ``Poly.shift``; A itself is never expanded.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    x0 = Fraction(x0)
    if not is_ordinary_point(sys, x0):
        raise PoleAtPoint(f"{x0} is a pole of the system matrix")
    n = sys.n
    q = Poly.ONE
    for den in {e.den for row in sys.mat.data for e in row}:
        q = q.lcm(den)
    num = [[(e.num * (q // e.den)).shift(x0) for e in row] for row in sys.mat.data]
    n_coeffs = [
        Mat._unchecked(QQ, tuple(tuple([p.coeff(i) for p in row]) for row in num))
        for i in range(max((p.degree for row in num for p in row), default=-1) + 1)
    ]
    q_coeffs = q.shift(x0).coeffs
    cs = [Mat.identity(QQ, n)]
    for k in range(order - 1):
        acc = Mat.zeros(QQ, n, n)
        for i in range(min(k + 1, len(n_coeffs))):
            acc = acc + n_coeffs[i] * cs[k - i]
        for j in range(1, min(k + 1, len(q_coeffs))):
            acc = acc - cs[k + 1 - j].scale(q_coeffs[j] * (k + 1 - j))
        cs.append(acc.scale(1 / (q_coeffs[0] * (k + 1))))
    ring = SeriesRing(order)
    packed = Mat(
        ring,
        [
            [TruncSeries([cs[k].data[i][j] for k in range(order)], order) for j in range(n)]
            for i in range(n)
        ],
    )
    return SeriesMat(sys.var, x0, packed)


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
