"""Fundamental matrices at an ordinary point, as truncated power series.

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

Series are values, not a ring: a ``SeriesMat`` holds the C_k, and a
``TruncSeries`` the Taylor coefficients of one rational function.  The
transport of an invariant under Constr(U) is read off the fundamental series
of the construction system constr_lie(c, A), which is Constr(U) by
functoriality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .constructions import Construction, constr_lie, constr_vector
from .errors import PoleAtPoint
from .linalg import Mat, QQ, mat_vec
from .ratfun import RatFn, _clear_all, _rat, common_denominator
from .solutions import ANSATZ_CELLS
from .systems import DiffSystem, is_ordinary_point


class TruncSeries:
    """The Taylor coefficients c_0, ..., c_(order-1) of a function in the
    local variable u = x - x0: a value holding ``coeffs``, zero-padded to
    ``order``, with no ring operations."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        coeffs = [_rat(c) for c in coeffs[:order]]
        self.coeffs = tuple(coeffs) + (Fraction(0),) * (order - len(coeffs))
        self.order = order

    @staticmethod
    def from_ratfn(r: RatFn, x0, order: int) -> "TruncSeries":
        """Taylor expansion of r = a/b at x0 by exact series division:
        c_k = (a_k - sum_(i>=1) b_i*c_(k-i)) / b_0 in the local variable."""
        x0 = _rat(x0)
        b = r.den.shift(x0).coeffs
        if b[0] == 0:
            raise PoleAtPoint(f"pole at {x0}")
        a = r.num.shift(x0)
        out = []
        for k in range(order):
            out.append((a.coeff(k) - sum(map(mul, b[1:], reversed(out)))) / b[0])
        return TruncSeries(out, order)


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


def fundamental_series(sys: DiffSystem, x0, order: int) -> SeriesMat:
    """Truncated fundamental solution of the system, normalized to identity.

    The coefficient matrices C_0 = Id, C_1, ..., C_(order-1) come from the
    integer recurrence of q*U' = N*U (see the module docstring): q and N
    come from ``common_denominator``, are expanded at x0 by ``Poly.shift``
    and cleared together by one ``_clear_all`` (one lcm), each C_k is
    carried as M_k/d_k with one gcd per order, and one ``Fraction`` per
    entry is built at the end.  A itself is never expanded.  The result
    grows as order^2 * n^2, so past ``ANSATZ_CELLS`` of it the call raises
    ValueError before any work.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    n = sys.n
    if order * order * n * n > ANSATZ_CELLS:
        raise ValueError(
            f"series order {order} on a {n}x{n} system is over the budget:"
            f" order^2 * n^2 = {order * order * n * n:,} passes {ANSATZ_CELLS:,}"
        )
    x0 = _rat(x0)
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


def series_eval_transport(
    sys: DiffSystem, c: Construction, x0, v, order: int
) -> bool:
    """Whether v(x) = Constr(U)*v(x0) holds through the truncation, U the
    normalized fundamental series of the system at the ordinary point x0.

    This is the defining transport property of an invariant's coordinate
    vector.  By functoriality Constr(U) is the normalized fundamental series
    of the construction system constr_lie(c, A), so with w = v(x0) the check
    is C_k*w = v_k for each of its coefficient matrices C_k and the Taylor
    coefficients v_k of v.
    """
    v = constr_vector(c, sys.n, v)
    if not is_ordinary_point(sys, x0):
        raise PoleAtPoint(f"{x0} is a pole of the system matrix")
    big = fundamental_series(DiffSystem(sys.var, constr_lie(c, sys.mat)), x0, order)
    taylor = [TruncSeries.from_ratfn(e, x0, order).coeffs for e in v]
    w = [t[0] for t in taylor]
    return all(
        mat_vec(ck, w) == tuple(t[k] for t in taylor) for k, ck in enumerate(big.coeffs)
    )
