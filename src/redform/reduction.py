"""Reduced-form criteria, constant bases, and the diagonalization reducer.

A system is analyzed against three checkable criteria: membership of its
matrix in the span of candidate constant generators (a Wei-Norman
decomposition), constant bases for supplied stable lines, and constancy of
every harvested invariant (the last is only conclusive under complete
reducibility, which is not decided here and is flagged as a caveat).

A stable subspace W has a constant basis exactly when its reduced row echelon
form over Q(x) is constant: that form is unique, and computed from a constant
basis it stays in Q.  A stable line is the case dim W = 1.

The reducer covers the diagonalizable case: given an endomorphism spanning a
stable line in End and a radical extension x = t^m over which it has distinct
rational-function eigenvalues, the eigenvector matrix P gauges the system to
a diagonal B together with an exactly re-checkable certificate.  B is read
off A_m*P - P' column by column, with no inverse, and the certificate's
check P*B = A_m*P - P' is the one gate that P diagonalizes the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import prod

from .constructions import (
    Construction,
    END_CONSTRUCTION,
    constr_group,
    constr_vector,
    vec_row_major,
)
from .errors import (
    DefectiveEigenstructure,
    DimensionMismatch,
    InternalError,
    NotSemiInvariant,
    NotSplit,
    NotStable,
    PoleAtPoint,
    SingularGauge,
)
from .linalg import Mat, QQ, RF, charpoly, mat_vec, nullspace, span_coordinates
from .ratfun import Poly, RatFn, common_denominator, poly_str, rational_roots, ratfn_sqrt, ratfn_str
from .solutions import NUM_DEG_CAP, POLE_CAP, check_semi_invariant, harvest_invariants, span_connection
from .systems import DiffSystem, check_pullback_degree, is_ordinary_point, mat_derivative, pullback


@dataclass(frozen=True)
class LieBasis:
    """Constant candidate generators (n x n over Q), expected independent."""

    n: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not g.is_square or g.rows != self.n:
                raise DimensionMismatch("generator size mismatch")


def wei_norman(sys: DiffSystem, basis: LieBasis):
    """Coefficients f_i with A = sum f_i N_i, or None when A is outside the
    rational-function span of the generators."""
    if basis.n != sys.n:
        raise DimensionMismatch("basis size mismatch")
    vectors = map(vec_row_major, basis.generators)
    _, (coeffs,) = span_coordinates(vectors, [vec_row_major(sys.mat)], RF)
    return None if coeffs is None else list(coeffs)


def _constant_echelon(vectors):
    """The reduced row echelon form over Q(x) of independent vectors, with
    the columns in reverse order: rows reversed back, in reverse order, as
    Fraction tuples, or None when the form is not constant."""
    reduced, pivots = Mat(RF, [v[::-1] for v in vectors]).rref()
    rows = reduced.data[: len(pivots)]
    if not all(e.is_constant for row in rows for e in row):
        return None
    return [tuple(e.constant_value() for e in reversed(row)) for row in reversed(rows)]


def constant_basis_subspace(sys: DiffSystem, c: Construction, w_vectors):
    """Constant basis of the stable span of the given vectors, or None.

    Verifies stability first (NotStable otherwise), then echelonizes the
    family over the rational functions with the columns in reverse order:
    the span has a constant basis exactly when that echelon form is constant,
    and its rows, reversed back, are then that basis.
    """
    w_vectors = [tuple(v) for v in w_vectors]
    if not w_vectors:
        raise ValueError("empty family")
    rank, coords, _ = span_connection(sys, c, w_vectors)
    if None in coords:
        raise NotStable("span is not stable under the connection")
    if rank < len(w_vectors):
        raise ValueError("family is dependent over the rational functions")
    return _constant_echelon(w_vectors)


@dataclass(frozen=True)
class LineVerdict:
    constr: Construction
    vector: tuple
    is_stable_line: bool
    rate: RatFn | None
    constant_basis: tuple | None

    @property
    def ok(self) -> bool:
        return self.is_stable_line and self.constant_basis is not None


@dataclass(frozen=True)
class InvariantVerdict:
    constr: Construction
    vector: tuple
    constant: bool


@dataclass(frozen=True)
class ReducedReport:
    """Per-criterion verdicts with exact witnesses.

    ``invariants_constant`` assumes complete reducibility of the system; that
    hypothesis is not verified here and the caveat travels with the report.
    """

    wei_norman_ok: bool | None
    wei_norman_coeffs: tuple | None
    lines: tuple
    lines_constant: bool | None
    invariants: tuple
    invariants_constant: bool | None
    harvest_complete: bool
    caveats: tuple

    @property
    def all_passed(self) -> bool:
        checks = [self.wei_norman_ok, self.lines_constant, self.invariants_constant]
        return all(c is not False for c in checks)


def is_reduced(
    sys: DiffSystem,
    basis: LieBasis | None = None,
    constructions=(),
    lines=(),
    num_deg_cap: int = NUM_DEG_CAP,
    pole_cap: int = POLE_CAP,
) -> ReducedReport:
    """Run the reduced-form checks that are decidable from the given data."""
    caveats = []
    wn_ok = None
    wn_coeffs = None
    if basis is not None:
        coeffs = wei_norman(sys, basis)
        wn_ok = coeffs is not None
        wn_coeffs = tuple(coeffs) if coeffs is not None else None

    line_verdicts = []
    for c, v in lines:
        v = tuple(v)
        rate = check_semi_invariant(sys, c, v)
        # a stable line is the d = 1 module; its constant basis is scaled so
        # that at the first nonzero entry p it reads lc(numerator of v_p)
        echelon = None if rate is None else _constant_echelon([v])
        constant = None
        if echelon is not None:
            (row,) = echelon
            p = next(i for i, e in enumerate(v) if not e.is_zero)
            scale = v[p].num.leading / row[p]
            constant = tuple(a * scale for a in row)
        line_verdicts.append(LineVerdict(c, v, rate is not None, rate, constant))
    lines_constant = None
    if line_verdicts:
        valid = [lv for lv in line_verdicts if lv.is_stable_line]
        if len(valid) != len(line_verdicts):
            caveats.append("some supplied lines are not stable lines of the system")
        lines_constant = all(lv.constant_basis is not None for lv in valid) if valid else None

    invariant_verdicts = []
    harvest_complete = True
    invariants_constant = None
    if constructions:
        entries = harvest_invariants(sys, constructions, num_deg_cap=num_deg_cap, pole_cap=pole_cap)
        for entry in entries:
            if entry.space is None:
                caveats.append(f"harvest failed for {entry.constr}: {entry.error}")
                harvest_complete = False
                continue
            if not entry.space.complete:
                harvest_complete = False
            for v in entry.space.basis:
                invariant_verdicts.append(
                    InvariantVerdict(entry.constr, v, all(e.is_constant for e in v))
                )
        invariants_constant = all(iv.constant for iv in invariant_verdicts)
        caveats.append("invariant-constancy verdict assumes complete reducibility")
        if not harvest_complete:
            caveats.append("invariant harvest incomplete within bounds")

    return ReducedReport(
        wei_norman_ok=wn_ok,
        wei_norman_coeffs=wn_coeffs,
        lines=tuple(line_verdicts),
        lines_constant=lines_constant,
        invariants=tuple(invariant_verdicts),
        invariants_constant=invariants_constant,
        harvest_complete=harvest_complete,
        caveats=tuple(caveats),
    )


def transport_gauge(p: Mat, x0) -> Mat:
    """Right-normalize a gauge matrix so it fixes values at x0: P*P(x0)^-1."""
    return p * p.map_entries(lambda e: RatFn.const(e(x0))).inv()


def verify_reduction_matrix(sys: DiffSystem, p: Mat, x0, invariants) -> bool:
    """Whether every invariant satisfies v(x) = constr_group(c, P)*v(x0)
    as an exact identity of rational functions."""
    if not is_ordinary_point(sys, x0):
        raise PoleAtPoint(f"{x0} is a pole of the system")
    if p.det().is_zero:
        raise SingularGauge("reduction matrix is singular")
    for c, v in invariants:
        v = constr_vector(c, sys.n, v)
        for e in v:
            if e.has_pole_at(x0):
                raise PoleAtPoint(f"invariant has a pole at {x0}")
        if mat_vec(constr_group(c, p), [e(x0) for e in v]) != v:
            return False
    return True


@dataclass(frozen=True)
class ReductionCertificate:
    """Exactly re-checkable witness of a reduction to a diagonal form."""

    var: str
    extension_order: int
    gauge_matrix: Mat
    reduced: Mat
    basis: tuple
    coeffs: tuple

    def verify(self, original: DiffSystem) -> bool:
        """Whether P*B = A_m*P - P' for a nonsingular P of B's size, with A_m
        the original pulled back along x = t^m, and B = sum f_j N_j.  No
        gauge and no inverse.  The reducer reads each B_jj off one entry of
        A_m*P - P'; this check recomputes that image from the original system
        and asks every entry to equal P*B's, P to be nonsingular, and B to
        recombine from the certificate's generators."""
        a = pullback(original, self.extension_order, new_var=self.var).mat
        p, b = self.gauge_matrix, self.reduced
        if not (p.is_square and b.is_square and p.rows == b.rows == a.rows) or p.det().is_zero:
            return False
        if p * b != a * p - mat_derivative(p):
            return False
        terms = [Mat(RF, g.data).scale(f) for f, g in zip(self.coeffs, self.basis)]
        return sum(terms, Mat.zeros(RF, b.rows, b.rows)) == b


def _eigenvalues_ratfn(m: Mat, var: str):
    """Pairwise distinct eigenvalues of a stable-line endomorphism F over the
    rational functions in ``var``, or a NotSplit or DefectiveEigenstructure
    verdict naming its witness.

    F' = [A, F] + f*F makes the eigenvalues h*mu_i with h' = f*h and constant
    mu_i.  If they are rational functions, not all zero, then tr(F^2) made
    monic is the square of some g, a constant multiple of h, and the mu_i (up
    to that constant) are the eigenvalues of the constant matrix F/g.
    """
    n = m.rows
    trace = sum((m.data[i][j] * m.data[j][i] for i in range(n) for j in range(n)), RatFn.ZERO)
    if trace.is_zero:
        if prod([m] * n).is_zero:
            raise DefectiveEigenstructure("eigenvalues are not pairwise distinct: F is nilpotent")
        raise NotSplit("tr(F^2) = 0 but F is not nilpotent, so some eigenvalues are irrational")
    monic = RatFn(trace.num.monic(), trace.den)
    g = ratfn_sqrt(monic)
    if g is None:
        raise NotSplit(
            f"tr(F^2) made monic, {ratfn_str(monic, var)}, is not a square; "
            "a larger radical extension is needed"
        )
    # q is the common denominator of F; g^2 is tr(F^2) made monic, so g has
    # no pole where q has no zero
    q, _ = common_denominator([e for row in m.data for e in row])
    x0 = next(x for x in count() if q(x) and g.num(x))
    const = [[e(x0) / g(x0) for e in row] for row in m.data]
    chi = charpoly(Mat(QQ, const))
    roots = rational_roots(chi)
    if len(roots) < n:
        if chi.gcd(chi.derivative()).degree > 0:
            raise DefectiveEigenstructure("eigenvalues are not pairwise distinct")
        raise NotSplit(
            f"F/g has the constant characteristic polynomial {poly_str(chi, 'T')}, "
            "whose roots are not all rational"
        )
    return [g * z for z in roots]


def reduce_by_diagonalization(sys: DiffSystem, endo: Mat, m: int) -> ReductionCertificate:
    """Reduce the system by diagonalizing a stable-line endomorphism after the
    radical pullback x = t^m.

    The gauge matrix P collects eigenvectors of the pulled-back endomorphism
    (first nonzero coordinate scaled to one, then cleared of denominators),
    columns ordered by a canonical eigenvalue key, largest first.  B_jj is
    column j of A_m*P - P' over column j of P, read at its first nonzero
    entry; ``ReductionCertificate.verify``, the one gate, refuses an image
    column that is not B_jj times P's, and the reducer raises InternalError.
    The system and the endomorphism are both held to
    ``check_pullback_degree`` before any work.
    """
    pulled = pullback(sys, m)
    check_pullback_degree(m, endo)
    if check_semi_invariant(sys, END_CONSTRUCTION, vec_row_major(endo)) is None:
        raise NotSemiInvariant("endomorphism does not span a stable line in End")
    endo_t = endo.map_entries(lambda e: e.substitute_power(m))

    eigen = _eigenvalues_ratfn(endo_t, pulled.var)
    eigen.sort(key=lambda value: (value.den.coeffs, value.num.coeffs), reverse=True)

    columns = []
    for value in eigen:
        kernel = nullspace(endo_t - Mat.identity(RF, endo_t.rows).scale(value))
        if len(kernel) != 1:
            raise InternalError("eigenspace of a simple eigenvalue is not one-dimensional")
        pivot = next(e for e in kernel[0] if not e.is_zero)
        _, nums = common_denominator([e / pivot for e in kernel[0]])
        columns.append([RatFn(p) for p in nums])
    p = Mat(RF, zip(*columns))
    image = (pulled.mat * p - mat_derivative(p)).data
    diag = [next(image[i][j] / e for i, e in enumerate(c) if not e.is_zero) for j, c in enumerate(columns)]
    b = Mat(RF, [[e if i == j else RatFn.ZERO for j in range(len(diag))] for i, e in enumerate(diag)])
    basis, coeffs = _diagonal_decomposition(diag)
    cert = ReductionCertificate(
        var=pulled.var,
        extension_order=m,
        gauge_matrix=p,
        reduced=b,
        basis=tuple(basis),
        coeffs=tuple(coeffs),
    )
    if not cert.verify(sys):
        raise InternalError("certificate failed self-verification")
    return cert


def _diagonal_decomposition(diag):
    """Constant diagonal generators and coefficients with B = sum f_j N_j,
    for B the diagonal matrix of the given entries.

    The f_j form a canonical basis (echelonized numerator rows over a common
    denominator) of the constant span of the diagonal entries, so they are
    linearly independent over the constants.
    """
    n = len(diag)
    den, numerators = common_denominator(diag)
    width = max((p.degree for p in numerators), default=0) + 1
    rows = [[p.coeff(k) for k in range(width)] for p in numerators]
    reduced, pivots = Mat(QQ, rows).rref()
    coeffs = [RatFn(Poly(row), den) for row in reduced.data[: len(pivots)]]
    # a row's coordinates on the echelon basis are its entries at the pivots
    generators = [
        Mat(QQ, [[rows[i][p] if i == k else Fraction(0) for k in range(n)] for i in range(n)])
        for p in pivots
    ]
    return generators, coeffs
