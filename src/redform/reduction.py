"""Reduced-form criteria, constant bases, and the diagonalization reducer.

A system is analyzed against three checkable criteria: membership of its
matrix in the span of candidate constant generators (a Wei-Norman
decomposition), constant bases for supplied stable lines, and constancy of
every harvested invariant (the last is only conclusive under complete
reducibility, which is not decided here and is flagged as a caveat).

Constant bases for stable subspaces use the wedge trick: if W has dimension d
and w spans its d-th exterior power with constant coordinates, the kernel of
v -> w ^ v is W and is computed over the constants, so it carries a constant
basis.

The reducer covers the diagonalizable case: given an endomorphism spanning a
stable line in End and a radical extension x = t^m over which it has distinct
rational-function eigenvalues, gauging by the eigenvector matrix produces a
diagonal system together with an exactly re-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import lcm

from .constructions import (
    Construction,
    END_CONSTRUCTION,
    constr_group,
    constr_lie,
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
from .linalg import Mat, QQ, RF, charpoly, in_span, mat_vec, nullspace, rank, row_space_canonical, solve
from .ratfun import Poly, RatFn, _rat, common_denominator, integer_roots, poly_str, ratfn_sqrt, ratfn_str
from .solutions import check_semi_invariant, harvest_invariants
from .systems import DiffSystem, gauge, is_ordinary_point, pullback


@dataclass(frozen=True)
class LieBasis:
    """Constant candidate generators (n x n over Q), expected independent."""

    n: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not g.is_square or g.rows != self.n:
                raise DimensionMismatch("generator size mismatch")


def lie_basis_flags(basis: LieBasis):
    """(independent, bracket_closed) of the generator span over Q."""
    vecs = [vec_row_major(g) for g in basis.generators]
    independent = True
    if vecs:
        m = Mat(QQ, vecs)
        independent = rank(m) == len(vecs)
    bracket_closed = True
    for a in basis.generators:
        for b in basis.generators:
            bracket = vec_row_major(a * b - b * a)
            if not in_span(vecs, bracket, QQ):
                bracket_closed = False
    return independent, bracket_closed


def wei_norman(sys: DiffSystem, basis: LieBasis):
    """Coefficients f_i with A = sum f_i N_i, or None when A is outside the
    rational-function span of the generators."""
    if basis.n != sys.n:
        raise DimensionMismatch("basis size mismatch")
    if not basis.generators:
        return [] if sys.mat.is_zero else None
    cols = [vec_row_major(g) for g in basis.generators]
    m = Mat.from_cols(RF, cols)
    target = list(vec_row_major(sys.mat))
    coeffs = solve(m, target)
    if coeffs is None:
        return None
    return list(coeffs)


def constant_basis_line(v):
    """Write v = g*c with g a rational function and c a constant vector.

    Returns (g, c) where g is the first nonzero entry normalized monic over
    monic, or None when some pairwise entry ratio is not constant.
    """
    v = tuple(v)
    pivot = next((i for i in range(len(v)) if not v[i].is_zero), None)
    if pivot is None:
        raise ValueError("constant-basis test needs a nonzero vector")
    lead = v[pivot]
    g = RatFn(lead.num.monic(), lead.den)
    consts = []
    for e in v:
        ratio = e / g
        if not ratio.is_constant:
            return None
        consts.append(ratio.constant_value())
    return g, tuple(consts)


def _wedge_coordinates(vectors):
    """Coordinates of v1 ^ ... ^ vd over increasing index tuples (lex)."""
    vectors = [tuple(v) for v in vectors]
    d = len(vectors)
    size = len(vectors[0])
    m = Mat.from_cols(RF, vectors)
    coords = []
    for rows_idx in combinations(range(size), d):
        coords.append(m.submatrix(rows_idx, range(d)).det())
    return tuple(coords)


def constant_basis_subspace(sys: DiffSystem, c: Construction, w_vectors):
    """Constant basis of the stable span of the given vectors, or None.

    Verifies stability first (NotStable otherwise), then requires the wedge
    of the family to be a rational multiple of a constant vector; the kernel
    of v -> wedge ^ v is then computed over Q and spans the same subspace.
    """
    w_vectors = [constr_vector(c, sys.n, v) for v in w_vectors]
    if not w_vectors:
        raise ValueError("empty family")
    dim = len(w_vectors[0])
    lie = constr_lie(c, sys.mat)
    for v in w_vectors:
        nabla = tuple(e.derivative() - w for e, w in zip(v, mat_vec(lie, v)))
        if not in_span(w_vectors, nabla, RF):
            raise NotStable("span is not stable under the connection")

    d = len(w_vectors)
    wedge = _wedge_coordinates(w_vectors)
    if all(e.is_zero for e in wedge):
        raise ValueError("family is dependent over the rational functions")
    line = constant_basis_line(wedge)
    if line is None:
        return None
    _, wedge_const = line

    if d >= dim:
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim)) for i in range(dim)]

    labels = list(combinations(range(dim), d))
    index = {lbl: i for i, lbl in enumerate(labels)}
    rows = []
    for big in combinations(range(dim), d + 1):
        row = [Fraction(0)] * dim
        for pos, i in enumerate(big):
            rest = big[:pos] + big[pos + 1 :]
            coeff = wedge_const[index[rest]]
            if coeff == 0:
                continue
            # moving the appended vector from slot d to slot pos
            sign = -1 if (d - pos) % 2 else 1
            row[i] = sign * coeff
        rows.append(row)
    kernel = nullspace(Mat(QQ, rows))
    if len(kernel) != d:
        raise InternalError("wedge kernel dimension mismatch")
    return [tuple(v) for v in kernel]


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
    num_deg_cap: int = 30,
    pole_cap: int = 10,
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
        if rate is None:
            line_verdicts.append(LineVerdict(c, v, False, None, None))
            continue
        line = constant_basis_line(v)
        line_verdicts.append(
            LineVerdict(c, v, True, rate, line[1] if line is not None else None)
        )
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
    x0 = _rat(x0)
    values = []
    for row in p.data:
        values.append([e(x0) for e in row])
    at_point = Mat(RF, [[RatFn.const(v) for v in row] for row in values])
    return p * at_point.inv()


def verify_reduction_matrix(sys: DiffSystem, p: Mat, x0, invariants) -> bool:
    """Whether every invariant satisfies v(x) = constr_group(c, P)*v(x0)
    as an exact identity of rational functions."""
    x0 = _rat(x0)
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
        pulled = pullback(original, self.extension_order, new_var=self.var)
        if gauge(pulled, self.gauge_matrix).mat != self.reduced:
            return False
        n = self.reduced.rows
        acc = Mat.zeros(RF, n, n)
        for f, g in zip(self.coeffs, self.basis):
            acc = acc + g.map_entries(lambda c, _f=f: _f * RatFn.const(c), RF)
        return acc == self.reduced


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
    q, nums = common_denominator([e for row in m.data for e in row])
    f = [nums[i * n : (i + 1) * n] for i in range(n)]
    trace = RatFn(sum((f[i][j] * f[j][i] for i in range(n) for j in range(n)), Poly()), q * q)
    if trace.is_zero:
        power = m
        for _ in range(n - 1):
            power = power * m
        if power.is_zero:
            raise DefectiveEigenstructure("eigenvalues are not pairwise distinct: F is nilpotent")
        raise NotSplit("tr(F^2) = 0 but F is not nilpotent, so some eigenvalues are irrational")
    monic = RatFn(trace.num.monic(), trace.den)
    g = ratfn_sqrt(monic)
    if g is None:
        raise NotSplit(
            f"tr(F^2) made monic, {ratfn_str(monic, var)}, is not a square; "
            "a larger radical extension is needed"
        )
    # g^2 is tr(F^2) made monic, so g has no pole where q has no zero
    x0 = next(x for x in count() if q(x) and g.num(x))
    scale = q(x0) * g(x0)
    const = [[p(x0) / scale for p in row] for row in f]
    chi = charpoly(Mat(QQ, const))
    # d*F/g is an integer matrix, so its rational eigenvalues are integers
    d = lcm(*(e.denominator for row in const for e in row))
    roots = integer_roots(Poly([c * d ** (n - k) for k, c in enumerate(chi.coeffs)]))
    if len(roots) < n:
        if chi.gcd(chi.derivative()).degree > 0:
            raise DefectiveEigenstructure("eigenvalues are not pairwise distinct")
        raise NotSplit(
            f"F/g has the constant characteristic polynomial {poly_str(chi, 'T')}, "
            "whose roots are not all rational"
        )
    return [g * Fraction(r, d) for r in roots]


def _eigen_sort_key(value: RatFn):
    return (value.den.coeffs, value.num.coeffs)


def reduce_by_diagonalization(sys: DiffSystem, endo: Mat, m: int) -> ReductionCertificate:
    """Reduce the system by diagonalizing a stable-line endomorphism after the
    radical pullback x = t^m.

    The gauge matrix collects eigenvectors of the pulled-back endomorphism
    (first nonzero coordinate scaled to one, then cleared of denominators),
    columns ordered by a canonical eigenvalue key, largest first.
    """
    if check_semi_invariant(sys, END_CONSTRUCTION, vec_row_major(endo)) is None:
        raise NotSemiInvariant("endomorphism does not span a stable line in End")
    pulled = pullback(sys, m)
    endo_t = endo.map_entries(lambda e: e.substitute_power(m))

    eigen = _eigenvalues_ratfn(endo_t, pulled.var)
    eigen.sort(key=_eigen_sort_key, reverse=True)

    n = sys.n
    columns = []
    for value in eigen:
        shifted = endo_t - Mat.identity(RF, n).scale(value)
        kernel = nullspace(shifted)
        if len(kernel) != 1:
            raise InternalError("eigenspace of a simple eigenvalue is not one-dimensional")
        pivot = next(e for e in kernel[0] if not e.is_zero)
        _, nums = common_denominator([e / pivot for e in kernel[0]])
        columns.append([RatFn(p) for p in nums])
    p = Mat.from_cols(RF, columns)
    reduced_sys = gauge(pulled, p)
    b = reduced_sys.mat
    for i in range(n):
        for j in range(n):
            if i != j and not b.data[i][j].is_zero:
                raise InternalError("eigenvector gauge did not diagonalize the system")

    basis, coeffs = _diagonal_decomposition(b)
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


def _diagonal_decomposition(b: Mat):
    """Constant diagonal generators and coefficients with B = sum f_j N_j.

    The f_j form a canonical basis (echelonized numerator rows over a common
    denominator) of the constant span of the diagonal entries, so they are
    linearly independent over the constants.
    """
    n = b.rows
    diag = [b.data[i][i] for i in range(n)]
    den, numerators = common_denominator(diag)
    width = max((p.degree for p in numerators), default=0) + 1
    rows = [[p.coeff(k) for k in range(width)] for p in numerators]
    canon = row_space_canonical(rows, QQ)
    coeffs = [RatFn(Poly(row), den) for row in canon]
    # a row's coordinates on the echelon basis are its entries at the pivots
    pivots = [next(k for k, a in enumerate(row) if a) for row in canon]
    generators = [
        Mat(QQ, [[rows[i][p] if i == k else Fraction(0) for k in range(n)] for i in range(n)])
        for p in pivots
    ]
    return generators, coeffs
