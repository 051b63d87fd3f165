"""Rational solution spaces of first-order systems, and semi-invariant checks.

The solver is a bounded ansatz: solutions are written v = u/d with d a
universal denominator candidate and u a polynomial vector of bounded degree;
equating polynomial coefficients of v' - B*v = 0 yields an exact linear
system over Q whose null space is returned, echelonized canonically
(unknowns ordered entry-major then by ascending power, pivots normalized
to one).

Denominator bounds: at a finite place where every entry has at most a simple
pole, a rational solution with a pole of order k forces -k to be an integer
eigenvalue of the residue matrix there, so the exponent
max(|z| : z integer eigenvalue of the residue) is a valid (if sometimes
generous) bound.  Places with higher-order poles fall back to a user cap and
disqualify completeness claims.  The result is labeled complete only when
every finite place was bounded by residue analysis, the entries vanish at
infinity (degree growth <= -1, so integer eigenvalues of the leading
coefficient there bound solution degrees), the numerator cap covers the
certified degree, and no denominator override was supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import Construction, constr_dim, constr_lie
from .errors import DimensionMismatch, InvalidArity, RedformError
from .linalg import Mat, QQ, charpoly, nullspace, row_space_canonical
from .ratfun import Poly, RatFn, integer_roots
from .systems import DiffSystem, singularities


@dataclass(frozen=True)
class SolutionSpace:
    """Echelonized basis of rational solutions found within the bounds."""

    size: int
    basis: tuple
    denominator: Poly
    num_degree_cap: int
    complete: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class SemiInvariant:
    """A coordinate vector spanning a stable line, with its rate f:
    v' = (constr_lie(c, A) + f*Id) v."""

    constr: Construction
    vector: tuple
    rate: RatFn


def _residue_matrix(sys: DiffSystem, place: Poly) -> Mat:
    """Residue at a simple place as a Q-linear operator on (Q[x]/(place))^n.

    For an entry a/(place*h) the residue at a root z of the place is
    a(z)/(h(z)*place'(z)); the corresponding element of Q[x]/(place) acts on
    the quotient by multiplication, giving a block matrix over Q of size
    n*deg(place) whose eigenvalues collect the residue eigenvalues over all
    roots of the place.
    """
    n = sys.n
    deg = place.degree
    deriv = place.derivative()
    blocks = []
    for i in range(n):
        row_blocks = []
        for j in range(n):
            entry = sys.mat.data[i][j]
            if not place.divides(entry.den):
                row_blocks.append(None)
                continue
            cofactor = (entry.den // place) * deriv
            g, inv, _ = cofactor.xgcd(place)
            if g.degree != 0:
                raise RedformError("place not coprime to residual denominator")
            residue = (entry.num * inv) % place
            cols = []
            for k in range(deg):
                shifted = (residue * Poly.monomial(1, k)) % place
                cols.append([shifted.coeff(r) for r in range(deg)])
            row_blocks.append(cols)
        blocks.append(row_blocks)
    big = [[Fraction(0)] * (n * deg) for _ in range(n * deg)]
    for i in range(n):
        for j in range(n):
            cell = blocks[i][j]
            if cell is None:
                continue
            for k in range(deg):
                for r in range(deg):
                    big[i * deg + r][j * deg + k] = cell[k][r]
    return Mat(QQ, big)


def _integer_eigenvalues(m: Mat):
    """Integer roots of the characteristic polynomial, with certainty flag."""
    return integer_roots(charpoly(m))


def denominator_bound(sys: DiffSystem, pole_cap: int = 10) -> Poly:
    """Universal denominator candidate for rational solutions of the system."""
    return _denominator_bound_info(sys, pole_cap)[0]


def _denominator_bound_info(sys: DiffSystem, pole_cap: int):
    report = singularities(sys)
    den = Poly.ONE
    certified = True
    for place, order in report.finite_places:
        if order == 1:
            eigen, eigen_certified = _integer_eigenvalues(_residue_matrix(sys, place))
            certified = certified and eigen_certified
            exponent = max((abs(z) for z in eigen), default=0)
        else:
            exponent = pole_cap
            certified = False
        if exponent > 0:
            den = den * place ** exponent
    return den.monic(), certified


def _infinity_degree_info(sys: DiffSystem):
    """(bounded, dmax): when entries vanish at infinity, solution degrees are
    bounded by the largest integer eigenvalue of the 1/x coefficient matrix
    (None when there is none, meaning only the zero solution is rational)."""
    report = singularities(sys)
    if report.order_at_infinity > -1:
        return False, None, True
    n = sys.n
    lead = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            e = sys.mat.data[i][j]
            if not e.is_zero and e.num.degree - e.den.degree == -1:
                lead[i][j] = e.num.leading / e.den.leading
    eigen, eigen_certified = _integer_eigenvalues(Mat(QQ, lead))
    dmax = max(eigen) if eigen else None
    return True, dmax, eigen_certified


def rational_solutions(
    sys: DiffSystem,
    num_deg_cap: int = 30,
    den_override: Poly | None = None,
    pole_cap: int = 10,
) -> SolutionSpace:
    """All rational solutions of y' = B*y found within the stated bounds.

    An empty basis means no solutions were found within the bounds, which is
    definitive only when the result is labeled complete.
    """
    if num_deg_cap < 0:
        raise ValueError("numerator degree cap must be >= 0")
    if pole_cap < 0:
        raise ValueError("pole cap must be >= 0")
    n = sys.n
    if den_override is not None:
        den = den_override.monic()
        den_certified = False
    else:
        den, den_certified = _denominator_bound_info(sys, pole_cap)
    # the cap applies to the ansatz numerator; make sure constants stay
    # representable even for large denominators
    cap = max(num_deg_cap, den.degree)

    den_diff = den.derivative()
    scaled = sys.mat.map_entries(lambda e: e * RatFn(den))
    clear = Poly.ONE
    for row in scaled.data:
        for e in row:
            clear = clear.lcm(e.den)
    poly_system = [
        [(e * RatFn(clear)).num for e in row] for row in scaled.data
    ]
    lead_a = clear * den
    lead_b = clear * den_diff

    # unknown u_{j,s}: entry j, coefficient of x^s; flat index j*(cap+1)+s
    columns = []
    max_deg = 0
    for j in range(n):
        for s in range(cap + 1):
            eq_entries = []
            for i in range(n):
                poly = -(poly_system[i][j] * Poly.monomial(1, s))
                if i == j:
                    if s >= 1:
                        poly = poly + lead_a * Poly.monomial(s, s - 1)
                    poly = poly - lead_b * Poly.monomial(1, s)
                eq_entries.append(poly)
                if poly.degree > max_deg:
                    max_deg = poly.degree
            columns.append(eq_entries)

    rows = []
    for i in range(n):
        for k in range(max_deg + 1):
            rows.append([col[i].coeff(k) for col in columns])
    kernel = nullspace(Mat(QQ, rows)) if rows else []
    canonical = row_space_canonical(kernel, QQ)

    basis = []
    for coeffs in canonical:
        vec = tuple(
            RatFn(Poly(coeffs[j * (cap + 1) : (j + 1) * (cap + 1)]), den)
            for j in range(n)
        )
        basis.append(vec)

    complete = False
    if den_override is None and den_certified:
        bounded, dmax, inf_certified = _infinity_degree_info(sys)
        if bounded and inf_certified:
            if dmax is None:
                complete = True
            else:
                needed = dmax + den.degree
                complete = needed < 0 or cap >= needed
    return SolutionSpace(n, tuple(basis), den, cap, complete)


def check_semi_invariant(sys: DiffSystem, c: Construction, v):
    """Rate f with v' - constr_lie(c, A)*v = f*v, or None if no such f."""
    v = tuple(v)
    dim = constr_dim(c, sys.n)
    if len(v) != dim:
        raise DimensionMismatch(f"vector length {len(v)} != construction dim {dim}")
    if all(e.is_zero for e in v):
        raise ValueError("semi-invariant candidate must be nonzero")
    lie = constr_lie(c, sys.mat)
    residual = []
    for i in range(dim):
        acc = v[i].derivative()
        for j in range(dim):
            acc = acc - lie.data[i][j] * v[j]
        residual.append(acc)
    pivot = next(i for i in range(dim) if not v[i].is_zero)
    rate = residual[pivot] / v[pivot]
    for i in range(dim):
        if residual[i] != rate * v[i]:
            return None
    return rate


@dataclass(frozen=True)
class HarvestEntry:
    constr: Construction
    space: SolutionSpace | None
    error: str | None


def harvest_invariants(
    sys: DiffSystem,
    constructions,
    num_deg_cap: int = 30,
    pole_cap: int = 10,
):
    """Rational solutions of every listed construction system.

    Per-construction failures (for example an exterior power exceeding the
    dimension) are collected instead of aborting the whole harvest.
    """
    entries = []
    for c in constructions:
        try:
            lie = constr_lie(c, sys.mat)
            space = rational_solutions(
                DiffSystem(sys.var, lie), num_deg_cap=num_deg_cap, pole_cap=pole_cap
            )
            entries.append(HarvestEntry(c, space, None))
        except (InvalidArity, DimensionMismatch) as exc:
            entries.append(HarvestEntry(c, None, f"{type(exc).__name__}: {exc}"))
    return entries


# ---------------------------------------------------------------------------
# Span comparison over the constants


def _constant_rows(vectors, den: Poly, width: int):
    rows = []
    for v in vectors:
        row = []
        for e in v:
            scaled = e * RatFn(den)
            if scaled.den != Poly.ONE:
                raise ValueError("common denominator does not clear the vector")
            row.extend(scaled.num.coeff(k) for k in range(width))
        rows.append(row)
    return rows


def same_constant_span(vs, ws) -> bool:
    """Whether two families of rational-function vectors have the same span
    over the constants (exact echelon comparison on a joint denominator)."""
    vs = [tuple(v) for v in vs]
    ws = [tuple(w) for w in ws]
    if not vs and not ws:
        return True
    sizes = {len(v) for v in vs} | {len(w) for w in ws}
    if len(sizes) != 1:
        return False
    den = Poly.ONE
    for fam in (vs, ws):
        for v in fam:
            for e in v:
                den = den.lcm(e.den)
    width = 1
    for fam in (vs, ws):
        for v in fam:
            for e in v:
                width = max(width, (e * RatFn(den)).num.degree + 1)
    rows_v = _constant_rows(vs, den, width)
    rows_w = _constant_rows(ws, den, width)
    return row_space_canonical(rows_v, QQ) == row_space_canonical(rows_w, QQ)
