"""Rational solution spaces of first-order systems, and semi-invariant checks.

The solver is a bounded ansatz: solutions are written v = u/d with d a
universal denominator candidate and u a polynomial vector of bounded degree;
equating polynomial coefficients of v' - B*v = 0 yields an exact linear
system over Q whose null space is returned, echelonized canonically
(unknowns ordered entry-major then by ascending power, pivots normalized
to one).  The system is built directly as rows of Python ints, one block of
rows per equation, each block cleared of denominators by one common lcm;
the elimination over Q reads such rows as they are.

Denominator bounds: at a finite place where every entry has at most a simple
pole, a rational solution with a pole of order k forces -k to be an integer
eigenvalue of the residue matrix there, so the exponent
max(|z| : z integer eigenvalue of the residue) is a valid (if sometimes
generous) bound.  Places with higher-order poles fall back to a user cap and
disqualify completeness claims.  The result is labeled complete only when
every finite place is a simple pole, the entries vanish at infinity (degree
growth <= -1, so integer eigenvalues of the leading coefficient there bound
solution degrees), the numerator cap covers that degree bound, and no
denominator override was supplied.  Integer eigenvalues come from
ratfun.integer_roots, which finds every one exactly, whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import Construction, constr_lie, constr_vector
from .errors import DimensionMismatch, InvalidArity, RedformError
from .linalg import Mat, QQ, charpoly, mat_vec, nullspace, row_space_canonical
from .ratfun import Poly, RatFn, _clear_all, common_denominator, integer_roots
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
    # inverse of the cofactor den/place * place' modulo the place, once per
    # distinct entry denominator the place divides
    inverses = {}
    for den in dict.fromkeys(e.den for row in sys.mat.data for e in row):
        if place.divides(den):
            g, inv, _ = ((den // place) * deriv).xgcd(place)
            if g.degree != 0:
                raise RedformError("place not coprime to residual denominator")
            inverses[den] = inv
    big = [[Fraction(0)] * (n * deg) for _ in range(n * deg)]
    for i in range(n):
        for j in range(n):
            entry = sys.mat.data[i][j]
            inv = inverses.get(entry.den)
            if inv is None:
                continue
            residue = (entry.num * inv) % place
            for k in range(deg):
                shifted = (residue * Poly.monomial(1, k)) % place
                for r in range(deg):
                    big[i * deg + r][j * deg + k] = shifted.coeff(r)
    return Mat(QQ, big)


def denominator_bound(sys: DiffSystem, pole_cap: int = 10) -> Poly:
    """Universal denominator candidate for rational solutions of the system."""
    return _denominator_bound(sys, pole_cap, singularities(sys))


def _denominator_bound(sys: DiffSystem, pole_cap: int, report) -> Poly:
    den = Poly.ONE
    for place, order in report.finite_places:
        if order == 1:
            eigen = integer_roots(charpoly(_residue_matrix(sys, place)))
            exponent = max((abs(z) for z in eigen), default=0)
        else:
            exponent = pole_cap
        if exponent > 0:
            den = den * place ** exponent
    return den.monic()


def _infinity_degree_info(sys: DiffSystem, report):
    """(bounded, dmax): when entries vanish at infinity, solution degrees are
    bounded by the largest integer eigenvalue of the 1/x coefficient matrix
    (None when there is none, meaning only the zero solution is rational)."""
    if report.order_at_infinity > -1:
        return False, None
    n = sys.n
    lead = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            e = sys.mat.data[i][j]
            if not e.is_zero and e.num.degree - e.den.degree == -1:
                lead[i][j] = e.num.leading / e.den.leading
    eigen = integer_roots(charpoly(Mat(QQ, lead)))
    return True, max(eigen, default=None)


def _ansatz_rows(sys: DiffSystem, den: Poly, cap: int) -> tuple:
    """The coefficient system of the ansatz v = u/den, deg u <= cap, as rows
    of Python ints.

    With lead_a = clear*den, lead_b = clear*den' and P = clear*den*B, where
    the polynomial clear makes every P_ij a polynomial, clear*den^2 times
    v' - B*v = 0 reads lead_a*u' - lead_b*u - P*u = 0.  Unknown u_{j,s}, the
    coefficient of x^s in entry j, is column j*(cap+1)+s; row (i, k) is the
    coefficient of x^k in equation i:
        -P_ij[k-s] + [i=j]*(s*lead_a[k-s+1] - lead_b[k-s]),
    times the one positive rational that clears P_i*, lead_a and lead_b to
    coprime integers (``_clear_all``).  Rows run over k = 0..K for the
    largest K with a nonzero entry, and at least k = 0, so a zero system
    keeps all n*(cap+1) columns.
    """
    n = sys.n
    width = cap + 1
    # lcm(den, den_ij...) = clear*den, so the common denominator of 1/den and
    # the B_ij is lead_a, over which 1/den reads clear and B_ij reads P_ij
    lead_a, (clear, *entries) = common_denominator(
        [RatFn(Poly.ONE, den), *(e for row in sys.mat.data for e in row)]
    )
    lead_b = clear * den.derivative()
    height = cap + max(
        len(lead_a.coeffs) - 1, len(lead_b.coeffs), *(len(p.coeffs) for p in entries)
    )
    blocks = []
    for i in range(n):
        (a, b, *row), _ = _clear_all([lead_a, lead_b, *entries[i * n : i * n + n]])
        eq = [[0] * (n * width) for _ in range(max(height, 1))]
        for j, p in enumerate(row):
            for t, c in enumerate(p):
                if c:
                    for s in range(width):
                        eq[t + s][j * width + s] -= c
        for s in range(width):
            col = i * width + s
            for t, c in enumerate(b):
                eq[t + s][col] -= c
            if s:
                for t, c in enumerate(a):
                    eq[t + s - 1][col] += s * c
        blocks.append(eq)
    last = max((k for eq in blocks for k, r in enumerate(eq) if any(r)), default=0)
    return tuple(tuple(r) for eq in blocks for r in eq[: last + 1])


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
    else:
        report = singularities(sys)
        den = _denominator_bound(sys, pole_cap, report)
    # the cap applies to the ansatz numerator; make sure constants stay
    # representable even for large denominators
    cap = max(num_deg_cap, den.degree)
    kernel = nullspace(Mat._unchecked(QQ, _ansatz_rows(sys, den, cap)))
    canonical = row_space_canonical(kernel, QQ)

    basis = []
    for coeffs in canonical:
        vec = tuple(
            RatFn(Poly(coeffs[j * (cap + 1) : (j + 1) * (cap + 1)]), den)
            for j in range(n)
        )
        basis.append(vec)

    complete = False
    if den_override is None and all(order == 1 for _, order in report.finite_places):
        bounded, dmax = _infinity_degree_info(sys, report)
        # cap >= 0, so a negative needed degree dmax + deg(den) always passes
        complete = bounded and (dmax is None or cap >= dmax + den.degree)
    return SolutionSpace(n, tuple(basis), den, cap, complete)


def check_semi_invariant(sys: DiffSystem, c: Construction, v):
    """Rate f with v' - constr_lie(c, A)*v = f*v, or None if no such f."""
    v = constr_vector(c, sys.n, v)
    dim = len(v)
    if all(e.is_zero for e in v):
        raise ValueError("semi-invariant candidate must be nonzero")
    lie = constr_lie(c, sys.mat)
    residual = [e.derivative() - w for e, w in zip(v, mat_vec(lie, v))]
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
    _, nums = common_denominator([e for v in vs + ws for e in v])
    width = max([1] + [p.degree + 1 for p in nums])
    flat = [p.coeff(k) for p in nums for k in range(width)]
    size = sizes.pop() * width
    rows = [flat[i * size : (i + 1) * size] for i in range(len(vs) + len(ws))]
    return row_space_canonical(rows[: len(vs)], QQ) == row_space_canonical(rows[len(vs) :], QQ)
