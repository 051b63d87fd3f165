"""Rational solution spaces of first-order systems, and the connection on
spans of construction vectors: stable subspaces and semi-invariants.

The solver is a bounded ansatz: solutions are written v = u/d with d a
universal denominator candidate and u a polynomial vector of bounded degree;
equating polynomial coefficients of v' - B*v = 0 yields an exact linear
system over Q whose null space is returned, echelonized canonically
(unknowns ordered entry-major then by ascending power, pivots normalized
to one).  The system is built directly as rows of Python ints, one block of
rows per equation, each block cleared of denominators by one common lcm;
the elimination over Q reads such rows as they are.  One elimination, with
the columns reversed, gives that canonical basis (``linalg.nullspace``).

Each solve writes the system once over one denominator, B = nums/q with q
the monic lcm of the entry denominators (``ratfun.common_denominator``); the
residues, the degree bound at infinity and the ansatz all read that cleared
form, and both bounds are decided before the ansatz is built.

Denominator bounds: at a finite place where every entry has at most a simple
pole, a rational solution with a pole of order k forces -k to be an integer
eigenvalue of the residue matrix there, so the exponent
max(|z| : z integer eigenvalue of the residue) is a valid (if sometimes
generous) bound.  The residue is read at each rational root of the place
(``ratfun.rational_roots``), as an n x n integer matrix of values over one
integer, and on the quotient ring by the place only for the cofactor without
a rational root.  Places with higher-order poles fall back to a user cap and
disqualify completeness claims.  The result is labeled complete only when
every finite place is a simple pole, the entries vanish at infinity (degree
growth <= -1, so integer eigenvalues of the 1/x coefficient, nums_ij[deg q - 1],
bound solution degrees), the numerator cap covers that degree bound, and no
denominator override was supplied.  Integer eigenvalues come from
ratfun.integer_roots, which finds every one exactly, whatever its size.
When the result is complete the ansatz is built at that certified degree,
deg den plus the largest integer eigenvalue at infinity (at least 0), not
at the cap: its columns above would be zero in every kernel vector.  The
payload's ``num_degree_cap`` stays the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .constructions import Construction, constr_lie, constr_vector
from .errors import DimensionMismatch, InternalError, InvalidArity
from .linalg import Mat, QQ, RF, charpoly, charpoly_ints, mat_vec, nullspace, span_coordinates
from .ratfun import Poly, RatFn, _clear_all, _value, common_denominator, integer_roots, rational_roots
from .systems import DiffSystem, singularities

# default numerator degree cap and exponent cap at higher-order poles
NUM_DEG_CAP = 30
POLE_CAP = 10
# the largest ansatz, in rows times columns, that is built: its dense rows
# take memory and elimination time that grow with the square of the cap
ANSATZ_CELLS = 10_000_000


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


def _residue_matrix(q: Poly, nums, n: int, place: Poly) -> Mat:
    """Residue at a simple factor ``place`` of q (in ``_bounds``, the
    cofactor of a place without a rational root) as a Q-linear operator on
    (Q[x]/(place))^n, read off the cleared form B_ij = nums[i*n+j]/q.

    At a simple factor q = place*h with h coprime to the place, so the residue
    of B_ij at a root z of the place is nums_ij(z)/(h(z)*place'(z)); the
    corresponding element of Q[x]/(place) acts on the quotient by
    multiplication, giving a block matrix over Q of size n*deg(place) whose
    eigenvalues collect the residue eigenvalues over all roots of the place.
    """
    deg = place.degree
    g, inv, _ = ((q // place) * place.derivative()).xgcd(place)
    if g.degree != 0:
        raise InternalError("place not coprime to residual denominator")
    big = [[Fraction(0)] * (n * deg) for _ in range(n * deg)]
    for i in range(n):
        for j in range(n):
            residue = (nums[i * n + j] % place * inv) % place
            for k in range(deg):
                col = (Poly.monomial(1, k) * residue) % place
                for r in range(deg):
                    big[i * deg + r][j * deg + k] = col.coeff(r)
    return Mat(QQ, big)


def _bounds(q: Poly, nums, n: int, pole_cap: int, report):
    """(den, dmax) for the system with cleared form nums/q and singularity
    report ``report``: the universal denominator candidate, and the largest
    integer eigenvalue of the 1/x coefficient (0 without one) when every
    finite place is simple and the entries vanish at infinity, else None.

    q' and the nums are read as integer lists over one scale.  At a rational
    root z = y/l of a simple place, the residue nums_ij(z)/q'(z) is the
    integer matrix of their values times l^top over one integer; the
    cofactor of the place without a rational root takes the quotient-ring
    residue (``_residue_matrix``).  Together the factors have the
    eigenvalues of the residue on the whole place.
    """
    (dq, *ints), scale = _clear_all([q.derivative(), *nums])
    top = max(map(len, [dq, *ints])) - 1
    den = Poly.ONE
    for place, order in report.finite_places:
        if order == 1:
            eigen = []
            roots = rational_roots(place)
            for z in roots:
                y, l = z.numerator, z.denominator
                d = _value(dq, y, l, top)
                if not d:
                    raise InternalError("place not coprime to residual denominator")
                a = [[_value(p, y, l, top) for p in ints[i * n : i * n + n]] for i in range(n)]
                eigen += integer_roots(charpoly_ints(a, d))
            if len(roots) < place.degree:
                rest = place // prod((Poly([-z, 1]) for z in roots), start=Poly.ONE)
                eigen += integer_roots(charpoly(_residue_matrix(q, nums, n, rest)))
            exponent = max(map(abs, eigen), default=0)
        else:
            exponent = pole_cap
        if exponent > 0:
            den = den * place ** exponent
    dmax = None
    if report.order_at_infinity <= -1 and all(o == 1 for _, o in report.finite_places):
        # every nums_ij has degree below deg q, so its coefficient of
        # x^(deg q - 1) is its last entry when it has deg q of them
        lead = [
            [scale.numerator * p[-1] if p and len(p) == q.degree else 0 for p in ints[i * n : i * n + n]]
            for i in range(n)
        ]
        dmax = max(integer_roots(charpoly_ints(lead, scale.denominator)), default=0)
    return den.monic(), dmax


def _ansatz_rows(q: Poly, nums, n: int, den: Poly, cap: int) -> tuple:
    """The coefficient system of the ansatz v = u/den, deg u <= cap, for the
    system with cleared form B_ij = nums[i*n+j]/q, as rows of Python ints.

    With lead_a = lcm(den, q) = clear*den, lead_b = clear*den' and
    P = lead_a*B, so P_ij = nums_ij*(lead_a/q) is a polynomial, clear*den^2
    times v' - B*v = 0 reads lead_a*u' - lead_b*u - P*u = 0.  Unknown
    u_{j,s}, the coefficient of x^s in entry j, is column j*(cap+1)+s; row
    (i, k) is the coefficient of x^k in equation i:
        -P_ij[k-s] + [i=j]*(s*lead_a[k-s+1] - lead_b[k-s]),
    times the one positive rational that clears P_i*, lead_a and lead_b to
    coprime integers (``_clear_all``).  Rows run over k = 0..K for the
    largest K with a nonzero entry, and at least k = 0, so a zero system
    keeps all n*(cap+1) columns.  Raises ValueError, before building any
    row, when the untrimmed system, n*height rows by n*(cap+1) columns, has
    more than ``ANSATZ_CELLS`` cells.
    """
    width = cap + 1
    lead_a = den.lcm(q)
    clear, scale = lead_a // den, lead_a // q
    entries = [p * scale for p in nums]
    lead_b = clear * den.derivative()
    height = max(1, cap + max(lead_a.degree, len(lead_b.ints), *(len(p.ints) for p in entries)))
    if n * height * n * width > ANSATZ_CELLS:
        raise ValueError(
            f"the ansatz at numerator degree cap {cap} would have {n * height} x {n * width} cells,"
            f" over the budget of {ANSATZ_CELLS:,}: lower --num-deg or --pole-cap (the cap is at"
            f" least the degree {den.degree} of the denominator)"
        )
    blocks = []
    for i in range(n):
        (a, b, *row), _ = _clear_all([lead_a, lead_b, *entries[i * n : i * n + n]])
        eq = [[0] * (n * width) for _ in range(height)]
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
    num_deg_cap: int = NUM_DEG_CAP,
    den_override: Poly | None = None,
    pole_cap: int = POLE_CAP,
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
    q, nums = common_denominator([e for row in sys.mat.data for e in row])
    if den_override is None:
        den, dmax = _bounds(q, nums, n, pole_cap, singularities(sys))
    else:
        den, dmax = den_override.monic(), None
    # the cap applies to the ansatz numerator; make sure constants stay
    # representable even for large denominators
    cap = degree = max(num_deg_cap, den.degree)
    complete = False
    # with dmax, a solution's numerator has degree at most deg den + dmax;
    # every kernel vector is zero above that certified degree
    if dmax is not None and cap >= den.degree + dmax:
        complete, degree = True, max(0, den.degree + dmax)
    # columns reversed, the kernel read backwards is the canonical basis: see ``linalg.nullspace``
    rows = _ansatz_rows(q, nums, n, den, degree)
    kernel = nullspace(Mat._unchecked(QQ, tuple(row[::-1] for row in rows)))
    width = degree + 1
    basis = [
        tuple(RatFn(Poly(u[j * width : j * width + width]), den) for j in range(n))
        for u in (v[::-1] for v in reversed(kernel))
    ]
    return SolutionSpace(n, tuple(basis), den, cap, complete)


def span_connection(sys: DiffSystem, c: Construction, w_vectors):
    """(rank, coords, nablas) of the connection d/dx - constr_lie(c, A) on the
    span of the vectors: nablas[k] = w_k' - constr_lie(c, A)*w_k, and
    coords[k] its coordinates on the vectors (free ones zero), or None when
    it leaves their span.

    The span is carried into itself exactly when no coordinate is None; on a
    line, the one coordinate is the rate."""
    w_vectors = [constr_vector(c, sys.n, v) for v in w_vectors]
    lie = constr_lie(c, sys.mat)
    nablas = [tuple(e.derivative() - w for e, w in zip(v, mat_vec(lie, v))) for v in w_vectors]
    rank, coords = span_coordinates(w_vectors, nablas, RF)
    return rank, coords, nablas


def check_semi_invariant(sys: DiffSystem, c: Construction, v):
    """Rate f with v' - constr_lie(c, A)*v = f*v, or None if no such f."""
    rank, (rate,), _ = span_connection(sys, c, [v])
    if not rank:
        raise ValueError("semi-invariant candidate must be nonzero")
    return None if rate is None else rate[0]


@dataclass(frozen=True)
class HarvestEntry:
    constr: Construction
    space: SolutionSpace | None
    error: str | None


def harvest_invariants(
    sys: DiffSystem,
    constructions,
    num_deg_cap: int = NUM_DEG_CAP,
    pole_cap: int = POLE_CAP,
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
