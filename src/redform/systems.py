"""Linear differential systems dy/dx = A(x)*y over the rational functions.

A system is a square matrix of rational functions together with the name of
the independent variable.  Gauge transformations act by
``P[A] = P^-1*A*P - P^-1*P``' and base changes x = t^m pull a system back to
``m*t^(m-1)*A(t^m)`` by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .linalg import Mat, RF
from .ratfun import _MAX_POWER_DEGREE, Poly, RatFn, check_var, parse_ratfn, squarefree_factors


@dataclass(frozen=True)
class DiffSystem:
    var: str
    mat: Mat

    def __post_init__(self):
        if not self.mat.is_square:
            raise DimensionMismatch("system matrix must be square")

    @property
    def n(self) -> int:
        return self.mat.rows


def system(var: str, rows) -> DiffSystem:
    """Build a system from rational-function strings or values."""
    parsed = [
        [e if isinstance(e, RatFn) else parse_ratfn(e, var) if isinstance(e, str) else e for e in row]
        for row in rows
    ]
    return DiffSystem(var, Mat(RF, parsed))


def matrix(var: str, rows) -> Mat:
    return system(var, rows).mat


def mat_derivative(m: Mat) -> Mat:
    return m.map_entries(lambda e: e.derivative())


def gauge(sys: DiffSystem, p: Mat) -> DiffSystem:
    """Apply the gauge transformation P to the system; a singular P raises
    SingularGauge from its inverse."""
    if not p.is_square or p.rows != sys.n:
        raise DimensionMismatch("gauge matrix size must match the system")
    pinv = p.inv()
    return DiffSystem(sys.var, pinv * (sys.mat * p - mat_derivative(p)))


def check_pullback_degree(m: int, mat: Mat) -> None:
    """Raise ValueError when an entry of ``mat`` could reach degree
    m*(d + 1) - 1 > 1000 after x = t^m, d the largest numerator or
    denominator degree: past the degree a parsed power may reach."""
    d = max((max(map(len, e.pair)) - 1 for row in mat.data for e in row), default=0)
    if m * (d + 1) - 1 > _MAX_POWER_DEGREE:
        raise ValueError(
            f"pullback order {m} would give entries of degree up to {m * (d + 1) - 1},"
            f" over the bound of {_MAX_POWER_DEGREE}"
        )


def pullback(sys: DiffSystem, m: int, new_var: str | None = None) -> DiffSystem:
    """Pull the system back along x = t^m; solutions compose as y(t^m).
    Raises ValueError, before building anything, past
    ``check_pullback_degree``, and ParseError for a ``new_var`` that is not
    a name."""
    if m < 1:
        raise ValueError("pullback order must be >= 1")
    check_pullback_degree(m, sys.mat)
    if new_var is None:
        new_var = "t" if sys.var != "t" else "u"
    check_var(new_var)
    factor = RatFn(Poly.monomial(m, m - 1))
    pulled = sys.mat.map_entries(lambda e: factor * e.substitute_power(m))
    return DiffSystem(new_var, pulled)


@dataclass(frozen=True)
class SingularityReport:
    """Finite places (pairwise coprime squarefree factors with max pole order)
    plus the degree growth at infinity (max over entries of deg num - deg den,
    with the zero entry contributing -1)."""

    finite_places: tuple
    order_at_infinity: int


def _coprime_basis(polys):
    """Pairwise coprime monic factors covering all inputs, which must be
    squarefree: then each split below leaves coprime monic parts, so the
    factors are distinct."""
    basis = []
    for q in [p.monic() for p in polys if p.degree >= 1]:
        refined = []
        for b in basis:
            g = b.gcd(q)
            if g.degree < 1:
                refined.append(b)
                continue
            rest = b // g
            if rest.degree >= 1:
                refined.append(rest)
            refined.append(g)
            q = q // g
        if q.degree >= 1:
            refined.append(q)
        basis = refined
    return basis


def singularities(sys: DiffSystem) -> SingularityReport:
    """Finite places and growth at infinity of the system.

    The places are the coprime refinement of the Yun levels (s, k) of the
    distinct entry denominators, d = lc * prod s_k^k.  A place divides the
    level s_k of a denominator exactly when it is a pole of order k there,
    so its pole order is the largest k of a level it divides.
    """
    dens = list(dict.fromkeys(e.den for row in sys.mat.data for e in row if len(e.pair[1]) > 1))
    # every level goes into the refinement, so places with different pole
    # orders at different entries split apart
    claims = [level for d in dens for level in squarefree_factors(d)]
    places = _coprime_basis([s for s, _ in claims])
    report = [(p, max(k for s, k in claims if not s % p)) for p in places]
    report.sort(key=lambda item: (item[0].degree, item[0].coeffs))
    growth = max(
        (len(e.pair[0]) - len(e.pair[1])) for row in sys.mat.data for e in row
    ) if sys.n else -1
    return SingularityReport(tuple(report), growth)


def is_ordinary_point(sys: DiffSystem, x0) -> bool:
    return all(not e.has_pole_at(x0) for row in sys.mat.data for e in row)
