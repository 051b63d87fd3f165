"""Eigenrings, stability of candidate algebras inside End, and commutants.

The eigenring of a system is the algebra of matrices F with F' = A*F - F*A,
computed as the rational solutions of the endomorphism system under row-major
flattening; it always contains the identity.  Candidate generator families
are checked for stability under the End connection, for annihilation of
invariants, and against commutants of constant generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import (
    END_CONSTRUCTION,
    Construction,
    constr_lie,
    constr_vector,
    lie_work,
    mat_from_vec,
    vec_row_major,
)
from .errors import DimensionMismatch, NotReduced
from .linalg import Mat, QQ, RF, mat_vec, nullspace, span_coordinates
from .ratfun import RatFn, _rat
from .reduction import LieBasis, wei_norman
from .solutions import NUM_DEG_CAP, POLE_CAP, SolutionSpace, rational_solutions, span_connection
from .systems import DiffSystem

# the most work units (n^2 times ``lie_work``) that stabilizer_of_invariant
# takes on: n = 30 under base is 810,000
STABILIZER_UNITS = 1_000_000


@dataclass(frozen=True)
class EndBasis:
    """Matrices spanning a candidate subspace of End, independent over the
    constants."""

    elements: tuple

    def __post_init__(self):
        sizes = {e.rows for e in self.elements} | {e.cols for e in self.elements}
        if len(sizes) > 1:
            raise DimensionMismatch("mixed element sizes")


def eigenring(
    sys: DiffSystem,
    num_deg_cap: int = NUM_DEG_CAP,
    pole_cap: int = POLE_CAP,
    den_override=None,
) -> SolutionSpace:
    """Rational solutions of the endomorphism system, as flattened vectors."""
    lie = constr_lie(END_CONSTRUCTION, sys.mat)
    return rational_solutions(
        DiffSystem(sys.var, lie),
        num_deg_cap=num_deg_cap,
        den_override=den_override,
        pole_cap=pole_cap,
    )


def eigenring_matrices(space: SolutionSpace, n: int):
    return [mat_from_vec(v, n, RF) for v in space.basis]


@dataclass(frozen=True)
class StabilityEntry:
    index: int
    stable: bool
    coordinates: tuple | None
    residual: Mat | None


@dataclass(frozen=True)
class StabilityReport:
    entries: tuple

    @property
    def stable(self) -> bool:
        return all(e.stable for e in self.entries)


def check_nabla_stable_span(sys: DiffSystem, basis: EndBasis) -> StabilityReport:
    """Whether the span of the elements is carried into itself by the End
    connection F -> F' - [A, F]; per-element coordinates as witnesses."""
    if any(e.rows != sys.n for e in basis.elements):
        raise DimensionMismatch("endomorphism size must match the system")
    rank, coords, nablas = span_connection(sys, END_CONSTRUCTION, map(vec_row_major, basis.elements))
    if rank != len(coords):
        raise DimensionMismatch("basis elements are dependent over the rational functions")
    entries = [
        StabilityEntry(idx, x is not None, x, None if x is not None else mat_from_vec(nabla, sys.n, RF))
        for idx, (x, nabla) in enumerate(zip(coords, nablas))
    ]
    return StabilityReport(tuple(entries))


@dataclass(frozen=True)
class AnnihilationEntry:
    generator_index: int
    invariant_index: int
    annihilated: bool
    residual: tuple | None


@dataclass(frozen=True)
class AnnihilationReport:
    entries: tuple

    @property
    def all_annihilated(self) -> bool:
        return all(e.annihilated for e in self.entries)


def annihilates_invariants(generators, invariants) -> AnnihilationReport:
    """Check constr_lie(c, N)*v = 0 for every generator N and invariant (c, v)."""
    entries = []
    for gi, gen in enumerate(generators):
        gen_rf = Mat(RF, gen.data)
        for ii, (c, v) in enumerate(invariants):
            v = constr_vector(c, gen.rows, v)
            image = mat_vec(constr_lie(c, gen_rf), v)
            ok = all(e.is_zero for e in image)
            entries.append(AnnihilationEntry(gi, ii, ok, None if ok else image))
    return AnnihilationReport(tuple(entries))


def commutant(basis: LieBasis):
    """Basis of the constant matrices commuting with every generator, one per
    free column: the reduced echelon basis under reversed column order."""
    n = basis.n
    # without generators, one zero row leaves every matrix unit free
    rows = [row for g in basis.generators for row in constr_lie(END_CONSTRUCTION, g).data]
    kernel = nullspace(Mat(QQ, rows or [[0] * (n * n)]))
    return [mat_from_vec(v, n, QQ) for v in kernel]


@dataclass(frozen=True)
class SubspaceStabilityReport:
    generator_stable: bool
    generator_failures: tuple
    nabla_stable: bool
    consistent: bool


def stable_subspace_criterion(
    sys: DiffSystem, basis: LieBasis, c: Construction, w_vectors
) -> SubspaceStabilityReport:
    """For a reduced system and constant vectors W: compare stability of W
    under the constant generators with direct stability under the connection.

    The two agree when the system is reduced with respect to the basis; both
    sides are computed independently and reported together.
    """
    coeffs = wei_norman(sys, basis)
    if coeffs is None:
        raise NotReduced("system matrix is not in the span of the generators")
    w_vectors = [constr_vector(c, sys.n, map(_rat, v)) for v in w_vectors]

    lies = [constr_lie(c, g) for g in basis.generators]
    # one target per (generator, vector) pair, generator-major
    _, coords = span_coordinates(w_vectors, [mat_vec(lie, v) for lie in lies for v in w_vectors], QQ)
    failures = [divmod(k, len(w_vectors)) for k, x in enumerate(coords) if x is None]
    generator_stable = not failures

    w_rf = [tuple(RatFn.const(e) for e in v) for v in w_vectors]
    nabla_stable = None not in span_connection(sys, c, w_rf)[1]

    return SubspaceStabilityReport(
        generator_stable=generator_stable,
        generator_failures=tuple(failures),
        nabla_stable=nabla_stable,
        consistent=generator_stable == nabla_stable,
    )


def stabilizer_of_invariant(c: Construction, v, n: int):
    """Basis of {h in gl_n : constr_lie(c, h) * v = 0}, one per free column:
    the reduced echelon basis under reversed column order.

    Columns of the defining linear map are produced from the elementary
    matrices; the null space is computed over the rational functions.
    Raises ValueError, before building any of them, when those n^2 matrices
    take more than ``STABILIZER_UNITS`` of work (``lie_work``).
    """
    v = constr_vector(c, n, v)
    units = n * n * lie_work(c, n)
    if units > STABILIZER_UNITS:
        raise ValueError(f"the stabilizer takes {units:,} work units, over the budget of {STABILIZER_UNITS:,}")
    columns = []
    for k in range(n * n):
        unit = mat_from_vec([RatFn.ONE if t == k else RatFn.ZERO for t in range(n * n)], n, RF)
        columns.append(mat_vec(constr_lie(c, unit), v))
    kernel = nullspace(Mat(RF, zip(*columns)))
    return [mat_from_vec(vec, n, RF) for vec in kernel]
