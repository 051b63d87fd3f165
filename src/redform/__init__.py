"""Exact reduced-form analysis of linear differential systems over Q(x)."""

from .errors import (
    DefectiveEigenstructure,
    DimensionMismatch,
    DivisionByZero,
    InternalError,
    InvalidArity,
    NotSemiInvariant,
    NotSplit,
    NotStable,
    ParseError,
    PoleAtPoint,
    RedformError,
    SingularGauge,
)
from .ratfun import (
    Poly,
    RatFn,
    parse_rat,
    parse_ratfn,
    poly_str,
    ratfn_str,
)
from .linalg import Mat, QQ, RF
from .systems import (
    DiffSystem,
    SingularityReport,
    gauge,
    is_ordinary_point,
    matrix,
    pullback,
    singularities,
    system,
)
from .constructions import (
    Base,
    Construction,
    DirectSum,
    Dual,
    END_CONSTRUCTION,
    Ext,
    Sym,
    Tensor,
    constr_dim,
    constr_group,
    constr_lie,
    mat_from_vec,
    parse_construction,
    vec_row_major,
)
from .series import (
    SeriesMat,
    TruncSeries,
    fundamental_series,
)
from .solutions import (
    HarvestEntry,
    SolutionSpace,
    check_semi_invariant,
    harvest_invariants,
    rational_solutions,
)
from .reduction import (
    LieBasis,
    ReducedReport,
    ReductionCertificate,
    constant_basis_subspace,
    is_reduced,
    reduce_by_diagonalization,
    verify_reduction_matrix,
    wei_norman,
)
from .katz import (
    EndBasis,
    annihilates_invariants,
    check_nabla_stable_span,
    commutant,
    eigenring,
    eigenring_matrices,
    stabilizer_of_invariant,
)

__version__ = "0.1.0"
