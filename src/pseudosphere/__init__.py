"""Exact pseudosphericality testing for Levi-nondegenerate hypersurfaces.

The package decides, to a prescribed jet order, whether a real-analytic
hypersurface given by a complex defining series w = theta(z, zb, wb) is
locally biholomorphic to a Heisenberg pseudosphere.  All arithmetic is
exact over Q(i); every verdict is qualified by the jet order to which it
has been certified.
"""

from .errors import (
    CompositionError,
    ContextMismatchError,
    InsufficientOrderError,
    LeviDegenerateError,
    NonInvertibleMapError,
    NonUnitError,
    NormalizationError,
    NotGraphableError,
    ParseError,
    PseudosphereError,
    RankConditionError,
    RealityError,
    SingularJacobianError,
    UnknownVariableError,
    UnsupportedDimensionError,
)
from .expressions import parse_series
from .flatness import (
    CrossCheckReport,
    FlatnessTensor,
    PseudosphericalVerdict,
    Witness,
    cross_check,
    hachtroudi_tensor,
    is_pseudospherical,
    main_theorem_tensor,
    minors,
)
from .hypersurface import (
    HypersurfaceModel,
    LeviData,
    RealityReport,
    apply_biholomorphism,
    canonical_context,
    check_reality,
    conjugate_theta,
    from_graph,
    graph_context,
    hermitian_signature,
    levi,
    make_model,
    map_context,
)
from .implicit import solve_formal_system, solve_implicit
from .matrices import (
    MinorFamily,
    SeriesMatrix,
    jacobian_minor_family,
    plucker_check,
)
from .pde import (
    FundamentalSolution,
    IntegrabilityReport,
    PdeSystem,
    check_complete_integrability,
    derive_associated_system,
    fundamental_context,
    fundamental_minors,
    jet_transfer_second,
    pde_context,
    recover_system_from_solution,
    total_derivative,
)
from .scalars import GaussianRational, gaussian
from .series import TruncatedSeries, VariableContext

__version__ = "0.1.0"

__all__ = [
    "CompositionError",
    "ContextMismatchError",
    "CrossCheckReport",
    "FlatnessTensor",
    "FundamentalSolution",
    "GaussianRational",
    "HypersurfaceModel",
    "InsufficientOrderError",
    "IntegrabilityReport",
    "LeviData",
    "LeviDegenerateError",
    "MinorFamily",
    "NonInvertibleMapError",
    "NonUnitError",
    "NormalizationError",
    "NotGraphableError",
    "ParseError",
    "PdeSystem",
    "PseudosphereError",
    "PseudosphericalVerdict",
    "RankConditionError",
    "RealityError",
    "RealityReport",
    "SeriesMatrix",
    "SingularJacobianError",
    "TruncatedSeries",
    "UnknownVariableError",
    "UnsupportedDimensionError",
    "VariableContext",
    "Witness",
    "apply_biholomorphism",
    "canonical_context",
    "check_complete_integrability",
    "check_reality",
    "conjugate_theta",
    "cross_check",
    "derive_associated_system",
    "from_graph",
    "fundamental_context",
    "fundamental_minors",
    "gaussian",
    "graph_context",
    "hachtroudi_tensor",
    "hermitian_signature",
    "is_pseudospherical",
    "jacobian_minor_family",
    "jet_transfer_second",
    "levi",
    "main_theorem_tensor",
    "make_model",
    "map_context",
    "minors",
    "parse_series",
    "pde_context",
    "plucker_check",
    "recover_system_from_solution",
    "solve_formal_system",
    "solve_implicit",
    "total_derivative",
]
