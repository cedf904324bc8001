"""Perturbed Hardy spaces on the unit circle.

A numerical library for Hardy spaces whose metric is the standard one
deformed by a Hankel operator (contractive symbol R) and a set of point
masses inside the disk: Gram matrices of the metric, reproducing kernels
and their normalization at the origin, shift asymptotics, two-sided
regularization bounds, and the scattering-type dual data with its unitary
involution.
"""

__version__ = "0.1.0"

from .circle import (
    ANALYTIC,
    ANTIANALYTIC,
    BlaschkeData,
    CircleGrid,
    MassSet,
    OuterData,
    SymbolData,
    build_blaschke,
    build_outer,
    evaluate_analytic,
    riesz_project_values,
    symbol_from_coefficients,
    symbol_from_expression,
    symbol_from_samples,
    validate_szego,
    zero_symbol,
)
from .duality import (
    PRINTED,
    UNITARY,
    DualData,
    HatMembershipReport,
    IdentityReport,
    TauVector,
    TheoremReport,
    apply_tau,
    build_dual,
    canonical_vector,
    check_hat_membership,
    dual_of,
    duality_identity,
    embed_analytic_vector,
    l2_inner,
    l2_norm,
    theorem_check,
)
from .errors import (
    ConfigError,
    DuplicatePoint,
    GridMismatch,
    HardyDualError,
    NotPositiveDefinite,
    RejectBoundary,
    SzegoViolation,
)
from .kernels import (
    AsymptoticTrace,
    KernelVector,
    OrthonormalSystem,
    SandwichReport,
    asymptotic_sweep,
    kernel_at_origin,
    kernel_at_point,
    orthonormal_system,
    sandwich_check,
)
from .spaces import (
    SpaceData,
    build_gram_analytic,
    build_gram_laurent,
    effective_data,
    embed_h2,
    regularized,
    shifted,
)
