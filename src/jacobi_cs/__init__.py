"""Coherent-state geometry of the product of the complex plane and the disk.

Closed-form kernels, metric, curvature, group actions, geodesics, the
Gaussian line-to-holomorphic transform, a truncated projective embedding,
and Monte Carlo quadrature, each paired with an independent numerical
cross-check (finite differences, series truncations, quadratures, or
importance sampling).
"""

from .core import (
    BoundaryEscape,
    BoundaryProximity,
    BoundaryViolation,
    DimensionMismatch,
    EndpointMismatch,
    EPS_BOUND,
    HermitianMetric2,
    InvalidK,
    JacobiPoint,
    ModelParams,
    NonFinite,
    TangentVector,
    ZeroDirection,
    eta_of,
    make_jacobi_point,
)
from .kernels import (
    BasisIndex,
    TruncationOrder,
    basis_function,
    diastasis_split,
    disk_kernel,
    heisenberg_kernel,
    jacobi_kernel,
    kahler_potential,
    kernel_series,
    normalized_kernel,
)
from .geometry import (
    WirtingerStencil,
    kahler_condition_check,
    metric,
    metric_fd,
    ricci_fd,
)
from .group import (
    JacobiGroupElement,
    SU11Element,
    action_eta_coords,
    disk_geodesic_map,
    fc_forward,
    fc_inverse,
    jacobi_action,
    mobius,
)
from .geodesics import (
    GeodesicPath,
    GeodesicState,
    christoffel,
    curve_length,
    fc_particular_solution,
    geodesic_rhs,
    integrate,
    interpolation_path,
    mu_zero_solution,
)
from .bargmann import (
    HBarParams,
    QuadratureRule,
    bargmann_image_check,
    bargmann_kernel,
    hermite_state,
    reproducing_check,
)
from .embedding import (
    ProjectiveVector,
    cauchy_check,
    cayley_distance,
    cs_angle,
    distance_angle_inequality_check,
    embed,
    fubini_study_pullback_check,
)
from .quadrature import (
    McConfig,
    McEstimate,
    inner_product_mc,
    sample_point,
)

__version__ = "0.1.0"
