"""Coherent-state geometry of the product of the complex plane and the disk.

Closed-form kernels, metric, curvature, group actions, geodesics, the
Gaussian line-to-holomorphic transform, a truncated projective embedding,
and Monte Carlo quadrature, each paired with an independent numerical
cross-check (finite differences, series truncations, quadratures, or
importance sampling).

Importing the package loads no submodule: each name below is looked up in
its module on every access (PEP 562), so a module is loaded when a name of
it is first used, and a name patched in its module is seen here too.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": "BoundaryEscape BoundaryProximity BoundaryViolation DegenerateAction "
            "DimensionMismatch EndpointMismatch EPS_BOUND HermitianMetric2 InvalidK "
            "JacobiPoint ModelParams NonFinite TangentVector ZeroDirection eta_of "
            "make_jacobi_point",
    "kernels": "BasisIndex TruncationOrder basis_function diastasis_split disk_kernel "
               "heisenberg_kernel jacobi_kernel kahler_potential kernel_series "
               "normalized_kernel",
    "geometry": "WirtingerStencil kahler_condition_check metric metric_fd ricci_fd",
    "group": "JacobiGroupElement SU11Element action_eta_coords disk_geodesic_map "
             "fc_forward fc_inverse jacobi_action mobius",
    "geodesics": "GeodesicPath GeodesicState christoffel curve_length "
                 "fc_particular_solution geodesic_rhs integrate interpolation_path "
                 "mu_zero_solution",
    "bargmann": "HBarParams QuadratureRule bargmann_image_check bargmann_kernel "
                "hermite_state reproducing_check",
    "embedding": "ProjectiveVector cauchy_check cayley_distance cs_angle "
                 "distance_angle_inequality_check embed fubini_study_pullback_check",
    "quadrature": "McConfig McEstimate inner_product_mc sample_point",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
