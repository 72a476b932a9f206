"""Finite truncations of the projective embedding and its metric pullback.

A point maps to the homogeneous coordinate vector of its basis values
f[n, m](zeta), ordered by total level n + m and then by n.  The order is a
fixed convention: every quantity computed here (angles, the projective
pairing, the pulled-back metric) is invariant under reordering and under
rescaling of the homogeneous vector.

On the diagonal the squared norm of the vector converges to the kernel,
the projective angle converges to arccos of the normalized kernel
modulus, and the Wirtinger Hessian of ln(norm^2) converges to the metric;
each statement is checked at explicit truncation orders with the
truncation error reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    EndpointMismatch,
    JacobiPoint,
    ModelParams,
)
from .geometry import WirtingerStencil, metric, resolve_step, wirtinger_hessian
from .kernels import TruncationOrder, basis_matrix, normalized_kernel
from .geodesics import GeodesicPath, curve_length


@dataclass(frozen=True)
class ProjectiveVector:
    """Homogeneous coordinates; at least one component must be nonzero."""

    components: tuple[complex, ...]

    def __post_init__(self):
        if not self.components or all(c == 0 for c in self.components):
            raise ValueError("a projective vector needs a nonzero component")

    def __len__(self) -> int:
        return len(self.components)

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.components))


def basis_order(trunc: TruncationOrder) -> list[tuple[int, int]]:
    """Index order of the embedding: total level ascending, then n."""
    pairs = [(n, m) for n in range(trunc.n_max + 1) for m in range(trunc.m_max + 1)]
    pairs.sort(key=lambda nm: (nm[0] + nm[1], nm[0]))
    return pairs


def embed(zeta: JacobiPoint, params: ModelParams,
          trunc: TruncationOrder) -> ProjectiveVector:
    """Truncated homogeneous coordinates of a point."""
    values = basis_matrix(zeta, params, trunc)
    return ProjectiveVector(tuple(values[n, m] for n, m in basis_order(trunc)))


def projective_inner(v1: ProjectiveVector, v2: ProjectiveVector) -> complex:
    """Pairing sum conj(v1_i) v2_i, antilinear in the first argument."""
    if len(v1) != len(v2):
        raise DimensionMismatch(f"lengths {len(v1)} and {len(v2)} differ")
    return complex(np.vdot(np.asarray(v1.components), np.asarray(v2.components)))


def cayley_distance(v1: ProjectiveVector, v2: ProjectiveVector) -> float:
    """arccos(|<v1, v2>| / (|v1| |v2|)), in [0, pi/2]; scale invariant."""
    cosine = abs(projective_inner(v1, v2)) / (v1.norm() * v2.norm())
    return math.acos(min(1.0, max(cosine, 0.0)))


def cs_angle(zeta1: JacobiPoint, zeta2: JacobiPoint, params: ModelParams) -> float:
    """arccos of the normalized kernel modulus; the exact projective angle."""
    cosine = abs(normalized_kernel(zeta1, zeta2, params))
    return math.acos(min(1.0, max(cosine, 0.0)))


def cauchy_check(zeta1: JacobiPoint, zeta2: JacobiPoint, params: ModelParams,
                 trunc: TruncationOrder) -> float:
    """Deviation of the normalized kernel from the projective pairing.

    The pairing is antilinear in its first slot, so the kernel value that
    is holomorphic in zeta1 corresponds to <embed(zeta2), embed(zeta1)>;
    the deviation measures only the truncation error.
    """
    v1 = embed(zeta1, params, trunc)
    v2 = embed(zeta2, params, trunc)
    paired = projective_inner(v2, v1) / (v1.norm() * v2.norm())
    return abs(normalized_kernel(zeta1, zeta2, params) - paired)


def fubini_study_pullback_check(zeta: JacobiPoint, params: ModelParams,
                                trunc: TruncationOrder,
                                stencil: WirtingerStencil = WirtingerStencil()) -> float:
    """Max deviation between the metric and the pulled-back projective metric.

    The pullback is the Wirtinger Hessian of ln sum |f[n, m]|^2, evaluated
    by central differences at the same truncation the embedding uses.
    """
    step = resolve_step(zeta, stencil)

    def log_norm_sq(pt: JacobiPoint) -> float:
        values = basis_matrix(pt, params, trunc)
        return math.log(float(np.sum(np.abs(values) ** 2)))

    d_zz, d_zw, d_ww = wirtinger_hessian(log_norm_sq, zeta, step)
    h = metric(zeta, params)
    return max(abs(d_zz - h.h_zz), abs(d_zw - h.h_zw), abs(d_ww - h.h_ww))


@dataclass(frozen=True)
class AngleBoundReport:
    """Curve length versus projective angle between its endpoints."""

    length: float
    angle: float
    margin: float
    passed: bool


def distance_angle_inequality_check(zeta1: JacobiPoint, zeta2: JacobiPoint,
                                    params: ModelParams, path: GeodesicPath,
                                    slack: float = 1e-9) -> AngleBoundReport:
    """Check curve_length(path) >= cs_angle(zeta1, zeta2) - slack.

    Any admissible curve upper-bounds the metric distance, which in turn
    dominates the projective angle; the path must actually connect the two
    points (endpoints within 1e-6).
    """
    start = path.samples[0][1].pos
    end = path.samples[-1][1].pos
    if (abs(start.z - zeta1.z) > 1e-6 or abs(start.w - zeta1.w) > 1e-6
            or abs(end.z - zeta2.z) > 1e-6 or abs(end.w - zeta2.w) > 1e-6):
        raise EndpointMismatch("path endpoints do not match the given points")
    length = curve_length(path, params)
    angle = cs_angle(zeta1, zeta2, params)
    margin = length - angle
    return AngleBoundReport(length=length, angle=angle, margin=margin,
                            passed=margin >= -slack)
