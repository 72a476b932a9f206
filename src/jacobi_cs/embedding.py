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

import functools
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
    """Homogeneous coordinates; at least one component must be nonzero.

    Any sequence of numbers is accepted and stored as a read-only 1-D
    complex array.  Equality compares the components.
    """

    components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.components, dtype=complex)
        if comps.ndim != 1:
            raise ValueError("a projective vector needs a 1-D sequence of components")
        if not comps.any():
            raise ValueError("a projective vector needs a nonzero component")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    def __eq__(self, other):
        if not isinstance(other, ProjectiveVector):
            return NotImplemented
        return bool(np.array_equal(self.components, other.components))

    def __hash__(self) -> int:
        return hash(tuple(self.components.tolist()))

    def __len__(self) -> int:
        return len(self.components)

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.components, self.components).real)


def basis_order(trunc: TruncationOrder) -> list[tuple[int, int]]:
    """Index order of the embedding: total level ascending, then n."""
    pairs = [(n, m) for n in range(trunc.n_max + 1) for m in range(trunc.m_max + 1)]
    pairs.sort(key=lambda nm: (nm[0] + nm[1], nm[0]))
    return pairs


@functools.lru_cache(maxsize=16)
def _order_index(trunc: TruncationOrder) -> tuple[np.ndarray, np.ndarray]:
    """:func:`basis_order` as read-only (n, m) index arrays, built once per truncation."""
    index = np.array(basis_order(trunc)).T
    index.flags.writeable = False
    return index[0], index[1]


def embed(zeta: JacobiPoint, params: ModelParams,
          trunc: TruncationOrder) -> ProjectiveVector:
    """Truncated homogeneous coordinates of a point."""
    return ProjectiveVector(basis_matrix(zeta, params, trunc)[_order_index(trunc)])


def projective_inner(v1: ProjectiveVector, v2: ProjectiveVector) -> complex:
    """Pairing sum conj(v1_i) v2_i, antilinear in the first argument."""
    if len(v1) != len(v2):
        raise DimensionMismatch(f"lengths {len(v1)} and {len(v2)} differ")
    return complex(np.vdot(v1.components, v2.components))


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


def distance_angle_inequality_check(zeta1: JacobiPoint, zeta2: JacobiPoint,
                                    params: ModelParams, path: GeodesicPath) -> float:
    """Margin curve_length(path) - cs_angle(zeta1, zeta2), nonnegative in exact arithmetic.

    Any admissible curve upper-bounds the metric distance, which in turn
    dominates the projective angle; the path must actually connect the two
    points (endpoints within 1e-6).
    """
    (z1, w1), (z2, w2) = path.y[[0, -1], :2].tolist()
    if (abs(z1 - zeta1.z) > 1e-6 or abs(w1 - zeta1.w) > 1e-6
            or abs(z2 - zeta2.z) > 1e-6 or abs(w2 - zeta2.w) > 1e-6):
        raise EndpointMismatch("path endpoints do not match the given points")
    return curve_length(path, params) - cs_angle(zeta1, zeta2, params)
