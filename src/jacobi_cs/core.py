"""Domain types and validation shared by every other module.

Points live on the product of the complex plane (coordinate ``z``) and the
open unit disk (coordinate ``w``).  All formulas downstream have a pole at
|w| = 1, so disk membership is guarded with a small safety margin
``EPS_BOUND``: points with |w| >= 1 - EPS_BOUND are rejected at
construction time, which keeps every denominator of the form 1 - w*conj(w)
bounded away from zero.

Everything here is an immutable value; instances are safe to share freely.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

EPS_BOUND = 1e-9

# Smallest admitted disk weight k.  The measure normalization
# (4k - 3) / (2 pi^2) vanishes there, so measure operations need k > K_MIN.
K_MIN = 0.75

# The verification suites of jacobi_cs.verify, named here so that the
# command-line parser can offer them without loading the suites.
SUITE_NAMES = ("algebra", "bargmann", "embedding", "geodesics",
               "geometry", "group", "kernels", "quadrature")


class NonFinite(ValueError):
    """A coordinate or parameter is NaN or infinite."""


class BoundaryViolation(ValueError):
    """A disk coordinate lies on or outside the guarded unit disk."""


class InvalidK(ValueError):
    """Basis operations need 2*(k - 1/4) to be a positive integer."""


class BoundaryProximity(ValueError):
    """A finite-difference stencil would leave the guarded disk."""


class BoundaryEscape(RuntimeError):
    """Numerical integration drove w out of the guarded disk."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"trajectory left the disk at t={t:.6g}")

    def __reduce__(self):
        # args hold only the message; rebuild from t and the message so
        # the error survives a process boundary
        return type(self), (self.t, str(self))


class DegenerateAction(ZeroDivisionError):
    """A group action's denominator vanishes to working precision."""


class ZeroDirection(ValueError):
    """A closed-form solution requires a nonzero disk velocity."""


class DimensionMismatch(ValueError):
    """Operands have incompatible component counts."""


class EndpointMismatch(ValueError):
    """A path does not connect the requested endpoints."""


def require_finite(value: complex, name: str = "value") -> complex:
    """Return ``value`` unchanged, raising NonFinite on NaN/Inf components."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


def check_disk(w: complex) -> complex:
    """Validate a disk coordinate: finite and |w| < 1 - EPS_BOUND."""
    require_finite(w, "w")
    try:
        r = abs(w)
    except OverflowError:       # finite parts, |w| beyond the float range
        r = math.inf
    if r >= 1.0 - EPS_BOUND:
        raise BoundaryViolation(f"|w|={r:.12g} is not inside the open disk")
    return w


@dataclass(frozen=True)
class JacobiPoint:
    """A point (z, w) with z in C and w in the guarded open unit disk.

    The strictly positive real ``p = 1 - w*conj(w)`` is cached because most
    coefficient formulas share it.
    """

    z: complex
    w: complex
    p: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_finite(self.z, "z")
        check_disk(self.w)
        object.__setattr__(self, "p", p_at(self.w))


def make_jacobi_point(z: complex, w: complex) -> JacobiPoint:
    """Validated constructor for a point of the Siegel-Jacobi disk."""
    return JacobiPoint(complex(z), complex(w))


def check_points(z, w) -> None:
    """Validate arrays of coordinates (z, w) as points, all at once.

    Raises exactly what :func:`make_jacobi_point` raises at the first
    invalid node in C order, which for ``np.meshgrid(..., indexing="ij")``
    grids is the order of the nested loops over the axes.  The array test
    only selects candidates (``np.hypot`` rounds as ``abs`` of a Python
    complex does); the scalar constructor decides.
    """
    z, w = np.broadcast_arrays(np.asarray(z), np.asarray(w))
    with np.errstate(over="ignore"):    # an overflowing |w| is inf: outside
        r = np.hypot(w.real, w.imag)
    good = np.isfinite(z) & np.isfinite(w) & (r < 1.0 - EPS_BOUND)
    for i in np.flatnonzero(~good):
        make_jacobi_point(z.flat[i].item(), w.flat[i].item())


@dataclass(frozen=True)
class ModelParams:
    """Representation parameters: disk weight ``k`` and Heisenberg scale ``mu``.

    ``k`` may not fall below ``K_MIN`` = 3/4; the boundary value itself is
    admitted because the smallest basis family sits exactly there, but
    measure operations (whose normalization (4k - 3)/(2 pi^2) degenerates
    at the boundary) insist on k > 3/4.  ``mu`` is strictly positive for every
    kernel and measure; ``mu = 0`` is additionally admitted because the
    geodesic system has a well-defined flat limit that the closed-form
    solutions are checked against.
    """

    k: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.mu)):
            raise NonFinite("model parameters must be finite")
        if self.k < K_MIN:
            raise ValueError(f"k must be at least 3/4, got {self.k}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


@dataclass(frozen=True)
class TangentVector:
    """Holomorphic tangent components (dz, dw) at a point."""

    dz: complex
    dw: complex

    def __post_init__(self):
        require_finite(self.dz, "dz")
        require_finite(self.dw, "dw")


@dataclass(frozen=True)
class HermitianMetric2:
    """Coefficients of a positive definite 2x2 Hermitian form.

    ``h_zz`` and ``h_ww`` are the real diagonal entries, ``h_zw`` the
    off-diagonal one; positive definiteness is enforced on construction.
    """

    h_zz: float
    h_zw: complex
    h_ww: float

    def __post_init__(self):
        h_zz, h_zw, h_ww = self.h_zz, self.h_zw, self.h_ww
        # one test passes valid coefficients; the checks below name the fault
        if (math.isfinite(h_zz) and cmath.isfinite(h_zw) and math.isfinite(h_ww)
                and positive_definite(h_zz, h_zw, h_ww)):
            return
        require_finite(complex(h_zz), "h_zz")
        require_finite(h_zw, "h_zw")
        require_finite(complex(h_ww), "h_ww")
        if not positive_definite(h_zz, h_zw, h_ww):
            raise ValueError(
                f"metric coefficients are not positive definite "
                f"(h_zz={self.h_zz!r}, h_ww={self.h_ww!r}, det={self.det()!r})"
            )

    def det(self) -> float:
        return hermitian_det(self.h_zz, self.h_zw, self.h_ww)


def hermitian_det(h_zz, h_zw, h_ww):
    """Determinant h_zz h_ww - |h_zw|^2 of 2x2 Hermitian coefficients (numbers or arrays)."""
    return h_zz * h_ww - abs(h_zw) ** 2


def positive_definite(h_zz, h_zw, h_ww):
    """Whether Hermitian coefficients are positive definite (numbers or arrays).

    Finiteness is not part of the test: an infinite diagonal passes it.
    """
    return (h_zz > 0.0) & (h_ww > 0.0) & (hermitian_det(h_zz, h_zw, h_ww) > 0.0)


def check_metric(h_zz, h_zw, h_ww) -> None:
    """Validate arrays of metric coefficients, all at once.

    Raises what :class:`HermitianMetric2` raises at the first finite
    triple, in C order, that is not positive definite.  A triple that is
    not finite passes: it is a domain escape of the point, for the caller
    to report or write, not a degenerate metric.
    """
    h_zz, h_zw, h_ww = np.broadcast_arrays(h_zz, h_zw, h_ww)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = (np.isfinite(h_zz) & np.isfinite(h_zw) & np.isfinite(h_ww)
               & ~positive_definite(h_zz, h_zw, h_ww))
    for i in np.flatnonzero(bad):
        HermitianMetric2(h_zz.flat[i].item(), complex(h_zw.flat[i]), h_ww.flat[i].item())


def p_at(w):
    """P = 1 - w conj(w), positive on the disk (numbers or arrays).

    Written with real products: numpy's complex multiply may fuse them and
    round differently from Python's, and near |w| = 1 the cancellation in P
    would magnify that last-digit difference between arrays and numbers.
    """
    return 1.0 - (w.real * w.real + w.imag * w.imag)


def eta_at(z, w, p):
    """Displacement coordinate eta = (z + conj(z) w) / P, with P = p_at(w).

    This is the coordinate in which the metric splits into a flat block
    and a pure disk block; see the group module for the companion change
    of variables z = eta - w conj(eta).  Takes numbers or arrays.
    """
    return (z + z.conjugate() * w) / p


def eta_of(zeta: JacobiPoint) -> complex:
    """:func:`eta_at` at a point."""
    return eta_at(zeta.z, zeta.w, zeta.p)


def usable_cpus() -> int:
    """CPUs this process may run on: the parallel CLI commands start at
    most one process per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
