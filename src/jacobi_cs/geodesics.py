"""Christoffel symbols, the geodesic system, and closed-form solutions.

With lam = mu/(2k), etab = conj(eta), P = 1 - w conj(w), the six nonzero
connection coefficients are

    G^z_zz = -lam etab          G^w_zz = lam
    G^z_zw = -lam etab^2 + conj(w)/P     G^w_wz = lam etab
    G^z_ww = -lam etab^3        G^w_ww = lam etab^2 + 2 conj(w)/P

and the accelerations solve to

    d2z = -2 (conj(w)/P) dz dw + lam etab * C^2
    d2w = -2 (conj(w)/P) dw^2  - lam * C^2,        C = dz + etab dw.

Both the direct form and the Christoffel contraction are implemented; they
must agree exactly and the pair is one of the standing cross-checks.

Integration is fixed-step classical Runge-Kutta: solutions are smooth away
from the boundary and a deterministic integrator keeps conservation tests
bit-reproducible.  A step that drives w out of the guarded disk aborts
with BoundaryEscape rather than clamping, because clamping would silently
corrupt those conservation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import (
    BoundaryEscape,
    BoundaryViolation,
    EPS_BOUND,
    JacobiPoint,
    ModelParams,
    NonFinite,
    TangentVector,
    ZeroDirection,
    eta_at,
    make_jacobi_point,
    p_at,
)
from .geometry import speed_at
from .group import disk_geodesic_map


@dataclass(frozen=True)
class ChristoffelSet:
    """The six nonzero connection coefficients at a point."""

    g_zzz: complex
    g_wzz: complex
    g_zzw: complex
    g_wwz: complex
    g_zww: complex
    g_www: complex


@dataclass(frozen=True)
class GeodesicState:
    pos: JacobiPoint
    vel: TangentVector


@dataclass
class GeodesicPath:
    """Samples (t, state) with strictly increasing parameter values."""

    samples: list[tuple[float, GeodesicState]]

    def __post_init__(self):
        ts = [t for t, _ in self.samples]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("sample parameters must be strictly increasing")

    def __len__(self) -> int:
        return len(self.samples)

    def endpoint(self) -> GeodesicState:
        return self.samples[-1][1]

    def speeds(self, params: ModelParams) -> np.ndarray:
        """Metric speed at every sample, in one array pass of :func:`speed_at`.

        Raises what :class:`jacobi_cs.core.HermitianMetric2` raises at the
        first sample whose metric is finite but not positive definite (as
        at mu = 0); a metric that is not finite gives a speed that is not
        finite.
        """
        z, w, dz, dw = np.array([(s.pos.z, s.pos.w, s.vel.dz, s.vel.dw)
                                 for _, s in self.samples], dtype=complex).reshape(-1, 4).T
        with np.errstate(all="ignore"):
            return speed_at(z, w, p_at(w), dz, dw, params)

    def length(self, speeds: np.ndarray) -> float:
        """Trapezoidal length of the path from the speed at each sample."""
        if len(self) < 2:
            raise ValueError("a path needs at least two samples")
        t = np.array([t for t, _ in self.samples])
        terms = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(t)
        # summed in sample order: np.cumsum adds sequentially, np.sum pairwise
        return float(np.cumsum(terms)[-1])

    def write_csv(self, stream: IO[str], speeds: np.ndarray) -> None:
        """Write the samples and their ``speeds`` as CSV rows with CRLF line ends."""
        stream.write("t,re_z,im_z,re_w,im_w,re_dz,im_dz,re_dw,im_dw,speed\r\n")
        for (t, s), speed in zip(self.samples, speeds.tolist()):
            z, w, dz, dw = s.pos.z, s.pos.w, s.vel.dz, s.vel.dw
            stream.write(",".join(map(repr, (t, z.real, z.imag, w.real, w.imag,
                                             dz.real, dz.imag, dw.real, dw.imag,
                                             speed))) + "\r\n")


def christoffel_at(z, w, p, params: ModelParams):
    """Closed-form connection coefficients on coordinates (numbers or arrays).

    ``p`` is P = p_at(w).  Returned in :class:`ChristoffelSet` field order;
    g_wzz = lam is constant.
    """
    lam = params.mu / (2.0 * params.k)
    etab = eta_at(z, w, p).conjugate()
    wb_over_p = w.conjugate() / p
    return (-lam * etab, complex(lam), -lam * etab**2 + wb_over_p,
            lam * etab, -lam * etab**3, lam * etab**2 + 2.0 * wb_over_p)


def christoffel(zeta: JacobiPoint, params: ModelParams) -> ChristoffelSet:
    """Closed-form connection coefficients at a point."""
    return ChristoffelSet(*christoffel_at(zeta.z, zeta.w, zeta.p, params))


def acceleration_at(z, w, p, dz, dw, params: ModelParams):
    """Accelerations (d2z, d2w) of the geodesic system on coordinates.

    ``p`` is P = p_at(w); takes numbers or arrays.
    """
    etab = eta_at(z, w, p).conjugate()
    wb_over_p = w.conjugate() / p
    lam = params.mu / (2.0 * params.k)
    c = dz + etab * dw
    c2 = c * c
    return (-2.0 * wb_over_p * dz * dw + lam * etab * c2,
            -2.0 * wb_over_p * dw * dw - lam * c2)


def geodesic_rhs(state: GeodesicState, params: ModelParams) -> TangentVector:
    """Accelerations (d2z, d2w) of the geodesic system at a phase point."""
    zeta, v = state.pos, state.vel
    return TangentVector(*acceleration_at(zeta.z, zeta.w, zeta.p, v.dz, v.dw, params))


def christoffel_rhs(state: GeodesicState, params: ModelParams) -> TangentVector:
    """Same accelerations through the connection contraction -G(v, v)."""
    g = christoffel(state.pos, params)
    dz, dw = state.vel.dz, state.vel.dw
    return TangentVector(
        dz=-(g.g_zzz * dz * dz + 2.0 * g.g_zzw * dz * dw + g.g_zww * dw * dw),
        dw=-(g.g_wzz * dz * dz + 2.0 * g.g_wwz * dz * dw + g.g_www * dw * dw),
    )


def _stage_acceleration(z: complex, w: complex, dz: complex, dw: complex,
                        params: ModelParams, t: float) -> tuple[complex, complex]:
    """:func:`acceleration_at` at an RK4 stage, guarding the disk (hot loop)."""
    p = p_at(w)
    if p <= EPS_BOUND or abs(w) >= 1.0 - EPS_BOUND:
        raise BoundaryEscape(t)
    return acceleration_at(z, w, p, dz, dw, params)


# A path keeps every sample, about 512 B each, so 10^6 steps hold about
# 0.5 GB; longer runs are refused before integrating.
MAX_GEODESIC_STEPS = 1_000_000


def check_rk4_step(rk4_step: float) -> float:
    """Return ``rk4_step``, raising ValueError unless it is finite and positive."""
    if not (math.isfinite(rk4_step) and rk4_step > 0.0):
        raise ValueError(f"rk4_step must be finite and positive, got {rk4_step!r}")
    return rk4_step


def step_count(t_end: float, rk4_step: float) -> int:
    """Number of RK4 steps of about ``rk4_step`` over [0, t_end], at least 1.

    Raises ValueError for a step that is not finite and positive, or a
    count over :data:`MAX_GEODESIC_STEPS` (an inf or nan quotient included).
    """
    n_steps = t_end / check_rk4_step(rk4_step)
    if not n_steps <= MAX_GEODESIC_STEPS:
        raise ValueError(f"a geodesic run is limited to {MAX_GEODESIC_STEPS} steps, "
                         f"got t_end / rk4_step = {n_steps:.6g}")
    return max(1, round(n_steps))


def integrate(s0: GeodesicState, t_end: float, n_steps: int,
              params: ModelParams) -> GeodesicPath:
    """Classical fixed-step Runge-Kutta integration of the geodesic system.

    Aborts with BoundaryEscape (carrying the offending parameter value) if
    any stage evaluation leaves the guarded disk.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = t_end / n_steps
    z, w = s0.pos.z, s0.pos.w
    dz, dw = s0.vel.dz, s0.vel.dw
    samples = [(0.0, s0)]
    t = 0.0
    for _ in range(n_steps):
        # y = (z, w, dz, dw); stages k1..k4 of y' = (dz, dw, accel)
        a1 = _stage_acceleration(z, w, dz, dw, params, t)
        k1 = (dz, dw, a1[0], a1[1])
        a2 = _stage_acceleration(z + 0.5 * h * k1[0], w + 0.5 * h * k1[1],
                                 dz + 0.5 * h * k1[2], dw + 0.5 * h * k1[3], params, t)
        k2 = (dz + 0.5 * h * k1[2], dw + 0.5 * h * k1[3], a2[0], a2[1])
        a3 = _stage_acceleration(z + 0.5 * h * k2[0], w + 0.5 * h * k2[1],
                                 dz + 0.5 * h * k2[2], dw + 0.5 * h * k2[3], params, t)
        k3 = (dz + 0.5 * h * k2[2], dw + 0.5 * h * k2[3], a3[0], a3[1])
        a4 = _stage_acceleration(z + h * k3[0], w + h * k3[1],
                                 dz + h * k3[2], dw + h * k3[3], params, t)
        k4 = (dz + h * k3[2], dw + h * k3[3], a4[0], a4[1])
        z += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        w += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        dz += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        dw += h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        t += h
        try:
            pos = make_jacobi_point(z, w)
        except (BoundaryViolation, NonFinite) as exc:
            raise BoundaryEscape(t, f"step left the disk at t={t:.6g}") from exc
        samples.append((t, GeodesicState(pos, TangentVector(dz, dw))))
    return GeodesicPath(samples)


def fc_particular_solution(eta0: complex, b: complex, t: float) -> GeodesicState:
    """Geodesic family with constant split coordinate eta = eta0.

    Position (z, w) with w(t) = (b/|b|) tanh(t |b|) and
    z(t) = eta0 - conj(eta0) w(t); an exact solution of the full system for
    every mu because dz + conj(eta) dw vanishes identically along it.
    """
    w = disk_geodesic_map(b, t)
    speed = abs(b)
    dw = b / math.cosh(t * speed) ** 2 if speed > 0 else 0.0 + 0.0j
    return GeodesicState(
        pos=make_jacobi_point(eta0 - eta0.conjugate() * w, w),
        vel=TangentVector(dz=-eta0.conjugate() * dw, dw=dw),
    )


def mu_zero_solution(z0dot: complex, z1: complex, b: complex, t: float) -> GeodesicState:
    """Flat-limit geodesic: w the disk geodesic, z = (z0dot/b) w + z1.

    Solves the system with the flat coupling switched off (mu = 0); used as
    the closed-form reference for integrator tests.
    """
    if b == 0:
        if z0dot != 0:
            raise ZeroDirection("b = 0 admits only a constant solution")
        return GeodesicState(make_jacobi_point(z1, 0.0), TangentVector(0.0, 0.0))
    w = disk_geodesic_map(b, t)
    dw = b / math.cosh(t * abs(b)) ** 2
    ratio = z0dot / b
    return GeodesicState(
        pos=make_jacobi_point(ratio * w + z1, w),
        vel=TangentVector(dz=ratio * dw, dw=dw),
    )


def curve_length(path: GeodesicPath, params: ModelParams) -> float:
    """Trapezoidal length of a sampled curve using its recorded velocities."""
    return path.length(path.speeds(params))


def interpolation_path(zeta1: JacobiPoint, zeta2: JacobiPoint,
                       n_samples: int = 200) -> GeodesicPath:
    """Straight-parameter path from zeta1 to zeta2 (admissible, not geodesic).

    Convexity of the disk keeps every intermediate point valid; its length
    upper-bounds the metric distance between the endpoints.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    vel = TangentVector(zeta2.z - zeta1.z, zeta2.w - zeta1.w)
    samples = []
    for i in range(n_samples):
        t = i / (n_samples - 1)
        pos = make_jacobi_point(zeta1.z + t * vel.dz, zeta1.w + t * vel.dw)
        samples.append((t, GeodesicState(pos, vel)))
    return GeodesicPath(samples)
