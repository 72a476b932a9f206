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

import cmath
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
    _join_rows,
    check_points,
    check_setting,
    eta_at,
    make_jacobi_point,
    p_at,
)
from .geometry import speed_at
from .group import disk_geodesic_map


# Names of the six nonzero connection coefficients G^a_(bc), as g_abc, in
# the order christoffel_at returns them.
CHRISTOFFEL_KEYS = ("g_zzz", "g_wzz", "g_zzw", "g_wwz", "g_zww", "g_www")


@dataclass(frozen=True)
class GeodesicState:
    pos: JacobiPoint
    vel: TangentVector


@dataclass
class GeodesicPath:
    """Samples of a path as columns, at strictly increasing parameter values.

    ``t`` is a float array of shape (n,) and ``y`` a complex array of shape
    (n, 4) whose columns are z, w, dz and dw.
    """

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.ascontiguousarray(self.y, dtype=complex)
        if self.t.ndim != 1 or self.y.shape != (len(self.t), 4):
            raise ValueError(f"need t of shape (n,) and y of shape (n, 4), "
                             f"got {self.t.shape} and {self.y.shape}")
        if not (np.diff(self.t) > 0.0).all():
            raise ValueError("sample parameters must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def endpoint(self) -> GeodesicState:
        z, w, dz, dw = self.y[-1].tolist()
        return GeodesicState(make_jacobi_point(z, w), TangentVector(dz, dw))

    def speeds(self, params: ModelParams) -> np.ndarray:
        """Metric speed at every sample, in one array pass of :func:`speed_at`.

        Raises what :class:`jacobi_cs.core.HermitianMetric2` raises at the
        first sample whose metric is finite but not positive definite (as
        at mu = 0); a metric that is not finite gives a speed that is not
        finite.
        """
        z, w, dz, dw = self.y.T
        with np.errstate(all="ignore"):
            return speed_at(z, w, p_at(w), dz, dw, params)

    def length(self, speeds: np.ndarray) -> float:
        """Trapezoidal length of the path from the speed at each sample."""
        if len(self) < 2:
            raise ValueError("a path needs at least two samples")
        terms = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(self.t)
        # summed in sample order: np.cumsum adds sequentially, np.sum pairwise
        return float(np.cumsum(terms)[-1])

    def write_csv(self, stream: IO[str], speeds: np.ndarray) -> None:
        """Write the samples and their ``speeds`` as CSV rows with CRLF line
        ends, ``_PATH_BLOCK`` rows at a time."""
        stream.write("t,re_z,im_z,re_w,im_w,re_dz,im_dz,re_dw,im_dw,speed\r\n")
        for lo in range(0, len(self), _PATH_BLOCK):
            hi = lo + _PATH_BLOCK
            columns = [self.t[lo:hi], *self.y[lo:hi].view(float).T, speeds[lo:hi]]
            stream.write(_join_rows([list(map(repr, col.tolist())) for col in columns],
                                    "\r\n"))


def christoffel_at(z, w, p, params: ModelParams):
    """Closed-form connection coefficients on coordinates (numbers or arrays).

    ``p`` is P = p_at(w).  Returned in :data:`CHRISTOFFEL_KEYS` order;
    g_wzz = lam is constant.
    """
    lam = params.mu / (2.0 * params.k)
    etab = eta_at(z, w, p).conjugate()
    wb_over_p = w.conjugate() / p
    return (-lam * etab, complex(lam), -lam * etab**2 + wb_over_p,
            lam * etab, -lam * etab**3, lam * etab**2 + 2.0 * wb_over_p)


def christoffel(zeta: JacobiPoint, params: ModelParams) -> tuple[complex, ...]:
    """Closed-form connection coefficients at a point, in CHRISTOFFEL_KEYS order."""
    return christoffel_at(zeta.z, zeta.w, zeta.p, params)


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
    g_zzz, g_wzz, g_zzw, g_wwz, g_zww, g_www = christoffel(state.pos, params)
    dz, dw = state.vel.dz, state.vel.dw
    return TangentVector(
        dz=-(g_zzz * dz * dz + 2.0 * g_zzw * dz * dw + g_zww * dw * dw),
        dw=-(g_wzz * dz * dz + 2.0 * g_wwz * dz * dw + g_www * dw * dw),
    )


# A path holds t and four complex columns, 72 B per sample.  The columns are
# allocated once and filled _PATH_BLOCK steps at a time, so building it peaks
# at 82 B per sample (tracemalloc, 10^5 steps): 10^6 steps keep 72 MB, and a
# CLI run of them peaks at about 177 MB RSS.  Longer runs are refused before
# integrating.
MAX_GEODESIC_STEPS = 1_000_000

# Steps whose samples are gathered as Python numbers, 160 B per step, before
# they are copied into the columns; also the rows per write of a CSV.
_PATH_BLOCK = 1024


def step_count(t_end: float, rk4_step: float) -> int:
    """Number of RK4 steps of about ``rk4_step`` over [0, t_end], at least 1.

    Raises ValueError for a step out of the ``rk4_step`` bound, or a count
    over :data:`MAX_GEODESIC_STEPS` (an inf or nan quotient included).
    """
    n_steps = t_end / check_setting("rk4_step", rk4_step)
    if not n_steps <= MAX_GEODESIC_STEPS:
        raise ValueError(f"a geodesic run is limited to {MAX_GEODESIC_STEPS} steps, "
                         f"got t_end / rk4_step = {n_steps:.6g}")
    return max(1, round(n_steps))


def integrate(s0: GeodesicState, t_end: float, n_steps: int,
              params: ModelParams) -> GeodesicPath:
    """Classical fixed-step Runge-Kutta integration of the geodesic system.

    Sample i sits at t = t_end * i / n_steps, and the last one at t_end
    exactly.  Aborts with BoundaryEscape (carrying the offending parameter
    value) if any stage evaluation or accepted step leaves the guarded disk,
    and with OverflowError naming that value if a step's velocity is not
    finite.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = t_end / n_steps
    half_h, sixth_h = 0.5 * h, h / 6.0
    edge = 1.0 - EPS_BOUND
    isfinite = cmath.isfinite
    def sample_t(i):
        # (t_end * i) / n_steps may round away from t_end at i = n_steps
        return t_end if i == n_steps else t_end * i / n_steps

    def accel(z, w, dz, dw):
        # acceleration_at at one stage of the loop's step, guarding the disk;
        # P as in p_at
        p = 1.0 - (w.real * w.real + w.imag * w.imag)
        if p <= EPS_BOUND or abs(w) >= edge:
            raise BoundaryEscape(sample_t(step))
        return acceleration_at(z, w, p, dz, dw, params)

    z, w = s0.pos.z, s0.pos.w
    dz, dw = s0.vel.dz, s0.vel.dw
    columns = np.empty((n_steps + 1, 4), dtype=complex)
    filled, ys = 0, [z, w, dz, dw]      # ys: samples not yet in columns, flat
    for step in range(n_steps):
        if len(ys) >= 4 * _PATH_BLOCK:
            columns[filled:filled + _PATH_BLOCK].reshape(-1)[:] = ys
            filled, ys = filled + _PATH_BLOCK, []
        # stage i evaluates y' = (dz_i, dw_i, accel) of y = (z, w, dz, dw)
        az1, aw1 = accel(z, w, dz, dw)
        dz2, dw2 = dz + half_h * az1, dw + half_h * aw1
        az2, aw2 = accel(z + half_h * dz, w + half_h * dw, dz2, dw2)
        dz3, dw3 = dz + half_h * az2, dw + half_h * aw2
        az3, aw3 = accel(z + half_h * dz2, w + half_h * dw2, dz3, dw3)
        dz4, dw4 = dz + h * az3, dw + h * aw3
        az4, aw4 = accel(z + h * dz3, w + h * dw3, dz4, dw4)
        z += sixth_h * (dz + 2.0 * dz2 + 2.0 * dz3 + dz4)
        w += sixth_h * (dw + 2.0 * dw2 + 2.0 * dw3 + dw4)
        dz += sixth_h * (az1 + 2.0 * az2 + 2.0 * az3 + az4)
        dw += sixth_h * (aw1 + 2.0 * aw2 + 2.0 * aw3 + aw4)
        if not (isfinite(z) and isfinite(w) and abs(w) < edge
                and isfinite(dz) and isfinite(dw)):
            t = sample_t(step + 1)
            # the validated constructor names a fault of the position
            try:
                make_jacobi_point(z, w)
            except (BoundaryViolation, NonFinite) as exc:
                raise BoundaryEscape(t, f"step left the disk at t={t:.6g}") from exc
            raise OverflowError(f"velocity overflowed at t={t:.6g}")
        ys += (z, w, dz, dw)
    columns[filled:].reshape(-1)[:] = ys
    t = np.arange(n_steps + 1, dtype=float)
    t *= t_end
    t /= n_steps
    t[-1] = t_end
    return GeodesicPath(t, columns)


def _disk_geodesic(b: complex, t: float) -> tuple[complex, complex]:
    """(w, dw) at t of the disk geodesic from w = 0 with velocity b."""
    return disk_geodesic_map(b, t), (b / math.cosh(t * abs(b)) ** 2 if abs(b) > 0 else 0j)


def _closed_form_gap(path: GeodesicPath, stride: int, solution, *args) -> float:
    """Worst coordinate gap of every ``stride``-th sample of ``path`` from
    ``solution(*args, t)``, a closed-form GeodesicState at its time t."""
    gap = 0.0
    for t, (z, w) in zip(path.t[::stride].tolist(), path.y[::stride, :2].tolist()):
        ref = solution(*args, t).pos
        gap = max(gap, abs(z - ref.z), abs(w - ref.w))
    return gap


def fc_particular_solution(eta0: complex, b: complex, t: float) -> GeodesicState:
    """Geodesic family with constant split coordinate eta = eta0.

    Position (z, w) with w(t) = (b/|b|) tanh(t |b|) and
    z(t) = eta0 - conj(eta0) w(t); an exact solution of the full system for
    every mu because dz + conj(eta) dw vanishes identically along it.
    """
    w, dw = _disk_geodesic(b, t)
    return GeodesicState(make_jacobi_point(eta0 - eta0.conjugate() * w, w),
                         TangentVector(-eta0.conjugate() * dw, dw))


def mu_zero_solution(z0dot: complex, z1: complex, b: complex, t: float) -> GeodesicState:
    """Flat-limit geodesic: w the disk geodesic, z = (z0dot/b) w + z1.

    Solves the system with the flat coupling switched off (mu = 0); used as
    the closed-form reference for integrator tests.
    """
    if b == 0:
        if z0dot != 0:
            raise ZeroDirection("b = 0 admits only a constant solution")
        return GeodesicState(make_jacobi_point(z1, 0.0), TangentVector(0.0, 0.0))
    w, dw = _disk_geodesic(b, t)
    ratio = z0dot / b
    return GeodesicState(make_jacobi_point(ratio * w + z1, w), TangentVector(ratio * dw, dw))


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
    t = [i / (n_samples - 1) for i in range(n_samples)]
    y = np.array([(zeta1.z + ti * vel.dz, zeta1.w + ti * vel.dw, vel.dz, vel.dw)
                  for ti in t])
    check_points(y[:, 0], y[:, 1])
    return GeodesicPath(np.array(t), y)
