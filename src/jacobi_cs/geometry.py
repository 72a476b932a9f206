"""Metric, curvature, and the finite-difference machinery that checks them.

The metric coefficients come from the mixed Wirtinger Hessian of the
potential f = ln K(zeta, zeta):

    h_zz = mu / P,   h_zw = mu eta / P,   h_ww = mu |eta|^2 / P + 2k / P^2,

with P = 1 - w conj(w) and eta = (z + conj(z) w) / P.  Everything else
(determinant, Ricci, scalar curvature, the shifted positive form, the
volume density) is closed-form on top of these.

The numerical oracle is a real 4-point central-difference stencil combined
into Wirtinger derivatives,

    d/dz = (d/dx - i d/dy) / 2,   d/dconj(z) = (d/dx + i d/dy) / 2,

which validates each closed form against a derivative it does not share
code with.  Default step 1e-4 puts the O(step^2) truncation error near
1e-8, safely below the 1e-6 gates used by the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BoundaryProximity,
    EPS_BOUND,
    HermitianMetric2,
    JacobiPoint,
    ModelParams,
    TangentVector,
    eta_at,
    hermitian_det,
)
from .kernels import kahler_potential


@dataclass(frozen=True)
class RicciTensor2:
    """Ricci coefficients; diagonal entries are real by hermiticity."""

    r_zz: float
    r_zw: complex
    r_ww: float


@dataclass(frozen=True)
class WirtingerStencil:
    """Central-difference step for Wirtinger derivatives of smooth fields."""

    step: float = 1e-4

    def __post_init__(self):
        if not (1e-7 <= self.step <= 1e-2):
            raise ValueError(f"step {self.step} outside [1e-7, 1e-2]")


def metric_at(z, w, p, params: ModelParams):
    """Closed-form metric coefficients (h_zz, h_zw, h_ww) on coordinates.

    ``p`` is P = p_at(w).  Takes numbers or arrays and checks nothing;
    :func:`metric` and :func:`jacobi_cs.core.check_metric` validate the
    result.
    """
    eta = eta_at(z, w, p)
    mu, k = params.mu, params.k
    return mu / p, mu * eta / p, mu * abs(eta) ** 2 / p + 2.0 * k / p**2


def ricci_at(p):
    """Ricci coefficients (r_zz, r_zw, r_ww) from P: only r_ww = -3 / P^2 survives."""
    return 0.0, 0.0 + 0.0j, -3.0 / p**2


def scalar_curvature_at(h_zz, h_zw, h_ww, r_ww):
    """Trace of (inverse metric) * Ricci, h_zz r_ww / det h, from coefficients.

    Uses that r_zz and r_zw vanish; takes numbers or arrays.
    """
    return h_zz * r_ww / hermitian_det(h_zz, h_zw, h_ww)


def volume_density_at(p, params: ModelParams):
    """Volume density 4 k mu / P^3 from P."""
    return 4.0 * params.k * params.mu / p**3


def metric(zeta: JacobiPoint, params: ModelParams) -> HermitianMetric2:
    """Closed-form metric coefficients at a point."""
    return HermitianMetric2(*metric_at(zeta.z, zeta.w, zeta.p, params))


def metric_det(zeta: JacobiPoint, params: ModelParams) -> float:
    """Determinant of the 2x2 coefficient matrix (equals 2 k mu / P^3)."""
    return metric(zeta, params).det()


def ricci(zeta: JacobiPoint, params: ModelParams) -> RicciTensor2:
    """Ricci coefficients: only the pure-w entry survives, -3 / P^2."""
    return RicciTensor2(*ricci_at(zeta.p))


def scalar_curvature(zeta: JacobiPoint, params: ModelParams) -> float:
    """Trace of (inverse metric) * Ricci; constant -3/(2k) over the space.

    Raises where the metric is not finite and positive definite.
    """
    h = metric(zeta, params)
    return scalar_curvature_at(h.h_zz, h.h_zw, h.h_ww, ricci(zeta, params).r_ww)


def tilde_metric(zeta: JacobiPoint, params: ModelParams) -> HermitianMetric2:
    """Coefficients of the shifted positive form 3 h - Ric (complex dim 2)."""
    h = metric(zeta, params)
    r = ricci(zeta, params)
    return HermitianMetric2(
        h_zz=3.0 * h.h_zz - r.r_zz,
        h_zw=3.0 * h.h_zw - r.r_zw,
        h_ww=3.0 * h.h_ww - r.r_ww,
    )


def volume_density(zeta: JacobiPoint, params: ModelParams) -> float:
    """Density 4 k mu / P^3 of the volume form against dRe(z) dIm(z) dRe(w) dIm(w).

    The factor 4 relative to the coefficient determinant is the Jacobian of
    passing from the wedge of complex differentials to real coordinates;
    the ratio to :func:`metric_det` is exactly 2.
    """
    return volume_density_at(zeta.p, params)


def tangent_norm(zeta: JacobiPoint, v: TangentVector, params: ModelParams) -> float:
    """Length of a tangent vector in the metric at zeta."""
    h = metric(zeta, params)
    q = (h.h_zz * abs(v.dz) ** 2
         + 2.0 * (h.h_zw * v.dz * v.dw.conjugate()).real
         + h.h_ww * abs(v.dw) ** 2)
    return math.sqrt(max(q, 0.0))


# ---------------------------------------------------------------------------
# Real <-> hermitian packaging for pullback checks
# ---------------------------------------------------------------------------

def hermitian_to_real(h: HermitianMetric2) -> np.ndarray:
    """Real 4x4 Gram matrix of the quadratic form in (Re z, Im z, Re w, Im w)."""
    cr, ci = h.h_zw.real, h.h_zw.imag
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = h.h_zz
    g[2, 2] = g[3, 3] = h.h_ww
    g[0, 2] = g[2, 0] = cr
    g[1, 3] = g[3, 1] = cr
    g[0, 3] = g[3, 0] = ci
    g[1, 2] = g[2, 1] = -ci
    return g


def real_to_hermitian(g: np.ndarray) -> tuple[float, complex, float, float]:
    """Recover (h_zz, h_zw, h_ww, defect) from a real 4x4 Gram matrix.

    ``defect`` is the largest violation of the symmetries a hermitian form
    imposes on the real matrix; it vanishes exactly when the form carries
    no dz dz / dw dw type terms.
    """
    h_zz = 0.5 * (g[0, 0] + g[1, 1])
    h_ww = 0.5 * (g[2, 2] + g[3, 3])
    cr = 0.5 * (g[0, 2] + g[1, 3])
    ci = 0.5 * (g[0, 3] - g[1, 2])
    defect = max(
        abs(g[0, 0] - g[1, 1]), abs(g[2, 2] - g[3, 3]),
        abs(g[0, 2] - g[1, 3]), abs(g[0, 3] + g[1, 2]),
        abs(g[0, 1]), abs(g[2, 3]),
    )
    return h_zz, complex(cr, ci), h_ww, defect


def hermitian_to_symplectic(h: HermitianMetric2) -> np.ndarray:
    """Real antisymmetric 4x4 matrix of the fundamental two-form of h.

    The two-form evaluates as omega(V1, V2) = -2 Im sum h_(a b~) V1_a
    conj(V2_b); unlike the symmetric Gram matrix this is the right object
    to pull back through non-holomorphic maps, because type-(2,0) terms
    produced by such maps cancel in the wedge.
    """
    cr, ci = h.h_zw.real, h.h_zw.imag
    return 2.0 * np.array([
        [0.0, h.h_zz, -ci, cr],
        [-h.h_zz, 0.0, -cr, -ci],
        [ci, cr, 0.0, h.h_ww],
        [-cr, ci, -h.h_ww, 0.0],
    ])


def symplectic_to_hermitian(omega: np.ndarray) -> tuple[float, complex, float, float]:
    """Recover (h_zz, h_zw, h_ww, defect) from a real antisymmetric 4x4 form.

    ``defect`` is the modulus of the (2,0)-component; it vanishes exactly
    when the form is of pure (1,1) type.
    """
    h_zz = 0.5 * omega[0, 1]
    h_ww = 0.5 * omega[2, 3]
    ci = -0.25 * (omega[0, 2] + omega[1, 3])
    cr = 0.25 * (omega[0, 3] - omega[1, 2])
    beta_re = 0.25 * (omega[0, 2] - omega[1, 3])
    beta_im = -0.25 * (omega[0, 3] + omega[1, 2])
    return h_zz, complex(cr, ci), h_ww, abs(complex(beta_re, beta_im))


def real_jacobian(map_fn: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                  step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a map R^4 -> R^4."""
    n = len(x0)
    jac = np.zeros((n, n))
    for j in range(n):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (map_fn(xp) - map_fn(xm)) / (2.0 * step)
    return jac


def pullback_real(g_target: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Pull a real Gram matrix back through a real Jacobian: J^T G J."""
    return jac.T @ g_target @ jac


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------

def _coords(zeta: JacobiPoint) -> np.ndarray:
    return np.array([zeta.z.real, zeta.z.imag, zeta.w.real, zeta.w.imag])


def _from_coords(x: np.ndarray) -> JacobiPoint:
    return JacobiPoint(complex(x[0], x[1]), complex(x[2], x[3]))


def resolve_step(zeta: JacobiPoint, stencil: WirtingerStencil,
                 min_step: float = 1e-6) -> float:
    """Step for stencils at zeta, halved near the boundary until it fits.

    Raises BoundaryProximity once halving below ``min_step`` would still
    let the stencil leave the guarded disk.
    """
    step = stencil.step
    while abs(zeta.w) + 2.0 * step >= 1.0 - EPS_BOUND:
        step *= 0.5
        if step < min_step:
            raise BoundaryProximity(
                f"point with |w|={abs(zeta.w):.6g} too close to the boundary "
                f"for a stencil of step >= {min_step:g}")
    return step


def _real_hessian_entry(f: Callable[[np.ndarray], float], x0: np.ndarray,
                        i: int, j: int, h: float, f0: float) -> float:
    if i == j:
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        return (f(xp) - 2.0 * f0 + f(xm)) / h**2
    xpp, xpm, xmp, xmm = x0.copy(), x0.copy(), x0.copy(), x0.copy()
    xpp[i] += h; xpp[j] += h
    xpm[i] += h; xpm[j] -= h
    xmp[i] -= h; xmp[j] += h
    xmm[i] -= h; xmm[j] -= h
    return (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h**2)


def wirtinger_hessian(f: Callable[[JacobiPoint], float], zeta: JacobiPoint,
                      step: float) -> tuple[float, complex, float]:
    """Mixed Wirtinger second derivatives (f_zz~, f_zw~, f_ww~) of a real field."""
    x0 = _coords(zeta)

    def fr(x: np.ndarray) -> float:
        return f(_from_coords(x))

    f0 = fr(x0)
    h_xx = _real_hessian_entry(fr, x0, 0, 0, step, f0)
    h_yy = _real_hessian_entry(fr, x0, 1, 1, step, f0)
    h_uu = _real_hessian_entry(fr, x0, 2, 2, step, f0)
    h_vv = _real_hessian_entry(fr, x0, 3, 3, step, f0)
    h_xu = _real_hessian_entry(fr, x0, 0, 2, step, f0)
    h_yv = _real_hessian_entry(fr, x0, 1, 3, step, f0)
    h_xv = _real_hessian_entry(fr, x0, 0, 3, step, f0)
    h_yu = _real_hessian_entry(fr, x0, 1, 2, step, f0)
    d_zz = 0.25 * (h_xx + h_yy)
    d_ww = 0.25 * (h_uu + h_vv)
    d_zw = 0.25 * complex(h_xu + h_yv, h_xv - h_yu)
    return d_zz, d_zw, d_ww


def metric_fd(zeta: JacobiPoint, params: ModelParams,
              stencil: WirtingerStencil = WirtingerStencil()) -> HermitianMetric2:
    """Metric from the potential by central differences; the oracle for metric()."""
    step = resolve_step(zeta, stencil)
    d_zz, d_zw, d_ww = wirtinger_hessian(
        lambda pt: kahler_potential(pt, params), zeta, step)
    return HermitianMetric2(h_zz=d_zz, h_zw=d_zw, h_ww=d_ww)


def ricci_fd(zeta: JacobiPoint, params: ModelParams,
             stencil: WirtingerStencil = WirtingerStencil()) -> RicciTensor2:
    """Ricci coefficients as minus the Wirtinger Hessian of ln det(metric)."""
    step = resolve_step(zeta, stencil)
    d_zz, d_zw, d_ww = wirtinger_hessian(
        lambda pt: math.log(metric_det(pt, params)), zeta, step)
    return RicciTensor2(r_zz=-d_zz, r_zw=-d_zw, r_ww=-d_ww)


def _wirtinger_grad(g: Callable[[JacobiPoint], complex], zeta: JacobiPoint,
                    step: float) -> tuple[complex, complex]:
    """(d/dz, d/dw) of a complex-valued field by central differences."""
    x0 = _coords(zeta)

    def at(idx: int, delta: float) -> complex:
        x = x0.copy()
        x[idx] += delta
        return g(_from_coords(x))

    d_x = (at(0, step) - at(0, -step)) / (2.0 * step)
    d_y = (at(1, step) - at(1, -step)) / (2.0 * step)
    d_u = (at(2, step) - at(2, -step)) / (2.0 * step)
    d_v = (at(3, step) - at(3, -step)) / (2.0 * step)
    return 0.5 * (d_x - 1j * d_y), 0.5 * (d_u - 1j * d_v)


def kahler_condition_check(zeta: JacobiPoint, params: ModelParams,
                           stencil: WirtingerStencil = WirtingerStencil(),
                           metric_fn: Callable[[JacobiPoint, ModelParams],
                                               HermitianMetric2] | None = None) -> float:
    """Largest violation of d h_(a b~)/dz_c = d h_(c b~)/dz_a by differencing.

    Near zero certifies the form is closed, i.e. genuinely Kähler.  A
    custom ``metric_fn`` can be passed to confirm the check fails on a
    corrupted field (negative control).
    """
    fn = metric_fn or metric
    step = resolve_step(zeta, stencil)

    def coeff(pt: JacobiPoint, which: str) -> complex:
        h = fn(pt, params)
        return {"zz": complex(h.h_zz), "zw": h.h_zw,
                "wz": h.h_zw.conjugate(), "ww": complex(h.h_ww)}[which]

    worst = 0.0
    for bar in ("z", "w"):
        dz_of_w, _ = _wirtinger_grad(lambda pt: coeff(pt, "w" + bar), zeta, step)
        _, dw_of_z = _wirtinger_grad(lambda pt: coeff(pt, "z" + bar), zeta, step)
        worst = max(worst, abs(dw_of_z - dz_of_w))
    return worst
