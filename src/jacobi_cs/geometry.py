"""Metric, curvature, and the finite-difference machinery that checks them.

The metric coefficients come from the mixed Wirtinger Hessian of the
potential f = ln K(zeta, zeta):

    h_zz = mu / P,   h_zw = mu eta / P,   h_ww = mu |eta|^2 / P + 2k / P^2,

with P = 1 - w conj(w) and eta = (z + conj(z) w) / P.  Everything else
(determinant, Ricci, scalar curvature, the volume density) is
closed-form on top of these.

The numerical oracle is a real 4-point central-difference stencil combined
into Wirtinger derivatives,

    d/dz = (d/dx - i d/dy) / 2,   d/dconj(z) = (d/dx + i d/dy) / 2,

which validates each closed form against a derivative it does not share
code with.  The default step (``fd_step``) puts the O(step^2) truncation
error near 1e-8, safely below the 1e-6 gates used by the checks.
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
    SETTINGS,
    check_metric,
    check_setting,
    eta_at,
    hermitian_det,
)
from .kernels import kahler_potential

# Step of real_jacobian, and the smallest step resolve_step halves a larger one to.
JACOBIAN_STEP = 1e-5
MIN_STENCIL_STEP = 1e-6


@dataclass(frozen=True)
class WirtingerStencil:
    """Central-difference step for Wirtinger derivatives of smooth fields."""

    step: float = SETTINGS["fd_step"].default

    def __post_init__(self):
        check_setting("fd_step", self.step)


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
    """Volume density 4 k mu / P^3 from P, against dRe(z) dIm(z) dRe(w) dIm(w).

    That is twice det h: the Jacobian from complex differentials to real ones.
    """
    return 4.0 * params.k * params.mu / p**3


def metric(zeta: JacobiPoint, params: ModelParams) -> HermitianMetric2:
    """Closed-form metric coefficients at a point."""
    return HermitianMetric2(*metric_at(zeta.z, zeta.w, zeta.p, params))


def speed_at(z, w, p, dz, dw, params: ModelParams):
    """Metric length of tangent vectors (dz, dw) at coordinates (numbers or arrays).

    ``p`` is P = p_at(w).  The squared moduli and Re(h_zw dz conj(dw)) are
    formed from real products, as in :func:`jacobi_cs.core.p_at`, which
    numpy rounds as Python does (its complex products may not; the metric
    coefficients can still differ in the last digit between numbers and
    arrays, and the form can magnify that).  The metric is validated with
    :func:`jacobi_cs.core.check_metric`: a finite metric that is not
    positive definite raises, one that is not finite gives a speed that is
    not finite.
    """
    h_zz, h_zw, h_ww = metric_at(z, w, p, params)
    check_metric(h_zz, h_zw, h_ww)
    cross_re = dz.real * dw.real + dz.imag * dw.imag     # dz conj(dw)
    cross_im = dz.imag * dw.real - dz.real * dw.imag
    q = (h_zz * (dz.real * dz.real + dz.imag * dz.imag)
         + 2.0 * (h_zw.real * cross_re - h_zw.imag * cross_im)
         + h_ww * (dw.real * dw.real + dw.imag * dw.imag))
    return np.sqrt(np.maximum(q, 0.0))


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


def real_jacobian(map_fn: Callable[[complex, complex], tuple[complex, complex]],
                  a: complex, b: complex) -> np.ndarray:
    """Central-difference real Jacobian at (a, b) of a map of two complex coordinates.

    Rows and columns are ordered (Re a, Im a, Re b, Im b).
    """
    def real_map(x: np.ndarray) -> np.ndarray:
        a1, b1 = map_fn(complex(x[0], x[1]), complex(x[2], x[3]))
        return np.array([a1.real, a1.imag, b1.real, b1.imag])

    x0 = np.array([a.real, a.imag, b.real, b.imag])
    return np.column_stack(_central_differences(real_map, x0, JACOBIAN_STEP))


def _central_differences(f: Callable[[np.ndarray], object], x0: np.ndarray, h: float) -> list:
    """(f(x0 + h e_j) - f(x0 - h e_j)) / 2h along each real coordinate j of x0."""
    out = []
    for j in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        out.append((f(xp) - f(xm)) / (2.0 * h))
    return out


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


def resolve_step(zeta: JacobiPoint, stencil: WirtingerStencil) -> float:
    """Step for stencils at zeta, halved near the boundary until it fits.

    Halving stops at :data:`MIN_STENCIL_STEP`, or, for a stencil already
    below it, at the smallest ``fd_step`` setting: BoundaryProximity is
    raised once a halving falls below that floor.
    """
    step = stencil.step
    floor = MIN_STENCIL_STEP if step >= MIN_STENCIL_STEP else SETTINGS["fd_step"].low
    while abs(zeta.w) + 2.0 * step >= 1.0 - EPS_BOUND:
        step *= 0.5
        if step < floor:
            raise BoundaryProximity(
                f"point with |w|={abs(zeta.w):.6g} too close to the boundary "
                f"for a stencil of step >= {floor:g}")
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
             stencil: WirtingerStencil = WirtingerStencil()) -> tuple[float, complex, float]:
    """Ricci (r_zz, r_zw, r_ww) as minus the Wirtinger Hessian of ln det(metric)."""
    step = resolve_step(zeta, stencil)
    d_zz, d_zw, d_ww = wirtinger_hessian(
        lambda pt: math.log(metric(pt, params).det()), zeta, step)
    return -d_zz, -d_zw, -d_ww


def _wirtinger_grad(g: Callable[[JacobiPoint], complex], zeta: JacobiPoint,
                    step: float) -> tuple[complex, complex]:
    """(d/dz, d/dw) of a complex-valued field by central differences.

    The field may also return an array; each entry is differenced.
    """
    d_x, d_y, d_u, d_v = _central_differences(lambda x: g(_from_coords(x)), _coords(zeta), step)
    return 0.5 * (d_x - 1j * d_y), 0.5 * (d_u - 1j * d_v)


def metric_matrix(h: HermitianMetric2) -> np.ndarray:
    """The 2x2 Hermitian matrix of metric coefficients, entry [a, b] = h_(a b~)."""
    return np.array([[h.h_zz, h.h_zw], [h.h_zw.conjugate(), h.h_ww]])


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
    d_z, d_w = _wirtinger_grad(lambda pt: metric_matrix(fn(pt, params)), zeta,
                               resolve_step(zeta, stencil))
    return float(np.max(np.abs(d_w[0] - d_z[1])))
