"""Reproducing kernels, the Kähler potential, and the orthonormal basis.

The two-parameter kernel on the product of the plane and the disk is

    K(zeta, conj(zeta2)) = (1 - w conj(w2))^(-2k) * exp(mu * F),
    F = (2 conj(z2) z + z^2 conj(w2) + conj(z2)^2 w) / (2 (1 - w conj(w2))),

holomorphic in the first point and antiholomorphic in the second.  Powers
use the principal branch of the complex logarithm, which is smooth here
because Re(1 - w conj(w2)) > 0 on the open bidisk.  The normalized kernel
and the diastasis are assembled in log space so large |z| cannot overflow.

The series route goes through the orthonormal polynomial basis

    f[n, m](zeta) = c[m] w^m * P_n(sqrt(mu) z, w) / sqrt(n!),
    c[m]^2 = Gamma(m + 2k') / (m! Gamma(2k')),

which exists when 2k' = 2(k - 1/4) is a positive integer; summing
f[n, m](zeta) conj(f[n, m](zeta2)) recovers the closed form above, and the
quarter shift between k and k' is exactly what the series/closed-form
agreement tests pin down.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidK, JacobiPoint, ModelParams, check_positive_mu, check_setting, p_at


@dataclass(frozen=True)
class BasisIndex:
    """Index (n, m): flat excitation level n, disk level m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("basis indices must be nonnegative")


@dataclass(frozen=True)
class TruncationOrder:
    """Finite cutoff (n_max, m_max) for series and embedding operations."""

    n_max: int
    m_max: int

    def __post_init__(self):
        check_setting("n_max", self.n_max)
        check_setting("m_max", self.m_max)


def heisenberg_kernel(z: complex, z2: complex, mu: float) -> complex:
    """Flat-factor kernel exp(mu * z * conj(z2))."""
    check_positive_mu(mu)
    return cmath.exp(mu * z * z2.conjugate())


def disk_kernel(w: complex, w2: complex, k: float) -> complex:
    """Disk-factor kernel (1 - w conj(w2))^(-2k), principal branch."""
    check_setting("k", k)
    return cmath.exp(-2.0 * k * cmath.log(1.0 - w * w2.conjugate()))


def cross_F_at(z, w, z2, w2):
    """Mixed exponent F(zeta, conj(zeta2)) on coordinates (numbers or arrays)."""
    z2c, w2c = z2.conjugate(), w2.conjugate()
    return (2.0 * z2c * z + z * z * w2c + z2c * z2c * w) / (2.0 * (1.0 - w * w2c))


def diagonal_F_at(z, w, p):
    """F(zeta, conj(zeta)) on coordinates, with P = p_at(w); real and nonnegative."""
    return ((z * z.conjugate()).real + (z * z * w.conjugate()).real) / p


def log_kernel_at(z, w, z2, w2, params: ModelParams):
    """Principal log of the kernel: -2k Log(1 - w conj(w2)) + mu F."""
    return (-2.0 * params.k * np.log(1.0 - w * w2.conjugate())
            + params.mu * cross_F_at(z, w, z2, w2))


def kernel_at(z, w, z2, w2, params: ModelParams):
    """Two-point kernel on coordinates (numbers or arrays).

    Raises OverflowError, as ``cmath.exp`` does, where a finite log-kernel
    exceeds the float range.
    """
    log_k = log_kernel_at(z, w, z2, w2, params)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(log_k)
    if np.any(np.isfinite(log_k) & ~np.isfinite(value)):
        raise OverflowError("kernel value exceeds the floating-point range")
    return value


def potential_at(z, w, p, params: ModelParams):
    """Potential mu F(zeta) - 2k ln P on coordinates, with P = p_at(w)."""
    return params.mu * diagonal_F_at(z, w, p) - 2.0 * params.k * np.log(p)


def _log_normalized_at(z, w, z2, w2, params: ModelParams):
    return (log_kernel_at(z, w, z2, w2, params)
            - 0.5 * potential_at(z, w, p_at(w), params)
            - 0.5 * potential_at(z2, w2, p_at(w2), params))


def normalized_kernel_at(z, w, z2, w2, params: ModelParams):
    """Normalized kernel on coordinates, combined in log space."""
    return np.exp(_log_normalized_at(z, w, z2, w2, params))


def berezin_at(z, w, z2, w2, params: ModelParams):
    """Berezin kernel |normalized kernel|^2 on coordinates."""
    return abs(normalized_kernel_at(z, w, z2, w2, params)) ** 2


def diastasis_at(z, w, z2, w2, params: ModelParams):
    """Diastasis D = -ln (Berezin kernel) >= 0 on coordinates.

    Evaluated as -2 Re(log normalized kernel), with no exp/log round trip.
    """
    return -2.0 * _log_normalized_at(z, w, z2, w2, params).real


def jacobi_kernel(zeta: JacobiPoint, zeta2: JacobiPoint, params: ModelParams) -> complex:
    """Two-point reproducing kernel; real and positive on the diagonal."""
    return complex(kernel_at(zeta.z, zeta.w, zeta2.z, zeta2.w, params))


def kahler_potential(zeta: JacobiPoint, params: ModelParams) -> float:
    """Potential f = mu * F(zeta) - 2k ln(1 - w conj(w)) = ln K(zeta, zeta)."""
    return float(potential_at(zeta.z, zeta.w, zeta.p, params))


def normalized_kernel(zeta: JacobiPoint, zeta2: JacobiPoint, params: ModelParams) -> complex:
    """K(zeta, conj(zeta2)) / sqrt(K(zeta) K(zeta2)); modulus <= 1.

    Combined in log space so the three kernel factors never overflow
    individually.
    """
    return complex(normalized_kernel_at(zeta.z, zeta.w, zeta2.z, zeta2.w, params))


def diastasis_split(zeta: JacobiPoint, zeta2: JacobiPoint, params: ModelParams) -> float:
    """Diastasis through its disk + flat split form.

    D/2 = k ln(|1 - w conj(w2)|^2 / ((1-|w|^2)(1-|w2|^2)))
          + mu [ (F(zeta) + F(zeta2))/2 - Re F(zeta, conj(zeta2)) ].

    Agrees with :func:`diastasis_at`; keeping both evaluations makes the
    identity itself testable.
    """
    cross = abs(1.0 - zeta.w * zeta2.w.conjugate()) ** 2
    disk_part = params.k * math.log(cross / (zeta.p * zeta2.p))
    flat_part = params.mu * (0.5 * (diagonal_F_at(zeta.z, zeta.w, zeta.p)
                                    + diagonal_F_at(zeta2.z, zeta2.w, zeta2.p))
                             - cross_F_at(zeta.z, zeta.w, zeta2.z, zeta2.w).real)
    return 2.0 * (disk_part + flat_part)


def _pn_values(z, w, n_max: int):
    """Yield P_0, ..., P_n_max at (z, w) by the recurrence P_(n+1) = z P_n + n w P_(n-1).

    P_n has generating function exp(z t + w t^2 / 2): P_0 = 1, P_1 = z.
    """
    prev, cur = 0.0 + 0.0j, 1.0 + 0.0j
    yield cur
    for i in range(n_max):
        prev, cur = cur, z * cur + i * w * prev
        yield cur


def two_k_prime(k: float) -> int:
    """Return 2k' = 2(k - 1/4) as the positive integer the basis requires."""
    raw = 2.0 * (k - 0.25)
    nearest = round(raw)
    if nearest < 1 or abs(raw - nearest) > 1e-9:
        raise InvalidK(
            f"basis operations need 2(k - 1/4) to be a positive integer; k={k}")
    return int(nearest)


def disk_coeff_log(m_max: int, two_kp: float) -> np.ndarray:
    """log c[m]^2 = lgamma(m + 2k') - lgamma(m + 1) - lgamma(2k') for m = 0..m_max.

    c[m]^2 = Gamma(m + 2k') / (m! Gamma(2k')) is the squared norm factor of
    w^m under the disk weight with parameter 2k'.
    """
    return (np.array([math.lgamma(m + two_kp) - math.lgamma(m + 1.0)
                      for m in range(m_max + 1)]) - math.lgamma(two_kp))


def basis_factors_at(z, w, params: ModelParams, n_max: int,
                     m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat and disk factors of the basis, f[n, m] = flat[n] * disk[m].

    flat[n] = P_n(sqrt(mu) z, w) / sqrt(n!) for n <= n_max, from the
    three-term recurrence, with shape (n_max + 1,) + the broadcast shape of
    z and w; disk[m] = c[m] w^m for m <= m_max, from log-gamma weights,
    broadcastable to (m_max + 1,) + that shape.  Python numbers stay Python
    numbers through the recurrence.
    """
    two_kp = two_k_prime(params.k)
    shape = np.broadcast(z, w).shape
    flat = np.empty((n_max + 1,) + shape, dtype=complex)
    for n, pn in enumerate(_pn_values(math.sqrt(params.mu) * z, w, n_max)):
        flat[n] = pn * math.exp(-0.5 * math.lgamma(n + 1.0))
    ms = np.arange(m_max + 1).reshape((-1,) + (1,) * len(shape))
    disk = np.exp(0.5 * disk_coeff_log(m_max, two_kp)).reshape(ms.shape) * w ** ms
    return flat, disk


def basis_at(z, w, params: ModelParams, n_max: int, m_max: int) -> np.ndarray:
    """All f[n, m] for n <= n_max, m <= m_max on coordinates (numbers or arrays).

    Returns shape (n_max + 1, m_max + 1) + the broadcast shape of z and w,
    the outer product of :func:`basis_factors_at`.
    """
    flat, disk = basis_factors_at(z, w, params, n_max, m_max)
    return flat[:, None] * disk[None]


def basis_function(idx: BasisIndex, zeta: JacobiPoint, params: ModelParams) -> complex:
    """Orthonormal basis polynomial f[n, m] at zeta."""
    flat, disk = basis_factors_at(zeta.z, zeta.w, params, idx.n, idx.m)
    # row n of basis_at's outer product: numpy's array loop may fuse the
    # complex multiply, so a product of two scalars can differ in the last bit
    return complex((flat[idx.n] * disk)[idx.m])


def basis_matrix(zeta: JacobiPoint, params: ModelParams,
                 trunc: TruncationOrder) -> np.ndarray:
    """All f[n, m](zeta) for n <= n_max, m <= m_max as an (n, m) array.

    The workhorse behind series summation and the projective embedding.
    """
    return basis_at(zeta.z, zeta.w, params, trunc.n_max, trunc.m_max)


def kernel_series(zeta: JacobiPoint, zeta2: JacobiPoint, params: ModelParams,
                  trunc: TruncationOrder) -> complex:
    """Truncated basis expansion sum f[n,m](zeta) conj(f[n,m](zeta2)).

    Converges to :func:`jacobi_kernel` as the truncation grows; the rate is
    governed by |w| (disk levels) and mu |z|^2 (flat levels).
    """
    f1 = basis_matrix(zeta, params, trunc)
    f2 = basis_matrix(zeta2, params, trunc)
    return complex(np.sum(f1 * f2.conjugate()))
