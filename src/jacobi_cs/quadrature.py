"""Invariant measure, scalar-product weight, and Monte Carlo inner products.

The scalar product of basis functions integrates against

    rho(zeta) * dnu,   rho = L (1 - w conj(w))^(2k) exp(-mu F(zeta)),
    dnu = mu / (1 - w conj(w))^3 * dRe(w) dIm(w) dRe(z) dIm(z),

with normalization L = (4k - 3) / (2 pi^2); rho * K = L identically, so
rho is exp(-potential) up to that constant.

Sampling is importance-weighted: the disk radius comes from a Beta draw in
s = r^2 (density proportional to (1 - s)^(2k-3) when that is proper, a
flattened fallback for k <= 1), the angle is uniform, and z is drawn from
the exact conditional Gaussian of the integrand, whose precision matrix in
(x, y) = (Re z, Im z) is (mu/P) [[1+u, v], [v, 1-u]] for w = u + i v.
Because z is sampled exactly, all Monte Carlo variance comes from the
radial factor.  Streams are deterministic for a fixed seed.

The deterministic cross-check is a polar Gauss-Legendre quadrature of the
pure-disk factor, where the weight (2k - 1)/pi (1 - |w|^2)^(2k - 2) with
integer 2k makes the radial integrand polynomial and the rule exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import K_MIN, InvalidK, JacobiPoint, ModelParams, make_jacobi_point, p_at
from .kernels import BasisIndex, basis_at, disk_coeff_log, potential_at

# Flattening exponent for the radial proposal when 2k - 2 <= 0; the target
# stays integrable and the weights absorb the mismatch.
_BETA_EPS = 1e-3


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for a Monte Carlo estimate."""

    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1000:
            raise ValueError("n_samples must be at least 1000")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    """Estimated value with the standard error of the mean."""

    value: complex
    std_error: float
    n_samples: int = 0
    seed: int = 0


def normalization_constant(k: float) -> float:
    """The measure normalization (4k - 3) / (2 pi^2); positive for k > 3/4."""
    if k <= K_MIN:
        raise ValueError(f"k must exceed 3/4, got {k}")
    return (4.0 * k - 3.0) / (2.0 * math.pi**2)


def measure_density_at(p, mu: float):
    """Density mu / P^3 of the invariant measure, with P = p_at(w) (numbers or arrays)."""
    return mu / p**3


def weight_rho_at(z, w, p, params: ModelParams):
    """Weight L P^(2k) exp(-mu F) = L exp(-potential) on coordinates, with P = p_at(w)."""
    return normalization_constant(params.k) * np.exp(-potential_at(z, w, p, params))


def invariant_measure_density(zeta: JacobiPoint, mu: float) -> float:
    """Density mu / P^3 of the invariant measure against Lebesgue measure."""
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return measure_density_at(zeta.p, mu)


def weight_rho(zeta: JacobiPoint, params: ModelParams) -> float:
    """Scalar-product weight L P^(2k) exp(-mu F(zeta)); equals L / K(zeta, zeta)."""
    return float(weight_rho_at(zeta.z, zeta.w, zeta.p, params))


def _beta_shape(k: float) -> float:
    """Shape of the Beta(1, b) proposal for s = r^2."""
    raw = 2.0 * k - 2.0
    if raw > 0.0:
        return raw
    return max(raw, _BETA_EPS) + 1.0


def _sample_batch(params: ModelParams, rng: np.random.Generator, n: int,
                  z_inflation: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n points; returns (z, w, proposal density against Lebesgue).

    ``z_inflation`` scales the covariance of the z proposal; 1 is the exact
    conditional of the target weight.  Values above 1 thicken the proposal
    tails, which tames the variance of high-moment integrands at the cost
    of a z-dependent importance weight.
    """
    mu = params.mu
    if mu <= 0.0:
        raise ValueError("sampling needs mu > 0")
    b = _beta_shape(params.k)
    s = rng.beta(1.0, b, size=n)
    # keep strictly inside the guarded disk; redraw the (rare) tail hits
    while True:
        bad = s >= 1.0 - 1e-9
        if not bad.any():
            break
        s[bad] = rng.beta(1.0, b, size=int(bad.sum()))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.sqrt(s)
    w = r * np.exp(1j * theta)
    u, v = w.real, w.imag
    p = 1.0 - s

    # conditional Gaussian for z: covariance gamma [[1-u,-v],[-v,1+u]]/(2 mu)
    gamma = z_inflation
    sig_xx = gamma * (1.0 - u) / (2.0 * mu)
    sig_xy = gamma * -v / (2.0 * mu)
    sig_yy = gamma * (1.0 + u) / (2.0 * mu)
    l11 = np.sqrt(sig_xx)
    l21 = sig_xy / l11
    l22 = np.sqrt(sig_yy - l21**2)
    xi = rng.standard_normal(size=(2, n))
    x = l11 * xi[0]
    y = l21 * xi[0] + l22 * xi[1]
    z = x + 1j * y

    quad_form = (1.0 + u) * x**2 + (1.0 - u) * y**2 + 2.0 * v * x * y
    q_w = b * (1.0 - s) ** (b - 1.0) / math.pi
    q_z = mu / (gamma * math.pi * np.sqrt(p)) * np.exp(-(mu / (gamma * p)) * quad_form)
    return z, w, q_w * q_z


def sample_point(params: ModelParams,
                 rng: np.random.Generator) -> tuple[JacobiPoint, float]:
    """One importance-sampled point and its proposal density."""
    z, w, q = _sample_batch(params, rng, 1)
    return make_jacobi_point(complex(z[0]), complex(w[0])), float(q[0])


def _mc_weights(z: np.ndarray, w: np.ndarray, q: np.ndarray,
                params: ModelParams) -> np.ndarray:
    """Importance weights rho * (measure density) / proposal, vectorized."""
    p = p_at(w)
    return weight_rho_at(z, w, p, params) * measure_density_at(p, params.mu) / q


def inner_product_mc(i1: BasisIndex, i2: BasisIndex, params: ModelParams,
                     cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of the weighted pairing of two basis functions."""
    rng = np.random.default_rng(cfg.seed)
    z, w, q = _sample_batch(params, rng, cfg.n_samples)
    weights = _mc_weights(z, w, q, params)
    f = basis_at(z, w, params, max(i1.n, i2.n), max(i1.m, i2.m))
    x = np.conj(f[i1.n, i1.m]) * f[i2.n, i2.m] * weights
    mean = complex(np.mean(x))
    var = float(np.mean(np.abs(x) ** 2) - abs(mean) ** 2)
    return McEstimate(value=mean,
                      std_error=math.sqrt(max(var, 0.0) / cfg.n_samples),
                      n_samples=cfg.n_samples, seed=cfg.seed)


def orthonormality_matrix_mc(n_max: int, m_max: int, params: ModelParams,
                             cfg: McConfig, chunk: int = 100_000,
                             z_inflation: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of all f[n, m] with n <= n_max, m <= m_max, on shared samples.

    Returns (estimates, standard errors), both square arrays over the index
    list in row-major (n, m) order.  Shared samples keep the whole matrix
    affordable at large sample counts; accumulation is chunked and ordered,
    hence reproducible for a fixed seed.

    The z proposal is inflated by default: the flat-index-3 entries carry
    twelfth moments of the conditional Gaussian, and sampling that Gaussian
    exactly leaves them a standard error a shade above 1e-2 at a million
    samples; a threefold covariance inflation brings the whole matrix
    comfortably under it.
    """
    d = (n_max + 1) * (m_max + 1)
    rng = np.random.default_rng(cfg.seed)
    s1 = np.zeros((d, d), dtype=complex)
    s2 = np.zeros((d, d))
    remaining = cfg.n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        z, w, q = _sample_batch(params, rng, take, z_inflation=z_inflation)
        weights = _mc_weights(z, w, q, params)
        values = basis_at(z, w, params, n_max, m_max).reshape(d, -1)
        weighted = values * weights          # broadcast over samples
        s1 += np.conj(values) @ weighted.T
        c = (np.abs(values) ** 2) * weights
        s2 += c @ c.T
        remaining -= take
    n = cfg.n_samples
    mean = s1 / n
    var = s2 / n - np.abs(mean) ** 2
    return mean, np.sqrt(np.maximum(var, 0.0) / n)


@dataclass(frozen=True)
class ParsevalResult:
    estimate: McEstimate
    exact: complex
    deviation: float


def parseval_check(c1: dict[tuple[int, int], complex],
                   c2: dict[tuple[int, int], complex],
                   params: ModelParams, cfg: McConfig) -> ParsevalResult:
    """Resolution-of-identity check for finite basis combinations.

    Estimates the weighted pairing of psi1 = sum c1 f and psi2 = sum c2 f
    and compares with the exact value sum conj(c1) c2 over shared indices.
    """
    if not c1 or not c2:
        raise ValueError("coefficient maps must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    z, w, q = _sample_batch(params, rng, cfg.n_samples)
    weights = _mc_weights(z, w, q, params)
    indices = sorted(set(c1) | set(c2))
    ns, ms = zip(*indices)
    values = basis_at(z, w, params, max(ns), max(ms))[list(ns), list(ms)]
    a1 = np.array([c1.get(idx, 0.0) for idx in indices], dtype=complex)
    a2 = np.array([c2.get(idx, 0.0) for idx in indices], dtype=complex)
    psi1 = a1 @ values
    psi2 = a2 @ values
    x = np.conj(psi1) * psi2 * weights
    mean = complex(np.mean(x))
    var = float(np.mean(np.abs(x) ** 2) - abs(mean) ** 2)
    estimate = McEstimate(value=mean,
                          std_error=math.sqrt(max(var, 0.0) / cfg.n_samples),
                          n_samples=cfg.n_samples, seed=cfg.seed)
    exact = complex(np.vdot(a1, a2))
    return ParsevalResult(estimate=estimate, exact=exact,
                          deviation=abs(mean - exact))


def disk_inner_product_gl(k: float, m1: int, m2: int,
                          n_radial: int = 64, n_angular: int = 64) -> complex:
    """Polar Gauss-Legendre pairing of w^m1, w^m2 under the pure-disk weight.

    The weight is (2k - 1)/pi (1 - r^2)^(2k - 2) with 2k a positive integer
    of at least 2, making the radial integrand polynomial and the rule
    exact; the result is the Kronecker delta scaled by unit normalization.
    """
    two_k = 2.0 * k
    if abs(two_k - round(two_k)) > 1e-9 or round(two_k) < 2:
        raise InvalidK(f"the disk weight needs 2k in {{2, 3, ...}}; k={k}")
    log_c = disk_coeff_log(max(m1, m2), two_k)
    coeff = math.exp(0.5 * (log_c[m1] + log_c[m2]))
    xr, wr = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (xr + 1.0)            # map [-1, 1] -> [0, 1]
    wr = 0.5 * wr
    xt, wt = np.polynomial.legendre.leggauss(n_angular)
    theta = math.pi * (xt + 1.0)    # map [-1, 1] -> [0, 2 pi]
    wt = math.pi * wt
    radial = r ** (m1 + m2 + 1) * (1.0 - r**2) ** (two_k - 2.0)
    angular = np.exp(1j * (m2 - m1) * theta)
    total = float(np.sum(wr * radial)) * complex(np.sum(wt * angular))
    return (two_k - 1.0) / math.pi * coeff * total
