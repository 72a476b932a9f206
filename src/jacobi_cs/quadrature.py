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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (K_MIN, InvalidK, JacobiPoint, ModelParams, check_positive_mu, check_setting,
                   make_jacobi_point, p_at)
from .kernels import BasisIndex, basis_factors_at, disk_coeff_log, potential_at

# Flattening exponent for the radial proposal when 2k - 2 <= 0; the target
# stays integrable and the weights absorb the mismatch.
_BETA_EPS = 1e-3

# Samples per block of the Monte Carlo work.  Each draw is made whole, so
# the random stream does not depend on this; the points, weights, basis
# values and their products are formed block by block, small enough to stay
# in cache, so only the draw's variates grow with the sample count.
_GRAM_BLOCK = 8192

# Samples per draw of the Gram matrix, and the covariance inflation of its
# z proposal (see orthonormality_matrix_mc).
_GRAM_DRAW = 100_000
_GRAM_Z_INFLATION = 3.0

# Gauss-Legendre nodes per polar axis of disk_inner_product_gl.
_GL_NODES = 64


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for a Monte Carlo estimate."""

    n_samples: int
    seed: int = 0

    def __post_init__(self):
        check_setting("mc_samples", self.n_samples)
        check_setting("seed", self.seed)


@dataclass(frozen=True)
class McEstimate:
    """Estimated value with the standard error of the mean."""

    value: complex
    std_error: float


def normalization_constant(k: float) -> float:
    """The measure normalization (4k - 3) / (2 pi^2); positive for k > 3/4."""
    if k <= K_MIN:
        raise ValueError(f"k must exceed 3/4, got {k}")
    return (4.0 * k - 3.0) / (2.0 * math.pi**2)


def measure_density_at(p, mu: float):
    """Density mu / P^3 of the invariant measure, with P = p_at(w) (numbers or arrays)."""
    return mu / p**3


def weight_rho_at(z, w, p, params: ModelParams):
    """Weight L P^(2k) exp(-mu F) = L / K(zeta, zeta) on coordinates, with P = p_at(w)."""
    return normalization_constant(params.k) * np.exp(-potential_at(z, w, p, params))


def _beta_shape(k: float) -> float:
    """Shape of the Beta(1, b) proposal for s = r^2."""
    raw = 2.0 * k - 2.0
    if raw > 0.0:
        return raw
    return max(raw, _BETA_EPS) + 1.0


def _draw(params: ModelParams, rng: np.random.Generator,
          n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random variates of n points, in stream order: s = |w|^2, arg w, xi."""
    check_positive_mu(params.mu)
    b = _beta_shape(params.k)
    s = rng.beta(1.0, b, size=n)
    # keep strictly inside the guarded disk; redraw the (rare) tail hits
    while True:
        bad = s >= 1.0 - 1e-9
        if not bad.any():
            break
        s[bad] = rng.beta(1.0, b, size=int(bad.sum()))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xi = rng.standard_normal(size=(2, n))
    return s, theta, xi


def _transform(params: ModelParams, s: np.ndarray, theta: np.ndarray, xi: np.ndarray,
               z_inflation: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map drawn variates to (z, w, proposal density against Lebesgue).

    w = sqrt(s) e^(i theta) = u + i v.  The z proposal has covariance
    gamma [[1-u, -v], [-v, 1+u]] / (2 mu), whose Cholesky factor is
    sqrt(gamma / (2 mu)) [[t, 0], [-v / t, sqrt(P) / t]] with t = sqrt(1 - u),
    and (x, y) = L xi.  The quadratic form of the density is then
    (mu / (gamma P)) (x, y) [[1+u, v], [v, 1-u]] (x, y)^T = |xi|^2 / 2, so
    the joint proposal is b mu / (gamma pi^2) P^(b - 3/2) exp(-|xi|^2 / 2).

    ``z_inflation`` = gamma scales the covariance of the z proposal; 1 is
    the exact conditional of the target weight.  Values above 1 thicken the
    proposal tails, which tames the variance of high-moment integrands at
    the cost of a z-dependent importance weight.
    """
    mu, b, gamma = params.mu, _beta_shape(params.k), z_inflation
    r = np.sqrt(s)
    w = np.empty(s.shape, dtype=complex)
    u = np.cos(theta, out=w.real)
    u *= r
    v = np.sin(theta, out=w.imag)
    v *= r
    p = 1.0 - s
    t = np.sqrt(1.0 - u)
    scale = math.sqrt(gamma / (2.0 * mu))
    z = np.empty(s.shape, dtype=complex)
    x = np.multiply(t, xi[0], out=z.real)
    x *= scale
    y = np.sqrt(p)
    y *= xi[1]
    y -= v * xi[0]
    y *= scale / t
    z.imag = y
    q = np.exp(-0.5 * (xi[0] ** 2 + xi[1] ** 2))
    q *= p ** (b - 1.5)
    q *= b * mu / (gamma * math.pi**2)
    return z, w, q


def sample_point(params: ModelParams,
                 rng: np.random.Generator) -> tuple[JacobiPoint, float]:
    """One importance-sampled point and its proposal density."""
    z, w, q = _transform(params, *_draw(params, rng, 1), 1.0)
    return make_jacobi_point(complex(z[0]), complex(w[0])), float(q[0])


def _mc_weights(z: np.ndarray, w: np.ndarray, q: np.ndarray,
                params: ModelParams) -> np.ndarray:
    """Importance weights rho * (measure density) / proposal, vectorized."""
    p = p_at(w)
    return weight_rho_at(z, w, p, params) * measure_density_at(p, params.mu) / q


def _mc_blocks(params: ModelParams, cfg: McConfig, n_max: int, m_max: int,
               draw: int, z_inflation: float = 1.0):
    """Yield (flat, disk, weights) of :func:`basis_factors_at` block by block.

    The cfg.n_samples samples are drawn ``draw`` at a time from one stream
    seeded by cfg.seed; the samples depend on ``draw`` only, not on how
    they are processed.  Each draw's variates (32 B per sample) are held
    whole; they are mapped to points, weights and basis factors in blocks
    of ``_GRAM_BLOCK``, so nothing else grows with ``draw``.
    """
    rng = np.random.default_rng(cfg.seed)
    remaining = cfg.n_samples
    while remaining > 0:
        take = min(draw, remaining)
        s, theta, xi = _draw(params, rng, take)
        for lo in range(0, take, _GRAM_BLOCK):
            block = slice(lo, lo + _GRAM_BLOCK)
            z, w, q = _transform(params, s[block], theta[block], xi[:, block],
                                 z_inflation)
            flat, disk = basis_factors_at(z, w, params, n_max, m_max)
            yield flat, disk, _mc_weights(z, w, q, params)
        remaining -= take


def inner_product_mc(i1: BasisIndex, i2: BasisIndex, params: ModelParams,
                     cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of the weighted pairing of two basis functions.

    All cfg.n_samples samples come from one draw.
    """
    total, total_sq = 0j, 0.0
    for flat, disk, weights in _mc_blocks(params, cfg, max(i1.n, i2.n),
                                          max(i1.m, i2.m), cfg.n_samples):
        x = (np.conj(flat[i1.n] * disk[i1.m]) * (flat[i2.n] * disk[i2.m])) * weights
        total += complex(np.sum(x))
        total_sq += float(np.sum(x.real**2 + x.imag**2))
    mean = total / cfg.n_samples
    var = total_sq / cfg.n_samples - abs(mean) ** 2
    return McEstimate(mean, math.sqrt(max(var, 0.0) / cfg.n_samples))


def orthonormality_matrix_mc(n_max: int, m_max: int, params: ModelParams,
                             cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of all f[n, m] with n <= n_max, m <= m_max, on shared samples.

    Returns (estimates, standard errors), both square arrays over the index
    list in row-major (n, m) order.  Shared samples keep the whole matrix
    affordable at large sample counts.  Samples are drawn in chunks of
    ``_GRAM_DRAW`` and mapped and accumulated in blocks of ``_GRAM_BLOCK``,
    in order, hence reproducible for a fixed seed; working memory is one
    draw's variates (3.2 MB) and one block's factors and pair products,
    whatever the sample count.

    The accumulation follows the factorisation f[n, m] = A[n] B[m] of
    :func:`basis_factors_at`: the weighted sum of conj(f[n, m]) f[n', m'] is
    the product of the weighted flat pairs conj(A[n]) A[n'] (n <= n' only)
    with the disk pairs conj(B[m]) B[m'], one matmul per block; the second
    moments come from the pairs of |A|^2 and |B|^2 (both symmetric) the same
    way.  The full matrices are filled in by symmetry once, at the end.

    The z proposal is inflated by ``_GRAM_Z_INFLATION``: the flat-index-3
    entries carry twelfth moments of the conditional Gaussian, and sampling
    that Gaussian exactly leaves them a standard error a shade above 1e-2 at
    a million samples; a threefold covariance inflation brings the whole
    matrix comfortably under it.
    """
    n1, m1 = n_max + 1, m_max + 1
    n_pairs, m_pairs = n1 * (n1 + 1) // 2, m1 * (m1 + 1) // 2
    s1 = np.zeros((n_pairs, m1 * m1), dtype=complex)
    s2 = np.zeros((n_pairs, m_pairs))
    flat_pairs = np.empty((n_pairs, _GRAM_BLOCK), dtype=complex)
    disk_pairs = np.empty((m1 * m1, _GRAM_BLOCK), dtype=complex)
    flat_sq_pairs = np.empty((n_pairs, _GRAM_BLOCK))
    disk_sq_pairs = np.empty((m_pairs, _GRAM_BLOCK))
    for flat, disk, weights in _mc_blocks(params, cfg, n_max, m_max, _GRAM_DRAW,
                                          _GRAM_Z_INFLATION):
        size = weights.size
        weighted = np.conj(flat)
        weighted *= weights
        u = _pair_products(weighted, flat, flat_pairs[:, :size])
        v = disk_pairs[:, :size]
        np.multiply(np.conj(disk)[:, None], disk[None], out=v.reshape(m1, m1, size))
        s1 += u @ v.T
        flat_sq = flat.real**2 + flat.imag**2
        flat_sq *= weights
        disk_sq = disk.real**2 + disk.imag**2
        s2 += (_pair_products(flat_sq, flat_sq, flat_sq_pairs[:, :size])
               @ _pair_products(disk_sq, disk_sq, disk_sq_pairs[:, :size]).T)
    # entry [(n, m), (n', m')] sits at flat pair (n, n') and disk pair
    # (m, m') when n <= n'; otherwise it is the conjugate of the entry at
    # flat pair (n', n) and disk pair (m', m)
    n, m = np.divmod(np.arange(n1 * m1), m1)
    n, n_ = n[:, None], n[None, :]
    m, m_ = m[:, None], m[None, :]
    lower = n > n_
    rows = _pair_index(n1)[n, n_]
    s1 = s1[rows, np.where(lower, m_ * m1 + m, m * m1 + m_)]
    s1[lower] = np.conj(s1[lower])
    s2 = s2[rows, _pair_index(m1)[m, m_]]
    mean = s1 / cfg.n_samples
    var = s2 / cfg.n_samples - np.abs(mean) ** 2
    return mean, np.sqrt(np.maximum(var, 0.0) / cfg.n_samples)


def _pair_products(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows left[a] * right[b] for all a <= b, in row-major order, written to out."""
    row = 0
    for a in range(len(left)):
        np.multiply(left[a], right[a:], out=out[row:row + len(left) - a])
        row += len(left) - a
    return out


def _pair_index(n: int) -> np.ndarray:
    """Symmetric n x n map from (a, b) to the row of pair (min, max) in _pair_products."""
    lo, hi = np.triu_indices(n)
    index = np.empty((n, n), dtype=int)
    index[lo, hi] = index[hi, lo] = np.arange(lo.size)
    return index


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule, computed once, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def disk_inner_product_gl(k: float, m1: int, m2: int) -> complex:
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
    x, weights = _gauss_legendre(_GL_NODES)     # one rule for both polar axes
    r = 0.5 * (x + 1.0)             # map [-1, 1] -> [0, 1]
    wr = 0.5 * weights
    theta = math.pi * (x + 1.0)     # map [-1, 1] -> [0, 2 pi]
    wt = math.pi * weights
    radial = r ** (m1 + m2 + 1) * (1.0 - r**2) ** (two_k - 2.0)
    angular = np.exp(1j * (m2 - m1) * theta)
    total = float(np.sum(wr * radial)) * complex(np.sum(wt * angular))
    return (two_k - 1.0) / math.pi * coeff * total
