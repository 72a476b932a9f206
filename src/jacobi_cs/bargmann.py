"""Gaussian transform kernel between the line and the holomorphic model.

The kernel is

    B(z, q) = (pi hbar)^(-1/4) exp((sqrt(2) q z - (z^2 + q^2)/2) / hbar),

and pairing it with itself over the line reproduces the flat kernel
exp(z conj(w) / hbar); pairing it with the n-th oscillator state returns
the monomial (z / sqrt(hbar))^n / sqrt(n!).  Both identities are checked
by Gauss-Hermite quadrature.

Quadrature nodes are generated for the weight exp(-u^2) and applied after
the substitution q = u sqrt(hbar); the Gaussian factors of the integrands
are absorbed into the weight analytically, so only the entire residual is
approximated and no exp(+u^2) compensation ever gets evaluated (that would
overflow at 96 nodes).

The ground state is normalized to unit L2 norm, which forces the
(pi hbar)^(-1/4) prefactor; the quadrature tests confirm that no other
prefactor satisfies both the norm and the n = 0 image identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class HBarParams:
    """Scale hbar > 0; the flat-kernel parameter it induces is mu = 1/hbar."""

    hbar: float

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def mu(self) -> float:
        return 1.0 / self.hbar


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for the weight function exp(-u^2)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @classmethod
    def gauss_hermite(cls, n: int) -> "QuadratureRule":
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        return cls(tuple(nodes), tuple(weights))

    def __len__(self) -> int:
        return len(self.nodes)


def _reduced_exponent(z, q, hbar: float):
    """(sqrt2 q z - z^2/2) / hbar: the exponent of B(z, q) without its -q^2/(2 hbar).

    The Gaussian remainder of every integrand is the quadrature weight
    after q = u sqrt(hbar), so the checks below need only this part.
    """
    return (math.sqrt(2.0) * q * z - 0.5 * z * z) / hbar


def _scaled_nodes(rule: QuadratureRule, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes q = u sqrt(hbar) and weights of ``rule``."""
    return np.asarray(rule.nodes) * math.sqrt(hbar), np.asarray(rule.weights)


def bargmann_kernel(z: complex, q: float, p: HBarParams) -> complex:
    """Transform kernel B(z, q)."""
    h = p.hbar
    return (math.pi * h) ** -0.25 * cmath.exp(_reduced_exponent(z, q, h) - 0.5 * q * q / h)


def reproducing_check(z: complex, w: complex, p: HBarParams,
                      rule: QuadratureRule) -> float:
    """|quadrature of B(z, q) B(conj(w), q) dq  -  exp(z conj(w)/hbar)|."""
    if len(rule) < 32:
        raise ValueError("rule needs at least 32 nodes")
    h = p.hbar
    q, wts = _scaled_nodes(rule, h)
    # the two -q^2/(2 hbar) terms make the weight exp(-u^2)
    residual = np.exp(_reduced_exponent(z, q, h) + _reduced_exponent(w.conjugate(), q, h))
    integral = math.sqrt(h) / math.sqrt(math.pi * h) * np.sum(wts * residual)
    return abs(integral - cmath.exp(z * w.conjugate() / h))


@lru_cache(maxsize=256)
def _state_poly_coeffs(n: int, hbar: float) -> tuple[float, ...]:
    """Coefficients of the polynomial part of the n-th oscillator state.

    state_n(q) = poly_n(q) exp(-q^2 / (2 hbar)), built from
    poly_0 = (pi hbar)^(-1/4) by the raising recurrence
    poly_(n+1) = (2 q poly_n - hbar poly_n') / (sqrt(2 hbar) sqrt(n+1)).
    """
    coeffs = np.zeros(n + 1)
    coeffs[0] = (math.pi * hbar) ** -0.25
    lam = 1.0 / math.sqrt(2.0 * hbar)
    for level in range(n):
        nxt = np.zeros(n + 1)
        nxt[1:level + 2] += 2.0 * coeffs[:level + 1]          # 2 q poly
        nxt[:level] -= hbar * coeffs[1:level + 1] * np.arange(1, level + 1)
        coeffs = lam * nxt / math.sqrt(level + 1.0)
    return tuple(coeffs)


def _state_poly(n: int, q, hbar: float):
    """poly_n(q), the n-th state without its Gaussian factor (numbers or arrays)."""
    return np.polynomial.polynomial.polyval(q, _state_poly_coeffs(n, hbar))


def hermite_state(n: int, q: float, p: HBarParams) -> float:
    """Value of the unit-norm n-th oscillator state at q."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return float(_state_poly(n, q, p.hbar)) * math.exp(-q * q / (2.0 * p.hbar))


def hermite_overlap(n: int, m: int, p: HBarParams, rule: QuadratureRule) -> float:
    """Quadrature value of the L2 pairing of states n and m."""
    h = p.hbar
    q, wts = _scaled_nodes(rule, h)
    # the two exp(-q^2/(2 hbar)) factors combine to exactly the weight
    return float(math.sqrt(h) * np.sum(wts * _state_poly(n, q, h) * _state_poly(m, q, h)))


def bargmann_image_check(n: int, z: complex, p: HBarParams,
                         rule: QuadratureRule) -> float:
    """|quadrature of B(z, q) state_n(q) dq  -  (z/sqrt(hbar))^n / sqrt(n!)|."""
    if n > 20:
        raise ValueError("images above n = 20 lose too much precision")
    h = p.hbar
    q, wts = _scaled_nodes(rule, h)
    # B and the state each contribute half of the Gaussian weight
    residual = np.exp(_reduced_exponent(z, q, h)) * _state_poly(n, q, h)
    integral = (math.pi * h) ** -0.25 * math.sqrt(h) * np.sum(wts * residual)
    expected = (z / math.sqrt(h)) ** n / math.sqrt(math.gamma(n + 1.0))
    return abs(integral - expected)
