"""First-order differential operators realizing the five Lie generators.

The generators act on polynomials in (z, w) as monomial rewrite rules:

    a      = (1/sqrt(mu)) d/dz
    a+     = sqrt(mu) z + (w/sqrt(mu)) d/dz
    K-     = d/dw
    K0     = k + (z/2) d/dz + w d/dw
    K+     = (mu/2) z^2 + 2k w + z w d/dz + w^2 d/dw

Polynomials are closed under all five, so commutators can be evaluated
exactly and compared coefficient-wise against the structure constants of
the algebra (a Heisenberg pair extended by the su(1,1) triple).
``check_relations`` writes each generator once as a real matrix on the
monomials, built from the same rewrite rules, and measures a relation on
all monomials at once with two matrix products.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import ModelParams, check_positive_mu


class Generator(enum.Enum):
    A = "a"
    ADAG = "adag"
    K_MINUS = "k-"
    K_ZERO = "k0"
    K_PLUS = "k+"


class BiPolynomial:
    """Finite complex polynomial in (z, w), stored as {(deg_z, deg_w): coeff}.

    Zero coefficients are dropped eagerly so the representation is canonical
    up to floating rounding.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], complex] | None = None):
        self.coeffs: dict[tuple[int, int], complex] = {}
        if coeffs:
            for key, c in coeffs.items():
                if c != 0:
                    self.coeffs[key] = complex(c)

    @classmethod
    def zero(cls) -> "BiPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BiPolynomial":
        return cls({(0, 0): 1.0})

    @classmethod
    def monomial(cls, deg_z: int, deg_w: int, coeff: complex = 1.0) -> "BiPolynomial":
        if deg_z < 0 or deg_w < 0:
            raise ValueError("monomial degrees must be nonnegative")
        return cls({(deg_z, deg_w): coeff})

    def add_term(self, deg_z: int, deg_w: int, coeff: complex) -> None:
        key = (deg_z, deg_w)
        new = self.coeffs.get(key, 0.0) + coeff
        if new == 0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        out = BiPolynomial(dict(self.coeffs))
        for (i, j), c in other.coeffs.items():
            out.add_term(i, j, -c)
        return out

    def scaled(self, factor: complex) -> "BiPolynomial":
        return BiPolynomial({k: factor * c for k, c in self.coeffs.items()})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __call__(self, z: complex, w: complex) -> complex:
        return sum(c * z**i * w**j for (i, j), c in self.coeffs.items())


def max_coeff_deviation(p: BiPolynomial, q: BiPolynomial) -> float:
    """Largest absolute difference over the union of monomials of p and q."""
    keys = set(p.coeffs) | set(q.coeffs)
    return max((abs(p.coeffs.get(k, 0.0) - q.coeffs.get(k, 0.0)) for k in keys), default=0.0)


def _apply_monomial(g: Generator, i: int, j: int, params: ModelParams,
                    kplus_weight: float) -> list[tuple[int, int, complex]]:
    """Image of z^i w^j under one generator, as (deg_z, deg_w, coeff) terms."""
    k, mu = params.k, params.mu
    rmu = math.sqrt(mu)
    if g is Generator.A:
        return [(i - 1, j, i / rmu)] if i > 0 else []
    if g is Generator.ADAG:
        out = [(i + 1, j, rmu)]
        if i > 0:
            out.append((i - 1, j + 1, i / rmu))
        return out
    if g is Generator.K_MINUS:
        return [(i, j - 1, float(j))] if j > 0 else []
    if g is Generator.K_ZERO:
        return [(i, j, k + 0.5 * i + j)]
    if g is Generator.K_PLUS:
        return [(i + 2, j, 0.5 * mu), (i, j + 1, kplus_weight + i + j)]
    raise ValueError(f"unknown generator {g!r}")


def apply_generator(g: Generator, p: BiPolynomial, params: ModelParams) -> BiPolynomial:
    """Exact polynomial image of p under one generator."""
    check_positive_mu(params.mu)
    out = BiPolynomial()
    for (i, j), c in p.coeffs.items():
        for di, dj, factor in _apply_monomial(g, i, j, params, 2.0 * params.k):
            out.add_term(di, dj, c * factor)
    return out


def commutator(g1: Generator, g2: Generator, p: BiPolynomial,
               params: ModelParams) -> BiPolynomial:
    """(g1 g2 - g2 g1) applied to p, exactly."""
    forward = apply_generator(g1, apply_generator(g2, p, params), params)
    backward = apply_generator(g2, apply_generator(g1, p, params), params)
    return forward - backward


# The ten structure relations [g1, g2] = coeff * rhs: name, g1, g2, coeff,
# and rhs as a generator, or None for the identity.
_RELATIONS: list[tuple[str, Generator, Generator, float, Generator | None]] = [
    ("[a,a+]=1", Generator.A, Generator.ADAG, 1.0, None),
    ("[K0,K+]=K+", Generator.K_ZERO, Generator.K_PLUS, 1.0, Generator.K_PLUS),
    ("[K0,K-]=-K-", Generator.K_ZERO, Generator.K_MINUS, -1.0, Generator.K_MINUS),
    ("[K-,K+]=2K0", Generator.K_MINUS, Generator.K_PLUS, 2.0, Generator.K_ZERO),
    ("[a,K+]=a+", Generator.A, Generator.K_PLUS, 1.0, Generator.ADAG),
    ("[K-,a+]=a", Generator.K_MINUS, Generator.ADAG, 1.0, Generator.A),
    ("[K+,a+]=0", Generator.K_PLUS, Generator.ADAG, 0.0, None),
    ("[K-,a]=0", Generator.K_MINUS, Generator.A, 0.0, None),
    ("[K0,a+]=a+/2", Generator.K_ZERO, Generator.ADAG, 0.5, Generator.ADAG),
    ("[K0,a]=-a/2", Generator.K_ZERO, Generator.A, -0.5, Generator.A),
]


def _monomials(max_degree: int, extra: int) -> list[tuple[int, int]]:
    """(i, j) with i + j <= max_degree in column order, then degrees up to max_degree + extra."""
    low = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)]
    high = [(i, d - i) for d in range(max_degree + 1, max_degree + extra + 1)
            for i in range(d + 1)]
    return low + high


def _generator_matrix(g: Generator, monomials: list[tuple[int, int]],
                      params: ModelParams, kplus_weight: float) -> np.ndarray:
    """Real matrix of one generator on the span of ``monomials``, column per monomial.

    Terms that leave the span are dropped, so only columns whose images stay
    inside it are exact.
    """
    row_of = {mono: r for r, mono in enumerate(monomials)}
    out = np.zeros((len(monomials), len(monomials)))
    for col, (i, j) in enumerate(monomials):
        for di, dj, factor in _apply_monomial(g, i, j, params, kplus_weight):
            row = row_of.get((di, dj))
            if row is not None:
                out[row, col] += factor
    return out


def check_relations(max_degree: int, params: ModelParams,
                    kplus_perturbation: float = 0.0) -> np.ndarray:
    """Deviations of every structure relation on the monomials z^i w^j, i+j <= max_degree.

    Row r is relation r of ``_RELATIONS``, column c monomial c of ``_monomials``,
    and each entry the largest coefficient of lhs - rhs; judging them is the
    caller's.  ``kplus_perturbation`` shifts the 2k weight inside the raising
    operator, so negative controls can confirm a wrong operator shows.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    check_positive_mu(params.mu)
    # a product of two generators raises the degree by at most 4, so every
    # matrix below is exact on the columns it is applied to
    monomials = _monomials(max_degree, 4)
    n_checked = (max_degree + 1) * (max_degree + 2) // 2
    exact = {g: _generator_matrix(g, monomials, params, 2.0 * params.k)
             for g in Generator}
    ops = dict(exact)
    if kplus_perturbation:
        ops[Generator.K_PLUS] = _generator_matrix(Generator.K_PLUS, monomials, params,
                                                  2.0 * params.k + kplus_perturbation)
    identity = np.eye(len(monomials))
    devs = np.empty((len(_RELATIONS), n_checked))
    for row, (_, g1, g2, coeff, rhs_gen) in enumerate(_RELATIONS):
        # column c holds the coefficients of the image of monomial c
        lhs = ops[g1] @ ops[g2][:, :n_checked] - ops[g2] @ ops[g1][:, :n_checked]
        rhs = coeff * (identity if rhs_gen is None else exact[rhs_gen])[:, :n_checked]
        devs[row] = np.abs(lhs - rhs).max(axis=0)
    return devs
