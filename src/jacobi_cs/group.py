"""Group actions on the disk and the product space, and the eta transform.

An SU(1,1) element is stored by the top row (a, b) of the matrix
[[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1; it acts on the disk by
the fractional transformation w -> (a w + b) / (conj(b) w + conj(a)).  A
full group element adds a translation parameter alpha and a central phase
parameter t.  The point action on (z, w) is

    gamma = z + alpha - conj(alpha) w,     delta = conj(b) w + conj(a),
    z1 = gamma / delta,                    w1 = (a w + b) / delta,

with scalar multiplier

    lambda = delta^(-2k) * exp(-mu (conj(alpha)(z + gamma)
             + conj(b) gamma^2 / delta) / 2) * exp(i mu t).

The coordinate change z = eta - w conj(eta) (forward) and
eta = (z + conj(z) w) / (1 - w conj(w)) (inverse) splits the metric into a
flat eta block and a pure disk block.  The change is a diffeomorphism but
not holomorphic in eta, so metric pullbacks through it must use the full
real Jacobian; that is the one numerical subtlety in this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    JacobiPoint,
    ModelParams,
    TangentVector,
    check_disk,
    eta_of,
    make_jacobi_point,
)

_DET_TOL = 1e-12


@dataclass(frozen=True)
class SU11Element:
    """Matrix [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"|a|^2 - |b|^2 = {det!r} is not 1")

    @classmethod
    def identity(cls) -> "SU11Element":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    def compose(self, other: "SU11Element") -> "SU11Element":
        """Matrix product self * other."""
        return SU11Element(
            a=self.a * other.a + self.b * other.b.conjugate(),
            b=self.a * other.b + self.b * other.a.conjugate(),
        )


@dataclass(frozen=True)
class JacobiGroupElement:
    """Disk part g, translation alpha, and central phase parameter t."""

    g: SU11Element
    alpha: complex
    t: float = 0.0

    @classmethod
    def identity(cls) -> "JacobiGroupElement":
        return cls(SU11Element.identity(), 0.0 + 0.0j, 0.0)


def mobius(g: SU11Element, w: complex) -> complex:
    """Fractional transformation (a w + b) / (conj(b) w + conj(a)) on the disk."""
    check_disk(w)
    result = (g.a * w + g.b) / (g.b.conjugate() * w + g.a.conjugate())
    return check_disk(result)


def jacobi_action(e: JacobiGroupElement, zeta: JacobiPoint,
                  params: ModelParams) -> tuple[JacobiPoint, complex]:
    """Transformed point and scalar multiplier of the coherent-state family.

    The multiplier includes the central phase exp(i mu t); modulus-level
    identities are independent of t.
    """
    a, b, alpha = e.g.a, e.g.b, e.alpha
    z, w = zeta.z, zeta.w
    delta = b.conjugate() * w + a.conjugate()
    if abs(delta) <= 1e-12:
        raise ZeroDivisionError("degenerate denominator in the point action")
    gamma = z + alpha - alpha.conjugate() * w
    z1 = gamma / delta
    w1 = (a * w + b) / delta
    lam_exponent = (-2.0 * params.k * cmath.log(delta)
                    - 0.5 * params.mu * (alpha.conjugate() * (z + gamma)
                                         + b.conjugate() * gamma * gamma / delta)
                    + 1j * params.mu * e.t)
    return make_jacobi_point(z1, w1), cmath.exp(lam_exponent)


def action_pushforward(e: JacobiGroupElement, zeta: JacobiPoint,
                       v: TangentVector) -> TangentVector:
    """Image of a tangent vector under the (holomorphic) point action."""
    a, b, alpha = e.g.a, e.g.b, e.alpha
    z, w = zeta.z, zeta.w
    delta = b.conjugate() * w + a.conjugate()
    gamma = z + alpha - alpha.conjugate() * w
    dz1_dz = 1.0 / delta
    dz1_dw = (-alpha.conjugate() * delta - gamma * b.conjugate()) / delta**2
    dw1_dw = 1.0 / delta**2
    return TangentVector(
        dz=dz1_dz * v.dz + dz1_dw * v.dw,
        dw=dw1_dw * v.dw,
    )


def fc_forward(eta: complex, w: complex) -> JacobiPoint:
    """Coordinate change (eta, w) -> (z, w) with z = eta - w conj(eta)."""
    check_disk(w)
    return make_jacobi_point(eta - w * eta.conjugate(), w)


def fc_inverse(zeta: JacobiPoint) -> tuple[complex, complex]:
    """Inverse change of :func:`fc_forward`: recovers (eta, w)."""
    return eta_of(zeta), zeta.w


def action_eta_coords(e: JacobiGroupElement, eta: complex,
                      w: complex) -> tuple[complex, complex]:
    """Group action written in the split coordinates (eta, w)."""
    a, b, alpha = e.g.a, e.g.b, e.alpha
    eta1 = a * (eta + alpha) + b * (eta.conjugate() + alpha.conjugate())
    return eta1, mobius(e.g, w)


def disk_geodesic_map(z: complex, t: float) -> complex:
    """Disk geodesic through the origin: w = (z/|z|) tanh(t |z|), 0 for z = 0."""
    r = abs(z)
    if r == 0.0:
        return 0.0 + 0.0j
    w = (z / r) * math.tanh(t * r)
    return check_disk(w)
