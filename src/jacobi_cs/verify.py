"""Named verification suites behind the command-line `verify` command.

Each identity is measured by one check function: it takes explicit inputs
(points, group elements, parameters, a truncation, path settings) and
returns the worst deviation.  :data:`CHECKS` lists the checks in report
order with their identities and default tolerances, the one place either
is written.  A suite is one or more parts (the quadrature suite has three);
each part is a generator that draws its inputs from the configured seed
with :func:`random_points` and :func:`random_elements`, runs the checks and
yields (check, deviation) pairs, plus the tolerance where that depends on
the data.  :func:`_run_part` builds the records {check, identity,
deviation, tolerance, pass}, and a report aggregates suites in name order.
Each part seeds its own generators, so a report runs them on up to one
process per usable CPU (:func:`run_suites`).  The quadrature Gram part
takes longer than the others together, so when a report forks, its draws
are split in two shares: this process sums the leading one as it maps it
and adds the block products of the trailing one, mapped in the first
child, in block order, so the Gram is the one a single process makes, bit
for bit.  The other parts run in this process beside its share on two
CPUs, and in the further children with more.  The acceptance tests call
the same check functions on their own seeds and domains.  A configured
tolerance overrides the default of a check named in :data:`CHECKS`, which
shows how sensitive the finite-difference gates are; other names are refused.
"""

from __future__ import annotations

import math
import os
import pickle
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import algebra, bargmann, core, embedding, geodesics, geometry, group, kernels, quadrature
from .core import SUITE_NAMES  # noqa: F401  (re-exported; the keys of _SUITES)
from .core import (SETTINGS, JacobiPoint, ModelParams, TangentVector, check_setting,
                   hermitian_det, make_jacobi_point, p_at)
from .geometry import WirtingerStencil
from .kernels import BasisIndex, TruncationOrder

# The quadrature Gram part takes longer than the other nine parts together:
# in-process at seed 0 on a 2-vCPU Xeon VM, 0.37-0.45 s against 0.15-0.21 s.
# So when a report forks, this process maps the leading _GRAM_LEAD of the
# Gram's draws and the first child the rest.  The child also makes, and
# drops, the draws before its share, so the best split lies below one half:
# on two CPUs, where this process also runs the other parts, medians of 25
# whole reports read 0.390, 0.385, 0.383, 0.398 and 0.434 s with this
# process mapping 1/5, 3/10, 2/5, 1/2 and 3/5 of the draws.
_GRAM = ("quadrature", 1)
_GRAM_LEAD = 0.4
# the Gram covers f[n, m] with n, m <= _GRAM_LEVEL
_GRAM_LEVEL = 3
_GEODESIC_SPAN = 2.0
# the embedding and quadrature suites need a basis, so they run at this k
# whatever the configuration says
_BASIS_K = 1.25

# check name -> (identity, default tolerance), in report order.  A default
# of None is data-dependent: the suite part yields it with the deviation.
CHECKS: dict[str, tuple[str, float | None]] = {
    "commutation-relations": ("structure constants on monomials of degree <= 8", 1e-12),
    "lowest-weight": ("a 1 = 0, K- 1 = 0, K0 1 = k", 1e-12),
    "reproducing-identity": ("pairing the kernel with itself gives the flat kernel", 1e-9),
    "state-orthonormality": ("oscillator states are orthonormal under quadrature", 1e-10),
    "monomial-images": ("states map to normalized monomials", 1e-8),
    "projective-pairing":
        (f"normalized kernel equals the embedded pairing (k = {_BASIS_K})", 1e-8),
    "angle-vs-projective-distance":
        (f"kernel angle equals the projective distance (k = {_BASIS_K})", 1e-8),
    "projective-metric-pullback":
        (f"metric equals the Hessian of ln |embedding|^2 (k = {_BASIS_K})", 1e-5),
    "embedding-norm-convergence":
        (f"squared embedding norm converges to the diagonal kernel (k = {_BASIS_K})", 1e-8),
    "length-dominates-angle":
        (f"admissible curve length bounds the projective angle (k = {_BASIS_K})", 1e-9),
    "acceleration-two-routes": ("direct accelerations equal the connection contraction", 1e-12),
    "connection-defining-relation": ("sum_a h_(a e~) G^a_(bc) = d h_(b e~) / dz_c", 1e-6),
    "flat-limit-closed-form": ("integrated flat-limit paths match the tanh solution", 1e-8),
    "energy-conservation": ("speed is constant along integrated paths", 1e-8),
    "constant-eta-residual": ("the constant-eta family solves the geodesic system", 1e-9),
    "action-covariance": ("the action maps integrated paths to integrated paths", 1e-6),
    "metric-vs-potential": ("closed metric equals the potential Hessian", 1e-6),
    "determinant-closed-form": ("det h = 2 k mu / P^3", 1e-12),
    "scalar-curvature-constant": ("s = -3/(2k) everywhere", 1e-10),
    "ricci-closed-vs-fd": ("Ricci equals minus the Hessian of ln det h", 1e-6),
    "kahler-condition": ("d h_(a b~)/dz_c symmetric in (a, c)", 1e-6),
    "non-einstein-witness": ("Ric_zz = 0 while h_zz > 0 and Ric_ww < 0", 1e-12),
    "volume-density-ratio": ("volume density = 2 det h", 1e-12),
    "kernel-equivariance": ("K(act a, conj(act b)) lam(a) conj(lam(b)) = K(a, conj(b))", 1e-10),
    "berezin-invariance": ("b(act a, act b) = b(a, b)", 1e-10),
    "diastasis-invariance": ("D(act a, act b) = D(a, b)", 1e-10),
    "metric-invariance": ("pullback of the metric under the action is the metric", 1e-5),
    "split-coordinates-cross-term":
        ("two-form pullback through z = eta - w conj(eta) has no mixed term", 1e-10),
    "split-coordinates-blocks": ("two-form pullback blocks are (mu, 2k/P^2)", 1e-8),
    "split-form-invariance":
        ("the split form is preserved by the action in split coordinates", 1e-5),
    "split-roundtrip": ("forward and inverse coordinate change compose to the identity", 1e-12),
    "mobius-composition": ("fractional action composes with the matrix product", 1e-12),
    "split-action-consistency": ("the action commutes with the coordinate change", 1e-10),
    "hermitian-symmetry": ("K(a, conj(b)) = conj(K(b, conj(a)))", 1e-12),
    "diagonal-positivity": ("K(a, conj(a)) > 0", 1e-12),
    "series-vs-closed-form":
        ("basis expansion matches the closed kernel (quarter-shifted index)", 1e-8),
    "series-vs-closed-form-wide-mu": ("deeper expansion covers the wider flat-scale grid", 1e-8),
    "factorization-limits": ("kernel reduces to flat / disk factors on the axes", 1e-12),
    "normalized-kernel-bound": ("|normalized kernel| <= 1", 1e-12),
    "diastasis-two-routes": ("-ln b equals the split disk + flat form", 1e-10),
    "weight-kernel-product": (f"rho * K is the normalization constant (k = {_BASIS_K})", 1e-12),
    "unit-normalization": (f"mean importance weight is 1 (k = {_BASIS_K})", None),
    "orthonormality-matrix":
        (f"basis Gram matrix is the identity (units of standard error) (k = {_BASIS_K})", 3.0),
    "orthonormality-precision": (f"standard errors below 1e-2 (k = {_BASIS_K})", 1e-2),
    "disk-marginal": ("pure-disk pairings are orthonormal under exact quadrature (k = 1)", 1e-6),
}


@dataclass
class VerifyConfig:
    """A report's settings, checked when made: each against its bound in
    ``core.SETTINGS`` (which gives its default) as `verify` reads it, rk4_step
    against the geodesics suite's span, tolerance names against :data:`CHECKS`.
    The model parameters, truncation and stencil are built from them."""

    k: float = SETTINGS["k"].default
    mu: float = SETTINGS["mu"].default
    n_max: int = SETTINGS["n_max"].default
    m_max: int = SETTINGS["m_max"].default
    fd_step: float = SETTINGS["fd_step"].default
    rk4_step: float = SETTINGS["rk4_step"].default
    seed: int = SETTINGS["seed"].default
    mc_samples: int = SETTINGS["mc_samples"].default
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in SETTINGS:
            check_setting(name, getattr(self, name), "verify")
        # the geodesics suite integrates over t in [0, _GEODESIC_SPAN] at most
        geodesics.step_count(_GEODESIC_SPAN, self.rk4_step)
        unknown = [check for check in self.tolerances if check not in CHECKS]
        if unknown:
            raise ValueError(f"tolerances name unknown checks: {unknown}")
        self.params = ModelParams(self.k, self.mu)
        self.truncation = TruncationOrder(self.n_max, self.m_max)
        self.stencil = WirtingerStencil(self.fd_step)


def _record(cfg: VerifyConfig, check: str, deviation: float,
            tol: float | None = None) -> dict:
    """A check's record: a configured tolerance wins over ``tol``, ``tol`` over CHECKS."""
    identity, default = CHECKS[check]
    tol = cfg.tolerances.get(check, default if tol is None else tol)
    return {"check": check, "identity": identity,
            "deviation": float(deviation), "tolerance": tol,
            "pass": bool(deviation <= tol)}


def random_points(rng: np.random.Generator, n: int, z_scale: float = 1.0,
                  w_radius: float = 0.6) -> list[JacobiPoint]:
    """Points with |z| <= z_scale and |w| <= w_radius, area-uniform.

    Each point takes four uniform draws in turn: the radii of z and w,
    then their angles.
    """
    u = rng.uniform(size=(n, 4))
    z = z_scale * np.sqrt(u[:, 0]) * np.exp(1j * (2 * math.pi * u[:, 2]))
    w = w_radius * np.sqrt(u[:, 1]) * np.exp(1j * (2 * math.pi * u[:, 3]))
    return [make_jacobi_point(a, b) for a, b in zip(z.tolist(), w.tolist())]


def random_elements(rng: np.random.Generator, n: int,
                    rho_max: float = 0.8) -> list[group.JacobiGroupElement]:
    """Group elements with disk boost rho <= rho_max, Re and Im alpha and t in [-1, 1]."""
    out = []
    for _ in range(n):
        rho = rng.uniform(0, rho_max)
        phi, psi = rng.uniform(0, 2 * math.pi, 2)
        g = group.SU11Element(math.cosh(rho) * np.exp(1j * phi),
                              math.sinh(rho) * np.exp(1j * psi))
        alpha = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        out.append(group.JacobiGroupElement(g, alpha, rng.uniform(-1, 1)))
    return out


_PARAM_GRID = [ModelParams(k, mu) for k in (1.0, 1.5, 2.0) for mu in (0.5, 1.0, 2.0)]


def _zw(points) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays (z, w) of a sequence of points."""
    return np.array([pt.z for pt in points]), np.array([pt.w for pt in points])


# ---------------------------------------------------------------------------
# checks: each returns the worst deviation over its inputs
# ---------------------------------------------------------------------------

def commutation_deviation(grid) -> float:
    """Worst structure-constant deviation on monomials of degree <= 8 over a grid of params."""
    return max(algebra.check_relations(8, params).max() for params in grid)


def kernel_series_deviation(cases, trunc: TruncationOrder) -> float:
    """Worst relative gap of the truncated basis series from the closed kernel.

    Each case is (params, points), the first half of the points paired with the second.
    """
    dev = 0.0
    for params, pts in cases:
        half = len(pts) // 2
        closed = kernels.kernel_at(*_zw(pts[:half]), *_zw(pts[half:]), params)
        series = np.array([kernels.kernel_series(a, b, params, trunc)
                           for a, b in zip(pts[:half], pts[half:])])
        dev = max(dev, float(np.max(np.abs(closed - series) / np.abs(closed))))
    return dev


def metric_hessian_deviation(cases, stencil: WirtingerStencil) -> float:
    """Worst gap of the potential Hessian from the closed metric, relative to the
    largest coefficient at each point; each case is (params, points)."""
    dev = 0.0
    for params, pts in cases:
        z, w = _zw(pts)
        closed = np.array(geometry.metric_at(z, w, p_at(w), params))
        fd = np.array([(h.h_zz, h.h_zw, h.h_ww) for h in
                       (geometry.metric_fd(pt, params, stencil) for pt in pts)]).T
        dev = max(dev, float(np.max(np.max(np.abs(closed - fd), axis=0)
                                    / np.max(np.abs(closed), axis=0))))
    return dev


def scalar_curvature_deviation(cases) -> float:
    """Worst gap between the scalar curvature and -3/(2k); each case is (params, points)."""
    dev = 0.0
    for params, pts in cases:
        z, w = _zw(pts)
        p = p_at(w)
        s = geometry.scalar_curvature_at(*geometry.metric_at(z, w, p, params),
                                         geometry.ricci_at(p)[2])
        dev = max(dev, float(np.max(np.abs(s + 3.0 / (2.0 * params.k)))))
    return dev


def non_einstein_deviation(points, params: ModelParams) -> float:
    """Worst violation of Ric_zz = 0, h_zz > 0 and Ric_ww < 0; zero when all hold."""
    z, w = _zw(points)
    p = p_at(w)
    h_zz = geometry.metric_at(z, w, p, params)[0]
    r_zz, _, r_ww = geometry.ricci_at(p)
    return float(max(abs(r_zz), np.max(-h_zz, initial=0.0), np.max(r_ww, initial=0.0)))


def connection_deviation(points, params: ModelParams, stencil: WirtingerStencil) -> float:
    """Worst residual of sum_a h_(a e~) G^a_(bc) = d h_(b e~) / dz_c, differencing the metric.

    Only first derivatives enter, so a tenth of the Hessian step is both
    safe against roundoff and an order of magnitude more accurate.
    """
    dev = 0.0
    for pt in points:
        step = max(geometry.resolve_step(pt, stencil) * 0.1, 1e-6)
        d_z, d_w = geometry._wirtinger_grad(
            lambda q: geometry.metric_matrix(geometry.metric(q, params)), pt, step)
        g_zzz, g_wzz, g_zzw, g_wwz, g_zww, g_www = geodesics.christoffel(pt, params)
        gamma = np.array([[[g_zzz, g_zzw], [g_zzw, g_zww]],
                          [[g_wzz, g_wwz], [g_wwz, g_www]]])    # G^a_(bc)
        lhs = np.einsum("ae,abc->bce",
                        geometry.metric_matrix(geometry.metric(pt, params)), gamma)
        gap = np.abs(lhs - np.stack([d_z, d_w], axis=1))
        # (b, c) in (z, z), (z, w), (w, w); G is symmetric in b and c
        dev = max(dev, float(np.max(gap[[0, 0, 1], [0, 1, 1]])))
    return dev


def flat_limit_deviation(starts, flat: ModelParams, t_end: float, n_steps: int,
                         stride: int) -> float:
    """Worst gap of every ``stride``-th sample of integrated flat-limit paths from
    the tanh closed form; each start is (z0dot, z1, b) of ``mu_zero_solution``."""
    dev, solution = 0.0, geodesics.mu_zero_solution
    for start in starts:
        path = geodesics.integrate(solution(*start, 0.0), t_end, n_steps, flat)
        dev = max(dev, geodesics._closed_form_gap(path, stride, solution, *start))
    return dev


def constant_eta_deviation(params: ModelParams) -> float:
    """Worst geodesic-system residual of the constant-eta family eta = 1 + i, b = 0.7."""
    dev = 0.0
    speed = 0.7
    for t in np.arange(0.1, 2.0, 0.2):
        accel = geodesics.geodesic_rhs(
            geodesics.fc_particular_solution(1 + 1j, 0.7, float(t)), params)
        dw2 = -2.0 * speed * 0.7 * math.tanh(t * speed) / math.cosh(t * speed) ** 2
        dev = max(dev, abs(accel.dz - (-(1 - 1j) * dw2)), abs(accel.dw - dw2))
    return dev


def energy_drift(start: geodesics.GeodesicState, params: ModelParams, t_end: float,
                 n_steps: int) -> float:
    """Largest change of the metric speed along an integrated path."""
    speeds = geodesics.integrate(start, t_end, n_steps, params).speeds(params)
    return float(np.max(np.abs(speeds - speeds[0])))


def action_covariance_deviation(element: group.JacobiGroupElement,
                                start: geodesics.GeodesicState, params: ModelParams,
                                t_end: float, n_steps: int, stride: int) -> float:
    """Worst gap of the image of an integrated path from the path integrated from
    the image of its start, at every ``stride``-th sample."""
    path = geodesics.integrate(start, t_end, n_steps, params)
    mapped_start = geodesics.GeodesicState(
        group.jacobi_action(element, start.pos, params)[0],
        group.action_pushforward(element, start.pos, start.vel))
    mapped_path = geodesics.integrate(mapped_start, t_end, n_steps, params)
    dev = 0.0
    for (z, w), (zm, wm) in zip(path.y[::stride, :2].tolist(),
                                mapped_path.y[::stride, :2].tolist()):
        img, _ = group.jacobi_action(element, JacobiPoint(z, w), params)
        dev = max(dev, abs(img.z - zm), abs(img.w - wm))
    return dev


def group_invariance_deviation(elements, points1, points2,
                               params: ModelParams) -> tuple[float, float, float]:
    """Worst deviations of kernel equivariance (relative), Berezin and diastasis
    invariance, element i acting on the pair (points1[i], points2[i]) at its own t
    (the central phase cancels between lam(a) and conj(lam(b)))."""
    img1, lam1 = zip(*(group.jacobi_action(e, a, params) for e, a in zip(elements, points1)))
    img2, lam2 = zip(*(group.jacobi_action(e, b, params) for e, b in zip(elements, points2)))
    before = _zw(points1) + _zw(points2)
    after = _zw(img1) + _zw(img2)
    rhs = kernels.kernel_at(*before, params)
    lhs = kernels.kernel_at(*after, params) * np.array(lam1) * np.conj(lam2)
    berezin = kernels.berezin_at(*after, params) - kernels.berezin_at(*before, params)
    diastasis = kernels.diastasis_at(*after, params) - kernels.diastasis_at(*before, params)
    return (float(np.max(np.abs(lhs - rhs) / np.abs(rhs))),
            float(np.max(np.abs(berezin))), float(np.max(np.abs(diastasis))))


def metric_invariance_deviation(elements, points, params: ModelParams) -> float:
    """Worst entry of the pullback of the metric under element i at points[i],
    through the differenced real Jacobian, minus the metric."""
    dev = 0.0
    for e, p in zip(elements, points):
        def mapped(z: complex, w: complex) -> tuple[complex, complex]:
            pt, _ = group.jacobi_action(e, make_jacobi_point(z, w), params)
            return pt.z, pt.w

        target, _ = group.jacobi_action(e, p, params)
        jac = geometry.real_jacobian(mapped, p.z, p.w)
        pulled = geometry.pullback_real(
            geometry.hermitian_to_real(geometry.metric(target, params)), jac)
        source = geometry.hermitian_to_real(geometry.metric(p, params))
        dev = max(dev, float(np.max(np.abs(pulled - source))))
    return dev


def _split_forward(eta: complex, w: complex) -> tuple[complex, complex]:
    pt = group.fc_forward(eta, w)
    return pt.z, pt.w


def split_coordinates_deviation(points, params: ModelParams) -> tuple[float, float]:
    """Worst mixed term and worst relative gap from the blocks (mu, 2k/P^2) of the
    two-form pulled back through z = eta - w conj(eta) with the full real Jacobian."""
    cross = blocks = 0.0
    for pt in points:
        jac = geometry.real_jacobian(_split_forward, *group.fc_inverse(pt))
        pulled = geometry.pullback_real(
            geometry.hermitian_to_symplectic(geometry.metric(pt, params)), jac)
        h_ee, h_ew, h_ww, defect = geometry.symplectic_to_hermitian(pulled)
        disk = 2.0 * params.k / pt.p**2
        cross = max(cross, abs(h_ew), defect)
        blocks = max(blocks, abs(h_ee - params.mu) / params.mu, abs(h_ww - disk) / disk)
    return cross, blocks


def split_roundtrip_deviation(points) -> float:
    """Worst coordinate gap after the inverse and then the forward coordinate change."""
    dev = 0.0
    for pt in points:
        back = group.fc_forward(*group.fc_inverse(pt))
        dev = max(dev, abs(back.z - pt.z), abs(back.w - pt.w))
    return dev


def reproducing_deviation(zs, ws, hbars, rule: bargmann.QuadratureRule) -> float:
    """Worst quadrature gap of the reproducing identity over z in zs, w in ws, hbar in hbars."""
    return max(bargmann.reproducing_check(z, w, bargmann.HBarParams(hbar), rule)
               for hbar in hbars for z in zs for w in ws)


def state_orthonormality_deviation(n_max: int, hbar: float,
                                   rule: bargmann.QuadratureRule) -> float:
    """Worst quadrature gap of the pairings of states n, m <= n_max from the Kronecker delta."""
    p = bargmann.HBarParams(hbar)
    return max(abs(bargmann.hermite_overlap(n, m, p, rule) - (n == m))
               for n in range(n_max + 1) for m in range(n, n_max + 1))


def monomial_image_deviation(ns, zs, hbar: float, rule: bargmann.QuadratureRule) -> float:
    """Worst quadrature gap of the image identity for states n in ns at z in zs."""
    p = bargmann.HBarParams(hbar)
    return max(bargmann.bargmann_image_check(n, z, p, rule) for n in ns for z in zs)


def pairing_deviation(points1, points2, params: ModelParams,
                      trunc: TruncationOrder) -> tuple[float, float]:
    """Worst gaps of the projective pairing formula and of the kernel angle
    against the projective distance, over the pairs (points1[i], points2[i])."""
    cauchy = angle = 0.0
    for a, b in zip(points1, points2):
        cauchy = max(cauchy, embedding.cauchy_check(a, b, params, trunc))
        projective = embedding.cayley_distance(embedding.embed(a, params, trunc),
                                               embedding.embed(b, params, trunc))
        angle = max(angle, abs(embedding.cs_angle(a, b, params) - projective))
    return cauchy, angle


def embedding_norm_deviation(points, params: ModelParams, trunc: TruncationOrder) -> float:
    """Worst relative gap between the squared embedding norm and the diagonal kernel."""
    z, w = _zw(points)
    target = kernels.kernel_at(z, w, z, w, params).real
    norm_sq = np.array([embedding.embed(pt, params, trunc).norm() ** 2 for pt in points])
    return float(np.max(np.abs(norm_sq - target) / target))


def pullback_deviation(points, params: ModelParams, trunc: TruncationOrder,
                       stencil: WirtingerStencil) -> float:
    """Worst gap between the metric and the Hessian of ln |embedding|^2."""
    return max(embedding.fubini_study_pullback_check(pt, params, trunc, stencil)
               for pt in points)


def angle_bound_violation(points1, points2, params: ModelParams) -> float:
    """How far the length of the straight path from points1[i] to points2[i]
    falls below their projective angle; zero when it never does."""
    margin = min(embedding.distance_angle_inequality_check(
        a, b, params, geodesics.interpolation_path(a, b))
        for a, b in zip(points1, points2))
    return max(0.0, -margin)


def gram_deviation(gram: np.ndarray, se: np.ndarray) -> tuple[float, float]:
    """Largest gap of a Monte Carlo Gram matrix from the identity in units of
    its standard errors ``se``, and the largest standard error."""
    sigmas = np.abs(gram - np.eye(gram.shape[0])) / np.maximum(se, 1e-300)
    return float(np.max(sigmas)), float(np.max(se))


_DISK_PAIRS = [(m, m) for m in range(6)] + [(0, 1), (0, 2), (1, 3), (0, 5)]


def disk_marginal_deviation() -> float:
    """Worst gap of the pure-disk pairings at k = 1 from the Kronecker delta."""
    return max(abs(quadrature.disk_inner_product_gl(1.0, m1, m2) - (m1 == m2))
               for m1, m2 in _DISK_PAIRS)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(cfg: VerifyConfig) -> Iterator[tuple]:
    yield "commutation-relations", commutation_deviation(_PARAM_GRID)
    params = cfg.params
    one = algebra.BiPolynomial.one()
    yield "lowest-weight", max(
        algebra.apply_generator(algebra.Generator.A, one, params).max_abs(),
        algebra.apply_generator(algebra.Generator.K_MINUS, one, params).max_abs(),
        algebra.max_coeff_deviation(
            algebra.apply_generator(algebra.Generator.K_ZERO, one, params),
            one.scaled(params.k)),
    )


def suite_kernels(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params
    pts = random_points(rng, 60)
    z, w = _zw(pts)
    pairs = _zw(pts[::2]) + _zw(pts[1::2])
    swapped = pairs[2:] + pairs[:2]

    k12 = kernels.kernel_at(*pairs, params)
    k21 = kernels.kernel_at(*swapped, params)
    yield "hermitian-symmetry", np.max(np.abs(k12 - k21.conjugate())
                                       / np.maximum(1.0, np.abs(k12)))

    min_diag = float(np.min(kernels.kernel_at(z, w, z, w, params).real))
    yield "diagonal-positivity", max(0.0, -min_diag)

    # tail decay goes like (|w1||w2|)^(n/2) with an exp(mu |z|^2)-sized
    # prefactor: the default truncation carries 1e-8 on |w| <= 0.4 at
    # mu = 1; the wider grid needs the deeper expansion
    pts_inner = random_points(rng, 16, w_radius=0.4)
    yield "series-vs-closed-form", kernel_series_deviation(
        [(ModelParams(two_kp / 2.0 + 0.25, 1.0), pts_inner) for two_kp in (1, 2, 3, 4)],
        cfg.truncation)

    pts_wide = random_points(rng, 12, w_radius=0.45)
    yield "series-vs-closed-form-wide-mu", kernel_series_deviation(
        [(ModelParams(two_kp / 2.0 + 0.25, mu), pts_wide)
         for two_kp in (1, 4) for mu in (0.5, 2.0)], TruncationOrder(80, 80))

    dev = 0.0
    for p in pts[:20]:
        flat = make_jacobi_point(p.z, 0.0)
        dev = max(dev, abs(kernels.jacobi_kernel(flat, flat, params)
                           - kernels.heisenberg_kernel(p.z, p.z, params.mu)))
        disk = make_jacobi_point(0.0, p.w)
        dev = max(dev, abs(kernels.jacobi_kernel(disk, disk, params)
                           - kernels.disk_kernel(p.w, p.w, params.k)))
    yield "factorization-limits", dev

    over = np.max(np.abs(kernels.normalized_kernel_at(*pairs, params))) - 1.0
    yield "normalized-kernel-bound", max(0.0, over)

    split = [kernels.diastasis_split(a, b, params) for a, b in zip(pts[::2], pts[1::2])]
    yield "diastasis-two-routes", np.max(np.abs(kernels.diastasis_at(*pairs, params) - split))


def suite_geometry(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)

    yield "metric-vs-potential", metric_hessian_deviation(
        [(pr, random_points(rng, 20)) for pr in _PARAM_GRID], cfg.stencil)

    params = cfg.params
    pts = random_points(rng, 100)
    z, w = _zw(pts)
    p = p_at(w)
    det = hermitian_det(*geometry.metric_at(z, w, p, params))
    target = 2.0 * params.k * params.mu / p**3
    yield "determinant-closed-form", np.max(np.abs(det - target) / target)
    yield "scalar-curvature-constant", scalar_curvature_deviation(
        [(pr, pts[:25]) for pr in _PARAM_GRID])

    dev = 0.0
    for pt in pts[:10]:
        rc = geometry.ricci_at(pt.p)
        rf = geometry.ricci_fd(pt, params, cfg.stencil)
        dev = max(dev, *(abs(c - f) for c, f in zip(rc, rf)))
    yield "ricci-closed-vs-fd", dev
    yield "kahler-condition", max(geometry.kahler_condition_check(pt, params, cfg.stencil)
                                  for pt in pts[:10])
    yield "non-einstein-witness", non_einstein_deviation(pts[:25], params)

    ratio = geometry.volume_density_at(p[:25], params) / det[:25]
    yield "volume-density-ratio", np.max(np.abs(ratio - 2.0))


def suite_group(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params
    pts = random_points(rng, 40, z_scale=1.0, w_radius=0.5)
    elements = random_elements(rng, 20)

    dev_eq, dev_b, dev_d = group_invariance_deviation(elements, pts[::2], pts[1::2], params)
    yield "kernel-equivariance", dev_eq
    yield "berezin-invariance", dev_b
    yield "diastasis-invariance", dev_d
    yield "metric-invariance", metric_invariance_deviation(elements[:10], pts[:10], params)

    dev_cross, dev_diag = split_coordinates_deviation(pts[:20], params)
    yield "split-coordinates-cross-term", dev_cross
    yield "split-coordinates-blocks", dev_diag

    def split_form(w_disk: complex) -> np.ndarray:
        h = geometry.HermitianMetric2(
            params.mu, 0.0, 2.0 * params.k / (1.0 - abs(w_disk) ** 2) ** 2)
        return geometry.hermitian_to_symplectic(h)

    dev = 0.0
    for e, p in zip(elements[:10], pts[:10]):
        eta, w = group.fc_inverse(p)
        _, w1 = group.action_eta_coords(e, eta, w)
        jac = geometry.real_jacobian(
            lambda eta_x, w_x: group.action_eta_coords(e, eta_x, w_x), eta, w)
        pulled = geometry.pullback_real(split_form(w1), jac)
        dev = max(dev, float(np.max(np.abs(pulled - split_form(w)))))
    yield "split-form-invariance", dev
    yield "split-roundtrip", split_roundtrip_deviation(pts)

    dev = 0.0
    for e1, e2, p in zip(elements[::2], elements[1::2], pts[:10]):
        g12 = e1.g.compose(e2.g)
        stepwise = group.mobius(e1.g, group.mobius(e2.g, p.w))
        dev = max(dev, abs(group.mobius(g12, p.w) - stepwise),
                  abs(abs(g12.a) ** 2 - abs(g12.b) ** 2 - 1.0))
    yield "mobius-composition", dev

    dev = 0.0
    for e, p in zip(elements[:10], pts[:10]):
        direct, _ = group.jacobi_action(e, p, params)
        via_split = group.fc_forward(*group.action_eta_coords(e, *group.fc_inverse(p)))
        dev = max(dev, abs(direct.z - via_split.z), abs(direct.w - via_split.w))
    yield "split-action-consistency", dev


def suite_geodesics(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params
    pts = random_points(rng, 20, w_radius=0.5)

    dev = 0.0
    for p in pts:
        vel = TangentVector(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                            rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        state = geodesics.GeodesicState(p, vel)
        a1 = geodesics.geodesic_rhs(state, params)
        a2 = geodesics.christoffel_rhs(state, params)
        dev = max(dev, abs(a1.dz - a2.dz), abs(a1.dw - a2.dw))
    yield "acceleration-two-routes", dev
    yield "connection-defining-relation", connection_deviation(pts[:10], params, cfg.stencil)

    n_steps = geodesics.step_count(_GEODESIC_SPAN, cfg.rk4_step)
    yield "flat-limit-closed-form", flat_limit_deviation(
        [(0.5 - 0.2j, 0.3 + 0.1j, b) for b in (0.7, 0.4 + 0.3j)],
        ModelParams(params.k, 0.0), _GEODESIC_SPAN, n_steps, max(1, n_steps // 20))

    state = geodesics.GeodesicState(pts[0], TangentVector(0.4 + 0.2j, 0.2 - 0.1j))
    yield "energy-conservation", energy_drift(state, params, _GEODESIC_SPAN, n_steps)
    yield "constant-eta-residual", constant_eta_deviation(params)

    e = random_elements(rng, 1)[0]
    start = geodesics.GeodesicState(pts[1], TangentVector(0.3 + 0.1j, 0.15j))
    n_cov = geodesics.step_count(1.0, cfg.rk4_step)
    yield "action-covariance", action_covariance_deviation(
        e, start, params, 1.0, n_cov, max(1, n_cov // 10))


def suite_bargmann(cfg: VerifyConfig) -> Iterator[tuple]:
    rule = bargmann.QuadratureRule.gauss_hermite(96)
    grid = [complex(a, b) for a in (-1.5, -0.5, 0.5, 1.5)
            for b in (-1.0, 0.0, 1.0)]
    yield "reproducing-identity", reproducing_deviation(grid[:6], grid[6:], (0.5, 1.0, 2.0), rule)
    yield "state-orthonormality", state_orthonormality_deviation(10, 1.0, rule)
    yield "monomial-images", monomial_image_deviation(
        range(11), (0.5, 1.5, 1j, 1 + 1j, -0.7 + 0.9j), 1.0, rule)


def suite_embedding(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(_BASIS_K, cfg.mu)
    trunc = cfg.truncation
    pts = random_points(rng, 30, z_scale=1.0, w_radius=0.5)

    dev_pair, dev_angle = pairing_deviation(pts[::2], pts[1::2], params, trunc)
    yield "projective-pairing", dev_pair
    yield "angle-vs-projective-distance", dev_angle
    yield "projective-metric-pullback", pullback_deviation(pts[:4], params, trunc, cfg.stencil)
    yield "embedding-norm-convergence", embedding_norm_deviation(pts[:10], params, trunc)
    yield "length-dominates-angle", angle_bound_violation(pts[::2], pts[1::2], params)


def _quadrature_head(cfg: VerifyConfig) -> Iterator[tuple]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(_BASIS_K, cfg.mu)
    z, w = _zw(random_points(rng, 25))
    p = p_at(w)
    lam = quadrature.normalization_constant(params.k)
    product = (quadrature.weight_rho_at(z, w, p, params)
               * kernels.kernel_at(z, w, z, w, params).real)
    yield "weight-kernel-product", np.max(np.abs(product - lam) / lam)
    est = quadrature.inner_product_mc(     # on a tenth of the Gram's samples
        BasisIndex(0, 0), BasisIndex(0, 0), params,
        quadrature.McConfig(max(SETTINGS["mc_samples"].low, cfg.mc_samples // 10), cfg.seed))
    yield "unit-normalization", abs(est.value - 1.0), 3.0 * est.std_error


def _gram_products(cfg: VerifyConfig, draws: range) -> Iterator[tuple]:
    """The block products of the Gram part's draws ``draws``, in block order."""
    return quadrature._gram_products(_GRAM_LEVEL, _GRAM_LEVEL, ModelParams(_BASIS_K, cfg.mu),
                                     quadrature.McConfig(cfg.mc_samples, cfg.seed),
                                     draws.start, draws.stop)


def _quadrature_gram(cfg: VerifyConfig, products=None) -> Iterator[tuple]:
    """The Gram part, on the block products of every draw: given when made in
    shares (:func:`run_suites`), else made here, as one stream."""
    if products is None:
        products = _gram_products(cfg, quadrature._gram_draws(cfg.mc_samples))
    sigmas, se = gram_deviation(*quadrature._gram_sum(_GRAM_LEVEL, _GRAM_LEVEL,
                                                      cfg.mc_samples, products))
    yield "orthonormality-matrix", sigmas
    yield "orthonormality-precision", se


def _quadrature_tail(cfg: VerifyConfig) -> Iterator[tuple]:
    yield "disk-marginal", disk_marginal_deviation()


# Each suite's parts, whose records concatenate in this order to the suite's;
# each seeds its own generators, so the parts run in any order and process.
_SUITES = {
    "algebra": (suite_algebra,),
    "bargmann": (suite_bargmann,),
    "embedding": (suite_embedding,),
    "geodesics": (suite_geodesics,),
    "geometry": (suite_geometry,),
    "group": (suite_group,),
    "kernels": (suite_kernels,),
    "quadrature": (_quadrature_head, _quadrature_gram, _quadrature_tail),
}


def _run_part(unit: tuple, cfg: VerifyConfig, *args) -> list:
    """Records of the (check, deviation) pairs of one suite part, given as
    (suite name, index) and called with ``args`` after ``cfg``; or, given as
    (suite name, index, range of draws), the block products of that share
    of the Gram part's draws, summed from zero, as one stream sums them,
    when the share starts at the first draw.  numpy's floating-point
    warnings are off: an overflow shows as a deviation that is not finite,
    which the caller reports.  An OverflowError is raised again naming the
    suite.
    """
    name, index, *share = unit
    try:
        with np.errstate(all="ignore"):
            if share:
                products = _gram_products(cfg, *share)
                if share[0].start:
                    return list(products)
                return [quadrature._gram_fold(_GRAM_LEVEL, _GRAM_LEVEL, products)]
            return [_record(cfg, *pair) for pair in _SUITES[name][index](cfg, *args)]
    except OverflowError as exc:
        detail = exc.args[-1] if exc.args else "a value left the floating-point range"
        raise OverflowError(f"the {name} suite overflowed at these settings: "
                            f"{detail}") from exc


def _run_caught(unit: tuple, cfg: VerifyConfig, *args):
    """The result of :func:`_run_part`, or the error it raised."""
    try:
        return _run_part(unit, cfg, *args)
    except Exception as exc:
        return exc


def _replay(outcome):
    """An outcome of :func:`_run_caught`: raised if it is an error, else returned."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _label(unit: tuple) -> str:
    """A unit of :func:`_run_part` as a child's description names it."""
    name, index, *share = unit
    label = f"{name}[{index}]"
    return f"{label} draws {share[0].start}-{share[0].stop - 1}" if share else label


def run_suites(names: list[str], cfg: VerifyConfig) -> dict:
    """Run the requested suites and aggregate their records in name order.

    The unit of work is a suite part, and every report runs through
    :func:`core._fork_jobs`, on forked children up to one per usable CPU in
    all but this one.  When the quadrature Gram part is among the parts, its
    draws split in two shares: this process maps the leading _GRAM_LEAD of
    them and the first child the rest.  The other parts run in this process
    when that child is the only one, and are dealt round-robin, in report
    order, to the further children otherwise.  Without the Gram, this
    process runs the first part and the children the rest, dealt the same
    way.  With no child (one usable CPU, one part, no ``os.fork``) it runs
    every part in (suite name, part) order up to the first that raises.
    Outcomes replay in that order, the Gram part's shares first, and each
    part seeds its own generators: report and error are those of a
    one-by-one run.
    """
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; "
                         f"choose from {sorted(_SUITES)}")
    suites = {name: [] for name in sorted(set(names))}
    parts = [(name, index) for name in suites for index in range(len(_SUITES[name]))]
    workers = min(len(parts), core.usable_cpus()) - 1 if hasattr(os, "fork") else 0
    mine, hands, shares = parts, [], []
    if workers and _GRAM in parts:
        draws = quadrature._gram_draws(cfg.mc_samples)
        split = round(_GRAM_LEAD * len(draws))
        shares = [(*_GRAM, draws[:split]), (*_GRAM, draws[split:])]
        lead, trail = shares
        rest, further = [part for part in parts if part != _GRAM], workers - 1
        # in report order, the leading share in the Gram's place
        mine = [lead] if further else [lead if part == _GRAM else part for part in parts]
        hands = [[trail]] + [rest[i::further] for i in range(further)]
    elif workers:
        mine, hands = parts[:1], [parts[i::workers] for i in range(1, workers + 1)]
    outcomes = {}

    def here():
        for unit in mine:
            outcomes[unit] = _run_caught(unit, cfg)
            if isinstance(outcomes[unit], Exception):
                break       # the units after it in report order are not needed

    core._fork_jobs(
        here,
        [("running " + ", ".join(map(_label, hand)),
          lambda file, hand=hand: pickle.dump({u: _run_caught(u, cfg) for u in hand}, file))
         for hand in hands],
        lambda file: outcomes.update(pickle.load(file)))
    # an error surfaces as a run in part order raises it
    for part in parts:
        if part == _GRAM and shares:
            products = [block for share in shares for block in _replay(outcomes[share])]
            outcomes[part] = _run_caught(part, cfg, products)
        suites[part[0]] += _replay(outcomes[part])
    all_pass = all(rec["pass"] for recs in suites.values() for rec in recs)
    return {"suites": suites, "pass": all_pass}
