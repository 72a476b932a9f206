"""Named verification suites behind the command-line `verify` command.

Each identity is measured by one check function: it takes explicit inputs
(points, group elements, parameters, a truncation, path settings) and
returns the worst deviation.  A suite draws its inputs from the configured
seed with :func:`random_points` and :func:`random_elements`, runs the checks
and returns a list of records {check, identity, deviation, tolerance, pass};
a report aggregates suites in name order.  A suite is one or more parts
(the quadrature suite has three) that seed their own generators, so a
report runs the parts on up to one process per usable CPU
(:func:`run_suites`).
The acceptance tests call the same check functions on their own seeds and
domains.  Tolerances can be overridden per check name through the
configuration, which is how the sensitivity of the finite-difference gates
can be demonstrated from the command line.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import algebra, bargmann, core, embedding, geodesics, geometry, group, kernels, quadrature
from .core import SUITE_NAMES  # noqa: F401  (re-exported; the keys of _SUITES)
from .core import JacobiPoint, ModelParams, TangentVector, hermitian_det, make_jacobi_point, p_at
from .geometry import WirtingerStencil
from .kernels import BasisIndex, TruncationOrder

# Suite parts, as (suite name, index into its tuple in _SUITES), by run time
# at the default settings, longest first (medians of seven in-process runs at
# seed 0 on a 2-vCPU Xeon VM): the quadrature Gram part 0.45 s, geodesics
# 75 ms, the quadrature tail 62 ms and head 31 ms, each other suite 4-20 ms.
_LONGEST_FIRST = (("quadrature", 1), ("geodesics", 0), ("quadrature", 2),
                  ("quadrature", 0), ("geometry", 0), ("algebra", 0),
                  ("embedding", 0), ("kernels", 0), ("bargmann", 0), ("group", 0))
_GEODESIC_SPAN = 2.0
# the embedding and quadrature suites need a basis, so they run at this k
# whatever the configuration says
_BASIS_K = 1.25
_AT_BASIS_K = f" (k = {_BASIS_K})"
# The quadrature suite's inner products draw mc_samples / 10 samples in one
# array, 32 B each: 0.32 GB at this limit.  The floor is McConfig's.
MIN_MC_SAMPLES = 1000
MAX_MC_SAMPLES = 10**8


@dataclass
class VerifyConfig:
    k: float = 1.0
    mu: float = 1.0
    truncation: TruncationOrder = field(default_factory=lambda: TruncationOrder(40, 40))
    fd_step: float = 1e-4
    rk4_step: float = 1e-3
    seed: int = 0
    mc_samples: int = 1_000_000
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # the geodesics suite integrates over t in [0, _GEODESIC_SPAN] at most
        geodesics.step_count(_GEODESIC_SPAN, self.rk4_step)
        if not MIN_MC_SAMPLES <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples must be between {MIN_MC_SAMPLES} and "
                             f"{MAX_MC_SAMPLES}, got {self.mc_samples}")

    def tol(self, check: str, default: float) -> float:
        return self.tolerances.get(check, default)

    def stencil(self) -> WirtingerStencil:
        return WirtingerStencil(step=self.fd_step)

    def params(self) -> ModelParams:
        return ModelParams(self.k, self.mu)


def _record(cfg: VerifyConfig, check: str, identity: str, deviation: float,
            default_tol: float) -> dict:
    tol = cfg.tol(check, default_tol)
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
    return max(algebra.check_relations(8, params).max_deviation for params in grid)


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
    dev = 0.0
    for z0dot, z1, b in starts:
        path = geodesics.integrate(geodesics.mu_zero_solution(z0dot, z1, b, 0.0),
                                   t_end, n_steps, flat)
        for t, (z, w) in zip(path.t[::stride].tolist(), path.y[::stride, :2].tolist()):
            ref = geodesics.mu_zero_solution(z0dot, z1, b, t)
            dev = max(dev, abs(z - ref.pos.z), abs(w - ref.pos.w))
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


def gram_deviation(params: ModelParams, mc: quadrature.McConfig) -> tuple[float, float]:
    """Largest gap of the Monte Carlo Gram matrix (levels <= 3) from the
    identity in standard errors, and the largest standard error."""
    gram, se = quadrature.orthonormality_matrix_mc(3, 3, params, mc)
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

def suite_algebra(cfg: VerifyConfig) -> list[dict]:
    records = [_record(cfg, "commutation-relations",
                       "structure constants on monomials of degree <= 8",
                       commutation_deviation(_PARAM_GRID), 1e-12)]
    params = cfg.params()
    one = algebra.BiPolynomial.one()
    lowest = max(
        algebra.apply_generator(algebra.Generator.A, one, params).max_abs(),
        algebra.apply_generator(algebra.Generator.K_MINUS, one, params).max_abs(),
        algebra.max_coeff_deviation(
            algebra.apply_generator(algebra.Generator.K_ZERO, one, params),
            one.scaled(params.k)),
    )
    records.append(_record(cfg, "lowest-weight",
                           "a 1 = 0, K- 1 = 0, K0 1 = k", lowest, 1e-12))
    return records


def suite_kernels(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    records = []
    params = cfg.params()
    pts = random_points(rng, 60)
    z, w = _zw(pts)
    pairs = _zw(pts[::2]) + _zw(pts[1::2])
    swapped = pairs[2:] + pairs[:2]

    k12 = kernels.kernel_at(*pairs, params)
    k21 = kernels.kernel_at(*swapped, params)
    dev = np.max(np.abs(k12 - k21.conjugate()) / np.maximum(1.0, np.abs(k12)))
    records.append(_record(cfg, "hermitian-symmetry",
                           "K(a, conj(b)) = conj(K(b, conj(a)))", dev, 1e-12))

    min_diag = float(np.min(kernels.kernel_at(z, w, z, w, params).real))
    records.append(_record(cfg, "diagonal-positivity",
                           "K(a, conj(a)) > 0", max(0.0, -min_diag), 1e-12))

    # tail decay goes like (|w1||w2|)^(n/2) with an exp(mu |z|^2)-sized
    # prefactor: the default truncation carries 1e-8 on |w| <= 0.4 at
    # mu = 1; the wider grid needs the deeper expansion
    pts_inner = random_points(rng, 16, w_radius=0.4)
    dev = kernel_series_deviation(
        [(ModelParams(two_kp / 2.0 + 0.25, 1.0), pts_inner) for two_kp in (1, 2, 3, 4)],
        cfg.truncation)
    records.append(_record(cfg, "series-vs-closed-form",
                           "basis expansion matches the closed kernel "
                           "(quarter-shifted index)", dev, 1e-8))

    pts_wide = random_points(rng, 12, w_radius=0.45)
    dev = kernel_series_deviation(
        [(ModelParams(two_kp / 2.0 + 0.25, mu), pts_wide)
         for two_kp in (1, 4) for mu in (0.5, 2.0)], TruncationOrder(80, 80))
    records.append(_record(cfg, "series-vs-closed-form-wide-mu",
                           "deeper expansion covers the wider flat-scale "
                           "grid", dev, 1e-8))

    dev = 0.0
    for p in pts[:20]:
        flat = make_jacobi_point(p.z, 0.0)
        dev = max(dev, abs(kernels.jacobi_kernel(flat, flat, params)
                           - kernels.heisenberg_kernel(p.z, p.z, params.mu)))
        disk = make_jacobi_point(0.0, p.w)
        dev = max(dev, abs(kernels.jacobi_kernel(disk, disk, params)
                           - kernels.disk_kernel(p.w, p.w, params.k)))
    records.append(_record(cfg, "factorization-limits",
                           "kernel reduces to flat / disk factors on the axes",
                           dev, 1e-12))

    over = np.max(np.abs(kernels.normalized_kernel_at(*pairs, params))) - 1.0
    records.append(_record(cfg, "normalized-kernel-bound",
                           "|normalized kernel| <= 1", max(0.0, over), 1e-12))

    split = [kernels.diastasis_split(a, b, params) for a, b in zip(pts[::2], pts[1::2])]
    dev = np.max(np.abs(kernels.diastasis_at(*pairs, params) - split))
    records.append(_record(cfg, "diastasis-two-routes",
                           "-ln b equals the split disk + flat form", dev, 1e-10))
    return records


def suite_geometry(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    stencil = cfg.stencil()

    dev = metric_hessian_deviation([(pr, random_points(rng, 20)) for pr in _PARAM_GRID],
                                   stencil)
    records = [_record(cfg, "metric-vs-potential",
                       "closed metric equals the potential Hessian", dev, 1e-6)]

    params = cfg.params()
    pts = random_points(rng, 100)
    z, w = _zw(pts)
    p = p_at(w)
    det = hermitian_det(*geometry.metric_at(z, w, p, params))
    target = 2.0 * params.k * params.mu / p**3
    records.append(_record(cfg, "determinant-closed-form",
                           "det h = 2 k mu / P^3",
                           np.max(np.abs(det - target) / target), 1e-12))

    dev = scalar_curvature_deviation([(pr, pts[:25]) for pr in _PARAM_GRID])
    records.append(_record(cfg, "scalar-curvature-constant",
                           "s = -3/(2k) everywhere", dev, 1e-10))

    dev = 0.0
    for pt in pts[:10]:
        rc = geometry.ricci_at(pt.p)
        rf = geometry.ricci_fd(pt, params, stencil)
        dev = max(dev, *(abs(c - f) for c, f in zip(rc, rf)))
    records.append(_record(cfg, "ricci-closed-vs-fd",
                           "Ricci equals minus the Hessian of ln det h", dev, 1e-6))

    dev = max(geometry.kahler_condition_check(pt, params, stencil)
              for pt in pts[:10])
    records.append(_record(cfg, "kahler-condition",
                           "d h_(a b~)/dz_c symmetric in (a, c)", dev, 1e-6))

    records.append(_record(cfg, "non-einstein-witness",
                           "Ric_zz = 0 while h_zz > 0 and Ric_ww < 0",
                           non_einstein_deviation(pts[:25], params), 1e-12))

    ratio = geometry.volume_density_at(p[:25], params) / det[:25]
    records.append(_record(cfg, "volume-density-ratio",
                           "volume density = 2 det h", np.max(np.abs(ratio - 2.0)), 1e-12))
    return records


def suite_group(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params()
    pts = random_points(rng, 40, z_scale=1.0, w_radius=0.5)
    elements = random_elements(rng, 20)

    dev_eq, dev_b, dev_d = group_invariance_deviation(elements, pts[::2], pts[1::2], params)
    records = [_record(cfg, "kernel-equivariance",
                       "K(act a, conj(act b)) lam(a) conj(lam(b)) = K(a, conj(b))",
                       dev_eq, 1e-10)]
    records.append(_record(cfg, "berezin-invariance",
                           "b(act a, act b) = b(a, b)", dev_b, 1e-10))
    records.append(_record(cfg, "diastasis-invariance",
                           "D(act a, act b) = D(a, b)", dev_d, 1e-10))

    records.append(_record(cfg, "metric-invariance",
                           "pullback of the metric under the action is the metric",
                           metric_invariance_deviation(elements[:10], pts[:10], params),
                           1e-5))

    dev_cross, dev_diag = split_coordinates_deviation(pts[:20], params)
    records.append(_record(cfg, "split-coordinates-cross-term",
                           "two-form pullback through z = eta - w conj(eta) "
                           "has no mixed term", dev_cross, 1e-10))
    records.append(_record(cfg, "split-coordinates-blocks",
                           "two-form pullback blocks are (mu, 2k/P^2)",
                           dev_diag, 1e-8))

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
    records.append(_record(cfg, "split-form-invariance",
                           "the split form is preserved by the action in "
                           "split coordinates", dev, 1e-5))

    records.append(_record(cfg, "split-roundtrip",
                           "forward and inverse coordinate change compose to "
                           "the identity", split_roundtrip_deviation(pts), 1e-12))

    dev = 0.0
    for e1, e2, p in zip(elements[::2], elements[1::2], pts[:10]):
        g12 = e1.g.compose(e2.g)
        stepwise = group.mobius(e1.g, group.mobius(e2.g, p.w))
        dev = max(dev, abs(group.mobius(g12, p.w) - stepwise),
                  abs(abs(g12.a) ** 2 - abs(g12.b) ** 2 - 1.0))
    records.append(_record(cfg, "mobius-composition",
                           "fractional action composes with the matrix product",
                           dev, 1e-12))

    dev = 0.0
    for e, p in zip(elements[:10], pts[:10]):
        direct, _ = group.jacobi_action(e, p, params)
        via_split = group.fc_forward(*group.action_eta_coords(e, *group.fc_inverse(p)))
        dev = max(dev, abs(direct.z - via_split.z), abs(direct.w - via_split.w))
    records.append(_record(cfg, "split-action-consistency",
                           "the action commutes with the coordinate change",
                           dev, 1e-10))
    return records


def suite_geodesics(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params()
    records = []
    pts = random_points(rng, 20, w_radius=0.5)

    dev = 0.0
    for p in pts:
        vel = TangentVector(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                            rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        state = geodesics.GeodesicState(p, vel)
        a1 = geodesics.geodesic_rhs(state, params)
        a2 = geodesics.christoffel_rhs(state, params)
        dev = max(dev, abs(a1.dz - a2.dz), abs(a1.dw - a2.dw))
    records.append(_record(cfg, "acceleration-two-routes",
                           "direct accelerations equal the connection "
                           "contraction", dev, 1e-12))

    records.append(_record(cfg, "connection-defining-relation",
                           "sum_a h_(a e~) G^a_(bc) = d h_(b e~) / dz_c",
                           connection_deviation(pts[:10], params, cfg.stencil()), 1e-6))

    n_steps = geodesics.step_count(_GEODESIC_SPAN, cfg.rk4_step)
    dev = flat_limit_deviation(
        [(0.5 - 0.2j, 0.3 + 0.1j, b) for b in (0.7, 0.4 + 0.3j)],
        ModelParams(params.k, 0.0), _GEODESIC_SPAN, n_steps, max(1, n_steps // 20))
    records.append(_record(cfg, "flat-limit-closed-form",
                           "integrated flat-limit paths match the tanh "
                           "solution", dev, 1e-8))

    state = geodesics.GeodesicState(
        pts[0], TangentVector(0.4 + 0.2j, 0.2 - 0.1j))
    records.append(_record(cfg, "energy-conservation",
                           "speed is constant along integrated paths",
                           energy_drift(state, params, _GEODESIC_SPAN, n_steps), 1e-8))

    records.append(_record(cfg, "constant-eta-residual",
                           "the constant-eta family solves the geodesic "
                           "system", constant_eta_deviation(params), 1e-9))

    e = random_elements(rng, 1)[0]
    start = geodesics.GeodesicState(pts[1], TangentVector(0.3 + 0.1j, 0.15j))
    n_cov = geodesics.step_count(1.0, cfg.rk4_step)
    dev = action_covariance_deviation(e, start, params, 1.0, n_cov, max(1, n_cov // 10))
    records.append(_record(cfg, "action-covariance",
                           "the action maps integrated paths to integrated "
                           "paths", dev, 1e-6))
    return records


def suite_bargmann(cfg: VerifyConfig) -> list[dict]:
    rule = bargmann.QuadratureRule.gauss_hermite(96)
    grid = [complex(a, b) for a in (-1.5, -0.5, 0.5, 1.5)
            for b in (-1.0, 0.0, 1.0)]
    records = [_record(cfg, "reproducing-identity",
                       "pairing the kernel with itself gives the flat kernel",
                       reproducing_deviation(grid[:6], grid[6:], (0.5, 1.0, 2.0), rule),
                       1e-9)]

    records.append(_record(cfg, "state-orthonormality",
                           "oscillator states are orthonormal under "
                           "quadrature", state_orthonormality_deviation(10, 1.0, rule),
                           1e-10))

    dev = monomial_image_deviation(range(11), (0.5, 1.5, 1j, 1 + 1j, -0.7 + 0.9j), 1.0, rule)
    records.append(_record(cfg, "monomial-images",
                           "states map to normalized monomials", dev, 1e-8))
    return records


def suite_embedding(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(_BASIS_K, cfg.mu)
    trunc = cfg.truncation
    pts = random_points(rng, 30, z_scale=1.0, w_radius=0.5)

    dev_pair, dev_angle = pairing_deviation(pts[::2], pts[1::2], params, trunc)
    records = [_record(cfg, "projective-pairing",
                       "normalized kernel equals the embedded pairing" + _AT_BASIS_K,
                       dev_pair, 1e-8)]
    records.append(_record(cfg, "angle-vs-projective-distance",
                           "kernel angle equals the projective distance" + _AT_BASIS_K,
                           dev_angle, 1e-8))

    records.append(_record(cfg, "projective-metric-pullback",
                           "metric equals the Hessian of ln |embedding|^2" + _AT_BASIS_K,
                           pullback_deviation(pts[:4], params, trunc, cfg.stencil()),
                           1e-5))

    records.append(_record(cfg, "embedding-norm-convergence",
                           "squared embedding norm converges to the diagonal "
                           "kernel" + _AT_BASIS_K,
                           embedding_norm_deviation(pts[:10], params, trunc), 1e-8))

    records.append(_record(cfg, "length-dominates-angle",
                           "admissible curve length bounds the projective "
                           "angle" + _AT_BASIS_K,
                           angle_bound_violation(pts[::2], pts[1::2], params), 1e-9))
    return records


def _small_mc(cfg: VerifyConfig) -> quadrature.McConfig:
    """The sampler of the single inner products: a tenth of the Gram's."""
    return quadrature.McConfig(max(MIN_MC_SAMPLES, cfg.mc_samples // 10), cfg.seed)


def _quadrature_head(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(_BASIS_K, cfg.mu)
    z, w = _zw(random_points(rng, 25))
    p = p_at(w)
    lam = quadrature.normalization_constant(params.k)
    product = (quadrature.weight_rho_at(z, w, p, params)
               * kernels.kernel_at(z, w, z, w, params).real)
    est = quadrature.inner_product_mc(BasisIndex(0, 0), BasisIndex(0, 0),
                                      params, _small_mc(cfg))
    return [_record(cfg, "weight-kernel-product",
                    "rho * K is the normalization constant" + _AT_BASIS_K,
                    np.max(np.abs(product - lam) / lam), 1e-12),
            _record(cfg, "unit-normalization",
                    "mean importance weight is 1" + _AT_BASIS_K,
                    abs(est.value - 1.0), 3.0 * est.std_error)]


def _quadrature_gram(cfg: VerifyConfig) -> list[dict]:
    sigmas, se = gram_deviation(ModelParams(_BASIS_K, cfg.mu),
                                quadrature.McConfig(cfg.mc_samples, cfg.seed))
    return [_record(cfg, "orthonormality-matrix",
                    "basis Gram matrix is the identity (units of "
                    "standard error)" + _AT_BASIS_K, sigmas, 3.0),
            _record(cfg, "orthonormality-precision",
                    "standard errors below 1e-2" + _AT_BASIS_K, se, 1e-2)]


def _quadrature_tail(cfg: VerifyConfig) -> list[dict]:
    params = ModelParams(_BASIS_K, cfg.mu)
    records = [_record(cfg, "disk-marginal",
                       "pure-disk pairings are orthonormal under exact "
                       "quadrature (k = 1)", disk_marginal_deviation(), 1e-6)]
    rep1, rep2 = (quadrature.inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1),
                                              params, _small_mc(cfg))
                  for _ in range(2))
    records.append(_record(cfg, "determinism",
                           "same seed reproduces the same estimate" + _AT_BASIS_K,
                           abs(rep1.value - rep2.value), 0.0))
    return records


# Each part seeds its own generators from the configured seed, so the parts
# can run in any order, in any process.
_QUADRATURE_PARTS = (_quadrature_head, _quadrature_gram, _quadrature_tail)


def suite_quadrature(cfg: VerifyConfig) -> list[dict]:
    return [rec for part in _QUADRATURE_PARTS for rec in part(cfg)]


# each suite's parts, whose records concatenate in this order to the suite's
_SUITES = {
    "algebra": (suite_algebra,),
    "bargmann": (suite_bargmann,),
    "embedding": (suite_embedding,),
    "geodesics": (suite_geodesics,),
    "geometry": (suite_geometry,),
    "group": (suite_group,),
    "kernels": (suite_kernels,),
    "quadrature": _QUADRATURE_PARTS,
}


def _run_part(part: tuple[str, int], cfg: VerifyConfig) -> list[dict]:
    """Records of one suite part, given as (suite name, index).

    numpy's floating-point warnings are off: an overflow shows as a
    deviation that is not finite, which the caller reports, while warnings
    the library issues still surface.  An OverflowError is raised again
    naming the suite.
    """
    name, index = part
    try:
        with np.errstate(all="ignore"):
            return _SUITES[name][index](cfg)
    except OverflowError as exc:
        detail = exc.args[-1] if exc.args else "a value left the floating-point range"
        raise OverflowError(f"the {name} suite overflowed at these settings: "
                            f"{detail}") from exc


def _run_caught(part: tuple[str, int], cfg: VerifyConfig) -> tuple:
    """(records or the error raised, warnings issued) of :func:`_run_part`.

    A worker is sent this function and the part's (suite name, index),
    never a part function: pickle sends functions by module name, where a
    tracer may have put a wrapper in place of the function.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _run_part(part, cfg), caught
        except Exception as exc:
            return exc, caught


def _run_forked(order: list[tuple[str, int]], cfg: VerifyConfig, workers: int) -> dict:
    """:func:`_run_caught` of each part: order[0] in this process, the rest
    in ``workers`` forked processes meanwhile.

    Forked, not spawned: a worker starts from this process's memory with
    the package imported, where a fresh interpreter would spend about as
    long importing it as the parts it runs take.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker flushes the stdio buffers it inherited when it exits;
    # multiprocessing flushes sys.stdout and sys.stderr before each fork
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {part: pool.submit(_run_caught, part, cfg) for part in order[1:]}
        outcomes = {order[0]: _run_caught(order[0], cfg)}
        outcomes.update((part, future.result()) for part, future in futures.items())
    return outcomes


def run_suites(names: list[str], cfg: VerifyConfig) -> dict:
    """Run the requested suites and aggregate their records in name order.

    The unit of work is a suite part.  With more than one usable CPU and
    more than one part, the longest part runs in this process while forked
    worker processes run the others, up to one process per usable CPU in
    all; no worker outlives the call.  Each part seeds its own generators,
    so the report is the one a single process gives, and a failing run
    raises the error that running the parts one by one in (suite name,
    part) order raises first.
    """
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; "
                         f"choose from {sorted(_SUITES)}")
    suites = {name: [] for name in sorted(set(names))}
    parts = [(name, index) for name in suites for index in range(len(_SUITES[name]))]
    workers = min(len(parts), core.usable_cpus()) - 1
    if workers < 1 or not hasattr(os, "fork"):
        for part in parts:
            suites[part[0]] += _run_part(part, cfg)
    else:
        outcomes = _run_forked(sorted(parts, key=_LONGEST_FIRST.index), cfg, workers)
        # warnings and errors surface as a run in part order shows them
        for name, index in parts:
            result, caught = outcomes[name, index]
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if isinstance(result, Exception):
                raise result
            suites[name] += result
    all_pass = all(rec["pass"] for recs in suites.values() for rec in recs)
    return {"suites": suites, "pass": all_pass}
