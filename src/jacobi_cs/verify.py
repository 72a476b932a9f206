"""Named verification suites behind the command-line `verify` command.

Each suite exercises the standing identities of one module and returns a
list of records {check, identity, deviation, tolerance, pass}; a report
aggregates suites in name order.  Tolerances can be overridden per check
name through the configuration, which is how the sensitivity of the
finite-difference gates can be demonstrated from the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, bargmann, embedding, geodesics, geometry, group, kernels, quadrature
from .core import JacobiPoint, ModelParams, TangentVector, make_jacobi_point
from .geometry import WirtingerStencil
from .kernels import BasisIndex, TruncationOrder

SUITE_NAMES = ("algebra", "bargmann", "embedding", "geodesics",
               "geometry", "group", "kernels", "quadrature")
_GEODESIC_SPAN = 2.0


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


def _random_points(rng: np.random.Generator, n: int, z_scale: float = 1.0,
                   w_radius: float = 0.6) -> list[JacobiPoint]:
    z_radii = z_scale * np.sqrt(rng.uniform(0, 1, n))
    z_angles = rng.uniform(0, 2 * math.pi, n)
    radii = w_radius * np.sqrt(rng.uniform(0, 1, n))
    angles = rng.uniform(0, 2 * math.pi, n)
    return [make_jacobi_point(zr * np.exp(1j * za), r * np.exp(1j * a))
            for zr, za, r, a in zip(z_radii, z_angles, radii, angles)]


def _random_elements(rng: np.random.Generator, n: int,
                     rho_max: float = 0.8) -> list[group.JacobiGroupElement]:
    out = []
    for _ in range(n):
        rho = rng.uniform(0, rho_max)
        phi, psi = rng.uniform(0, 2 * math.pi, 2)
        g = group.SU11Element(math.cosh(rho) * np.exp(1j * phi),
                              math.sinh(rho) * np.exp(1j * psi))
        alpha = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        out.append(group.JacobiGroupElement(g, alpha, rng.uniform(-1, 1)))
    return out


_PARAM_GRID = [(k, mu) for k in (1.0, 1.5, 2.0) for mu in (0.5, 1.0, 2.0)]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(cfg: VerifyConfig) -> list[dict]:
    worst = 0.0
    for k, mu in _PARAM_GRID:
        report = algebra.check_relations(8, ModelParams(k, mu))
        worst = max(worst, report.max_deviation)
    records = [_record(cfg, "commutation-relations",
                       "structure constants on monomials of degree <= 8",
                       worst, 1e-12)]
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
    pts = _random_points(rng, 60)

    dev = 0.0
    for z1, z2 in zip(pts[::2], pts[1::2]):
        k12 = kernels.jacobi_kernel(z1, z2, params)
        k21 = kernels.jacobi_kernel(z2, z1, params)
        dev = max(dev, abs(k12 - k21.conjugate()) / max(1.0, abs(k12)))
    records.append(_record(cfg, "hermitian-symmetry",
                           "K(a, conj(b)) = conj(K(b, conj(a)))", dev, 1e-12))

    min_diag = min(kernels.jacobi_kernel(p, p, params).real for p in pts)
    records.append(_record(cfg, "diagonal-positivity",
                           "K(a, conj(a)) > 0", max(0.0, -min_diag), 1e-12))

    # tail decay goes like (|w1||w2|)^(n/2) with an exp(mu |z|^2)-sized
    # prefactor: the default truncation carries 1e-8 on |w| <= 0.4 at
    # mu = 1; the wider grid needs the deeper expansion
    pts_inner = _random_points(rng, 16, w_radius=0.4)
    dev = 0.0
    for two_kp in (1, 2, 3, 4):
        pr = ModelParams(two_kp / 2.0 + 0.25, 1.0)
        for z1, z2 in zip(pts_inner[:8], pts_inner[8:]):
            closed = kernels.jacobi_kernel(z1, z2, pr)
            series = kernels.kernel_series(z1, z2, pr, cfg.truncation)
            dev = max(dev, abs(closed - series) / abs(closed))
    records.append(_record(cfg, "series-vs-closed-form",
                           "basis expansion matches the closed kernel "
                           "(quarter-shifted index)", dev, 1e-8))

    deep = TruncationOrder(80, 80)
    pts_wide = _random_points(rng, 12, w_radius=0.45)
    dev = 0.0
    for two_kp in (1, 4):
        for mu in (0.5, 2.0):
            pr = ModelParams(two_kp / 2.0 + 0.25, mu)
            for z1, z2 in zip(pts_wide[:6], pts_wide[6:]):
                closed = kernels.jacobi_kernel(z1, z2, pr)
                series = kernels.kernel_series(z1, z2, pr, deep)
                dev = max(dev, abs(closed - series) / abs(closed))
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

    over = 0.0
    for z1, z2 in zip(pts[::2], pts[1::2]):
        over = max(over, abs(kernels.normalized_kernel(z1, z2, params)) - 1.0)
    records.append(_record(cfg, "normalized-kernel-bound",
                           "|normalized kernel| <= 1", max(0.0, over), 1e-12))

    dev = max(abs(kernels.diastasis(z1, z2, params)
                  - kernels.diastasis_split(z1, z2, params))
              for z1, z2 in zip(pts[::2], pts[1::2]))
    records.append(_record(cfg, "diastasis-two-routes",
                           "-ln b equals the split disk + flat form", dev, 1e-10))
    return records


def suite_geometry(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    records = []
    stencil = cfg.stencil()

    dev = 0.0
    for k, mu in _PARAM_GRID:
        pr = ModelParams(k, mu)
        for p in _random_points(rng, 20):
            h = geometry.metric(p, pr)
            hf = geometry.metric_fd(p, pr, stencil)
            scale = max(abs(h.h_zz), abs(h.h_zw), abs(h.h_ww))
            dev = max(dev,
                      max(abs(h.h_zz - hf.h_zz), abs(h.h_zw - hf.h_zw),
                          abs(h.h_ww - hf.h_ww)) / scale)
    records.append(_record(cfg, "metric-vs-potential",
                           "closed metric equals the potential Hessian", dev, 1e-6))

    params = cfg.params()
    pts = _random_points(rng, 100)
    dev = max(abs(geometry.metric_det(p, params)
                  - 2.0 * params.k * params.mu / p.p**3)
              / (2.0 * params.k * params.mu / p.p**3) for p in pts)
    records.append(_record(cfg, "determinant-closed-form",
                           "det h = 2 k mu / P^3", dev, 1e-12))

    dev = 0.0
    for k, mu in _PARAM_GRID:
        pr = ModelParams(k, mu)
        target = -3.0 / (2.0 * k)
        dev = max(dev, max(abs(geometry.scalar_curvature(p, pr) - target)
                           for p in pts[:25]))
    records.append(_record(cfg, "scalar-curvature-constant",
                           "s = -3/(2k) everywhere", dev, 1e-10))

    dev = 0.0
    for p in pts[:10]:
        rc = geometry.ricci(p, params)
        rf = geometry.ricci_fd(p, params, stencil)
        dev = max(dev, abs(rc.r_zz - rf.r_zz), abs(rc.r_zw - rf.r_zw),
                  abs(rc.r_ww - rf.r_ww))
    records.append(_record(cfg, "ricci-closed-vs-fd",
                           "Ricci equals minus the Hessian of ln det h", dev, 1e-6))

    dev = max(geometry.kahler_condition_check(p, params, stencil)
              for p in pts[:10])
    records.append(_record(cfg, "kahler-condition",
                           "d h_(a b~)/dz_c symmetric in (a, c)", dev, 1e-6))

    dev = 0.0
    for p in pts[:25]:
        h = geometry.metric(p, params)
        r = geometry.ricci(p, params)
        dev = max(dev, abs(r.r_zz), max(0.0, -h.h_zz), max(0.0, r.r_ww))
    records.append(_record(cfg, "non-einstein-witness",
                           "Ric_zz = 0 while h_zz > 0 and Ric_ww < 0", dev, 1e-12))

    dev = max(abs(geometry.volume_density(p, params)
                  / geometry.metric_det(p, params) - 2.0) for p in pts[:25])
    records.append(_record(cfg, "volume-density-ratio",
                           "volume density = 2 det h", dev, 1e-12))
    return records


def suite_group(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params()
    pts = _random_points(rng, 40, z_scale=1.0, w_radius=0.5)
    elements = _random_elements(rng, 20)
    records = []

    dev = 0.0
    for e, (z1, z2) in zip(elements, zip(pts[::2], pts[1::2])):
        e0 = group.JacobiGroupElement(e.g, e.alpha, 0.0)
        p1, lam1 = group.jacobi_action(e0, z1, params)
        p2, lam2 = group.jacobi_action(e0, z2, params)
        lhs = kernels.jacobi_kernel(p1, p2, params) * lam1 * lam2.conjugate()
        rhs = kernels.jacobi_kernel(z1, z2, params)
        dev = max(dev, abs(lhs - rhs) / abs(rhs))
    records.append(_record(cfg, "kernel-equivariance",
                           "K(act a, conj(act b)) lam(a) conj(lam(b)) = K(a, conj(b))",
                           dev, 1e-10))

    dev_b = dev_d = 0.0
    for e, (z1, z2) in zip(elements, zip(pts[::2], pts[1::2])):
        p1, _ = group.jacobi_action(e, z1, params)
        p2, _ = group.jacobi_action(e, z2, params)
        dev_b = max(dev_b, abs(kernels.berezin_kernel(p1, p2, params)
                               - kernels.berezin_kernel(z1, z2, params)))
        dev_d = max(dev_d, abs(kernels.diastasis(p1, p2, params)
                               - kernels.diastasis(z1, z2, params)))
    records.append(_record(cfg, "berezin-invariance",
                           "b(act a, act b) = b(a, b)", dev_b, 1e-10))
    records.append(_record(cfg, "diastasis-invariance",
                           "D(act a, act b) = D(a, b)", dev_d, 1e-10))

    dev = 0.0
    for e, p in zip(elements[:10], pts[:10]):
        target, _ = group.jacobi_action(e, p, params)

        def mapped(x: np.ndarray) -> np.ndarray:
            pt, _ = group.jacobi_action(
                e, make_jacobi_point(complex(x[0], x[1]), complex(x[2], x[3])),
                params)
            return np.array([pt.z.real, pt.z.imag, pt.w.real, pt.w.imag])

        x0 = np.array([p.z.real, p.z.imag, p.w.real, p.w.imag])
        jac = geometry.real_jacobian(mapped, x0)
        pulled = geometry.pullback_real(
            geometry.hermitian_to_real(geometry.metric(target, params)), jac)
        source = geometry.hermitian_to_real(geometry.metric(p, params))
        dev = max(dev, float(np.max(np.abs(pulled - source))))
    records.append(_record(cfg, "metric-invariance",
                           "pullback of the metric under the action is the metric",
                           dev, 1e-5))

    dev_cross = dev_diag = 0.0
    for p in pts[:20]:
        eta, w = group.fc_inverse(p)

        def fwd(x: np.ndarray) -> np.ndarray:
            pt = group.fc_forward(complex(x[0], x[1]), complex(x[2], x[3]))
            return np.array([pt.z.real, pt.z.imag, pt.w.real, pt.w.imag])

        x0 = np.array([eta.real, eta.imag, w.real, w.imag])
        jac = geometry.real_jacobian(fwd, x0)
        pulled = geometry.pullback_real(
            geometry.hermitian_to_symplectic(geometry.metric(p, params)), jac)
        h_ee, h_ew, h_ww, defect = geometry.symplectic_to_hermitian(pulled)
        dev_cross = max(dev_cross, abs(h_ew), defect)
        dev_diag = max(dev_diag, abs(h_ee - params.mu),
                       abs(h_ww - 2.0 * params.k / p.p**2))
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

        def eta_map(x: np.ndarray) -> np.ndarray:
            e1, w1 = group.action_eta_coords(
                e, complex(x[0], x[1]), complex(x[2], x[3]))
            return np.array([e1.real, e1.imag, w1.real, w1.imag])

        x0 = np.array([eta.real, eta.imag, w.real, w.imag])
        _, w1 = group.action_eta_coords(e, eta, w)
        jac = geometry.real_jacobian(eta_map, x0)
        pulled = geometry.pullback_real(split_form(w1), jac)
        dev = max(dev, float(np.max(np.abs(pulled - split_form(w)))))
    records.append(_record(cfg, "split-form-invariance",
                           "the split form is preserved by the action in "
                           "split coordinates", dev, 1e-5))

    dev = 0.0
    for p in pts:
        eta, w = group.fc_inverse(p)
        back = group.fc_forward(eta, w)
        dev = max(dev, abs(back.z - p.z), abs(back.w - p.w))
    records.append(_record(cfg, "split-roundtrip",
                           "forward and inverse coordinate change compose to "
                           "the identity", dev, 1e-12))

    dev = 0.0
    for e1, e2, p in zip(elements[::2], elements[1::2], pts[:10]):
        w = p.w
        composed = group.mobius(e1.g.compose(e2.g), w)
        stepwise = group.mobius(e1.g, group.mobius(e2.g, w))
        dev = max(dev, abs(composed - stepwise))
        g12 = e1.g.compose(e2.g)
        dev = max(dev, abs(abs(g12.a) ** 2 - abs(g12.b) ** 2 - 1.0))
    records.append(_record(cfg, "mobius-composition",
                           "fractional action composes with the matrix product",
                           dev, 1e-12))

    dev = 0.0
    for e, p in zip(elements[:10], pts[:10]):
        eta, w = group.fc_inverse(p)
        eta1, w1 = group.action_eta_coords(e, eta, w)
        direct, _ = group.jacobi_action(e, p, params)
        via_split = group.fc_forward(eta1, w1)
        dev = max(dev, abs(direct.z - via_split.z), abs(direct.w - via_split.w))
    records.append(_record(cfg, "split-action-consistency",
                           "the action commutes with the coordinate change",
                           dev, 1e-10))
    return records


def suite_geodesics(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params()
    records = []
    pts = _random_points(rng, 20, w_radius=0.5)

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

    stencil = cfg.stencil()
    dev = 0.0
    for p in pts[:10]:
        dev = max(dev, _christoffel_defining_deviation(p, params, stencil))
    records.append(_record(cfg, "connection-defining-relation",
                           "sum_a h_(a e~) G^a_(bc) = d h_(b e~) / dz_c",
                           dev, 1e-6))

    n_steps = geodesics.step_count(_GEODESIC_SPAN, cfg.rk4_step)
    dev = 0.0
    flat = ModelParams(params.k, 0.0)
    for b in (0.7, 0.4 + 0.3j):
        z0dot = 0.5 - 0.2j
        start = geodesics.mu_zero_solution(z0dot, 0.3 + 0.1j, b, 0.0)
        path = geodesics.integrate(start, _GEODESIC_SPAN, n_steps, flat)
        for t, s in path.samples[:: max(1, n_steps // 20)]:
            ref = geodesics.mu_zero_solution(z0dot, 0.3 + 0.1j, b, t)
            dev = max(dev, abs(s.pos.z - ref.pos.z), abs(s.pos.w - ref.pos.w))
    records.append(_record(cfg, "flat-limit-closed-form",
                           "integrated flat-limit paths match the tanh "
                           "solution", dev, 1e-8))

    state = geodesics.GeodesicState(
        pts[0], TangentVector(0.4 + 0.2j, 0.2 - 0.1j))
    path = geodesics.integrate(state, _GEODESIC_SPAN, n_steps, params)
    speeds = path.speeds(params)
    drift = float(np.max(np.abs(speeds - speeds[0])))
    records.append(_record(cfg, "energy-conservation",
                           "speed is constant along integrated paths",
                           drift, 1e-8))

    dev = 0.0
    for t in np.arange(0.1, 2.0, 0.2):
        s = geodesics.fc_particular_solution(1 + 1j, 0.7, float(t))
        accel = geodesics.geodesic_rhs(s, params)
        speed = abs(0.7)
        wt = math.tanh(t * speed)
        dw2 = -2.0 * speed * 0.7 * wt / math.cosh(t * speed) ** 2
        dz2 = -(1 - 1j) * dw2
        dev = max(dev, abs(accel.dz - dz2), abs(accel.dw - dw2))
    records.append(_record(cfg, "constant-eta-residual",
                           "the constant-eta family solves the geodesic "
                           "system", dev, 1e-9))

    e = _random_elements(rng, 1)[0]
    start = geodesics.GeodesicState(pts[1], TangentVector(0.3 + 0.1j, 0.15j))
    n_cov = geodesics.step_count(1.0, cfg.rk4_step)
    path = geodesics.integrate(start, 1.0, n_cov, params)
    mapped_start = geodesics.GeodesicState(
        group.jacobi_action(e, start.pos, params)[0],
        group.action_pushforward(e, start.pos, start.vel))
    mapped_path = geodesics.integrate(mapped_start, 1.0, n_cov, params)
    dev = 0.0
    stride = max(1, n_cov // 10)
    for (_, s), (_, sm) in zip(path.samples[::stride],
                               mapped_path.samples[::stride]):
        img, _ = group.jacobi_action(e, s.pos, params)
        dev = max(dev, abs(img.z - sm.pos.z), abs(img.w - sm.pos.w))
    records.append(_record(cfg, "action-covariance",
                           "the action maps integrated paths to integrated "
                           "paths", dev, 1e-6))
    return records


def _christoffel_defining_deviation(p: JacobiPoint, params: ModelParams,
                                    stencil: WirtingerStencil) -> float:
    """Residual of the linear system that defines the connection.

    Only first derivatives of the metric enter, so a tenth of the Hessian
    step is both safe against roundoff and an order of magnitude more
    accurate.
    """
    step = max(geometry.resolve_step(p, stencil) * 0.1, 1e-6)
    gam = geodesics.christoffel(p, params)

    def coeff(pt: JacobiPoint, which: str) -> complex:
        h = geometry.metric(pt, params)
        return {"zz": complex(h.h_zz), "zw": h.h_zw,
                "wz": h.h_zw.conjugate(), "ww": complex(h.h_ww)}[which]

    h = geometry.metric(p, params)
    hm = {"zz": complex(h.h_zz), "zw": h.h_zw,
          "wz": h.h_zw.conjugate(), "ww": complex(h.h_ww)}
    gamma = {("z", "z", "z"): gam.g_zzz, ("w", "z", "z"): gam.g_wzz,
             ("z", "z", "w"): gam.g_zzw, ("w", "z", "w"): gam.g_wwz,
             ("z", "w", "w"): gam.g_zww, ("w", "w", "w"): gam.g_www}
    dev = 0.0
    for beta, gam_idx in (("z", "z"), ("z", "w"), ("w", "w")):
        for eps in ("z", "w"):
            d_z, d_w = geometry._wirtinger_grad(
                lambda pt: coeff(pt, beta + eps), p, step)
            rhs = d_z if gam_idx == "z" else d_w
            lhs = sum(hm[alpha + eps] * gamma[(alpha, beta, gam_idx)]
                      for alpha in ("z", "w"))
            dev = max(dev, abs(lhs - rhs))
    return dev


def suite_bargmann(cfg: VerifyConfig) -> list[dict]:
    records = []
    rule = bargmann.QuadratureRule.gauss_hermite(96)
    grid = [complex(a, b) for a in (-1.5, -0.5, 0.5, 1.5)
            for b in (-1.0, 0.0, 1.0)]

    dev = 0.0
    for hbar in (0.5, 1.0, 2.0):
        p = bargmann.HBarParams(hbar)
        for z in grid[:6]:
            for w in grid[6:]:
                dev = max(dev, bargmann.reproducing_check(z, w, p, rule))
    records.append(_record(cfg, "reproducing-identity",
                           "pairing the kernel with itself gives the flat "
                           "kernel", dev, 1e-9))

    p = bargmann.HBarParams(1.0)
    dev = 0.0
    for n in range(11):
        for m in range(n, 11):
            got = bargmann.hermite_overlap(n, m, p, rule)
            dev = max(dev, abs(got - (1.0 if n == m else 0.0)))
    records.append(_record(cfg, "state-orthonormality",
                           "oscillator states are orthonormal under "
                           "quadrature", dev, 1e-10))

    dev = 0.0
    for n in range(11):
        for z in (0.5, 1.5, 1j, 1 + 1j, -0.7 + 0.9j):
            dev = max(dev, bargmann.bargmann_image_check(n, z, p, rule))
    records.append(_record(cfg, "monomial-images",
                           "states map to normalized monomials", dev, 1e-8))
    return records


def suite_embedding(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(1.25, cfg.mu)
    trunc = cfg.truncation
    pts = _random_points(rng, 30, z_scale=1.0, w_radius=0.5)
    records = []

    dev = max(embedding.cauchy_check(z1, z2, params, trunc)
              for z1, z2 in zip(pts[::2], pts[1::2]))
    records.append(_record(cfg, "projective-pairing",
                           "normalized kernel equals the embedded pairing",
                           dev, 1e-8))

    dev = 0.0
    for z1, z2 in zip(pts[::2], pts[1::2]):
        v1 = embedding.embed(z1, params, trunc)
        v2 = embedding.embed(z2, params, trunc)
        dev = max(dev, abs(embedding.cs_angle(z1, z2, params)
                           - embedding.cayley_distance(v1, v2)))
    records.append(_record(cfg, "angle-vs-projective-distance",
                           "kernel angle equals the projective distance",
                           dev, 1e-8))

    dev = max(embedding.fubini_study_pullback_check(p, params, trunc,
                                                    cfg.stencil())
              for p in pts[:4])
    records.append(_record(cfg, "projective-metric-pullback",
                           "metric equals the Hessian of ln |embedding|^2",
                           dev, 1e-5))

    dev = 0.0
    for p in pts[:10]:
        v = embedding.embed(p, params, trunc)
        target = kernels.jacobi_kernel(p, p, params).real
        dev = max(dev, abs(v.norm() ** 2 - target) / target)
    records.append(_record(cfg, "embedding-norm-convergence",
                           "squared embedding norm converges to the diagonal "
                           "kernel", dev, 1e-8))

    worst_margin = 0.0
    for z1, z2 in zip(pts[::2], pts[1::2]):
        path = geodesics.interpolation_path(z1, z2)
        rep = embedding.distance_angle_inequality_check(z1, z2, params, path)
        worst_margin = min(worst_margin, rep.margin)
    records.append(_record(cfg, "length-dominates-angle",
                           "admissible curve length bounds the projective "
                           "angle", max(0.0, -worst_margin), 1e-9))
    return records


def suite_quadrature(cfg: VerifyConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(1.25, cfg.mu)
    records = []

    pts = _random_points(rng, 25)
    lam = quadrature.normalization_constant(params.k)
    dev = max(abs(quadrature.weight_rho(p, params)
                  * kernels.jacobi_kernel(p, p, params).real - lam) / lam
              for p in pts)
    records.append(_record(cfg, "weight-kernel-product",
                           "rho * K is the normalization constant", dev, 1e-12))

    cfg_small = quadrature.McConfig(max(1000, cfg.mc_samples // 10), cfg.seed)
    est = quadrature.inner_product_mc(BasisIndex(0, 0), BasisIndex(0, 0),
                                      params, cfg_small)
    records.append(_record(cfg, "unit-normalization",
                           "mean importance weight is 1",
                           abs(est.value - 1.0), 3.0 * est.std_error))

    mc = quadrature.McConfig(cfg.mc_samples, cfg.seed)
    gram, se = quadrature.orthonormality_matrix_mc(3, 3, params, mc)
    target = np.eye(gram.shape[0])
    sigmas = np.abs(gram - target) / np.maximum(se, 1e-300)
    records.append(_record(cfg, "orthonormality-matrix",
                           "basis Gram matrix is the identity (units of "
                           "standard error)", float(np.max(sigmas)), 3.0))
    records.append(_record(cfg, "orthonormality-precision",
                           "standard errors below 1e-2", float(np.max(se)), 1e-2))

    dev = 0.0
    for m in range(6):
        dev = max(dev, abs(quadrature.disk_inner_product_gl(1.0, m, m) - 1.0))
    dev = max(dev, abs(quadrature.disk_inner_product_gl(1.0, 0, 2)))
    records.append(_record(cfg, "disk-marginal",
                           "pure-disk pairings are orthonormal under exact "
                           "quadrature", dev, 1e-6))

    rep1 = quadrature.inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1),
                                       params, cfg_small)
    rep2 = quadrature.inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1),
                                       params, cfg_small)
    records.append(_record(cfg, "determinism",
                           "same seed reproduces the same estimate",
                           abs(rep1.value - rep2.value), 0.0))
    return records


_SUITES = {
    "algebra": suite_algebra,
    "bargmann": suite_bargmann,
    "embedding": suite_embedding,
    "geodesics": suite_geodesics,
    "geometry": suite_geometry,
    "group": suite_group,
    "kernels": suite_kernels,
    "quadrature": suite_quadrature,
}


def run_suites(names: list[str], cfg: VerifyConfig) -> dict:
    """Run the requested suites (name order) and aggregate the records."""
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; "
                         f"choose from {sorted(_SUITES)}")
    suites = {}
    for name in sorted(set(names)):
        suites[name] = _SUITES[name](cfg)
    all_pass = all(rec["pass"] for recs in suites.values() for rec in recs)
    return {"suites": suites, "pass": all_pass}
