import io
import math

import numpy as np
import pytest

from jacobi_cs import (
    BoundaryEscape,
    GeodesicPath,
    GeodesicState,
    ModelParams,
    TangentVector,
    ZeroDirection,
    christoffel,
    curve_length,
    disk_geodesic_map,
    fc_particular_solution,
    geodesic_rhs,
    integrate,
    interpolation_path,
    jacobi_action,
    make_jacobi_point,
    mu_zero_solution,
    tangent_norm,
)
from jacobi_cs.geodesics import acceleration_at, christoffel_rhs, shoot_between
from jacobi_cs.group import action_pushforward
from conftest import random_elements, random_points

P1 = ModelParams(1.0, 1.0)


class TestChristoffel:
    def test_at_origin(self):
        g = christoffel(make_jacobi_point(0, 0), P1)
        lam = P1.mu / (2 * P1.k)
        assert g.g_wzz == pytest.approx(lam)
        for val in (g.g_zzz, g.g_zzw, g.g_wwz, g.g_zww, g.g_www):
            assert val == 0.0

    def test_hand_values(self):
        g = christoffel(make_jacobi_point(1.0, 0.5), P1)
        assert g.g_zzz == pytest.approx(-1.0)
        assert g.g_wzz == pytest.approx(0.5)
        assert g.g_zzw == pytest.approx(-4 / 3)
        assert g.g_wwz == pytest.approx(1.0)
        assert g.g_zww == pytest.approx(-4.0)
        assert g.g_www == pytest.approx(10 / 3)


class TestRightHandSide:
    def test_origin_flat_velocity(self):
        s = GeodesicState(make_jacobi_point(0, 0), TangentVector(1, 0))
        acc = geodesic_rhs(s, P1)
        assert acc.dz == 0.0
        assert acc.dw == pytest.approx(-P1.mu / (2 * P1.k))

    def test_origin_disk_velocity(self):
        s = GeodesicState(make_jacobi_point(0, 0), TangentVector(0, 1))
        acc = geodesic_rhs(s, P1)
        assert acc.dz == 0.0 and acc.dw == 0.0

    def test_two_routes_agree(self, rng):
        for p in random_points(rng, 30, w_radius=0.7):
            v = TangentVector(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                              complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
            s = GeodesicState(p, v)
            a1, a2 = geodesic_rhs(s, P1), christoffel_rhs(s, P1)
            assert abs(a1.dz - a2.dz) <= 1e-12 * max(1.0, abs(a1.dz))
            assert abs(a1.dw - a2.dw) <= 1e-12 * max(1.0, abs(a1.dw))

    def test_array_form_matches_points_and_oracle(self, rng):
        params = ModelParams(1.5, 0.7)
        pts = random_points(rng, 30, z_scale=2.0, w_radius=0.9)
        vel = [TangentVector(complex(*rng.uniform(-1, 1, 2)),
                             complex(*rng.uniform(-0.5, 0.5, 2))) for _ in pts]
        z, w, p = (np.array([getattr(pt, a) for pt in pts]).reshape(6, 5)
                   for a in ("z", "w", "p"))
        dz, dw = (np.array([getattr(v, a) for v in vel]).reshape(6, 5)
                  for a in ("dz", "dw"))
        d2z, d2w = acceleration_at(z, w, p, dz, dw, params)
        for i, (pt, v) in enumerate(zip(pts, vel)):
            s = GeodesicState(pt, v)
            for want, tol in ((geodesic_rhs(s, params), 1e-14),
                              (christoffel_rhs(s, params), 1e-12)):
                assert abs(d2z.flat[i] - want.dz) <= tol * max(1.0, abs(want.dz))
                assert abs(d2w.flat[i] - want.dw) <= tol * max(1.0, abs(want.dw))


class TestIntegrate:
    def test_zero_velocity_constant_path(self):
        s0 = GeodesicState(make_jacobi_point(0.5, 0.2j), TangentVector(0, 0))
        path = integrate(s0, 1.0, 10, P1)
        end = path.endpoint()
        assert end.pos.z == s0.pos.z and end.pos.w == s0.pos.w
        assert curve_length(path, P1) == 0.0

    def test_flat_limit_matches_tanh_form(self):
        flat = ModelParams(1.0, 0.0)
        b, z0dot, z1 = 0.8, 0.4 - 0.3j, 0.2 + 0.1j
        start = mu_zero_solution(z0dot, z1, b, 0.0)
        path = integrate(start, 2.0, 2000, flat)
        worst = 0.0
        for t, s in path.samples[::100]:
            ref = mu_zero_solution(z0dot, z1, b, t)
            worst = max(worst, abs(s.pos.z - ref.pos.z), abs(s.pos.w - ref.pos.w))
        assert worst <= 1e-8

    def test_pure_disk_start_matches_map_for_any_mu(self):
        start = GeodesicState(make_jacobi_point(0, 0), TangentVector(0.0, 0.9))
        path = integrate(start, 2.0, 2000, P1)
        worst = max(abs(s.pos.w - disk_geodesic_map(0.9, t))
                    for t, s in path.samples[::100])
        assert worst <= 1e-8

    def test_speed_conserved(self):
        s0 = GeodesicState(make_jacobi_point(0.3 + 0.2j, 0.1 - 0.2j),
                           TangentVector(0.5 - 0.1j, 0.25j))
        path = integrate(s0, 2.0, 2000, P1)
        e0 = tangent_norm(s0.pos, s0.vel, P1)
        drift = max(abs(tangent_norm(s.pos, s.vel, P1) - e0)
                    for _, s in path.samples)
        assert drift < 1e-8

    def test_boundary_escape(self):
        s0 = GeodesicState(make_jacobi_point(0.0, 0.9), TangentVector(0.0, 2.0))
        with pytest.raises(BoundaryEscape) as err:
            integrate(s0, 2.0, 2000, ModelParams(1.0, 0.0))
        assert 0.0 < err.value.t <= 2.0

    def test_action_covariance(self, rng):
        e = random_elements(rng, 1)[0]
        s0 = GeodesicState(make_jacobi_point(0.2 - 0.1j, 0.15 + 0.1j),
                           TangentVector(0.3 + 0.1j, 0.15j))
        path = integrate(s0, 1.0, 1000, P1)
        mapped0 = GeodesicState(jacobi_action(e, s0.pos, P1)[0],
                                action_pushforward(e, s0.pos, s0.vel))
        mapped_path = integrate(mapped0, 1.0, 1000, P1)
        for (_, s), (_, sm) in zip(path.samples[::100], mapped_path.samples[::100]):
            img, _ = jacobi_action(e, s.pos, P1)
            assert abs(img.z - sm.pos.z) <= 1e-6
            assert abs(img.w - sm.pos.w) <= 1e-6


class TestClosedFormSolutions:
    def test_constant_eta_start(self):
        s = fc_particular_solution(1 + 1j, 0.7, 0.0)
        assert s.pos.z == pytest.approx(1 + 1j)
        assert s.pos.w == 0.0

    def test_constant_eta_zero_is_disk_geodesic(self):
        s = fc_particular_solution(0.0, 0.5, 1.3)
        assert s.pos.z == 0.0 and s.vel.dz == 0.0
        assert s.pos.w == pytest.approx(disk_geodesic_map(0.5, 1.3))

    def test_constant_eta_residual_small(self):
        # substitute the closed form into the system numerically
        eta0, b = 1 + 1j, 0.7
        for t in np.arange(0.1, 2.0, 0.2):
            s = fc_particular_solution(eta0, b, float(t))
            acc = geodesic_rhs(s, P1)
            speed = abs(b)
            ddw = -2 * speed * b * math.tanh(t * speed) / math.cosh(t * speed) ** 2
            ddz = -eta0.conjugate() * ddw
            assert abs(acc.dz - ddz) < 1e-9
            assert abs(acc.dw - ddw) < 1e-9

    def test_flat_limit_start_state(self):
        s = mu_zero_solution(0.4j, 1.5, 0.6, 0.0)
        assert s.pos.z == pytest.approx(1.5)
        assert s.pos.w == 0.0
        assert s.vel.dz == pytest.approx(0.4j)
        assert s.vel.dw == pytest.approx(0.6)

    def test_flat_limit_constant_z(self):
        s = mu_zero_solution(0.0, 0.7 - 0.2j, 0.5, 1.1)
        assert s.pos.z == pytest.approx(0.7 - 0.2j)
        assert s.vel.dz == 0.0

    def test_flat_limit_residual(self):
        flat = ModelParams(1.0, 0.0)
        for t in np.arange(0.1, 2.0, 0.3):
            s = mu_zero_solution(0.5 - 0.2j, 0.3, 0.6, float(t))
            acc = geodesic_rhs(s, flat)
            speed = abs(0.6)
            ddw = -2 * speed * 0.6 * math.tanh(t * speed) / math.cosh(t * speed) ** 2
            ddz = (0.5 - 0.2j) / 0.6 * ddw
            assert abs(acc.dz - ddz) < 1e-9
            assert abs(acc.dw - ddw) < 1e-9

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            mu_zero_solution(1.0, 0.0, 0.0, 1.0)

    def test_disk_map_solves_disk_equation(self, rng):
        # w(t) = (z/|z|) tanh(t|z|) has residual ddw + 2 conj(w) dw^2 / P = 0
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) < 1e-3:
                continue
            t = rng.uniform(0.1, 2.0)
            r = abs(z)
            w = disk_geodesic_map(z, t)
            dw = z / math.cosh(t * r) ** 2
            ddw = -2 * r * z * math.tanh(t * r) / math.cosh(t * r) ** 2
            p = 1 - abs(w) ** 2
            assert abs(ddw + 2 * w.conjugate() / p * dw * dw) <= 1e-12


class TestPathsAndLength:
    def test_radial_disk_length_hand_value(self):
        # for w(t) = tanh t the speed is sqrt(2k) identically
        start = GeodesicState(make_jacobi_point(0, 0), TangentVector(0.0, 1.0))
        path = integrate(start, 1.0, 1000, P1)
        assert curve_length(path, P1) == pytest.approx(math.sqrt(2), rel=1e-8)

    def test_length_additive_under_concatenation(self):
        s0 = GeodesicState(make_jacobi_point(0.1, 0.05j),
                           TangentVector(0.4, 0.2))
        whole = integrate(s0, 1.0, 1000, P1)
        first = integrate(s0, 0.5, 500, P1)
        mid = first.endpoint()
        second = integrate(mid, 0.5, 500, P1)
        total = curve_length(first, P1) + curve_length(second, P1)
        assert total == pytest.approx(curve_length(whole, P1), abs=1e-12)

    def test_path_requires_increasing_t(self):
        s = GeodesicState(make_jacobi_point(0, 0), TangentVector(0, 0))
        with pytest.raises(ValueError):
            GeodesicPath([(0.0, s), (0.0, s)])

    def test_interpolation_path_endpoints(self):
        p1 = make_jacobi_point(0.2, 0.1)
        p2 = make_jacobi_point(-0.5j, -0.3j)
        path = interpolation_path(p1, p2, 100)
        assert path.samples[0][1].pos == p1
        assert abs(path.endpoint().pos.z - p2.z) <= 1e-15

    def test_csv_export(self):
        s0 = GeodesicState(make_jacobi_point(0, 0), TangentVector(0.0, 0.5))
        path = integrate(s0, 1.0, 4, P1)
        buf = io.StringIO()
        path.write_csv(buf, P1)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("t,re_z,im_z,re_w,im_w,re_dz,im_dz,"
                            "re_dw,im_dw,speed")
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[7] == 0.5   # re_dw
        assert first[9] == pytest.approx(math.sqrt(2) * 0.5)

    def test_shooting_recovers_short_geodesic(self):
        start = GeodesicState(make_jacobi_point(0, 0),
                              TangentVector(0.3, 0.2))
        target = integrate(start, 1.0, 400, P1).endpoint().pos
        path = shoot_between(make_jacobi_point(0, 0), target, P1,
                             t_end=1.0, n_steps=400)
        end = path.endpoint().pos
        assert abs(end.z - target.z) <= 1e-8
        assert abs(end.w - target.w) <= 1e-8
