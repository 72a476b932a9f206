import cmath
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_cs import (
    BoundaryEscape,
    BoundaryViolation,
    GeodesicPath,
    GeodesicState,
    ModelParams,
    NonFinite,
    TangentVector,
    ZeroDirection,
    christoffel,
    curve_length,
    disk_geodesic_map,
    fc_particular_solution,
    geodesic_rhs,
    integrate,
    interpolation_path,
    make_jacobi_point,
    mu_zero_solution,
)
from jacobi_cs.geodesics import (
    CHRISTOFFEL_KEYS,
    MAX_GEODESIC_STEPS,
    acceleration_at,
    christoffel_rhs,
    step_count,
)
from jacobi_cs import verify
from jacobi_cs.verify import random_elements, random_points

P1 = ModelParams(1.0, 1.0)


class TestChristoffel:
    def test_at_origin(self):
        g = dict(zip(CHRISTOFFEL_KEYS, christoffel(make_jacobi_point(0, 0), P1)))
        lam = P1.mu / (2 * P1.k)
        assert g.pop("g_wzz") == pytest.approx(lam)
        assert list(g.values()) == [0.0] * 5

    def test_hand_values(self):
        g = dict(zip(CHRISTOFFEL_KEYS, christoffel(make_jacobi_point(1.0, 0.5), P1)))
        assert g["g_zzz"] == pytest.approx(-1.0)
        assert g["g_wzz"] == pytest.approx(0.5)
        assert g["g_zzw"] == pytest.approx(-4 / 3)
        assert g["g_wwz"] == pytest.approx(1.0)
        assert g["g_zww"] == pytest.approx(-4.0)
        assert g["g_www"] == pytest.approx(10 / 3)


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
        worst = verify.flat_limit_deviation([(0.4 - 0.3j, 0.2 + 0.1j, 0.8)],
                                            ModelParams(1.0, 0.0), 2.0, 2000, 100)
        assert worst <= 1e-8

    def test_pure_disk_start_matches_map_for_any_mu(self):
        start = GeodesicState(make_jacobi_point(0, 0), TangentVector(0.0, 0.9))
        path = integrate(start, 2.0, 2000, P1)
        worst = max(abs(w - disk_geodesic_map(0.9, t))
                    for t, w in zip(path.t[::100].tolist(), path.y[::100, 1].tolist()))
        assert worst <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(k=st.floats(0.75, 3.0), mu=st.floats(0.1, 3.0),
           z=st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
           w=st.builds(cmath.rect, st.floats(0.0, 0.6), st.floats(0.0, 2 * math.pi)),
           dz=st.builds(cmath.rect, st.floats(0.0, 0.5), st.floats(0.0, 2 * math.pi)),
           dw=st.builds(cmath.rect, st.floats(0.0, 0.5), st.floats(0.0, 2 * math.pi)))
    def test_speed_conserved_on_random_short_runs(self, k, mu, z, w, dz, dw):
        start = GeodesicState(make_jacobi_point(z, w), TangentVector(dz, dw))
        assert verify.energy_drift(start, ModelParams(k, mu), 0.5, 100) <= 1e-8

    def test_speed_conserved(self):
        s0 = GeodesicState(make_jacobi_point(0.3 + 0.2j, 0.1 - 0.2j),
                           TangentVector(0.5 - 0.1j, 0.25j))
        assert verify.energy_drift(s0, P1, 2.0, 2000) < 1e-8

    def test_boundary_escape(self):
        s0 = GeodesicState(make_jacobi_point(0.0, 0.9), TangentVector(0.0, 2.0))
        with pytest.raises(BoundaryEscape) as err:
            integrate(s0, 2.0, 2000, ModelParams(1.0, 0.0))
        assert 0.0 < err.value.t <= 2.0
        # a stage leaves the disk: the escape carries the start of that step
        assert err.value.t == 0.877     # 2 * 877 / 2000, not 877 sums of 0.001
        assert str(err.value) == "trajectory left the disk at t=0.877"
        assert err.value.__cause__ is None

    def test_step_leaving_disk_escapes(self):
        # every stage stays inside, the accepted first step does not; t is
        # 1.2 * 1 / 3, which rounds below 0.4
        s0 = GeodesicState(make_jacobi_point(0.0, 0.7), TangentVector(0.0, 0.8 - 0.8j))
        with pytest.raises(BoundaryEscape) as err:
            integrate(s0, 1.2, 3, P1)
        assert err.value.t == 0.39999999999999997
        assert str(err.value) == "step left the disk at t=0.4"
        assert isinstance(err.value.__cause__, BoundaryViolation)

    def test_step_to_non_finite_position_escapes(self):
        # mu = 0 times an overflowed C^2 makes z NaN while w stays inside
        s0 = GeodesicState(make_jacobi_point(0.0, 0.5), TangentVector(1e200, 0.1))
        with pytest.raises(BoundaryEscape) as err:
            integrate(s0, 0.1, 10, ModelParams(1.0, 0.0))
        assert err.value.t == 0.01
        assert str(err.value) == "step left the disk at t=0.01"
        assert isinstance(err.value.__cause__, NonFinite)

    def test_velocity_overflow_is_non_finite(self):
        # the four d2w stages of about -8.5e307 sum past the largest float
        s0 = GeodesicState(make_jacobi_point(0.0, 0.0), TangentVector(1.3e154, 0.0))
        with pytest.raises(OverflowError, match=r"^velocity overflowed at t=1e-300$"):
            integrate(s0, 1e-300, 1, P1)

    def test_path_memory_per_sample(self):
        # 16 B for each of z, w, dz, dw and 8 B for t; when the columns were
        # built from lists every sample was also a Python float and four
        # complex objects.  tracemalloc makes the run about 20x slower, so
        # 10^4 steps stand in for 10^5: per sample they held 72.3 B (72.0 B)
        # and peaked at 276 B (274 B)
        s0 = GeodesicState(make_jacobi_point(0.3 - 0.2j, 0.1 + 0.2j),
                           TangentVector(0.4 + 0.1j, -0.2 + 0.3j))
        n_steps = 10_000
        tracemalloc.start()
        try:
            path = integrate(s0, 2.0, n_steps, P1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(path) == n_steps + 1
        assert held / len(path) <= 96
        assert peak / len(path) <= 400

    def test_path_built_in_place(self):
        # the columns are allocated once, and at most 1,024 steps at a time
        # are Python numbers (160 B per step): 10^4 steps peak at 94 B per
        # sample, 10^5 at 82 B
        s0 = GeodesicState(make_jacobi_point(0.3 - 0.2j, 0.1 + 0.2j),
                           TangentVector(0.4 + 0.1j, -0.2 + 0.3j))
        n_steps = 10_000
        tracemalloc.start()
        try:
            path = integrate(s0, 2.0, n_steps, P1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(path) <= 120

    def test_action_covariance(self, rng):
        e = random_elements(rng, 1)[0]
        s0 = GeodesicState(make_jacobi_point(0.2 - 0.1j, 0.15 + 0.1j),
                           TangentVector(0.3 + 0.1j, 0.15j))
        assert verify.action_covariance_deviation(e, s0, P1, 1.0, 1000, 100) <= 1e-6


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
        assert verify.constant_eta_deviation(P1) < 1e-9

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

    def test_length_sums_trapezoids_in_sample_order(self):
        # the order of earlier releases: a pairwise sum moves the length by
        # up to 6e-14 relative on 2000-step paths
        s0 = GeodesicState(make_jacobi_point(0.1, 0.05j), TangentVector(0.4, 0.2))
        path = integrate(s0, 1.0, 1000, P1)
        speeds = path.speeds(P1)
        t, v = path.t.tolist(), speeds.tolist()
        total = 0.0
        for t1, t2, v1, v2 in zip(t, t[1:], v, v[1:]):
            total += 0.5 * (v1 + v2) * (t2 - t1)
        assert path.length(speeds) == total == curve_length(path, P1)

    def test_path_requires_increasing_t(self):
        with pytest.raises(ValueError):
            GeodesicPath(np.array([0.0, 0.0]), np.zeros((2, 4), dtype=complex))

    def test_interpolation_path_endpoints(self):
        p1 = make_jacobi_point(0.2, 0.1)
        p2 = make_jacobi_point(-0.5j, -0.3j)
        path = interpolation_path(p1, p2, 100)
        assert path.y[0, :2].tolist() == [p1.z, p1.w]
        assert abs(path.endpoint().pos.z - p2.z) <= 1e-15

    def test_csv_export(self):
        s0 = GeodesicState(make_jacobi_point(0, 0), TangentVector(0.0, 0.5))
        path = integrate(s0, 1.0, 4, P1)
        buf = io.StringIO()
        path.write_csv(buf, path.speeds(P1))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("t,re_z,im_z,re_w,im_w,re_dz,im_dz,"
                            "re_dw,im_dw,speed")
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[7] == 0.5   # re_dw
        assert first[9] == pytest.approx(math.sqrt(2) * 0.5)


class TestStepCount:
    def test_rounds_and_keeps_one_step(self):
        assert step_count(2.0, 1e-3) == 2000
        assert step_count(1e-9, 1e-3) == 1

    @pytest.mark.parametrize("rk4_step", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_bad_rk4_step(self, rk4_step):
        with pytest.raises(ValueError, match="rk4_step"):
            step_count(1.0, rk4_step)

    def test_rejects_count_over_limit(self):
        with pytest.raises(ValueError, match=str(MAX_GEODESIC_STEPS)):
            step_count(2.0, 1.0 / MAX_GEODESIC_STEPS)
