import math

import numpy as np
import pytest

from jacobi_cs import (
    BoundaryProximity,
    HermitianMetric2,
    ModelParams,
    TangentVector,
    WirtingerStencil,
    kahler_condition_check,
    make_jacobi_point,
    metric,
    metric_fd,
    ricci_fd,
)
from jacobi_cs.core import p_at
from jacobi_cs.geometry import (
    hermitian_to_symplectic,
    metric_at,
    resolve_step,
    ricci_at,
    scalar_curvature_at,
    speed_at,
    symplectic_to_hermitian,
    volume_density_at,
)
from jacobi_cs import verify
from jacobi_cs.verify import random_points

P1 = ModelParams(1.0, 1.0)
GRID = [ModelParams(k, mu) for k in (1.0, 1.5, 2.0) for mu in (0.5, 1.0, 2.0)]


def scalar_curvature(z, w, params):
    p = p_at(w)
    return scalar_curvature_at(*metric_at(z, w, p, params), ricci_at(p)[2])


def metric_gap(h1, h2):
    return max(abs(h1.h_zz - h2.h_zz), abs(h1.h_zw - h2.h_zw),
               abs(h1.h_ww - h2.h_ww))


class TestMetric:
    def test_origin(self):
        h = metric(make_jacobi_point(0, 0), P1)
        assert (h.h_zz, h.h_zw, h.h_ww) == (1.0, 0.0, 2.0)

    def test_hand_value(self):
        h = metric(make_jacobi_point(1.0, 0.5), P1)
        assert h.h_zz == pytest.approx(4 / 3)
        assert h.h_zw == pytest.approx(8 / 3)
        assert h.h_ww == pytest.approx(80 / 9)

    def test_positive_definite_everywhere(self, rng):
        # constructor enforces positivity, so surviving construction is the assert
        for p in random_points(rng, 10_000, z_scale=2.0, w_radius=0.95):
            metric(p, P1)


class TestMetricFiniteDifference:
    def test_matches_at_origin(self):
        gap = metric_gap(metric_fd(make_jacobi_point(0, 0), P1),
                         metric(make_jacobi_point(0, 0), P1))
        assert gap <= 1e-6

    def test_matches_hand_value(self):
        p = make_jacobi_point(1.0, 0.5)
        hf = metric_fd(p, P1)
        assert hf.h_zz == pytest.approx(4 / 3, rel=1e-6)
        assert hf.h_zw == pytest.approx(8 / 3, rel=1e-6)
        assert hf.h_ww == pytest.approx(80 / 9, rel=1e-6)

    def test_agreement_on_grid(self, rng):
        cases = [(params, random_points(rng, 12, z_scale=1.0, w_radius=0.6))
                 for params in GRID]
        assert verify.metric_hessian_deviation(cases, WirtingerStencil()) <= 1e-6

    def test_boundary_proximity(self):
        p = make_jacobi_point(0.0, 0.999997)
        with pytest.raises(BoundaryProximity, match=r"step >= 1e-06$"):
            metric_fd(p, P1, WirtingerStencil(1e-4))
        # a step of at least 1e-6 halves down to 1e-6, a smaller one down to
        # the smallest fd_step setting, 1e-7
        near = make_jacobi_point(0.1, 0.9999992)
        with pytest.raises(BoundaryProximity, match=r"step >= 1e-06$"):
            resolve_step(near, WirtingerStencil(1e-6))
        assert resolve_step(near, WirtingerStencil(5e-7)) == 2.5e-7
        with pytest.raises(BoundaryProximity, match=r"step >= 1e-07$"):
            resolve_step(make_jacobi_point(0.1, 0.9999999), WirtingerStencil(5e-7))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            WirtingerStencil(0.1)
        with pytest.raises(ValueError):
            WirtingerStencil(1e-9)


class TestDeterminant:
    def test_origin(self):
        assert metric(make_jacobi_point(0, 0), P1).det() == pytest.approx(2.0)

    def test_hand_value(self):
        got = metric(make_jacobi_point(1.0, 0.5), P1).det()
        assert got == pytest.approx(128 / 27, rel=1e-12)

    def test_closed_form_and_z_independence(self, rng):
        for p in random_points(rng, 50, z_scale=2.0, w_radius=0.8):
            det = metric(p, P1).det()
            assert det == pytest.approx(2 / p.p**3, rel=1e-12)
            at_zero_z = metric(make_jacobi_point(0.0, p.w), P1).det()
            assert det == pytest.approx(at_zero_z, rel=1e-12)


class TestRicci:
    def test_at_origin(self):
        assert ricci_at(1.0) == (0.0, 0.0, -3.0)

    def test_hand_value(self):
        assert ricci_at(p_at(0.5))[2] == pytest.approx(-3 / 0.5625)

    def test_only_disk_component(self, rng):
        for p in random_points(rng, 50, z_scale=2.0, w_radius=0.9):
            r_zz, r_zw, r_ww = ricci_at(p.p)
            assert r_zz == 0.0 and r_zw == 0.0 and r_ww < 0.0

    def test_matches_log_det_hessian(self, rng):
        for p in random_points(rng, 10, z_scale=1.0, w_radius=0.6):
            (c_zz, c_zw, c_ww), (f_zz, f_zw, f_ww) = ricci_at(p.p), ricci_fd(p, P1)
            assert abs(c_zz - f_zz) <= 1e-6
            assert abs(c_zw - f_zw) <= 1e-6
            assert abs(c_ww - f_ww) <= 1e-6 * abs(c_ww)


class TestScalarCurvature:
    @pytest.mark.parametrize("k,want", [(1.0, -1.5), (2.0, -0.75)])
    def test_reference_values(self, k, want):
        got = scalar_curvature(0.7 - 0.1j, 0.2 + 0.4j, ModelParams(k, 1.0))
        assert got == pytest.approx(want)

    def test_constant_over_points_and_mu(self):
        a = scalar_curvature(0j, 0j, ModelParams(1.0, 1.0))
        b = scalar_curvature(1 + 1j, 0.4 - 0.2j, ModelParams(1.0, 2.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_variance_over_sample(self, rng):
        values = [scalar_curvature(p.z, p.w, ModelParams(1.5, 0.5))
                  for p in random_points(rng, 100, z_scale=1.5, w_radius=0.8)]
        assert np.var(values) < 1e-18
        assert np.mean(values) == pytest.approx(-1.0)


class TestVolume:
    def test_origin(self):
        assert volume_density_at(1.0, P1) == pytest.approx(4.0)

    def test_hand_value(self):
        assert volume_density_at(p_at(0.5), P1) == pytest.approx(4 / 0.75**3)

    def test_twice_determinant(self, rng):
        for p in random_points(rng, 50, z_scale=2.0, w_radius=0.9):
            assert volume_density_at(p.p, P1) == pytest.approx(
                2 * metric(p, P1).det(), rel=1e-12)


class TestTangentNorm:
    def test_zero_vector(self):
        assert speed_at(0.5 + 0j, 0.5j, p_at(0.5j), 0j, 0j, P1) == 0.0

    def test_unit_directions_at_origin(self):
        assert speed_at(0j, 0j, 1.0, 1 + 0j, 0j, P1) == pytest.approx(1.0)
        assert speed_at(0j, 0j, 1.0, 0j, 1 + 0j, P1) == pytest.approx(math.sqrt(2))

    def test_matches_quadratic_form(self, rng):
        for p in random_points(rng, 20):
            v = TangentVector(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                              complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            h = metric(p, P1)
            want = (h.h_zz * abs(v.dz) ** 2
                    + 2 * (h.h_zw * v.dz * v.dw.conjugate()).real
                    + h.h_ww * abs(v.dw) ** 2)
            speed = speed_at(p.z, p.w, p.p, v.dz, v.dw, P1)
            assert speed ** 2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("params", [P1, ModelParams(1.75, 2.5)])
    def test_speed_at_arrays_match_points(self, rng, params):
        pts = random_points(rng, 400)
        vel = [TangentVector(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
               for _ in pts]
        z, w, p = (np.array([getattr(pt, a) for pt in pts]).reshape(20, 20)
                   for a in ("z", "w", "p"))
        dz, dw = (np.array([getattr(v, a) for v in vel]).reshape(20, 20)
                  for a in ("dz", "dw"))
        speeds = speed_at(z, w, p, dz, dw, params)
        assert speeds.shape == (20, 20)
        for i, (pt, v) in enumerate(zip(pts, vel)):
            want = float(speed_at(pt.z, pt.w, pt.p, v.dz, v.dw, params))
            h = metric(pt, params)
            # numpy's complex products round apart from Python's in the
            # metric; the quadratic form magnifies that by its condition number
            cond = (h.h_zz * abs(v.dz) ** 2 + 2 * abs(h.h_zw * v.dz * v.dw)
                    + h.h_ww * abs(v.dw) ** 2) / want ** 2
            assert abs(speeds.flat[i] - want) <= 4 * cond * math.ulp(want)

    def test_speed_at_degenerate_metric_raises_as_point(self):
        params = ModelParams(1.0, 0.0)      # h_zz = 0
        pt = make_jacobi_point(0.5, 0.1)
        with pytest.raises(ValueError) as scalar:
            metric(pt, params)
        with pytest.raises(ValueError) as batched:
            speed_at(np.array([pt.z]), np.array([pt.w]), np.array([pt.p]),
                     np.array([1j]), np.array([0j]), params)
        assert str(batched.value) == str(scalar.value)


class TestKahlerCondition:
    def test_holds_at_origin(self):
        assert kahler_condition_check(make_jacobi_point(0, 0), P1) < 1e-6

    def test_holds_off_origin(self):
        got = kahler_condition_check(make_jacobi_point(1 + 1j, 0.3 + 0.2j),
                                     ModelParams(2.0, 0.5))
        assert got < 1e-6

    def test_negative_control(self):
        # corrupt the mixed coefficient with a holomorphic w-term: its
        # w-derivative no longer matches anything in the pure-w column
        def corrupted(pt, params):
            h = metric(pt, params)
            return HermitianMetric2(h.h_zz, h.h_zw + 0.3 * pt.w, h.h_ww)

        got = kahler_condition_check(make_jacobi_point(0.4, 0.2), P1,
                                     metric_fn=corrupted)
        assert got > 0.01


class TestNonEinstein:
    def test_witness_everywhere(self, rng):
        for p in random_points(rng, 100, z_scale=1.5, w_radius=0.9):
            h = metric(p, P1)
            r_zz, _, r_ww = ricci_at(p.p)
            assert r_zz == 0.0
            assert h.h_zz > 0.0
            assert r_ww < 0.0


class TestFormPackaging:
    def test_symplectic_roundtrip(self, rng):
        for _ in range(20):
            h = HermitianMetric2(rng.uniform(0.5, 2),
                                 complex(rng.uniform(-0.4, 0.4),
                                         rng.uniform(-0.4, 0.4)),
                                 rng.uniform(1, 3))
            omega = hermitian_to_symplectic(h)
            assert np.allclose(omega, -omega.T)
            h_zz, h_zw, h_ww, defect = symplectic_to_hermitian(omega)
            assert (h_zz, h_zw, h_ww) == (h.h_zz, h.h_zw, h.h_ww)
            assert defect == 0.0
