import math

import numpy as np
import pytest
from hypothesis import given, settings

from jacobi_cs import (
    JacobiGroupElement,
    ModelParams,
    SU11Element,
    TangentVector,
    action_eta_coords,
    disk_geodesic_map,
    fc_forward,
    fc_inverse,
    jacobi_action,
    make_jacobi_point,
    mobius,
)
from jacobi_cs.geometry import real_jacobian
from jacobi_cs.group import action_pushforward
from jacobi_cs import verify
from jacobi_cs.verify import random_elements, random_points
from conftest import element_strategy, point_strategy

P1 = ModelParams(1.0, 1.0)


class TestSU11:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            SU11Element(1.0, 0.5)

    def test_identity(self):
        assert SU11Element.identity().a == 1.0

    def test_compose_stays_in_group(self, rng):
        els = random_elements(rng, 20, rho_max=1.2)
        for e1, e2 in zip(els[::2], els[1::2]):
            g = e1.g.compose(e2.g)
            assert abs(abs(g.a) ** 2 - abs(g.b) ** 2 - 1) <= 1e-12


class TestMobius:
    def test_identity(self):
        assert mobius(SU11Element.identity(), 0.3 - 0.1j) == 0.3 - 0.1j

    def test_hand_value(self):
        assert mobius(SU11Element(1.25, 0.75), 0.0) == pytest.approx(0.6)

    def test_composition_law(self, rng):
        els = random_elements(rng, 30, rho_max=1.0)
        pts = random_points(rng, 15, w_radius=0.8)
        for e1, e2, p in zip(els[::2], els[1::2], pts):
            lhs = mobius(e1.g, mobius(e2.g, p.w))
            rhs = mobius(e1.g.compose(e2.g), p.w)
            assert abs(lhs - rhs) <= 1e-12

    def test_stays_in_disk(self, rng):
        for e, p in zip(random_elements(rng, 50, rho_max=1.5),
                        random_points(rng, 50, w_radius=0.95)):
            assert abs(mobius(e.g, p.w)) < 1.0


class TestJacobiAction:
    def test_identity_element(self):
        p = make_jacobi_point(1 - 0.5j, 0.3j)
        p1, lam = jacobi_action(JacobiGroupElement.identity(), p, P1)
        assert p1.z == pytest.approx(p.z) and p1.w == pytest.approx(p.w)
        assert lam == pytest.approx(1.0)

    def test_pure_translation(self):
        e = JacobiGroupElement(SU11Element.identity(), 0.7, 0.0)
        p1, _ = jacobi_action(e, make_jacobi_point(1.5, 0.0), P1)
        assert p1.z == pytest.approx(2.2)
        assert p1.w == 0.0

    def test_disk_rotation_hand_value(self):
        e = JacobiGroupElement(SU11Element(1.25, 0.75), 0.0, 0.0)
        for k in (1.0, 2.0):
            p1, lam = jacobi_action(e, make_jacobi_point(0, 0), ModelParams(k, 1.0))
            assert p1.z == 0.0
            assert p1.w == pytest.approx(0.6)
            assert lam == pytest.approx(0.8 ** (2 * k))

    def test_kernel_equivariance(self, rng):
        pts = random_points(rng, 40, z_scale=1.0, w_radius=0.5)
        worst, _, _ = verify.group_invariance_deviation(
            random_elements(rng, 20), pts[::2], pts[1::2], P1)
        assert worst <= 1e-10

    def test_central_phase_only_rotates(self, rng):
        p = make_jacobi_point(0.5, 0.2)
        e = JacobiGroupElement(SU11Element.identity(), 0.3 + 0.1j, 0.8)
        e0 = JacobiGroupElement(e.g, e.alpha, 0.0)
        p1, lam = jacobi_action(e, p, P1)
        p0, lam0 = jacobi_action(e0, p, P1)
        assert p1 == p0
        assert abs(lam) == pytest.approx(abs(lam0))
        assert lam == pytest.approx(lam0 * np.exp(1j * P1.mu * 0.8))

    def test_berezin_and_diastasis_invariance(self, rng):
        pts = random_points(rng, 40, z_scale=1.0, w_radius=0.5)
        _, worst_b, worst_d = verify.group_invariance_deviation(
            random_elements(rng, 20), pts[::2], pts[1::2], P1)
        assert worst_b <= 1e-10 and worst_d <= 1e-10

    def test_metric_invariance_numerical_pullback(self, rng):
        assert verify.metric_invariance_deviation(
            random_elements(rng, 10), random_points(rng, 10, w_radius=0.5), P1) <= 1e-5

    def test_pushforward_matches_numerical_jacobian(self, rng):
        for e, p in zip(random_elements(rng, 5), random_points(rng, 5, w_radius=0.5)):
            v = TangentVector(0.3 - 0.2j, 0.1 + 0.05j)

            def mapped(z, w):
                pt, _ = jacobi_action(e, make_jacobi_point(z, w), P1)
                return pt.z, pt.w

            jac = real_jacobian(mapped, p.z, p.w)
            vr = jac @ np.array([v.dz.real, v.dz.imag, v.dw.real, v.dw.imag])
            got = action_pushforward(e, p, v)
            assert got.dz == pytest.approx(complex(vr[0], vr[1]), abs=1e-8)
            assert got.dw == pytest.approx(complex(vr[2], vr[3]), abs=1e-8)


class TestInvarianceProperties:
    @settings(max_examples=100, deadline=None)
    @given(e=element_strategy(), p1=point_strategy(), p2=point_strategy())
    def test_berezin_and_diastasis_invariant(self, e, p1, p2):
        _, worst_b, worst_d = verify.group_invariance_deviation([e], [p1], [p2], P1)
        assert worst_b <= 1e-10 and worst_d <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(p=point_strategy())
    def test_split_roundtrip(self, p):
        assert verify.split_roundtrip_deviation([p]) <= 1e-12


class TestCoordinateChange:
    def test_forward_identity_at_zero_w(self):
        p = fc_forward(2 - 1j, 0.0)
        assert p.z == 2 - 1j and p.w == 0.0

    def test_forward_hand_value(self):
        assert fc_forward(2.0, 0.5).z == pytest.approx(1.0)

    def test_forward_zero_eta(self):
        p = fc_forward(0.0, 0.3j)
        assert p.z == 0.0 and p.w == 0.3j

    def test_inverse_hand_value(self):
        eta, w = fc_inverse(make_jacobi_point(1.0, 0.5))
        assert eta == pytest.approx(2.0) and w == 0.5

    def test_roundtrip_many(self, rng):
        for p in random_points(rng, 10_000, z_scale=2.0, w_radius=0.9):
            eta, w = fc_inverse(p)
            back = fc_forward(eta, w)
            assert abs(back.z - p.z) <= 1e-12 * max(1.0, abs(p.z))
            assert back.w == p.w

    def test_action_in_split_coordinates(self, rng):
        identity = JacobiGroupElement.identity()
        assert action_eta_coords(identity, 0.7 - 0.2j, 0.3j) == (0.7 - 0.2j, 0.3j)
        e_shift = JacobiGroupElement(SU11Element.identity(), 1.0, 0.0)
        eta1, w1 = action_eta_coords(e_shift, 0.0, 0.0)
        assert eta1 == pytest.approx(1.0) and w1 == 0.0
        # commuting square: transform in split coordinates, map back
        for e, p in zip(random_elements(rng, 15), random_points(rng, 15, w_radius=0.5)):
            eta, w = fc_inverse(p)
            direct, _ = jacobi_action(e, p, P1)
            via = fc_forward(*action_eta_coords(e, eta, w))
            assert abs(direct.z - via.z) <= 1e-10 * max(1.0, abs(direct.z))
            assert abs(direct.w - via.w) <= 1e-10

    def test_two_form_pullback_splits(self, rng):
        # the change is not holomorphic, so the pullback uses the full real
        # Jacobian; the two-form splits into exactly (mu, 0, 2k / P^2)
        cross, blocks = verify.split_coordinates_deviation(
            random_points(rng, 20, z_scale=1.2, w_radius=0.7), P1)
        assert cross <= 1e-10
        assert blocks <= 1e-8


class TestDiskGeodesicMap:
    def test_zero_direction(self):
        assert disk_geodesic_map(0.0, 5.0) == 0.0

    def test_hand_value(self):
        assert disk_geodesic_map(1.0, 1.0) == pytest.approx(math.tanh(1.0))

    def test_stays_bounded(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t = rng.uniform(0, 3)
            assert abs(disk_geodesic_map(z, t)) < 1.0
