import math

import pytest

from jacobi_cs import (
    DimensionMismatch,
    EndpointMismatch,
    ModelParams,
    ProjectiveVector,
    TangentVector,
    TruncationOrder,
    GeodesicState,
    cauchy_check,
    cayley_distance,
    cs_angle,
    distance_angle_inequality_check,
    embed,
    fubini_study_pullback_check,
    integrate,
    interpolation_path,
    jacobi_action,
    jacobi_kernel,
    berezin_kernel,
    make_jacobi_point,
)
from jacobi_cs.embedding import basis_order, projective_inner
from conftest import random_elements, random_points

PK = ModelParams(1.25, 1.0)
TR = TruncationOrder(40, 40)


class TestEmbed:
    def test_origin_is_first_basis_vector(self):
        v = embed(make_jacobi_point(0, 0), PK, TR)
        assert v.components[0] == 1.0
        assert all(c == 0 for c in v.components[1:])

    def test_component_count(self):
        v = embed(make_jacobi_point(0.1, 0.1), PK, TruncationOrder(3, 5))
        assert len(v) == 4 * 6

    def test_order_is_total_level_then_flat(self):
        order = basis_order(TruncationOrder(2, 2))
        assert order[0] == (0, 0)
        levels = [n + m for n, m in order]
        assert levels == sorted(levels)
        assert order.index((0, 1)) < order.index((1, 0))

    def test_norm_converges_to_kernel(self, rng):
        for p in random_points(rng, 10, z_scale=1.0, w_radius=0.5):
            target = jacobi_kernel(p, p, PK).real
            got = embed(p, PK, TR).norm() ** 2
            assert abs(got - target) <= 1e-8 * target


class TestCayleyDistance:
    def test_self_distance_zero(self):
        v = ProjectiveVector((1.0, 0.5j, 0.25))
        assert cayley_distance(v, v) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_vectors(self):
        v1 = ProjectiveVector((1.0, 0.0))
        v2 = ProjectiveVector((0.0, 1.0))
        assert cayley_distance(v1, v2) == pytest.approx(math.pi / 2)

    def test_scale_invariance(self, rng):
        for _ in range(20):
            v1 = ProjectiveVector(tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)))
            v2 = ProjectiveVector(tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)))
            lam = complex(rng.uniform(0.1, 3), rng.uniform(-2, 2))
            scaled = ProjectiveVector(tuple(lam * c for c in v1.components))
            assert cayley_distance(scaled, v2) == pytest.approx(
                cayley_distance(v1, v2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cayley_distance(ProjectiveVector((1.0,)), ProjectiveVector((1.0, 0.0)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveVector((0.0, 0.0))


class TestAngle:
    def test_zero_on_diagonal(self):
        p = make_jacobi_point(0.3, 0.2j)
        assert cs_angle(p, p, PK) == pytest.approx(0.0, abs=1e-7)

    def test_matches_projective_distance(self):
        p1 = make_jacobi_point(0.0, 0.5)
        p2 = make_jacobi_point(0.0, 0.0)
        got = cs_angle(p1, p2, PK)
        want = cayley_distance(embed(p1, PK, TR), embed(p2, PK, TR))
        assert abs(got - want) <= 1e-8

    def test_matches_projective_distance_random(self, rng):
        pts = random_points(rng, 20, z_scale=1.0, w_radius=0.5)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            got = cs_angle(p1, p2, PK)
            want = cayley_distance(embed(p1, PK, TR), embed(p2, PK, TR))
            assert abs(got - want) <= 1e-8

    def test_range_and_symmetry(self, rng):
        pts = random_points(rng, 40, z_scale=1.5, w_radius=0.8)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            theta = cs_angle(p1, p2, PK)
            assert 0.0 <= theta <= math.pi / 2
            assert theta == pytest.approx(cs_angle(p2, p1, PK), abs=1e-12)

    def test_invariant_under_action(self, rng):
        pts = random_points(rng, 20, z_scale=1.0, w_radius=0.5)
        for e, (p1, p2) in zip(random_elements(rng, 10),
                               zip(pts[::2], pts[1::2])):
            q1, _ = jacobi_action(e, p1, PK)
            q2, _ = jacobi_action(e, p2, PK)
            assert abs(cs_angle(q1, q2, PK) - cs_angle(p1, p2, PK)) <= 1e-9

    def test_berezin_is_cos_squared_of_distance(self, rng):
        pts = random_points(rng, 10, z_scale=1.0, w_radius=0.5)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            d = cayley_distance(embed(p1, PK, TR), embed(p2, PK, TR))
            assert berezin_kernel(p1, p2, PK) == pytest.approx(
                math.cos(d) ** 2, abs=1e-8)


class TestCauchyFormula:
    def test_diagonal(self):
        p = make_jacobi_point(0.4, 0.3j)
        assert cauchy_check(p, p, PK, TR) <= 1e-10

    def test_random_pairs(self, rng):
        pts = random_points(rng, 20, z_scale=1.0, w_radius=0.5)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            assert cauchy_check(p1, p2, PK, TR) < 1e-8

    def test_diagonal_deviation_is_exact(self):
        # both sides normalize to exactly 1 on the diagonal at any order
        p = make_jacobi_point(0.8, 0.5)
        for n in (2, 12, 40):
            assert cauchy_check(p, p, PK, TruncationOrder(n, n)) <= 1e-14

    def test_deviation_shrinks_with_truncation(self):
        p1 = make_jacobi_point(0.8, 0.5)
        p2 = make_jacobi_point(0.3 - 0.4j, -0.35j)
        devs = [cauchy_check(p1, p2, PK, TruncationOrder(n, n))
                for n in (2, 6, 12, 24, 40)]
        # strictly decreasing until the rounding floor
        assert all(b < a or b < 1e-12 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-8

    def test_pairing_antilinear_first(self):
        v1 = ProjectiveVector((1j, 0.0))
        v2 = ProjectiveVector((1.0, 0.0))
        assert projective_inner(v1, v2) == pytest.approx(-1j)


class TestFubiniStudyPullback:
    def test_at_origin(self):
        assert fubini_study_pullback_check(
            make_jacobi_point(0, 0), PK, TR) < 1e-6

    def test_off_origin(self):
        assert fubini_study_pullback_check(
            make_jacobi_point(0.5, 0.3), PK, TR) < 1e-5

    def test_truncation_error_visible_when_shallow(self):
        p = make_jacobi_point(0.5, 0.3)
        shallow = fubini_study_pullback_check(p, PK, TruncationOrder(2, 2))
        deep = fubini_study_pullback_check(p, PK, TR)
        assert shallow > 100 * deep


class TestLengthAngleInequality:
    def test_trivial_same_point(self):
        p = make_jacobi_point(0.2, 0.1)
        path = interpolation_path(p, p, 10)
        rep = distance_angle_inequality_check(p, p, PK, path)
        assert rep.passed and rep.length == pytest.approx(0.0, abs=1e-12)

    def test_disk_geodesic_hand_value(self):
        # radial geodesic reaching tanh(1): length sqrt(2k) * 1
        p1 = make_jacobi_point(0, 0)
        start = GeodesicState(p1, TangentVector(0.0, 1.0))
        path = integrate(start, 1.0, 1000, PK)
        p2 = path.endpoint().pos
        assert p2.w == pytest.approx(math.tanh(1.0), rel=1e-8)
        rep = distance_angle_inequality_check(p1, p2, PK, path)
        assert rep.passed
        assert rep.length == pytest.approx(math.sqrt(2 * PK.k), rel=1e-8)
        assert rep.angle <= rep.length

    def test_random_interpolation_paths(self, rng):
        pts = random_points(rng, 40, z_scale=1.0, w_radius=0.5)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            path = interpolation_path(p1, p2, 200)
            rep = distance_angle_inequality_check(p1, p2, PK, path)
            assert rep.passed

    def test_endpoint_mismatch(self):
        p1 = make_jacobi_point(0, 0)
        p2 = make_jacobi_point(0.5, 0.2)
        path = interpolation_path(p1, make_jacobi_point(0.4, 0.2), 20)
        with pytest.raises(EndpointMismatch):
            distance_angle_inequality_check(p1, p2, PK, path)
