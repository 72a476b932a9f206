import math

import numpy as np
import pytest

from jacobi_cs import (
    BasisIndex,
    InvalidK,
    McConfig,
    ModelParams,
    inner_product_mc,
    invariant_measure_density,
    jacobi_action,
    jacobi_kernel,
    make_jacobi_point,
    parseval_check,
    sample_point,
    weight_rho,
)
from jacobi_cs.geometry import real_jacobian
from jacobi_cs.quadrature import (
    disk_inner_product_gl,
    measure_density_at,
    normalization_constant,
    orthonormality_matrix_mc,
    weight_rho_at,
)
from conftest import random_elements, random_points

PK = ModelParams(1.25, 1.0)


class TestDensities:
    def test_measure_at_center(self):
        assert invariant_measure_density(make_jacobi_point(1j, 0.0), 1.0) == 1.0

    def test_measure_hand_value(self):
        got = invariant_measure_density(make_jacobi_point(0, 0.5), 2.0)
        assert got == pytest.approx(2 / 0.75**3)

    def test_measure_invariance_under_action(self, rng):
        # density(image) * |det real Jacobian| = density(source)
        for e, p in zip(random_elements(rng, 10),
                        random_points(rng, 10, w_radius=0.5)):
            img, _ = jacobi_action(e, p, PK)

            def mapped(x):
                pt, _ = jacobi_action(
                    e, make_jacobi_point(complex(x[0], x[1]), complex(x[2], x[3])), PK)
                return np.array([pt.z.real, pt.z.imag, pt.w.real, pt.w.imag])

            x0 = np.array([p.z.real, p.z.imag, p.w.real, p.w.imag])
            det = abs(np.linalg.det(real_jacobian(mapped, x0)))
            lhs = invariant_measure_density(img, PK.mu) * det
            rhs = invariant_measure_density(p, PK.mu)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_weight_at_origin(self):
        got = weight_rho(make_jacobi_point(0, 0), ModelParams(1.0, 1.0))
        assert got == pytest.approx(1 / (2 * math.pi**2))

    def test_weight_positive(self, rng):
        for p in random_points(rng, 100, z_scale=2.0, w_radius=0.9):
            assert weight_rho(p, PK) > 0.0

    def test_weight_times_kernel_is_constant(self, rng):
        lam = normalization_constant(PK.k)
        for p in random_points(rng, 50, z_scale=1.5, w_radius=0.8):
            got = weight_rho(p, PK) * jacobi_kernel(p, p, PK).real
            assert got == pytest.approx(lam, rel=1e-12)

    def test_degenerate_normalization_rejected(self):
        with pytest.raises(ValueError):
            normalization_constant(0.75)

    def test_array_forms_match_points(self, rng):
        pts = random_points(rng, 40, z_scale=2.0, w_radius=0.9)
        z = np.array([p.z for p in pts]).reshape(8, 5)
        w = np.array([p.w for p in pts]).reshape(8, 5)
        p = np.array([pt.p for pt in pts]).reshape(8, 5)
        rho = weight_rho_at(z, w, p, PK)
        density = measure_density_at(p, PK.mu)
        for i, pt in enumerate(pts):
            assert rho.flat[i] == pytest.approx(weight_rho(pt, PK), rel=1e-14)
            assert density.flat[i] == pytest.approx(
                invariant_measure_density(pt, PK.mu), rel=1e-14)


class TestSampler:
    def test_samples_valid_and_deterministic(self):
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        for _ in range(100):
            p1, q1 = sample_point(PK, rng1)
            p2, q2 = sample_point(PK, rng2)
            assert abs(p1.w) < 1.0 and q1 > 0.0
            assert p1 == p2 and q1 == q2

    def test_mean_weight_is_one(self):
        # normalization self-test of the importance weights
        est = inner_product_mc(BasisIndex(0, 0), BasisIndex(0, 0), PK,
                               McConfig(200_000, 11))
        assert est.std_error < 3e-3
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(100)
        with pytest.raises(ValueError):
            McConfig(10_000, -1)


class TestInnerProducts:
    def test_diagonal_entries(self):
        for idx in (BasisIndex(0, 0), BasisIndex(1, 2)):
            est = inner_product_mc(idx, idx, PK, McConfig(400_000, 5))
            assert est.std_error < 1e-2
            assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_off_diagonal_entry(self):
        est = inner_product_mc(BasisIndex(0, 0), BasisIndex(1, 0), PK,
                               McConfig(400_000, 6))
        assert abs(est.value) <= 3 * est.std_error

    def test_reproducible(self):
        cfg = McConfig(50_000, 42)
        e1 = inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1), PK, cfg)
        e2 = inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1), PK, cfg)
        assert e1.value == e2.value and e1.std_error == e2.std_error

    def test_quarter_shift_required(self):
        with pytest.raises(InvalidK):
            inner_product_mc(BasisIndex(0, 0), BasisIndex(0, 0),
                             ModelParams(1.0, 1.0), McConfig(1000, 0))


class TestGramMatrix:
    def test_small_matrix_close_to_identity(self):
        gram, se = orthonormality_matrix_mc(1, 1, PK, McConfig(200_000, 3))
        target = np.eye(4)
        assert np.all(np.abs(gram - target) <= 4 * np.maximum(se, 1e-12))

    def test_hermitian_by_construction(self):
        gram, _ = orthonormality_matrix_mc(1, 1, PK, McConfig(10_000, 1))
        assert np.allclose(gram, gram.conj().T)


class TestParseval:
    def test_single_basis_function(self):
        res = parseval_check({(0, 0): 1.0}, {(0, 0): 1.0}, PK,
                             McConfig(200_000, 9))
        assert res.exact == 1.0
        assert res.deviation <= 3 * res.estimate.std_error

    def test_orthogonal_combinations(self):
        res = parseval_check({(0, 0): 1.0}, {(2, 1): 1.0}, PK,
                             McConfig(200_000, 10))
        assert res.exact == 0.0
        assert res.deviation <= 3 * res.estimate.std_error

    def test_mixed_combination_exact_value(self):
        c1 = {(0, 0): 1.0, (1, 1): 0.5j}
        c2 = {(1, 1): 2.0, (0, 1): -1.0}
        res = parseval_check(c1, c2, PK, McConfig(200_000, 12))
        assert res.exact == pytest.approx((0.5j).conjugate() * 2.0)
        assert res.deviation <= 3 * res.estimate.std_error

    def test_linearity_same_seed(self):
        cfg = McConfig(50_000, 21)
        base = {(0, 0): 1.0}
        a = parseval_check(base, {(1, 0): 1.0}, PK, cfg)
        b = parseval_check(base, {(0, 1): 1.0}, PK, cfg)
        both = parseval_check(base, {(1, 0): 1.0, (0, 1): 1.0}, PK, cfg)
        assert both.estimate.value == pytest.approx(
            a.estimate.value + b.estimate.value, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parseval_check({}, {(0, 0): 1.0}, PK, McConfig(1000, 0))


class TestDiskMarginal:
    @pytest.mark.parametrize("k_disk", [1.0, 1.5])
    def test_diagonal_orthonormal(self, k_disk):
        for m in range(6):
            got = disk_inner_product_gl(k_disk, m, m)
            assert abs(got - 1.0) <= 1e-6

    def test_off_diagonal_vanishes(self):
        for m1, m2 in ((0, 1), (0, 2), (2, 5)):
            assert abs(disk_inner_product_gl(1.0, m1, m2)) <= 1e-12

    def test_integer_weight_required(self):
        with pytest.raises(InvalidK):
            disk_inner_product_gl(1.2, 0, 0)
