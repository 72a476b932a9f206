import math
import tracemalloc

import numpy as np
import pytest

from jacobi_cs import (
    BasisIndex,
    InvalidK,
    McConfig,
    ModelParams,
    inner_product_mc,
    jacobi_action,
    jacobi_kernel,
    make_jacobi_point,
    sample_point,
)
from jacobi_cs import quadrature
from jacobi_cs.geometry import real_jacobian
from jacobi_cs.quadrature import (
    disk_inner_product_gl,
    measure_density_at,
    normalization_constant,
    orthonormality_matrix_mc,
    weight_rho_at,
)
from jacobi_cs.verify import random_elements, random_points

PK = ModelParams(1.25, 1.0)


class TestDensities:
    def test_measure_at_center(self):
        assert measure_density_at(1.0, 1.0) == 1.0

    def test_measure_hand_value(self):
        got = measure_density_at(1 - 0.5**2, 2.0)
        assert got == pytest.approx(2 / 0.75**3)

    def test_measure_invariance_under_action(self, rng):
        # density(image) * |det real Jacobian| = density(source)
        for e, p in zip(random_elements(rng, 10),
                        random_points(rng, 10, w_radius=0.5)):
            img, _ = jacobi_action(e, p, PK)

            def mapped(z, w):
                pt, _ = jacobi_action(e, make_jacobi_point(z, w), PK)
                return pt.z, pt.w

            det = abs(np.linalg.det(real_jacobian(mapped, p.z, p.w)))
            lhs = measure_density_at(img.p, PK.mu) * det
            rhs = measure_density_at(p.p, PK.mu)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_weight_at_origin(self):
        got = weight_rho_at(0j, 0j, 1.0, ModelParams(1.0, 1.0))
        assert got == pytest.approx(1 / (2 * math.pi**2))

    def test_weight_positive(self, rng):
        for p in random_points(rng, 100, z_scale=2.0, w_radius=0.9):
            assert weight_rho_at(p.z, p.w, p.p, PK) > 0.0

    def test_weight_times_kernel_is_constant(self, rng):
        lam = normalization_constant(PK.k)
        for p in random_points(rng, 50, z_scale=1.5, w_radius=0.8):
            got = weight_rho_at(p.z, p.w, p.p, PK) * jacobi_kernel(p, p, PK).real
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
            want = weight_rho_at(pt.z, pt.w, pt.p, PK)
            assert rho.flat[i] == pytest.approx(want, rel=1e-14)
            assert density.flat[i] == pytest.approx(
                measure_density_at(pt.p, PK.mu), rel=1e-14)


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
        with pytest.raises(ValueError, match=r"mu must be finite and positive, got 0\.0"):
            sample_point(ModelParams(1.25, 0.0), np.random.default_rng(0))


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

    # entries of the (3, 3) Gram on 200k samples, as the unblocked
    # accumulation computed them: two 1e5 chunks, each ending in a partial
    # block, so a dropped or repeated block tail moves every entry
    PINNED_GRAM = [
        ((0, 0), (1.0037963064623316+0j), 0.0026535858797279727),
        ((5, 5), (1.0001662586708508-3.369510616704763e-20j), 0.002351596586025394),
        ((15, 15), (0.9991176024082603+6.05470534820185e-19j), 0.004355121758553864),
        ((13, 14), (0.00467688932962006-0.0032350604658736033j), 0.004328458833744259),
        ((14, 15), (0.005231913433445407-0.0036544510235987544j), 0.004699929441957837),
    ]

    def test_pinned_entries(self):
        gram, se = orthonormality_matrix_mc(3, 3, PK, McConfig(200_000, 3))
        assert np.argmax(se) == np.ravel_multi_index((14, 15), se.shape)
        for idx, mean, err in self.PINNED_GRAM:
            assert gram[idx] == pytest.approx(mean, rel=1e-13)
            assert se[idx] == pytest.approx(err, rel=1e-13)

    def test_hermitian_by_construction(self):
        gram, _ = orthonormality_matrix_mc(1, 1, PK, McConfig(10_000, 1))
        assert np.allclose(gram, gram.conj().T)


class TestSinglePassEstimators:
    # value and standard error as the unblocked estimators computed them,
    # from one draw of all samples evaluated at once; the draw is unchanged,
    # so only rounding may move them
    def test_pinned_inner_product(self):
        est = inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1), PK,
                               McConfig(200_000, 3))
        assert est.value == pytest.approx(0.9962663529454873 - 1.000724201059714e-19j,
                                          rel=1e-13, abs=0)
        assert est.std_error == pytest.approx(0.0033500115529911537, rel=1e-13, abs=0)

    def test_blocking_does_not_change_the_estimate(self, monkeypatch):
        cfg = McConfig(50_000, 4)
        want = inner_product_mc(BasisIndex(2, 1), BasisIndex(0, 3), PK, cfg)
        monkeypatch.setattr(quadrature, "_GRAM_BLOCK", 1_000)
        got = inner_product_mc(BasisIndex(2, 1), BasisIndex(0, 3), PK, cfg)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-15)
        assert got.std_error == pytest.approx(want.std_error, rel=1e-12)

    def test_peak_memory_at_a_million_samples(self):
        # one draw of 1e6 samples holds 32 MB of variates; evaluating every
        # sample at once used to peak at about 184 MiB
        tracemalloc.start()
        try:
            inner_product_mc(BasisIndex(1, 1), BasisIndex(1, 1), PK,
                             McConfig(1_000_000, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_gram_peak_memory_at_a_million_samples(self):
        # one draw of 1e5 samples holds 3.2 MB of variates, and every block
        # of 8,192 its points, weights, factors and pair products: 11.7 MiB
        # in all (20.2 MiB when each draw was mapped to points whole)
        tracemalloc.start()
        try:
            orthonormality_matrix_mc(3, 3, PK, McConfig(1_000_000, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20


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
