import math

import numpy as np
import pytest

from jacobi_cs import (
    HBarParams,
    QuadratureRule,
    bargmann_image_check,
    bargmann_kernel,
    hermite_state,
    reproducing_check,
)
from jacobi_cs import verify
from jacobi_cs.bargmann import hermite_overlap

H1 = HBarParams(1.0)
RULE64 = QuadratureRule.gauss_hermite(64)
RULE96 = QuadratureRule.gauss_hermite(96)


class TestKernel:
    def test_value_at_origin(self):
        assert bargmann_kernel(0.0, 0.0, H1) == pytest.approx(math.pi ** -0.25)

    def test_conjugation_symmetry(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            q = rng.uniform(-2, 2)
            lhs = bargmann_kernel(z.conjugate(), q, H1)
            assert lhs == pytest.approx(bargmann_kernel(z, q, H1).conjugate())

    def test_squared_integral_is_one(self):
        # analytically (pi hbar)^(-1/2) sqrt(pi hbar) = 1; the quadrature
        # value of the pairing at z = w = 0 is exactly that integral
        assert reproducing_check(0.0, 0.0, H1, RULE64) < 1e-12

    def test_hbar_validation(self):
        with pytest.raises(ValueError):
            HBarParams(0.0)

    def test_induced_mu(self):
        assert HBarParams(0.5).mu == pytest.approx(2.0)


class TestReproducing:
    def test_hand_cases(self):
        assert reproducing_check(1.0, 1j, H1, RULE64) < 1e-10
        assert reproducing_check(1 + 1j, 1 + 1j, HBarParams(0.5), RULE96) < 1e-9

    def test_grid_all_hbar(self):
        zs = [complex(a, b) for a in (-1.5, 0.0, 1.5) for b in (-1.5, 0.5)]
        assert verify.reproducing_deviation(zs, zs, (0.5, 1.0, 2.0), RULE96) < 1e-9

    def test_small_rule_rejected(self):
        with pytest.raises(ValueError):
            reproducing_check(0.0, 0.0, H1, QuadratureRule.gauss_hermite(16))


class TestHermiteStates:
    def test_ground_state_unit_norm(self):
        assert hermite_overlap(0, 0, H1, RULE64) == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_prefactor_is_forced(self):
        # the alternative prefactor (2 pi hbar)^(-1/4) would give norm
        # 2^(-1/4), so unit normalization pins (pi hbar)^(-1/4)
        u = np.asarray(RULE64.nodes)
        wts = np.asarray(RULE64.weights)
        norm_sq_alt = float(np.sum(wts)) * (2 * math.pi) ** -0.5
        assert norm_sq_alt == pytest.approx(2 ** -0.5, rel=1e-12)
        assert abs(norm_sq_alt - 1.0) > 0.29
        del u

    def test_first_state_closed_form(self, rng):
        for hbar in (0.5, 1.0, 2.0):
            p = HBarParams(hbar)
            for _ in range(10):
                q = rng.uniform(-2, 2)
                want = math.sqrt(2 / hbar) * q * hermite_state(0, q, p)
                assert hermite_state(1, q, p) == pytest.approx(want, rel=1e-12)

    def test_parity_orthogonality(self):
        assert abs(hermite_overlap(0, 1, H1, RULE64)) < 1e-14

    def test_orthonormal_up_to_ten(self):
        assert verify.state_orthonormality_deviation(10, 1.0, RULE96) <= 1e-10

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            hermite_state(-1, 0.0, H1)


class TestImages:
    def test_constant_image(self, rng):
        for _ in range(5):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert bargmann_image_check(0, z, H1, RULE64) < 1e-10

    def test_first_image_at_one(self):
        assert bargmann_image_check(1, 1.0, H1, RULE64) < 1e-10

    def test_image_vanishes_at_zero(self):
        assert bargmann_image_check(5, 0.0, H1, RULE64) < 1e-12

    def test_images_up_to_ten(self, rng):
        for hbar in (0.5, 1.0, 2.0):
            p = HBarParams(hbar)
            for n in range(11):
                for _ in range(3):
                    z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                    assert bargmann_image_check(n, z, p, RULE96) < 1e-8

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            bargmann_image_check(21, 0.0, H1, RULE64)


class TestQuadratureRule:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QuadratureRule((0.0, 1.0), (1.0,))

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule((0.0,), (-1.0,))

    def test_gauss_hermite_total_weight(self):
        # weights integrate exp(-u^2): total sqrt(pi)
        assert sum(RULE64.weights) == pytest.approx(math.sqrt(math.pi))
