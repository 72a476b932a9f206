import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_cs import (
    BasisIndex,
    InvalidK,
    ModelParams,
    NonFinite,
    TruncationOrder,
    basis_function,
    diastasis_split,
    disk_kernel,
    heisenberg_kernel,
    jacobi_kernel,
    kahler_potential,
    kernel_series,
    make_jacobi_point,
    normalized_kernel,
)
from jacobi_cs.kernels import (
    basis_at,
    basis_factors_at,
    basis_matrix,
    berezin_at,
    cross_F_at,
    diastasis_at,
    two_k_prime,
)
from jacobi_cs import verify
from jacobi_cs.verify import random_points
from conftest import point_strategy

P1 = ModelParams(1.0, 1.0)


def pn_polynomial(n, z, w):
    # flat[n] = P_n(sqrt(mu) z, w) / sqrt(n!); mu = 1, and k = 1.25 admits a basis
    flat, _ = basis_factors_at(z, w, ModelParams(1.25, 1.0), n, 0)
    return flat[n] * math.sqrt(math.factorial(n))


class TestFactorKernels:
    def test_flat_zero(self):
        assert heisenberg_kernel(0.0, 2 - 1j, 1.0) == 1.0

    def test_flat_hand_value(self):
        assert heisenberg_kernel(1.0, 1.0, 1.0) == pytest.approx(math.e)

    def test_flat_hermitian(self, rng):
        for _ in range(50):
            z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k12 = heisenberg_kernel(z1, z2, 1.7)
            assert k12 == pytest.approx(heisenberg_kernel(z2, z1, 1.7).conjugate())

    def test_disk_zero(self):
        assert disk_kernel(0.0, 0.7j, 1.0) == pytest.approx(1.0)

    def test_disk_hand_values(self):
        assert disk_kernel(0.5, 0.5, 1.0) == pytest.approx(16 / 9)
        assert disk_kernel(0.5, -0.5, 1.0) == pytest.approx(0.64)

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            heisenberg_kernel(0.0, 0.0, 0.0)
        with pytest.raises(NonFinite, match="mu must be finite and positive, got nan"):
            heisenberg_kernel(0.0, 0.0, math.nan)

    def test_disk_at_k_bound_matches_jacobi_kernel(self):
        # k = 3/4 is admitted by ModelParams and disk_kernel alike
        params = ModelParams(0.75, 1.0)
        for w in (0.0, 0.5, -0.3 + 0.6j, 0.9j):
            p = make_jacobi_point(0.0, w)
            assert disk_kernel(w, w, 0.75) == pytest.approx(
                jacobi_kernel(p, p, params), rel=1e-14)

    def test_disk_below_k_bound_rejected(self):
        with pytest.raises(ValueError):
            disk_kernel(0.5, 0.5, 0.7)


class TestCrossExponent:
    def test_diagonal_flat(self):
        z = 1 - 2j
        assert cross_F_at(z, 0j, z, 0j) == pytest.approx(abs(z) ** 2)

    def test_hand_value(self):
        assert cross_F_at(1.0, 0.5, 1.0, 0.5) == pytest.approx((2 + 0.5 + 0.5) / 1.5)

    def test_zero_z(self):
        assert cross_F_at(0j, 0.3 + 0j, 0j, -0.4j) == 0


class TestJacobiKernel:
    def test_identity(self):
        p = make_jacobi_point(0.0, 0.0)
        assert jacobi_kernel(p, p, P1) == pytest.approx(1.0)

    def test_hand_values(self):
        p = make_jacobi_point(1.0, 0.0)
        assert jacobi_kernel(p, p, P1) == pytest.approx(math.e)
        q = make_jacobi_point(1.0, 0.5)
        assert jacobi_kernel(q, q, P1) == pytest.approx(16 / 9 * math.e**2)

    def test_diagonal_positive(self, rng):
        for p in random_points(rng, 200, z_scale=2.0, w_radius=0.9):
            val = jacobi_kernel(p, p, P1)
            assert val.imag == pytest.approx(0.0, abs=1e-9 * val.real)
            assert val.real > 0

    def test_hermitian_symmetry(self, rng):
        pts = random_points(rng, 40)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            k12 = jacobi_kernel(p1, p2, P1)
            k21 = jacobi_kernel(p2, p1, P1)
            assert abs(k12 - k21.conjugate()) <= 1e-12 * abs(k12)
            d12 = disk_kernel(p1.w, p2.w, 1.5)
            assert abs(d12 - disk_kernel(p2.w, p1.w, 1.5).conjugate()) \
                <= 1e-12 * abs(d12)
            n12 = normalized_kernel(p1, p2, P1)
            assert abs(n12 - normalized_kernel(p2, p1, P1).conjugate()) \
                <= 1e-12

    def test_factorization_limits(self, rng):
        for p in random_points(rng, 30, z_scale=1.5, w_radius=0.8):
            flat = make_jacobi_point(p.z, 0.0)
            assert jacobi_kernel(flat, flat, P1) == pytest.approx(
                heisenberg_kernel(p.z, p.z, P1.mu), rel=1e-12)
            disk = make_jacobi_point(0.0, p.w)
            got = jacobi_kernel(disk, disk, P1)
            assert got.real == pytest.approx(disk_kernel(p.w, p.w, P1.k).real,
                                             rel=1e-12)


class TestPotential:
    def test_zero_at_origin(self):
        assert kahler_potential(make_jacobi_point(0, 0), P1) == 0.0

    def test_hand_value(self):
        got = kahler_potential(make_jacobi_point(1.0, 0.5), P1)
        assert got == pytest.approx(2 - 2 * math.log(0.75))

    def test_pure_disk(self):
        k = 1.7
        p = make_jacobi_point(0.0, 0.3 + 0.4j)
        got = kahler_potential(p, ModelParams(k, 1.0))
        assert got == pytest.approx(-2 * k * math.log(1 - 0.25))

    def test_equals_log_kernel(self, rng):
        for p in random_points(rng, 100, z_scale=1.5, w_radius=0.8):
            lhs = kahler_potential(p, P1)
            rhs = cmath.log(jacobi_kernel(p, p, P1)).real
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestNormalizedAndBerezin:
    def test_diagonal_is_one(self):
        p = make_jacobi_point(0.7, 0.2j)
        assert normalized_kernel(p, p, P1) == pytest.approx(1.0)
        assert berezin_at(p.z, p.w, p.z, p.w, P1) == pytest.approx(1.0)

    def test_hand_value(self):
        p1 = make_jacobi_point(0.0, 0.5)
        p2 = make_jacobi_point(0.0, 0.0)
        assert normalized_kernel(p1, p2, P1) == pytest.approx(0.75)
        assert berezin_at(p1.z, p1.w, p2.z, p2.w, P1) == pytest.approx(0.5625)

    def test_modulus_bound_many_pairs(self, rng):
        pts = random_points(rng, 200, z_scale=1.5, w_radius=0.8)
        count = 0
        for p1 in pts[:100]:
            for p2 in pts[100:]:
                count += 1
                assert abs(normalized_kernel(p1, p2, P1)) <= 1.0 + 1e-12
        assert count == 10_000

    def test_berezin_symmetric(self, rng):
        pts = random_points(rng, 40)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            assert berezin_at(p1.z, p1.w, p2.z, p2.w, P1) == pytest.approx(
                berezin_at(p2.z, p2.w, p1.z, p1.w, P1), rel=1e-12)

    def test_no_overflow_for_large_z(self):
        p1 = make_jacobi_point(30 + 10j, 0.1)
        p2 = make_jacobi_point(-25 + 5j, -0.2)
        val = abs(normalized_kernel(p1, p2, P1))
        assert 0.0 <= val <= 1.0


class TestDiastasis:
    def test_zero_on_diagonal(self):
        z, w = 1.0 + 0j, 0.4j
        assert diastasis_at(z, w, z, w, P1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert diastasis_at(0j, 0.5 + 0j, 0j, 0j, P1) == pytest.approx(-math.log(0.5625))

    def test_nonnegative_many_pairs(self, rng):
        pts = random_points(rng, 200, z_scale=1.5, w_radius=0.8)
        for p1 in pts[:100]:
            for p2 in pts[100:]:
                assert diastasis_at(p1.z, p1.w, p2.z, p2.w, P1) >= -1e-12

    def test_two_evaluations_agree(self, rng):
        pts = random_points(rng, 60, z_scale=1.2, w_radius=0.7)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            a = diastasis_at(p1.z, p1.w, p2.z, p2.w, P1)
            b = diastasis_split(p1, p2, P1)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1.25, 1.75]), p1=point_strategy(), p2=point_strategy())
    def test_normalized_kernel_modulus_at_most_one(self, k, p1, p2):
        assert abs(normalized_kernel(p1, p2, ModelParams(k, 1.0))) <= 1 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1.25, 1.75]), p1=point_strategy(), p2=point_strategy())
    def test_diastasis_nonnegative(self, k, p1, p2):
        assert diastasis_at(p1.z, p1.w, p2.z, p2.w, ModelParams(k, 1.0)) >= -1e-12

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1.25, 1.75]), p1=point_strategy(), p2=point_strategy())
    def test_kernel_hermitian(self, k, p1, p2):
        params = ModelParams(k, 1.0)
        forward = jacobi_kernel(p1, p2, params)
        assert abs(forward - jacobi_kernel(p2, p1, params).conjugate()) <= 1e-12 * abs(forward)

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1.25, 1.75]), p1=point_strategy(), p2=point_strategy())
    def test_diastasis_symmetric(self, k, p1, p2):
        params = ModelParams(k, 1.0)
        forward = diastasis_at(p1.z, p1.w, p2.z, p2.w, params)
        backward = diastasis_at(p2.z, p2.w, p1.z, p1.w, params)
        assert abs(forward - backward) <= 1e-12 * max(1.0, forward)


class TestBasisPolynomials:
    def test_p0(self):
        assert pn_polynomial(0, 2 + 1j, 0.5) == 1.0

    def test_p2_p3_hand_expansion(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            assert pn_polynomial(2, z, w) == pytest.approx(z * z + w)
            assert pn_polynomial(3, z, w) == pytest.approx(z**3 + 3 * w * z)

    def test_recurrence_matches_explicit_sum(self, rng):
        # independent oracle: the explicit factorial sum
        def explicit(n, z, w):
            total = 0.0
            for p in range(n // 2 + 1):
                total += ((w / 2) ** p * z ** (n - 2 * p)
                          / (math.factorial(p) * math.factorial(n - 2 * p)))
            return math.factorial(n) * total

        for n in range(13):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            want = explicit(n, z, w)
            assert pn_polynomial(n, z, w) == pytest.approx(want, rel=1e-12)


class TestBasisFunctions:
    def test_ground_state_is_one(self):
        p = make_jacobi_point(1 - 1j, 0.4)
        assert basis_function(BasisIndex(0, 0), p, ModelParams(1.25, 1.0)) == 1.0

    def test_disk_level_hand_value(self):
        # 2k' = 2: coefficient sqrt(Gamma(3)/Gamma(2)) = sqrt(2)
        p = make_jacobi_point(0.0, 0.5)
        got = basis_function(BasisIndex(0, 1), p, ModelParams(1.25, 1.0))
        assert got == pytest.approx(math.sqrt(2) * 0.5)

    def test_flat_level_hand_value(self):
        p = make_jacobi_point(1.0, 0.0)
        got = basis_function(BasisIndex(2, 0), p, ModelParams(1.25, 1.0))
        assert got == pytest.approx(1 / math.sqrt(2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BasisIndex(-1, 0)

    def test_quarter_shift_enforced(self):
        p = make_jacobi_point(0.0, 0.0)
        with pytest.raises(InvalidK):
            basis_function(BasisIndex(0, 0), p, ModelParams(1.0, 1.0))
        assert two_k_prime(1.25) == 2
        assert two_k_prime(0.75) == 1

    def test_basis_at_on_arrays_matches_points(self, rng):
        params = ModelParams(1.75, 1.5)
        pts = random_points(rng, 30, z_scale=2.0, w_radius=0.9)
        z = np.array([p.z for p in pts]).reshape(5, 6)
        w = np.array([p.w for p in pts]).reshape(5, 6)
        got = basis_at(z, w, params, 7, 5)
        assert got.shape == (8, 6, 5, 6)
        for i, p in enumerate(pts):
            want = basis_matrix(p, params, TruncationOrder(7, 5))
            cell = got[:, :, i // 6, i % 6]
            assert np.max(np.abs(cell - want)) <= 1e-14 * np.max(np.abs(want))
            assert basis_function(BasisIndex(7, 5), p, params) == want[7, 5]

    @pytest.mark.parametrize("k", [0.75, 1.25, 2.25])
    def test_one_entry_is_the_matrix_entry_bit_for_bit(self, rng, k):
        params = ModelParams(k, 1.5)
        for p in random_points(rng, 10, z_scale=2.0, w_radius=0.9):
            for n in range(12):
                for m in range(12):
                    want = complex(basis_at(p.z, p.w, params, n, m)[n, m])
                    assert basis_function(BasisIndex(n, m), p, params) == want


# (k, mu), z, w, (n, m), f[n, m] at truncation 40x40 as the implementation
# with separate scalar and array basis evaluators computed them
PINNED_BASIS = [
    ((1.25, 1.0), 0.7 - 1.3j, 0.45 + 0.3j, (1, 0), 0.7 - 1.3j),
    ((1.25, 1.0), 0.7 - 1.3j, 0.45 + 0.3j, (0, 1),
     0.6363961030678926 + 0.4242640687119284j),
    ((1.25, 1.0), 0.7 - 1.3j, 0.45 + 0.3j, (3, 2),
     0.07339238058630472 - 0.2750344858433666j),
    ((1.25, 1.0), 0.7 - 1.3j, 0.45 + 0.3j, (12, 7),
     0.0007927958319389595 + 0.0021970621497894994j),
    ((1.25, 1.0), 0.7 - 1.3j, 0.45 + 0.3j, (39, 39),
     -7.270500471856283e-15 - 3.806418601601052e-15j),
    ((1.75, 2.5), -2.1 + 0.4j, -0.2 + 0.85j, (2, 1),
     0.9338679644360872 + 11.673349555451091j),
    ((1.75, 2.5), -2.1 + 0.4j, -0.2 + 0.85j, (9, 0),
     -42.87849774063677 - 73.6166848806769j),
    ((1.75, 2.5), -2.1 + 0.4j, -0.2 + 0.85j, (25, 30),
     -278.4807706166018 - 91.03430402864649j),
]


@pytest.mark.parametrize("kmu,z,w,nm,want", PINNED_BASIS)
def test_pinned_basis_matrix(kmu, z, w, nm, want):
    f = basis_matrix(make_jacobi_point(z, w), ModelParams(*kmu), TruncationOrder(40, 40))
    assert complex(f[nm]) == want


class TestKernelSeries:
    def test_origin_any_truncation(self):
        p = make_jacobi_point(0.0, 0.0)
        pr = ModelParams(1.25, 1.0)
        for trunc in (TruncationOrder(1, 1), TruncationOrder(5, 9)):
            assert kernel_series(p, p, pr, trunc) == pytest.approx(1.0)

    def test_matches_closed_form_on_diagonal(self):
        pr = ModelParams(1.25, 1.0)
        p = make_jacobi_point(0.5, 0.3)
        closed = jacobi_kernel(p, p, pr)
        series = kernel_series(p, p, pr, TruncationOrder(40, 40))
        assert abs(series - closed) <= 1e-10 * abs(closed)

    def test_partial_sums_monotone_on_diagonal(self):
        pr = ModelParams(1.75, 1.0)
        p = make_jacobi_point(0.8, 0.5j)
        values = [kernel_series(p, p, pr, TruncationOrder(n, n)).real
                  for n in (2, 5, 10, 20, 40)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_quarter_shift_grid(self, rng):
        # the shifted index k = k' + 1/4 is what makes the expansion match;
        # |w| <= 0.4 keeps the (40, 40) truncation tail below the tolerance
        pts = random_points(rng, 20, z_scale=1.0, w_radius=0.4)
        cases = [(ModelParams(two_kp / 2 + 0.25, 1.0), pts) for two_kp in (1, 2, 3, 4)]
        assert verify.kernel_series_deviation(cases, TruncationOrder(40, 40)) <= 1e-8

    def test_unshifted_index_fails(self):
        # negative control: without the quarter shift the disk exponent
        # would be 2k' and the expansion would visibly disagree
        pr = ModelParams(1.25, 1.0)
        p = make_jacobi_point(0.4, 0.5)
        series = kernel_series(p, p, pr, TruncationOrder(60, 60))
        unshifted = jacobi_kernel(p, p, ModelParams(1.0, 1.0))
        shifted = jacobi_kernel(p, p, pr)
        assert abs(series - shifted) <= 1e-10 * abs(shifted)
        assert abs(series - unshifted) > 0.05 * abs(unshifted)
