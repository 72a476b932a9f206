import pytest

from jacobi_cs import ModelParams
from jacobi_cs.algebra import (
    BiPolynomial,
    Generator,
    apply_generator,
    check_relations,
    commutator,
    max_coeff_deviation,
)

P1 = ModelParams(1.0, 1.0)


def poly_equal(p, q, tol=1e-12):
    return max_coeff_deviation(p, q) <= tol * max(1.0, p.max_abs(), q.max_abs())


class TestBiPolynomial:
    def test_zero_coefficients_dropped(self):
        p = BiPolynomial({(0, 0): 1.0, (1, 2): 0.0})
        assert (1, 2) not in p.coeffs

    def test_cancellation_drops_term(self):
        p = BiPolynomial.monomial(1, 0) - BiPolynomial.monomial(1, 0)
        assert not p.coeffs

    def test_evaluation(self):
        p = BiPolynomial({(2, 0): 1.0, (0, 1): 1.0})   # z^2 + w
        assert p(2.0, 3.0) == pytest.approx(7.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            BiPolynomial.monomial(-1, 0)


class TestGeneratorAction:
    def test_lowering_kills_vacuum(self):
        assert not apply_generator(Generator.A, BiPolynomial.one(), P1).coeffs

    def test_disk_lowering_kills_vacuum(self):
        assert not apply_generator(Generator.K_MINUS, BiPolynomial.one(), P1).coeffs

    def test_weight_of_vacuum(self):
        got = apply_generator(Generator.K_ZERO, BiPolynomial.one(), P1)
        assert poly_equal(got, BiPolynomial.one().scaled(P1.k))

    def test_raising_on_vacuum(self):
        # (mu/2) z^2 + 2k w, by direct application of the operator
        params = ModelParams(1.5, 2.0)
        got = apply_generator(Generator.K_PLUS, BiPolynomial.one(), params)
        want = BiPolynomial({(2, 0): params.mu / 2, (0, 1): 2 * params.k})
        assert poly_equal(got, want)

    def test_adag_on_vacuum(self):
        params = ModelParams(1.0, 4.0)
        got = apply_generator(Generator.ADAG, BiPolynomial.one(), params)
        assert poly_equal(got, BiPolynomial.monomial(1, 0, 2.0))  # sqrt(mu) z

    def test_degree_bookkeeping(self):
        p = BiPolynomial.monomial(3, 2)
        raised = apply_generator(Generator.K_PLUS, p, P1)
        assert max(i + j for i, j in raised.coeffs) <= 3 + 2 + 2
        lowered = apply_generator(Generator.A, p, P1)
        assert set(lowered.coeffs) == {(2, 2)}


class TestCommutators:
    def test_canonical_pair_is_identity(self):
        p = BiPolynomial.monomial(1, 0)
        got = commutator(Generator.A, Generator.ADAG, p, P1)
        assert poly_equal(got, p)

    def test_disk_pair_gives_weight(self):
        got = commutator(Generator.K_MINUS, Generator.K_PLUS,
                         BiPolynomial.one(), P1)
        assert poly_equal(got, BiPolynomial.one().scaled(2 * P1.k))

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (0, 1), (2, 3)])
    def test_raising_operators_commute(self, i, j):
        got = commutator(Generator.K_PLUS, Generator.ADAG,
                         BiPolynomial.monomial(i, j), P1)
        assert not got.coeffs or got.max_abs() <= 1e-12


class TestCheckRelations:
    def test_degree_zero(self):
        assert check_relations(0, P1).passed

    def test_exact_on_degree_six(self):
        report = check_relations(6, ModelParams(1.5, 2.0))
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_grid_degree_eight(self):
        for k in (1.0, 1.5, 2.0):
            for mu in (0.5, 1.0, 2.0):
                assert check_relations(8, ModelParams(k, mu)).passed

    def test_negative_control_reports_failure(self):
        report = check_relations(6, P1, kplus_perturbation=0.37)
        assert not report.passed
        failing = {c.relation for c in report.checks if not c.passed}
        assert "[K-,K+]=2K0" in failing
