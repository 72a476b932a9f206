import numpy as np
import pytest

from jacobi_cs import ModelParams
from jacobi_cs.algebra import (
    _RELATIONS,
    BiPolynomial,
    Generator,
    _monomials,
    apply_generator,
    check_relations,
    commutator,
    max_coeff_deviation,
)
from jacobi_cs.kernels import heisenberg_kernel
from jacobi_cs.quadrature import sample_point

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
        devs = check_relations(0, P1)
        assert devs.shape == (len(_RELATIONS), 1)
        assert devs.max() <= 1e-12
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            check_relations(-1, P1)

    def test_exact_on_degree_six(self):
        devs = check_relations(6, ModelParams(1.5, 2.0))
        assert devs.shape == (len(_RELATIONS), 28)
        assert devs.max() <= 1e-12

    def test_grid_degree_eight(self):
        for k in (1.0, 1.5, 2.0):
            for mu in (0.5, 1.0, 2.0):
                assert check_relations(8, ModelParams(k, mu)).max() <= 1e-12

    def test_negative_control_reports_failure(self):
        devs = check_relations(6, P1, kplus_perturbation=0.37)
        row = [name for name, *_ in _RELATIONS].index("[K-,K+]=2K0")
        assert devs[row].max() == pytest.approx(0.37, rel=1e-12)


# Every library guard that needs mu > 0 reads the bound verify reads, with one message.
@pytest.mark.parametrize("call", [
    lambda params: check_relations(2, params),
    lambda params: apply_generator(Generator.A, BiPolynomial.one(), params),
    lambda params: heisenberg_kernel(0.0, 0.0, params.mu),
    lambda params: sample_point(params, np.random.default_rng(0)),
], ids=["check_relations", "apply_generator", "heisenberg_kernel", "sample_point"])
def test_library_guards_need_positive_mu(call):
    with pytest.raises(ValueError, match=r"^mu must be finite and positive, got 0\.0$"):
        call(ModelParams(1.25, 0.0))


# The ten structure relations with their right-hand sides as BiPolynomial
# maps, written out here independently of the generator matrices that
# check_relations builds.
ORACLE_RELATIONS = {
    "[a,a+]=1": (Generator.A, Generator.ADAG, lambda p, pr: p),
    "[K0,K+]=K+": (Generator.K_ZERO, Generator.K_PLUS,
                   lambda p, pr: apply_generator(Generator.K_PLUS, p, pr)),
    "[K0,K-]=-K-": (Generator.K_ZERO, Generator.K_MINUS,
                    lambda p, pr: apply_generator(Generator.K_MINUS, p, pr).scaled(-1.0)),
    "[K-,K+]=2K0": (Generator.K_MINUS, Generator.K_PLUS,
                    lambda p, pr: apply_generator(Generator.K_ZERO, p, pr).scaled(2.0)),
    "[a,K+]=a+": (Generator.A, Generator.K_PLUS,
                  lambda p, pr: apply_generator(Generator.ADAG, p, pr)),
    "[K-,a+]=a": (Generator.K_MINUS, Generator.ADAG,
                  lambda p, pr: apply_generator(Generator.A, p, pr)),
    "[K+,a+]=0": (Generator.K_PLUS, Generator.ADAG, lambda p, pr: BiPolynomial.zero()),
    "[K-,a]=0": (Generator.K_MINUS, Generator.A, lambda p, pr: BiPolynomial.zero()),
    "[K0,a+]=a+/2": (Generator.K_ZERO, Generator.ADAG,
                     lambda p, pr: apply_generator(Generator.ADAG, p, pr).scaled(0.5)),
    "[K0,a]=-a/2": (Generator.K_ZERO, Generator.A,
                    lambda p, pr: apply_generator(Generator.A, p, pr).scaled(-0.5)),
}


@pytest.mark.parametrize("k,mu", [(1.0, 1.0), (1.75, 0.6)])
def test_relation_matrices_match_polynomial_commutators(k, mu):
    params = ModelParams(k, mu)
    devs = check_relations(5, params)
    monomials = [(i, j) for i in range(6) for j in range(6 - i)]
    assert [name for name, *_ in _RELATIONS] == list(ORACLE_RELATIONS)
    assert _monomials(5, 0) == monomials
    assert devs.shape == (len(ORACLE_RELATIONS), len(monomials))
    for row, (g1, g2, rhs_of) in zip(devs.tolist(), ORACLE_RELATIONS.values()):
        for dev, (i, j) in zip(row, monomials):
            p = BiPolynomial.monomial(i, j)
            lhs, rhs = commutator(g1, g2, p, params), rhs_of(p, params)
            # the two evaluations round the products g1 g2 p and g2 g1 p in
            # different orders, so they agree to the size of those terms, not
            # of their (possibly cancelled) difference
            terms = (apply_generator(g1, apply_generator(g2, p, params), params),
                     apply_generator(g2, apply_generator(g1, p, params), params), rhs)
            scale = max(1.0, *(t.max_abs() for t in terms))
            assert abs(dev - max_coeff_deviation(lhs, rhs)) <= 1e-15 * scale
            assert dev <= 1e-12
