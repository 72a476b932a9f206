"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test draws its inputs from a fixed seed with the generators of
`jacobi_cs.verify` and measures them with the check function that the
`verify` command runs.  It prints a single PASS line with its measured worst
deviation and wall time (visible with pytest -s); a failure raises with the
same data.
"""

import time

import numpy as np

import jacobi_cs as jc
from jacobi_cs import verify
from jacobi_cs.quadrature import orthonormality_matrix_mc
from jacobi_cs.verify import random_elements, random_points


def report(name, deadline, elapsed, worst, tolerance):
    line = (f"ACCEPTANCE {name}: worst deviation {worst:.3e} vs tolerance "
            f"{tolerance:.1e}; {elapsed:.2f}s (budget {deadline:.0f}s): "
            f"{'PASS' if worst <= tolerance and elapsed < deadline else 'FAIL'}")
    print(line)
    assert worst <= tolerance, line
    assert elapsed < deadline, line


def test_01_scalar_curvature_constant():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = verify.scalar_curvature_deviation(
        [(jc.ModelParams(k, mu), random_points(rng, 100, z_scale=1.5, w_radius=0.8))
         for k in (1.0, 1.5, 2.0, 3.0) for mu in (0.5, 1.0, 2.0)])
    report("1 scalar curvature -3/(2k)", 1.0, time.perf_counter() - start,
           worst, 1e-10)


def test_02_metric_matches_potential_hessian():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = verify.metric_hessian_deviation(
        [(jc.ModelParams(k, mu), random_points(rng, 100, z_scale=1.0, w_radius=0.6))
         for k in (1.0, 1.5, 2.0) for mu in (0.5, 1.0, 2.0)], jc.WirtingerStencil())
    report("2 metric vs potential Hessian", 5.0, time.perf_counter() - start,
           worst, 1e-6)


def _kernel_series_worst(w_radius, trunc):
    """Series check on 50 pairs per quarter-shifted index, drawn from seed 3."""
    rng = np.random.default_rng(3)
    return verify.kernel_series_deviation(
        [(jc.ModelParams(two_kp / 2.0 + 0.25, 1.0),
          random_points(rng, 100, z_scale=1.0, w_radius=w_radius))
         for two_kp in (1, 2, 3, 4)], trunc)


def test_03_kernel_series_as_stated():
    """Literal criterion: truncation (40, 40), relative 1e-8, pairs drawn
    uniformly from |z| <= 1, |w| <= 0.6.

    This is expected to FAIL: the expansion tail decays like
    (|w1| |w2|)^(n/2) with a prefactor that grows exponentially in
    mu |z|^2, so near the |w| = 0.6 boundary the 41x41-term truncation
    error sits orders of magnitude above 1e-8 (about 3.5% of uniform
    pairs exceed the tolerance).  The identity itself is correct: the
    companion tests below confirm it at the same tolerance on the inner
    domain and, over the full stated domain, at the truncation depth the
    stated tolerance actually requires.
    """
    start = time.perf_counter()
    worst = _kernel_series_worst(0.6, jc.TruncationOrder(40, 40))
    report("3 kernel series at stated truncation (40,40), |w| <= 0.6", 10.0,
           time.perf_counter() - start, worst, 1e-8)


def test_03_kernel_series_inner_domain():
    """Quarter-shift confirmation at (40, 40) and 1e-8 where it converges."""
    start = time.perf_counter()
    worst = _kernel_series_worst(0.4, jc.TruncationOrder(40, 40))
    report("3 kernel series at (40,40), inner domain |w| <= 0.4", 10.0,
           time.perf_counter() - start, worst, 1e-8)


def test_03_kernel_series_full_domain_deeper():
    """Stated domain and tolerance at the truncation they actually need."""
    start = time.perf_counter()
    worst = _kernel_series_worst(0.6, jc.TruncationOrder(70, 70))
    report("3 kernel series at (70,70), full domain |w| <= 0.6", 10.0,
           time.perf_counter() - start, worst, 1e-8)


def test_04_commutation_relations():
    start = time.perf_counter()
    worst = verify.commutation_deviation(
        [jc.ModelParams(k, mu) for k in (1.0, 1.5, 2.0) for mu in (0.5, 1.0, 2.0)])
    report("4 commutation relations degree <= 8", 1.0,
           time.perf_counter() - start, worst, 1e-12)


def test_05_geodesics():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    params = jc.ModelParams(1.0, 1.0)
    # (a) flat-limit integration against the tanh closed form, starts (z0dot, z1, b)
    worst_a = verify.flat_limit_deviation(
        [(0.4 - 0.3j, 0.2 + 0.1j, 0.8), (-0.2j, 0.5, 0.4 + 0.3j)],
        jc.ModelParams(1.0, 0.0), 2.0, 2000, 50)
    # (b) constant-eta family solves the system
    worst_b = verify.constant_eta_deviation(params)
    # (c) energy drift along a generic integrated path
    s0 = jc.GeodesicState(jc.make_jacobi_point(0.3 + 0.2j, 0.1 - 0.2j),
                          jc.TangentVector(0.5 - 0.1j, 0.25j))
    worst_c = verify.energy_drift(s0, params, 2.0, 2000)
    # (d) connection coefficients against differentiated metric
    worst_d = verify.connection_deviation(random_points(rng, 10, w_radius=0.5),
                                          params, jc.WirtingerStencil())
    elapsed = time.perf_counter() - start
    report("5a flat-limit closed form", 10.0, elapsed, worst_a, 1e-8)
    report("5b constant-eta residual", 10.0, elapsed, worst_b, 1e-9)
    report("5c energy drift", 10.0, elapsed, worst_c, 1e-8)
    report("5d connection defining relation", 10.0, elapsed, worst_d, 1e-6)


def test_06_split_coordinates():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst_cross, worst_diag = verify.split_coordinates_deviation(
        random_points(rng, 100, z_scale=1.2, w_radius=0.7), jc.ModelParams(1.0, 1.0))
    elapsed = time.perf_counter() - start
    report("6 split coordinates: cross term", 5.0, elapsed, worst_cross, 1e-10)
    report("6 split coordinates: blocks", 5.0, elapsed, worst_diag, 1e-8)


def test_07_group_invariance():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    pts = random_points(rng, 200, z_scale=1.0, w_radius=0.5)
    worst_eq, worst_b, worst_d = verify.group_invariance_deviation(
        random_elements(rng, 100), pts[:100], pts[100:], jc.ModelParams(1.0, 1.0))
    elapsed = time.perf_counter() - start
    report("7 Berezin kernel invariance", 5.0, elapsed, worst_b, 1e-10)
    report("7 diastasis invariance", 5.0, elapsed, worst_d, 1e-10)
    report("7 kernel equivariance", 5.0, elapsed, worst_eq, 1e-10)


def test_08_bargmann():
    start = time.perf_counter()
    rule = jc.QuadratureRule.gauss_hermite(96)
    grid = [complex(a, b) for a in (-1.5, -0.5, 0.5, 1.5) for b in (-1.0, 0.0, 1.0)]
    worst_rep = verify.reproducing_deviation(grid, grid[::2], (0.5, 1.0, 2.0), rule)
    worst_img = verify.monomial_image_deviation(
        range(11), (0.5, 1.5, 1j, 1 + 1j, -0.7 + 0.9j, 1.5j - 0.3), 1.0, rule)
    elapsed = time.perf_counter() - start
    report("8 reproducing identity", 5.0, elapsed, worst_rep, 1e-9)
    report("8 monomial images", 5.0, elapsed, worst_img, 1e-8)


def test_09_embedding():
    rng = np.random.default_rng(9)
    start = time.perf_counter()
    params = jc.ModelParams(1.25, 1.0)
    trunc = jc.TruncationOrder(40, 40)
    pts = random_points(rng, 200, z_scale=1.0, w_radius=0.5)
    worst_cauchy, worst_angle = verify.pairing_deviation(pts[:40], pts[40:80],
                                                         params, trunc)
    worst_fs = verify.pullback_deviation(pts[:5], params, trunc, jc.WirtingerStencil())
    worst_margin = verify.angle_bound_violation(pts[:100], pts[100:], params)
    elapsed = time.perf_counter() - start
    report("9 projective pairing formula", 30.0, elapsed, worst_cauchy, 1e-8)
    report("9 angle vs projective distance", 30.0, elapsed, worst_angle, 1e-8)
    report("9 projective metric pullback", 30.0, elapsed, worst_fs, 1e-5)
    report("9 length dominates angle", 30.0, elapsed, worst_margin, 1e-9)


def test_10_quadrature():
    start = time.perf_counter()
    sigmas, worst_se = verify.gram_deviation(*orthonormality_matrix_mc(
        3, 3, jc.ModelParams(1.25, 1.0), jc.McConfig(1_000_000, 0)))
    worst_disk = verify.disk_marginal_deviation()
    elapsed = time.perf_counter() - start
    report("10 orthonormality within 3 standard errors", 120.0, elapsed,
           sigmas, 3.0)
    report("10 standard errors below 1e-2", 120.0, elapsed, worst_se, 1e-2)
    report("10 disk marginal quadrature", 120.0, elapsed, worst_disk, 1e-6)


def test_11_non_einstein_witness():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = verify.non_einstein_deviation(
        random_points(rng, 200, z_scale=1.5, w_radius=0.9), jc.ModelParams(1.0, 1.0))
    report("11 not Einstein: Ric_zz = 0 < h_zz, Ric_ww < 0", 1.0,
           time.perf_counter() - start, worst, 1e-12)
