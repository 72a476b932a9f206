import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from jacobi_cs import JacobiGroupElement, SU11Element, make_jacobi_point


def random_points(rng, n, z_scale=1.0, w_radius=0.6):
    """Points with |z| <= z_scale and |w| <= w_radius, area-uniform."""
    out = []
    for _ in range(n):
        zr, wr = z_scale * math.sqrt(rng.uniform()), w_radius * math.sqrt(rng.uniform())
        za, wa = rng.uniform(0, 2 * math.pi, 2)
        out.append(make_jacobi_point(zr * np.exp(1j * za), wr * np.exp(1j * wa)))
    return out


def point_strategy(z_max=1.0, w_max=0.6):
    """Hypothesis strategy for points with |z| <= z_max and |w| <= w_max."""
    def polar(r_max):
        return st.builds(cmath.rect, st.floats(0.0, r_max), st.floats(0.0, 2 * math.pi))
    return st.builds(make_jacobi_point, polar(z_max), polar(w_max))


def random_elements(rng, n, rho_max=0.8, alpha_max=1.0):
    out = []
    for _ in range(n):
        rho = rng.uniform(0, rho_max)
        phi, psi = rng.uniform(0, 2 * math.pi, 2)
        g = SU11Element(math.cosh(rho) * np.exp(1j * phi),
                        math.sinh(rho) * np.exp(1j * psi))
        alpha = alpha_max * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        out.append(JacobiGroupElement(g, alpha, rng.uniform(-1, 1)))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
