import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from jacobi_cs import JacobiGroupElement, SU11Element, make_jacobi_point


def point_strategy(z_max=1.0, w_max=0.6):
    """Hypothesis strategy for points with |z| <= z_max and |w| <= w_max."""
    def polar(r_max):
        return st.builds(cmath.rect, st.floats(0.0, r_max), st.floats(0.0, 2 * math.pi))
    return st.builds(make_jacobi_point, polar(z_max), polar(w_max))


def element_strategy(rho_max=0.8):
    """Hypothesis strategy for group elements on the domain of `verify.random_elements`:
    disk boost rho <= rho_max, Re and Im alpha and t in [-1, 1]."""
    angle, unit = st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0)

    def build(rho, phi, psi, re_alpha, im_alpha, t):
        g = SU11Element(cmath.rect(math.cosh(rho), phi), cmath.rect(math.sinh(rho), psi))
        return JacobiGroupElement(g, complex(re_alpha, im_alpha), t)
    return st.builds(build, st.floats(0.0, rho_max), angle, angle, unit, unit, unit)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
