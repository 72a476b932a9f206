import cmath
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from jacobi_cs import JacobiGroupElement, SU11Element, core, make_jacobi_point, verify


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


def run_python(script: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports the package under test,
    with its stdout block-buffered, as it is on a pipe by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)


def assert_no_children():
    """No child process of this one is running or left unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Three usable CPUs whatever the machine has, so a report of three or
    more suite parts forks two workers; yields the worker count of each pool
    made, and checks that no worker is left once the test is over."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 3)
    pools = []
    run_forked = verify._run_forked

    def counted(order, cfg, workers):
        pools.append(workers)
        return run_forked(order, cfg, workers)

    monkeypatch.setattr(verify, "_run_forked", counted)
    yield pools
    assert_no_children()
