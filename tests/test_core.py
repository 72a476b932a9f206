import pickle
import time

import numpy as np
import pytest

from conftest import assert_no_children
from jacobi_cs import (
    BoundaryViolation,
    HermitianMetric2,
    JacobiPoint,
    ModelParams,
    NonFinite,
    TangentVector,
    core,
    eta_of,
    fc_forward,
    make_jacobi_point,
)
from jacobi_cs.core import p_at
from jacobi_cs.verify import random_points


class TestMakeJacobiPoint:
    def test_origin(self):
        p = make_jacobi_point(0.0, 0.0)
        assert p.z == 0 and p.w == 0

    def test_interior_point(self):
        p = make_jacobi_point(1 + 2j, 0.5)
        assert p.z == 1 + 2j and p.w == 0.5

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryViolation):
            make_jacobi_point(0.0, 1.0)

    def test_near_boundary_guard(self):
        with pytest.raises(BoundaryViolation):
            make_jacobi_point(0.0, 1.0 - 1e-12)

    @pytest.mark.parametrize("z,w", [
        (float("nan"), 0.0),
        (complex(0, float("inf")), 0.0),
        (0.0, complex(float("nan"), 0)),
    ])
    def test_nonfinite_rejected(self, z, w):
        with pytest.raises(NonFinite):
            make_jacobi_point(z, w)

    def test_p_is_cached(self):
        p = make_jacobi_point(2.0, 0.3 + 0.4j)
        assert p.p == pytest.approx(1 - 0.25, abs=1e-15)


    def test_p_same_on_arrays_and_numbers(self, rng):
        # near |w| = 1 a one-rounding difference in |w|^2 is a 1e-14
        # relative difference in P
        ws = [0.8844572243758388 + 0.4555340318716j]
        ws += [p.w for p in random_points(rng, 200, w_radius=0.999)]
        for got, w in zip(p_at(np.array(ws)).tolist(), ws):
            assert got == p_at(w)


class TestEta:
    def test_zero_z(self):
        assert eta_of(make_jacobi_point(0.0, 0.3 - 0.2j)) == 0

    def test_zero_w(self):
        assert eta_of(make_jacobi_point(1.5 - 0.5j, 0.0)) == 1.5 - 0.5j

    def test_hand_value(self):
        # (1 + 0.5) / 0.75
        assert eta_of(make_jacobi_point(1.0, 0.5)) == pytest.approx(2.0)

    def test_roundtrip_through_coordinate_change(self, rng):
        for p in random_points(rng, 200, z_scale=2.0, w_radius=0.9):
            eta = eta_of(p)
            back = fc_forward(eta, p.w)
            assert abs(eta_of(back) - eta) <= 1e-12 * max(1.0, abs(eta))


class TestModelParams:
    def test_accepts_boundary_k(self):
        ModelParams(0.75, 1.0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            ModelParams(0.74, 1.0)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, -0.5)

    def test_accepts_flat_limit(self):
        ModelParams(1.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            ModelParams(float("nan"), 1.0)


class TestValueTypes:
    def test_tangent_vector_nan(self):
        with pytest.raises(NonFinite):
            TangentVector(complex(float("nan"), 0), 0)

    def test_metric_positive_definite(self):
        HermitianMetric2(1.0, 0.5 + 0.5j, 2.0)
        with pytest.raises(ValueError):
            HermitianMetric2(-1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            HermitianMetric2(1.0, 2.0, 2.0)   # det = 2 - 4 < 0

    def test_points_are_immutable(self):
        p = make_jacobi_point(1.0, 0.2)
        with pytest.raises(AttributeError):
            p.z = 2.0

    def test_point_equality_ignores_cache(self):
        assert make_jacobi_point(1.0, 0.2) == JacobiPoint(1.0, 0.2)


_CORE_ERRORS = sorted((obj for obj in vars(core).values()
                       if isinstance(obj, type) and issubclass(obj, Exception)
                       and obj.__module__ == core.__name__), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", [
    *(cls("a message") for cls in _CORE_ERRORS if cls is not core.BoundaryEscape),
    core.BoundaryEscape(0.5),
    core.BoundaryEscape(0.39999999999999997, "step left the disk at t=0.4"),
], ids=repr)
def test_errors_survive_pickle(error):
    # a verify suite run in a worker process sends its error back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_fork_jobs_names_a_failed_child_and_kills_the_later_ones():
    def fail(file):
        raise OSError("no space left on device")

    jobs = [("writing", lambda file: file.write(b"one")), ("failing", fail),
            ("sleeping", lambda file: time.sleep(60))]
    taken, start = [], time.monotonic()
    with pytest.raises(ChildProcessError, match="^the process failing failed with "
                                                "exit status 1$"):
        core._fork_jobs(lambda: None, jobs, lambda file: taken.append(file.read()))
    assert taken == [b"one"]
    assert time.monotonic() - start < 30      # the sleeping child was killed
    assert_no_children()
