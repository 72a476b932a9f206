"""The batched ``table`` against a reference loop over the scalar functions.

The reference builds every row the way the per-point implementation did:
one validated point per grid node (nested loops over re_z, im_z, re_w,
im_w) and one call of the scalar closed form at it.  Cells are compared
with a relative tolerance of 1e-14, because array arithmetic may round
differently from Python arithmetic in the last digit.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jacobi_cs import ModelParams, geodesics, geometry, kernels, make_jacobi_point
from jacobi_cs.cli import evaluate, main, parse_range
from jacobi_cs.core import eta_of

QUANTITIES = ("kernel", "potential", "metric", "ricci", "scalar-curvature",
              "diastasis", "berezin", "christoffel", "volume", "eta")
REL = 1e-14


def _scalar_curvature(zeta, params):
    h = geometry.metric(zeta, params)     # validates the metric
    r_ww = geometry.ricci_at(zeta.p)[2]
    return geometry.scalar_curvature_at(h.h_zz, h.h_zw, h.h_ww, r_ww)


def _reference_value(quantity, zeta, origin, params):
    if quantity == "kernel":
        v = kernels.jacobi_kernel(zeta, origin, params)
        return {"re": v.real, "im": v.imag}
    if quantity == "potential":
        return {"value": kernels.kahler_potential(zeta, params)}
    if quantity == "metric":
        h = geometry.metric(zeta, params)
        return {"h_zz": h.h_zz, "h_zw_re": h.h_zw.real,
                "h_zw_im": h.h_zw.imag, "h_ww": h.h_ww}
    if quantity == "ricci":
        r_zz, r_zw, r_ww = geometry.ricci_at(zeta.p)
        return {"r_zz": r_zz, "r_zw_re": r_zw.real, "r_zw_im": r_zw.imag, "r_ww": r_ww}
    if quantity == "scalar-curvature":
        return {"value": _scalar_curvature(zeta, params)}
    if quantity == "diastasis":
        return {"value": kernels.diastasis_at(zeta.z, zeta.w, origin.z, origin.w, params)}
    if quantity == "berezin":
        return {"value": kernels.berezin_at(zeta.z, zeta.w, origin.z, origin.w, params)}
    if quantity == "christoffel":
        return dict(zip(("g_zzz", "g_wzz", "g_zzw", "g_wwz", "g_zww", "g_www"),
                        geodesics.christoffel_at(zeta.z, zeta.w, zeta.p, params)))
    if quantity == "volume":
        return {"value": geometry.volume_density_at(zeta.p, params)}
    v = eta_of(zeta)
    return {"re": v.real, "im": v.imag}


def _condition(quantity, zeta, params):
    """Error amplification of a cell beyond rounding of its inputs.

    The scalar curvature divides by det h = h_zz h_ww - |h_zw|^2, a
    difference of nearly equal terms once mu |eta|^2 P is large, so a
    last-digit difference in the coefficients grows by their ratio.
    """
    if quantity != "scalar-curvature":
        return 1.0
    h = geometry.metric(zeta, params)
    return (h.h_zz * h.h_ww + abs(h.h_zw) ** 2) / h.det()


def reference_table(quantity, axes, params):
    """(header, rows, conditions) from one scalar evaluation per grid node."""
    origin = make_jacobi_point(0.0, 0.0)
    rows, conditions = [], []
    for x in axes[0]:
        for y in axes[1]:
            for u in axes[2]:
                for v in axes[3]:
                    zeta = make_jacobi_point(complex(x, y), complex(u, v))
                    rows.append(([x, y, u, v],
                                 _reference_value(quantity, zeta, origin, params)))
                    conditions.append(_condition(quantity, zeta, params))
    # an empty grid has the columns of its quantity, as at any one node
    keys = sorted(rows[0][1] if rows else _reference_value(quantity, origin, origin, params))
    header = ["re_z", "im_z", "re_w", "im_w"] + keys
    return header, [coords + [values[k] for k in keys] for coords, values in rows], conditions


def batched_table(quantity, axis_args, out: Path, extra=()):
    """Run ``table`` and return (exit code, stderr, lines or None)."""
    flags = ("--re-z", "--im-z", "--re-w", "--im-w")
    argv = ["table", quantity, *extra, "--out", str(out)]
    argv += [f"{flag}={text}" for flag, text in zip(flags, axis_args)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.read_text().splitlines() if out.exists() else None
    return code, err.getvalue(), lines


def _close(a: complex, b: complex, rel: float) -> bool:
    if math.isnan(abs(a)) or math.isnan(abs(b)):
        return math.isnan(abs(a)) and math.isnan(abs(b))
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def assert_equivalent(quantity, axis_args, out: Path, params=ModelParams(1.0, 1.0),
                      extra=()):
    axes = [parse_range(text).tolist() for text in axis_args]
    code, err, lines = batched_table(quantity, axis_args, out, extra)
    assert code == 0, err
    header, rows, conditions = reference_table(quantity, axes, params)
    assert lines[0].split(",") == header
    assert len(lines) == 1 + len(rows)
    for line, row, cond in zip(lines[1:], rows, conditions):
        cells = line.split(",")
        assert cells[:4] == [repr(c) for c in row[:4]]     # row order
        for cell, want in zip(cells[4:], row[4:]):
            assert _close(complex(cell), want, REL * cond), (line, row)


# |z| up to 2.1 sqrt(2) ~ 2.97 and |w| up to 0.67 sqrt(2) ~ 0.95
WIDE_GRID = ("-2.1:2.1:5", "-2.1:2.1:4", "-0.67:0.67:5", "-0.67:0.67:4")


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_matches_reference_loop(quantity, tmp_path):
    assert_equivalent(quantity, WIDE_GRID, tmp_path / "t.csv")


@pytest.mark.parametrize("quantity", ("metric", "christoffel", "diastasis"))
def test_matches_reference_loop_other_params(quantity, tmp_path):
    assert_equivalent(quantity, WIDE_GRID, tmp_path / "t.csv",
                      ModelParams(2.5, 0.3), extra=("--k", "2.5", "--mu", "0.3"))


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_empty_grid_writes_header_only(quantity, tmp_path):
    code, _, lines = batched_table(quantity, ("0:1:3", "0:1:0", "0", "0"),
                                   tmp_path / "e.csv")
    assert code == 0
    assert lines == [",".join(reference_table(quantity, [[0.0], [], [0.0], [0.0]],
                                              ModelParams(1.0, 1.0))[0])]


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_one_node_outside_disk_writes_nothing(quantity, tmp_path):
    out = tmp_path / "v.csv"
    # the last of the four re_w nodes, 1.0, is outside the disk
    code, err, lines = batched_table(quantity, ("0", "0", "-0.5:1.0:4", "0"), out)
    assert code == 2
    assert lines is None
    with pytest.raises(ValueError) as raised:
        make_jacobi_point(0.0, 1.0)
    assert err == f"error: {raised.value}\n"


_axis_ends = st.floats(-3.0, 3.0, allow_nan=False)
_disk_ends = st.floats(-0.999, 0.999, allow_nan=False)


def _axis(ends):
    return st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}", ends, ends,
                     st.integers(0, 3))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(quantity="potential",     # |w| near 1: P = 1 - |w|^2 magnifies rounding
         axis_args=("1.0:0.0:1", "0.0:0.0:1", "0.0:0.8844572243758388:2",
                    "0.0:0.4555340318716:2"))
@given(quantity=st.sampled_from(QUANTITIES),
       axis_args=st.tuples(_axis(_axis_ends), _axis(_axis_ends),
                           _axis(_disk_ends), _axis(_disk_ends)))
def test_random_small_grids(quantity, axis_args):
    axes = [parse_range(text).tolist() for text in axis_args]
    try:
        reference_table(quantity, axes, ModelParams(1.0, 1.0))
    except ValueError as exc:   # a node outside the guarded disk
        with tempfile.TemporaryDirectory() as tmp:
            code, err, lines = batched_table(quantity, axis_args, Path(tmp) / "t.csv")
        assert (code, err, lines) == (2, f"error: {exc}\n", None)
        return
    with tempfile.TemporaryDirectory() as tmp:
        assert_equivalent(quantity, axis_args, Path(tmp) / "t.csv")


@pytest.mark.parametrize("quantity", ("metric", "scalar-curvature"))
def test_degenerate_metric_raises_as_scalar(quantity, tmp_path):
    # mu = 0 leaves h_zz = 0: no node has a positive definite metric
    out = tmp_path / "m.csv"
    code, err, lines = batched_table(quantity, ("0:1:2", "0", "0:0.5:2", "0"),
                                     out, extra=("--mu", "0"))
    assert (code, lines) == (2, None)
    with pytest.raises(ValueError) as raised:
        geometry.metric(make_jacobi_point(0.0, 0.0), ModelParams(1.0, 0.0))
    assert err == f"error: {raised.value}\n"


# (k, mu), z, w, (h_zz, h_zw, h_ww), scalar curvature, as the per-point
# implementation computed them (the curvature as the trace of an inverted
# 2x2 matrix); pins the closed forms themselves, not only their batching
PINNED = [
    ((1.0, 1.0), 0.3 + 0.2j, 0.1 - 0.2j,
     (1.0526315789473684, 0.3213296398891967 + 0.1329639889196676j, 2.3309520338241727),
     -1.5),
    ((1.0, 1.0), -1.4 + 0.7j, 0.5 + 0.3j,
     (1.5151515151515151, -4.338842975206611 - 0.16069788797061538j, 17.033280463032526),
     -1.5),
    ((1.0, 1.0), 2.1 + 2.1j, 0.67 + 0.67j,
     (9.784735812133087, 470.47154384366013 + 201.05621531780346j, 26944.077203908062),
     -1.4999999999999705),
    ((1.0, 1.0), -2.1 + 2.1j, -0.67 + 0.67j,
     (9.784735812133087, 68.35911320805322 + 201.05621531780346j, 4800.351571645833),
     -1.5000000000000038),
    ((1.0, 1.0), 2.97 + 0j, -0.95 + 0j,
     (10.256410256410254, 15.62130177514795 + 0j, 234.18034693774334),
     -1.4999999999999998),
    ((2.5, 0.3), 0.3 + 0.2j, 0.1 - 0.2j,
     (0.3157894736842105, 0.096398891966759 + 0.03988919667590028j, 5.574631870535064),
     -0.6),
    ((2.5, 0.3), 2.1 + 2.1j, 0.67 + 0.67j,
     (2.9354207436399262, 141.14146315309804 + 60.31686459534103j, 8504.483802790674),
     -0.5999999999999994),
    ((2.5, 0.3), 2.97 + 0j, -0.95 + 0j,
     (3.0769230769230758, 4.686390532544385 + 0j, 533.1074900116316),
     -0.6000000000000002),
]


@pytest.mark.parametrize("kmu, z, w, h_want, curvature", PINNED)
def test_pinned_metric_and_curvature(kmu, z, w, h_want, curvature):
    params = ModelParams(*kmu)
    zeta = make_jacobi_point(z, w)
    origin = np.zeros(1, dtype=complex)
    batch = {q: evaluate(q, np.array([z]), np.array([w]), origin, origin, params)
             for q in ("metric", "scalar-curvature")}
    h = geometry.metric(zeta, params)
    for got in ((h.h_zz, h.h_zw, h.h_ww),
                (batch["metric"]["h_zz"][0],
                 complex(batch["metric"]["h_zw_re"][0], batch["metric"]["h_zw_im"][0]),
                 batch["metric"]["h_ww"][0])):
        for a, b in zip(got, h_want):
            assert _close(a, b, REL), (got, h_want)
    cond = _condition("scalar-curvature", zeta, params)
    for got in (_scalar_curvature(zeta, params),
                batch["scalar-curvature"]["value"][0]):
        assert _close(got, curvature, REL * cond), (got, curvature)
