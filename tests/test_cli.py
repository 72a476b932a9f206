import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_no_children, run_python
from jacobi_cs import cli, core, verify
from jacobi_cs.cli import MAX_GEODESIC_STEPS, main, parse_complex, parse_range


PINNED_CSV = (
    b"t,re_z,im_z,re_w,im_w,re_dz,im_dz,re_dw,im_dw,speed\r\n"
    b"0.0,0.3,-0.2,0.1,0.2,0.4,0.1,-0.2,0.3,0.7031306909993077\r\n"
    b"0.125,0.3498223441247934,-0.18797865523421659,0.07541201079116688,"
    b"0.23736884436491962,0.39685618958300367,0.092327841569485,"
    b"-0.19327725414753288,0.2976345535119824,0.7031306841908525\r\n"
    b"0.25,0.3991409133757946,-0.17691833371398982,0.051710503409449125,"
    b"0.2743431472899539,0.39195900073607415,0.0846483890789207,"
    b"-0.185839309109712,0.2936988896637059,0.7031306746796055\r\n"
    b"0.375,0.44774458194445,-0.16681081464459335,0.02897613104004302,"
    b"0.31073163475635046,0.38544302241462536,0.07710634198244473,"
    b"-0.17782676837905156,0.2882781731143553,0.7031306626217805\r\n"
    b"0.5,0.49544111109985606,-0.15763041205686162,0.007271835055812109,"
    b"0.3463555057034995,0.3774747798044063,0.06983578483863837,"
    b"-0.16938156314016417,0.2814860250493126,0.7031306482432094\r\n"
    b"0.625,0.5420607174413055,-0.149335526725843,-0.013357011432877035,"
    b"0.3810516746371421,0.36824583042241493,0.06295676924991585,"
    b"-0.16064210108260765,0.2734593442080578,0.7031306318382086\r\n"
    b"0.75,0.587458742303972,-0.14187055450459118,-0.032881896367379364,"
    b"0.4146753197909932,0.35796536928734174,0.05657304113807573,"
    b"-0.15173913287536536,0.26435244198776015,0.7031306137656551\r\n"
    b"0.875,0.631517391599112,-0.13516800573141363,-0.05128999837312395,"
    b"0.44710167653385063,0.346852827565159,0.05077093074808116,"
    b"-0.14279249366992677,0.25433089772423273,0.7031305944425024\r\n"
    b"1.0,0.6741465728176093,-0.12915069439184826,-0.06858266765199374,"
    b"0.4782270653543982,0.3351308932354901,0.045619326817590594,"
    b"-0.13390878558774885,0.24356551625599315,0.7031305743351616\r\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_complex_single(self):
        assert parse_complex("1.5") == 1.5

    def test_complex_pair(self):
        assert parse_complex("1.0,0.5") == 1 + 0.5j

    def test_complex_bad(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("a,b")

    def test_range(self):
        vals = parse_range("0:1:3")
        assert list(vals) == [0.0, 0.5, 1.0]

    def test_range_empty(self):
        assert len(parse_range("0:1:0")) == 0

    @pytest.mark.parametrize("text", ["-1.7e308:1.7e308:3", "1e308:-1e308:2",
                                      "inf:1:3", "0:nan:1", "-inf:-inf:0"])
    def test_range_without_a_finite_span_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=re.escape(repr(text))):
            parse_range(text)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_span_exits_2_naming_the_range(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["table", "potential", "--re-z=-1.7e308:1.7e308:3",
                  "--out", str(out_file)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1] == (
            "jacobi-cs table: error: argument --re-z: range '-1.7e308:1.7e308:3' "
            "needs finite ends less than the largest float apart")
        assert "Warning" not in err and "nan" not in err
        assert not out_file.exists()

    def test_negative_complex_without_equals(self, capsys):
        code, out, _ = run(capsys, "eval", "kernel", "--z", "-0.5,0.2", "--w", "-.1")
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert (inputs["z"], inputs["w"]) == ([-0.5, 0.2], [-0.1, 0.0])

    def test_negative_range_without_equals(self, capsys, tmp_path):
        out_file = tmp_path / "k.csv"
        code, _, _ = run(capsys, "table", "kernel", "--re-z", "-1:1:20",
                         "--out", str(out_file))
        assert code == 0
        rows = out_file.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert rows[0].split(",")[0] == "-1.0"

    def test_parser_built_once_and_commands_found_at_call_time(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert main(["eval", "kernel"]) == 7

    def test_negative_value_after_value_stays_positional(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "kernel", "--z", "-1", "-2")
        assert exc.value.code == 2


class TestEval:
    def test_scalar_curvature(self, capsys):
        code, out, _ = run(capsys, "eval", "scalar-curvature",
                           "--k", "1", "--mu", "1", "--z", "0", "--w", "0")
        assert code == 0
        record = json.loads(out)
        assert record["value"]["value"] == pytest.approx(-1.5)

    def test_metric_hand_value(self, capsys):
        code, out, _ = run(capsys, "eval", "metric", "--k", "1", "--mu", "1",
                           "--z", "1", "--w", "0.5")
        assert code == 0
        value = json.loads(out)["value"]
        assert value["h_zz"] == pytest.approx(4 / 3)
        assert value["h_zw_re"] == pytest.approx(8 / 3)
        assert value["h_ww"] == pytest.approx(80 / 9)

    def test_kernel_defaults_second_point(self, capsys):
        code, out, _ = run(capsys, "eval", "kernel",
                           "--z", "0", "--w", "0", "--z2", "0", "--w2", "0")
        assert code == 0
        value = json.loads(out)["value"]
        assert value["re"] == pytest.approx(1.0)

    def test_invalid_point_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "potential", "--w", "1.0")
        assert code == 2
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", ["1.7e308,1.7e308", "1e308,1e308"])
    def test_huge_w_exits_2_without_warning(self, capsys, w):
        # |w| may overflow the float range: the point is still outside the disk
        code, out, err = run(capsys, "eval", "potential", f"--w={w}")
        assert (code, out) == (2, "")
        assert err.startswith("error: |w|=") and err.endswith(" is not inside the open disk\n")
        assert err.count("\n") == 1

    def test_eta(self, capsys):
        code, out, _ = run(capsys, "eval", "eta", "--z", "1", "--w", "0.5")
        assert code == 0
        assert json.loads(out)["value"]["re"] == pytest.approx(2.0)

    def test_christoffel_pairs(self, capsys):
        code, out, _ = run(capsys, "eval", "christoffel", "--k", "2",
                           "--z", "1", "--w", "0.5")
        assert code == 0
        value = json.loads(out)["value"]
        assert list(value) == ["g_zzz", "g_wzz", "g_zzw", "g_wwz", "g_zww", "g_www"]
        assert value["g_wzz"] == [0.25, 0.0]

    def test_kernel_overflow_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "kernel", "--z", "30")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("quantity", ["berezin", "potential", "diastasis",
                                          "metric", "scalar-curvature"])
    def test_non_finite_value_exits_3(self, capsys, quantity):
        code, out, err = run(capsys, "eval", quantity, "--z", "1e200")
        assert code == 3
        assert out == ""       # never NaN in place of JSON
        assert err.startswith("error:")


class TestGeodesic:
    def test_zero_velocity_two_rows(self, capsys, tmp_path):
        out_file = tmp_path / "p.csv"
        code, out, _ = run(capsys, "geodesic", "--z", "0.5", "--w", "0.1",
                           "--t-end", "1", "--steps", "1", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 3   # header plus two samples
        summary = json.loads(out)
        assert summary["length"] == 0.0

    def test_disk_run_matches_closed_form(self, capsys, tmp_path):
        out_file = tmp_path / "disk.csv"
        code, out, _ = run(capsys, "geodesic", "--dw", "0.6",
                           "--t-end", "1", "--out", str(out_file))
        assert code == 0
        summary = json.loads(out)
        assert summary["closed_form_residual"] is not None
        assert summary["closed_form_residual"] < 1e-8
        assert summary["energy_drift"] < 1e-8
        assert summary["final"]["w"][0] == pytest.approx(math.tanh(0.6), rel=1e-6)

    @pytest.mark.parametrize("t_end", ["inf", "-inf", "nan"])
    def test_non_finite_t_end_exits_2(self, capsys, tmp_path, t_end):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dw", "0.6",
                             f"--t-end={t_end}", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "t_end" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("t_end", ["0", "-1"])
    def test_t_end_not_positive_exits_2(self, capsys, tmp_path, t_end):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", "--t-end", t_end,
                             "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--t-end" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("--t-end", "1e300"),                                  # 1e303 steps
        ("--steps", str(MAX_GEODESIC_STEPS + 1)),
        ("--t-end", "1e308", "--rk4-step", "1e-300"),          # inf steps
    ])
    def test_step_count_over_limit_exits_2(self, capsys, tmp_path, argv):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", *argv,
                             "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(MAX_GEODESIC_STEPS) in err
        assert not out_file.exists()

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_steps_below_one_exits_2(self, capsys, tmp_path, steps):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", "--steps", steps,
                             "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--steps" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("rk4_step", ["0", "-1", "-1e-3", "nan", "inf"])
    @pytest.mark.parametrize("steps", [(), ("--steps", "10")])
    def test_bad_rk4_step_exits_2(self, capsys, tmp_path, rk4_step, steps):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", "--rk4-step", rk4_step,
                             *steps, "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "rk4_step" in err
        assert not out_file.exists()

    def test_bad_rk4_step_from_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rk4_step": 0}))
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", "--config", str(cfg),
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "rk4_step" in err

    def test_non_finite_speed_exits_3(self, capsys, tmp_path):
        # |eta|^2 overflows in the metric; the path itself stays put
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--z", "1e200", "--steps", "2",
                             "--out", str(out_file))
        assert (code, out) == (3, "")
        assert err.startswith("error:")
        assert not out_file.exists()

    def test_degenerate_metric_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "geodesic", "--dw", "0.1", "--mu", "0",
                             "--steps", "2", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error: metric coefficients are not positive definite")

    def test_csv_pinned(self, capsys, tmp_path):
        # written by the per-sample implementation of an earlier release;
        # t, position and velocity cells must match it byte for byte, the
        # speed (now computed on arrays) to 4 ulps
        out_file = tmp_path / "pin.csv"
        code, out, _ = run(capsys, "geodesic", "--z=0.3,-0.2", "--w=0.1,0.2",
                           "--dz=0.4,0.1", "--dw=-0.2,0.3", "--k", "1.5", "--mu", "0.5",
                           "--t-end", "1", "--steps", "8", "--out", str(out_file))
        assert code == 0
        got = out_file.read_bytes().split(b"\r\n")
        want = PINNED_CSV.split(b"\r\n")
        assert len(got) == len(want) == 11 and got[0] == want[0] and got[-1] == b""
        for row, pinned in zip(got[1:-1], want[1:-1]):
            cells, pinned_cells = row.split(b","), pinned.split(b",")
            assert cells[:9] == pinned_cells[:9]
            speed, pinned_speed = float(cells[9]), float(pinned_cells[9])
            assert abs(speed - pinned_speed) <= 4 * math.ulp(pinned_speed)
        summary = json.loads(out)
        assert summary["final"] == {"t": 1.0, "z": [0.6741465728176093, -0.12915069439184826],
                                    "w": [-0.06858266765199374, 0.4782270653543982]}
        assert summary["length"] == pytest.approx(0.703130642806131, rel=1e-14)
        assert summary["energy_drift"] == pytest.approx(1.1666414612143683e-07,
                                                        abs=4 * math.ulp(0.7031306909993077))

    def test_boundary_escape_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "geodesic", "--w", "0.9", "--dw", "2.0",
                             "--mu", "0", "--t-end", "2",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "boundary" in out or "escape" in out
        assert err

    @pytest.mark.parametrize("argv, t, message", [
        # a Runge-Kutta stage leaves the disk
        (("--w", "0.9", "--dw", "2.0", "--mu", "0", "--t-end", "2"),
         0.877, "trajectory left the disk at t=0.877"),
        # every stage stays inside, the accepted first step does not
        (("--w", "0.7", "--dw", "0.8,-0.8", "--t-end", "1.2", "--steps", "3"),
         0.39999999999999997, "step left the disk at t=0.4"),
    ])
    def test_boundary_escape_pinned(self, capsys, tmp_path, argv, t, message):
        code, out, err = run(capsys, "geodesic", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert out == json.dumps({"error": "boundary escape", "t": t}) + "\n"
        assert err == f"error: {message}\n"

    def test_velocity_overflow_exits_3(self, capsys, tmp_path):
        # four d2w stages of about -8.5e307 sum to -inf in one tiny step
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "geodesic", "--dz", "1.3e154", "--t-end", "1e-300",
                             "--steps", "1", "--out", str(out_file))
        assert (code, out) == (3, "")
        assert err == "error: velocity overflowed at t=1e-300\n"
        assert not out_file.exists()

    def test_summary_min_p(self, capsys, tmp_path):
        out_file = tmp_path / "p.csv"
        code, out, _ = run(capsys, "geodesic", "--z=0.3,-0.2", "--w=0.1,0.2",
                           "--dz=0.4,0.1", "--dw=-0.2,0.3", "--t-end", "1",
                           "--steps", "20", "--out", str(out_file))
        assert code == 0
        summary = json.loads(out)
        assert list(summary) == ["final", "length", "energy_drift",
                                 "closed_form_residual", "csv", "min_p"]
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        p = [1.0 - (float(r[3]) * float(r[3]) + float(r[4]) * float(r[4])) for r in rows]
        assert summary["min_p"] == min(p)
        assert 0.0 < summary["min_p"] < p[0]   # this path moves outward


class TestVerifyCommand:
    def test_geometry_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "geometry", "--k", "1", "--mu", "1")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(rec["pass"] for rec in report["suites"]["geometry"])

    def test_coarse_step_fails_fd_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "geometry", "--fd-step", "1e-2")
        assert code == 1
        report = json.loads(out)
        failing = [rec["check"] for rec in report["suites"]["geometry"]
                   if not rec["pass"]]
        assert failing

    def test_out_of_range_step_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "geometry", "--fd-step", "0.1")
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("argv", [("--rk4-step", "0"), ("--rk4-step", "-1"),
                                      ("--rk4-step", "1e-7")])
    def test_bad_rk4_step_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", "geodesics", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        if argv[1] == "1e-7":
            assert str(MAX_GEODESIC_STEPS) in err

    @pytest.mark.parametrize("mc_samples", [verify.MIN_MC_SAMPLES - 1,
                                            verify.MAX_MC_SAMPLES + 1])
    def test_mc_samples_out_of_range_exits_2_before_any_suite(self, capsys, monkeypatch,
                                                               mc_samples):
        monkeypatch.setattr(verify, "_SUITES", {})     # no suite can run, no sample is drawn
        code, out, err = run(capsys, "verify", "all", "--mc-samples", str(mc_samples))
        assert (code, out) == (2, "")
        assert err == (f"error: mc_samples must be between {verify.MIN_MC_SAMPLES} and "
                       f"{verify.MAX_MC_SAMPLES}, got {mc_samples}\n")

    @pytest.mark.parametrize("key", ["n_max", "m_max"])
    def test_truncation_order_over_limit_exits_2_before_any_suite(self, capsys, monkeypatch,
                                                                  tmp_path, key):
        monkeypatch.setattr(verify, "_SUITES", {})     # no suite can run, no basis is built
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 10**4}))
        flag = "--" + key.replace("_", "-")
        for argv in ([flag, "10000"], ["--config", str(cfg)]):
            code, out, err = run(capsys, "verify", "all", *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: {key} must be at most {cli.MAX_TRUNCATION_ORDER}, "
                           f"got 10000\n")
        limit = str(cli.MAX_TRUNCATION_ORDER)
        assert run(capsys, "eval", "potential", flag, limit)[0] == 0
        assert run(capsys, "eval", "potential", flag, limit + "1")[0] == 2

    def test_boundary_escape_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "geodesics", "--rk4-step", "1.5")
        assert (code, out, err) == (3, "", "error: trajectory left the disk at t=0\n")

    def test_boundary_escape_in_a_worker_exits_3(self, capsys, forked):
        code, out, err = run(capsys, "verify", "all", "--rk4-step", "1.5",
                             "--mc-samples", "10000")
        assert forked == [2]         # the geodesics suite ran in a worker
        assert (code, out, err) == (3, "", "error: trajectory left the disk at t=0\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")    # no numpy warning reaches stderr
    def test_non_finite_deviation_exits_3(self, capsys):
        # the kernel overflows at this k: no NaN in place of JSON
        code, out, err = run(capsys, "verify", "kernels", "--k", "1e308")
        assert (code, out) == (3, "")
        assert err == ("error: kernels check hermitian-symmetry has no finite "
                       "deviation at these settings\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_exits_3_naming_the_suite(self, capsys):
        # the determinant of a finite-difference stencil's metric overflows
        code, out, err = run(capsys, "verify", "geometry", "--mu", "1e300")
        assert (code, out) == (3, "")
        assert err == ("error: the geometry suite overflowed at these settings: "
                       "Numerical result out of range\n")

    def test_forked_error_stderr_is_one_line(self):
        # at mu = 0 the algebra suite raises first in name order; the
        # geometry suite, run meanwhile in a worker, warns, but a run in
        # name order would never have reached it
        proc = run_python("import sys\n"
                          "from jacobi_cs import cli, core\n"
                          "core.usable_cpus = lambda: 3\n"
                          "sys.exit(cli.main(['verify', 'all', '--mu', '0']))\n")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: the operator realization needs mu > 0\n"

    def test_quadrature_reproducible(self, capsys):
        code1, out1, _ = run(capsys, "verify", "quadrature", "--seed", "42",
                             "--mc-samples", "50000")
        code2, out2, _ = run(capsys, "verify", "quadrature", "--seed", "42",
                             "--mc-samples", "50000")
        assert code1 == code2 == 0
        assert out1 == out2


class TestTable:
    def test_constant_scalar_curvature_column(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, _, _ = run(capsys, "table", "scalar-curvature", "--k", "2",
                         "--re-w=-0.5:0.5:5", "--im-w=-0.2:0.2:3",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 3
        for line in lines[1:]:
            cells = [float(cell) for cell in line.split(",")]
            assert cells[-1] == pytest.approx(-0.75)
        assert float(lines[1].split(",")[2]) == pytest.approx(-0.5)

    def test_diastasis_monotone_along_radius(self, capsys, tmp_path):
        out_file = tmp_path / "d.csv"
        code, _, _ = run(capsys, "table", "diastasis",
                         "--re-w", "0:0.8:9", "--out", str(out_file))
        assert code == 0
        rows = out_file.read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[-1]) for r in rows]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.0)

    def test_empty_grid_header_only(self, capsys, tmp_path):
        out_file = tmp_path / "e.csv"
        code, _, _ = run(capsys, "table", "volume", "--re-w", "0:1:0",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_oversized_grid_refused_before_allocation(self, capsys):
        # 1e10 nodes would need about 75 GiB for one coordinate grid; the
        # refusal must come before any grid array is built
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "table", "kernel", "--re-z=0:1:100000",
                                 "--im-z=0:1:100000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "10000000000 nodes" in err
        assert peak < 16e6

    def test_peak_memory_flat_in_grid_size(self):
        # nodes are built and evaluated 8,192 at a time, so the writing
        # process peaks as high at 4e6 nodes as at 2.5e5 (34 MB on a
        # 2-vCPU Linux VM; holding the whole grid took about 122 MB per 1e6)
        proc = run_python(
            "import os, resource\n"
            "from jacobi_cs import cli\n"
            "for n in (50, 200):\n"
            "    assert cli.main(['table', 'potential', f'--re-z=-1:1:{n}',\n"
            "                     f'--im-z=-1:1:{n}', '--re-w=-0.5:0.5:10',\n"
            "                     '--im-w=-0.5:0.5:10', '--out', os.devnull]) == 0\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        assert proc.returncode == 0, proc.stderr
        small, large = map(int, proc.stdout.split())
        assert large <= 1.1 * small

    def test_node_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_NODES", 12)
        code, _, _ = run(capsys, "table", "potential", "--re-z", "0:1:3",
                         "--im-z", "0:1:4", "--out", str(tmp_path / "t.csv"))
        assert code == 0
        code, _, err = run(capsys, "table", "potential", "--re-z", "0:1:3",
                           "--im-z", "0:1:5")
        assert code == 2 and "15 nodes" in err

    def test_oversized_axis_refused_while_parsing(self):
        with pytest.raises(argparse.ArgumentTypeError, match="table limit"):
            parse_range(f"0:1:{10**12}")

    def test_disk_violation_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "volume", "--re-w", "0:1:5",
                           "--out", str(tmp_path / "v.csv"))
        assert code == 2
        assert err

    @pytest.mark.parametrize("quantity, axes", [
        # a w outside the disk, first met with the first z
        ("potential", ("-1:1:7", "-1:1:11", "-0.6:0.6:17", "-0.9:0.9:19")),
        # a z that is not finite, at every node
        ("berezin", ("-1:1:7", "nan", "-0.6:0.6:17", "-0.6:0.6:19")),
        # the metric's determinant cancels to zero from row 10,962 on, in a
        # worker's range of the rows
        ("metric", ("0:6e7:7", "-1:1:11", "-0.6:0.6:17", "-0.6:0.6:19")),
        ("scalar-curvature", ("0:6e7:7", "-1:1:11", "-0.6:0.6:17", "-0.6:0.6:19")),
    ])
    def test_invalid_node_exits_2_before_any_row(self, monkeypatch, capsys, tmp_path,
                                                 quantity, axes):
        # the error is the one of evaluating the whole grid at once
        grid = [g.ravel() for g in np.meshgrid(*map(parse_range, axes), indexing="ij")]
        origin = np.zeros(1, dtype=complex)
        with pytest.raises(ValueError) as want:
            cli.evaluate(quantity, cli._complex_grid(*grid[:2]), cli._complex_grid(*grid[2:]),
                         origin, origin, core.ModelParams(1.0, 1.0))
        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        out_file = tmp_path / "t.csv"
        flags = [f"{flag}={axis}" for flag, axis in
                 zip(("--re-z", "--im-z", "--re-w", "--im-w"), axes)]
        code, out, err = run(capsys, "table", quantity, *flags, "--out", str(out_file))
        assert (code, out, err) == (2, "", f"error: {want.value}\n")
        assert not out_file.exists()
        assert_no_children()

    @pytest.mark.filterwarnings("error")
    def test_node_with_overflowing_w_exits_2_without_warning(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, out, err = run(capsys, "table", "potential", "--re-w=1.7e308:0:2",
                             "--im-w=1.7e308", "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: |w|=inf is not inside the open disk\n")
        assert not out_file.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_cells_are_written(self, capsys, tmp_path):
        out_file = tmp_path / "d.csv"
        code, _, err = run(capsys, "table", "diastasis", "--re-z=1e200",
                           "--out", str(out_file))
        assert code == 0
        assert err == ""
        assert out_file.read_text().splitlines()[1].split(",")[-1] == "nan"

    def test_non_finite_metric_cells_are_written(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, _, err = run(capsys, "table", "metric", "--re-z=1e200",
                           "--out", str(out_file))
        assert (code, err) == (0, "")
        header, row = out_file.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["h_ww"] == "inf"


# 7 * 11 * 17 * 19 = 24,871 rows: three parts of at least 8,192 rows, and
# neither two nor three parts divide the rows evenly
PARALLEL_GRID = ("--re-z=-1.5:1.5:7", "--im-z=-1.5:1.5:11", "--re-w=-0.6:0.6:17",
                 "--im-w=-0.6:0.6:19")


class TestParallelTable:
    @staticmethod
    def table(monkeypatch, cpus, quantity, out):
        """Bytes of ``table`` at ``cpus`` usable CPUs to a file, or to a
        stdout with a binary buffer when ``out`` is None."""
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["table", quantity, *PARALLEL_GRID, "--out", str(out) if out else "-"])
        assert code == 0
        assert_no_children()
        if out:
            return out.read_bytes()
        stdout.flush()
        return stdout.buffer.getvalue()

    @pytest.mark.parametrize("quantity", cli._EVAL_QUANTITIES)
    def test_same_bytes_on_any_number_of_processes(self, monkeypatch, tmp_path, quantity):
        forks = []
        fork_rows = cli._fork_rows
        monkeypatch.setattr(cli, "_fork_rows",
                            lambda *a: forks.append(a[3:5]) or fork_rows(*a))
        want = self.table(monkeypatch, 1, quantity, tmp_path / "one.csv")
        assert forks == []
        assert want.count(b"\n") == 1 + 7 * 11 * 17 * 19
        for cpus, parts in ((2, [(12435, 24871)]),
                            (3, [(8290, 16580), (16580, 24871)])):
            forks.clear()
            assert self.table(monkeypatch, cpus, quantity, tmp_path / "t.csv") == want
            assert self.table(monkeypatch, cpus, quantity, None) == want
            assert forks == parts * 2

    def test_stdout_without_a_buffer(self, monkeypatch, tmp_path):
        want = self.table(monkeypatch, 1, "metric", tmp_path / "one.csv")
        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["table", "metric", *PARALLEL_GRID]) == 0
        assert_no_children()
        assert out.getvalue().encode() == want

    @pytest.mark.parametrize("cpus, rows, fork", [
        (1, 4 * 8192, True),            # one usable CPU
        (3, 2 * 8192 - 1, True),        # too few rows for two parts
        (3, 4 * 8192, False),           # no fork on the platform
    ])
    def test_one_part_runs_in_process(self, monkeypatch, tmp_path, cpus, rows, fork):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        if not fork:
            monkeypatch.delattr(os, "fork")

        def no_fork(*args):
            raise AssertionError("a child was forked")

        monkeypatch.setattr(cli, "_fork_rows", no_fork)
        out = tmp_path / "t.csv"
        assert main(["table", "volume", f"--re-w=0:0.5:{rows}", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == rows + 1

    def test_coordinates_start_at_any_row(self):
        texts = [["a", "b", "c"], ["d"], ["e", "f", "g", "h"], ["i", "j"]]
        rows = list(map(",".join, itertools.product(*texts)))
        for start in range(len(rows)):
            assert list(cli._coords(texts, start)) == rows[start:]
        assert list(cli._coords([["a"], []], 0)) == []

    def test_failing_parent_write_reaps_every_child(self, monkeypatch, capsys):
        class FailingOut(io.StringIO):
            def write(self, text):
                if self.tell():         # the header is written, the rows fail
                    raise OSError("no space left on device")
                return super().write(text)

        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        forks = []
        fork_rows = cli._fork_rows
        monkeypatch.setattr(cli, "_fork_rows",
                            lambda *a: forks.append(fork_rows(*a)) or forks[-1])
        monkeypatch.setattr(sys, "stdout", FailingOut())
        assert main(["table", "christoffel", *PARALLEL_GRID]) == 2
        assert len(forks) == 2
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert_no_children()

    def test_failing_child_exits_2_without_traceback(self, monkeypatch, capfd, tmp_path):
        write_rows = cli._write_rows

        def failing(write, texts, columns, keys, start, stop):
            if start:                   # a child's range
                raise OSError("no space left on device")
            write_rows(write, texts, columns, keys, start, stop)

        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "_write_rows", failing)
        code = main(["table", "metric", *PARALLEL_GRID, "--out", str(tmp_path / "t.csv")])
        assert_no_children()
        out, err = capfd.readouterr()
        assert (code, out) == (2, "")
        assert err == ("error: the process writing table rows from 8290 on failed "
                       "with exit status 1\n")

    def test_fresh_interpreter_forks_without_multiprocessing(self, tmp_path):
        # the unflushed line before the fork must not be flushed by the child too
        out = tmp_path / "t.csv"
        proc = run_python(
            "import os, sys\n"
            "from jacobi_cs import cli, core\n"
            "core.usable_cpus = lambda: 2\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "sys.stdout.write('written before the fork\\n')\n"
            "code = cli.main(['table', 'volume', '--re-z=0:1:200', '--re-w=-0.5:0.5:200',\n"
            f"                 '--out', {str(out)!r}])\n"
            "print(code, len(forks), 'multiprocessing' in sys.modules)\n")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "written before the fork\n0 1 False\n"
        assert out.read_text().count("\n") == 1 + 200 * 200


class TestConfig:
    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2.0}))
        code, out, _ = run(capsys, "eval", "scalar-curvature",
                           "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["value"]["value"] == pytest.approx(-0.75)
        # flag wins over file
        code, out, _ = run(capsys, "eval", "scalar-curvature",
                           "--config", str(cfg), "--k", "3")
        assert json.loads(out)["value"]["value"] == pytest.approx(-0.5)

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1.5}))
        monkeypatch.setenv("JACOBI_CS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "eval", "scalar-curvature")
        assert code == 0
        assert json.loads(out)["value"]["value"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("entry", [{"k": "1"}, {"rk4_step": "0.001"},
                                       {"seed": 1.5}, {"mu": True}, {"tolerances": []}])
    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        code, out, err = run(capsys, "geodesic", "--dw", "0.6", "--config", str(cfg),
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and next(iter(entry)) in err

    @pytest.mark.parametrize("tol", ['"x"', "NaN", "-1", "true"])
    def test_tolerance_not_a_finite_non_negative_number_exits_2(self, capsys, tmp_path,
                                                                tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"tolerances": {{"scalar-curvature-constant": {tol}}}}}')
        code, out, err = run(capsys, "verify", "geometry", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance 'scalar-curvature-constant'")
        assert err.count("\n") == 1

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "eval", "potential", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# finite, huge, and not finite; negative values are often passed without "="
_REAL = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(1e150, 1.7e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_VALUE = st.one_of(_REAL.map(repr),
                   st.tuples(_REAL, _REAL).map(lambda v: f"{v[0]!r},{v[1]!r}"))


def _flags(names):
    """Strategy for argv pieces setting a subset of ``names`` to fuzzed values."""
    def pieces(values, joined):
        argv = []
        for name, value, join in zip(names, values, joined):
            if value is not None:
                argv += [f"{name}={value}"] if join else [name, value]
        return argv
    n = len(names)
    return st.builds(pieces, st.lists(st.none() | _VALUE, min_size=n, max_size=n),
                     st.lists(st.booleans(), min_size=n, max_size=n))


def _near(lo, hi, rest=_REAL):
    """Strategy for a flag value: three times in four a number in [lo, hi],
    else one from ``rest``."""
    return st.integers(0, 3).flatmap(
        lambda i: rest if i == 0 else st.floats(lo, hi)).map(repr)


# a geodesics suite at --rk4-step 0.05 integrates 40 steps; a finer step is slow
_RK4_STEP = _near(0.05, 2.0, _REAL.filter(lambda x: not 0.0 < x < 0.05))


class TestFuzz:
    """Any input exits 0, 2 or 3 (or 1 from verify) with strict JSON or
    nothing on stdout and no traceback."""

    @staticmethod
    def check(argv, json_stdout=True, error_line=False):
        """Exit code of ``argv``; with ``error_line``, exits 2 and 3 must
        print exactly one line, an ``error:`` line, to stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:     # argparse rejects the command line
                code = exc.code
        assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), \
            (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if json_stdout and (code in (0, 1) or out.getvalue()):
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        if error_line and code in (2, 3):
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        return code

    @settings(max_examples=150, deadline=None)
    @given(quantity=st.sampled_from(cli._EVAL_QUANTITIES),
           flags=_flags(["--z", "--w", "--z2", "--w2", "--k", "--mu"]))
    def test_eval(self, quantity, flags):
        self.check(["eval", quantity, *flags])

    @settings(max_examples=150, deadline=None)
    @given(flags=_flags(["--z", "--w", "--dz", "--dw", "--t-end", "--k", "--mu"]),
           steps=st.integers(1, 50))
    def test_short_geodesic(self, flags, steps):
        self.check(["geodesic", *flags, "--steps", str(steps), "--out", os.devnull])

    @pytest.mark.filterwarnings("error::RuntimeWarning")    # no numpy warning reaches stderr
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(quantity=st.sampled_from(cli._EVAL_QUANTITIES),
           axes=st.lists(st.tuples(_REAL, _REAL, st.integers(0, 4), st.booleans()),
                         min_size=4, max_size=4),
           k=st.none() | _near(0.75, 10.0), mu=st.none() | _near(0.0, 10.0))
    def test_small_table(self, tmp_path, quantity, axes, k, mu):
        argv = ["table", quantity, "--out", str(tmp_path / "t.csv")]
        for flag, (a, b, n, join) in zip(("--re-z", "--im-z", "--re-w", "--im-w"), axes):
            value = f"{a!r}:{b!r}:{n}"
            argv += [f"{flag}={value}"] if join else [flag, value]
        for flag, value in (("--k", k), ("--mu", mu)):
            if value is not None:
                argv += [flag, value]
        self.check(argv, json_stdout=False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")    # no numpy warning reaches stderr
    @settings(max_examples=150, deadline=None)
    @given(suite=st.sampled_from(["geodesics", "geometry", "kernels", "group", "algebra"]),
           rk4_step=_RK4_STEP, fd_step=st.none() | _near(1e-7, 1e-2),
           k=st.none() | _near(0.75, 10.0), mu=st.none() | _near(0.0, 10.0))
    def test_verify_suite(self, suite, rk4_step, fd_step, k, mu):
        argv = ["verify", suite, "--rk4-step", rk4_step]
        for flag, value in (("--fd-step", fd_step), ("--k", k), ("--mu", mu)):
            if value is not None:
                argv += [flag, value]
        self.check(argv)

    # the suites' basis matrices hold (n_max + 1)(m_max + 1) entries per
    # point, so the orders stay small; 0 and below, and orders over
    # cli.MAX_TRUNCATION_ORDER, are refused
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(suite=st.sampled_from(["kernels", "embedding"]),
           n_max=st.none() | st.integers(-2, 80) | st.integers(81, 400),
           m_max=st.none() | st.integers(-2, 80) | st.integers(81, 400),
           k=st.none() | _near(0.75, 10.0), mu=st.none() | _near(0.0, 10.0))
    def test_verify_truncation(self, suite, n_max, m_max, k, mu):
        argv = ["verify", suite]
        for flag, value in (("--n-max", n_max), ("--m-max", m_max), ("--k", k),
                            ("--mu", mu)):
            if value is not None:
                argv += [flag, str(value)]
        code = self.check(argv, error_line=True)
        if any(order is not None and not 1 <= order <= cli.MAX_TRUNCATION_ORDER
               for order in (n_max, m_max)):
            assert code == 2

    # in range, the quadrature suite's parts run forked on small sample counts
    @settings(max_examples=60, deadline=None)
    @given(mc_samples=st.one_of(
        st.integers(verify.MIN_MC_SAMPLES, 20_000),
        st.integers(max_value=verify.MIN_MC_SAMPLES - 1),
        st.integers(min_value=verify.MAX_MC_SAMPLES + 1)))
    def test_verify_quadrature_mc_samples(self, mc_samples):
        code = self.check(["verify", "quadrature", f"--mc-samples={mc_samples}"])
        in_range = verify.MIN_MC_SAMPLES <= mc_samples <= verify.MAX_MC_SAMPLES
        assert code in ((0, 1) if in_range else (2,))
