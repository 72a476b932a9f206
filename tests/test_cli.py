import json
import math

import pytest

from jacobi_cs.cli import MAX_GEODESIC_STEPS, main, parse_complex, parse_range


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

    def test_boundary_escape_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "geodesic", "--w", "0.9", "--dw", "2.0",
                             "--mu", "0", "--t-end", "2",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "boundary" in out or "escape" in out
        assert err


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

    def test_disk_violation_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "volume", "--re-w", "0:1:5",
                           "--out", str(tmp_path / "v.csv"))
        assert code == 2
        assert err

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

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "eval", "potential", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err
