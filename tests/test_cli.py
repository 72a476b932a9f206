import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import signal
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

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
    try:
        code = main(list(argv))
    except SystemExit as exc:           # argparse refused the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


JSON = object()     # a stdout rule: strict JSON, with no NaN or Infinity


def _eval_out(quantity, value, k=1.0, **inputs):
    """The stdout of ``eval``, at the origin unless ``inputs`` say otherwise."""
    inputs = {"k": k, "mu": 1.0, "z": [0.0, 0.0], "w": [0.0, 0.0], **inputs}
    return json.dumps({"quantity": quantity, "inputs": inputs, "value": value}) + "\n"


class Case(NamedTuple):
    """One command line and all it shows.

    ``argv`` is split as a shell splits it and run in an empty directory,
    which holds ``config`` as cfg.json when that is given.  ``err`` is the
    last line of stderr; the lines before it must be argparse's usage, and
    only an argparse error (``jacobi-cs ...: error:``) has any.  ``out`` is
    the whole of stdout, or :data:`JSON`.  No case leaves a file behind.
    Without ``suites`` every suite checks nothing, so the case shows what
    ``verify`` refuses before any suite runs.
    """

    argv: str
    code: int
    err: str
    out: object = ""
    config: str | None = None
    suites: bool = True


_GEO = "geodesic --dw 0.6"
_LIMIT = (f"error: a geodesic run is limited to {MAX_GEODESIC_STEPS} steps, "
          "got t_end / rk4_step =")
_STEPS = f"error: --steps must be between 1 and {MAX_GEODESIC_STEPS}, got"
_RK4 = "error: rk4_step must be finite and positive, got"
_DISK = "is not inside the open disk"
_HEADER = "re_z,im_z,re_w,im_w,"
_ROW = "0.0,0.0,0.0,4.0"        # the rest of a volume row at w = 0
_ORDER = f"error: {{}} must be at most {cli.MAX_TRUNCATION_ORDER}, got 10000"
_ESCAPE = '{{"error": "boundary escape", "t": {}}}\n'
_UNREAD_ARGV = {"eval": "eval kernel", "table": "table volume", "geodesic": "geodesic"}

# The contract of the CLI, one case per test id ``Class::test[param]``; each
# id runs as that test through :func:`contract_test`.  The cases that need
# a patched module or a forked child have tests of their own.
CONTRACT: dict[str, Case] = {
    **{f"TestParsing::test_range_of_bad_form_exits_2[{text}]": Case(
        f"table potential --re-z {text} --out t.csv", 2, "jacobi-cs table: error: argument "
        f"--re-z: expected 'value' or 'start:stop:count', got {text!r}")
       for text in ("0:1:-1", "0:1")},
    "TestParsing::test_overflowing_span_exits_2_naming_the_range": Case(
        "table potential --re-z=-1.7e308:1.7e308:3 --out t.csv", 2, "jacobi-cs table: error: "
        "argument --re-z: range '-1.7e308:1.7e308:3' needs finite ends less than the largest "
        "float apart"),
    # a negative value needs no "="
    "TestParsing::test_negative_complex_without_equals": Case(
        "eval volume --z -0.5,0.2 --w -.5", 0, "",
        _eval_out("volume", {"value": 9.481481481481481}, z=[-0.5, 0.2], w=[-0.5, 0.0])),
    "TestParsing::test_negative_range_without_equals": Case(
        "table volume --re-z -1:1:2", 0, "", f"{_HEADER}value\n-1.0,{_ROW}\n1.0,{_ROW}\n"),
    "TestParsing::test_negative_value_after_value_stays_positional": Case(
        "eval kernel --z -1 -2", 2, "jacobi-cs: error: unrecognized arguments: -2"),
    "TestEval::test_scalar_curvature": Case(
        "eval scalar-curvature --k 1 --mu 1 --z 0 --w 0", 0, "",
        _eval_out("scalar-curvature", {"value": -1.5})),
    "TestEval::test_kernel_defaults_second_point": Case(
        "eval kernel --z 0 --w 0 --z2 0 --w2 0", 0, "",
        _eval_out("kernel", {"re": 1.0, "im": 0.0}, z2=[0.0, 0.0], w2=[0.0, 0.0])),
    "TestEval::test_eta": Case(
        "eval eta --z 1 --w 0.5", 0, "",
        _eval_out("eta", {"re": 2.0, "im": 0.0}, z=[1.0, 0.0], w=[0.5, 0.0])),
    "TestEval::test_invalid_point_exits_2": Case(
        "eval potential --w 1.0", 2, f"error: |w|=1 {_DISK}"),
    # |w| may overflow the float range: the point is still outside the disk
    **{f"TestEval::test_huge_w_exits_2_without_warning[{w}]": Case(
        f"eval potential --w={w}", 2, f"error: |w|={r} {_DISK}")
       for w, r in [("1.7e308,1.7e308", "inf"), ("1e308,1e308", "1.41421356237e+308")]},
    "TestEval::test_kernel_overflow_exits_3": Case(
        "eval kernel --z 30", 3, "error: kernel value exceeds the floating-point range"),
    # an error line, never NaN in place of JSON
    **{f"TestEval::test_non_finite_value_exits_3[{q}]": Case(
        f"eval {q} --z 1e200", 3, f"error: {q} is not finite at this point")
       for q in ("berezin", "potential", "diastasis", "metric", "scalar-curvature")},
    **{f"TestEval::test_one_point_quantity_refuses_a_second_point[{q} {flag}]": Case(
        f"eval {q} {flag} 0.5", 2, f"error: {flag} is read by the two-point quantities "
        f"(kernel, diastasis, berezin) only, not by {q}")
       for q, flag in [("potential", "--z2"), ("metric", "--w2")]},
    **{f"TestGeodesic::test_non_finite_t_end_exits_2[{t}]": Case(
        f"{_GEO} --t-end={t} --out x.csv", 2, f"error: t_end must be finite, got {t}")
       for t in ("inf", "-inf", "nan")},
    **{f"TestGeodesic::test_t_end_not_positive_exits_2[{t}]": Case(
        f"{_GEO} --t-end {t} --out x.csv", 2, f"error: --t-end must be positive, got {float(t)}")
       for t in ("0", "-1")},
    **{f"TestGeodesic::test_step_count_over_limit_exits_2[argv{i}]": Case(
        f"{_GEO} {flags} --out x.csv", 2, err) for i, (flags, err) in enumerate([
            ("--t-end 1e300", f"{_LIMIT} 1e+303"),
            (f"--steps {MAX_GEODESIC_STEPS + 1}", f"{_STEPS} {MAX_GEODESIC_STEPS + 1}"),
            ("--t-end 1e308 --rk4-step 1e-300", f"{_LIMIT} inf")])},
    **{f"TestGeodesic::test_steps_below_one_exits_2[{n}]": Case(
        f"{_GEO} --steps {n} --out x.csv", 2, f"{_STEPS} {n}") for n in ("0", "-5")},
    **{f"TestGeodesic::test_bad_rk4_step_exits_2[steps{i}-{step}]": Case(
        f"{_GEO} --rk4-step {step} {steps} --out x.csv", 2, f"{_RK4} {float(step)}")
       for i, steps in enumerate(["", "--steps 10"])
       for step in ("0", "-1", "-1e-3", "nan", "inf")},
    "TestGeodesic::test_bad_rk4_step_from_config_exits_2": Case(
        f"{_GEO} --config cfg.json --out x.csv", 2, f"{_RK4} 0", config='{"rk4_step": 0}'),
    # |eta|^2 overflows in the metric; the path itself stays put
    "TestGeodesic::test_non_finite_speed_exits_3": Case(
        "geodesic --z 1e200 --steps 2 --out x.csv", 3,
        "error: the speed is not finite along this path"),
    "TestGeodesic::test_degenerate_metric_exits_2": Case(
        "geodesic --dw 0.1 --mu 0 --steps 2 --out x.csv", 2,
        "error: metric coefficients are not positive definite (h_zz=0.0, h_ww=2.0, det=0.0)"),
    # a Runge-Kutta stage leaves the disk; no CSV at the default path either
    "TestGeodesic::test_boundary_escape_exits_3": Case(
        "geodesic --w 0.9 --dw 2.0 --mu 0 --t-end 2", 3,
        "error: trajectory left the disk at t=0.877", _ESCAPE.format(0.877)),
    "TestGeodesic::test_boundary_escape_pinned[argv0-0.877-trajectory left the disk at t=0.877]":
        Case("geodesic --w 0.9 --dw 2.0 --mu 0 --t-end 2 --out x.csv", 3,
             "error: trajectory left the disk at t=0.877", _ESCAPE.format(0.877)),
    # every stage stays inside, the accepted first step does not
    "TestGeodesic::test_boundary_escape_pinned[argv1-0.39999999999999997-step left the disk at "
    "t=0.4]": Case("geodesic --w 0.7 --dw 0.8,-0.8 --t-end 1.2 --steps 3 --out x.csv", 3,
                   "error: step left the disk at t=0.4", _ESCAPE.format(0.39999999999999997)),
    # four d2w stages of about -8.5e307 sum to -inf in one tiny step
    "TestGeodesic::test_velocity_overflow_exits_3": Case(
        "geodesic --dz 1.3e154 --t-end 1e-300 --steps 1 --out x.csv", 3,
        "error: velocity overflowed at t=1e-300"),
    "TestVerifyCommand::test_geometry_suite_passes": Case(
        "verify geometry --k 1 --mu 1", 0, "", JSON),
    "TestVerifyCommand::test_coarse_step_fails_fd_checks": Case(
        "verify geometry --fd-step 1e-2", 1, "", JSON),
    "TestVerifyCommand::test_out_of_range_step_exits_2": Case(
        "verify geometry --fd-step 0.1", 2, "error: step 0.1 outside [1e-7, 1e-2]"),
    **{f"TestVerifyCommand::test_bad_rk4_step_exits_2[argv{i}]": Case(
        f"verify geodesics --rk4-step {step}", 2, err) for i, (step, err) in enumerate([
            ("0", f"{_RK4} 0.0"), ("-1", f"{_RK4} -1.0"), ("1e-7", f"{_LIMIT} 2e+07")])},
    **{f"TestVerifyCommand::test_mc_samples_out_of_range_exits_2_before_any_suite[{n}]": Case(
        f"verify all --mc-samples {n}", 2, f"error: mc_samples must be between "
        f"{verify.MIN_MC_SAMPLES} and {verify.MAX_MC_SAMPLES}, got {n}", suites=False)
       for n in (verify.MIN_MC_SAMPLES - 1, verify.MAX_MC_SAMPLES + 1)},
    "TestVerifyCommand::test_negative_seed_exits_2_before_any_suite": Case(
        "verify all --seed -1", 2, "error: seed must be non-negative, got -1", suites=False),
    "TestVerifyCommand::test_negative_seed_in_the_config_exits_2_before_any_suite": Case(
        "verify all --config cfg.json", 2, "error: seed must be non-negative, got -1",
        config='{"seed": -1}', suites=False),
    "TestVerifyCommand::test_unknown_tolerance_name_exits_2_before_any_suite": Case(
        "verify geometry --config cfg.json", 2,
        "error: tolerances name unknown checks: ['scalar-curvature-constnat']",
        config='{"tolerances": {"scalar-curvature-constnat": 1e-300}}', suites=False),
    **{f"TestVerifyCommand::test_truncation_order_over_limit_exits_2_before_any_suite[{key}]":
       Case(f"verify all --{key.replace('_', '-')} 10000", 2, _ORDER.format(key), suites=False)
       for key in ("n_max", "m_max")},
    **{f"TestVerifyCommand::test_truncation_order_in_the_config_over_limit_exits_2[{key}]": Case(
        "verify all --config cfg.json", 2, _ORDER.format(key), config=json.dumps({key: 10000}),
        suites=False) for key in ("n_max", "m_max")},
    **{f"TestVerifyCommand::test_truncation_order_at_the_limit_is_taken[{flag}]": Case(
        f"verify all --{flag} {cli.MAX_TRUNCATION_ORDER}", 0, "", JSON, suites=False)
       for flag in ("n-max", "m-max")},
    "TestVerifyCommand::test_boundary_escape_exits_3": Case(
        "verify geodesics --rk4-step 1.5", 3, "error: trajectory left the disk at t=0"),
    # the kernel overflows at this k: an error line, no NaN in place of JSON
    "TestVerifyCommand::test_non_finite_deviation_exits_3": Case(
        "verify kernels --k 1e308", 3,
        "error: kernels check hermitian-symmetry has no finite deviation at these settings"),
    # the determinant of a finite-difference stencil's metric overflows
    "TestVerifyCommand::test_overflow_exits_3_naming_the_suite": Case(
        "verify geometry --mu 1e300", 3,
        "error: the geometry suite overflowed at these settings: Numerical result out of range"),
    "TestTable::test_empty_grid_header_only": Case(
        "table volume --re-w 0:1:0", 0, "", f"{_HEADER}value\n"),
    "TestTable::test_oversized_axis_refused_while_parsing": Case(
        f"table potential --re-z 0:1:{10**12}", 2, "jacobi-cs table: error: argument --re-z: "
        f"{10**12} samples exceed the table limit of {cli.MAX_TABLE_NODES} nodes"),
    "TestTable::test_disk_violation_exits_2": Case(
        "table volume --re-w 0:1:5 --out v.csv", 2, f"error: |w|=1 {_DISK}"),
    "TestTable::test_node_with_overflowing_w_exits_2_without_warning": Case(
        "table potential --re-w=1.7e308:0:2 --im-w=1.7e308 --out t.csv", 2,
        f"error: |w|=inf {_DISK}"),
    # cells that are not finite are written, and nothing is said
    "TestTable::test_non_finite_cells_are_written": Case(
        "table diastasis --re-z=1e200", 0, "", f"{_HEADER}value\n1e+200,0.0,0.0,0.0,nan\n"),
    "TestTable::test_non_finite_metric_cells_are_written": Case(
        "table metric --re-z=1e200", 0, "",
        f"{_HEADER}h_ww,h_zw_im,h_zw_re,h_zz\n1e+200,0.0,0.0,0.0,inf,0.0,1e+200,1.0\n"),
    **{f"TestConfig::test_config_value_of_wrong_type_exits_2[entry{i}]": Case(
        f"{_GEO} --config cfg.json --out x.csv", 2,
        f"error: config key {key!r} takes a {kind}, got {value!r}",
        config=json.dumps({key: value}))
       for i, (key, kind, value) in enumerate([("k", "float", "1"), ("rk4_step", "float", "0.001"),
                                               ("seed", "int", 1.5), ("mu", "float", True),
                                               ("tolerances", "dict", [])])},
    **{f"TestConfig::test_tolerance_not_a_finite_non_negative_number_exits_2[{tol}]": Case(
        "verify geometry --config cfg.json", 2, "error: tolerance 'scalar-curvature-constant' "
        f"takes a finite, non-negative number, got {got}",
        config=f'{{"tolerances": {{"scalar-curvature-constant": {tol}}}}}')
       for tol, got in [('"x"', "'x'"), ("NaN", "nan"), ("-1", "-1"), ("true", "True")]},
    # a flag wins over the file
    **{f"TestConfig::test_config_file_{name}": Case(
        f"eval scalar-curvature --config cfg.json {flag}", 0, "",
        _eval_out("scalar-curvature", {"value": -3 / (2 * k)}, k=k), config='{"k": 2.0}')
       for name, flag, k in [("is_read", "", 2.0), ("and_override", "--k 3", 3.0)]},
    "TestConfig::test_unknown_config_key_exits_2": Case(
        "eval potential --config cfg.json", 2, "error: unknown config key 'bogus'",
        config='{"bogus": 1}'),
    "TestConfig::test_config_before_the_command_is_read": Case(
        "--config cfg.json eval potential", 2, "error: unknown config key 'bogus'",
        config='{"bogus": 1}'),
    # a command has no flag for a setting it does not read; verify reads all
    **{f"TestContract::test_unread_setting_exits_2[{command} --{flag}]": Case(
        f"{_UNREAD_ARGV[command]} --{flag} 1", 2,
        f"jacobi-cs: error: unrecognized arguments: --{flag} 1")
       for command, keys in cli._COMMAND_SETTINGS.items()
       for flag in [key.replace("_", "-") for key in cli._COMMAND_SETTINGS["verify"]
                    if key not in keys]},
}


@pytest.mark.filterwarnings("error")
def contract_test(self, case, capsys, tmp_path, monkeypatch):
    """Run one :data:`CONTRACT` case; no case may warn."""
    monkeypatch.chdir(tmp_path)
    if not case.suites:
        monkeypatch.setattr(verify, "_SUITES", dict.fromkeys(core.SUITE_NAMES, ()))
    if case.config is not None:
        (tmp_path / "cfg.json").write_text(case.config)
    code, out, err = run(capsys, *shlex.split(case.argv))
    *usage, last = err.splitlines() or [""]
    assert (code, last) == (case.code, case.err)
    assert err.endswith("\n") or not err
    if usage:
        assert case.err.startswith("jacobi-cs") and usage[0].startswith("usage: jacobi-cs")
    if case.out is JSON:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == case.out
    assert os.listdir() == ([] if case.config is None else ["cfg.json"])


def pytest_generate_tests(metafunc):
    """Run a test with CONTRACT ids ``Class::test[param]`` once per param."""
    if "case" in metafunc.fixturenames:
        prefix = f"{metafunc.cls.__name__}::{metafunc.definition.name}["
        ids = [name[len(prefix):-1] for name in CONTRACT if name.startswith(prefix)]
        if ids:
            metafunc.parametrize("case", [CONTRACT[f"{prefix}{i}]"] for i in ids], ids=ids)


@pytest.fixture
def case(request):
    """The CONTRACT case of a test with the one id ``Class::test``."""
    return CONTRACT[f"{request.cls.__name__}::{request.node.name}"]


class TestContract:
    def test_readme_exit_table_is_in_the_contract(self):
        # rows: | `jacobi-cs argv` | config | code | stderr's last line | stdout |
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `jacobi-cs ([^`]*)` \| ?([^|]*?) ?\| (\d) \| (.*) \| (.*) \|$",
                          readme, re.MULTILINE)
        assert len(rows) >= 20
        contract = {(*shlex.split(case.argv), case.config): case for case in CONTRACT.values()}
        for argv, config, code, err, out in rows:
            case = contract[(*shlex.split(argv), config.strip("`") or None)]
            assert case.code == int(code)
            assert case.err == ("" if err == "nothing" else err.strip("`").replace("\\|", "|"))
            assert case.out == {"nothing": "", "JSON": JSON}.get(out, out.strip("`") + "\n")

    @pytest.mark.parametrize("command, own", [
        ("eval", "--z --w --z2 --w2"), ("table", "--re-z --im-z --re-w --im-w --out"),
        ("geodesic", "--z --w --dz --dw --t-end --steps --out"), ("verify", "")])
    def test_help_lists_the_settings_read(self, capsys, command, own):
        code, out, _ = run(capsys, command, "--help")
        settings = ["--" + key.replace("_", "-") for key in cli._COMMAND_SETTINGS[command]]
        assert code == 0
        assert set(re.findall(r"--[a-z0-9-]+", out)) == {"--help", *settings, *own.split()}


class TestParsing:
    def test_complex_single(self):
        assert parse_complex("1.5") == 1.5

    def test_complex_pair(self):
        assert parse_complex("1.0,0.5") == 1 + 0.5j

    def test_complex_bad(self):
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

    def test_parser_built_once_and_commands_found_at_call_time(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert main(["eval", "kernel"]) == 7


class TestEval:
    def test_metric_hand_value(self, capsys):
        code, out, _ = run(capsys, "eval", "metric", "--k", "1", "--mu", "1",
                           "--z", "1", "--w", "0.5")
        assert code == 0
        value = json.loads(out)["value"]
        assert value["h_zz"] == pytest.approx(4 / 3)
        assert value["h_zw_re"] == pytest.approx(8 / 3)
        assert value["h_ww"] == pytest.approx(80 / 9)

    def test_christoffel_pairs(self, capsys):
        code, out, _ = run(capsys, "eval", "christoffel", "--k", "2",
                           "--z", "1", "--w", "0.5")
        assert code == 0
        value = json.loads(out)["value"]
        assert list(value) == ["g_zzz", "g_wzz", "g_zzw", "g_wwz", "g_zww", "g_www"]
        assert value["g_wzz"] == [0.25, 0.0]


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
        # at w = 0 but with dz + conj(z) dw != 0 the start is outside the family
        code, out, _ = run(capsys, "geodesic", "--z", "0.5", "--dz", "0.1", "--dw", "0.6",
                           "--t-end", "1", "--out", str(out_file))
        assert code == 0
        assert json.loads(out)["closed_form_residual"] is None

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
    def test_boundary_escape_in_a_worker_exits_3(self, capsys, forked):
        code, out, err = run(capsys, "verify", "all", "--rk4-step", "1.5",
                             "--mc-samples", "10000")
        assert forked == [2]         # the geodesics suite ran in a worker
        assert (code, out, err) == (3, "", "error: trajectory left the disk at t=0\n")

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

    @pytest.mark.parametrize("cpus, parts", [
        pytest.param(2, "algebra[0], bargmann[0], embedding[0], geodesics[0], geometry[0], "
                        "group[0], kernels[0], quadrature[0], quadrature[2]", id="2cpus"),
        pytest.param(3, "bargmann[0], geodesics[0], group[0], quadrature[0]", id="3cpus"),
    ])
    def test_killed_worker_exits_2_naming_it(self, monkeypatch, capfd, cpus, parts):
        # the group suite, run in a child, is killed as the OOM killer would
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        monkeypatch.setitem(verify._SUITES, "group",
                            (lambda cfg: os.kill(os.getpid(), signal.SIGKILL),))
        code = main(["verify", "all", "--mc-samples", "10000"])
        assert_no_children()
        out, err = capfd.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: the process running {parts} failed with exit status -9\n"

    def test_quadrature_reproducible(self, capsys):
        argv = ("verify", "quadrature", "--seed", "42", "--mc-samples", "50000")
        first = run(capsys, *argv)
        assert first[0] == 0 and run(capsys, *argv) == first


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
        values = [float(row.split(",")[-1]) for row in out_file.read_text().splitlines()[1:]]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.0)

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
        assert (code, out, err) == (2, "", "error: the grid has 10000000000 nodes, more than "
                                           "the limit of 10000000\n")
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

    def test_peak_memory_of_one_long_axis(self):
        # a chunk formats only the axis values it touches, so a long axis
        # costs little more than its own 8 B per node; formatting the whole
        # axis first cost about 130 B per node in the writing process
        proc = run_python(
            "import os, resource\n"
            "from jacobi_cs import cli\n"
            "for n in (250_000, 4_000_000):\n"
            "    assert cli.main(['table', 'potential', f'--re-z=-1:1:{n}',\n"
            "                     '--out', os.devnull]) == 0\n"
            "    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):\n"
            "        print(resource.getrusage(who).ru_maxrss)\n")
        assert proc.returncode == 0, proc.stderr
        self_small, children_small, self_large, children_large = map(int, proc.stdout.split())
        per_node = 16 * (4_000_000 - 250_000) / 1024      # ru_maxrss is in KiB
        assert self_large - self_small <= per_node
        assert children_large - children_small <= per_node

    def test_node_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_NODES", 12)
        code, _, _ = run(capsys, "table", "potential", "--re-z", "0:1:3",
                         "--im-z", "0:1:4", "--out", str(tmp_path / "t.csv"))
        assert code == 0
        code, _, err = run(capsys, "table", "potential", "--re-z", "0:1:3",
                           "--im-z", "0:1:5")
        assert (code, err) == (2, "error: the grid has 15 nodes, more than the limit of 12\n")

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


# 7 * 11 * 17 * 19 = 24,871 rows: three parts of at least 8,192 rows, and
# neither two nor three parts divide the rows evenly
PARALLEL_GRID = ("--re-z=-1.5:1.5:7", "--im-z=-1.5:1.5:11", "--re-w=-0.6:0.6:17",
                 "--im-w=-0.6:0.6:19")


def oracle_rows(axes, columns, keys, start=0, stop=None):
    """Rows ``start`` to ``stop`` - 1 of the table over ``axes`` with whole
    value ``columns``, formatted one row at a time."""
    texts = [[repr(x) for x in axis.tolist()] for axis in axes]
    coords = itertools.islice(itertools.product(*texts), start, stop)
    rows = zip(map(",".join, coords),
               *(map(repr, columns[key][start:stop].tolist()) for key in keys))
    return "".join(",".join(row) + "\n" for row in rows)


def oracle_table(quantity, flags):
    """The bytes of ``table quantity *flags`` from one evaluation of the
    whole grid, formatted one row at a time."""
    given = dict(flag.split("=", 1) for flag in flags)
    axes = [parse_range(given.get(flag, "0"))
            for flag in ("--re-z", "--im-z", "--re-w", "--im-w")]
    grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    origin = np.zeros(1, dtype=complex)
    columns = cli.evaluate(quantity, cli._complex_grid(*grid[:2]),
                           cli._complex_grid(*grid[2:]), origin, origin,
                           core.ModelParams(1.0, 1.0))
    keys = sorted(columns)
    header = ",".join(["re_z", "im_z", "re_w", "im_w"] + keys) + "\n"
    return (header + oracle_rows(axes, columns, keys)).encode()


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
        forks = []      # (first row, stop) of each child's range
        fork_jobs = core._fork_jobs
        monkeypatch.setattr(core, "_fork_jobs", lambda here, jobs, take: forks.extend(
            job.args[3:5] for _, job in jobs) or fork_jobs(here, jobs, take))
        want = self.table(monkeypatch, 1, quantity, tmp_path / "one.csv")
        assert forks == []
        assert want == oracle_table(quantity, PARALLEL_GRID)
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
    def test_one_part_runs_in_process(self, monkeypatch, tmp_path, forked, cpus, rows, fork):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        if not fork:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / "t.csv"
        assert main(["table", "volume", f"--re-w=0:0.5:{rows}", "--out", str(out)]) == 0
        assert forked == [0]            # no child was forked
        assert out.read_text().count("\n") == rows + 1

    def test_coordinates_start_at_any_row(self, monkeypatch):
        # chunks of 5 rows start anywhere on an axis and wrap around it
        monkeypatch.setattr(cli, "_TABLE_CHUNK_ROWS", 5)
        axes = [np.array([0.1, -0.0, 2.5]), np.array([1e300]),
                np.array([0.0, 0.25, -1.5, 3.0]), np.array([np.inf, -7.0])]
        rows = oracle_rows(axes, {}, []).splitlines(keepends=True)
        assert len(rows) == 24
        for start in range(len(rows) + 1):
            out = io.StringIO()
            cli._write_rows(out.write, axes, lambda lo, hi: {}, [], start, len(rows))
            assert out.getvalue() == "".join(rows[start:])

    @pytest.mark.parametrize("chunk", [5, 8, 24, 8192])
    def test_rows_of_synthetic_columns(self, monkeypatch, chunk):
        # w-planes of 8 rows; the repeat test compares bits, so the one
        # -0.0 among the 0.0 of a periodic column is written as it is
        monkeypatch.setattr(cli, "_TABLE_CHUNK_ROWS", chunk)
        axes = [np.array([0.5, 1.5, 2.5]), np.array([-1.0]),
                np.array([0.0, 0.1, 0.2, 0.3]), np.array([-0.2, 0.2])]
        plane = np.array([0.0, 1.5, -2.0, 1e-300, 0.25, 0.0, 3.0, -np.inf])
        flip = np.tile(plane, 3)
        flip[13] = -0.0
        cx = np.tile(plane, 3).astype(complex)
        cx.imag = np.tile([np.nan, *plane[1:]], 3)
        columns = {
            "constant": np.broadcast_to(2.25, 24),
            "periodic": np.tile(plane, 3),
            "flip": flip,
            "complex": cx,
            "varying": np.concatenate([plane, -plane, np.arange(8.0) / 3]),
            "non-finite": np.array([np.nan, np.inf, -np.inf] * 8),
        }
        keys = list(columns)
        for start in range(24):
            out = io.StringIO()
            cli._write_rows(out.write, axes,
                            lambda lo, hi: {key: col[lo:hi] for key, col in columns.items()},
                            keys, start, 24)
            assert out.getvalue() == oracle_rows(axes, columns, keys, start)
        assert oracle_rows(axes, columns, keys).splitlines()[13].split(",")[6] == "-0.0"

    @pytest.mark.parametrize("quantity, flags", [
        # a w-plane of one node: a column of w alone is constant
        ("christoffel", ("--re-z=-1:1:131", "--im-z=-0.5:0.5:127", "--re-w=0.3",
                         "--im-w=-0.2")),
        ("volume", ("--re-z=-1:1:131", "--im-z=-0.5:0.5:127", "--re-w=0.3")),
        ("metric", ("--re-z=-1:1:131", "--im-z=0:1:0", "--re-w=0.3")),    # an empty axis
    ])
    def test_bytes_match_the_row_oracle(self, monkeypatch, tmp_path, quantity, flags):
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        out = tmp_path / "t.csv"
        assert main(["table", quantity, *flags, "--out", str(out)]) == 0
        assert_no_children()
        assert out.read_bytes() == oracle_table(quantity, flags)

    def test_failing_parent_write_reaps_every_child(self, monkeypatch, capsys, forked):
        class FailingOut(io.StringIO):
            def write(self, text):
                if self.tell():         # the header is written, the rows fail
                    raise OSError("no space left on device")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FailingOut())
        assert main(["table", "christoffel", *PARALLEL_GRID]) == 2
        assert forked == [2]
        assert capsys.readouterr().err == "error: no space left on device\n"

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
    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1.5}))
        monkeypatch.setenv("JACOBI_CS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "eval", "scalar-curvature")
        assert code == 0
        assert json.loads(out)["value"]["value"] == pytest.approx(-1.0)


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


def _given(*pairs):
    """argv pieces for the (flag, value) pairs whose value is not None."""
    return [piece for flag, value in pairs if value is not None for piece in (flag, str(value))]


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
           flags=_flags(["--z", "--w", "--k", "--mu"]), second=_flags(["--z2", "--w2"]))
    def test_eval(self, quantity, flags, second):
        # only a two-point quantity takes a second point
        two_point = quantity in cli._TWO_POINT_QUANTITIES
        self.check(["eval", quantity, *flags, *(second if two_point else [])])

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
        self.check(argv + _given(("--k", k), ("--mu", mu)), json_stdout=False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")    # no numpy warning reaches stderr
    @settings(max_examples=150, deadline=None)
    @given(suite=st.sampled_from(["geodesics", "geometry", "kernels", "group", "algebra"]),
           rk4_step=_RK4_STEP, fd_step=st.none() | _near(1e-7, 1e-2),
           k=st.none() | _near(0.75, 10.0), mu=st.none() | _near(0.0, 10.0))
    def test_verify_suite(self, suite, rk4_step, fd_step, k, mu):
        self.check(["verify", suite, "--rk4-step", rk4_step,
                    *_given(("--fd-step", fd_step), ("--k", k), ("--mu", mu))])

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
        code = self.check(["verify", suite, *_given(("--n-max", n_max), ("--m-max", m_max),
                                                    ("--k", k), ("--mu", mu))], error_line=True)
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


def _file_contract_tests():
    """Make each CONTRACT id ``Class::test[param]`` a test of its class."""
    for name in CONTRACT:
        cls, test = name.split("[")[0].split("::")
        setattr(globals()[cls], test, contract_test)


_file_contract_tests()
