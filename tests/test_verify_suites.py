"""End-to-end run of every named verification suite at default settings."""

import json
import os
import warnings

import numpy as np
import pytest

from conftest import assert_no_children, run_python
from jacobi_cs import core, verify
from jacobi_cs.core import BoundaryEscape
from jacobi_cs.verify import (
    SUITE_NAMES,
    VerifyConfig,
    random_elements,
    random_points,
    run_suites,
)


def test_all_suites_pass():
    report = run_suites(list(SUITE_NAMES), VerifyConfig())
    failing = [f"{name}/{rec['check']}: {rec['deviation']:.3e} > {rec['tolerance']:.1e}"
               for name, recs in report["suites"].items()
               for rec in recs if not rec["pass"]]
    assert report["pass"], f"failing checks: {failing}"
    assert set(report["suites"]) == set(SUITE_NAMES)
    # the report is a stable, JSON-serializable interface
    for recs in report["suites"].values():
        for rec in recs:
            assert set(rec) == {"check", "identity", "deviation",
                                "tolerance", "pass"}
    json.dumps(report)


def test_tolerance_overrides_apply():
    cfg = VerifyConfig(tolerances={"scalar-curvature-constant": 1e-300})
    report = run_suites(["geometry"], cfg)
    by_name = {rec["check"]: rec for rec in report["suites"]["geometry"]}
    assert not by_name["scalar-curvature-constant"]["pass"]
    assert not report["pass"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["bogus"], VerifyConfig())


def test_random_streams_pinned():
    # every test and every verify report draws its inputs from these two
    # generators: a change in the order of the draws would re-seed them all
    pts = random_points(np.random.default_rng(0), 3)
    assert [(p.z, p.w) for p in pts] == [
        (0.7717965370458253 + 0.20320382064697087j, 0.30996708954909524 + 0.032305113394886564j),
        (-0.7068552013402329 - 0.5600231812510365j, -0.07364328054252924 - 0.5684792652779115j),
        (0.29644560354468086 - 0.675088879781361j, 0.5801089721861624 + 0.009982632554133187j),
    ]
    e = random_elements(np.random.default_rng(0), 1)[0]
    assert (e.g.a, e.g.b, e.alpha, e.t) == (
        -0.14045440815886168 + 1.1239220535985233j, 0.514380275208108 + 0.13542952341793393j,
        -0.9669447289429418 + 0.6265404784005448j, 0.8255111545554434)


def _name_order_report(names, cfg):
    """A report assembled from each suite function called here, in name order."""
    suites = {name: getattr(verify, f"suite_{name}")(cfg) for name in sorted(names)}
    return {"suites": suites,
            "pass": all(rec["pass"] for recs in suites.values() for rec in recs)}


@pytest.mark.parametrize("seed", [0, 2])
def test_forked_report_equals_name_order_report(forked, seed):
    cfg = VerifyConfig(seed=seed)
    report = run_suites(list(SUITE_NAMES), cfg)
    assert forked == [2]
    assert json.dumps(report) == json.dumps(_name_order_report(SUITE_NAMES, cfg))
    assert report["pass"] is (seed == 0)


_CHEAP = ["algebra", "bargmann", "group"]


@pytest.mark.parametrize("cpus, names, fork", [
    (1, _CHEAP, True),          # one CPU
    (4, ["group"], True),       # one suite of one part
    (4, _CHEAP, False),         # no fork start method
])
def test_no_pool_without_a_worker(monkeypatch, cpus, names, fork):
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    if not fork:
        monkeypatch.delattr(os, "fork")

    def no_pool(*args):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(verify, "_run_forked", no_pool)
    cfg = VerifyConfig()
    assert run_suites(names, cfg) == _name_order_report(names, cfg)
    assert_no_children()


def _fake_part(part, error=None, warning=None):
    def run(cfg):
        if warning:
            warnings.warn(warning)
        if error:
            raise error
        return [{"check": "/".join(map(str, part)), "pass": True}]
    return run


def _fake_suites(monkeypatch, errors=None, warns=None):
    """Replace every suite part by one that warns ``warns[part]``, raises
    ``errors[part]`` or returns one record; each suite keeps its number of
    parts, so the parts run where the real ones would."""
    errors, warns = errors or {}, warns or {}
    monkeypatch.setattr(verify, "_SUITES", {
        name: tuple(_fake_part((name, i), errors.get((name, i)), warns.get((name, i)))
                    for i in range(len(parts)))
        for name, parts in verify._SUITES.items()})


GRAM, HEAD, TAIL = ("quadrature", 1), ("quadrature", 0), ("quadrature", 2)


@pytest.mark.parametrize("errors, first", [
    # the Gram part runs in this process, the others in workers
    ({("algebra", 0): ValueError("algebra"), GRAM: ValueError("gram")},
     ValueError("algebra")),
    ({GRAM: ValueError("gram")}, ValueError("gram")),
    ({GRAM: ValueError("gram"), TAIL: ValueError("tail")}, ValueError("gram")),
    ({HEAD: ValueError("head"), GRAM: ValueError("gram")}, ValueError("head")),
    ({("group", 0): ValueError("group"), ("geodesics", 0): BoundaryEscape(0.5)},
     BoundaryEscape(0.5)),
])
def test_forked_run_raises_the_first_error_in_name_order(forked, monkeypatch, errors, first):
    _fake_suites(monkeypatch, errors)
    with pytest.raises(type(first)) as err:
        run_suites(list(SUITE_NAMES), VerifyConfig())
    assert forked == [2]
    assert str(err.value) == str(first)
    assert vars(err.value) == vars(first)


def test_forked_warnings_shown_in_name_order_up_to_the_first_error(forked, monkeypatch):
    _fake_suites(monkeypatch,
                 errors={("bargmann", 0): ValueError("bargmann")},
                 warns={("algebra", 0): "algebra", ("bargmann", 0): "bargmann",
                        ("group", 0): "group"})           # group runs after the error
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError):
        warnings.simplefilter("always")
        run_suites(list(SUITE_NAMES), VerifyConfig())
    assert forked == [2]
    assert [str(w.message) for w in caught] == ["algebra", "bargmann"]


def test_worker_warning_shown_before_the_error_of_a_later_part(forked, monkeypatch):
    # head warns in a worker, the Gram part warns and fails in this process,
    # and the tail warns after it in a worker: a run in part order never
    # reaches the tail
    _fake_suites(monkeypatch, errors={GRAM: ValueError("gram")},
                 warns={HEAD: "head", GRAM: "gram", TAIL: "tail"})
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(ValueError, match="gram"):
        warnings.simplefilter("always")
        run_suites(["quadrature"], VerifyConfig())
    assert forked == [2]
    assert [str(w.message) for w in caught] == ["head", "gram"]


@pytest.mark.parametrize("seed", [0, 2])
def test_quadrature_alone_forks_one_worker_on_two_cpus(forked, monkeypatch, seed):
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    cfg = VerifyConfig(seed=seed)
    report = run_suites(["quadrature"], cfg)
    assert forked == [1]
    assert [rec["check"] for rec in report["suites"]["quadrature"]] == [
        "weight-kernel-product", "unit-normalization", "orthonormality-matrix",
        "orthonormality-precision", "disk-marginal", "determinism"]
    assert json.dumps(report) == json.dumps(_name_order_report(["quadrature"], cfg))


def test_output_written_before_the_fork_appears_once():
    proc = run_python(
        "import sys\n"
        "from jacobi_cs import core, verify\n"
        "core.usable_cpus = lambda: 3\n"
        "sys.stdout.write('written before the fork\\n')\n"
        f"verify.run_suites({_CHEAP!r}, verify.VerifyConfig())\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "written before the fork\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_prints_the_same_report_without_a_pool():
    proc = run_python(
        "import os, sys\n"
        "from jacobi_cs import cli\n"
        "POOL = ('multiprocessing', 'concurrent.futures.process')\n"
        "assert not any(m in sys.modules for m in POOL), 'imported by the CLI'\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "code = cli.main(['verify', 'all', '--seed', '0'])\n"
        "assert not any(m in sys.modules for m in POOL), 'imported by a report'\n"
        "sys.exit(code)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(run_suites(list(SUITE_NAMES), VerifyConfig()),
                                     indent=2) + "\n"
