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
    (4, ["group"], True),       # one suite
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


def _fake_suite(name, error=None, warning=None):
    def suite(cfg):
        if warning:
            warnings.warn(warning)
        if error:
            raise error
        return [{"check": name, "pass": True}]
    return suite


@pytest.mark.parametrize("errors, first", [
    # quadrature runs in this process, the others in workers
    ({"algebra": ValueError("algebra"), "quadrature": ValueError("quadrature")},
     ValueError("algebra")),
    ({"quadrature": ValueError("quadrature")}, ValueError("quadrature")),
    ({"group": ValueError("group"), "geodesics": BoundaryEscape(0.5)},
     BoundaryEscape(0.5)),
])
def test_forked_run_raises_the_first_error_in_name_order(forked, monkeypatch, errors, first):
    monkeypatch.setattr(verify, "_SUITES", {name: _fake_suite(name, errors.get(name))
                                            for name in SUITE_NAMES})
    with pytest.raises(type(first)) as err:
        run_suites(list(SUITE_NAMES), VerifyConfig())
    assert forked == [2]
    assert str(err.value) == str(first)
    assert vars(err.value) == vars(first)


def test_forked_warnings_shown_in_name_order_up_to_the_first_error(forked, monkeypatch):
    suites = {name: _fake_suite(name) for name in SUITE_NAMES}
    suites["algebra"] = _fake_suite("algebra", warning="algebra")
    suites["bargmann"] = _fake_suite("bargmann", ValueError("bargmann"), "bargmann")
    suites["group"] = _fake_suite("group", warning="group")      # runs after the error
    monkeypatch.setattr(verify, "_SUITES", suites)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError):
        warnings.simplefilter("always")
        run_suites(list(SUITE_NAMES), VerifyConfig())
    assert forked == [2]
    assert [str(w.message) for w in caught] == ["algebra", "bargmann"]


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
