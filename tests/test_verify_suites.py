"""End-to-end run of every named verification suite at default settings."""

import json
import os

import numpy as np
import pytest

from conftest import run_python
from jacobi_cs import core, quadrature, verify
from jacobi_cs.core import BoundaryEscape
from jacobi_cs.verify import (
    CHECKS,
    SUITE_NAMES,
    VerifyConfig,
    random_elements,
    random_points,
    run_suites,
)


@pytest.mark.filterwarnings("error")
def test_all_suites_pass():
    report = run_suites(list(SUITE_NAMES), VerifyConfig())
    failing = [f"{name}/{rec['check']}: {rec['deviation']:.3e} > {rec['tolerance']:.1e}"
               for name, recs in report["suites"].items()
               for rec in recs if not rec["pass"]]
    assert report["pass"], f"failing checks: {failing}"
    assert set(report["suites"]) == set(SUITE_NAMES)
    # the table lists every check of a report, in report order, and no other
    assert [rec["check"] for recs in report["suites"].values() for rec in recs] == list(CHECKS)
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
    # a misspelled name is refused, not silently left at its default
    with pytest.raises(ValueError, match="scalar-curvature-constnat"):
        VerifyConfig(tolerances={"scalar-curvature-constnat": 1e-300})


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
    """A report assembled from each suite part run here, in (suite name, part) order."""
    suites = {name: [rec for index in range(len(verify._SUITES[name]))
                     for rec in verify._run_part((name, index), cfg)]
              for name in sorted(names)}
    return {"suites": suites,
            "pass": all(rec["pass"] for recs in suites.values() for rec in recs)}


@pytest.mark.filterwarnings("error")     # forked children inherit the filter
@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("forked", [1, 2, 3], indirect=True, ids=["1cpu", "2cpus", "3cpus"])
def test_forked_report_equals_name_order_report(forked, seed):
    cfg = VerifyConfig(seed=seed)
    report = run_suites(list(SUITE_NAMES), cfg)
    assert forked == [core.usable_cpus() - 1]
    assert json.dumps(report) == json.dumps(_name_order_report(SUITE_NAMES, cfg))
    assert report["pass"] is (seed == 0)


_CHEAP = ["algebra", "bargmann", "group"]


@pytest.mark.parametrize("cpus, names, fork", [
    (1, _CHEAP, True),          # one CPU
    (4, ["group"], True),       # one suite of one part
    (4, _CHEAP, False),         # no fork start method
])
def test_no_pool_without_a_worker(monkeypatch, forked, cpus, names, fork):
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    if not fork:
        monkeypatch.delattr(os, "fork")
    cfg = VerifyConfig()
    assert run_suites(names, cfg) == _name_order_report(names, cfg)
    assert forked == [0]            # no child was forked


GRAM, HEAD, TAIL = ("quadrature", 1), ("quadrature", 0), ("quadrature", 2)
# the Gram part's leading and trailing draws, as _faulty_run fakes them
LEAD, TRAIL = (*GRAM, "leading draws"), (*GRAM, "trailing draws")
# what a run in part order runs, in order: the Gram part maps its draws first
PARTS = sorted([(name, index) for name in SUITE_NAMES
                for index in range(len(verify._SUITES[name]))
                if (name, index) != GRAM] + [LEAD, TRAIL])


def _faulty_run(monkeypatch, forked, cpus, names, errors):
    """Run suites ``names`` on ``cpus`` usable CPUs, each part but the Gram
    replaced by one that raises ``errors[part]`` or yields one check, and
    expect an error.  The Gram part keeps its code, but the mapping of its
    draws is faked alike: a range of draws that starts at the first acts as
    LEAD, and one that ends at the last then as TRAIL, so one process that
    maps them all acts as both, in order.  Each suite keeps its number of
    parts, so the parts run where the real ones would.  Returns the error
    and the units this process ran, in order."""
    ran = []

    def act(unit):
        ran.append(unit)
        if unit in errors:
            raise errors[unit]

    def fake(part):
        def run(cfg):
            act(part)
            yield "lowest-weight", 0.0
        return run

    def fake_draws(cfg, draws):
        if draws.start == 0:
            act(LEAD)
        if draws.stop == len(quadrature._gram_draws(cfg.mc_samples)):
            act(TRAIL)
        return iter(())

    monkeypatch.setattr(verify, "_SUITES", {
        name: tuple(run if (name, i) == GRAM else fake((name, i)) for i, run in enumerate(parts))
        for name, parts in verify._SUITES.items()})
    monkeypatch.setattr(verify, "_gram_products", fake_draws)
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    forked.clear()
    with pytest.raises(Exception) as err:
        run_suites(names, VerifyConfig())
    assert forked == [cpus - 1]
    return err.value, ran


@pytest.mark.parametrize("errors, first", [
    # the Gram's leading draws are mapped in this process, its trailing
    # draws in the first worker, and the other parts here or in the others
    ({("algebra", 0): ValueError("algebra"), LEAD: ValueError("gram")},
     ValueError("algebra")),
    ({LEAD: ValueError("gram")}, ValueError("gram")),
    ({LEAD: ValueError("gram"), TRAIL: ValueError("trail"), TAIL: ValueError("tail")},
     ValueError("gram")),
    ({HEAD: ValueError("head"), LEAD: ValueError("gram")}, ValueError("head")),
    ({("group", 0): ValueError("group"), ("geodesics", 0): BoundaryEscape(0.5)},
     BoundaryEscape(0.5)),
    ({TRAIL: ValueError("trail"), TAIL: ValueError("tail")}, ValueError("trail")),
])
def test_forked_run_raises_the_first_error_in_name_order(forked, monkeypatch, errors, first):
    for cpus in (3, 2, 1):
        error, ran = _faulty_run(monkeypatch, forked, cpus, list(SUITE_NAMES), errors)
        assert type(error) is type(first)
        assert str(error) == str(first)
        assert vars(error) == vars(first)
    # on one CPU no part after the first failing one ran
    assert ran == PARTS[:PARTS.index(min(errors)) + 1]


@pytest.mark.parametrize("seed", [0, 2])
def test_quadrature_alone_forks_one_worker_on_two_cpus(forked, monkeypatch, seed):
    # the one worker maps the Gram's trailing six of ten draws, and this
    # process its leading four and the other two parts
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    jobs, fork_jobs = [], core._fork_jobs

    def seen(here, forks, take):
        jobs.extend(doing for doing, _ in forks)
        return fork_jobs(here, forks, take)

    monkeypatch.setattr(core, "_fork_jobs", seen)
    cfg = VerifyConfig(seed=seed)
    report = run_suites(["quadrature"], cfg)
    assert forked == [1]
    assert jobs == ["running quadrature[1] draws 4-9"]
    assert [rec["check"] for rec in report["suites"]["quadrature"]] == [
        "weight-kernel-product", "unit-normalization", "orthonormality-matrix",
        "orthonormality-precision", "disk-marginal"]
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
