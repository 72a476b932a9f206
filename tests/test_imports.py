"""What the package and each CLI command load: ``import jacobi_cs`` loads no
submodule, and a command loads only the modules it runs.  Each footprint is
taken in a fresh interpreter, against the modules loaded before the
package was imported."""

import importlib
import json
import os
from pathlib import Path

import pytest

import jacobi_cs
from conftest import run_python
from jacobi_cs import geodesics

BENCH = Path(__file__).resolve().parents[1] / "bench"

# loaded by verify alone
VERIFY_ONLY = ("jacobi_cs.verify", "jacobi_cs.quadrature", "jacobi_cs.embedding",
               "jacobi_cs.bargmann", "jacobi_cs.algebra")


def loaded_by(statements: str) -> set[str]:
    """Names of the modules that ``statements`` adds to ``sys.modules`` in a
    fresh interpreter."""
    # a .pth file run at start-up may have imported tempfile already; forget
    # it, so that an import by ``statements`` shows
    proc = run_python("import json, sys\n"
                      "sys.modules.pop('tempfile', None)\n"
                      "before = set(sys.modules)\n"
                      f"{statements}\n"
                      "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert {m for m in loaded_by("import jacobi_cs")
            if m.startswith("jacobi_cs")} == {"jacobi_cs"}


@pytest.mark.parametrize("argv, tempfile", [
    (["eval", "metric", "--z", "0.3,0.1", "--w", "0.2"], False),
    (["geodesic", "--dw", "0.6", "--steps", "10", "--out", os.devnull], False),
    (["table", "christoffel", "--re-w=-0.5:0.5:5"], True),
])
def test_command_loads_only_what_it_runs(argv, tempfile):
    modules = loaded_by("from jacobi_cs import cli\n"
                        f"assert cli.main({argv!r}) == 0")
    assert "jacobi_cs.geodesics" in modules
    assert not modules & set(VERIFY_ONLY)
    if not tempfile:
        assert "tempfile" not in modules


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_verify_loads_no_process_pool(cpus):
    modules = loaded_by("from jacobi_cs import cli, core\n"
                        f"core.usable_cpus = lambda: {cpus}\n"
                        "assert cli.main(['verify', 'all']) == 0")
    assert "jacobi_cs.quadrature" in modules
    assert not {m for m in modules
                if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent")}


def test_verify_loads_the_suites():
    modules = loaded_by("from jacobi_cs import cli\n"
                        "assert cli.main(['verify', 'group']) == 0")
    assert set(VERIFY_ONLY) <= modules


def test_surface_names_are_their_modules_objects():
    for name in jacobi_cs.__all__:
        module = importlib.import_module(f"jacobi_cs.{jacobi_cs._EXPORTS[name]}")
        assert getattr(jacobi_cs, name) is getattr(module, name)
    assert set(jacobi_cs.__all__) <= set(dir(jacobi_cs))
    assert "__version__" in dir(jacobi_cs)
    with pytest.raises(AttributeError, match="no_such_name"):
        jacobi_cs.no_such_name


def test_surface_name_not_cached_past_a_tracer(monkeypatch):
    # a surface name is looked up in its module on each access, so the
    # benchmark's tracer, which patches module attributes, is seen while
    # installed and gone once uninstalled
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("layers").LayerTracer()
    original = geodesics.integrate
    tracer.install()
    try:
        assert jacobi_cs.integrate.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert jacobi_cs.integrate is geodesics.integrate is original
    assert "integrate" not in vars(jacobi_cs)
