"""One workload process: runs whole rounds of CLI ops for a time budget.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

``--setup-only`` in place of the arguments times the set-up (import
``jacobi_cs`` and build the CLI parser) and prints it.  Otherwise the last
stdout line is a JSON record of every op, consumed by ``run.py``.

With TRACE = 1, rounds alternate between plain (originals) and traced
(layer wrappers installed); the run ends after a traced round, so both
halves hold the same number of whole rounds.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
from jacobi_cs import cli  # noqa: E402  (set-up is what is being timed)

cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

OUT_ROOT = Path(__file__).resolve().parent / ".out"
MAX_PROBLEMS = 5


def run_op(argv: list[str]) -> tuple[float, int | None, str, str]:
    """Time one CLI call; returns (seconds, exit code or None, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception fails the op, not the run
            code = None
            stderr.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue(), stderr.getvalue()


def check_op(workload, op, code: int | None, stdout: str, stderr: str,
             digests: dict[str, str]) -> Outcome:
    """Output checks plus the same-seed comparison; never raises."""
    if code is None:
        return Outcome(ok=False, problems=[stderr])
    try:
        outcome = workload.check(op, code, stdout)
    except Exception as exc:  # malformed output fails the op, not the run
        return Outcome(ok=False, problems=[f"{type(exc).__name__}: {exc}", stderr])
    digest = hashlib.sha256(stdout.encode())
    if op.out is not None and op.out.exists():
        digest.update(op.out.read_bytes())
    if digests.setdefault(op.key, digest.hexdigest()) != digest.hexdigest():
        outcome.require(False, "output differs from its same-seed twin")
    if not outcome.ok and stderr:
        outcome.problems.append(stderr)
    return outcome


def main(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = OUT_ROOT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, out_dir)
    tracer = LayerTracer() if trace else None
    digests: dict[str, str] = {}
    ops, problems = [], []
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or (trace and rounds % 2 == 1):
        traced = trace and rounds % 2 == 1
        for op in workload.round:
            gc.collect()   # each op starts from a settled heap, as a fresh CLI process would
            if traced:
                tracer.install()
            elapsed, code, stdout, stderr = run_op(op.argv)
            if traced:
                tracer.uninstall()
            outcome = check_op(workload, op, code, stdout, stderr, digests)
            problems.extend(f"{op.key}: {p.strip()}" for p in outcome.problems)
            written = op.out.stat().st_size if op.out is not None and op.out.exists() else 0
            ops.append({
                "key": op.key, "seconds": elapsed, "traced": traced, "ok": outcome.ok,
                "bytes_out": len(stdout.encode()) + written,
                "checks": outcome.checks, "checks_failed": outcome.checks_failed,
            })
        rounds += 1
    return {
        "setup_s": SETUP_S,
        "unit": workload.unit,
        "units_per_op": workload.units_per_op,
        "round_ops": len(workload.round),
        "ops": ops,
        "problems": problems[:MAX_PROBLEMS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.summary() if tracer else None,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"setup_s": SETUP_S}))
    else:
        name, seed, seconds, trace = sys.argv[1:5]
        result = main(name, int(seed), float(seconds), trace == "1")
        print(json.dumps(result))
