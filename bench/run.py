"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {verify,table,geodesic} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``; no
install is needed.  Every process runs with one Python thread and BLAS
pinned to one thread.

--trace 0 prints the end-to-end metrics of the workload: set-up time (the
median of several fresh interpreters), throughput, median and tail op
time, failed share and peak memory.  --trace 1 prints the per-layer
metrics, per op, from a run that alternates plain and traced rounds, and
the tracing overhead (op_p50_s of traced minus plain rounds).

Every line but the last is a human-readable report (environment, each
metric with its unit and sample count); the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify", "table", "geodesic")   # workloads.WORKLOADS; not imported, so
                                              # this process never loads the package
BLAS_THREADS = 1
SETUP_SAMPLES = 10         # fresh interpreters timed per run, plus the worker
WORKER_GRACE_S = 60         # allowed beyond --seconds: last round, checks, start-up


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("JACOBI_CS_CONFIG", None)   # the CLI must run at its defaults
    return env


def run_child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or None,
            "python": platform.python_version(), "blas_threads": BLAS_THREADS,
            "python_threads": 1}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    probe = ("import json, numpy as np; b = np.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps("
             "{'numpy': np.__version__, 'blas': f\"{b['name']} {b['version']}\"}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode == 0:
        info.update(json.loads(proc.stdout))
    info["commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        info["commit"] = proc.stdout.strip() or None
    return info


def tail(values: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    qualifies; the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def latency(ops: list[dict]) -> tuple[float, float, int]:
    """Median and tail op time, stratified by op key.

    A round mixes op kinds of different cost (four table quantities, eight
    geodesic starts), so raw percentiles of the pooled times fall on the
    edges between kinds and jump with the number of rounds completed.
    Instead each op time is divided by the median of its own key: the p50
    is the mean of the per-key medians, the tail is that p50 times the tail
    percentile of the normalized times.  With one key (verify) both reduce
    to the plain median and tail.  Returns (p50, tail, tail percentile,
    per-key medians).
    """
    by_key: dict[str, list[float]] = {}
    for op in ops:
        by_key.setdefault(op["key"], []).append(op["seconds"])
    medians = {key: statistics.median(times) for key, times in by_key.items()}
    p50 = statistics.mean(medians.values())
    relative_tail, pct = tail([op["seconds"] / medians[op["key"]] for op in ops])
    return p50, p50 * relative_tail, pct, medians


def metric(name: str, value: float, unit: str, samples: int, note: str = "") -> dict:
    print(f"metric {name} = {value!r} {unit} (n={samples}{', ' + note if note else ''})")
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float]) -> dict:
    times = [op["seconds"] for op in result["ops"]]
    n = len(times)
    unit = result["unit"]
    busy = sum(times)
    p50, tail_s, pct, medians = latency(result["ops"])
    checks = sum(op["checks"] for op in result["ops"])
    if checks:
        failed, attempted, what = sum(op["checks_failed"] for op in result["ops"]), checks, "checks"
    else:
        failed, attempted, what = sum(not op["ok"] for op in result["ops"]), n, "ops"
    metric("failed_ratio", failed / attempted, "1", attempted,
           f"{failed} of {attempted} {what} failed")
    for key, median in medians.items():
        print(f"op {key}: median {median:.4f} s")
    return {
        "setup_s": metric("setup_s", statistics.median(setup), "s", len(setup),
                          "median of fresh interpreters"),
        "units_per_s": metric("units_per_s", n * result["units_per_op"] / busy,
                              "1/s", n, f"{unit} per second of {busy:.3f} s busy"),
        "op_p50_s": metric("op_p50_s", p50, "s", n, "mean of per-key medians"),
        "op_tail_s": metric("op_tail_s", tail_s, "s", n, f"p{pct} of key-normalized times"),
        "peak_rss_mb": metric("peak_rss_mb", result["peak_rss_mb"], "MB", 1),
    }


def per_layer(result: dict) -> dict:
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op for op in result["ops"] if not op["traced"]]
    n = len(traced)
    out = {}
    for name, total in result["layers"].items():
        out[name] = metric(name, total / n, "s/op" if name.endswith(".self_s") else "count/op", n)
    out["cli.bytes_out"] = metric("cli.bytes_out", statistics.mean(
        op["bytes_out"] for op in traced), "B/op", n)
    out["verify.checks"] = metric("verify.checks", statistics.mean(
        op["checks"] for op in traced), "count/op", n)
    out["verify.checks_failed"] = metric("verify.checks_failed", statistics.mean(
        op["checks_failed"] for op in traced), "count/op", n)
    t_plain, t_traced = latency(plain)[0], latency(traced)[0]
    out["tracing.overhead_s"] = metric(
        "tracing.overhead_s", t_traced - t_plain, "s/op", n,
        f"op_p50_s traced {t_traced:.4f} s - plain {t_plain:.4f} s, {len(plain)} plain ops")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it is passed to `verify --seed`)")
    if not (ROOT / "src" / "jacobi_cs" / "cli.py").is_file():
        print(f"error: no jacobi_cs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    # The first interpreter may compile bytecode; it is not a set-up sample.
    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES + 1):
            sample = run_child(["--setup-only"], 60)["setup_s"]
            if i:
                setup.append(sample)
    result = run_child([args.workload, str(args.seed), repr(args.seconds),
                        str(args.trace)], args.seconds + WORKER_GRACE_S)
    setup.append(result["setup_s"])
    print(f"workload {args.workload}: seed {args.seed}, {len(result['ops'])} ops "
          f"({result['round_ops']} per round, {result['units_per_op']} "
          f"{result['unit']} per op)")
    for problem in result["problems"]:
        print(f"problem {problem}")
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    failed = sum(not op["ok"] for op in result["ops"])
    print(json.dumps({"correct": failed == 0, "attempted": len(result["ops"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
