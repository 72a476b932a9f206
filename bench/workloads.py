"""The benchmark's workloads: seeded CLI invocations and their output checks.

Each workload is a fixed *round* of CLI invocations built from the seed; a
run repeats whole rounds, one op at a time (a closed loop with one caller).
Because rounds repeat, every op after the first round has a same-seed twin
whose output must be byte-identical (the README's determinism claim).

Output checks use the oracle pairs of the README's "closed form | oracle"
table, evaluated from the library on sampled rows of each op's output.  A
check runs after the op's timer stops, with any tracing switched off.

Workloads, and why each is here:
- ``verify``: ``verify all`` at default settings.  The oracle path; the
  1e6-sample Monte Carlo Gram matrix (``quadrature``) dominates, then
  ``embedding``, ``geodesics``, ``algebra`` and the ``geometry`` stencils.
  Vectorised numpy work, little per-point Python overhead.
- ``table``: 40k-point grids cycling through kernel, diastasis, metric and
  christoffel.  Scalar per-point closed forms only (``core`` validation,
  ``kernels``, ``geometry``, ``geodesics.christoffel``) plus ``cli`` row
  formatting; no oracle and no Monte Carlo inside the op.
- ``geodesic``: 2000-step RK4 integrations.  A chain of dependent steps
  that cannot be batched across steps, one point validation per step.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from jacobi_cs import geodesics, geometry, kernels
from jacobi_cs.core import ModelParams, TangentVector, make_jacobi_point
from jacobi_cs.geodesics import GeodesicState

# CLI defaults (k=1, mu=1); the workloads pass no model flags.
PARAMS = ModelParams(1.0, 1.0)
SAMPLED_ROWS = 8


@dataclass
class Op:
    key: str                       # ops with equal keys must agree byte for byte
    argv: list[str]
    out: Path | None = None        # CSV written by the op, if any
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    checks: int = 0                # verify only: checks in the report
    checks_failed: int = 0

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.ok = False
            self.problems.append(message)


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


def _cx(value: complex) -> str:
    return f"{value.real!r},{value.imag!r}"


class VerifyWorkload:
    """``verify all`` at default settings with ``--seed`` = benchmark seed."""

    name = "verify"
    unit = "reports"
    units_per_op = 1

    def __init__(self, seed: int, out_dir: Path):
        self.round = [Op("verify", ["verify", "all", "--seed", str(seed)])]

    def check(self, op: Op, code: int, stdout: str) -> Outcome:
        result = Outcome()
        result.require(code in (0, 1), f"exit code {code}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            result.require(False, f"report is not JSON: {exc}")
            return result
        records = [rec for recs in report["suites"].values() for rec in recs]
        result.checks = len(records)
        result.checks_failed = sum(not rec["pass"] for rec in records)
        result.require(report["pass"] == (code == 0),
                       f"pass flag {report['pass']} with exit code {code}")
        result.require(report["pass"] == (result.checks_failed == 0),
                       "pass flag disagrees with the records")
        return result


class TableWorkload:
    """``table`` over a seeded 20x20x10x10 grid, one quantity per op."""

    name = "table"
    unit = "points"
    QUANTITIES = ("kernel", "diastasis", "metric", "christoffel")
    SHAPE = (20, 20, 10, 10)
    units_per_op = math.prod(SHAPE)

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        # z offset from the seed; w on [-0.5, 0.5]^2, so |w| <= 0.5 sqrt(2)
        ox, oy = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
        axes = [(ox - 1.2, ox + 1.2), (oy - 1.2, oy + 1.2),
                (-0.5, 0.5), (-0.5, 0.5)]
        flags = ("--re-z", "--im-z", "--re-w", "--im-w")
        grid = [f"{flag}={lo!r}:{hi!r}:{n}"
                for flag, (lo, hi), n in zip(flags, axes, self.SHAPE)]
        self.round = [Op(q, ["table", q, *grid, "--out", str(out_dir / f"{q}.csv")],
                         out_dir / f"{q}.csv")
                      for q in self.QUANTITIES]

    def check(self, op: Op, code: int, stdout: str) -> Outcome:
        result = Outcome()
        result.require(code == 0, f"exit code {code}")
        if code != 0:
            return result
        with open(op.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        result.require(len(lines) == self.units_per_op + 1,
                       f"{len(lines) - 1} rows for a {self.units_per_op}-point grid")
        header = lines[0].split(",")
        origin = make_jacobi_point(0.0, 0.0)
        for i in self.rng.sample(range(1, len(lines)), SAMPLED_ROWS):
            cells = dict(zip(header, lines[i].split(",")))
            zeta = make_jacobi_point(complex(float(cells["re_z"]), float(cells["im_z"])),
                                     complex(float(cells["re_w"]), float(cells["im_w"])))
            check = getattr(self, f"_check_{op.key}")
            result.require(check(cells, zeta, origin), f"{op.key} row {i} fails its oracle")
        return result

    @staticmethod
    def _check_kernel(cells, zeta, origin) -> bool:
        # |K(zeta, 0)|^2 = exp(f(zeta) + f(0) - D), D from the split form
        value = complex(float(cells["re"]), float(cells["im"]))
        log_mod2 = (kernels.kahler_potential(zeta, PARAMS)
                    + kernels.kahler_potential(origin, PARAMS)
                    - kernels.diastasis_split(zeta, origin, PARAMS))
        return _close(2.0 * math.log(abs(value)), log_mod2, 1e-9)

    @staticmethod
    def _check_diastasis(cells, zeta, origin) -> bool:
        return _close(float(cells["value"]),
                      kernels.diastasis_split(zeta, origin, PARAMS), 1e-9)

    @staticmethod
    def _check_metric(cells, zeta, origin) -> bool:
        h = geometry.metric_fd(zeta, PARAMS)
        return (_close(float(cells["h_zz"]), h.h_zz, 1e-6)
                and _close(complex(float(cells["h_zw_re"]), float(cells["h_zw_im"])),
                           h.h_zw, 1e-6)
                and _close(float(cells["h_ww"]), h.h_ww, 1e-6))

    def _check_christoffel(self, cells, zeta, origin) -> bool:
        # the contraction -G(v, v) of the tabulated symbols must equal the
        # direct accelerations at a random velocity
        g = {name: complex(cells[name]) for name in
             ("g_zzz", "g_zzw", "g_zww", "g_wzz", "g_wwz", "g_www")}
        dz, dw = (cmath.rect(self.rng.uniform(0.1, 1.0), self.rng.uniform(0, 2 * math.pi))
                  for _ in range(2))
        az = -(g["g_zzz"] * dz * dz + 2.0 * g["g_zzw"] * dz * dw + g["g_zww"] * dw * dw)
        aw = -(g["g_wzz"] * dz * dz + 2.0 * g["g_wwz"] * dz * dw + g["g_www"] * dw * dw)
        direct = geodesics.geodesic_rhs(GeodesicState(zeta, TangentVector(dz, dw)), PARAMS)
        return _close(az, direct.dz, 1e-9) and _close(aw, direct.dw, 1e-9)


class GeodesicWorkload:
    """``geodesic``: 2000-step RK4 runs from seeded start states.

    Half the starts lie in the constant-eta family (w0 = 0, dz0 =
    -conj(z0) dw0), for which the CLI reports a closed-form residual.
    """

    name = "geodesic"
    unit = "rk4_steps"
    STEPS = 2000
    T_END = 1.0
    STARTS = 8
    units_per_op = STEPS

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)

        def disk(radius: float) -> complex:
            return cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))

        self.round = []
        for i in range(self.STARTS):
            family = i % 2 == 0
            if family:
                z0, w0, dw0 = disk(1.0), 0j, cmath.rect(rng.uniform(0.2, 0.6),
                                                       rng.uniform(0, 2 * math.pi))
                dz0 = -z0.conjugate() * dw0
            else:
                z0, w0, dz0, dw0 = disk(1.0), disk(0.3), disk(0.5), disk(0.4)
            out = out_dir / f"geodesic{i}.csv"
            argv = ["geodesic", f"--z={_cx(z0)}", f"--w={_cx(w0)}",
                    f"--dz={_cx(dz0)}", f"--dw={_cx(dw0)}",
                    "--t-end", repr(self.T_END), "--steps", str(self.STEPS),
                    "--out", str(out)]
            self.round.append(Op(f"start{i}", argv, out,
                                 {"family": family, "z0": z0, "dw0": dw0}))

    def check(self, op: Op, code: int, stdout: str) -> Outcome:
        result = Outcome()
        result.require(code == 0, f"exit code {code}")
        if code != 0:
            return result
        summary = json.loads(stdout)
        with open(op.out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        result.require(len(rows) == self.STEPS + 1,
                       f"{len(rows)} samples for {self.STEPS} steps")
        speeds = [float(r["speed"]) for r in rows]
        drift = max(abs(s - speeds[0]) for s in speeds)
        result.require(drift <= 1e-8 * max(1.0, speeds[0]), f"speed drift {drift:.3g}")
        result.require(summary["energy_drift"] <= 1e-8 * max(1.0, speeds[0]),
                       f"reported energy drift {summary['energy_drift']:.3g}")
        residual = summary["closed_form_residual"]
        result.require(residual is not None or not op.info["family"],
                       "no closed-form residual on the constant-eta family")
        result.require(residual is None or residual <= 1e-8,
                       f"closed-form residual {residual}")
        if not op.info["family"]:
            return result
        for row in self.rng.sample(rows, SAMPLED_ROWS):
            ref = geodesics.fc_particular_solution(op.info["z0"], op.info["dw0"],
                                                   float(row["t"]))
            z = complex(float(row["re_z"]), float(row["im_z"]))
            w = complex(float(row["re_w"]), float(row["im_w"]))
            result.require(abs(z - ref.pos.z) <= 1e-8 and abs(w - ref.pos.w) <= 1e-8,
                           f"sample t={row['t']} is off the closed form")
        return result


WORKLOADS = {w.name: w for w in (VerifyWorkload, TableWorkload, GeodesicWorkload)}

