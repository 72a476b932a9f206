"""Command-line front end: evaluate quantities, integrate, verify, tabulate.

Exit codes are stable across commands: 0 success, 1 verification failure,
2 invalid input, 3 runtime domain escape.  Complex values are passed as a
single flag with comma-separated real and imaginary parts ("--z 1.0,0.5").
A command has a flag for each setting it reads (``core.SETTINGS``) and for
no other; a JSON config file (flag --config or the JACOBI_CS_CONFIG
environment variable) provides defaults that these flags override.
`verify` and `table` run on up to one process per usable CPU, forking
children through :func:`core._fork_jobs`; a child that fails makes them
exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import core, geodesics, geometry, kernels
from .core import (
    SETTINGS,
    SUITE_NAMES,
    BoundaryEscape,
    DegenerateAction,
    ModelParams,
    TangentVector,
    check_metric,
    check_points,
    check_setting,
    eta_at,
    make_jacobi_point,
    p_at,
    require_finite,
)
from .geodesics import CHRISTOFFEL_KEYS, MAX_GEODESIC_STEPS, GeodesicState

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

# Largest table grid, in nodes.  Nodes are built and evaluated
# _TABLE_CHUNK_ROWS at a time, so memory does not grow with the grid; the
# limit bounds the run time and the output, about 1 GB at 10^7 nodes.
MAX_TABLE_NODES = 10**7
_JSON_TYPES = {float: "a number", int: "an integer", dict: "an object"}  # by setting type


def parse_complex(text: str) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (or one value) into sample positions."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            count = int(parts[2])
            if count < 0:
                raise ValueError
            if count > MAX_TABLE_NODES:
                raise argparse.ArgumentTypeError(
                    f"{count} samples exceed the table limit of {MAX_TABLE_NODES} nodes")
            start, stop = float(parts[0]), float(parts[1])
            if not math.isfinite(stop - start):
                raise argparse.ArgumentTypeError(
                    f"range {text!r} needs finite ends less than the largest "
                    f"float apart")
            return np.linspace(start, stop, count)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 'value' or 'start:stop:count', got {text!r}")


def _settings(args: argparse.Namespace) -> dict:
    """Each setting's default and ``tolerances``, overridden by the config file
    (each key's type checked), then by the flags; what a command builds checks bounds."""
    merged = {name: setting.default for name, setting in SETTINGS.items()}
    merged["tolerances"] = {}
    source = args.config or os.environ.get("JACOBI_CS_CONFIG")
    if source:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
        for key, value in data.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            kind = type(merged[key])
            # a float setting takes any JSON number; true/false is no number
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"config key {key!r} takes {_JSON_TYPES[kind]}, "
                                 f"got {value!r}")
            if key == "tolerances":
                for check, tol in value.items():
                    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                            or not 0.0 <= tol < math.inf):
                        raise ValueError(f"tolerance {check!r} takes a finite, "
                                         f"non-negative number, got {tol!r}")
            merged[key] = value
    for key in SETTINGS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    return merged


_EVAL_QUANTITIES = ("kernel", "potential", "metric", "ricci",
                    "scalar-curvature", "diastasis", "berezin",
                    "christoffel", "volume", "eta")
_TWO_POINT_QUANTITIES = ("kernel", "diastasis", "berezin")
# quantities whose evaluation validates the metric
_METRIC_QUANTITIES = ("metric", "scalar-curvature")
_TABLE_CHUNK_ROWS = 8192
_COPY_BYTES = 1 << 16        # a child's rows are appended in pieces of this size


def _columns(quantity: str, z: np.ndarray, w: np.ndarray, z2: np.ndarray,
             w2: np.ndarray, params: ModelParams) -> dict:
    """Value columns of one quantity at valid coordinates, by output key.

    The metric is not checked here; :func:`_check_values` does that.
    """
    if quantity == "kernel":
        v = kernels.kernel_at(z, w, z2, w2, params)
        return {"re": v.real, "im": v.imag}
    if quantity == "diastasis":
        return {"value": kernels.diastasis_at(z, w, z2, w2, params)}
    if quantity == "berezin":
        return {"value": kernels.berezin_at(z, w, z2, w2, params)}
    p = p_at(w)
    if quantity == "potential":
        return {"value": kernels.potential_at(z, w, p, params)}
    if quantity == "metric":
        h_zz, h_zw, h_ww = geometry.metric_at(z, w, p, params)
        return {"h_zz": h_zz, "h_zw_re": h_zw.real, "h_zw_im": h_zw.imag,
                "h_ww": h_ww}
    if quantity == "ricci":
        r_zz, r_zw, r_ww = geometry.ricci_at(p)
        return {"r_zz": r_zz, "r_zw_re": r_zw.real, "r_zw_im": r_zw.imag,
                "r_ww": r_ww}
    if quantity == "scalar-curvature":
        h = geometry.metric_at(z, w, p, params)
        return {"value": geometry.scalar_curvature_at(*h, geometry.ricci_at(p)[2])}
    if quantity == "christoffel":
        return dict(zip(CHRISTOFFEL_KEYS, geodesics.christoffel_at(z, w, p, params)))
    if quantity == "volume":
        return {"value": geometry.volume_density_at(p, params)}
    if quantity == "eta":
        v = eta_at(z, w, p)
        return {"re": v.real, "im": v.imag}
    raise ValueError(f"unknown quantity {quantity!r}")


def _check_values(quantity: str, z: np.ndarray, w: np.ndarray,
                  params: ModelParams) -> None:
    """Raise what :func:`check_metric` raises for a quantity built on the
    metric at valid coordinates: at mu = 0, and where |z| is so large that
    the determinant cancels to zero."""
    if quantity in _METRIC_QUANTITIES:
        with np.errstate(all="ignore"):
            check_metric(*geometry.metric_at(z, w, p_at(w), params))


def _values(quantity: str, z: np.ndarray, w: np.ndarray, z2: np.ndarray,
            w2: np.ndarray, params: ModelParams) -> dict[str, np.ndarray]:
    """:func:`_columns` at checked nodes, silenced and broadcast to the nodes."""
    with np.errstate(all="ignore"):
        columns = _columns(quantity, z, w, z2, w2, params)
    shape = np.broadcast_shapes(np.shape(z), np.shape(z2))
    return {key: np.broadcast_to(col, shape) for key, col in columns.items()}


def evaluate(quantity: str, z: np.ndarray, w: np.ndarray, z2: np.ndarray,
             w2: np.ndarray, params: ModelParams) -> dict[str, np.ndarray]:
    """One quantity at every node of coordinate arrays, as value columns.

    The evaluator of ``eval`` (a one-node grid); ``table`` runs its steps
    chunk by chunk.  All nodes, then all second points, are validated
    before anything is evaluated, raising what :func:`make_jacobi_point`
    raises at the first invalid one, and then the metric of the quantities
    built on it.  Arithmetic warnings are silenced: a value that is not
    finite is the caller's to report or write.  Complex columns hold
    complex values; the others are real.
    """
    check_points(z, w)
    check_points(z2, w2)
    _check_values(quantity, z, w, params)
    return _values(quantity, z, w, z2, w2, params)


def _complex_grid(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    if args.quantity not in _TWO_POINT_QUANTITIES:
        for flag in ("z2", "w2"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is read by the two-point quantities "
                                 f"({', '.join(_TWO_POINT_QUANTITIES)}) only, "
                                 f"not by {args.quantity}")
    cfg = _settings(args)
    params = ModelParams(cfg["k"], cfg["mu"])
    z2 = args.z2 if args.z2 is not None else args.z
    w2 = args.w2 if args.w2 is not None else args.w
    columns = evaluate(args.quantity, np.array([args.z]), np.array([args.w]),
                       np.array([z2]), np.array([w2]), params)
    if not all(np.isfinite(col).all() for col in columns.values()):
        print(f"error: {args.quantity} is not finite at this point",
              file=sys.stderr)
        return EXIT_DOMAIN
    value = {}
    for key, col in columns.items():
        cell = col[0].item()
        value[key] = [cell.real, cell.imag] if isinstance(cell, complex) else cell
    record = {
        "quantity": args.quantity,
        "inputs": {"k": params.k, "mu": params.mu,
                   "z": [args.z.real, args.z.imag],
                   "w": [args.w.real, args.w.imag]},
        "value": value,
    }
    if args.quantity in _TWO_POINT_QUANTITIES:
        record["inputs"]["z2"] = [z2.real, z2.imag]
        record["inputs"]["w2"] = [w2.real, w2.imag]
    print(json.dumps(record, allow_nan=False))
    return EXIT_OK


def _closed_form_residual(path: geodesics.GeodesicPath, s0: GeodesicState) -> float | None:
    """Residual against the constant-eta family when the start state is in it."""
    z0, dz0, dw0 = s0.pos.z, s0.vel.dz, s0.vel.dw
    # the family starts at w0 = 0 with z0 = eta0 and the velocity locked to it
    if abs(s0.pos.w) > 0 or not abs(dz0 + z0.conjugate() * dw0) < 1e-14:
        return None
    residual = 0.0
    stride = max(1, len(path) // 50)
    for t, (z, w) in zip(path.t[::stride].tolist(), path.y[::stride, :2].tolist()):
        ref = geodesics.fc_particular_solution(z0, dw0, t)
        residual = max(residual, abs(z - ref.pos.z), abs(w - ref.pos.w))
    return residual


def cmd_geodesic(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise ValueError("--out must name a file: stdout carries the JSON summary")
    cfg = _settings(args)
    params = ModelParams(cfg["k"], cfg["mu"])
    require_finite(args.t_end, "t_end")
    if args.t_end <= 0.0:
        raise ValueError(f"--t-end must be positive, got {args.t_end!r}")
    state = GeodesicState(make_jacobi_point(args.z, args.w),
                          TangentVector(args.dz, args.dw))
    if args.steps is None:
        n_steps = geodesics.step_count(args.t_end, cfg["rk4_step"])
    else:
        check_setting("rk4_step", cfg["rk4_step"])
        n_steps = args.steps
        if not 1 <= n_steps <= MAX_GEODESIC_STEPS:
            raise ValueError(f"--steps must be between 1 and {MAX_GEODESIC_STEPS}, "
                             f"got {n_steps}")
    try:
        path = geodesics.integrate(state, args.t_end, n_steps, params)
    except BoundaryEscape as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"error": "boundary escape", "t": exc.t}))
        return EXIT_DOMAIN
    speeds = path.speeds(params)
    if not np.isfinite(speeds).all():
        print("error: the speed is not finite along this path", file=sys.stderr)
        return EXIT_DOMAIN
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        path.write_csv(fh, speeds)
    z, w = path.y[-1, :2].tolist()
    summary = {
        "final": {"t": path.t[-1].item(), "z": [z.real, z.imag], "w": [w.real, w.imag]},
        "length": path.length(speeds),
        "energy_drift": float(np.max(np.abs(speeds - speeds[0]))),
        "closed_form_residual": _closed_form_residual(path, state),
        "csv": args.out,
        "min_p": float(np.min(p_at(path.y[:, 1]))),
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # the suites load algebra, bargmann, embedding and quadrature, which no
    # other command uses
    from .verify import VerifyConfig, run_suites

    cfg = VerifyConfig(**_settings(args))
    report = run_suites(list(SUITE_NAMES) if args.suite == "all" else [args.suite], cfg)
    for name, records in report["suites"].items():
        for rec in records:
            if not math.isfinite(rec["deviation"]):
                print(f"error: {name} check {rec['check']} has no finite deviation "
                      f"at these settings", file=sys.stderr)
                return EXIT_DOMAIN
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


def _nodes(axes: list[np.ndarray], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, w) of rows ``lo`` to ``hi`` - 1 of the grid over ``axes`` =
    [re_z, im_z, re_w, im_w] in ij order, from each row's index on each axis
    (as :func:`_write_rows` indexes the coordinate text); no other row is
    built."""
    index = np.unravel_index(np.arange(lo, hi), [axis.size for axis in axes])
    re_z, im_z, re_w, im_w = (axis[i] for axis, i in zip(axes, index))
    return _complex_grid(re_z, im_z), _complex_grid(re_w, im_w)


def _check_grid(quantity: str, axes: list[np.ndarray], params: ModelParams) -> None:
    """Raise what :func:`evaluate` raises on the whole grid over ``axes``,
    ``_TABLE_CHUNK_ROWS`` nodes at a time.

    A node is invalid when its z or its w is, so the first invalid node in
    row order is the first one among the first z with every w, or else
    among every z with the first w: two planes of the grid stand in for it.
    Only a quantity built on the metric needs a pass over every node.
    """
    if not all(axis.size for axis in axes):
        return
    first = [axis[:1] for axis in axes]
    passes = [(first[:2] + axes[2:], check_points), (axes[:2] + first[2:], check_points)]
    if quantity in _METRIC_QUANTITIES:
        passes.append((axes, lambda z, w: _check_values(quantity, z, w, params)))
    for grid, check in passes:
        n = math.prod(axis.size for axis in grid)
        for lo in range(0, n, _TABLE_CHUNK_ROWS):
            check(*_nodes(grid, lo, min(lo + _TABLE_CHUNK_ROWS, n)))


def _write_rows(write, axes: list[np.ndarray], values, keys: list[str],
                start: int, stop: int) -> None:
    """Rows ``start`` to ``stop`` - 1 of the table over ``axes`` =
    [re_z, im_z, re_w, im_w] in ij order, ``_TABLE_CHUNK_ROWS`` per write;
    ``values(lo, hi)`` gives the value columns of rows ``lo`` to ``hi`` - 1
    by key.

    A chunk's text is built column by column and joined once by
    :func:`core._join_rows`.  A chunk touches one index range of each axis,
    modulo its length, and only that range is formatted.  The w-plane runs
    innermost, so a column that repeats bit for bit with its period, ``nw``
    rows, has its first ``nw`` cells formatted and their text repeated:
    equal bits give equal reprs, where 0.0 == -0.0 does not.
    """
    shape = [axis.size for axis in axes]
    nw = shape[2] * shape[3]
    for lo in range(start, stop, _TABLE_CHUNK_ROWS):
        hi = min(lo + _TABLE_CHUNK_ROWS, stop)
        columns = values(lo, hi)
        texts = []
        for axis, index in zip(axes, np.unravel_index(np.arange(lo, hi), shape)):
            # the chunk's values on this axis run from index[0] on, wrapping
            touched = (index - index[0]) % axis.size
            text = map(repr, np.take(axis, index[0] + np.arange(touched.max() + 1),
                                     mode="wrap").tolist())
            texts.append(np.array(list(text), dtype=object)[touched].tolist())
        rows = hi - lo
        for key in keys:
            col = columns[key]
            bits = np.ascontiguousarray(col).view(np.uint64).reshape(rows, -1)
            period = nw if np.array_equal(bits[nw:], bits[:-nw]) else rows
            cells = list(map(repr, col[:period].tolist()))
            texts.append(cells * (rows // period) + cells[:rows % period])
        write(core._join_rows(texts, "\n"))


def _spool_rows(axes: list[np.ndarray], values, keys: list[str], start: int,
                stop: int, spool) -> None:
    """:func:`_write_rows` to the binary file ``spool``, in ASCII."""
    _write_rows(lambda text: spool.write(text.encode("ascii")),
                axes, values, keys, start, stop)


def _append(out, spool) -> None:
    """Copy the ASCII file ``spool`` from where it stands to the end of ``out``."""
    if hasattr(out, "buffer"):
        import shutil   # only on the fork path, as tempfile in core._fork_jobs
        out.flush()
        shutil.copyfileobj(spool, out.buffer, _COPY_BYTES)
    else:
        while chunk := spool.read(_COPY_BYTES):
            out.write(chunk.decode("ascii"))


def _write_table(out, header: str, axes: list[np.ndarray], values,
                 keys: list[str], n_rows: int) -> None:
    """Write the header and every row to ``out``; ``values`` is as for
    :func:`_write_rows`.  Rows split into contiguous ranges of at least
    ``_TABLE_CHUNK_ROWS``, one per usable CPU at most.  A forked child
    writes each range after the first to a file while this process writes
    the first, and the files are appended in order: ``out`` gets the bytes
    one process would write."""
    parts = 1
    if hasattr(os, "fork"):
        parts = max(1, min(core.usable_cpus(), n_rows // _TABLE_CHUNK_ROWS))
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    out.write(header)
    core._fork_jobs(functools.partial(_write_rows, out.write, axes, values, keys, 0, bounds[1]),
                    [(f"writing table rows from {start} on",
                      functools.partial(_spool_rows, axes, values, keys, start, stop))
                     for start, stop in zip(bounds[1:-1], bounds[2:])],
                    functools.partial(_append, out))


def cmd_table(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    params = ModelParams(cfg["k"], cfg["mu"])
    axes = [args.re_z, args.im_z, args.re_w, args.im_w]
    n_rows = math.prod(axis.size for axis in axes)
    if n_rows > MAX_TABLE_NODES:
        raise ValueError(f"the grid has {n_rows} nodes, more than the limit of "
                         f"{MAX_TABLE_NODES}")
    _check_grid(args.quantity, axes, params)
    origin = np.zeros(1, dtype=complex)   # reference for two-point quantities

    def values(lo: int, hi: int) -> dict:
        return _values(args.quantity, *_nodes(axes, lo, hi), origin, origin, params)

    # the keys of the quantity, from one valid node: the grid may have none
    keys = sorted(_values(args.quantity, origin, origin, origin, origin, params))
    header = ",".join(["re_z", "im_z", "re_w", "im_w"] + keys) + "\n"
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        _write_table(out, header, axes, values, keys, n_rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  :func:`main` runs
    ``cmd_<command>`` by its module-level name, looked up at call time."""
    parser = argparse.ArgumentParser(
        prog="jacobi-cs",
        description="Evaluate, integrate, and verify the coherent-state "
                    "geometry of the product of the plane and the disk.")
    parser.add_argument("--config", help="JSON config file "
                        "(also via JACOBI_CS_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("eval", "evaluate one quantity at a point"),
        ("geodesic", "integrate the geodesic system to CSV"),
        ("verify", "run a verification suite"),
        ("table", "tabulate a quantity over a coordinate grid"))}
    for name, command in commands.items():
        # left unset when not given, so a --config before the command stands
        command.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        for key, setting in SETTINGS.items():
            if name in setting.commands:
                command.add_argument("--" + key.replace("_", "-"), dest=key,
                                     type=type(setting.default), help=setting.help)

    p_eval = commands["eval"]
    p_eval.add_argument("quantity", choices=_EVAL_QUANTITIES)
    p_eval.add_argument("--z", type=parse_complex, default=0j)
    p_eval.add_argument("--w", type=parse_complex, default=0j)
    p_eval.add_argument("--z2", type=parse_complex, default=None)
    p_eval.add_argument("--w2", type=parse_complex, default=None)

    p_geo = commands["geodesic"]
    p_geo.add_argument("--z", type=parse_complex, default=0j)
    p_geo.add_argument("--w", type=parse_complex, default=0j)
    p_geo.add_argument("--dz", type=parse_complex, default=0j)
    p_geo.add_argument("--dw", type=parse_complex, default=0j)
    p_geo.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p_geo.add_argument("--steps", type=int, default=None)
    p_geo.add_argument("--out", default="geodesic.csv")

    commands["verify"].add_argument("suite", choices=list(SUITE_NAMES) + ["all"])

    p_tab = commands["table"]
    p_tab.add_argument("quantity", choices=_EVAL_QUANTITIES)
    p_tab.add_argument("--re-z", dest="re_z", type=parse_range,
                       default=np.array([0.0]))
    p_tab.add_argument("--im-z", dest="im_z", type=parse_range,
                       default=np.array([0.0]))
    p_tab.add_argument("--re-w", dest="re_w", type=parse_range,
                       default=np.array([0.0]))
    p_tab.add_argument("--im-w", dest="im_w", type=parse_range,
                       default=np.array([0.0]))
    p_tab.add_argument("--out", default="-")
    return parser


# a value that starts with '-' and then a digit, '.', inf or nan
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Attach a negative value to the flag before it: "--z -0.5,0.2" -> "--z=-0.5,0.2".

    argparse reads "-0.5,0.2" or "-1:1:20" as a flag unless it is written
    after "=".  Every flag of this CLI but -h/--help takes one value, so a
    negative-looking argument that follows such a flag is its value.
    """
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("-") and "=" not in prev and prev not in ("-h", "--help")
                and not _NEGATIVE_VALUE.match(prev) and _NEGATIVE_VALUE.match(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:   # a failed child raises ChildProcessError, an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BoundaryEscape, DegenerateAction, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
