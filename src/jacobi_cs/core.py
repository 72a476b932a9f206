"""Domain types and validation shared by every other module.

Points live on the product of the complex plane (coordinate ``z``) and the
open unit disk (coordinate ``w``).  All formulas downstream have a pole at
|w| = 1, so disk membership is guarded with a small safety margin
``EPS_BOUND``: points with |w| >= 1 - EPS_BOUND are rejected at
construction time, which keeps every denominator of the form 1 - w*conj(w)
bounded away from zero.

Everything here is an immutable value; instances are safe to share freely.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

EPS_BOUND = 1e-9

# Smallest admitted disk weight k.  The measure normalization
# (4k - 3) / (2 pi^2) vanishes there, so measure operations need k > K_MIN.
K_MIN = 0.75

# The verification suites of jacobi_cs.verify, named here so that the
# command-line parser can offer them without loading the suites.
SUITE_NAMES = ("algebra", "bargmann", "embedding", "geodesics",
               "geometry", "group", "kernels", "quadrature")


class Setting(NamedTuple):
    """A setting's default, which gives its type; its bound, a finite value from
    ``low`` to ``high``, where the callers in ``open_low`` (commands, and None
    for the library) refuse ``low`` itself; the commands that read it; help."""

    default: float | int
    low: float
    high: float
    commands: tuple[str, ...]
    help: str | None = None
    open_low: tuple[str | None, ...] = ()

    def bound(self, command: str | None = None) -> str:
        """The bound in words, as ``command`` (None: the library) reads it."""
        if self.high < math.inf:
            return f"between {self.low} and {self.high}"
        finite = "finite and " if isinstance(self.default, float) else ""
        if command in self.open_low:
            return finite + ("positive" if self.low == 0 else f"above {self.low}")
        return finite + ("non-negative" if self.low == 0 else f"at least {self.low}")


_EVERY_COMMAND = ("eval", "table", "geodesic", "verify")
# The CLI's settings, each a flag and a config key of its name: the one place
# a default or a bound is written.  The library's guards check them too.
SETTINGS = {
    "k": Setting(1.0, K_MIN, math.inf, _EVERY_COMMAND),
    # mu = 0 is the geodesics' flat limit; verify's kernels and measures need mu > 0
    "mu": Setting(1.0, 0.0, math.inf, _EVERY_COMMAND, open_low=("verify",)),
    # a basis matrix holds (n_max + 1)(m_max + 1) entries per point, so memory
    # grows with the square of the orders: `verify embedding` takes 171 MB at 800 x 800
    "n_max": Setting(40, 1, 200, ("verify",), "series truncation in the flat index; "
                     "convergence is governed by mu |z|^2"),
    "m_max": Setting(40, 1, 200, ("verify",), "series truncation in the disk index; "
                     "convergence is governed by |w|"),
    "fd_step": Setting(1e-4, 1e-7, 1e-2, ("verify",)),
    "rk4_step": Setting(1e-3, 0.0, math.inf, ("geodesic", "verify"),
                        open_low=(None, "geodesic", "verify")),
    "seed": Setting(0, 0, math.inf, ("verify",)),
    # verify's inner product draws a tenth of mc_samples in one array, 0.32 GB at most
    "mc_samples": Setting(1_000_000, 1000, 10**8, ("verify",)),
}


class NonFinite(ValueError):
    """A coordinate or parameter is NaN or infinite."""


class BoundaryViolation(ValueError):
    """A disk coordinate lies on or outside the guarded unit disk."""


class InvalidK(ValueError):
    """Basis operations need 2*(k - 1/4) to be a positive integer."""


class BoundaryProximity(ValueError):
    """A finite-difference stencil would leave the guarded disk."""


class BoundaryEscape(RuntimeError):
    """Numerical integration drove w out of the guarded disk."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"trajectory left the disk at t={t:.6g}")

    def __reduce__(self):
        # args hold only the message; rebuild from t and the message so
        # the error survives a process boundary
        return type(self), (self.t, str(self))


class DegenerateAction(ZeroDivisionError):
    """A group action's denominator vanishes to working precision."""


class ZeroDirection(ValueError):
    """A closed-form solution requires a nonzero disk velocity."""


class DimensionMismatch(ValueError):
    """Operands have incompatible component counts."""


class EndpointMismatch(ValueError):
    """A path does not connect the requested endpoints."""


def check_setting(name: str, value, command: str | None = None):
    """Return ``value`` if it is within the bound of setting ``name`` as
    ``command`` (None: the library) reads it; else raise ValueError, or
    NonFinite for a float that is not finite."""
    setting = SETTINGS[name]
    finite = not isinstance(value, float) or math.isfinite(value)
    above = setting.low < value if command in setting.open_low else setting.low <= value
    if finite and above and value <= setting.high:
        return value
    raise (ValueError if finite else NonFinite)(
        f"{name} must be {setting.bound(command)}, got {value}")


def check_positive_mu(mu: float) -> float:
    """``mu`` if finite and positive, as `verify` reads it and the kernels, the measure
    and the operators need; :class:`ModelParams` admits the flat limit mu = 0."""
    return check_setting("mu", mu, "verify")


def require_finite(value: complex, name: str = "value") -> complex:
    """Return ``value`` unchanged, raising NonFinite on NaN/Inf components."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


def check_disk(w: complex) -> complex:
    """Validate a disk coordinate: finite and |w| < 1 - EPS_BOUND."""
    require_finite(w, "w")
    try:
        r = abs(w)
    except OverflowError:       # finite parts, |w| beyond the float range
        r = math.inf
    if r >= 1.0 - EPS_BOUND:
        raise BoundaryViolation(f"|w|={r:.12g} is not inside the open disk")
    return w


@dataclass(frozen=True)
class JacobiPoint:
    """A point (z, w) with z in C and w in the guarded open unit disk.

    The strictly positive real ``p = 1 - w*conj(w)`` is cached because most
    coefficient formulas share it.
    """

    z: complex
    w: complex
    p: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_finite(self.z, "z")
        check_disk(self.w)
        object.__setattr__(self, "p", p_at(self.w))


def make_jacobi_point(z: complex, w: complex) -> JacobiPoint:
    """Validated constructor for a point of the Siegel-Jacobi disk."""
    return JacobiPoint(complex(z), complex(w))


def check_points(z, w) -> None:
    """Validate arrays of coordinates (z, w) as points, all at once.

    Raises exactly what :func:`make_jacobi_point` raises at the first
    invalid node in C order, which for ``np.meshgrid(..., indexing="ij")``
    grids is the order of the nested loops over the axes.  The array test
    only selects candidates (``np.hypot`` rounds as ``abs`` of a Python
    complex does); the scalar constructor decides.
    """
    z, w = np.broadcast_arrays(np.asarray(z), np.asarray(w))
    with np.errstate(over="ignore"):    # an overflowing |w| is inf: outside
        r = np.hypot(w.real, w.imag)
    good = np.isfinite(z) & np.isfinite(w) & (r < 1.0 - EPS_BOUND)
    for i in np.flatnonzero(~good):
        make_jacobi_point(z.flat[i].item(), w.flat[i].item())


@dataclass(frozen=True)
class ModelParams:
    """Representation parameters: disk weight ``k`` and Heisenberg scale ``mu``,
    checked against their :data:`SETTINGS` bounds.  ``k`` = ``K_MIN`` holds the
    smallest basis family, though measure operations need k > K_MIN; ``mu`` = 0
    is the flat limit of the geodesic system, though kernels and measures need
    mu > 0."""

    k: float
    mu: float

    def __post_init__(self):
        check_setting("k", self.k)
        check_setting("mu", self.mu)


@dataclass(frozen=True)
class TangentVector:
    """Holomorphic tangent components (dz, dw) at a point."""

    dz: complex
    dw: complex

    def __post_init__(self):
        require_finite(self.dz, "dz")
        require_finite(self.dw, "dw")


@dataclass(frozen=True)
class HermitianMetric2:
    """Coefficients of a positive definite 2x2 Hermitian form.

    ``h_zz`` and ``h_ww`` are the real diagonal entries, ``h_zw`` the
    off-diagonal one; positive definiteness is enforced on construction.
    """

    h_zz: float
    h_zw: complex
    h_ww: float

    def __post_init__(self):
        h_zz, h_zw, h_ww = self.h_zz, self.h_zw, self.h_ww
        # one test passes valid coefficients; the checks below name the fault
        if (math.isfinite(h_zz) and cmath.isfinite(h_zw) and math.isfinite(h_ww)
                and positive_definite(h_zz, h_zw, h_ww)):
            return
        require_finite(complex(h_zz), "h_zz")
        require_finite(h_zw, "h_zw")
        require_finite(complex(h_ww), "h_ww")
        if not positive_definite(h_zz, h_zw, h_ww):
            raise ValueError(
                f"metric coefficients are not positive definite "
                f"(h_zz={self.h_zz!r}, h_ww={self.h_ww!r}, det={self.det()!r})"
            )

    def det(self) -> float:
        return hermitian_det(self.h_zz, self.h_zw, self.h_ww)


def hermitian_det(h_zz, h_zw, h_ww):
    """Determinant h_zz h_ww - |h_zw|^2 of 2x2 Hermitian coefficients (numbers or arrays)."""
    return h_zz * h_ww - abs(h_zw) ** 2


def positive_definite(h_zz, h_zw, h_ww):
    """Whether Hermitian coefficients are positive definite (numbers or arrays).

    Finiteness is not part of the test: an infinite diagonal passes it.
    """
    return (h_zz > 0.0) & (h_ww > 0.0) & (hermitian_det(h_zz, h_zw, h_ww) > 0.0)


def check_metric(h_zz, h_zw, h_ww) -> None:
    """Validate arrays of metric coefficients, all at once.

    Raises what :class:`HermitianMetric2` raises at the first finite
    triple, in C order, that is not positive definite.  A triple that is
    not finite passes: it is a domain escape of the point, for the caller
    to report or write, not a degenerate metric.
    """
    h_zz, h_zw, h_ww = np.broadcast_arrays(h_zz, h_zw, h_ww)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = (np.isfinite(h_zz) & np.isfinite(h_zw) & np.isfinite(h_ww)
               & ~positive_definite(h_zz, h_zw, h_ww))
    for i in np.flatnonzero(bad):
        HermitianMetric2(h_zz.flat[i].item(), complex(h_zw.flat[i]), h_ww.flat[i].item())


def p_at(w):
    """P = 1 - w conj(w), positive on the disk (numbers or arrays).

    Written with real products: numpy's complex multiply may fuse them and
    round differently from Python's, and near |w| = 1 the cancellation in P
    would magnify that last-digit difference between arrays and numbers.
    """
    return 1.0 - (w.real * w.real + w.imag * w.imag)


def eta_at(z, w, p):
    """Displacement coordinate eta = (z + conj(z) w) / P, with P = p_at(w).

    This is the coordinate in which the metric splits into a flat block
    and a pure disk block; see the group module for the companion change
    of variables z = eta - w conj(eta).  Takes numbers or arrays.
    """
    return (z + z.conjugate() * w) / p


def eta_of(zeta: JacobiPoint) -> complex:
    """:func:`eta_at` at a point."""
    return eta_at(zeta.z, zeta.w, zeta.p)


def usable_cpus() -> int:
    """CPUs this process may run on: the parallel CLI commands start at
    most one process per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _join_rows(columns: list[list[str]], end: str) -> str:
    """CSV text of the rows whose cell texts ``columns`` gives column by
    column: a row's cells joined by "," and each row ended by ``end``.  The
    pieces are interleaved by strided slices and joined once, so no Python
    code runs per row.  Not part of the library's surface."""
    stride = 2 * len(columns)
    pieces = [","] * (stride * len(columns[0]))
    for j, column in enumerate(columns):
        pieces[2 * j::stride] = column
    pieces[stride - 1::stride] = [end] * len(columns[0])
    return "".join(pieces)


def _fork_jobs(here, jobs, take):
    """Return ``here()``, run in this process while a forked child runs each
    of ``jobs``, (description, function of a binary file) pairs, into an
    unlinked temporary file; then reap the children in order and give each
    file, rewound, to ``take``.  Not part of the library's surface.

    A child leaves through ``os._exit``, flushing none of the stdio buffers
    copied at the fork, with status 0 once its job returned, else 1, which
    raises a ChildProcessError naming it.  On any error, every child not
    yet reaped is killed and reaped.
    """
    files, children = [], []    # children: (pid, file, description), not yet reaped
    try:
        for doing, job in jobs:
            import tempfile     # only on the fork path: the CLI's start-up does without
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    job(files[-1])
                    files[-1].flush()
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, files[-1], doing))
        result = here()
        while children:
            pid, file, doing = children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]     # reaped: its pid may be reused from here on
            if status != 0:
                raise ChildProcessError(f"the process {doing} failed with "
                                        f"exit status {status}")
            file.seek(0)
            take(file)
        return result
    finally:
        if children:
            import signal       # only on this error path
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for file in files:
            file.close()
