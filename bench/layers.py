"""Per-layer tracing of the jacobi_cs package, applied at runtime.

Each layer is one module of the package.  ``LayerTracer.install`` replaces
every public function, and every public method of a public class, with a
wrapper; ``uninstall`` puts the originals back, so untraced ops run the
unmodified code.  Nothing under ``src/`` is edited.

A span is recorded only when a call crosses from one layer into another
(the benchmark itself counts as the outermost caller).  A call that stays
inside its layer goes straight to the original function, which is what
keeps the overhead bounded: wrapping every call made the ``table``
workload about 2.8x slower in a first prototype.

Spans are folded into per-layer totals as they close and kept in memory;
the caller reads ``summary()`` once the run is over.  A layer's self time
is its span duration minus the part covered by its child spans.  Work
counts are computed from call arguments, on every call into a counted
function, intra-layer calls included.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("cli", "verify", "core", "algebra", "kernels", "geometry", "group",
          "geodesics", "bargmann", "embedding", "quadrature")

PACKAGE = "jacobi_cs"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (layer, qualified name) -> (counter name, amount computed from the call).
# Bound methods receive ``self`` as args[0].
WORK_COUNTS = {
    ("core", "JacobiPoint.__init__"): ("core.points", lambda a, k: 1),
    ("geodesics", "integrate"): (
        "geodesics.rk4_steps", lambda a, k: _arg(a, k, 2, "n_steps")),
    ("quadrature", "inner_product_mc"): (
        "quadrature.mc_samples", lambda a, k: _arg(a, k, 3, "cfg").n_samples),
    ("quadrature", "orthonormality_matrix_mc"): (
        "quadrature.mc_samples", lambda a, k: _arg(a, k, 3, "cfg").n_samples),
    ("quadrature", "sample_point"): ("quadrature.mc_samples", lambda a, k: 1),
    ("kernels", "basis_matrix"): (
        "kernels.basis_entries",
        lambda a, k: ((_arg(a, k, 2, "trunc").n_max + 1)
                      * (_arg(a, k, 2, "trunc").m_max + 1))),
    ("kernels", "basis_function"): ("kernels.basis_entries", lambda a, k: 1),
}

_WRAPPED_DUNDERS = ("__init__", "__call__")


class LayerTracer:
    """Boundary-span tracer over the modules named in ``LAYERS``."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(
            sorted({name for name, _ in WORK_COUNTS.values()}), 0)
        self._stack: list[list] = []   # open spans: [layer, child seconds]
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        counted = WORK_COUNTS.get((layer, qualname))
        counts, stack = self.counts, self._stack
        calls, errors, self_s = self.calls, self.errors, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted is not None:
                counts[counted[0]] += counted[1](args, kwargs)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _wrap_member(self, member, layer: str, qualname: str):
        """Wrapped replacement for a class attribute, or None to leave it."""
        if isinstance(member, types.FunctionType):
            return self._wrap(member, layer, qualname)
        if isinstance(member, (classmethod, staticmethod)):
            return type(member)(self._wrap(member.__func__, layer, qualname))
        if isinstance(member, property) and member.fget is not None:
            return property(self._wrap(member.fget, layer, qualname),
                            member.fset, member.fdel, member.__doc__)
        return None

    def _build(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, object] = {}   # id(original function) -> wrapper
        found = set()
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
                    found.add((layer, name))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                            continue
                        qualname = f"{name}.{attr}"
                        wrapped = self._wrap_member(member, layer, qualname)
                        if wrapped is not None:
                            self._patches.append((obj, attr, member, wrapped))
                            found.add((layer, qualname))
        missing = set(WORK_COUNTS) - found
        if missing:
            raise RuntimeError(f"work-count targets not found: {sorted(missing)}")
        # Every module-level name bound to a wrapped function, including the
        # `from .x import f` copies in other modules, must see the wrapper.
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in namespaces:
            for name, obj in vars(module).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, name, obj, wrapper))

    # -- switching ------------------------------------------------------

    def install(self) -> None:
        for target, name, _, wrapper in self._patches:
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original, _ in self._patches:
            setattr(target, name, original)

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Totals since construction: per-layer calls, self_s, errors, counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(self.counts)
        return out
