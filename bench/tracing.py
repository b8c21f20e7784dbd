"""Per-layer tracing from outside the package.

Each layer is one module of ``nonlocal_lab``, named without its leading
underscore (``_util`` is ``util``).  Inside ``with Tracer():`` every function
in a module's ``__all__`` is replaced by a wrapper at every place the package
binds it (its own module and every module that imported it by name), so
calls between layers and within a layer are both seen.  Leaving the block
puts the original objects back.

A span is one call: its layer, its duration, and the time its child spans
(calls to other wrapped functions) took.  Spans are reduced as they close to
per-layer counts and self time, so memory stays flat however many calls a
run makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "nonlocal_lab"

# functions whose inclusive durations are kept, for their p50
TIMED = (
    "closedform.delta_of_epsilon",
    "symcalc.pipeline",
    "regularity.dyadic_seminorm",
    "energy.convexity_identity_check",
    "energy.gamma_limit_probe",
    "cli.run",
)

# functions whose first argument is a callback run on the caller's behalf:
# the mapped function of the pool, the integrand of the quadrature
CALLBACKS = ("util.map_ordered", "pvquad.pv_integral")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.pv_calls: list[tuple[int, int, bool, float]] = []  # d, nodes, converged, seconds
        self.map_items = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self):
        wrappers = {}
        for mod in self._modules():
            layer = mod.__name__.rsplit(".", 1)[-1].lstrip("_")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, layer, f"{layer}.{name}")
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _span(self, layer: str, fn, args, kwargs, count: bool = True):
        """Run fn as a span of layer; returns (result, duration)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0, layer]  # time spent in child spans, layer
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            with self._lock:
                self.calls[layer] += count
                self.self_s[layer] += dur - frame[0]
        return result, dur

    def _wrap(self, fn, layer: str, qualname: str):
        keep = qualname in TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if qualname in CALLBACKS:
                # a callback is the caller's work: charge it to the caller's
                # layer, so that the callee keeps only its own overhead
                stack = getattr(self._local, "stack", None)
                caller = stack[-1][1] if stack else layer
                callback = args[0]

                def charged(*a):
                    return self._span(caller, callback, a, {}, count=False)[0]

                args = (charged,) + args[1:]
                if qualname == "util.map_ordered":
                    args = (charged, list(args[1])) + args[2:]
                    with self._lock:
                        self.map_items += len(args[1])
            result, dur = self._span(layer, fn, args, kwargs)
            with self._lock:
                if keep:
                    self.durations[qualname].append(dur)
                if qualname == "pvquad.pv_integral":
                    d = args[1] if len(args) > 1 else kwargs["d"]
                    self.pv_calls.append((int(d), result.nodes_used, result.converged, dur))
            return result

        return wrapper
