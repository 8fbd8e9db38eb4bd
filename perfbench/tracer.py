"""Outside-in tracer for the geoflow layers.

The program is not changed.  `Tracer.install` replaces the public
functions of each layer module (`geoflow.expr`, `geoflow.geometry`, ...)
with wrappers that open a span around the call; patching the module
global also catches calls from inside the same module.  Spans live on a
per-thread stack, because `geoflow sweep` runs rows on pool threads.

A span's self time is its duration minus the time of the spans it
opened.  Besides time, the tracer counts:

- `<layer>.calls`: entries into a layer from another layer (or from the
  benchmark itself);
- `<module>.<function>.calls` and `.time_s` for every wrapped function;
- `<layer>.evals`: calls of compiled evaluators (everything
  `expr.compile_exprs` returns) charged to the innermost open span, and
  `expr.evals` for all of them;
- `<layer>.svd_calls`: `numpy.linalg.svd` calls, charged the same way;
- `hamiltonian.integrations` and `hamiltonian.targets`: time signs and
  non-zero target times of each `flow_many`/`transition_many` call, since
  each sign is one adaptive integration.

Evaluators compiled while the tracer is installed keep counting after
`uninstall`, so code measured untraced must use structures built while
it was not installed.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("expr", "geometry", "hamiltonian", "flag", "rho", "asymptotics",
          "exact", "catalog", "cli")

# flow and transition are one-time wrappers of the _many pair; wrapping
# them as well would count each integration call twice.
_NOT_WRAPPED = {("hamiltonian", "flow"), ("hamiltonian", "transition")}

_INTEGRATORS = {("hamiltonian", "flow_many"),
                ("hamiltonian", "transition_many")}

_OUTSIDE = "bench"


class Tracer:
    """Span stacks and counters for one benchmark process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._patches = self._build_patches()

    # -- per-thread state -------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
            return state

    def counters(self):
        """Counters summed over every thread that ran a traced call."""
        total = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, value in table.items():
                total[key] = total.get(key, 0) + value
        return total

    def reset(self):
        with self._lock:
            for table in self._tables:
                table.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer, name, fn):
        state = self._state
        integrator = (layer, name) in _INTEGRATORS
        calls_key = "%s.%s.calls" % (layer, name)
        time_key = "%s.%s.time_s" % (layer, name)
        self_key = layer + ".self_s"
        layer_calls_key = layer + ".calls"

        def wrapper(*args, **kwargs):
            stack, counts = state()
            if stack and stack[-1][1] is fn:
                # Direct recursion (diff, evaluate) stays inside one span.
                return fn(*args, **kwargs)
            if not stack or stack[-1][0] != layer:
                counts[layer_calls_key] = counts.get(layer_calls_key, 0) + 1
            counts[calls_key] = counts.get(calls_key, 0) + 1
            if integrator:
                times = kwargs["times"] if "times" in kwargs else args[3]
                signs = {t > 0 for t in times if t != 0}
                counts["hamiltonian.integrations"] = (
                    counts.get("hamiltonian.integrations", 0) + len(signs))
                counts["hamiltonian.targets"] = (
                    counts.get("hamiltonian.targets", 0)
                    + sum(1 for t in times if t != 0))
            frame = [layer, fn, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                counts[self_key] = (counts.get(self_key, 0.0)
                                    + duration - frame[2])
                counts[time_key] = counts.get(time_key, 0.0) + duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _charged(self, suffix, fn, also=None):
        """Wrap fn so each call adds 1 to `<innermost layer><suffix>`."""
        state = self._state

        def counted(*args, **kwargs):
            stack, counts = state()
            key = (stack[-1][0] if stack else _OUTSIDE) + suffix
            counts[key] = counts.get(key, 0) + 1
            if also is not None:
                counts[also] = counts.get(also, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _compile_wrapper(self, compile_exprs):
        span = self._span("expr", "compile_exprs", compile_exprs)

        def compiled(*args, **kwargs):
            return self._charged(".evals", span(*args, **kwargs),
                                 also="expr.evals")

        return compiled

    def _build_patches(self):
        patches = []
        for layer in LAYERS:
            module = importlib.import_module("geoflow." + layer)
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if (name.startswith("_") or fn.__module__ != module.__name__
                        or (layer, name) in _NOT_WRAPPED):
                    continue
                if (layer, name) == ("expr", "compile_exprs"):
                    wrapped = self._compile_wrapper(fn)
                else:
                    wrapped = self._span(layer, name, fn)
                patches.append((module, name, fn, wrapped))
        patches.append((np.linalg, "svd", np.linalg.svd,
                        self._charged(".svd_calls", np.linalg.svd)))
        return patches

    def install(self):
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
