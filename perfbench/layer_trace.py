"""Span tracing of the package's layers, installed from outside the package.

``installed`` wraps every public function of ``qwalk2d.cli``, ``states``,
``dynamics``, ``spectral`` and ``revival`` (the names in each module's
``__all__``) plus the ``PositionState`` methods ``amplitude`` and
``distribution``, and rebinds each name in every qwalk2d module that
imported it, including dicts held at module level.  A span records its
name, start, end, parent span and the operation it belongs to.  Spans stay
in memory until the run writes them out.  Self time is a span's duration
minus the time its child spans cover; calls in one thread nest, so the
children never overlap.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "states", "dynamics", "spectral", "revival")
STATE_METHODS = ("amplitude", "distribution")

# bytes one site occupies in the sparse state: an int64 key and 4 complex128
SITE_BYTES = 8 + 4 * 16

# Per-layer metrics of the traced run, each with its unit and direction.
# Times and counts are per traced operation.
PER_LAYER = [
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.main.calls", "calls/op", "lower"),
    ("states.save_state.self_s", "s/op", "lower"),
    ("states.save_state.rows", "rows/op", "lower"),
    ("states.save_state.bytes", "B/op", "lower"),
    ("states.distribution.self_s", "s/op", "lower"),
    ("states.distribution.calls", "calls/op", "lower"),
    ("states.load_state.self_s", "s/op", "lower"),
    ("states.fidelity.self_s", "s/op", "lower"),
    ("states.fidelity.calls", "calls/op", "lower"),
    ("states.amplitude.calls", "calls/op", "lower"),
    ("dynamics.apply_shift.self_s", "s/op", "lower"),
    ("dynamics.apply_coin.self_s", "s/op", "lower"),
    ("dynamics.step.calls", "calls/op", "lower"),
    ("dynamics.site_steps", "sites/op", "lower"),
    ("dynamics.apply_shift.computed_bytes", "B/op", "lower"),
    ("dynamics.useful_step_ratio", "ratio", "higher"),
    ("dynamics.norm_drift", "abs", "lower"),
    ("dynamics.evolve_momentum.self_s", "s/op", "lower"),
    ("dynamics.evolve_momentum.calls", "calls/op", "lower"),
    ("dynamics.evolve_momentum.max_abs_error", "abs", "lower"),
    ("spectral.detect_constant_eigenvalues.self_s", "s/op", "lower"),
    ("spectral.char_poly_profile.self_s", "s/op", "lower"),
    ("spectral.grid_cells", "cells/op", "lower"),
    ("spectral.constants_found", "count/op", "higher"),
    ("spectral.residual_margin", "ratio", "higher"),
    ("revival.find_local_stationary_states.self_s", "s/op", "lower"),
    ("revival.find_local_stationary_states.calls", "calls/op", "lower"),
    ("revival.svd_columns", "cols/op", "lower"),
    ("revival.states_found", "states/op", "higher"),
    ("revival.detect_period.self_s", "s/op", "lower"),
    ("revival.return_probability_series.self_s", "s/op", "lower"),
    *[(f"{layer}.self_s", "s/op", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.spans", "spans/op", "lower"),
]


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counters = defaultdict(float)
        self.op = 0  # the operation that new spans belong to
        self._stack = []

    def wrap(self, name, fn, hook=None):
        """``fn`` recording one span per call; ``hook`` counts work after it."""
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Total self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# -------------------------------------------------------------- counters


def _save_state(c, a, result):
    c["states.save_state.rows"] += a["state"].n_sites
    c["states.save_state.bytes"] += os.path.getsize(a["path"])


def _norm_drift(c, state):
    c["dynamics.norm_drift"] = max(c["dynamics.norm_drift"], abs(state.norm() - 1.0))


def _step(c, a, result):
    c["dynamics.site_steps"] += a["state"].n_sites
    _norm_drift(c, result)


def _apply_shift(c, a, result):
    # computed, not measured: the input and output key and amplitude arrays
    c["dynamics.apply_shift.computed_bytes"] += (a["state"].n_sites + result.n_sites) * SITE_BYTES


def _evolve_momentum(c, a, result):
    _norm_drift(c, result)


def _detect(c, a, report):
    c["spectral.grid_cells"] += a["grid_size"] ** 2
    c["spectral.constants_found"] += len(report.constants)
    for const in report.constants:
        # a residual below rounding level counts as machine epsilon
        margin = a["tolerance"] / max(const.max_residual, np.finfo(float).eps)
        c["spectral.residual_margin"] = min(c.get("spectral.residual_margin", margin), margin)


def _char_poly(c, a, profile):
    c["spectral.grid_cells"] += a["grid_size"] ** 2


def _stationary(c, a, found):
    c["revival.svd_columns"] += 4 * a["box_size"] ** 2
    c["revival.states_found"] += len(found.states)


HOOKS = {
    "states.save_state": _save_state,
    "dynamics.step": _step,
    "dynamics.apply_shift": _apply_shift,
    "dynamics.evolve_momentum": _evolve_momentum,
    "spectral.detect_constant_eigenvalues": _detect,
    "spectral.char_poly_profile": _char_poly,
    "revival.find_local_stationary_states": _stationary,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every public function of the layers while the block runs."""
    package = importlib.import_module("qwalk2d")
    layers = {layer: importlib.import_module(f"qwalk2d.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> wrapper
    for layer, module in layers.items():
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                key = f"{layer}.{name}"
                wrappers[id(fn)] = tracer.wrap(key, fn, HOOKS.get(key))

    undo = []
    for module in (package, *layers.values()):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                undo.append((setattr, module, attr, value))
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        undo.append((dict.__setitem__, value, key, item))
                        value[key] = wrappers[id(item)]
    state_cls = layers["states"].PositionState
    for name in STATE_METHODS:
        method = state_cls.__dict__[name]
        undo.append((setattr, state_cls, name, method))
        setattr(state_cls, name, tracer.wrap(f"states.{name}", method))
    try:
        yield tracer
    finally:
        for restore, target, key, original in reversed(undo):
            restore(target, key, original)


def layer_metrics(tracer: Tracer, n_ops: int, requested_site_steps: float,
                  observed: dict, overhead_s: float) -> dict:
    """Every ``PER_LAYER`` metric from one traced phase of ``n_ops`` operations.

    A function the workload never calls reports 0.  ``useful_step_ratio``
    is requested over executed site-steps, and 1 when nothing was stepped.
    """
    self_s, calls = tracer.self_times()
    c = tracer.counters
    values = {}
    for name, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in LAYERS:
            values[name] = sum(t for n, t in self_s.items() if n.startswith(head + ".")) / n_ops
        elif tail == "self_s":
            values[name] = self_s.get(head, 0.0) / n_ops
        elif tail == "calls":
            values[name] = calls.get(head, 0) / n_ops
        elif name in ("dynamics.norm_drift", "spectral.residual_margin"):
            values[name] = c.get(name, 0.0)
        else:
            values[name] = c.get(name, 0.0) / n_ops
    executed = c.get("dynamics.site_steps", 0.0)
    values["dynamics.useful_step_ratio"] = requested_site_steps / executed if executed else 1.0
    values["dynamics.evolve_momentum.max_abs_error"] = observed.get("max_abs_error", 0.0)
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(tracer.spans) / n_ops
    return values
