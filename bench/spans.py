"""Span recorder for the traced benchmark run, installed from outside the package.

Each wrapped public function records one span: name, start, end, parent span
and trial id.  Spans stay in memory until the run ends and are then written
out in one file.  A layer's self time is its span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap, and the self times of all spans of a trial add up to the
trial's root span.

The package modules import each other's functions by name (``gaussian``
holds its own reference to ``states.apply_pauli_rotation``; ``harness`` and
``doped`` both call ``prepare``), so every wrapper is patched into each
loaded ``fermidope`` namespace that holds the original object.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("pauli", "states", "ortho", "gaussian", "doped", "metrology", "learner", "harness")

# span name -> (module, attribute path) of the wrapped public function
SPANS = {
    "pauli.majorana": ("pauli", "majorana"),
    "pauli.to_matrix": ("pauli", "PauliString.to_matrix"),
    "states.apply_pauli": ("states", "apply_pauli"),
    "states.apply_pauli_rotation": ("states", "apply_pauli_rotation"),
    "ortho.normal_form": ("ortho", "normal_form"),
    "ortho.normal_eigenvalues": ("ortho", "normal_eigenvalues"),
    "ortho.compression_rotation": ("ortho", "compression_rotation"),
    "gaussian.apply": ("gaussian", "GaussianUnitary.apply"),
    # the cached compile: ortho.givens_decompose reached through the property
    "gaussian.compile": ("gaussian", "GaussianUnitary.program"),
    "doped.prepare": ("doped", "prepare"),
    "doped.compress_state": ("doped", "compress_state"),
    "metrology.correlation_exact": ("metrology", "correlation_exact"),
    "metrology.correlation_sampled": ("metrology", "correlation_sampled"),
    "learner.learn": ("learner", "learn"),
    "learner.verify": ("learner", "verify"),
    "learner.tomography_t_qubits": ("learner", "tomography_t_qubits"),
    "harness.run": ("harness", "run"),
    "harness.to_json": ("harness", "ResultDocument.to_json"),
}
ROOT_SPAN = "bench.trial"

# counter name -> (module, attribute path, increment computed from the call's arguments)
COUNTERS = {
    # every StateVector is a validated, normalised copy
    "states.StateVector.constructed": ("states", "StateVector.__post_init__", lambda args: 1),
    # psi read, P psi written and read, result written: 3 vectors of 2^n complex128
    "states.rotation.bytes_computed": (
        "states", "apply_pauli_rotation", lambda args: 3 * 16 * 2 ** args[0].n
    ),
}

# (metric, unit, better); every value is per traced trial
PER_LAYER = (
    ("states.apply_pauli_rotation.calls", "count", "lower"),
    ("states.apply_pauli_rotation.self_s", "s", "lower"),
    ("states.apply_pauli.calls", "count", "lower"),
    ("states.apply_pauli.self_s", "s", "lower"),
    ("states.StateVector.constructed", "count", "lower"),
    ("states.rotation.bytes_computed", "B", "lower"),
    ("gaussian.apply.calls", "count", "lower"),
    ("gaussian.apply.self_s", "s", "lower"),
    ("gaussian.compile.calls", "count", "lower"),
    ("gaussian.compile.self_s", "s", "lower"),
    ("gaussian.compiles_per_apply", "ratio", "lower"),
    ("doped.prepare.calls", "count", "lower"),
    ("doped.prepare.self_s", "s", "lower"),
    ("doped.compress_state.self_s", "s", "lower"),
    ("metrology.correlation_sampled.self_s", "s", "lower"),
    ("metrology.correlation_exact.self_s", "s", "lower"),
    ("ortho.normal_form.self_s", "s", "lower"),
    ("ortho.normal_eigenvalues.self_s", "s", "lower"),
    ("ortho.compression_rotation.self_s", "s", "lower"),
    ("learner.learn.self_s", "s", "lower"),
    ("learner.verify.self_s", "s", "lower"),
    ("learner.tomography_t_qubits.self_s", "s", "lower"),
    ("learner.postselect_rate", "ratio", "higher"),
    ("pauli.to_matrix.calls", "count", "lower"),
    ("pauli.to_matrix.self_s", "s", "lower"),
    ("pauli.majorana.calls", "count", "lower"),
    ("harness.run.self_s", "s", "lower"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.trial_s", "s", "lower"),
    ("trace.untraced_trials_per_s", "1/s", "higher"),
    ("trace.traced_trials_per_s", "1/s", "higher"),
    ("trace.overhead_trials_per_s", "1/s", "lower"),
)


class SpanRecorder:
    """In-memory spans in parallel lists, one entry per call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.trial: list = []
        self.counts: Counter = Counter()
        self.trial_id = -1
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        names, starts, ends, parents, trials, stack = (
            self.name, self.start, self.end, self.parent, self.trial, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(self.trial_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def wrap_counter(self, name: str, fn, increment):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += increment(args)
            return fn(*args, **kwargs)

        return counted

    def self_times(self):
        """(per-span name ids, durations, self times) as numpy arrays."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - children

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            trial=np.asarray(self.trial, dtype=np.int32),
        )


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every span and counter wrapper in; restore the originals on exit."""
    import fermidope  # noqa: F401 - the package must be loaded before patching

    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "fermidope" or name.startswith("fermidope."))]
    undo = []

    def patch(module_name, path, make):
        owner, attr = _resolve(sys.modules[f"fermidope.{module_name}"], path)
        original = owner.__dict__[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(make(original.func))
            replacement.__set_name__(owner, attr)
        else:
            replacement = make(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(ns, key) for ns in namespaces
                       for key, value in vars(ns).items() if value is original]
        for ns, key in targets:
            setattr(ns, key, replacement)
            undo.append((ns, key, original))

    try:
        for name, (module_name, path) in SPANS.items():
            patch(module_name, path, functools.partial(recorder.wrap, name))
        for name, (module_name, path, increment) in COUNTERS.items():
            patch(module_name, path,
                  lambda fn, name=name, inc=increment: recorder.wrap_counter(name, fn, inc))
        yield recorder
    finally:
        for ns, key, original in reversed(undo):
            setattr(ns, key, original)


def layer_metrics(recorder: SpanRecorder, trials: int, records: list, scale: float = 1.0) -> dict:
    """Per-trial layer metrics of ``trials`` traced requests and their records.

    Times are multiplied by ``scale``, which converts wall-clock seconds of
    these requests to seconds at the reference machine speed.
    """
    name, dur, self_s = recorder.self_times()
    size = len(recorder.names)
    calls = dict(zip(recorder.names, np.bincount(name, minlength=size).tolist()))
    own = dict(zip(recorder.names, (scale * np.bincount(name, weights=self_s, minlength=size)).tolist()))
    trial_total = scale * float(dur[name == recorder.names.index(ROOT_SPAN)].sum())

    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = calls[span] / trials
        out[f"{span}.self_s"] = own[span] / trials
    for counter in COUNTERS:
        out[counter] = recorder.counts[counter] / trials
    applies = calls["gaussian.apply"]
    out["gaussian.compiles_per_apply"] = calls["gaussian.compile"] / applies if applies else 0.0
    rates = [r["postselect_rate"] if "postselect_rate" in r else 1.0 - r["tail_weight"]
             for r in records]
    out["learner.postselect_rate"] = sum(rates) / len(rates) if rates else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for span, v in own.items() if span.startswith(layer + ".")
        ) / trials
    out["trace.trial_s"] = trial_total / trials
    out["trace.self_sum_s"] = sum(own.values()) / trials
    return out
