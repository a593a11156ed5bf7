"""Span tracing of shmsim's layers from outside the program.

``Tracer.install`` rebinds the public functions listed in ``LAYERS`` on their
modules with wrappers that record one span per call: name, operation id,
parent span, start and end, plus whether the call raised a counted error,
whether its inputs repeated earlier inputs of the same operation, and the
Riccati steps of ``run_filter``. Callers inside shmsim look these functions up
as module attributes, so every call goes through the wrapper. Spans stay in
memory until ``write`` and ``stats`` turn them into per-layer figures.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import time

import numpy as np

# module -> wrapped public functions; "scenario" holds the root spans too
LAYERS = {
    "structure": ("simulate_response", "eigen_modes"),
    "sensing": ("apply_faults",),
    "detection": ("train_correlation_model", "detection_round", "mutual_information_binned"),
    "kalman": ("reconstruct_signals", "missing_sensor_scan", "run_filter"),
    "modal": ("extract_local_modes", "assemble_global", "diagnose"),
    "network": ("build_neighborhoods", "shortest_path_route", "charge_round"),
    "scenario": ("validate_config", "run_scenario", "compare_schemes"),
}
# Spans that orchestrate the others; time outside their children is the
# scenario layer's own (orchestration, noise generation, CSV output).
ROOTS = ("scenario.run_scenario", "scenario.compare_schemes")
# Errors counted as ``.failed``. scenario.py catches and drops them from
# reconstruct_signals and assemble_global; it does not catch them around
# missing_sensor_scan, so there the count is of errors raised, each of which
# also fails its operation.
COUNTED_ERRORS = {
    "kalman.reconstruct_signals": "KalmanError",
    "kalman.missing_sensor_scan": "KalmanError",
    "modal.assemble_global": "ModalError",
}
# Functions whose repeated inputs within one operation are counted (``.dup_frac``).
DEDUP = ("structure.simulate_response", "detection.mutual_information_binned", "modal.extract_local_modes")


def content_digest(obj):
    """Digest of a call's arguments by content: array bytes, dataclass fields, values."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).view(np.uint8))
    elif isinstance(obj, np.random.SeedSequence):
        h.update(repr(("ss", obj.entropy, obj.spawn_key, obj.pool_size)).encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(content_digest(getattr(obj, f.name)))
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            h.update(content_digest(k) + content_digest(obj[k]))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            h.update(content_digest(item))
    else:
        h.update(repr(obj).encode())
    return h.digest()


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        # span: [name, op, parent, start, end, failed, dup, steps, hash_s]
        # hash_s is time spent digesting the arguments of its child calls,
        # which is tracer work and is kept out of the span's self time
        self.spans = []
        self.op = None
        self._stack = []
        self._seen = set()
        self._saved = []
        self.missing = []

    def begin_operation(self, op_id):
        self.op = op_id
        self._seen.clear()

    def end_operation(self):
        self.op = None
        self._seen.clear()

    def _wrap(self, name, fn, counted):
        spans, stack = self.spans, self._stack
        dedup = name in DEDUP
        steps_of = (lambda args, kwargs: int(args[1].shape[1])) if name == "kalman.run_filter" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            dup = False
            if dedup:
                t0 = time.perf_counter()
                key = content_digest((args, kwargs))
                dup = key in self._seen
                self._seen.add(key)
                if parent >= 0:
                    spans[parent][8] += time.perf_counter() - t0
            steps = steps_of(args, kwargs) if steps_of else 0
            span = [name, self.op, parent, 0.0, 0.0, False, dup, steps, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = counted is not None and isinstance(exc, counted)
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Rebind every function in LAYERS on its shmsim module.

        A function the module no longer has is skipped and listed in
        ``missing``; its metrics read zero and the coverage drops.
        """
        self.missing = []
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"shmsim.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                counted = getattr(module, COUNTED_ERRORS[name], None) if name in COUNTED_ERRORS else None
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(name, original, counted))

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def write(self, path):
        """Write the spans as JSON lines."""
        keys = ("name", "op", "parent", "start", "end", "failed", "dup", "steps", "hash_s")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")

    def stats(self, n_ops, traced_wall_s, untraced_wall_s):
        """Per-layer metrics per operation, plus trace coverage and overhead.

        A span's self time is its duration minus its child spans and minus the
        hashing of its children's arguments. Self times partition the program
        time inside spans, so coverage is the non-root share of them.
        """
        child_time = [span[8] for span in self.spans]
        for _, _, parent, start, end, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_fn = {
            f"{m}.{f}": {"calls": 0, "self_s": 0.0, "failed": 0, "dup": 0, "steps": 0}
            for m, fns in LAYERS.items()
            for f in fns
        }
        for i, (name, _, _, start, end, failed, dup, steps, _) in enumerate(self.spans):
            acc = per_fn[name]
            acc["calls"] += 1
            acc["self_s"] += (end - start) - child_time[i]
            acc["failed"] += failed
            acc["dup"] += dup
            acc["steps"] += steps
        metrics = {}
        for name, acc in per_fn.items():
            metrics[f"{name}.calls"] = (acc["calls"] / n_ops, "count")
            metrics[f"{name}.self_s"] = (acc["self_s"] / n_ops, "s")
            if name in COUNTED_ERRORS:
                metrics[f"{name}.failed"] = (acc["failed"] / n_ops, "count")
            if name in DEDUP:
                metrics[f"{name}.dup_frac"] = (acc["dup"] / acc["calls"] if acc["calls"] else 0.0, "ratio")
        metrics["kalman.run_filter.steps"] = (per_fn["kalman.run_filter"]["steps"] / n_ops, "count")
        # argument hashing is tracer work, not program time
        hash_s = sum(span[8] for span in self.spans)
        program_s = traced_wall_s - hash_s
        total_self = sum(acc["self_s"] for acc in per_fn.values())
        root_self = sum(per_fn[name]["self_s"] for name in ROOTS)
        metrics["trace.coverage"] = ((total_self - root_self) / program_s, "ratio")
        metrics["trace.accounted_frac"] = (total_self / program_s, "ratio")
        metrics["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
        return metrics
