"""Benchmark workloads: config factories, operation sequences and one operation.

The config shapes copy the reference scenarios of the test suite (the 10-story
mixed-fault chain, the 10-story missing-node chain and the 100-sensor field
line) so the benchmark does not import from ``tests/``. Scenario seeds are
drawn from a fixed pool whose outputs on the baseline commit are recorded in
``reference.json``; the workload seed only chooses which pool seeds run and in
what order, so every operation can be checked against a recorded reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass

import numpy as np

# Scenario seeds with recorded reference outputs (see make_reference.py).
POOL = tuple(range(1, 13))
CYCLE = 3  # distinct scenario seeds in one run


def standard_config(seed, mode="dependshm"):
    """10-story chain: stuck sensor 5, debonded sensor 8, damage at story 4 from round 15."""
    return {
        "seed": seed,
        "mode": mode,
        "monitoring": {"training_rounds": 12, "rounds": 8, "n_averages": 15, "segment_length": 256},
        "faults": [
            {"kind": "stuck_constant", "sensor_id": 5, "onset_round": 12},
            {"kind": "debonding_gain", "sensor_id": 8, "onset_round": 12},
        ],
        "damage": {"location": 4, "severity": 0.2, "onset_round": 15},
    }


def missing_node_config(seed, node=5):
    """10-story chain where one sensor stops delivering windows."""
    return {
        "seed": seed,
        "mode": "dependshm",
        "monitoring": {"training_rounds": 12, "rounds": 3, "n_averages": 15, "segment_length": 256},
        "faults": [{"kind": "missing", "sensor_id": node, "onset_round": 12}],
        "damage": None,
    }


def field_config(seed, fault_rate, mode="dependshm"):
    """100-sensor line over the 450 x 50 field with mixed fault kinds."""
    rng = np.random.default_rng(10_000 + seed)
    n_fault = int(round(fault_rate * 100))
    nodes = sorted(int(c) for c in rng.choice(100, size=n_fault, replace=False))
    kinds = ["offset_bias", "debonding_gain", "stuck_constant"]
    return {
        "seed": seed,
        "mode": mode,
        "structure": {"n_dof": 100, "mass": 1000.0, "stiffness": 1.769e6, "dt": 0.02},
        "monitoring": {"training_rounds": 6, "rounds": 4, "n_averages": 10, "segment_length": 100},
        "detection": {"R": 5},
        "reconstruction": {"model_scope": "neighborhood"},
        "faults": [
            {"kind": kinds[i % 3], "sensor_id": ch, "onset_round": 7}
            for i, ch in enumerate(nodes)
        ],
        "damage": None,
    }


def _rounds(config):
    mon = config["monitoring"]
    return mon["training_rounds"] + mon["rounds"]


@dataclass(frozen=True)
class Workload:
    """A named operation; why each workload exists is recorded in BENCHMARK.json."""

    name: str
    compare: bool  # True: one compare_schemes call over all MODES

    def runs(self, seed):
        """[(run name, config)] making up one operation on scenario seed ``seed``."""
        if self.name == "tenstory":
            return [("mixed", standard_config(seed)), ("missing", missing_node_config(seed))]
        if self.name == "field100":
            return [("field", field_config(seed, 0.2))]
        return [("mixed", standard_config(seed))]

    def rounds(self, seed, n_modes):
        """Monitoring rounds (training plus test) one operation completes."""
        per_mode = n_modes if self.compare else 1
        return per_mode * sum(_rounds(cfg) for _, cfg in self.runs(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tenstory", compare=False),
        Workload("field100", compare=False),
        Workload("compare5", compare=True),
    )
}


def operation_seeds(workload_seed, count):
    """Scenario seeds of a run's first ``count`` operations.

    The first CYCLE seeds of a shuffle of the pool drawn from the workload
    seed, cycled. Operation 3 repeats operation 0 and every later operation
    repeats an earlier one, so each repeat is a determinism check, and the
    seeds a run measures do not depend on how many operations fit in its time.
    """
    order = list(POOL)
    random.Random(workload_seed).shuffle(order)
    return [order[i % CYCLE] for i in range(count)]


def tree_digest(root):
    """SHA-256 over every file under ``root`` (relative path and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _run_outputs(run_dir):
    with open(os.path.join(run_dir, "summary.json")) as fh:
        s = json.load(fh)
    qualities = []
    with open(os.path.join(run_dir, "reconstructions.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].rstrip("\n").split(",")
    col = header.index("quality")
    for ln in lines[1:]:
        cell = ln.rstrip("\n").split(",")[col]
        if cell:
            qualities.append(float(cell))
    return {
        "detection_accuracy": s["detection_accuracy"],
        "event_detection_ability": s["event_detection_ability"],
        "n_reconstructions": s["n_reconstructions"],
        "energy_total_j": s["energy_total_j"],
        "quality_mean": sum(qualities) / len(qualities) if qualities else None,
    }, qualities


def run_operation(scenario, workload, seed, out_dir):
    """Run one operation through the public API; returns its checked outputs.

    Result: {"seconds", "digest", "runs": {run key: summary values}, "qualities"}.
    ``seconds`` is the wall time of the API calls alone. Run keys are
    ``<run name>`` or, for compare workloads, ``<run name>/<mode>``. The
    output tree is removed once digested.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    runs, qualities, seconds = {}, [], 0.0
    for run_name, config in workload.runs(seed):
        run_dir = os.path.join(out_dir, run_name)
        t0 = time.perf_counter()
        if workload.compare:
            scenario.compare_schemes(config, scenario.MODES, run_dir)
            subdirs = [(f"{run_name}/{m}", os.path.join(run_dir, m)) for m in scenario.MODES]
        else:
            scenario.run_scenario(config, run_dir)
            subdirs = [(run_name, run_dir)]
        seconds += time.perf_counter() - t0
        for key, path in subdirs:
            runs[key], q = _run_outputs(path)
            qualities.extend(q)
    digest = tree_digest(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"seconds": seconds, "digest": digest, "runs": runs, "qualities": qualities}
