"""Scenario benchmark for shmsim.

One closed-loop client in one process runs operations back to back through the
public entry points ``shmsim.scenario.run_scenario`` and ``compare_schemes``
(see workloads.py), checks every operation's outputs, and prints each metric
with its unit and sample count. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --workload tenstory --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed number of operations twice, once plain and once with the layer
wrappers of spans.py installed, and reports per-layer metrics. Run it from the
repository root; it reads the sources under ``src/`` and writes only under
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

from spans import Tracer
from workloads import WORKLOADS, operation_seeds, run_operation, tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")

SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s
MIN_OPS = 4  # run even when --seconds is spent; operation 3 is the first determinism repeat
TRACED_OPS = 2  # operations in a traced run, each also run untraced

# Timed in a fresh interpreter: importing shmsim and validating the configs.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from shmsim import scenario
for config in json.loads(sys.argv[2]):
    scenario.validate_config(config)
print(time.perf_counter() - t0)
"""


def blas_threads(package):
    """Threads of the OpenBLAS bundled with ``package`` (numpy or scipy), or None."""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload_seed):
    import numpy as np
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": tree_digest(os.path.join(SRC, "shmsim")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_numpy": blas_threads(np),
        "blas_threads_scipy": blas_threads(scipy),
        "workload_seed": workload_seed,
    }


def setup_seconds(configs):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, json.dumps(configs)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def check(tolerances, ref, res, first_digest):
    """Problems with one operation's outputs; empty when they are correct."""
    problems = []
    if first_digest != res["digest"]:
        problems.append("artifacts differ from an earlier operation on the same seed")
    if ref is None:
        return problems + ["no reference outputs for this seed"]
    for key, expected in ref["runs"].items():
        got = res["runs"].get(key)
        if got is None:
            problems.append(f"{key}: run missing")
            continue
        for name, limit in tolerances.items():
            a, b = got[name], expected[name]
            if a is None or b is None:
                ok = a is b
            else:
                scale = (abs(b) or 1.0) if name == "energy_total_j" else 1.0
                ok = abs(a - b) / scale <= limit
            if not ok:
                problems.append(f"{key}.{name} = {a!r}, reference {b!r}")
    return problems


class Runner:
    """Runs and checks operations of one workload; tallies attempts and failures."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.digests = {}
        self.ops = []  # successful operations' results
        self.attempted = 0
        self.failed = 0
        self.identical = 0  # operations whose artifacts match the reference bytes

    def run(self, scenario, seed, label):
        self.attempted += 1
        ref = self.reference["workloads"][self.workload.name].get(str(seed))
        try:
            res = run_operation(scenario, self.workload, seed, os.path.join(OUT, f"op-{os.getpid()}"))
        except Exception:
            self.failed += 1
            print(f"# op {label} seed {seed} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        first_digest = self.digests.setdefault(seed, res["digest"])
        problems = check(self.reference["tolerances"], ref, res, first_digest)
        if problems:
            self.failed += 1
            print(f"# op {label} seed {seed} failed checks: {'; '.join(problems)}", file=sys.stderr)
            return None
        res["seed"] = seed
        self.identical += ref["digest"] == res["digest"]
        self.ops.append(res)
        return res


def end_to_end(runner, scenario, workload_seed, seconds):
    """Time operations until ``seconds`` have passed; returns the metrics."""
    seeds = operation_seeds(workload_seed, 64)
    configs = [cfg for _, cfg in runner.workload.runs(seeds[0])]
    if runner.workload.compare:
        configs = [{**cfg, "mode": m} for cfg in configs for m in scenario.MODES]
    setup = setup_seconds(configs)

    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        if i >= MIN_OPS and time.perf_counter() - t0 >= seconds:
            break
        runner.run(scenario, seed, i)
    by_seed = {}
    for op in runner.ops:
        by_seed.setdefault(op["seed"], []).append(op)
    if not by_seed:
        return {}
    # Every run makes at least one operation on each of its three seeds, and
    # each seed weighs the same however many operations fit in the time: the
    # timings are per-seed medians and the output metrics each seed's first
    # operation, so they are the same for the same seed on any machine.
    n_modes = len(scenario.MODES)
    op_s = {seed: statistics.median(op["seconds"] for op in ops) for seed, ops in by_seed.items()}
    rounds = sum(runner.workload.rounds(seed, n_modes) for seed in by_seed)
    checked = [ops[0] for ops in by_seed.values()]

    def mean_over_runs(name):
        return statistics.fmean(
            statistics.fmean(run[name] for run in op["runs"].values()) for op in checked
        )

    n = len(runner.ops)
    return {
        "run_s_p50": (statistics.fmean(op_s.values()), "s", n),
        "rounds_per_s": (rounds / sum(op_s.values()), "rounds/s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "detection_accuracy": (mean_over_runs("detection_accuracy"), "ratio", len(checked)),
        "event_detection_ability": (mean_over_runs("event_detection_ability"), "ratio", len(checked)),
        "recon_quality_mean": (
            statistics.fmean(statistics.fmean(op["qualities"]) for op in checked), "ratio", len(checked)
        ),
    }


def per_layer(runner, scenario, workload_seed, spans_path):
    """Run TRACED_OPS operations plain and traced; returns the per-layer metrics."""
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for i, seed in enumerate(operation_seeds(workload_seed, TRACED_OPS)):
        # alternate which copy runs first so warm-up does not favour one side
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
                tracer.begin_operation(i)
            try:
                res = runner.run(scenario, seed, f"{i}{'t' if traced else ''}")
            finally:
                if traced:
                    tracer.end_operation()
                    tracer.uninstall()
            if res is None:
                continue
            if traced:
                traced_s += res["seconds"]
            else:
                plain_s += res["seconds"]
    tracer.write(spans_path)
    if tracer.missing:
        print(f"# not traced, missing from shmsim: {' '.join(tracer.missing)}", file=sys.stderr)
    n = len(runner.ops) // 2
    if not (traced_s and plain_s):
        return {}
    return {k: (v, unit, n) for k, (v, unit) in tracer.stats(TRACED_OPS, traced_s, plain_s).items()}


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "shmsim", "scenario.py")):
        print(f"bench: no shmsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from shmsim import detection, network, scenario

    # the categories the test suite silences; printing them would be timed
    for category in (
        detection.DegenerateSignalWarning,
        detection.UnreliableEstimateWarning,
        network.IsolatedNodeWarning,
    ):
        warnings.filterwarnings("ignore", category=category)

    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    runner = Runner(workload, reference)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics = per_layer(runner, scenario, args.seed, stem + "-spans.jsonl")
    else:
        metrics = end_to_end(runner, scenario, args.seed, args.seconds)

    correct = runner.failed == 0 and bool(metrics)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit} n={n}")
    failed_frac = runner.failed / max(1, runner.attempted)
    print(f"{args.workload} failed_frac {failed_frac:.6g} ratio n={runner.attempted}")
    print(f"{args.workload} artifacts_identical_to_reference {runner.identical} of {len(runner.ops)}")
    print(f"{args.workload} correct {str(correct).lower()}")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "env": env,
                "workload": args.workload,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "operations": [{"seed": op["seed"], "seconds": op["seconds"], "digest": op["digest"]} for op in runner.ops],
                "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
            },
            fh, indent=1,
        )
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so setup and peak RSS stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tenstory", "field100", "compare5", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
