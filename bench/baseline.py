"""Measure the benchmark's spread over several seeds and record it as a baseline.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload, runs ``run.py --trace 0`` once per seed and ``run.py
--trace 1`` twice on the first seed. Writes, per end-to-end metric, the median,
quartiles and spread (interquartile range over the median) next to the bound
from BENCHMARK.json; each layer's share of self time; and whether the count
metrics repeated exactly between the two traced runs. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_SUFFIXES = (".calls", ".steps", ".failed", ".dup_frac")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    env = dict(kv.split("=", 1) for kv in lines[0].split()[4:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stderr}")
    return env, result


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in args.seeds:
            env, result = run(workload, seed, bench["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "n": len(vals)}
            flag = "" if spread < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"{workload:9s} {name:24s} median {median:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}{flag}")
        _, traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
        _, again = run(workload, args.seeds[0], bench["run_seconds"], 1)
        counts = [k for k in traced["metrics"] if k.endswith(COUNT_SUFFIXES)]
        repeat = all(traced["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts)
        self_s = {k[: -len(".self_s")]: v["value"] for k, v in traced["metrics"].items() if k.endswith(".self_s")}
        total = sum(self_s.values())
        print(f"{workload:9s} traced counts repeat exactly: {repeat}")
        report["env"] = {k: v for k, v in env.items() if k != "workload_seed"}
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "self_time_share": {k: v / total for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])},
            "trace": {k: traced["metrics"][k]["value"] for k in traced["metrics"] if k.startswith("trace.")},
            "counts_repeat_exactly": repeat,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
