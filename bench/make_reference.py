"""Record the reference outputs that the benchmark checks every operation against.

Runs each workload's operation once per pool seed through plain
``run_scenario`` / ``compare_schemes`` calls and writes ``reference.json``
next to this file. Run it from the repository root on the commit whose outputs
are the reference:

    python3 bench/make_reference.py
"""

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from shmsim import scenario  # noqa: E402

from workloads import POOL, WORKLOADS, run_operation  # noqa: E402

# Largest accepted difference from the reference, per checked summary value.
TOLERANCES = {
    "detection_accuracy": 0.02,
    "event_detection_ability": 0.05,
    "n_reconstructions": 0,
    "energy_total_j": 1e-9,  # relative
    "quality_mean": 0.01,  # mean reconstruction quality of the run
}


def main():
    warnings.simplefilter("ignore")
    out = os.path.join(ROOT, ".bench_run", "reference")
    ref = {"tolerances": TOLERANCES, "workloads": {}}
    for name, workload in WORKLOADS.items():
        per_seed = {}
        for seed in POOL:
            res = run_operation(scenario, workload, seed, out)
            per_seed[str(seed)] = {"digest": res["digest"], "runs": res["runs"]}
            print(f"{name} seed {seed}: {res['seconds']:.2f} s", file=sys.stderr)
        ref["workloads"][name] = per_seed
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
