"""Write the fixed set of run trees that byte-identity checks compare.

    python3 tools/artifact_trees.py SRC_TREE OUT [--seeds A-B]

For every seed s in A..B (default 1-6) it runs, with the code and the config
factories of SRC_TREE (``SRC_TREE/src`` and ``SRC_TREE/tests/conftest.py``):

- ``OUT/standard/seed_<s>``: ``run_scenario(standard_config(s))``;
- ``OUT/missing_node/seed_<s>``: ``run_scenario(missing_node_config(s))``;
- ``OUT/field/seed_<s>``: ``run_scenario(field_config(s, 0.2))``;
- ``OUT/compare/seed_<s>``: ``compare_schemes(standard_config(s), MODES)``.

Artifacts depend on the BLAS thread count, so it prints the thread settings
of the environment first; compare only trees written under the same setting,
for example with ``tools/artifact_drift.py OUT_A OUT_B``. Warnings the runs
raise are not printed. Exit status 0 when every run completed, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def thread_setting() -> str:
    """The BLAS thread variables as set in the environment, ``unset`` for the others."""
    return " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)


def write_trees(src_tree: str, out: str, seeds, write=print):
    """Run every family for every seed with SRC_TREE's code into ``out``."""
    sys.path[:0] = [os.path.join(src_tree, "src"), os.path.join(src_tree, "tests")]
    import conftest
    from shmsim.scenario import MODES, compare_schemes, run_scenario

    families = {
        "standard": lambda s, d: run_scenario(conftest.standard_config(s), d),
        "missing_node": lambda s, d: run_scenario(conftest.missing_node_config(s), d),
        "field": lambda s, d: run_scenario(conftest.field_config(s, 0.2), d),
        "compare": lambda s, d: compare_schemes(conftest.standard_config(s), MODES, d),
    }
    for name, run in families.items():
        for seed in seeds:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run(seed, os.path.join(out, name, f"seed_{seed:02d}"))
        write(f"{name}: seeds {seeds[0]}-{seeds[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("src_tree")
    parser.add_argument("out")
    parser.add_argument("--seeds", default="1-6")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.print_usage(sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(args.src_tree, "tests", "conftest.py")):
        print(f"{args.src_tree} has no tests/conftest.py", file=sys.stderr)
        return 2
    print(f"threads: {thread_setting()}")
    write_trees(args.src_tree, args.out, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
