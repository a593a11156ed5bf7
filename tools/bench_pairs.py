"""Run the scenario benchmark on two trees in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N
                                 [--seed S] [--seconds X]

Each pair runs ``bench/run.py --workload W --seed S --seconds X`` with this
interpreter once in PARENT_TREE and once in CHANGE_TREE, each from its own
root and with the environment as given (set ``OPENBLAS_NUM_THREADS`` to pin
BLAS threads); odd pairs run the parent first and even pairs the change.
For every pair it prints each end-to-end metric of both runs and the ratio
change / parent, then the median ratio of each metric over the pairs; with
``--workload all`` the metrics carry their workload's prefix. Last comes one
verdict line per metric: wins, ties and losses of the change, each side's
median and quartiles, and the verdict, judged with the direction and bound
that PARENT_TREE's ``BENCHMARK.json`` gives the metric:

- ``gain``: the change wins at least 9 in 10 of all pairs (ties, pairs
  within 1e-9 relative of each other, count for neither) and its median is
  better than the parent's by more than the distance between the parent's
  quartiles;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- ``unresolved``: either side's quartile distance, relative to its median,
  exceeds the bound, and not every change run reads better than every
  parent run;
- ``no worse``: anything else.

The report ends with one ``overall:`` line naming the metrics whose verdict is
``gain``, ``worse`` and ``unresolved``.

Exit status is 1 when any run prints no result, is not ``correct`` or has
``failed > 0``, 2 on bad arguments and 0 otherwise. Standard library only; it
runs ``bench/`` as it is and writes nothing there or to ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# the end-to-end metrics that BENCHMARK.json bounds
END_TO_END = (
    "run_s_p50",
    "rounds_per_s",
    "setup_s",
    "peak_rss_mb",
    "detection_accuracy",
    "event_detection_ability",
    "recon_quality_mean",
)


def parse_result(stdout: str):
    """The JSON object on the last non-empty line of a bench run's output, or None."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def run_problem(result) -> str | None:
    """Why a run does not count, or None when it is correct with no failed operation."""
    if result is None:
        return "no result"
    if not result.get("correct"):
        return "not correct"
    if result.get("failed", 0) > 0:
        return f"{result['failed']} failed"
    return None


def end_to_end(result) -> dict:
    """Metric name -> value for the end-to-end metrics of one result."""
    out = {}
    for name, metric in (result or {}).get("metrics", {}).items():
        if name.rpartition(".")[2] in END_TO_END:
            out[name] = metric["value"] if isinstance(metric, dict) else metric
    return out


def pair_report(n: int, parent, change) -> tuple[list, bool]:
    """Lines for pair ``n``: problems, then each end-to-end metric of both runs and its
    ratio change / parent; and whether both runs count."""
    lines = [
        f"pair {n} {side}: {problem}"
        for side, problem in (("parent", run_problem(parent)), ("change", run_problem(change)))
        if problem
    ]
    ok = not lines
    a, b = end_to_end(parent), end_to_end(change)
    for name in sorted(a.keys() & b.keys()):
        ratio = f"{b[name] / a[name]:.3f}" if a[name] else "n/a"
        lines.append(f"pair {n} {name}: parent {a[name]:.6g} change {b[name]:.6g} ratio {ratio}")
    return lines, ok


def median_ratios(pairs) -> dict:
    """Metric -> median over the pairs of change / parent (pairs with a zero parent left out)."""
    ratios = {}
    for parent, change in pairs:
        a, b = end_to_end(parent), end_to_end(change)
        for name in a.keys() & b.keys():
            if a[name]:
                ratios.setdefault(name, []).append(b[name] / a[name])
    return {name: statistics.median(values) for name, values in sorted(ratios.items())}


# relative difference up to which a pair is a tie: floating-point drift, not a change
TIE = 1e-9


def load_bounds(path: str) -> dict:
    """End-to-end metric name -> (better, bound) from a ``BENCHMARK.json``."""
    with open(path) as f:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values, linearly interpolated."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _relative(width, centre):
    return width / abs(centre) if centre else (0.0 if width == 0 else float("inf"))


def verdict(values, better: str, bound: float) -> tuple:
    """(wins, ties, losses, parent quartiles, change quartiles, verdict) over the
    (parent, change) value pairs of one metric; see the module docstring for the rule."""
    sign = 1 if better == "higher" else -1
    gains = [
        sign * (change - parent) if abs(change - parent) > TIE * max(abs(parent), abs(change))
        else 0.0
        for parent, change in values
    ]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    parents, changes = [p for p, _ in values], [c for _, c in values]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parents), quartiles(changes)
    gap = sign * (cm - pm)
    spread = max(_relative(p3 - p1, pm), _relative(c3 - c1, cm))
    separated = min(sign * c for c in changes) > max(sign * p for p in parents)
    if wins >= 0.9 * len(values) and gap > p3 - p1:
        word = "gain"
    elif -gap > bound * abs(pm):
        word = "worse"
    elif spread > bound and not separated:
        word = "unresolved"
    else:
        word = "no worse"
    return wins, len(values) - wins - losses, losses, (p1, pm, p3), (c1, cm, c3), word


def verdicts(pairs, bounds: dict) -> dict:
    """Metric -> ``verdict`` tuple for every end-to-end metric that both runs of some
    pair report, in name order."""
    values = {}
    for parent, change in pairs:
        a, b = end_to_end(parent), end_to_end(change)
        for name in a.keys() & b.keys():
            values.setdefault(name, []).append((a[name], b[name]))
    return {
        name: verdict(pair_values, *bounds[name.rpartition(".")[2]])
        for name, pair_values in sorted(values.items())
    }


def verdict_lines(pairs, bounds: dict) -> list:
    """One verdict line per end-to-end metric that both runs of some pair report."""
    lines = []
    for name, (wins, ties, losses, parent, change, word) in verdicts(pairs, bounds).items():
        sides = "; ".join(
            f"{side} median {q[1]:.6g} q1 {q[0]:.6g} q3 {q[2]:.6g}"
            for side, q in (("parent", parent), ("change", change))
        )
        lines.append(f"verdict {name}: wins {wins} ties {ties} losses {losses}; {sides}; {word}")
    return lines


def overall_line(pairs, bounds: dict) -> str:
    """The metrics whose verdict is gain, worse and unresolved, on one line."""
    words = {name: v[-1] for name, v in verdicts(pairs, bounds).items()}
    groups = (
        f"{word} {' '.join(name for name, w in words.items() if w == word) or '-'}"
        for word in ("gain", "worse", "unresolved")
    )
    return "overall: " + "; ".join(groups)


def run_bench(tree: str, args) -> dict | None:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    trees = (args.parent_tree, args.change_tree)
    benchmark = os.path.join(args.parent_tree, "BENCHMARK.json")
    if (args.pairs < 1 or not os.path.isfile(benchmark)
            or not all(os.path.isfile(os.path.join(t, "bench", "run.py")) for t in trees)):
        parser.print_usage(sys.stderr)
        return 2
    bounds = load_bounds(benchmark)
    pairs, ok = [], True
    for n in range(1, args.pairs + 1):
        results = [None, None]
        for side in (0, 1) if n % 2 else (1, 0):
            results[side] = run_bench(trees[side], args)
        pairs.append(tuple(results))
        lines, pair_ok = pair_report(n, *pairs[-1])
        ok = ok and pair_ok
        print("\n".join(lines), flush=True)
    for name, ratio in median_ratios(pairs).items():
        print(f"median ratio {name}: {ratio:.3f}")
    print("\n".join(verdict_lines(pairs, bounds)))
    print(overall_line(pairs, bounds))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
