"""tools/: artifact_drift.py (byte equality per file and per-field numeric drift),
artifact_trees.py (the fixed run trees that identity checks compare) and
bench_pairs.py (alternating benchmark pairs, their ratios and verdicts)."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest
from conftest import standard_config

from shmsim.scenario import run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_drift = _load("artifact_drift")
artifact_trees = _load("artifact_trees")
bench_pairs = _load("bench_pairs")


def _tree(root, lam, verdict, summary):
    root.mkdir()
    (root / "detections.csv").write_text(
        f"# schema: shmsim/v1/detections\nround,node,lambda,verdict\n0,1,{lam},{verdict}\n"
    )
    (root / "summary.json").write_text(json.dumps(summary))
    (root / "energy.csv").write_text("node,j\n0,1.5\n")


def test_reports_identity_and_drift(tmp_path):
    _tree(tmp_path / "a", "0.25", "faulty", {"mean": 1.0, "radius": 2.0})
    _tree(tmp_path / "b", "0.5", "non_faulty", {"mean": 1.0})
    lines = []
    assert not artifact_drift.compare_trees(str(tmp_path / "a"), str(tmp_path / "b"), lines.append)
    report = "\n".join(lines)
    assert "same  energy.csv" in report
    assert "DIFF  detections.csv" in report
    assert "lambda: max_abs 0.25 max_rel 0.5 changed 1 non_numeric 0" in report
    assert "verdict: max_abs 0 max_rel 0 changed 0 non_numeric 1" in report
    assert "radius: max_abs 0 max_rel 0 changed 0 non_numeric 0 one_sided 1" in report
    assert "mean:" not in report


def test_identical_trees_exit_zero(tmp_path):
    for side in "ab":
        _tree(tmp_path / side, "0.25", "faulty", {"mean": 1.0})
    assert artifact_drift.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


def test_artifact_trees_seed_ranges():
    assert artifact_trees.parse_seeds("1-3") == [1, 2, 3]
    assert artifact_trees.parse_seeds("4") == [4]
    for text in ("3-1", "x", "1-y"):
        with pytest.raises(ValueError):
            artifact_trees.parse_seeds(text)


def test_artifact_trees_writes_every_family(tmp_path):
    """The thread setting comes first; each family's tree is the run it names."""
    out = tmp_path / "trees"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OMP_NUM_THREADS", None)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_trees.py"), str(ROOT), str(out), "--seeds", "2"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.splitlines()[0] == (
        "threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS="
        + os.environ.get("MKL_NUM_THREADS", "unset")
    )
    assert sorted(os.listdir(out)) == ["compare", "field", "missing_node", "standard"]
    for family in ("standard", "missing_node", "field"):
        assert (out / family / "seed_02" / "summary.json").is_file()
    compare = out / "compare" / "seed_02"
    assert (compare / "comparison.csv").is_file() and (compare / "dependshm" / "summary.json").is_file()
    # the 10-story trees do not depend on the BLAS thread count
    run_scenario(standard_config(2), str(tmp_path / "alone"))
    assert artifact_drift.compare_trees(str(out / "standard" / "seed_02"), str(tmp_path / "alone"), lambda _: None)


def test_artifact_trees_rejects_bad_arguments(tmp_path):
    assert artifact_trees.main([str(tmp_path), str(tmp_path / "out")]) == 2  # no tests/conftest.py
    assert artifact_trees.main([str(ROOT), str(tmp_path / "out"), "--seeds", "2-1"]) == 2
    assert not (tmp_path / "out").exists()


def _bench_stdout(run_s, setup_s, correct=True, failed=0, prefix=""):
    metrics = {
        f"{prefix}run_s_p50": {"value": run_s, "unit": "s"},
        f"{prefix}setup_s": {"value": setup_s, "unit": "s"},
        f"{prefix}detection_accuracy": {"value": 0.97, "unit": "ratio"},
        f"{prefix}modal.extract_local_modes.calls": {"value": 12, "unit": "count"},
    }
    result = {"correct": correct, "attempted": 5, "failed": failed, "metrics": metrics}
    return f"run_s_p50 1.0 s (n=5)\n{json.dumps(result)}\n"


def test_bench_pairs_ratios_and_medians():
    runs = [(1.2, 0.5, 0.6, 0.5), (1.0, 0.5, 0.8, 0.6), (1.4, 0.6, 0.7, 0.6)]
    pairs = [
        tuple(bench_pairs.parse_result(_bench_stdout(r, s)) for r, s in ((a, b), (c, d)))
        for a, b, c, d in runs
    ]
    lines, ok = bench_pairs.pair_report(2, *pairs[1])
    assert ok
    assert lines == [
        "pair 2 detection_accuracy: parent 0.97 change 0.97 ratio 1.000",
        "pair 2 run_s_p50: parent 1 change 0.8 ratio 0.800",
        "pair 2 setup_s: parent 0.5 change 0.6 ratio 1.200",
    ]
    medians = bench_pairs.median_ratios(pairs)
    assert set(medians) == {"run_s_p50", "setup_s", "detection_accuracy"}
    assert medians["run_s_p50"] == pytest.approx(0.5)  # ratios 0.5, 0.8, 0.5
    assert medians["setup_s"] == pytest.approx(1.0)  # ratios 1.0, 1.2, 1.0


@pytest.mark.parametrize(
    "stdout, problem",
    [
        (_bench_stdout(1.0, 0.5, correct=False), "not correct"),
        (_bench_stdout(1.0, 0.5, failed=2), "2 failed"),
        ("Traceback (most recent call last):\n", "no result"),
        ("", "no result"),
    ],
)
def test_bench_pairs_flags_runs_that_do_not_count(stdout, problem):
    good = bench_pairs.parse_result(_bench_stdout(1.0, 0.5))
    lines, ok = bench_pairs.pair_report(1, good, bench_pairs.parse_result(stdout))
    assert not ok
    assert lines[0] == f"pair 1 change: {problem}"


def test_bench_pairs_keeps_workload_prefixes():
    parent, change = (
        bench_pairs.parse_result(_bench_stdout(r, 0.5, prefix="field100.")) for r in (1.0, 0.6)
    )
    assert bench_pairs.median_ratios([(parent, change)])["field100.run_s_p50"] == pytest.approx(0.6)


def test_bench_pairs_rejects_trees_without_the_benchmark(tmp_path):
    args = [str(tmp_path), str(tmp_path), "--workload", "field100", "--pairs", "1"]
    assert bench_pairs.main(args) == 2


BOUNDS = bench_pairs.load_bounds(ROOT / "BENCHMARK.json")


def _pairs(parent_runs, change_runs, setup_s=0.5):
    return [
        tuple(bench_pairs.parse_result(_bench_stdout(r, setup_s)) for r in (p, c))
        for p, c in zip(parent_runs, change_runs)
    ]


def test_bench_pairs_reads_bounds_from_the_benchmark():
    assert BOUNDS["run_s_p50"] == ("lower", 0.25)
    assert BOUNDS["detection_accuracy"] == ("higher", 0.02)
    assert set(bench_pairs.END_TO_END) == set(BOUNDS)


def test_bench_pairs_verdict_gain_and_ties():
    parent = [1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.04, 1.00]
    change = [0.70, 0.71, 0.69, 0.72, 0.68, 0.70, 1.10, 0.69, 0.71, 0.70]
    lines = bench_pairs.verdict_lines(_pairs(parent, change), BOUNDS)
    assert lines == [
        "verdict detection_accuracy: wins 0 ties 10 losses 0; parent median 0.97 q1 0.97 "
        "q3 0.97; change median 0.97 q1 0.97 q3 0.97; no worse",
        "verdict run_s_p50: wins 9 ties 0 losses 1; parent median 1.005 q1 0.9925 q3 1.0275; "
        "change median 0.7 q1 0.6925 q3 0.71; gain",
        "verdict setup_s: wins 0 ties 10 losses 0; parent median 0.5 q1 0.5 q3 0.5; "
        "change median 0.5 q1 0.5 q3 0.5; no worse",
    ]


@pytest.mark.parametrize(
    "parent, change, word",
    [
        # 8 of 10 wins is short of a gain, and the median moved less than the bound
        ([1.0] * 10, [0.9] * 8 + [1.1] * 2, "no worse"),
        # the median is 40% slower, beyond the 0.25 bound
        ([1.0] * 10, [1.4] * 10, "worse"),
        # both sides spread wider than the bound and overlap
        ([1.0, 2.0] * 5, [2.0, 1.0] * 5, "unresolved"),
        # the parent spreads wider than the bound, but every change run beats every
        # parent run, though by less than the parent's quartile distance
        ([1.0, 1.0, 1.0, 10.0] * 3, [0.99] * 12, "no worse"),
        # drift in the last digits is a tie, not a win
        ([0.95] * 10, [0.95 * (1 - 1e-12)] * 10, "no worse"),
    ],
)
def test_bench_pairs_verdicts(parent, change, word):
    values = list(zip(parent, change))
    assert bench_pairs.verdict(values, "lower", 0.25)[-1] == word
    flipped = [(-p, -c) for p, c in values]  # the same runs for a higher-is-better metric
    assert bench_pairs.verdict(flipped, "higher", 0.25)[-1] == word


def test_bench_pairs_verdict_on_one_pair():
    assert bench_pairs.verdict([(1.0, 0.5)], "lower", 0.25) == (
        1, 0, 0, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), "gain"
    )


def test_bench_pairs_overall_line_names_gain_worse_and_unresolved():
    parent = [1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.04, 1.00]
    change = [0.70, 0.71, 0.69, 0.72, 0.68, 0.70, 1.10, 0.69, 0.71, 0.70]
    pairs = _pairs(parent, change)
    for (a, b), setup in zip(pairs, [(1.0, 2.0), (2.0, 1.0)] * 5):  # overlapping spread
        a["metrics"]["setup_s"]["value"], b["metrics"]["setup_s"]["value"] = setup
    pairs[-1][1]["metrics"]["detection_accuracy"]["value"] = 0.5  # one loss moves no median
    assert bench_pairs.overall_line(pairs, BOUNDS) == (
        "overall: gain run_s_p50; worse -; unresolved setup_s"
    )
    for _, b in pairs:
        b["metrics"]["detection_accuracy"]["value"] = 0.5
    assert bench_pairs.overall_line(pairs, BOUNDS) == (
        "overall: gain run_s_p50; worse detection_accuracy; unresolved setup_s"
    )


@pytest.mark.parametrize("failed, status", [(0, 0), (1, 1)])
def test_bench_pairs_report_ends_with_the_overall_line(
    tmp_path, monkeypatch, capsys, failed, status
):
    """The overall line comes last, after the verdicts, and leaves the exit status alone."""
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        trees.append(str(tmp_path / side))
    runs = iter([1.0, 0.5, 0.6, 1.0])  # pair 1 runs the parent first, pair 2 the change

    def fake_run(tree, args):
        return bench_pairs.parse_result(
            _bench_stdout(next(runs), 0.5, failed=failed if tree == trees[1] else 0)
        )

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main([*trees, "--workload", "tenstory", "--pairs", "2"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:-1] == [line for line in lines if line.startswith("verdict ")]
    assert lines[-1] == "overall: gain run_s_p50; worse -; unresolved -"
