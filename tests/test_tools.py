"""tools/artifact_drift.py: byte equality per file and per-field numeric drift."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_drift", ROOT / "tools" / "artifact_drift.py")
artifact_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_drift)


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
