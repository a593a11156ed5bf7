"""Compare two run trees artifact by artifact.

    python3 tools/artifact_drift.py OLD_TREE NEW_TREE

Every file under either tree is matched by its relative path and reported as
byte-identical or not. For a differing CSV file the report gives, per column,
the largest absolute and relative change over the numeric cells and the
number of differing non-numeric cells; for a differing JSON file (``summary.json``,
``manifest.json``) it gives the same per flattened key, plus the keys present
on one side only. A closing table aggregates each artifact name (for example
every ``detections.csv``) over the whole tree. The relative change of a pair
(a, b) is |a - b| / max(|a|, |b|). Exit status is 0 when every file is
byte-identical and 1 otherwise. Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys


def _files(root):
    out = set()
    for base, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(base, name), root))
    return out


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


class Drift:
    """Per field: largest absolute and relative numeric change, and counts of changed values."""

    def __init__(self):
        # field -> [max abs, max rel, changed numeric, changed non-numeric, only on one side]
        self.fields = {}

    def _row(self, field):
        return self.fields.setdefault(field, [0.0, 0.0, 0, 0, 0])

    def compare(self, field, old, new):
        row = self._row(field)
        if old == new:
            return
        a, b = _number(old), _number(new)
        if isinstance(old, bool) or isinstance(new, bool) or a is None or b is None:
            row[3] += 1
        elif not (math.isnan(a) and math.isnan(b)):
            row[2] += 1
            diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
            scale = max(abs(a), abs(b))
            row[0] = max(row[0], diff)
            row[1] = max(row[1], diff / scale if scale else 0.0)

    def one_sided(self, field):
        self._row(field)[4] += 1

    def merge(self, other):
        for field, values in other.fields.items():
            row = self._row(field)
            row[0], row[1] = max(row[0], values[0]), max(row[1], values[1])
            for i in (2, 3, 4):
                row[i] += values[i]

    def lines(self, indent):
        return [
            f"{indent}{field}: max_abs {ab:.3g} max_rel {rel:.3g} changed {num}"
            f" non_numeric {text} one_sided {side}"
            for field, (ab, rel, num, text, side) in self.fields.items()
            if num or text or side
        ]


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}[{i}]"))
        return out
    return {prefix: value}


def _csv_drift(old, new):
    """Per-column drift; ``#`` comment lines (the schema tag) compare as one text field."""
    drift = Drift()
    tables = []
    for text in (old, new):
        lines = text.decode().splitlines(keepends=True)
        tables.append(
            (
                "".join(ln for ln in lines if ln.startswith("#")),
                list(csv.reader(ln for ln in lines if not ln.startswith("#"))),
            )
        )
    (old_comments, old_rows), (new_comments, new_rows) = tables
    drift.compare("<comments>", old_comments, new_comments)
    header = old_rows[0] if old_rows else []
    if not new_rows or new_rows[0] != header:
        drift.one_sided("<header>")
        return drift
    if len(old_rows) != len(new_rows):
        drift.one_sided(f"<rows {len(old_rows) - 1} vs {len(new_rows) - 1}>")
    for a, b in zip(old_rows[1:], new_rows[1:]):
        for col, x, y in zip(header, a, b):
            drift.compare(col, x, y)
    return drift


def _json_drift(old, new):
    a, b = _flatten(json.loads(old)), _flatten(json.loads(new))
    drift = Drift()
    for key in sorted(a.keys() | b.keys()):
        if key in a and key in b:
            drift.compare(key, a[key], b[key])
        else:
            drift.one_sided(key)
    return drift


def compare_trees(old_root, new_root, write=print) -> bool:
    """Write the report; return True when every file is byte-identical."""
    paths = sorted(_files(old_root) | _files(new_root))
    totals = {}  # artifact name -> [identical, compared, Drift]
    for path in paths:
        name = os.path.basename(path)
        entry = totals.setdefault(name, [0, 0, Drift()])
        entry[1] += 1
        sides = [os.path.join(root, path) for root in (old_root, new_root)]
        if not all(os.path.isfile(p) for p in sides):
            write(f"ONLY  {path} ({'old' if os.path.isfile(sides[0]) else 'new'} tree)")
            continue
        old, new = (open(p, "rb").read() for p in sides)
        if old == new:
            entry[0] += 1
            write(f"same  {path}")
            continue
        write(f"DIFF  {path}")
        drift = None
        if name.endswith(".csv"):
            drift = _csv_drift(old, new)
        elif name.endswith(".json"):
            drift = _json_drift(old, new)
        if drift is not None:
            for line in drift.lines("      "):
                write(line)
            entry[2].merge(drift)
    write("")
    write("per artifact name: byte-identical / files, then the largest drift over all files")
    for name, (same, total, drift) in sorted(totals.items()):
        write(f"{name}: {same}/{total}")
        for line in drift.lines("  "):
            write(line)
    return all(same == total for same, total, _ in totals.values())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(a) for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0 if compare_trees(*args) else 1


if __name__ == "__main__":
    sys.exit(main())
