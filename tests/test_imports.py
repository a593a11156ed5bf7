"""Import graph: the package loads without scipy.signal and scipy.stats."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_leaves_out_scipy_signal_and_stats():
    """A fresh ``import shmsim.scenario, shmsim.cli`` loads neither module."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, shmsim.scenario, shmsim.cli; "
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == ""
