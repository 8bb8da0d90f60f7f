"""The command-line scripts under ``scripts/``, each run at a small size in a
fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import icelab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    """Output lines of ``scripts/<name>`` run with ``args``; asserts exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(icelab.__file__).parents[1]))
    res = subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_simplicity_scan_predicts_every_depth():
    lines = run_script("simplicity_scan.py", "--qs", "9,27,5,4", "--seed", "2")
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [2, 3, 4]
    for r in rows:
        gap, predicted = float(r[6]), float(r[7])
        assert abs(gap - predicted) <= 1e-3 * max(gap, 1e-12)
