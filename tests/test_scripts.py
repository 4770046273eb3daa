"""Smoke tests for the experiment scripts documented in README.md."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("chain_growth.py", ["--prime", "5", "--max-roots", "3"], "maximal chains: 24"),
        ("knapsack_report.py", ["--prime", "2", "--cases", "30"], "splits with filter:    50"),
    ],
)
def test_script_runs(script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
