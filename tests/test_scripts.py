"""Smoke tests for the experiment scripts documented in README.md."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("chain_growth.py", ["--prime", "5", "--max-roots", "3"], "maximal chains: 24"),
        ("knapsack_report.py", ["--prime", "2", "--cases", "30"], "splits with filter:    50"),
        ("knapsack_report.py", ["--prime", "2", "--cases", "150"], "splits with filter:    250"),
        ("knapsack_report.py", ["--prime", "2", "--cases", "30"], "splits Newton allows:  42"),
        ("knapsack_report.py", ["--prime", "2", "--cases", "150"], "splits Newton allows:  225"),
    ],
    # the script and the case, not the expected text, so a re-recorded count keeps the id
    ids=[
        "chain_growth-p5-roots3",
        "knapsack_report-p2-cases30-filter",
        "knapsack_report-p2-cases150-filter",
        "knapsack_report-p2-cases30-newton",
        "knapsack_report-p2-cases150-newton",
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


def test_fact_digest_matches_golden():
    # every fact of factor_all on 300 seeded inputs over F_2, F_3, F_5, F_101
    # and Q; the 3000- and 20000-input digests are checked the same way in CI
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fact_digest.py"), "--count", "300"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "fact_digest_300.txt").read_text()


def test_chain_digest_matches_golden():
    # every factor_completely chain on the same 300 inputs; the 3000- and
    # 20000-input digests are checked the same way in CI
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "chain_digest.py"), "--count", "300"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "chain_digest_300.txt").read_text()
