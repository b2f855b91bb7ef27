"""One benchmark round of the sorption workload passes its own checks.

The round counts the rows of diagnostics.csv, follows the mass
recursion and reads the last snapshot back bit for bit, so a broken
file contract fails here and not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

SCENARIO = Path(__file__).resolve().parent.parent / "perfbench" / "scenario.py"


def test_sorption_round_has_no_failures(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCENARIO), "sorption", str(tmp_path / "round")],
        capture_output=True, text=True, check=True)
    rec = json.loads(out.stdout)
    assert rec["failed"] == 0, rec
    assert rec["unexpected"] == [], rec
