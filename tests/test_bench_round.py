"""One benchmark round of each cheap workload passes its own checks.

The round counts the rows of diagnostics.csv, follows the mass
recursion and reads the last snapshot back bit for bit, so a broken
file contract fails here and not only in a benchmark run.  The final
state's SHA-256 and that of the round's diagnostics CSVs must keep their
recorded prefixes: a step kernel or a diagnostics kernel that is
rewritten for speed must leave every bit of the state and of every
record as it was.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCENARIO = Path(__file__).resolve().parent.parent / "perfbench" / "scenario.py"

# workload -> prefix of the SHA-256 of its final u and varsigma bytes
FINAL_STATE_SHA256 = {
    "sorption": "2077a017",
    "eps-scan": "82316c82",
    "homogenize": "6963ecc7",
}

# workload -> prefix of the SHA-256 of its diagnostics CSVs, in name
# order, each without its first line (the "# generated <time>" note)
DIAGNOSTICS_SHA256 = {
    "sorption": "6db9932a",
    "eps-scan": "29a4ecdb",
    "homogenize": "d43013d1",
}


@pytest.mark.parametrize("workload", sorted(FINAL_STATE_SHA256))
def test_round_has_no_failures(workload, tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCENARIO), workload, str(tmp_path / "round")],
        capture_output=True, text=True, check=True)
    rec = json.loads(out.stdout)
    assert rec["failed"] == 0, rec
    assert rec["unexpected"] == [], rec
    assert rec["sha256"].startswith(FINAL_STATE_SHA256[workload]), rec["sha256"]
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "round").glob("diagnostics*.csv")):
        note, body = path.read_bytes().split(b"\n", 1)
        assert note.startswith(b"# generated ")
        digest.update(body)
    assert digest.hexdigest().startswith(DIAGNOSTICS_SHA256[workload])
