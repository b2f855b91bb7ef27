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

# case2-front at mesh.N = 4096 (the front-large-n workload) over its
# first 100 steps -> prefix of the SHA-256 of its final u and varsigma
# bytes, from solver.run in this process
LARGE_N_FINAL_STATE_SHA256 = {100: "741308b6"}

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


@pytest.mark.parametrize("steps", sorted(LARGE_N_FINAL_STATE_SHA256))
def test_large_n_front_keeps_its_final_state(steps):
    from viscodiff import config, solver

    cfg = config.parse_config('preset = "case2-front"\nmesh.N = 4096\n'
                              f"time.T_end = {steps * 2e-4!r}\n")
    mesh = config.build_mesh_from(cfg)
    phys = config.build_physical(cfg)
    scfg = config.build_solver_config(cfg)
    assert scfg.n_steps == steps
    final = solver.run(config.build_initial(cfg, mesh, phys), mesh,
                       config.build_model(cfg), config.build_boundary(cfg),
                       scfg).final_state
    digest = hashlib.sha256(final.u.tobytes() + final.sigma_v.tobytes())
    assert digest.hexdigest().startswith(LARGE_N_FINAL_STATE_SHA256[steps])
