"""The benchmark's tracer still finds every package name it wraps."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TRACED_RUN = """
import json
import sys
from tracing import Tracer
tracer = Tracer()
tracer.install()
from viscodiff import config, solver
cfg = config.parse_config(
    'preset = "sorption"\\nmesh.N = 16\\ntime.T_end = 0.05\\n')
mesh = config.build_mesh_from(cfg)
phys = config.build_physical(cfg)
solver.run(config.build_initial(cfg, mesh, phys), mesh,
           tracer.model(config.build_model(cfg)), config.build_boundary(cfg),
           config.build_solver_config(cfg), observer=tracer.observer())
tracer.end_run(mesh.N + 1)
print(json.dumps({"metrics": tracer.metrics(),
                  "scipy": "scipy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def traced_run():
    path = os.pathsep.join([str(PERFBENCH)] + sys.path)
    out = subprocess.run([sys.executable, "-c", TRACED_RUN],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout)


def test_traced_sorption_run_reports_finite_metrics(traced_run):
    metrics = traced_run["metrics"]
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["coefficients.law_calls_per_step"] > 0
    assert metrics["coefficients.eval_us_per_step"] > 0


def test_traced_run_does_not_import_scipy(traced_run):
    # the tracer wraps solver.solve_banded and solveh_banded, which are
    # placeholders: the step kernel calls LAPACK through viscodiff.lapack
    assert not traced_run["scipy"]
