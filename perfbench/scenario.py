"""One round of one benchmark workload, in a fresh process.

    python3 perfbench/scenario.py WORKLOAD OUTDIR [--trace]

A round runs the workload through the package's public API in the
order ``viscodiff preset NAME`` uses: the config builders, ``solver.run``,
the diagnostics checks, then the output writers into OUTDIR.  Timers
start after all imports.  After the timed window the outputs are
checked against values computed in checks.py.  The round prints one
JSON object on standard output.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import viscodiff  # noqa: E402
from viscodiff import (BoundaryData, InitialData, Mesh,  # noqa: E402
                       PhysicalCoefficients, RunResult, SolverConfig,
                       TransformedModel, config, diagnostics, output, solver)
from viscodiff.coefficients import check_longtime_condition  # noqa: E402

import checks  # noqa: E402

EPSILONS = (0.0, 1e-2, 1e-3, 1e-4)

# Each workload is a list of scenario texts; each scenario is one operation.
WORKLOADS = {
    "sorption": ['preset = "sorption"\n'],
    "front-large-n": ['preset = "case2-front"\nmesh.N = 4096\n'],
    "eps-scan": [f'preset = "eps-scan"\nepsilon = {e!r}\n' for e in EPSILONS],
    # half the preset's T_end = 50: 25000 steps still decay to round-off
    "homogenize": ['preset = "homogenize"\ntime.T_end = 25.0\n'],
}

# The one failure allowed: the solver builds time by repeated addition,
# so on eps-scan step 500 lands past the pulse's t_off = 0.5 and every
# member gains 0.0998 of mass instead of 0.1.  A mass failure counts as
# this fault only when the program's own step times explain it.
KNOWN_FAULTS = {("eps-scan", "mass_time_drift")}


@dataclass
class Member:
    """One scenario of a workload: its built inputs, then its result."""

    cfg: config.ScenarioConfig
    mesh: Mesh
    phys: PhysicalCoefficients
    model: TransformedModel
    bd: BoundaryData
    init: InitialData
    scfg: SolverConfig
    result: RunResult = None


class Spans:
    """Accumulated time of the round's phases, recorded around each call."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def _set_up(text: str, spans: Spans) -> Member:
    with spans("config.parse"):
        cfg = config.parse_config(text)
    with spans("config.build"):
        mesh = config.build_mesh_from(cfg)
        phys = config.build_physical(cfg)
        model = config.build_model(cfg)
        bd = config.build_boundary(cfg)
        bd.validate(cfg["time.T_end"])
        init = config.build_initial(cfg, mesh, phys)
        scfg = config.build_solver_config(cfg)
    return Member(cfg, mesh, phys, model, bd, init, scfg)


def _write(outdir: Path, workload: str, members: list[Member]) -> list[Path]:
    """Write the round's files; returns each member's diagnostics CSV."""
    outdir.mkdir(parents=True)
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    if workload == "eps-scan":
        paths = []
        for e, m in zip(EPSILONS, members):
            tag = f"{e:g}".replace(".", "p").replace("-", "m")
            paths.append(outdir / f"diagnostics_eps_{tag}.csv")
            output.write_diagnostics(paths[-1], m.result.records,
                                     header_note=f"generated {stamp} (eps={e:g})")
        return paths
    (m,) = members
    output.write_diagnostics(outdir / "diagnostics.csv", m.result.records,
                             header_note=f"generated {stamp}")
    for k, state in enumerate(m.result.trajectory):
        output.write_snapshot(outdir / f"snapshot_{k}.csv", m.mesh.nodes,
                              state.u, state.sigma_v,
                              solver.reconstruct_sigma(state, m.phys))
        output.write_flux(outdir / f"flux_{k}.csv", m.mesh.midpoints,
                          solver.compute_flux(state, m.mesh, m.phys))
    (outdir / "config.txt").write_text(config.serialize_config(m.cfg))
    return [outdir / "diagnostics.csv"]


def run_round(workload: str, outdir: Path, tracer=None) -> dict:
    """Run, time and check one round; returns the round's record."""
    spans = Spans()
    shutil.rmtree(outdir, ignore_errors=True)
    clock = time.perf_counter

    t0 = clock()
    members = [_set_up(text, spans) for text in WORKLOADS[workload]]
    cfg = members[-1].cfg
    lt = None
    if cfg["check.lyapunov"]:
        lt = check_longtime_condition(
            members[-1].model, cfg["longtime.Gamma"],
            config.longtime_box(cfg), cfg.get("longtime.n_samples", 4096))
    t_setup = clock()

    for m in members:
        model, observer = m.model, None
        if tracer is not None:
            model, observer = tracer.model(m.model), tracer.observer()
        m.result = solver.run(
            m.init, m.mesh, model, m.bd, m.scfg,
            output_every=m.cfg["time.output_every"] or None,
            gamma=lt.Gamma if lt is not None else 1.0, observer=observer)
        if tracer is not None:
            tracer.end_run(m.mesh.N + 1)

    with spans("diagnostics.checks"):
        if workload == "eps-scan":
            reports = [diagnostics.apriori_scaling_check(
                {e: m.result for e, m in zip(EPSILONS, members) if e > 0})]
        else:
            (m,) = members
            reports = []
            if cfg["check.mass_balance"]:
                reports.append(diagnostics.mass_balance_check(m.result.records, m.bd))
            if cfg["check.lyapunov"]:
                reports.append(diagnostics.lyapunov_decay_check(m.result.records, lt))
    with spans("output.write"):
        csv_paths = _write(outdir, workload, members)
    t_end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = _check_round(workload, members, reports, lt, csv_paths)
    digest = hashlib.sha256()
    for m in members:
        digest.update(m.result.final_state.u.tobytes())
        digest.update(m.result.final_state.sigma_v.tobytes())
    rec = {
        "wall_s": t_end - t0,
        "setup_s": t_setup - t0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(members),
        "failed": len({i for i, _, _ in failures}),
        "unexpected": [f"{workload}[{i}] {name}: {msg}" for i, name, msg
                       in failures if (workload, name) not in KNOWN_FAULTS],
        "known": [f"{workload}[{i}] {name}: {msg}" for i, name, msg
                  in failures if (workload, name) in KNOWN_FAULTS],
        "sha256": digest.hexdigest(),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update({
            "config.parse_ms": 1e3 * spans.seconds["config.parse"],
            "config.build_ms": 1e3 * spans.seconds["config.build"],
            "diagnostics.records_held": sum(len(m.result.records) for m in members),
            "diagnostics.checks_ms": 1e3 * spans.seconds["diagnostics.checks"],
            "output.write_ms": 1e3 * spans.seconds["output.write"],
            "output.diagnostics_csv_ms": 1e3 * tracer.seconds["output.diagnostics_csv"],
            "output.bytes_written": sum(p.stat().st_size for p in outdir.iterdir()),
        })
        rec["layers"] = layers
    return rec


def _check_round(workload, members, reports, lt, csv_paths):
    """(member index, check name, message) for every failed check."""
    failures = []
    snapshots = workload != "eps-scan"  # eps-scan writes diagnostics only
    for i, (m, path) in enumerate(zip(members, csv_paths)):
        for name, msg in _check_member(m, path, snapshots):
            failures.append((i, name, msg))
    round_checks = [(f"program {r.name}", None if r.ok else r.message)
                    for r in reports]
    if workload == "sorption":
        round_checks.append(("overshoot", checks.check_overshoot(
            [s.u for s in members[0].result.trajectory])))
    elif workload == "front-large-n":
        m = members[0]
        traj = m.result.trajectory
        ts, xs = checks.front_positions(m.mesh.nodes, [s.t for s in traj],
                                        [s.u for s in traj],
                                        m.cfg["front.threshold"])
        round_checks.append(("front", checks.check_front(ts, xs)))
    elif workload == "eps-scan":
        h = members[0].mesh.h
        ref = members[0].result.final_state.u
        dist = {e: checks.l2_distance(h, m.result.final_state.u, ref)
                for e, m in zip(EPSILONS, members) if e > 0}
        round_checks.append(("eps_convergence", checks.check_decreasing(dist)))
    elif workload == "homogenize":
        m = members[0]
        final = m.result.final_state
        snaps = [checks.lyapunov(m.mesh.h, lt.Gamma, s.u, s.sigma_v)
                 for s in m.result.trajectory]
        round_checks += [
            ("uniform_u", checks.check_equals(final.u, 0.5, "final u")),
            ("uniform_sigma", checks.check_equals(
                final.sigma_v, float(np.mean(final.sigma_v)), "final varsigma")),
            ("lyapunov", checks.check_nonincreasing(snaps, "Lyapunov functional")),
        ]
    for name, msg in round_checks:
        if msg is not None:
            failures += [(i, name, msg) for i in range(len(members))]
    return failures


def _check_member(m: Member, csv_path: Path, snapshots: bool):
    r = m.result
    dt, T_end, eps = m.scfg.dt, m.scfg.T_end, m.scfg.epsilon
    times = [rec.t for rec in r.records]
    found = [("steps", checks.check_steps(times, dt, T_end)),
             ("finite", checks.check_finite(
                 [s.u for s in r.trajectory] + [s.sigma_v for s in r.trajectory]))]

    h = m.mesh.h
    m0 = checks.p1_mass(h, r.trajectory[0].u)
    m_final = checks.p1_mass(h, r.final_state.u)
    phi = [checks.influx(*m.cfg.group(side))
           for side in ("boundary.phi_left", "boundary.phi_right")]
    n = round(T_end / dt)
    exact = checks.expected_mass(m0, dt, eps, [k * dt for k in range(1, n + 1)], *phi)
    msg = checks.check_mass(m_final, exact, m0)
    name = "mass"
    if msg is not None:
        own = checks.expected_mass(m0, dt, eps, times[1:], *phi)
        if checks.check_mass(m_final, own, m0) is None:
            name = "mass_time_drift"
            msg += (f"; it matches the recursion at the program's own step "
                    f"times to {abs(m_final - own):.1e}, and those times drift "
                    f"from k*dt (final t={times[-1]!r})")
    found.append((name, msg))
    found.append(("files", _check_files(m, csv_path, snapshots)))
    return [(name, msg) for name, msg in found if msg is not None]


def _check_files(m: Member, csv_path: Path, snapshots: bool):
    """Row and file counts, and the last snapshot read back exactly."""
    r = m.result
    with open(csv_path) as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    if rows != len(r.records):
        return f"{csv_path.name} has {rows} rows for {len(r.records)} records"
    if not snapshots:
        return None
    outdir = csv_path.parent
    n_snap = len(list(outdir.glob("snapshot_*.csv")))
    if n_snap != len(r.trajectory) or \
            len(list(outdir.glob("flux_*.csv"))) != len(r.trajectory):
        return f"{n_snap} snapshots written for {len(r.trajectory)} states"
    last = np.loadtxt(outdir / f"snapshot_{n_snap - 1}.csv",
                      delimiter=",", skiprows=1)
    final = r.final_state
    if not (np.array_equal(last[:, 1], final.u)
            and np.array_equal(last[:, 2], final.sigma_v)):
        return "the last snapshot does not read back as the final state"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if Path(viscodiff.__file__).resolve().parent != ROOT / "src" / "viscodiff":
        print(f"viscodiff imported from {viscodiff.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print(json.dumps(run_round(args.workload, args.outdir, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
