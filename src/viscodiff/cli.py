"""Command-line driver.

Verbs:
    run CONFIG            simulate a scenario file
    preset NAME           simulate a built-in scenario
    check-assumptions CONFIG   sampled coefficient bounds / ellipticity
    find-gamma CONFIG     scan for a decay-condition weight Gamma
    eps-scan [CONFIG]     regularization-strength sweep with stability checks

Exit codes: 0 success, 1 a check failed, 2 configuration error,
3 numerical failure during time stepping (``run`` and ``preset`` leave
the diagnostics of the steps before it and a summary naming it;
``eps-scan`` leaves those of the failing member, those of the members
that finished, and a summary naming the failing member's epsilon).
"""

from __future__ import annotations

import argparse
import datetime
import math
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import config as cfgmod
from .coefficients import (
    EllipticityViolation,
    GammaSearchFailure,
    LongTimeConditionFailure,
    NonSmoothCoefficient,
    check_assumptions,
    check_longtime_condition,
    find_gamma,
    transform,
)
from .config import ConfigError, ScenarioConfig, parse_config, preset_config
from .diagnostics import (
    CSV_COLUMNS,
    CheckReport,
    apriori_scaling_check,
    homogenization_metric,
    homogenized_since,
    l2_norm,
    longtime_box_check,
    lyapunov_decay_check,
    mass_balance_check,
)
from .output import write_diagnostics, write_flux, write_snapshot
from .solver import (
    DualTimeDerivative,
    LinearSolveFailure,
    NumericalFailure,
    compute_flux,
    reconstruct_sigma,
    run,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

EPS_SCAN_VALUES = (1e-2, 1e-3, 1e-4)


# ---------------------------------------------------------------------------
# signature trackers (phenomenology scans; never gate the exit code)


def _columns(records, *names: str) -> list[np.ndarray]:
    """The named columns of a record table, without a copy."""
    table = np.asarray(records)
    return [table[:, CSV_COLUMNS.index(name)] for name in names]


def _extremum_signature(records, kind: str) -> tuple[bool, str]:
    """Overshoot: the peak of u over the run stands above its terminal
    maximum.  Undershoot: the trough stands below its terminal minimum.
    Either counts when it exceeds 1% of the largest spread of u."""
    u_min, u_max = _columns(records, "u_min", "u_max")
    scale = max(float(np.max(u_max - u_min)), 1e-12)
    # Python's max and min, which keep the first of a -0.0/0.0 tie
    if kind == "overshoot":
        peak, last = max(u_max.tolist()), float(u_max[-1])
        excess = peak - last
        return excess > 0.01 * scale, (
            f"peak u {peak:.6g} vs terminal max "
            f"{last:.6g} (excess {excess:.3g})")
    trough, last = min(u_min.tolist()), float(u_min[-1])
    deficit = last - trough
    return deficit > 0.01 * scale, (
        f"trough u {trough:.6g} vs terminal min "
        f"{last:.6g} (deficit {deficit:.3g})")


class _FrontTracker:
    """Rightmost threshold crossing of u, sampled every step.

    The crossing position is linearly interpolated between nodes; times
    and positions with the front strictly inside the domain are kept for
    the linear-in-t versus sqrt-t least-squares comparison.
    """

    def __init__(self, mesh, threshold: float):
        self.x = mesh.nodes
        self.L = mesh.L
        self.threshold = threshold
        self.times: list[float] = []
        self.positions: list[float] = []

    def __call__(self, state):
        u, c = state.u, self.threshold
        above = u >= c
        if not above.any() or above.all():
            return
        idx = np.nonzero(above[:-1] & ~above[1:])[0]
        if idx.size == 0:
            return
        i = int(idx[-1])
        frac = (c - u[i]) / (u[i + 1] - u[i])
        xf = float(self.x[i] + frac * (self.x[i + 1] - self.x[i]))
        if 0.0 < xf < self.L and state.t > 0:
            self.times.append(float(state.t))
            self.positions.append(xf)

    def fit(self) -> tuple[Optional[bool], str]:
        """(linear beats sqrt-t or None if untrackable, description)."""
        if len(self.times) < 10:
            return None, f"front tracked at only {len(self.times)} times"
        t = np.asarray(self.times)
        xf = np.asarray(self.positions)

        def rms(basis):
            A = np.column_stack([np.ones_like(t), basis])
            coef, *_ = np.linalg.lstsq(A, xf, rcond=None)
            return float(np.sqrt(np.mean((A @ coef - xf) ** 2)))

        r_lin = rms(t)
        r_sqrt = rms(np.sqrt(t))
        return r_lin < r_sqrt, (
            f"front fit residuals: linear {r_lin:.4g}, sqrt-t {r_sqrt:.4g} "
            f"over {len(self.times)} samples")


# ---------------------------------------------------------------------------
# scenario execution


def _override(cfg: ScenarioConfig, dt: Optional[float],
              n_cells: Optional[int]) -> ScenarioConfig:
    """The scenario with --dt/--n-cells applied, under the file's rules."""
    if dt is None and n_cells is None:
        return cfg
    values = dict(cfg.values)
    if dt is not None:
        values["time.dt"] = dt
    if n_cells is not None:
        values["mesh.N"] = n_cells
    return cfgmod.validate(values)


def _longtime(cfg: ScenarioConfig, model):
    """Resolve the decay-condition weight, or None when not requested."""
    if not cfgmod.has_longtime(cfg):
        return None
    if "longtime.Gamma" in cfg.values:
        return check_longtime_condition(
            model, cfg["longtime.Gamma"], cfgmod.longtime_box(cfg),
            cfg["longtime.n_samples"])
    return _scan_gamma(cfg, model)


def _scan_gamma(cfg: ScenarioConfig, model):
    """The best decay-condition weight on the gamma grid."""
    box = cfgmod.longtime_box(cfg)
    if box.volume == 0:
        raise ConfigError("a Gamma scan needs a longtime box with lo < hi "
                          "on every axis (time.T_end > 0 for the default t "
                          "range)", key="longtime.box")
    return find_gamma(model, box, cfg["longtime.gamma_grid"],
                      cfg["longtime.n_samples"])


def _analytic_error(cfg: ScenarioConfig, mesh, final_state) -> float:
    """Mass-weighted L2 error against the decaying cosine solution."""
    _, p = cfg.group("initial.u0")
    _, dp = cfg.group("model.D0")
    lam = dp["value"] * (p["mode"] * math.pi / mesh.L) ** 2
    exact = p["mean"] + p["amplitude"] * math.exp(-lam * final_state.t) \
        * np.cos(p["mode"] * math.pi * mesh.nodes / mesh.L)
    return l2_norm(mesh, final_state.u - exact)


def _build(cfg: ScenarioConfig):
    """Everything ``run`` needs for one scenario; bad inputs are ConfigErrors."""
    mesh = cfgmod.build_mesh_from(cfg)
    phys = cfgmod.build_physical(cfg)
    model = transform(phys)
    bd = cfgmod.build_boundary(cfg)
    try:
        bd.validate(cfg["time.T_end"])
        init = cfgmod.build_initial(cfg, mesh, phys)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return mesh, phys, model, bd, init, cfgmod.build_solver_config(cfg)


# the names of the files that run and preset, and eps-scan, write
_RUN_FILES = re.compile(
    r"(snapshot|flux)_\d+\.csv|diagnostics\.csv|config\.txt|summary\.txt")
_SCAN_FILES = re.compile(r"diagnostics_eps_\w+\.csv|summary\.txt")


def _make_outdir(outdir: Path, cfg: ScenarioConfig,
                 written: re.Pattern) -> None:
    """Make the output directory and remove the files in it whose names
    the verb writes (``written`` matches them) and that the scenario does
    not read through ``initial.*.path``.  A path that cannot be a
    directory, or such a file that cannot be removed, names --out."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: "
                          f"{exc.strerror or exc}", key="--out") from exc
    inputs = {Path(p).resolve() for key, p in cfg.values.items()
              if key.startswith("initial.") and key.endswith(".path")}
    for path in outdir.iterdir():
        if written.fullmatch(path.name) and path.resolve() not in inputs:
            try:
                path.unlink()
            except OSError as exc:
                raise ConfigError(f"cannot remove {path}: {exc.strerror or exc}",
                                  key="--out") from exc


def _execute(cfg: ScenarioConfig, outdir: Path):
    """Build and run one scenario; returns everything the writers need."""
    mesh, phys, model, bd, init, scfg = _build(cfg)
    lt = _longtime(cfg, model)
    gamma = lt.Gamma if lt is not None else 1.0

    front = (_FrontTracker(mesh, cfg["front.threshold"])
             if cfg["signature"] == "front" else None)

    output_every = cfg["time.output_every"] or None
    _make_outdir(outdir, cfg, _RUN_FILES)  # before the first step
    result = run(init, mesh, model, bd, scfg, output_every=output_every,
                 gamma=gamma, observer=front)
    return mesh, phys, bd, lt, result, front


def _signature_lines(cfg: ScenarioConfig, records, front) -> list[str]:
    kind = cfg["signature"]
    if kind == "none":
        return []
    if kind == "front":
        found, desc = front.fit()
    else:
        found, desc = _extremum_signature(records, kind)
    verdict = "yes" if found else "no"
    return [f"signature detected: {verdict}",
            f"signature kind: {kind}", f"signature detail: {desc}"]


def _run_checks(cfg: ScenarioConfig, mesh, bd, lt,
                result) -> list[CheckReport]:
    checks = []
    if cfg["check.mass_balance"]:
        checks.append(mass_balance_check(result.records, bd,
                                         epsilon=cfg["epsilon"]))
    if cfg["check.lyapunov"]:
        checks.append(lyapunov_decay_check(result.records, lt))
    if lt is not None:
        checks.append(longtime_box_check(
            result.records, result.varsigma_range, lt.verified_box))
    if "check.analytic" in cfg.values:
        tol = cfg["check.analytic_tol"]
        err = _analytic_error(cfg, mesh, result.final_state)
        checks.append(CheckReport(
            ok=err <= tol, name="analytic",
            message=f"L2 error vs decaying cosine {err:.6g} "
                    f"({'within' if err <= tol else 'exceeds'} {tol:g})"))
    return checks


def _check_line(c: CheckReport) -> str:
    return f"check {c.name}: {'PASS' if c.ok else 'FAIL'} - {c.message}"


def _write_records(outdir: Path, cfg: ScenarioConfig, records) -> None:
    """``diagnostics.csv`` and ``config.txt`` in the output directory."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    write_diagnostics(outdir / "diagnostics.csv", records,
                      header_note=f"generated {stamp}")
    (outdir / "config.txt").write_text(cfgmod.serialize_config(cfg))


def _write_outputs(outdir: Path, cfg: ScenarioConfig, mesh, phys, lt,
                   result, front, checks: list[CheckReport]) -> None:
    _write_records(outdir, cfg, result.records)
    for k, state in enumerate(result.trajectory):
        sigma = reconstruct_sigma(state, phys)
        write_snapshot(outdir / f"snapshot_{k}.csv", mesh.nodes, state.u,
                       state.sigma_v, sigma)
        write_flux(outdir / f"flux_{k}.csv", mesh.midpoints,
                   compute_flux(state, mesh, phys))

    final = result.final_state
    rec = result.records[-1]
    lines = [
        f"final time: {final.t:.17g}",
        f"final mass: {rec.mass:.17g}",
        f"final u range: [{rec.u_min:.17g}, {rec.u_max:.17g}]",
        f"final homogenization metric: "
        f"{homogenization_metric(final, mesh):.17g}",
    ]
    if lt is not None:
        lines.append(f"longtime condition: Gamma={lt.Gamma:.17g} "
                     f"Gamma_0={lt.Gamma_0:.17g}")
        since = homogenized_since(result.records, mesh.L, 1e-4)
        if since is not None:
            lines.append(f"homogenization metric stays below 1e-4 from "
                         f"t={since:.6g}")
    lines.extend(map(_check_line, checks))
    lines.extend(_signature_lines(cfg, result.records, front))
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _failure_lines(exc, dt: float) -> list[str]:
    """The summary of a run that failed at step k, k being the number of
    records it left."""
    k = len(exc.records)
    return [f"failed at step {k}, t={k * dt:.6g}", f"numerical failure: {exc}"]


def _write_failure(outdir: Path, cfg: ScenarioConfig, exc) -> None:
    """What a run that failed at step k leaves: the k records before the
    failing step, the resolved config and a summary naming the step."""
    _write_records(outdir, cfg, exc.records)
    (outdir / "summary.txt").write_text(
        "\n".join(_failure_lines(exc, cfg["time.dt"])) + "\n")


def _cmd_run(cfg: ScenarioConfig, outdir: Path, quiet: bool) -> int:
    try:
        mesh, phys, bd, lt, result, front = _execute(cfg, outdir)
    except (NumericalFailure, LinearSolveFailure) as exc:
        _write_failure(outdir, cfg, exc)
        raise
    checks = _run_checks(cfg, mesh, bd, lt, result)
    _write_outputs(outdir, cfg, mesh, phys, lt, result, front, checks)
    if not quiet:
        rec = result.records[-1]
        print(f"completed {len(result.records) - 1} steps to "
              f"t={result.final_state.t:g}; final mass {rec.mass:.12g}")
        for c in checks:
            print(_check_line(c))
        print(f"outputs in {outdir}")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK_FAILED


def _cmd_check_assumptions(cfg: ScenarioConfig, quiet: bool) -> int:
    bounds = check_assumptions(cfgmod.build_model(cfg), cfgmod.longtime_box(cfg),
                               cfg["longtime.n_samples"])
    if not quiet:
        print(f"ellipticity constant d = {bounds.d:.6g}")
        for name in ("K_D", "K_E", "K_beta", "K_mu", "K_f", "K_g"):
            print(f"{name} = {getattr(bounds, name):.6g}")
    return EXIT_OK


def _cmd_find_gamma(cfg: ScenarioConfig, quiet: bool) -> int:
    lt = _scan_gamma(cfg, cfgmod.build_model(cfg))
    if not quiet:
        print(f"Gamma = {lt.Gamma:.12g}")
        print(f"Gamma_0 = {lt.Gamma_0:.12g}")
    return EXIT_OK


def _write_scan_diagnostics(outdir: Path, records: dict) -> None:
    """One diagnostics_eps_<eps>.csv per member, from {eps: records}."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    for e, series in records.items():
        tag = f"{e:g}".replace(".", "p").replace("-", "m")
        write_diagnostics(outdir / f"diagnostics_eps_{tag}.csv", series,
                          header_note=f"generated {stamp} (eps={e:g})")


def _member_line(e: float, r, dual: DualTimeDerivative) -> str:
    return (f"eps={e:g}: sup H1(s)={r.sup_h1_s:.8g} "
            f"regE_u={r.reg_energy_u:.8g} regE_s={r.reg_energy_s:.8g} "
            f"dual={dual.value:.8g}")


def _cmd_eps_scan(cfg: ScenarioConfig, outdir: Path, quiet: bool) -> int:
    all_eps = (0.0,) + EPS_SCAN_VALUES
    # every member is validated and built before any of them runs
    members = {eps: _build(cfgmod.validate({**cfg.values, "epsilon": eps}))
               for eps in all_eps}
    _make_outdir(outdir, cfg, _SCAN_FILES)  # before the first step
    results, duals = {}, {}
    for eps, (mesh, _phys, model, bd, init, scfg) in members.items():
        duals[eps] = DualTimeDerivative(mesh, scfg.dt)
        try:
            results[eps] = run(init, mesh, model, bd, scfg,
                               observer=duals[eps])
        except (NumericalFailure, LinearSolveFailure) as exc:
            # the finished members, the failing one's records before its
            # failing step, and a summary naming that member
            _write_scan_diagnostics(outdir, {
                **{e: r.records for e, r in results.items()},
                eps: exc.records})
            lines = ([f"epsilon scan over {list(all_eps)}"]
                     + [_member_line(e, r, duals[e])
                        for e, r in results.items()]
                     + [f"eps={eps:g}: " + line
                        for line in _failure_lines(exc, scfg.dt)])
            (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
            print(f"numerical failure in the eps={eps:g} member: {exc}",
                  file=sys.stderr)
            return EXIT_NUMERICAL_FAILURE

    mesh0, u_ref = members[0.0][0], results[0.0].final_state.u
    scaling = apriori_scaling_check({e: results[e] for e in EPS_SCAN_VALUES})
    distances = {e: l2_norm(mesh0, results[e].final_state.u - u_ref)
                 for e in EPS_SCAN_VALUES}
    ordered = sorted(EPS_SCAN_VALUES, reverse=True)
    monotone = all(distances[a] >= distances[b] - 1e-14
                   for a, b in zip(ordered, ordered[1:]))
    checks = [scaling, CheckReport(
        ok=monotone, name="eps_convergence",
        message="terminal L2 distance to the unregularized run "
                + ("decreases" if monotone else "does not decrease")
                + " with epsilon: "
                + ", ".join(f"{e:g}: {distances[e]:.6g}" for e in ordered))]

    lines = [f"epsilon scan over {list(all_eps)}"]
    for e in all_eps:
        lines.append(_member_line(e, results[e], duals[e])
                     + (f" dist_to_eps0={distances[e]:.8g}" if e else ""))
    lines.extend(map(_check_line, checks))
    _write_scan_diagnostics(outdir, {e: results[e].records for e in all_eps})
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        for line in lines:
            print(line)
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscodiff",
        description="1D coupled concentration/stress diffusion simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, simulates=True):
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
        if simulates:
            p.add_argument("--out", default="viscodiff_out",
                           help="output directory (default: viscodiff_out)")
            p.add_argument("--dt", type=float, default=None,
                           help="override the time step")
            p.add_argument("--n-cells", type=int, default=None,
                           help="override the number of mesh cells")

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("config", help="path to a scenario file")
    common(p_run)

    p_pre = sub.add_parser("preset", help="simulate a built-in scenario")
    p_pre.add_argument("name", choices=sorted(cfgmod.PRESETS),
                       help="preset name")
    common(p_pre)

    p_chk = sub.add_parser("check-assumptions",
                           help="sampled coefficient bounds on the declared box")
    p_chk.add_argument("config", help="path to a scenario file")
    common(p_chk, simulates=False)

    p_fg = sub.add_parser("find-gamma",
                          help="scan for a decay-condition weight")
    p_fg.add_argument("config", help="path to a scenario file")
    common(p_fg, simulates=False)

    p_es = sub.add_parser("eps-scan",
                          help="regularization-strength sweep")
    p_es.add_argument("config", nargs="?", default=None,
                      help="base scenario file (default: built-in eps-scan)")
    common(p_es)
    return parser


def _load_config(args) -> ScenarioConfig:
    if args.verb == "preset":
        cfg = preset_config(args.name)
    elif args.verb == "eps-scan" and args.config is None:
        cfg = preset_config("eps-scan")
    else:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read {path}: {reason}") from exc
        cfg = parse_config(text)
    if args.verb in ("check-assumptions", "find-gamma"):
        return cfg
    return _override(cfg, args.dt, args.n_cells)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.verb in ("run", "preset"):
            return _cmd_run(cfg, Path(args.out), args.quiet)
        if args.verb == "check-assumptions":
            return _cmd_check_assumptions(cfg, args.quiet)
        if args.verb == "find-gamma":
            return _cmd_find_gamma(cfg, args.quiet)
        if args.verb == "eps-scan":
            return _cmd_eps_scan(cfg, Path(args.out), args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (EllipticityViolation, LongTimeConditionFailure,
            GammaSearchFailure, NonSmoothCoefficient) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (NumericalFailure, LinearSolveFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
