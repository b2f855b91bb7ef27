"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line and then asserts, so the
printed verdict always matches the pytest outcome.  Output capture is
disabled for this module so the verdict lines appear in any pytest run.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from viscodiff.cli import EXIT_OK, main
from viscodiff.coefficients import (
    Box,
    _coefficients,
    check_longtime_condition,
    constant_model,
    make_scalar_model,
    physical_from_models,
    transform,
)
from viscodiff.config import (
    build_boundary,
    build_initial,
    build_mesh_from,
    build_physical,
    build_solver_config,
    longtime_box,
    preset_config,
)
from viscodiff.diagnostics import lyapunov_decay_check, mass_balance_check
from viscodiff.discretization import (
    ZERO_INFLUX,
    BoundaryData,
    build_mesh,
    mesh_operators,
    tridiag_matvec,
)
from viscodiff.solver import InitialData, SolverConfig, run


_CAPSYS = None


@pytest.fixture(autouse=True)
def _show_verdicts(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, detail


def _fickian_phys():
    return physical_from_models(
        D0=make_scalar_model("constant", value=1.0),
        E0=make_scalar_model("constant", value=0.0),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("constant", value=1.0),
        mu0=make_scalar_model("constant", value=0.0),
        nu0=make_scalar_model("constant", value=0.0),
    )


def _l2(mesh, v):
    ops = mesh_operators(mesh)
    Mv = tridiag_matvec(ops.mass_main, ops.mass_off, v)
    return float(np.sqrt(max(v @ Mv, 0.0)))


def _fickian_final(N, dt=1e-4, T=0.1, output_every=None):
    mesh = build_mesh(1.0, N)
    u0 = np.cos(math.pi * mesh.nodes)
    init = InitialData(u0, np.zeros_like(u0), _fickian_phys())
    res = run(init, mesh, constant_model(D=1.0), ZERO_INFLUX,
              SolverConfig(dt=dt, T_end=T), output_every=output_every)
    return mesh, res


def test_criterion_1_fickian_limit():
    """L2 error vs the decaying cosine <= 5e-3; spatial part drops ~4x."""
    mesh, res = _fickian_final(256, output_every=100)
    u0 = np.cos(math.pi * mesh.nodes)
    max_err = 0.0
    for state in res.trajectory:
        exact = math.exp(-math.pi ** 2 * state.t) * u0
        max_err = max(max_err, _l2(mesh, state.u - exact))

    # Richardson-style split of the spatial error: successive differences
    # between N, 2N, 4N solutions at the final time scale as h^2
    _, r512 = _fickian_final(512)
    _, r1024 = _fickian_final(1024)
    d_256 = _l2(mesh, res.final_state.u - r512.final_state.u[::2])
    mesh512 = build_mesh(1.0, 512)
    d_512 = _l2(mesh512, r512.final_state.u - r1024.final_state.u[::2])
    ratio = d_256 / d_512
    ok = max_err <= 5e-3 and 3.0 <= ratio <= 5.0
    _verdict(1, ok, f"Fickian limit: max L2 error {max_err:.3e} (tol 5e-3), "
                    f"spatial-error reduction factor {ratio:.2f} (~4 expected)")


def test_criterion_2_mass_balance():
    """Zero influx conserves mass over 1e5 steps; unit influx gains 1.0."""
    mesh = build_mesh(1.0, 32)
    model = constant_model(D=1.0, E=0.1, beta1=-1.0, gamma=0.5)
    u0 = 0.5 + 0.3 * np.cos(math.pi * mesh.nodes)
    init = InitialData(u0, np.zeros_like(u0), _fickian_phys())
    res = run(init, mesh, model, ZERO_INFLUX,
              SolverConfig(dt=1e-3, T_end=100.0))
    assert len(res.records) == 100_001
    mass0 = res.records[0].mass
    drift = max(abs(r.mass - mass0) for r in res.records)
    rel_drift = drift / (1.0 + abs(mass0))
    conserve_ok = rel_drift <= 1e-10

    bd = BoundaryData(phi_left=lambda t: 1.0, phi_right=lambda t: 0.0)
    init2 = InitialData(np.zeros(33), np.zeros(33), _fickian_phys())
    res2 = run(init2, mesh, constant_model(D=1.0), bd,
               SolverConfig(dt=1e-3, T_end=1.0))
    gain = res2.records[-1].mass - res2.records[0].mass
    gain_ok = abs(gain - 1.0) <= 1e-10
    ok = conserve_ok and gain_ok
    _verdict(2, ok, f"mass balance: zero-influx relative drift {rel_drift:.2e}"
                    f" over 1e5 steps (tol 1e-10), unit-influx gain error "
                    f"{abs(gain - 1.0):.2e} (tol 1e-10)")


def test_criterion_3_longtime_homogenization():
    """Homogenize preset: Gamma_0 > 0, Lyapunov decay, metric < 1e-4."""
    t_start = time.perf_counter()
    cfg = preset_config("homogenize")
    mesh = build_mesh_from(cfg)
    phys = build_physical(cfg)
    model = transform(phys)
    init = build_initial(cfg, mesh, phys)
    lt = check_longtime_condition(model, cfg["longtime.Gamma"],
                                  longtime_box(cfg))
    res = run(init, mesh, model, ZERO_INFLUX, build_solver_config(cfg),
              gamma=lt.Gamma)
    decay = lyapunov_decay_check(res.records, lt)
    L = mesh.L
    t_below = next(
        (r.t for r in res.records
         if math.sqrt(max(r.l2_u ** 2 - r.mass ** 2 / L, 0.0)) < 1e-4), None)
    elapsed = time.perf_counter() - t_start
    ok = (lt.Gamma_0 > 0 and decay.ok
          and t_below is not None and t_below < 50.0 and elapsed < 60.0)
    _verdict(3, ok, f"homogenization: Gamma_0={lt.Gamma_0:.3g}>0, Lyapunov "
                    f"{'non-increasing' if decay.ok else 'INCREASED'}, metric "
                    f"<1e-4 at t={t_below}, runtime {elapsed:.1f}s (<60s)")


def test_criterion_4_epsilon_scaling():
    """Regularization family: bounded H1/H2 quantities, monotone distance."""
    cfg = preset_config("eps-scan")
    mesh = build_mesh_from(cfg)
    phys = build_physical(cfg)
    model = transform(phys)
    bd = build_boundary(cfg)

    def run_eps(eps):
        init = build_initial(cfg, mesh, phys)
        sc = build_solver_config(cfg)
        sc.epsilon = eps
        return run(init, mesh, model, bd, sc)

    results = {eps: run_eps(eps) for eps in (0.0, 1e-2, 1e-3, 1e-4)}
    sups = [results[e].sup_h1_s for e in (1e-2, 1e-3, 1e-4)]
    a_ok = max(sups) <= 1.1 * min(sups)
    ref = results[1e-2]
    b_ok = all(results[e].reg_energy_u <= 1.1 * ref.reg_energy_u + 1e-12
               and results[e].reg_energy_s <= 1.1 * ref.reg_energy_s + 1e-12
               for e in (1e-3, 1e-4))
    u_ref = results[0.0].final_state.u

    def dist(e):
        return _l2(mesh, results[e].final_state.u - u_ref)

    d2, d3, d4 = dist(1e-2), dist(1e-3), dist(1e-4)
    c_ok = d2 >= d3 >= d4
    ok = a_ok and b_ok and c_ok
    _verdict(4, ok, f"epsilon scaling: sup H1(s) spread "
                    f"{max(sups) / min(sups) - 1:.1%} (<=10%), eps-weighted H2 "
                    f"bounded: {b_ok}, terminal distances "
                    f"{d2:.2e} >= {d3:.2e} >= {d4:.2e}: {c_ok}")


def test_criterion_5_coefficient_identities():
    """Closed-form values of the coefficient laws and gamma continuity."""
    beta0 = make_scalar_model("tanh", beta_G=1.0, beta_R=2.0, u_RG=0.5,
                              delta=0.05)
    mid_ok = abs(float(beta0(0.5)) - 0.5 * (2.0 + 1.0)) <= 1e-14
    sd = make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01)
    ends_ok = float(sd(0.0)) == 0.0 and float(sd(1.0)) == 0.0

    # constant-nu0 model: gamma(u) = m - b*c identically, so continuity at
    # u = 0 holds with the exact limit value
    c, b, m = 0.4, 1.3, 0.9
    phys = physical_from_models(
        D0=make_scalar_model("constant", value=1.0),
        E0=make_scalar_model("constant", value=0.0),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("constant", value=b),
        mu0=make_scalar_model("constant", value=m),
        nu0=make_scalar_model("constant", value=c),
    )
    model = transform(phys)
    g0 = float(model.gamma(0.0, 0.0, 0.0, 0.1))
    limit_ok = abs(g0 - (m - b * c)) <= 1e-14
    cont_ok = all(
        abs(float(model.gamma(0.0, 0.0, u, 0.1)) - g0) <= 1e-12 + 1e-9 * u
        for u in np.geomspace(1e-9, 1e-3, 25))
    ok = mid_ok and ends_ok and limit_ok and cont_ok
    _verdict(5, ok, f"coefficient identities: beta0 midpoint {mid_ok}, "
                    f"E0 endpoints exact {ends_ok}, gamma limit "
                    f"{g0:.12g} = {m - b * c:.12g} with continuity {cont_ok}")


def test_criterion_6_gradient_coefficient_oracle():
    """Analytic gradient coefficients match central differences to 1e-6."""
    phys = physical_from_models(
        D0=make_scalar_model("tanh", D_G=0.1, D_R=1.0, delta=0.05, u_RG=0.5),
        E0=make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("tanh", beta_G=1.0, beta_R=2.0, delta=0.05,
                                u_RG=0.5),
        mu0=make_scalar_model("tanh", lo=0.2, hi=0.8, delta=0.1, center=0.5),
        nu0=make_scalar_model("constant", value=0.3),
    )
    analytic = transform(phys)
    numeric = dataclasses.replace(analytic, partials=None)
    rng = np.random.default_rng(2024)
    u = rng.uniform(0.05, 1.0, 100)
    s = rng.uniform(-1.0, 1.0, 100)
    worst = 0.0
    for a, n in zip(_coefficients(analytic, 0.0, 0.0, u, s)[5:],
                    _coefficients(numeric, 0.0, 0.0, u, s)[5:]):
        worst = max(worst, float(np.max(np.abs(a - n) / (1.0 + np.abs(a)))))
    ok = worst <= 1e-6
    _verdict(6, ok, f"gradient coefficients: worst analytic-vs-FD relative "
                    f"deviation {worst:.2e} over 100 random points (tol 1e-6)")


def test_criterion_7_condition_checker():
    """Two closed-form quadratic-form margins to 1e-12."""
    box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
    lt_a = check_longtime_condition(
        constant_model(D=1.0, E=0.5, beta1=-1.0, gamma=0.5), 1.0, box)
    lt_b = check_longtime_condition(
        constant_model(D=1.0, E=1.0, beta1=-1.0, gamma=0.0), 1.0, box)
    err_a = abs(lt_a.Gamma_0 - 1.0)
    err_b = abs(lt_b.Gamma_0 - 0.5)
    ok = err_a <= 1e-12 and err_b <= 1e-12
    _verdict(7, ok, f"condition checker: Gamma_0 errors {err_a:.2e} (vs 1) "
                    f"and {err_b:.2e} (vs 0.5), tol 1e-12")


def test_criterion_8_phenomenology(tmp_path):
    """Overshoot and front signatures recorded in summary.txt (non-gating)."""
    verdicts = {}
    for preset in ("sorption", "case2-front"):
        out = tmp_path / preset
        code = main(["preset", preset, "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        text = (out / "summary.txt").read_text()
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("signature detected:"))
        verdicts[preset] = line.split(":", 1)[1].strip()
    # the report itself is the deliverable; the expected signatures are
    # present on the shipped presets
    ok = all(v in ("yes", "no") for v in verdicts.values())
    detected = verdicts["sorption"] == "yes" and verdicts["case2-front"] == "yes"
    _verdict(8, ok and detected,
             f"phenomenology: sorption overshoot detected: "
             f"{verdicts['sorption']}; case2 front linear-vs-sqrt(t) "
             f"detected: {verdicts['case2-front']}")
