"""Runtime monitors: norms, mass, Lyapunov functional, estimate checks.

All L2-type norms are weighted by the consistent mass matrix and the
H1 seminorms use the unit stiffness form, so values change only by
quadrature error under mesh refinement.  Cumulative time integrals use
the trapezoid rule at the recording cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .coefficients import LongTimeCondition
from .discretization import (BoundaryData, Mesh, mesh_operators, pair,
                             tridiag_matvec)

__all__ = [
    "DiagnosticsRecord",
    "CheckReport",
    "CSV_COLUMNS",
    "record",
    "l2_norm",
    "homogenization_metric",
    "lyapunov_decay_check",
    "apriori_scaling_check",
    "mass_balance_check",
]

# absolute slack per step in decay checks, absorbing linear-solver round-off
DECAY_STEP_SLACK = 1e-8
# relative tolerance of the mass balance check
MASS_BALANCE_TOL = 1e-10
# relative growth allowed across the epsilon family in the a-priori check
APRIORI_MARGIN = 0.1


class DiagnosticsRecord(NamedTuple):
    """One row of diagnostics.csv; the fields are its columns, in order."""

    t: float
    mass: float
    l2_u: float
    h1semi_u: float
    l2_s: float
    h1semi_s: float
    lyapunov: float
    cum_grad_u: float
    cum_grad_s: float
    u_min: float
    u_max: float


CSV_COLUMNS = DiagnosticsRecord._fields


@dataclass
class CheckReport:
    ok: bool
    name: str
    message: str
    first_violation: Optional[int] = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _quadratic(main: np.ndarray, off: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(v, tridiag_matvec(main, off, v)))


def record(state, mesh: Mesh, gamma: float = 1.0,
           prev: Optional[DiagnosticsRecord] = None) -> DiagnosticsRecord:
    """Snapshot the monitored quantities for one state.

    ``gamma`` (the decay-condition weight Gamma) weights the
    concentration term in the Lyapunov functional; ``prev`` continues
    the running time integrals of the squared gradients.  The mass and
    the unit stiffness each act on (u, varsigma) in one product.
    """
    if gamma <= 0:
        raise ValueError("Gamma must be positive")
    ops = mesh_operators(mesh)
    u, s = state.u, state.sigma_v
    n = u.size
    us = pair(u, s)
    M_us = tridiag_matvec(ops.mass_pair_main, ops.mass_pair_off, us)
    K_us = tridiag_matvec(ops.unit_stiffness_pair_main,
                          ops.unit_stiffness_pair_off, us)
    Mu, Ms = M_us[:n], M_us[n + 1:-1]
    Ku, Ks = K_us[:n], K_us[n + 1:-1]
    l2u_sq = max(float(np.dot(u, Mu)), 0.0)
    h1u_sq = max(float(np.dot(u, Ku)), 0.0)
    l2s_sq = max(float(np.dot(s, Ms)), 0.0)
    h1s_sq = max(float(np.dot(s, Ks)), 0.0)
    if prev is None:
        cum_u = cum_s = 0.0
    else:
        dt = state.t - prev.t
        cum_u = prev.cum_grad_u + 0.5 * dt * (prev.h1semi_u ** 2 + h1u_sq)
        cum_s = prev.cum_grad_s + 0.5 * dt * (prev.h1semi_s ** 2 + h1s_sq)
    return DiagnosticsRecord(
        t=float(state.t),
        mass=float(Mu.sum()),
        l2_u=math.sqrt(l2u_sq),
        h1semi_u=math.sqrt(h1u_sq),
        l2_s=math.sqrt(l2s_sq),
        h1semi_s=math.sqrt(h1s_sq),
        lyapunov=0.5 * gamma * gamma * l2u_sq + 0.5 * h1s_sq,
        cum_grad_u=cum_u,
        cum_grad_s=cum_s,
        u_min=float(u.min()),
        u_max=float(u.max()),
    )


def l2_norm(mesh: Mesh, v: np.ndarray) -> float:
    """Mass-weighted L2 norm sqrt(v . M v)."""
    ops = mesh_operators(mesh)
    return float(np.sqrt(max(_quadratic(ops.mass_main, ops.mass_off, v), 0.0)))


def homogenization_metric(state, mesh: Mesh) -> float:
    """Mass-weighted L2 distance of u from its mesh mean; zero iff constant."""
    ops = mesh_operators(mesh)
    ubar = float(np.sum(tridiag_matvec(ops.mass_main, ops.mass_off,
                                       state.u))) / mesh.L
    return l2_norm(mesh, state.u - ubar)


def lyapunov_decay_check(series: Sequence[DiagnosticsRecord],
                         lt: LongTimeCondition) -> CheckReport:
    """Monotone decay of the Lyapunov functional and the bounds it implies.

    Intended for runs with no interior forcing and zero influx.  Checks
    per-step non-increase (with per-step slack), that the cumulative
    gradient integrals stay below lyapunov(0)/min(Gamma_0*Gamma^2, Gamma_0),
    and the combined dissipation inequality
    L_k + Gamma_0*min(Gamma^2, 1)*sum_j dt*(|u_x|^2 + |s_x|^2)_j <= L_0.
    """
    G, G0 = lt.Gamma, lt.Gamma_0
    tol = DECAY_STEP_SLACK
    lyap0 = series[0].lyapunov
    bound = lyap0 / min(G0 * G * G, G0) + tol
    # the implicit scheme controls the right-endpoint quadrature of the
    # gradient integrals, so the inequality sums it here rather than
    # using the trapezoid running totals
    cum_right = 0.0
    w = G0 * min(G * G, 1.0)
    for k in range(1, len(series)):
        prev, rec = series[k - 1], series[k]
        cum_right += (rec.t - prev.t) * (rec.h1semi_u ** 2 + rec.h1semi_s ** 2)
        if rec.lyapunov > prev.lyapunov + tol:
            message = (f"Lyapunov increase at step {k} (t={rec.t:.6g}): "
                       f"{prev.lyapunov:.12g} -> {rec.lyapunov:.12g}")
        elif rec.cum_grad_u > bound or rec.cum_grad_s > bound:
            message = (f"cumulative gradient integral exceeds the decay bound "
                       f"{bound:.6g} at step {k}")
        elif rec.lyapunov + w * cum_right > lyap0 + tol * (k + 1):
            message = (f"dissipation inequality fails at step {k} "
                       f"(t={rec.t:.6g}): {rec.lyapunov:.12g} + "
                       f"{w * cum_right:.12g} > {lyap0:.12g}")
        else:
            continue
        return CheckReport(ok=False, name="lyapunov_decay",
                           first_violation=k, message=message)
    return CheckReport(
        ok=True, name="lyapunov_decay",
        message=f"non-increasing over {len(series)} records "
                f"(initial {lyap0:.6g}, final {series[-1].lyapunov:.6g})",
        details={"gradient_bound": bound, "combined_estimate_ok": True})


def mass_balance_check(series: Sequence[DiagnosticsRecord], bd: BoundaryData,
                       *, epsilon: float = 0.0) -> CheckReport:
    """Total mass must track the time-accumulated boundary influx exactly.

    Assumes the series was recorded every step, so the expected mass
    follows the stepping rule term by term:
    m_k = (m_{k-1} + dt*(phi_left + phi_right)(t_k)) / (1 + dt*epsilon),
    the regularization removing dt*epsilon*m_k per step.
    """
    expected = series[0].mass
    scale = 1.0 + abs(expected)
    for k in range(1, len(series)):
        dt = series[k].t - series[k - 1].t
        expected = (expected + dt * (float(bd.phi_left(series[k].t))
                                     + float(bd.phi_right(series[k].t)))
                    ) / (1.0 + dt * epsilon)
        drift = series[k].mass - expected
        if abs(drift) > MASS_BALANCE_TOL * scale:
            return CheckReport(
                ok=False, name="mass_balance", first_violation=k,
                message=(f"mass drift {drift:.3e} at step {k} "
                         f"(t={series[k].t:.6g}) exceeds "
                         f"{MASS_BALANCE_TOL:g} relative"))
    return CheckReport(
        ok=True, name="mass_balance",
        message=(f"mass tracks influx over {len(series) - 1} steps "
                 f"(net gain {series[-1].mass - series[0].mass:.12g})"))


def apriori_scaling_check(runs: Mapping[float, "RunResult"]) -> CheckReport:
    """Boundedness of the regularization-energy family across epsilon.

    The epsilon-weighted H2-type energies of each run must stay within
    (1 + APRIORI_MARGIN) of the largest-epsilon run's values, and the
    sup-in-time H1 norm of the stress must stay within that relative
    margin across the family.  A single run passes vacuously.
    """
    if len(runs) <= 1:
        return CheckReport(ok=True, name="apriori_scaling",
                           message="single run: vacuously bounded")
    eps_sorted = sorted(runs, reverse=True)
    ref = runs[eps_sorted[0]]
    details = {
        "reg_energy_u": {e: runs[e].reg_energy_u for e in eps_sorted},
        "reg_energy_s": {e: runs[e].reg_energy_s for e in eps_sorted},
        "sup_h1_s": {e: runs[e].sup_h1_s for e in eps_sorted},
    }
    floor = 1e-12
    margin = APRIORI_MARGIN
    for e in eps_sorted[1:]:
        r = runs[e]
        if r.reg_energy_u > (1 + margin) * ref.reg_energy_u + floor:
            return CheckReport(
                ok=False, name="apriori_scaling", details=details,
                message=(f"eps-weighted H2 energy of u grows: "
                         f"{r.reg_energy_u:.6g} at eps={e:g} vs "
                         f"{ref.reg_energy_u:.6g} at eps={eps_sorted[0]:g}"))
        if r.reg_energy_s > (1 + margin) * ref.reg_energy_s + floor:
            return CheckReport(
                ok=False, name="apriori_scaling", details=details,
                message=f"eps-weighted H2 energy of stress grows at eps={e:g}")
    sup_vals = [runs[e].sup_h1_s for e in eps_sorted]
    lo, hi = min(sup_vals), max(sup_vals)
    if hi > (1 + margin) * lo + floor:
        return CheckReport(
            ok=False, name="apriori_scaling", details=details,
            message=(f"sup-in-time H1 norm of stress spreads beyond "
                     f"{margin:.0%}: [{lo:.6g}, {hi:.6g}]"))
    return CheckReport(
        ok=True, name="apriori_scaling", details=details,
        message=(f"bounded across eps={eps_sorted}: sup H1(s) in "
                 f"[{lo:.6g}, {hi:.6g}]"))

