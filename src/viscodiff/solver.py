"""Semi-implicit time stepping for the coupled concentration/stress system.

Each step lags the coefficient fields to the previous state, solves the
concentration update implicitly in the diffusion term (banded SPD
solve), then updates the transformed stress nodewise with the decay
term implicit and the new concentration driving it.  An optional
fourth-order regularization term (strength epsilon) can be added to
both equations; it turns the stress update into a banded solve too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dptsv, dpttrf, dpttrs
# not called here: the step kernel calls LAPACK directly.  They stay
# module attributes because perfbench/tracing.py wraps them by name.
from scipy.linalg import solve_banded, solveh_banded  # noqa: F401

from .coefficients import PhysicalCoefficients, TransformedModel
from .diagnostics import DiagnosticsRecord, record
from .discretization import (
    BoundaryData,
    Mesh,
    assemble_flux_vector,
    boundary_functional,
    mesh_operators,
    stiffness_diagonals,
    tridiag_matvec,
)

__all__ = [
    "State",
    "SolverConfig",
    "InitialData",
    "RunResult",
    "NumericalFailure",
    "LinearSolveFailure",
    "step",
    "step_regularized",
    "run",
    "compute_flux",
    "reconstruct_sigma",
]


class NumericalFailure(Exception):
    """Non-finite state detected; carries the offending step index and time."""

    def __init__(self, step_index: int, t: float, what: str):
        self.step_index = step_index
        self.t = t
        super().__init__(f"non-finite {what} at step {step_index}, t={t:.6g}")


class LinearSolveFailure(Exception):
    """Singular or indefinite step system (discrete ellipticity violation)."""


@dataclass
class State:
    """Time plus nodal concentration u and transformed stress varsigma."""

    t: float
    u: np.ndarray
    sigma_v: np.ndarray

    def check(self, mesh: Mesh) -> None:
        n = mesh.N + 1
        if self.u.shape != (n,) or self.sigma_v.shape != (n,):
            raise ValueError("field lengths do not match the mesh")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.sigma_v))):
            raise ValueError("state contains non-finite entries")

    def copy(self) -> "State":
        return State(self.t, self.u.copy(), self.sigma_v.copy())


@dataclass
class SolverConfig:
    dt: float
    T_end: float
    epsilon: float = 0.0
    stress_scheme: str = "implicit-decay"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T_end < 0:
            raise ValueError("T_end must be non-negative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.stress_scheme not in ("implicit-decay", "explicit"):
            raise ValueError(f"unknown stress scheme {self.stress_scheme!r}")
        steps = self.T_end / self.dt  # a whole number, up to round-off
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ValueError(f"T_end={self.T_end:g} is not a multiple of "
                             f"dt={self.dt:g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T_end / self.dt))


class InitialData:
    """Initial concentration and physical stress; transformed stress derived."""

    def __init__(self, u0, sigma0, phys: PhysicalCoefficients):
        self.u0 = np.asarray(u0, dtype=float)
        self.sigma0 = np.asarray(sigma0, dtype=float)
        if self.u0.shape != self.sigma0.shape:
            raise ValueError("u0 and sigma0 must have the same shape")
        if not (np.all(np.isfinite(self.u0)) and np.all(np.isfinite(self.sigma0))):
            raise ValueError("initial data must be finite")
        shift = np.asarray(phys.nu0_antiderivative(self.u0), dtype=float)
        self.varsigma0 = self.sigma0 - shift
        # round-trip consistency of the change of variables
        back = self.varsigma0 + shift
        if np.max(np.abs(back - self.sigma0)) > 1e-12 * (
                1.0 + np.max(np.abs(self.sigma0))):
            raise ValueError("change of variables is not self-consistent")
        self._antiderivative = phys.nu0_antiderivative

    def initial_state(self) -> State:
        return State(t=0.0, u=self.u0.copy(), sigma_v=self.varsigma0.copy())


def reconstruct_sigma(state: State, phys: PhysicalCoefficients) -> np.ndarray:
    """Physical stress sigma = varsigma + int_0^u nu0."""
    return state.sigma_v + np.asarray(phys.nu0_antiderivative(state.u), dtype=float)


def compute_flux(state: State, mesh: Mesh,
                 phys: PhysicalCoefficients) -> np.ndarray:
    """Element-centered flux J = -D0 u' - E0 sigma' + M0 u."""
    sigma = reconstruct_sigma(state, phys)
    du = np.diff(state.u) / mesh.h
    dsig = np.diff(sigma) / mesh.h
    um = 0.5 * (state.u[:-1] + state.u[1:])
    sm = 0.5 * (sigma[:-1] + sigma[1:])
    xm = mesh.midpoints
    t = state.t
    D0 = np.asarray(phys.D0(t, xm, um, sm), dtype=float)
    E0 = np.asarray(phys.E0(t, xm, um, sm), dtype=float)
    M0 = np.asarray(phys.M0(t, xm, um, sm), dtype=float)
    return -D0 * du - E0 * dsig + M0 * um


class _Stepper:
    """Per-run workspace: pre-assembled operators and the step kernel.

    The epsilon = 0 concentration system is tridiagonal SPD and goes to
    LAPACK dptsv.  With epsilon > 0 both step systems are pentadiagonal
    and go to dgbsv in (2, 2) band storage, with the two rows of fill
    space on top that dgbsv needs; the constant regularization bands
    dt*eps*M_L(I+L_h)^2 (concentration) and dt*eps*(I+L_h)^2 (stress)
    are built once, and each step adds its lagged tridiagonal part to a
    copy of them.
    """

    def __init__(self, mesh: Mesh, model: TransformedModel, bd: BoundaryData,
                 cfg: SolverConfig):
        self.mesh = mesh
        self.model = model
        self.bd = bd
        self.cfg = cfg
        self.ops = mesh_operators(mesh)
        self.n = mesh.N + 1
        if cfg.epsilon > 0:
            w = cfg.dt * cfg.epsilon
            bilap = self.ops.bilaplacian
            self.reg_u = w * _bands(sp.diags(self.ops.lumped) @ bilap)
            self.reg_s = w * _bands(bilap)

    def _coefficient_fields(self, state: State):
        shape = (self.n,)
        return [v if v.shape == shape else np.broadcast_to(v, shape)
                for v in self.model.fields(state.t, self.mesh.nodes,
                                           state.u, state.sigma_v)]

    def advance(self, state: State, t_next: float, step_index: int = 0) -> State:
        mesh, cfg, ops = self.mesh, self.cfg, self.ops
        dt, eps = cfg.dt, cfg.epsilon
        fields = self._coefficient_fields(state)
        bad = _nonfinite(_FIELD_NAMES, fields)
        if bad is not None:
            raise NumericalFailure(step_index, state.t, f"{bad} coefficient field")
        Dn, En, fn, b1n, gn = fields

        kD_main, kD_off = stiffness_diagonals(mesh, Dn)
        kE_main, kE_off = stiffness_diagonals(mesh, En)
        psi = boundary_functional(mesh, self.bd, t_next)
        rhs = (tridiag_matvec(ops.mass_main, ops.mass_off, state.u)
               - dt * (tridiag_matvec(kE_main, kE_off, state.sigma_v)
                       + assemble_flux_vector(mesh, fn))
               + dt * psi)

        a_main = ops.mass_main + dt * kD_main
        a_off = ops.mass_off + dt * kD_off
        if eps == 0.0:
            _, _, u_next, info = dptsv(a_main, a_off, rhs, overwrite_d=1,
                                       overwrite_e=1, overwrite_b=1)
            if info > 0:
                raise LinearSolveFailure(
                    f"concentration system not SPD at step {step_index} "
                    f"(discrete ellipticity violation): {info}th leading "
                    "minor not positive definite")
        else:
            ab = self.reg_u.copy(order="F")
            ab[3, 1:] += a_off
            ab[4, :] += a_main
            ab[5, :-1] += a_off
            u_next = _solve_banded(ab, rhs, step_index, "concentration")

        drive = state.sigma_v + dt * gn * u_next
        if cfg.stress_scheme == "explicit":
            if dt * float(np.max(np.abs(b1n))) >= 1.0:
                raise ValueError(
                    "explicit stress scheme requires dt * max|beta1| < 1")
            s_next = state.sigma_v + dt * (b1n * state.sigma_v + gn * u_next)
            if eps > 0:
                s_next -= dt * eps * (ops.bilaplacian @ state.sigma_v)
        elif eps == 0.0:
            denom = 1.0 - dt * b1n
            if np.any(denom <= 0):
                raise LinearSolveFailure(
                    f"implicit stress decay singular at step {step_index}: "
                    "dt * beta1 >= 1 with positive beta1")
            s_next = drive / denom
        else:
            ab = self.reg_s.copy(order="F")
            ab[4, :] += 1.0 - dt * b1n
            s_next = _solve_banded(ab, drive, step_index, "stress")

        bad = _nonfinite(("concentration", "stress"), (u_next, s_next))
        if bad is not None:
            raise NumericalFailure(step_index, t_next, bad)
        return State(t=t_next, u=u_next, sigma_v=s_next)


_FIELD_NAMES = ("diffusion", "stress-diffusion", "forcing", "relaxation",
                "stress-drive")


def _nonfinite(names, arrays) -> Optional[str]:
    """Name of the first array holding a NaN or inf, or None.

    A finite total proves every entry finite, so the arrays are tested
    one by one only when it is not (a non-finite entry, or overflow).
    """
    if math.isfinite(sum(a.sum() for a in arrays)):
        return None
    for name, a in zip(names, arrays):
        if not np.all(np.isfinite(a)):
            return name
    return None


def _bands(mat: sp.spmatrix) -> np.ndarray:
    """(2, 2) band storage of a pentadiagonal matrix in dgbsv's layout.

    Rows 2..6 hold the diagonals as solve_banded reads them; rows 0..1
    are the fill space of the LU factors.
    """
    dia = sp.dia_matrix(mat)
    ab = np.zeros((7, dia.shape[0]), order="F")
    for off, row in zip(dia.offsets, dia.data):
        if abs(off) > 2:
            raise ValueError("matrix bandwidth exceeds 2")
        ab[4 - off, :] = row
    return ab


def _solve_banded(ab: np.ndarray, rhs: np.ndarray, step_index: int,
                  what: str) -> np.ndarray:
    """Solve the (2, 2) band system; ab and rhs are overwritten."""
    _, _, x, info = dgbsv(2, 2, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinearSolveFailure(
            f"{what} system singular at step {step_index}: singular matrix")
    return x


def step(state: State, mesh: Mesh, model: TransformedModel, bd: BoundaryData,
         cfg: SolverConfig) -> State:
    """One semi-implicit step of the unregularized system (epsilon must be 0)."""
    if cfg.epsilon != 0.0:
        raise ValueError("step requires epsilon == 0; use step_regularized")
    return step_regularized(state, mesh, model, bd, cfg)


def step_regularized(state: State, mesh: Mesh, model: TransformedModel,
                     bd: BoundaryData, cfg: SolverConfig) -> State:
    """One step with the fourth-order regularization term added (any epsilon).

    With epsilon == 0 this is the plain step.
    """
    state.check(mesh)
    return _Stepper(mesh, model, bd, cfg).advance(state, state.t + cfg.dt)


@dataclass
class RunResult:
    """Trajectory snapshots plus per-step diagnostics and estimate quantities."""

    trajectory: List[State]
    records: List[DiagnosticsRecord]
    epsilon: float
    # epsilon-weighted cumulative squared H2-type norms (regularization energies)
    reg_energy_u: float
    reg_energy_s: float
    # cumulative squared dual-type norm of the discrete time derivative of u
    dual_time_derivative: float
    sup_h1_s: float

    @property
    def final_state(self) -> State:
        return self.trajectory[-1]


def run(init: InitialData, mesh: Mesh, model: TransformedModel,
        bd: BoundaryData, cfg: SolverConfig,
        output_every: Optional[int] = None, gamma: float = 1.0,
        observer: Optional[Callable[[State], None]] = None) -> RunResult:
    """Advance from t=0 to T_end, recording diagnostics every step.

    Snapshots are kept every ``output_every`` steps (always including
    the initial and final states).  The run is deterministic for fixed
    inputs; step failures propagate with their step index and time.
    """
    state = init.initial_state()
    state.check(mesh)
    stepper = _Stepper(mesh, model, bd, cfg)
    ops = stepper.ops

    n_steps = cfg.n_steps
    records = [record(state, mesh, gamma=gamma)]
    trajectory = [state.copy()]
    if observer is not None:
        observer(state)

    ml = ops.lumped
    mlK_main = ops.unit_stiffness_main
    mlK_off = ops.unit_stiffness_off
    # (M_L + K) for the dual-type norm solve, factored once: dpttrf then
    # dpttrs is what dptsv does, so each solve matches a dptsv call
    dual_d, dual_e, _ = dpttrf(ml + mlK_main, mlK_off)

    reg_u = reg_s = dual = 0.0
    sup_h1_s = _h1_norm(records[0], )

    for k in range(1, n_steps + 1):
        prev_u = state.u
        # k*dt, not a running sum, so step times do not drift from the grid
        state = stepper.advance(state, k * cfg.dt, step_index=k)
        rec = record(state, mesh, gamma=gamma, prev=records[-1])
        records.append(rec)
        sup_h1_s = max(sup_h1_s, _h1_norm(rec))

        if cfg.epsilon > 0:
            wu = state.u + (tridiag_matvec(mlK_main, mlK_off, state.u) / ml)
            ws = state.sigma_v + (
                tridiag_matvec(mlK_main, mlK_off, state.sigma_v) / ml)
            reg_u += cfg.epsilon * cfg.dt * float(np.sum(ml * wu * wu))
            reg_s += cfg.epsilon * cfg.dt * float(np.sum(ml * ws * ws))
        dudt = (state.u - prev_u) / cfg.dt
        load = ml * dudt
        y, _ = dpttrs(dual_d, dual_e, load)
        dual += cfg.dt * float(np.dot(load, y))

        if observer is not None:
            observer(state)
        if output_every and (k % output_every == 0) and k != n_steps:
            trajectory.append(state.copy())

    if n_steps > 0:
        trajectory.append(state.copy())
    return RunResult(trajectory=trajectory, records=records, epsilon=cfg.epsilon,
                     reg_energy_u=reg_u, reg_energy_s=reg_s,
                     dual_time_derivative=dual, sup_h1_s=sup_h1_s)


def _h1_norm(rec: DiagnosticsRecord) -> float:
    return float(np.hypot(rec.l2_s, rec.h1semi_s))
