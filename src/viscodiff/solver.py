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
from scipy.linalg.lapack import dgbsv, dpttrf, dpttrs
# not called here: the step kernel calls LAPACK directly.  They stay
# module attributes because perfbench/tracing.py wraps them by name.
from scipy.linalg import solve_banded, solveh_banded  # noqa: F401

from .coefficients import PhysicalCoefficients, TransformedModel
from .diagnostics import DiagnosticsRecord, record
from .discretization import (
    BoundaryData,
    Mesh,
    band_matvec,
    boundary_functional,
    element_means,
    load_from_means,
    mesh_operators,
    pair,
    stiffness_from_means,
    tridiag_matvec,
)
# not called here: the step kernel assembles from element means.  It
# stays a module attribute because perfbench/tracing.py wraps it by name.
from .discretization import stiffness_diagonals  # noqa: F401

__all__ = [
    "State",
    "SolverConfig",
    "InitialData",
    "RunResult",
    "DualTimeDerivative",
    "NumericalFailure",
    "LinearSolveFailure",
    "step",
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
    """A step the scheme cannot take: a singular or indefinite step system
    (discrete ellipticity violation) or an unstable explicit stress update."""


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
        if not np.all(np.isfinite(self.varsigma0)):
            raise ValueError("initial transformed stress sigma0 - int_0^u0 nu0 "
                             "is not finite")
        # round-trip consistency of the change of variables, up to the
        # round-off of the larger of the two terms
        back = self.varsigma0 + shift
        if np.max(np.abs(back - self.sigma0)) > 1e-12 * (
                1.0 + np.max(np.abs(self.sigma0) + np.abs(shift))):
            raise ValueError("change of variables is not self-consistent")

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

    A step has two parts.  ``build`` is everything the lagged
    coefficient fields determine: it copies the five fields into the
    rows of one (5, n) buffer and tests them for finiteness with one
    sum, averages the rows D, E and f per element in one pass over them
    as one chain of 3n nodes, takes the stiffness bands of D and E from
    one scatter over their chain and the flux load from the f means,
    factors or assembles the concentration matrix M + dt*K(D), and
    forms the stress update's 1 - dt*beta1.  ``advance`` then builds
    the right-hand side, solves and updates varsigma.  The buffer is
    scratch space only: every step returns freshly allocated u and
    varsigma.

    Every step runs ``build``, except in a run whose model is frozen
    (``TransformedModel.frozen``): its fields cannot change, so the
    step-1 build is kept for every later step, and a non-finite field,
    an indefinite system or an unstable stress update fails at step 1.

    The epsilon = 0 concentration system is tridiagonal SPD: ``build``
    factors it with LAPACK dpttrf and ``advance`` solves with dpttrs,
    which is what dptsv does.  With epsilon > 0 both step systems are
    pentadiagonal: ``build`` assembles them in (2, 2) band storage, with
    the two rows of fill space on top that dgbsv needs, and ``advance``
    solves them with dgbsv, on a copy when the build is kept.  The
    cached regularization bands are scaled once to dt*eps*M_L(I+L_h)^2
    (concentration) and dt*eps*(I+L_h)^2 (stress), and each build adds
    its lagged tridiagonal part to a copy of them.
    """

    def __init__(self, mesh: Mesh, model: TransformedModel, bd: BoundaryData,
                 cfg: SolverConfig):
        self.mesh = mesh
        self.model = model
        self.bd = bd
        self.cfg = cfg
        self.ops = mesh_operators(mesh)
        self.n = mesh.N + 1
        self.fields = np.empty((len(_FIELD_NAMES), self.n))
        self.frozen = model.frozen
        self.kept = None  # the step-1 build of a frozen run
        if cfg.epsilon > 0:
            w = cfg.dt * cfg.epsilon
            self.reg_u = w * self.ops.lumped_bilaplacian
            self.reg_s = w * self.ops.bilaplacian

    def build(self, state: State, step_index: int) -> tuple:
        """The lagged part of the step from ``state``: the stiffness bands
        of E, the flux load of f, the concentration system (dpttrf's
        factors at epsilon = 0, else its bands), beta1, gamma, and the
        stress update's divisor 1 - dt*beta1 (epsilon = 0), its bands
        (epsilon > 0), or None (explicit scheme)."""
        mesh, cfg, ops = self.mesh, self.cfg, self.ops
        dt, eps = cfg.dt, cfg.epsilon
        n, fields = self.n, self.fields
        # a field returned as a scalar fills its row by broadcasting
        for i, v in enumerate(self.model.fields(state.t, mesh.nodes, state.u,
                                                state.sigma_v)):
            fields[i] = v
        bad = _nonfinite(_FIELD_NAMES, fields, fields.sum())
        if bad is not None:
            raise NumericalFailure(step_index, state.t, f"{bad} coefficient field")
        b1n, gn = fields[3], fields[4]

        # element means of the rows D, E, f read as one chain of 3n
        # nodes; the two means that straddle a row joint are not used
        means = element_means(fields[:3].reshape(-1))
        # the bands of D and E from their chain, with zero weight on the
        # joint element: 0.0 + 0.0 and (0.0 + x) + 0.0 are exact, so each
        # row's bands equal stiffness_diagonals of that row, bit for bit
        abar = means[:2 * n - 1] / mesh.h
        abar[n - 1] = 0.0
        k_main, k_off = stiffness_from_means(abar)

        a_main = ops.mass_main + dt * k_main[:n]
        a_off = ops.mass_off + dt * k_off[:n - 1]
        if eps == 0.0:
            d, e, info = dpttrf(a_main, a_off, overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise LinearSolveFailure(
                    f"concentration system not SPD at step {step_index} "
                    f"(discrete ellipticity violation): {info}th leading "
                    "minor not positive definite")
            u_system = (d, e)
        else:
            u_system = self.reg_u.copy(order="F")
            u_system[3, 1:] += a_off
            u_system[4, :] += a_main
            u_system[5, :-1] += a_off

        if cfg.stress_scheme == "explicit":
            rate = dt * float(np.abs(b1n).max())
            if rate >= 1.0:
                raise LinearSolveFailure(
                    f"explicit stress update unstable at step {step_index}: "
                    f"dt * max|beta1| = {rate:.6g} >= 1")
            s_system = None
        elif eps == 0.0:
            s_system = 1.0 - dt * b1n
            # beta1 is finite here, so the minimum is never NaN
            if s_system.min() <= 0:
                raise LinearSolveFailure(
                    f"implicit stress decay singular at step {step_index}: "
                    "dt * beta1 >= 1 with positive beta1")
        else:
            s_system = self.reg_s.copy(order="F")
            s_system[4, :] += 1.0 - dt * b1n
        return (k_main[n:], k_off[n:], load_from_means(means[2 * n:]),
                u_system, b1n, gn, s_system)

    def advance(self, state: State, t_next: float, step_index: int = 0) -> State:
        built = self.kept
        if built is None:
            built = self.build(state, step_index)
            if self.frozen:
                self.kept = built
        kE_main, kE_off, load, u_system, b1n, gn, s_system = built
        ops, cfg = self.ops, self.cfg
        dt, eps = cfg.dt, cfg.epsilon
        psi = boundary_functional(self.mesh, self.bd, t_next)
        rhs = (tridiag_matvec(ops.mass_main, ops.mass_off, state.u)
               - dt * (tridiag_matvec(kE_main, kE_off, state.sigma_v) + load)
               + dt * psi)
        if eps == 0.0:
            u_next, _ = dpttrs(*u_system, rhs, overwrite_b=1)
        else:
            # dgbsv factors the bands in place, unless they are kept
            u_next = _solve_banded(u_system, rhs, step_index, "concentration",
                                   not self.frozen)

        if cfg.stress_scheme == "explicit":
            s_next = state.sigma_v + dt * (b1n * state.sigma_v + gn * u_next)
            if eps > 0:
                s_next -= dt * eps * band_matvec(ops.bilaplacian, state.sigma_v)
        else:
            drive = state.sigma_v + dt * gn * u_next
            if eps == 0.0:
                s_next = drive / s_system
            else:
                s_next = _solve_banded(s_system, drive, step_index, "stress",
                                       not self.frozen)

        bad = _nonfinite(("concentration", "stress"), (u_next, s_next),
                         u_next.sum() + s_next.sum())
        if bad is not None:
            raise NumericalFailure(step_index, t_next, bad)
        return State(t=t_next, u=u_next, sigma_v=s_next)


_FIELD_NAMES = ("diffusion", "stress-diffusion", "forcing", "relaxation",
                "stress-drive")


def _nonfinite(names, arrays, total: float) -> Optional[str]:
    """Name of the first of arrays holding a NaN or inf, or None.

    ``total`` is a sum over all of them.  A finite total proves every
    entry finite, so the arrays are tested one by one only when it is
    not (a non-finite entry, or overflow).
    """
    if math.isfinite(total):
        return None
    for name, a in zip(names, arrays):
        if not np.all(np.isfinite(a)):
            return name
    return None


def _solve_banded(ab: np.ndarray, rhs: np.ndarray, step_index: int,
                  what: str, overwrite_ab: bool = True) -> np.ndarray:
    """Solve the (2, 2) band system; rhs, and ab if overwrite_ab, are
    overwritten."""
    _, _, x, info = dgbsv(2, 2, ab, rhs, overwrite_ab=overwrite_ab,
                          overwrite_b=1)
    if info > 0:
        raise LinearSolveFailure(
            f"{what} system singular at step {step_index}: singular matrix")
    return x


def step(state: State, mesh: Mesh, model: TransformedModel, bd: BoundaryData,
         cfg: SolverConfig) -> State:
    """One semi-implicit step, with the fourth-order regularization term
    when epsilon > 0."""
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
    # largest H1 norm of the transformed stress over the records
    sup_h1_s: float

    @property
    def final_state(self) -> State:
        return self.trajectory[-1]


class DualTimeDerivative:
    """Run observer: the cumulative squared dual-type norm of the discrete
    time derivative of u, the sum over steps of dt * l.(M_L + K)^-1 l with
    l = M_L (u^k - u^{k-1}) / dt."""

    def __init__(self, mesh: Mesh, dt: float):
        ops = mesh_operators(mesh)
        self.ml, self.dt = ops.lumped, dt
        # (M_L + K) factored once: dpttrf then dpttrs is what dptsv does,
        # so each solve matches a dptsv call
        self.d, self.e, _ = dpttrf(ops.lumped + ops.unit_stiffness_main,
                                   ops.unit_stiffness_off)
        self.value = 0.0
        self.prev_u = None

    def __call__(self, state: State) -> None:
        if self.prev_u is not None:
            load = self.ml * ((state.u - self.prev_u) / self.dt)
            y, _ = dpttrs(self.d, self.e, load)
            self.value += self.dt * float(np.dot(load, y))
        self.prev_u = state.u


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

    ml, n = ops.lumped, stepper.n
    dt, eps = cfg.dt, cfg.epsilon
    reg_u = reg_s = 0.0

    for k in range(1, n_steps + 1):
        # k*dt, not a running sum, so step times do not drift from the grid
        state = stepper.advance(state, k * dt, step_index=k)
        records.append(record(state, mesh, gamma=gamma, prev=records[-1]))

        if eps > 0:
            K_us = tridiag_matvec(ops.unit_stiffness_pair_main,
                                  ops.unit_stiffness_pair_off,
                                  pair(state.u, state.sigma_v))
            wu = state.u + K_us[:n] / ml
            ws = state.sigma_v + K_us[n + 1:-1] / ml
            reg_u += eps * dt * float((ml * wu * wu).sum())
            reg_s += eps * dt * float((ml * ws * ws).sum())

        if observer is not None:
            observer(state)
        if output_every and (k % output_every == 0) and k != n_steps:
            trajectory.append(state.copy())

    if n_steps > 0:
        trajectory.append(state.copy())
    sup_h1_s = float(np.max(np.hypot([r.l2_s for r in records],
                                     [r.h1semi_s for r in records])))
    return RunResult(trajectory=trajectory, records=records, epsilon=cfg.epsilon,
                     reg_energy_u=reg_u, reg_energy_s=reg_s, sup_h1_s=sup_h1_s)
