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

from .coefficients import PhysicalCoefficients, TransformedModel
from .diagnostics import BLOCK_ROWS, CSV_COLUMNS, Recorder, RecordTable
from .discretization import (
    BoundaryData,
    Mesh,
    element_means,
    load_from_means,
    mesh_operators,
    pair_bands,
    pair_rows,
    scalar,
    stiffness_from_means,
    tridiag_matvec,
)
from .lapack import Banded, Tridiagonal

# Not called here: run records a block of states at a time, and the step
# kernel assembles from element means, writes the boundary load's two
# entries itself and calls LAPACK through .lapack.  These names stay
# module attributes only because perfbench/tracing.py wraps them by name;
# solve_banded and solveh_banded are placeholders that nothing calls.
from .diagnostics import record  # noqa: F401
from .discretization import (  # noqa: F401
    boundary_functional, stiffness_diagonals)
solve_banded = solveh_banded = None

__all__ = [
    "State",
    "SolverConfig",
    "InitialData",
    "RunResult",
    "DualTimeDerivative",
    "StepFailure",
    "NumericalFailure",
    "LinearSolveFailure",
    "run",
    "compute_flux",
    "reconstruct_sigma",
]


class StepFailure(Exception):
    """A step the run cannot take.  ``run`` gives it, as ``records``, the
    records of the states before the failing step."""


class NumericalFailure(StepFailure):
    """Non-finite state detected; carries the offending step index and time."""

    def __init__(self, step_index: int, t: float, what: str):
        self.step_index = step_index
        self.t = t
        super().__init__(f"non-finite {what} at step {step_index}, t={t:.6g}")


class LinearSolveFailure(StepFailure):
    """A step the scheme cannot take: a singular or indefinite step system
    (discrete ellipticity violation or dt * beta1 >= 1)."""


class State:
    """Time plus nodal concentration u and transformed stress varsigma.

    A state is one float64 array, ``chain`` = [u, 0.0, varsigma, 0.0]
    (the layout of ``discretization.pair_bands``), with u and sigma_v
    views of it; none of the three can be rebound.  ``State(t, u,
    sigma_v)`` copies two 1-D arrays of one length into a fresh chain;
    ``of_chain`` wraps a filled chain without a copy, as
    ``_Stepper.advance`` wraps each state it returns.  Nothing in the
    package writes to a chain once its state is made.
    """

    __slots__ = ("t", "_chain", "_u", "_s")
    chain = property(lambda self: self._chain)
    u = property(lambda self: self._u)
    sigma_v = property(lambda self: self._s)

    def __init__(self, t: float, u, sigma_v):
        shape = np.shape(u)
        if len(shape) != 1 or np.shape(sigma_v) != shape:
            raise ValueError("u and sigma_v must be 1-D arrays of one length, "
                             f"not of shapes {shape} and {np.shape(sigma_v)}")
        self.t, self._chain = t, np.zeros(2 * shape[0] + 2)
        self._u, self._s = pair_rows(self._chain)
        self._u[:], self._s[:] = u, sigma_v

    @classmethod
    def of_chain(cls, t: float, chain: np.ndarray) -> "State":
        """The state at time t whose chain is ``chain`` itself."""
        state = cls.__new__(cls)
        state.t, state._chain = t, chain
        state._u, state._s = pair_rows(chain)
        return state

    def check(self, mesh: Mesh) -> None:
        if self.u.shape != (mesh.N + 1,):
            raise ValueError("field lengths do not match the mesh")
        if not np.all(np.isfinite(self.chain)):
            raise ValueError("state contains non-finite entries")


def grid_steps(t: float, dt: float) -> Optional[int]:
    """k when t is the step time k*dt up to round-off (1e-9 relative),
    else None."""
    steps = t / dt
    k = round(steps)
    return k if abs(steps - k) <= 1e-9 * max(steps, 1.0) else None


@dataclass
class SolverConfig:
    dt: float
    T_end: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("dt", "T_end", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T_end < 0:
            raise ValueError("T_end must be non-negative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if grid_steps(self.T_end, self.dt) is None:
            raise ValueError(f"T_end={self.T_end:g} is not a multiple of "
                             f"dt={self.dt:g}")

    @property
    def n_steps(self) -> int:
        return grid_steps(self.T_end, self.dt)


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

    def initial_state(self) -> State:
        return State(0.0, self.u0, self.varsigma0)


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
    coefficient fields determine: it has the model write the five
    fields into the rows of one (5, n) buffer and tests them for
    finiteness with one dot product, averages the rows D, E and f per
    element in one pass over them as one chain of 3n nodes, scatters
    each stiffness band into the array the step reads (K(E) into the
    chain bands, K(D) where M + dt*K(D) is then formed in place), takes
    the flux load from the f means and the stress update's
    1 - dt*beta1 and dt*gamma, and factors the step systems.
    ``advance`` then builds the right-hand side, solves and updates
    varsigma.

    ``advance`` forms M u and K(E) varsigma in one ``tridiag_matvec``
    over the state's chain [u, 0.0, varsigma, 0.0] (``State.chain``),
    against the ``pair_bands`` chain of [M; K(E)]: its mass half is
    written once per run here, and its K(E) half by each build.  Every
    pad holds 0.0 and every coupling to a pad is -0.0, so each real
    entry of the product equals that of the separate product, bit for
    bit.

    Every array a build or an advance writes, apart from the state it
    returns, is allocated once per run here and rewritten in place by
    ufuncs.  A step allocates only the chain of the state it returns,
    which it fills and wraps without a copy (``State.of_chain``), and
    the temporaries of laws that need one (cohen-e0's (u-1)^2, nu0's
    antiderivative), so every state it returns is fresh and is never
    written again.  A build writes only its own arrays and an advance
    only its own buffers, so a build that is kept is never overwritten.

    Every step runs ``build``, except in a run whose model is frozen
    (``TransformedModel.frozen``): its fields cannot change, so the
    step-1 build, factors included, is kept for every later step, and a
    non-finite field or a singular or indefinite system fails at step 1.

    The epsilon = 0 concentration system is tridiagonal SPD: ``build``
    factors it with LAPACK dpttrf and ``advance`` solves with dpttrs,
    and the stress update divides by 1 - dt*beta1.  With epsilon > 0
    both step systems are pentadiagonal, in (2, 2) band storage with
    the two rows of fill space on top: ``build`` factors them with
    dgbtrf and ``advance`` solves with dgbtrs.  Each pair gives the bits
    of dptsv or dgbsv.  The cached regularization bands are scaled once
    to dt*eps*M_L(I+L_h)^2 (concentration) and dt*eps*(I+L_h)^2
    (stress), and each build adds its lagged tridiagonal part to a copy
    of them.

    The LAPACK systems (``lapack.Tridiagonal``, ``lapack.Banded``) are
    bound once per run to the buffers here: the concentration system's
    right-hand side is ``rhs``, the mass half of the product, and the
    stress system's is ``stress``, each solved in place and then copied
    into the fresh state.
    """

    def __init__(self, mesh: Mesh, model: TransformedModel, cfg: SolverConfig):
        self.mesh = mesh
        self.model = model
        self.cfg = cfg
        self.ops = ops = mesh_operators(mesh)
        self.n = n = mesh.N + 1
        self.frozen = model.frozen
        self.kept = False  # set once a frozen run's step-1 build is made
        # the scalars the ufuncs take, as 0-d arrays (see ``scalar``)
        self.dt_, self.h_, self.one_ = map(scalar, (cfg.dt, mesh.h, 1.0))
        # written by build: the fields, the element means of D, E and f,
        # M + dt*K(D), the flux load, 1 - dt*beta1 and dt*gamma
        self.fields = np.empty((len(_FIELD_NAMES), n))
        self.means = np.empty(3 * n - 1)
        self.a_main, self.a_off = np.empty(n), np.empty(n - 1)
        self.load = np.empty(n)
        self.divisor = np.empty(n)
        self.dt_gamma = np.empty(n)
        # the chain bands of [M; K(E)]: the mass half is written here,
        # the K(E) half (``e_main``, ``e_off``) by build
        self.chain_main, self.chain_off = pair_bands(ops.mass_main,
                                                     ops.mass_off)
        self.e_main = self.chain_main[n + 1:-1]
        self.e_off = self.chain_off[n + 1:-1]
        # written by advance: the product of the chain bands and the
        # state's chain, whose rows M u (then the rhs, solved in place)
        # and K(E) varsigma are ``rhs`` and ``e_sigma``, the off-diagonal
        # terms of the product, the stress update's scratch, and dt
        # times the boundary load, whose interior entries stay 0.0
        self.product = np.empty(2 * n + 2)
        self.rhs, self.e_sigma = pair_rows(self.product)
        self.work = np.empty(2 * n + 1)
        self.stress = np.empty(n)
        self.influx = np.zeros(n)
        if cfg.epsilon == 0:
            self.u_solver = Tridiagonal(self.a_main, self.a_off, self.rhs)
        else:
            w = cfg.dt * cfg.epsilon
            self.reg_u = w * ops.lumped_bilaplacian
            self.reg_s = w * ops.bilaplacian
            self.u_bands = np.empty_like(self.reg_u, order="F")
            self.s_bands = np.empty_like(self.reg_s, order="F")
            self.u_solver = Banded(self.u_bands, self.rhs, 2, 2)
            self.s_solver = Banded(self.s_bands, self.stress, 2, 2)

    def build(self, state: State, step_index: int) -> None:
        """The lagged part of the step from ``state``, in the stepper's
        arrays: the K(E) half of the chain bands, ``load``, ``dt_gamma``,
        ``divisor`` (1 - dt*beta1), and the factors of the concentration
        system and, at epsilon > 0, of the stress system."""
        mesh, cfg = self.mesh, self.cfg
        dt_, eps = self.dt_, cfg.epsilon
        n, ops = self.n, self.ops
        fields = self.model.fields(state.t, mesh.nodes, state.u,
                                   state.sigma_v, out=self.fields)
        total = np.vdot(fields, fields)
        if not math.isfinite(total):
            bad = _nonfinite(_FIELD_NAMES, fields)
            if bad is not None:
                raise NumericalFailure(step_index, state.t,
                                       f"{bad} coefficient field")
        b1n, gn = fields[3], fields[4]

        # element means of the rows D, E, f read as one chain of 3n
        # nodes; the two means that straddle a row joint are not used
        means = element_means(fields[:3].reshape(-1), out=self.means)
        # one divide for both rows; neither band reads the joint's abar[n - 1]
        abar = np.divide(means[:2 * n - 1], self.h_, out=means[:2 * n - 1])
        stiffness_from_means(abar[n:], self.e_main, self.e_off)
        a_main, a_off = stiffness_from_means(abar[:n - 1], self.a_main,
                                             self.a_off)
        np.add(ops.mass_main, np.multiply(dt_, a_main, out=a_main), out=a_main)
        np.add(ops.mass_off, np.multiply(dt_, a_off, out=a_off), out=a_off)
        divisor = np.subtract(self.one_,
                              np.multiply(dt_, b1n, out=self.divisor),
                              out=self.divisor)
        if eps == 0.0:
            info = self.u_solver.factor()
            if info > 0:
                raise LinearSolveFailure(
                    f"concentration system not SPD at step {step_index} "
                    f"(discrete ellipticity violation): {info}th leading "
                    "minor not positive definite")
            # beta1 is finite here, so the minimum is never NaN
            if divisor.min() <= 0:
                raise LinearSolveFailure(
                    "implicit stress decay singular at step "
                    f"{step_index}: dt * beta1 >= 1 with positive beta1")
        else:
            u_bands, s_bands = self.u_bands, self.s_bands
            np.copyto(u_bands, self.reg_u)
            u_bands[3, 1:] += a_off
            u_bands[4, :] += a_main
            u_bands[5, :-1] += a_off
            np.copyto(s_bands, self.reg_s)
            s_bands[4, :] += divisor
            _factor_banded(self.u_solver, step_index, "concentration")
            _factor_banded(self.s_solver, step_index, "stress")
        load_from_means(means[2 * n:], out=self.load)
        np.multiply(dt_, gn, out=self.dt_gamma)

    def advance(self, state: State, t_next: float, step_index: int,
                influx: tuple) -> State:
        """The state at t_next, given dt*(phi_left, phi_right) there."""
        if not self.kept:
            self.build(state, step_index)
            self.kept = self.frozen
        eps, n = self.cfg.epsilon, self.n
        # M u - dt*(K(E) varsigma + load) + dt*psi, with psi the influx
        # functional: its interior entries add 0.0, as a full psi does
        tridiag_matvec(self.chain_main, self.chain_off, state.chain,
                       out=self.product, work=self.work)
        rest, stress = self.rhs, self.e_sigma
        np.add(stress, self.load, out=stress)
        np.subtract(rest, np.multiply(self.dt_, stress, out=stress), out=rest)
        self.influx[0], self.influx[-1] = influx
        # the rhs, solved in place, then copied into the fresh chain
        np.add(rest, self.influx, out=rest)
        self.u_solver.solve()
        new = np.empty(2 * n + 2)
        new[n] = new[-1] = 0.0
        result = State.of_chain(t_next, new)
        u_next, s_next = result.u, result.sigma_v
        np.copyto(u_next, rest)

        # varsigma + (dt*gamma)*u_next, then divided, or solved in place
        # and copied
        stress = np.add(state.sigma_v, np.multiply(self.dt_gamma, u_next,
                                                   out=self.stress),
                        out=self.stress)
        if eps == 0.0:
            np.divide(stress, self.divisor, out=s_next)
        else:
            self.s_solver.solve()
            np.copyto(s_next, stress)

        total = np.dot(u_next, s_next)
        if not math.isfinite(total):
            bad = _nonfinite(("concentration", "stress"), (u_next, s_next))
            if bad is not None:
                raise NumericalFailure(step_index, t_next, bad)
        return result


_FIELD_NAMES = ("diffusion", "stress-diffusion", "forcing", "relaxation",
                "stress-drive")


def _nonfinite(names, arrays) -> Optional[str]:
    """Name of the first of arrays holding a NaN or inf, or None.

    Callers test a sum of terms in which every entry of the arrays
    appears first, as in a dot product of two of them, or of one with
    itself (one call, and cheaper than a ``sum`` per array).  A NaN or
    an inf makes its term, and so the total, NaN or infinite (inf * 0
    is NaN): a finite total proves every entry finite, so the arrays
    are tested one by one only when it is not (a non-finite entry, or
    overflow, which gives None here).
    """
    for name, a in zip(names, arrays):
        if not np.all(np.isfinite(a)):
            return name
    return None


def _factor_banded(system: Banded, step_index: int, what: str) -> None:
    """Factor ``system`` in place; a zero pivot fails the step."""
    if system.factor() > 0:
        raise LinearSolveFailure(
            f"{what} system singular at step {step_index}: singular matrix")


@dataclass
class RunResult:
    """Trajectory snapshots plus per-step diagnostics and estimate quantities."""

    trajectory: List[State]
    records: RecordTable
    # epsilon-weighted cumulative squared H2-type norms (regularization energies)
    reg_energy_u: float
    reg_energy_s: float
    # largest H1 norm of the transformed stress over the records
    sup_h1_s: float
    # (min, max) of the transformed stress over every state of the run
    varsigma_range: tuple[float, float]

    @property
    def final_state(self) -> State:
        return self.trajectory[-1]


class DualTimeDerivative:
    """Run observer: the cumulative squared dual-type norm of the discrete
    time derivative of u, the sum over steps of dt * l.(M_L + K)^-1 l with
    l = M_L (u^k - u^{k-1}) / dt."""

    def __init__(self, mesh: Mesh, dt: float):
        ops = mesh_operators(mesh)
        self.ml, self.dt, self.dt_ = ops.lumped, dt, scalar(dt)
        # l and the solve's rhs, which it overwrites with (M_L + K)^-1 l
        self.load, self.y = np.empty(mesh.N + 1), np.empty(mesh.N + 1)
        # (M_L + K) factored once: dpttrf then dpttrs is what dptsv does,
        # so each solve matches a dptsv call
        self.system = Tridiagonal(ops.lumped + ops.unit_stiffness_main,
                                  ops.unit_stiffness_off.copy(), self.y)
        self.system.factor()
        self.value = 0.0
        self.prev_u = None

    def __call__(self, state: State) -> None:
        if self.prev_u is not None:
            load = np.subtract(state.u, self.prev_u, out=self.load)
            np.multiply(self.ml, np.divide(load, self.dt_, out=load),
                        out=load)
            np.copyto(self.y, load)
            self.system.solve()
            self.value += self.dt * float(np.dot(load, self.y))
        self.prev_u = state.u


def run(init: InitialData, mesh: Mesh, model: TransformedModel,
        bd: BoundaryData, cfg: SolverConfig,
        output_every: Optional[int] = None, gamma: float = 1.0,
        observer: Optional[Callable[[State], None]] = None) -> RunResult:
    """Advance from t=0 to T_end, recording diagnostics every step.

    Snapshots are kept every ``output_every`` steps (always including
    the initial and final states).  The records are the rows of one
    preallocated table, computed a block of states at a time: each
    state is copied into the block of a ``diagnostics.Recorder``
    (RECORD_BLOCK_BYTES of states), whose records are computed together
    when it is full and at the end.  The observer and the trajectory
    still see each state as it is produced.  The run is deterministic
    for fixed inputs; step failures propagate with their step index and
    time, and carry as ``records`` the k records of the states before
    the failing step k, their block computed first.
    """
    state = init.initial_state()
    state.check(mesh)
    stepper = _Stepper(mesh, model, cfg)

    n_steps = cfg.n_steps
    table = np.empty((n_steps + 1, len(CSV_COLUMNS)))
    recorder = Recorder(mesh, gamma, table,
                        reg_weight=cfg.epsilon * cfg.dt)
    recorder.add(state)
    trajectory = [state]
    if observer is not None:
        observer(state)

    dt = cfg.dt
    for start in range(1, n_steps + 1, BLOCK_ROWS):
        # k*dt, not a running sum, so step times do not drift from the grid
        steps = range(start, min(start + BLOCK_ROWS, n_steps + 1))
        times = np.arange(steps.start, steps.stop) * dt
        for k, influx in zip(steps, zip(*(dt * v for v in bd.values(times)))):
            try:
                state = stepper.advance(state, k * dt, k, influx)
            except StepFailure as exc:
                recorder.flush()
                exc.records = RecordTable(table[:k])
                raise
            recorder.add(state)
            if observer is not None:
                observer(state)
            if output_every and (k % output_every == 0) and k != n_steps:
                trajectory.append(state)

    recorder.flush()
    if n_steps > 0:
        trajectory.append(state)
    l2_s, h1semi_s = (table[:, CSV_COLUMNS.index(c)]
                      for c in ("l2_s", "h1semi_s"))
    sup_h1_s = float(np.max(np.hypot(l2_s, h1semi_s)))
    return RunResult(trajectory=trajectory, records=RecordTable(table),
                     reg_energy_u=recorder.reg_u, reg_energy_s=recorder.reg_s,
                     sup_h1_s=sup_h1_s, varsigma_range=recorder.varsigma_range)
