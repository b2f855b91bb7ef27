"""Semi-implicit stepping, mass balance, regularization, and flux."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded, solveh_banded

from viscodiff import config, discretization
from viscodiff.diagnostics import (RECORD_BLOCK_BYTES, DiagnosticsRecord,
                                   Recorder, record)

from viscodiff.coefficients import (
    TransformedModel,
    constant_model,
    make_scalar_model,
    physical_from_models,
    transform,
)
from viscodiff.config import (
    build_boundary,
    build_initial,
    build_mesh_from,
    build_model,
    build_physical,
    build_solver_config,
    parse_config,
    preset_config,
)
from viscodiff.discretization import (
    ZERO_INFLUX,
    BoundaryData,
    DiscreteOperators,
    assemble_flux_vector,
    boundary_functional,
    build_mesh,
    lumped_mass_diagonal,
    mass_diagonals,
    mesh_operators,
    stiffness_diagonals,
    tridiag_matvec,
)
from viscodiff.lapack import Banded
from viscodiff.solver import (
    DualTimeDerivative,
    InitialData,
    LinearSolveFailure,
    NumericalFailure,
    SolverConfig,
    State,
    _solve_banded,
    _Stepper,
    compute_flux,
    reconstruct_sigma,
    run,
    step,
)


def _fickian_phys(D=1.0):
    return physical_from_models(
        D0=make_scalar_model("constant", value=D),
        E0=make_scalar_model("constant", value=0.0),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("constant", value=1.0),
        mu0=make_scalar_model("constant", value=0.0),
        nu0=make_scalar_model("constant", value=0.0),
    )


def _advance(stepper, bd, state, t_next, step_index):
    """A stepper's step to t_next with the influx dt*phi(t_next)."""
    influx = tuple(stepper.cfg.dt * v for v in bd.values(np.array(t_next)))
    return stepper.advance(state, t_next, step_index, influx)


def _mass(mesh, u):
    return float(np.sum(tridiag_matvec(*mass_diagonals(mesh), u)))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, T_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T_end=1.0, epsilon=-1.0)
        with pytest.raises(ValueError, match="multiple"):
            SolverConfig(dt=0.1, T_end=0.15)

    def test_n_steps_rounding(self):
        assert SolverConfig(dt=1e-3, T_end=1.0).n_steps == 1000
        assert SolverConfig(dt=0.1, T_end=0.0).n_steps == 0
        # T_end/dt off a whole number only by round-off
        assert SolverConfig(dt=1e-4, T_end=0.1).n_steps == 1000
        assert SolverConfig(dt=0.1, T_end=0.3).n_steps == 3


class TestInitialData:
    def test_varsigma_derivation(self):
        phys = physical_from_models(
            D0=make_scalar_model("constant", value=1.0),
            E0=make_scalar_model("constant", value=0.0),
            M0=make_scalar_model("constant", value=0.0),
            beta0=make_scalar_model("constant", value=1.0),
            mu0=make_scalar_model("constant", value=0.0),
            nu0=make_scalar_model("constant", value=0.5),
        )
        u0 = np.array([0.0, 0.4, 0.8])
        sigma0 = np.array([1.0, 1.0, 1.0])
        init = InitialData(u0, sigma0, phys)
        assert np.allclose(init.varsigma0, sigma0 - 0.5 * u0)
        state = init.initial_state()
        back = reconstruct_sigma(state, phys)
        assert np.max(np.abs(back - sigma0)) <= 1e-12

    def test_rejects_nonfinite(self):
        phys = _fickian_phys()
        with pytest.raises(ValueError):
            InitialData(np.array([0.0, np.nan]), np.zeros(2), phys)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            InitialData(np.zeros(3), np.zeros(4), _fickian_phys())


class TestStep:
    def test_implicit_decay_scalar_oracle(self):
        # beta1 = -1, gamma = 0, varsigma0 = 1, dt = 0.1 -> 1/1.1
        mesh = build_mesh(1.0, 4)
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        cfg = SolverConfig(dt=0.1, T_end=0.1)
        state = State(t=0.0, u=np.zeros(5), sigma_v=np.ones(5))
        out = step(state, mesh, model, ZERO_INFLUX, cfg)
        assert np.allclose(out.sigma_v, 1.0 / 1.1, atol=1e-14)
        assert out.t == pytest.approx(0.1)

    def test_homogeneous_state_invariant(self):
        # constant (u, varsigma) stays constant; stress follows the scalar ODE
        mesh = build_mesh(1.0, 8)
        model = constant_model(D=1.0, E=0.3, beta1=-2.0, gamma=0.5)
        cfg = SolverConfig(dt=0.05, T_end=0.05)
        c, s0 = 0.7, 0.2
        state = State(t=0.0, u=np.full(9, c), sigma_v=np.full(9, s0))
        out = step(state, mesh, model, ZERO_INFLUX, cfg)
        assert np.ptp(out.u) <= 1e-14
        assert np.allclose(out.u, c, atol=1e-12)
        expected_s = (s0 + 0.05 * 0.5 * c) / (1 + 0.05 * 2.0)
        assert np.allclose(out.sigma_v, expected_s, atol=1e-13)

    def test_fickian_cosine_decay(self):
        mesh = build_mesh(1.0, 128)
        model = constant_model(D=1.0)
        cfg = SolverConfig(dt=1e-3, T_end=0.05)
        u0 = np.cos(math.pi * mesh.nodes)
        phys = _fickian_phys()
        init = InitialData(u0, np.zeros_like(u0), phys)
        res = run(init, mesh, model, ZERO_INFLUX, cfg)
        exact = math.exp(-math.pi ** 2 * 0.05) * u0
        assert np.max(np.abs(res.final_state.u - exact)) <= 5e-3

    def test_nan_watchdog(self):
        mesh = build_mesh(1.0, 8)
        model = dataclasses.replace(
            constant_model(D=1.0), f=lambda t, x, u, s: np.where(
                np.asarray(t) > 0.05, np.nan, 0.0) + 0.0 * (u + s + x))
        phys = _fickian_phys()
        init = InitialData(np.zeros(9), np.zeros(9), phys)
        with pytest.raises(NumericalFailure) as exc:
            run(init, mesh, model, ZERO_INFLUX, SolverConfig(dt=0.1, T_end=1.0))
        assert exc.value.step_index >= 1

    def test_nan_influx_names_its_step(self):
        # the NaN reaches the concentration solve through the load vector
        cfg = preset_config("sorption")
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        bd = build_boundary(cfg)
        nan_after = BoundaryData(
            phi_left=lambda t: np.where(t > 0.004, np.nan, bd.phi_left(t)),
            phi_right=bd.phi_right)
        with pytest.raises(NumericalFailure) as exc:
            run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                nan_after, build_solver_config(cfg))
        assert exc.value.step_index == 9
        assert "concentration" in str(exc.value)

    def test_indefinite_concentration_system_names_its_step(self):
        mesh = build_mesh(1.0, 8)
        init = InitialData(np.zeros(9), np.zeros(9), _fickian_phys())
        with pytest.raises(LinearSolveFailure, match="not SPD at step 1 "):
            run(init, mesh, constant_model(D=-5.0), ZERO_INFLUX,
                SolverConfig(dt=0.1, T_end=0.2))

    def test_sorption_step_evaluates_each_law_once(self, monkeypatch):
        calls = _count_law_calls(monkeypatch)
        cfg = preset_config("sorption")
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        state = build_initial(cfg, mesh, phys).initial_state()
        model = transform(phys)
        calls.clear()
        step(state, mesh, model, build_boundary(cfg), build_solver_config(cfg))
        # nu0's antiderivative, D0, E0 and beta0; the constant laws nu0,
        # M0 and mu0 enter as their values
        assert len(calls) == 4

    def test_reassigned_field_is_used(self):
        mesh = build_mesh(1.0, 16)
        model = transform(_tanh_mix())
        cfg = SolverConfig(dt=1e-3, T_end=1e-3)
        state = State(t=0.0, u=0.3 + 0.2 * np.cos(math.pi * mesh.nodes),
                      sigma_v=np.zeros(17))
        before = step(state, mesh, model, ZERO_INFLUX, cfg)
        f = model.f
        changed = dataclasses.replace(
            model, f=lambda t, x, u, s: f(t, x, u, s) + np.sin(math.pi * x))
        after = step(state, mesh, changed, ZERO_INFLUX, cfg)
        assert not np.array_equal(before.u, after.u)

    def test_operators_built_once_per_mesh_geometry(self, monkeypatch):
        monkeypatch.setattr(discretization, "_OPERATORS", {})
        built = []
        build = DiscreteOperators.build.__func__

        def counted(cls, mesh):
            built.append(mesh)
            return build(cls, mesh)

        monkeypatch.setattr(DiscreteOperators, "build", classmethod(counted))
        model = constant_model(D=1.0)
        cfg = SolverConfig(dt=0.1, T_end=0.1)
        state = State(t=0.0, u=np.linspace(0.0, 1.0, 9), sigma_v=np.zeros(9))
        step(state, build_mesh(1.0, 8), model, ZERO_INFLUX, cfg)
        step(state, build_mesh(1.0, 8), model, ZERO_INFLUX, cfg)
        assert len(built) == 1
        ops = discretization.mesh_operators(build_mesh(1.0, 8))
        with pytest.raises(ValueError):
            ops.mass_main[0] = 1.0
        with pytest.raises(ValueError):
            ops.lumped_bilaplacian[4, 0] = 1.0


class TestMassBalance:
    def test_per_step_identity(self):
        mesh = build_mesh(1.0, 32)
        phys = _tanh_mix()
        model = transform(phys)
        bd = BoundaryData(phi_left=lambda t: np.sin(3 * t),
                          phi_right=lambda t: 0.25)
        cfg = SolverConfig(dt=1e-3, T_end=1e-3)
        state = State(t=0.0, u=np.full(33, 0.3),
                      sigma_v=0.1 * np.cos(math.pi * mesh.nodes))
        for _ in range(20):
            nxt = step(state, mesh, model, bd, cfg)
            gain = _mass(mesh, nxt.u) - _mass(mesh, state.u)
            expected = cfg.dt * (bd.phi_left(nxt.t) + bd.phi_right(nxt.t))
            assert gain == pytest.approx(expected, abs=1e-13)
            state = nxt

    def test_eps_scan_pulse_gains_its_full_mass(self):
        # pulse 0.2 on (0, 0.5]: step 500 must land on t_off exactly, not
        # past it through a running sum of dt
        cfg = preset_config("eps-scan")
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        res = run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                  build_boundary(cfg), build_solver_config(cfg))
        assert res.records[500].t == 0.5
        gain = res.records[-1].mass - res.records[0].mass
        assert abs(gain - 0.1) <= 1e-12

    def test_pulse_switches_on_the_step_grid(self):
        # 3*0.1 > 0.3 in binary: t_off = 0.3 is built as 3*0.1 itself, so
        # the pulse covers three steps, not two
        cfg = parse_config('time.dt = 0.1\nboundary.phi_left = "pulse"\n'
                           'boundary.phi_left.value = 1.0\n'
                           'boundary.phi_left.t_off = 0.3\n')
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        res = run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                  build_boundary(cfg), build_solver_config(cfg))
        gain = res.records[-1].mass - res.records[0].mass
        assert gain == pytest.approx(0.3, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("preset, influx", [("sorption", 1.0),
                                                ("desorption", -0.5)])
    def test_pulse_presets_gain_the_prescribed_mass(self, preset, influx):
        # the integral of the pulse, value * (t_off - t_on), to 1e-12 of
        # the masses whose difference the gain is
        cfg = preset_config(preset)
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        res = run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                  build_boundary(cfg), build_solver_config(cfg))
        m0, m1 = res.records[0].mass, res.records[-1].mass
        assert abs((m1 - m0) - influx) <= 1e-12 * max(abs(m0), abs(m1))

    def test_influx_one_over_unit_time(self):
        mesh = build_mesh(1.0, 64)
        model = constant_model(D=1.0)
        bd = BoundaryData(phi_left=lambda t: 1.0, phi_right=lambda t: 0.0)
        init = InitialData(np.zeros(65), np.zeros(65), _fickian_phys())
        res = run(init, mesh, model, bd, SolverConfig(dt=1e-3, T_end=1.0))
        gain = res.records[-1].mass - res.records[0].mass
        assert abs(gain - 1.0) <= 1e-10


def _count_law_calls(monkeypatch):
    """The list that every scalar law of a config-built model appends to
    when it is called."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    make = config.make_scalar_model

    def make_counted(name, **params):
        m = make(name, **params)
        anti = m.antiderivative
        return dataclasses.replace(
            m, fn=counted(m.fn), dfn=counted(m.dfn),
            antiderivative=None if anti is None else counted(anti))

    monkeypatch.setattr(config, "make_scalar_model", make_counted)
    return calls


def _tanh_mix():
    return physical_from_models(
        D0=make_scalar_model("tanh", lo=0.2, hi=1.0, delta=0.1, center=0.5),
        E0=make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.05),
        M0=make_scalar_model("constant", value=0.1),
        beta0=make_scalar_model("tanh", lo=0.5, hi=2.0, delta=0.1, center=0.5),
        mu0=make_scalar_model("constant", value=0.5),
        nu0=make_scalar_model("constant", value=0.1),
    )


# scipy.sparse assembly of the operators, the reference that the band
# arrays and the step kernel must match bit for bit
def _sparse_tridiag(main, off):
    n = main.size
    data = np.zeros((3, n))
    data[0, :-1] = off
    data[1, :] = main
    data[2, 1:] = off
    return sp.dia_matrix((data, [-1, 0, 1]), shape=(n, n))


def _sparse_bilaplacian(mesh):
    """(I + L_h)^2 with L_h = M_L^{-1} K(1)."""
    K = _sparse_tridiag(*stiffness_diagonals(mesh, np.ones(mesh.N + 1)))
    Lh = sp.dia_matrix(sp.diags(1.0 / lumped_mass_diagonal(mesh)) @ K)
    eye = sp.identity(mesh.N + 1)
    return sp.dia_matrix((eye + Lh) @ (eye + Lh))


def _sparse_reference_step(state, mesh, model, bd, cfg, t_next=None):
    """The step assembled with scipy.sparse and solved with scipy's banded
    solvers, for comparison with the solver's LAPACK kernel: (2, 2) band
    storage for epsilon > 0, the tridiagonal SPD solve for epsilon = 0.
    The step ends at t_next, state.t + dt by default."""
    ml = lumped_mass_diagonal(mesh)
    bilap = _sparse_bilaplacian(mesh)
    dt, eps = cfg.dt, cfg.epsilon
    if t_next is None:
        t_next = state.t + dt
    u, s = state.u, state.sigma_v
    D, E, f, b1, g = (
        np.broadcast_to(np.asarray(c(state.t, mesh.nodes, u, s), float), u.shape)
        for c in (model.D, model.E, model.f, model.beta1, model.gamma))
    kD_main, kD_off = stiffness_diagonals(mesh, D)
    kE_main, kE_off = stiffness_diagonals(mesh, E)
    m_main, m_off = mass_diagonals(mesh)
    rhs = (tridiag_matvec(m_main, m_off, u)
           - dt * (tridiag_matvec(kE_main, kE_off, s)
                   + assemble_flux_vector(mesh, f))
           + dt * boundary_functional(mesh, bd, t_next))

    def solve(A, b):
        dia = sp.dia_matrix(A)
        ab = np.zeros((5, u.size))
        for off, row in zip(dia.offsets, dia.data):
            ab[2 - off, :] = row
        return solve_banded((2, 2), ab, b)

    A = (_sparse_tridiag(m_main, m_off)
         + dt * sp.diags([kD_off, kD_main, kD_off], [-1, 0, 1]))
    if eps == 0.0:
        ab = np.zeros((2, u.size))
        ab[0, 1:] = A.diagonal(1)
        ab[1, :] = A.diagonal()
        u_next = solveh_banded(ab, rhs, lower=False)
        s_next = (s + dt * g * u_next) / (1.0 - dt * b1)
        return State(t=t_next, u=u_next, sigma_v=s_next)
    A = A + (dt * eps) * sp.csr_matrix(sp.diags(ml) @ bilap)
    u_next = solve(A, rhs)
    B = sp.diags(1.0 - dt * b1) + (dt * eps) * sp.csr_matrix(bilap)
    s_next = solve(B, s + dt * g * u_next)
    return State(t=t_next, u=u_next, sigma_v=s_next)


def _quadratic_reference(main, off, v):
    return float(np.dot(v, tridiag_matvec(main, off, v)))


def _reference_record(state, mesh, gamma=1.0, prev=None):
    """One diagnostics record computed one product at a time with numpy's
    wrappers, for comparison with the stacked products of ``record``."""
    ops = mesh_operators(mesh)
    u, s = state.u, state.sigma_v
    Mu = tridiag_matvec(ops.mass_main, ops.mass_off, u)
    l2u_sq = max(float(np.dot(u, Mu)), 0.0)
    h1u_sq = max(_quadratic_reference(ops.unit_stiffness_main,
                                      ops.unit_stiffness_off, u), 0.0)
    l2s_sq = max(_quadratic_reference(ops.mass_main, ops.mass_off, s), 0.0)
    h1s_sq = max(_quadratic_reference(ops.unit_stiffness_main,
                                      ops.unit_stiffness_off, s), 0.0)
    if prev is None:
        cum_u = cum_s = 0.0
    else:
        dt = state.t - prev.t
        cum_u = prev.cum_grad_u + 0.5 * dt * (prev.h1semi_u ** 2 + h1u_sq)
        cum_s = prev.cum_grad_s + 0.5 * dt * (prev.h1semi_s ** 2 + h1s_sq)
    return DiagnosticsRecord(
        t=float(state.t),
        mass=float(np.sum(Mu)),
        l2_u=float(np.sqrt(l2u_sq)),
        h1semi_u=float(np.sqrt(h1u_sq)),
        l2_s=float(np.sqrt(l2s_sq)),
        h1semi_s=float(np.sqrt(h1s_sq)),
        lyapunov=0.5 * gamma * gamma * l2u_sq + 0.5 * h1s_sq,
        cum_grad_u=cum_u,
        cum_grad_s=cum_s,
        u_min=float(np.min(u)),
        u_max=float(np.max(u)),
    )


def _reference_loop(init, mesh, model, bd, scfg, n_steps):
    """The states and records (gamma = 0.8) of the reference step and
    record looped by hand over n_steps."""
    state = init.initial_state()
    states = [state]
    records = [_reference_record(state, mesh, gamma=0.8)]
    for k in range(1, n_steps + 1):
        state = _sparse_reference_step(state, mesh, model, bd, scfg,
                                       t_next=k * scfg.dt)
        states.append(state)
        records.append(_reference_record(state, mesh, gamma=0.8,
                                         prev=records[-1]))
    return states, records


def _block_rows(mesh):
    """The number of states the diagnostics of a run compute together."""
    # a block holds RECORD_BLOCK_BYTES of states, so never this many
    longer = np.empty((RECORD_BLOCK_BYTES, 11))
    return len(Recorder(mesh, 1.0, longer).chains)


def _assert_run_matches_reference_loop(cfg, n_steps, eps, model=None):
    """Require run's states and records over n_steps to equal, in bytes,
    the reference step and record looped by hand; return the model, by
    default the transform of cfg's laws."""
    mesh = build_mesh_from(cfg)
    phys = build_physical(cfg)
    model = transform(phys) if model is None else model
    bd = build_boundary(cfg)
    init = build_initial(cfg, mesh, phys)
    scfg = _solver_config(cfg["time.dt"], n_steps, eps)
    res = run(init, mesh, model, bd, scfg, output_every=1, gamma=0.8)

    states, records = _reference_loop(init, mesh, model, bd, scfg, n_steps)
    assert len(res.trajectory) == len(states) == n_steps + 1
    for got, want in zip(res.trajectory, states):
        assert got.t == want.t
        assert got.u.tobytes() == want.u.tobytes()
        assert got.sigma_v.tobytes() == want.sigma_v.tobytes()
    assert np.array(res.records).tobytes() == np.array(records).tobytes()
    assert (res.reg_energy_u, res.reg_energy_s) == _reference_energies(
        mesh, states, scfg)
    return model


def _solver_config(dt, n_steps, eps):
    """The SolverConfig of an eps cell of a test grid."""
    return SolverConfig(dt=dt, T_end=n_steps * dt, epsilon=eps)


def _eps_cells(*values):
    """The eps axis of a test grid.  Each id ends in "implicit-decay", the
    stress update that every cell runs, as when a second one existed."""
    return pytest.mark.parametrize(
        "eps", values, ids=[f"{e}-implicit-decay" for e in values])


def _reference_energies(mesh, states, scfg):
    """The regularization energies of a run's states, taken one state at
    a time: the sum over the states after the first of
    eps*dt * sum(M_L w*w), w = v + M_L^-1 K(1) v, for v = u and varsigma."""
    ops = mesh_operators(mesh)
    ml = ops.lumped
    energies = [0.0, 0.0]
    if scfg.epsilon > 0:
        for state in states[1:]:
            for i, v in enumerate((state.u, state.sigma_v)):
                w = v + tridiag_matvec(ops.unit_stiffness_main,
                                       ops.unit_stiffness_off, v) / ml
                energies[i] += (scfg.epsilon * scfg.dt
                                * float((ml * w * w).sum()))
    return tuple(energies)


def _dense_bands(ab):
    """Dense matrix of a (2, 2) band array: ab[4 - d, j] is entry (j - d, j)."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(-2, 3):
        j = np.arange(max(d, 0), min(n, n + d))
        A[j - d, j] = ab[4 - d, j]
    return A


def _scalar_signal(kind, params, dt, T_end):
    """The point-by-point signals that the array signals replaced, as
    config built them: the reference."""
    if kind == "zero":
        return lambda t: 0.0
    if kind == "constant":
        v = params["value"]
        return lambda t: v
    if kind == "sinusoid":
        a, w, p = params["amplitude"], params["omega"], params["phase"]
        return lambda t: a * math.sin(w * t + p)
    v = params["value"]
    t_on, t_off = (config._step_time(params[k], dt, T_end)
                   for k in ("t_on", "t_off"))
    return lambda t: v if t_on < t <= t_off else 0.0


_NUMBERS = st.floats(-10.0, 10.0)


@st.composite
def _signals(draw):
    """(kind, params, dt, steps) of a signal that config accepts; pulse
    switching times lie on the step grid, up to the 1e-9 the grid rule
    allows, or past T_end."""
    dt = draw(st.sampled_from([5e-4, 1e-3, 2e-3, 0.05, 0.1]))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["zero", "constant", "sinusoid", "pulse"]))
    params = {}
    if kind == "constant":
        params = {"value": draw(_NUMBERS)}
    elif kind == "sinusoid":
        params = {"amplitude": draw(_NUMBERS), "omega": draw(_NUMBERS),
                  "phase": draw(st.floats(-4.0, 4.0))}
    elif kind == "pulse":
        k_on = draw(st.integers(0, n))
        k_off = draw(st.integers(k_on + 1, n + 3))
        nudge = st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12])
        params = {"value": draw(_NUMBERS), "t_on": k_on * dt * draw(nudge),
                  "t_off": k_off * dt * draw(nudge)}
    return kind, params, dt, n


class TestArraySignals:
    """Boundary signals map arrays of times to values, and run evaluates
    them a block of steps at a time."""

    @settings(max_examples=150, deadline=None)
    @given(_signals())
    def test_equal_the_scalar_lambdas_and_keep_the_mass_identity(
            self, drawn):
        kind, params, dt, n = drawn
        T_end = n * dt
        phi = config._signal(kind, params, dt, T_end)
        ref = _scalar_signal(kind, params, dt, T_end)
        steps = range(n + 2)  # t = 0, the n step times and one past
        got = BoundaryData(phi, phi).values(np.arange(n + 2) * dt)[0]
        want = np.array([float(ref(k * dt)) for k in steps])
        assert got.tobytes() == want.tobytes()

        # every step gains dt*(phi_left + phi_right) at its own k*dt
        mesh = build_mesh(1.0, 4)
        phys = _fickian_phys()
        res = run(InitialData(np.full(5, 0.3), np.zeros(5), phys), mesh,
                  transform(phys), BoundaryData(phi, phi),
                  SolverConfig(dt=dt, T_end=T_end))
        mass = [r.mass for r in res.records]
        for k in range(1, n + 1):
            gain = dt * (float(ref(k * dt)) + float(ref(k * dt)))
            assert mass[k] - mass[k - 1] == pytest.approx(gain, abs=1e-12)

    @pytest.mark.parametrize("side", ["phi_left", "phi_right"])
    @pytest.mark.parametrize("signal", [
        math.sin, lambda t: 0.3 if t <= 0.25 else 0.0, lambda t: np.ones(3)],
        ids=["math.sin", "conditional", "wrong-shape"])
    def test_scalar_only_signal_is_named_before_any_step(self, side, signal):
        other = "phi_right" if side == "phi_left" else "phi_left"
        bd = BoundaryData(**{side: signal, other: lambda t: 0.0})
        message = f"^{side} must map an array of times to values"
        with pytest.raises(ValueError, match=message):
            bd.validate(1.0)
        seen = []
        mesh = build_mesh(1.0, 4)
        with pytest.raises(ValueError, match=message):
            run(InitialData(np.zeros(5), np.zeros(5), _fickian_phys()),
                mesh, constant_model(), bd, SolverConfig(dt=0.1, T_end=0.5),
                observer=seen.append)
        assert [s.t for s in seen] == [0.0]

    def test_run_spans_blocks_as_single_steps_do(self):
        # steps on both sides of a block joint take the influx at k*dt
        mesh = build_mesh(1.0, 4)
        phys = _fickian_phys()
        bd = BoundaryData(phi_left=lambda t: np.sin(3 * t),
                          phi_right=lambda t: np.where(t > 1.0245, 0.5, 0.0))
        cfg = SolverConfig(dt=1e-3, T_end=1.03)
        init = InitialData(np.full(5, 0.3), np.zeros(5), phys)
        res = run(init, mesh, transform(phys), bd, cfg)
        stepper = _Stepper(mesh, transform(phys), cfg)
        state = init.initial_state()
        for k in range(1, cfg.n_steps + 1):
            state = _advance(stepper, bd, state, k * cfg.dt, k)
        assert state.chain.tobytes() == res.final_state.chain.tobytes()


class TestRegularized:
    def test_epsilon_zero_dispatch_identity(self):
        # step takes any epsilon and is the step run takes
        mesh = build_mesh(1.0, 16)
        phys = _tanh_mix()
        model = transform(phys)
        init = InitialData(0.3 + 0.2 * np.cos(math.pi * mesh.nodes),
                           np.zeros(17), phys)
        for eps in (0.0, 1e-2):
            cfg = SolverConfig(dt=1e-3, T_end=1e-3, epsilon=eps)
            a = step(init.initial_state(), mesh, model, ZERO_INFLUX, cfg)
            b = run(init, mesh, model, ZERO_INFLUX, cfg).final_state
            assert np.array_equal(a.u, b.u), eps
            assert np.array_equal(a.sigma_v, b.sigma_v), eps

    def test_constant_state_stays_spatially_constant(self):
        mesh = build_mesh(1.0, 16)
        model = constant_model(D=1.0, E=0.2, beta1=-1.0, gamma=0.3)
        cfg = SolverConfig(dt=1e-2, T_end=1e-2, epsilon=1e-2)
        state = State(t=0.0, u=np.full(17, 0.6), sigma_v=np.full(17, 0.1))
        out = step(state, mesh, model, ZERO_INFLUX, cfg)
        assert np.ptp(out.u) <= 1e-13
        assert np.ptp(out.sigma_v) <= 1e-13

    @_eps_cells(1e-2, 1e-4, 0.0)
    def test_matches_sparse_reference(self, eps):
        # at L = 1 every operator entry is dyadic, so summation order
        # shows only at a length like 0.7
        model = transform(_tanh_mix())
        bd = BoundaryData(phi_left=lambda t: 0.3, phi_right=lambda t: -0.1)
        cfg = _solver_config(1e-3, 1, eps)
        for L in (1.0, 0.7):
            mesh = build_mesh(L, 16)
            x = mesh.nodes / L
            state = State(t=0.0, u=0.3 + 0.2 * np.cos(math.pi * x),
                          sigma_v=0.1 * np.sin(2 * math.pi * x))
            ref = _sparse_reference_step(state, mesh, model, bd, cfg)
            out = step(state, mesh, model, bd, cfg)
            assert np.array_equal(out.u, ref.u), L
            assert np.array_equal(out.sigma_v, ref.sigma_v), L

    @pytest.mark.parametrize("L", [0.7, 3.3])
    @pytest.mark.parametrize("N", [2, 3, 64])
    def test_cached_bands_match_sparse_operators(self, L, N):
        mesh = build_mesh(L, N)
        ops = mesh_operators(mesh)
        bilap = _sparse_bilaplacian(mesh)
        lumped_bilap = sp.diags(lumped_mass_diagonal(mesh)) @ bilap
        assert np.array_equal(_dense_bands(ops.bilaplacian), bilap.toarray())
        assert np.array_equal(_dense_bands(ops.lumped_bilaplacian),
                              lumped_bilap.toarray())

    def test_singular_band_system_names_its_step(self):
        # a zero pivot is the only failure dgbsv reports; no public input
        # reaches one exactly, so the helper is given a zero matrix
        ab = np.zeros((7, 5), order="F")
        with pytest.raises(LinearSolveFailure,
                           match="stress system singular at step 3"):
            _solve_banded(Banded(ab, np.ones(5), 2, 2), ab, 3, "stress")

    def test_terminal_distance_monotone_in_epsilon(self):
        mesh = build_mesh(1.0, 32)
        phys = _tanh_mix()
        model = transform(phys)
        bd = BoundaryData(phi_left=lambda t: np.where(t <= 0.25, 0.3, 0.0),
                          phi_right=lambda t: 0.0)
        u0 = np.full(33, 0.2)
        M = _sparse_tridiag(*mass_diagonals(mesh))

        def terminal(eps):
            init = InitialData(u0, np.zeros_like(u0), phys)
            cfg = SolverConfig(dt=2e-3, T_end=0.5, epsilon=eps)
            return run(init, mesh, model, bd, cfg).final_state.u

        ref = terminal(0.0)
        dists = []
        for eps in (1e-2, 1e-3, 1e-4):
            d = terminal(eps) - ref
            dists.append(float(np.sqrt(d @ (M @ d))))
        assert dists[0] >= dists[1] >= dists[2]


class TestRun:
    def test_dual_time_derivative_matches_dptsv_reference(self):
        cfg = parse_config('preset = "eps-scan"\nepsilon = 1e-3\n'
                           'time.T_end = 0.05\n')
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        scfg = build_solver_config(cfg)
        states = []
        dual_obs = DualTimeDerivative(mesh, scfg.dt)

        def observe(state):
            states.append(state)
            dual_obs(state)

        run(build_initial(cfg, mesh, phys), mesh, transform(phys),
            build_boundary(cfg), scfg, observer=observe)
        ops = DiscreteOperators.build(mesh)
        ab = np.zeros((2, mesh.N + 1))
        ab[0, 1:] = ops.unit_stiffness_off
        ab[1, :] = ops.lumped + ops.unit_stiffness_main
        dual = 0.0
        for prev, cur in zip(states, states[1:]):
            load = ops.lumped * ((cur.u - prev.u) / scfg.dt)
            dual += scfg.dt * float(np.dot(
                load, solveh_banded(ab, load, lower=False)))
        assert len(states) == 51
        assert dual_obs.value == dual

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("preset", sorted(config.PRESETS))
    def test_run_matches_reference_loop(self, preset, eps):
        # run's states and records equal the reference step and record
        # looped by hand, bit for bit, signed zeros included
        _assert_run_matches_reference_loop(preset_config(preset), 12, eps)

    def test_observed_states_are_never_overwritten(self):
        # the step workspace must not write into a state already handed out
        for eps in (0.0, 1e-2):
            cfg = preset_config("sorption")
            mesh = build_mesh_from(cfg)
            phys = build_physical(cfg)
            seen = []

            def keep(state):
                seen.append((state, state.u, state.sigma_v,
                             state.u.tobytes(), state.sigma_v.tobytes()))

            run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                build_boundary(cfg),
                SolverConfig(dt=cfg["time.dt"], T_end=20 * cfg["time.dt"],
                             epsilon=eps), observer=keep)
            assert len(seen) == 21
            for state, u, s, u_bytes, s_bytes in seen:
                assert state.u is u and state.sigma_v is s
                assert u.tobytes() == u_bytes and s.tobytes() == s_bytes

    def test_T_end_zero_edge(self):
        mesh = build_mesh(1.0, 8)
        init = InitialData(np.zeros(9), np.zeros(9), _fickian_phys())
        res = run(init, mesh, constant_model(), ZERO_INFLUX,
                  SolverConfig(dt=0.1, T_end=0.0))
        assert len(res.trajectory) == 1
        assert len(res.records) == 1
        assert res.final_state.t == 0.0

    def test_snapshot_cadence(self):
        mesh = build_mesh(1.0, 8)
        init = InitialData(np.zeros(9), np.zeros(9), _fickian_phys())
        res = run(init, mesh, constant_model(), ZERO_INFLUX,
                  SolverConfig(dt=0.1, T_end=1.0), output_every=3)
        # initial + steps 3, 6, 9 + final step 10
        times = [round(s.t, 10) for s in res.trajectory]
        assert times == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_determinism(self):
        mesh = build_mesh(1.0, 16)
        phys = _tanh_mix()
        model = transform(phys)
        init = InitialData(np.full(17, 0.4), np.zeros(17), phys)
        cfg = SolverConfig(dt=1e-3, T_end=0.05, epsilon=1e-3)
        a = run(init, mesh, model, ZERO_INFLUX, cfg)
        b = run(init, mesh, model, ZERO_INFLUX, cfg)
        assert np.array_equal(a.final_state.u, b.final_state.u)
        assert a.records[-1] == b.records[-1]

    def test_observer_called_every_state(self):
        mesh = build_mesh(1.0, 8)
        init = InitialData(np.zeros(9), np.zeros(9), _fickian_phys())
        seen = []
        run(init, mesh, constant_model(), ZERO_INFLUX,
            SolverConfig(dt=0.1, T_end=0.5), observer=lambda s: seen.append(s.t))
        assert len(seen) == 6


class TestRecordBlocks:
    """run computes its records a block of states at a time; every row
    equals the reference record, whatever block it falls in."""

    def test_full_blocks_and_a_partial_last_block(self):
        cfg = preset_config("homogenize")
        rows = _block_rows(build_mesh_from(cfg))
        assert rows > 1
        # the initial state and 3*rows + rows//2 steps: three full blocks
        # and one part-filled
        _assert_run_matches_reference_loop(cfg, 3 * rows + rows // 2, 0.0)

    def test_one_state_per_block(self):
        cfg = parse_config('preset = "sorption"\nmesh.N = 2048\n')
        assert _block_rows(build_mesh_from(cfg)) == 1
        _assert_run_matches_reference_loop(cfg, 4, 0.0)

    @pytest.mark.parametrize("case", ["nan-diffusion",
                                      "indefinite-diffusion"])
    def test_failure_inside_a_block_keeps_the_rows_before_it(self, case):
        cfg = preset_config("homogenize")
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        dt = cfg["time.dt"]
        # D0 turns NaN, or -5, from t = (k-1)*dt, so the build of step k
        # finds a non-finite field, or an indefinite M + dt*K(D)
        k, bad, error, message = {
            "nan-diffusion": (100, np.nan, NumericalFailure,
                              "non-finite diffusion .* at step 100,"),
            "indefinite-diffusion": (95, -5.0, LinearSolveFailure,
                                     "not SPD at step 95 ")}[case]
        base = phys.D0
        phys = dataclasses.replace(
            phys, constants={},
            D0=lambda t, x, u, s: (np.full(np.shape(u), bad)
                                   if t >= (k - 1) * dt else base(t, x, u, s)))
        rows = _block_rows(mesh)
        assert k % rows not in (0, 1) and k > rows
        model = transform(phys)
        init, bd = build_initial(cfg, mesh, phys), build_boundary(cfg)
        scfg = SolverConfig(dt=dt, T_end=200 * dt)
        with pytest.raises(error, match=message) as info:
            run(init, mesh, model, bd, scfg, gamma=0.8)
        _, want = _reference_loop(init, mesh, model, bd, scfg, k - 1)
        got = info.value.records
        assert len(got) == k
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_regularization_energies_across_blocks(self):
        # the energies are taken a block at a time, in step order: three
        # full blocks and a part-filled one equal the per-state sums
        cfg = parse_config('preset = "eps-scan"\nepsilon = 1e-3\n')
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        rows = _block_rows(mesh)
        scfg = SolverConfig(dt=cfg["time.dt"],
                            T_end=(3 * rows + rows // 2) * cfg["time.dt"],
                            epsilon=1e-3)
        res = run(build_initial(cfg, mesh, phys), mesh, transform(phys),
                  build_boundary(cfg), scfg, output_every=1)
        assert res.reg_energy_u > 0.0 and res.reg_energy_s > 0.0
        assert (res.reg_energy_u, res.reg_energy_s) == _reference_energies(
            mesh, res.trajectory, scfg)

    @pytest.mark.parametrize("N", [2, 64])
    def test_record_is_a_row_of_a_block(self, N):
        # record(state, prev) equals the row a block gives the state,
        # signed zeros, a constant u and a zero varsigma included
        mesh = build_mesh(0.7, N)
        n = N + 1
        rng = np.random.default_rng(N)
        states = [State(0.1 * j, *rng.normal(0.0, 10.0 ** (j % 5 - 2), (2, n)))
                  for j in range(9)]
        states[3].u[:] = 0.25
        states[4].u[:2], states[4].sigma_v[:] = (0.0, -0.0), 0.0
        states[5].u[:] = -0.0
        table = np.empty((len(states), 11))
        recorder = Recorder(mesh, 0.8, table)
        assert len(recorder.chains) == len(states)
        for state in states:
            recorder.add(state)
        want = [record(states[0], mesh, 0.8)]
        for state in states[1:]:
            want.append(record(state, mesh, 0.8, prev=want[-1]))
        assert table.tobytes() == np.array(want).tobytes()
        assert np.array(want).tobytes() == np.array(
            [_reference_record(states[0], mesh, 0.8)] + [
                _reference_record(s, mesh, 0.8, prev=p)
                for s, p in zip(states[1:], want)]).tobytes()


def _run_states(cfg, eps, n_steps):
    """The states a run of cfg hands its observer over n_steps, with the
    pieces a stepper needs: (states, mesh, model, bd, scfg)."""
    mesh = build_mesh_from(cfg)
    phys = build_physical(cfg)
    model, bd = transform(phys), build_boundary(cfg)
    scfg = _solver_config(cfg["time.dt"], n_steps, eps)
    states = []
    run(build_initial(cfg, mesh, phys), mesh, model, bd, scfg,
        observer=states.append)
    return states, mesh, model, bd, scfg


def _from_arrays(state):
    """state rebuilt by ``State(t, u, sigma_v)`` from its two fields."""
    return State(state.t, state.u, state.sigma_v)


def _assert_chain_layout(state, u, s):
    """state's chain is [u, 0.0, s, 0.0], bit for bit, and its fields
    are views of it."""
    n = u.size
    zero = np.float64(0.0).tobytes()
    chain = state.chain
    assert chain.shape == (2 * n + 2,) and chain.dtype == np.float64
    assert chain[:n].tobytes() == np.asarray(u, float).tobytes()
    assert chain[n + 1:-1].tobytes() == np.asarray(s, float).tobytes()
    assert chain[n].tobytes() == chain[-1].tobytes() == zero
    assert state.u.base is chain and state.sigma_v.base is chain


class TestStateChains:
    """Every state is one array [u, 0.0, varsigma, 0.0]: a state built
    from separate arrays owns a fresh chain in that layout, and the step
    and the recorder give the same bits for it as for the state a step
    returned."""

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("preset", ["sorption", "homogenize"])
    def test_advance_same_bytes_from_arrays_and_chain(self, preset, eps):
        states, mesh, model, bd, scfg = _run_states(
            preset_config(preset), eps, 6)
        for state in states:
            plain = _from_arrays(state)
            _assert_chain_layout(plain, state.u, state.sigma_v)
            assert not np.shares_memory(plain.chain, state.chain)
            assert plain.chain.tobytes() == state.chain.tobytes()
            t_next = state.t + scfg.dt
            got = _advance(_Stepper(mesh, model, scfg), bd, state, t_next, 7)
            want = _advance(_Stepper(mesh, model, scfg), bd, plain, t_next, 7)
            assert got.chain.tobytes() == want.chain.tobytes()
            _assert_chain_layout(got, want.u, want.sigma_v)

    def test_built_state_owns_its_chain(self):
        # State(t, u, sigma_v) copies both arrays, signed zeros and all,
        # and accepts any float-convertible 1-D sequences of one length
        u = np.array([0.25, -0.0, 3.0])
        s = np.array([-0.0, 0.0, -1.5])
        state = State(0.5, u, s)
        _assert_chain_layout(state, u, s)
        assert not np.shares_memory(state.chain, u)
        assert not np.shares_memory(state.chain, s)
        u[0] = s[2] = 7.0
        assert state.u[0] == 0.25 and state.sigma_v[2] == -1.5
        from_lists = State(0.5, [0.25, -0.0, 3], [-0.0, 0.0, -1.5])
        assert from_lists.chain.tobytes() == state.chain.tobytes()
        wrapped = State.of_chain(1.0, state.chain)
        assert wrapped.chain is state.chain and wrapped.t == 1.0
        _assert_chain_layout(wrapped, state.u, state.sigma_v)

    @pytest.mark.parametrize("u, s", [
        (np.zeros(3), np.zeros(4)),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (0.0, 0.0),
    ], ids=["lengths", "2-D", "scalars"])
    def test_built_state_rejects_fields_of_other_shapes(self, u, s):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            State(0.0, u, s)

    def test_fields_and_chain_cannot_be_rebound(self):
        # a state's u, sigma_v and chain are fixed when it is made, for a
        # state built from arrays and for one a step returned alike
        states, *_ = _run_states(preset_config("sorption"), 0.0, 2)
        for state in (states[0], states[-1], State(0.0, [1.0], [2.0])):
            chain = state.chain
            for name in ("u", "sigma_v", "chain"):
                with pytest.raises(AttributeError):
                    setattr(state, name, getattr(state, name) + 0.125)
            assert state.chain is chain
            assert state.u.base is chain and state.sigma_v.base is chain

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("preset", ["sorption", "homogenize"])
    def test_states_share_no_memory(self, preset, eps):
        cfg = preset_config(preset)
        states, mesh, model, bd, scfg = _run_states(cfg, eps, 6)
        stepper = _Stepper(mesh, model, scfg)
        stepped = [states[0]]
        for k in range(1, 7):
            stepped.append(_advance(stepper, bd, stepped[-1], k * scfg.dt, k))
        buffers = [a for a in vars(stepper).values()
                   if isinstance(a, np.ndarray)]
        buffers += [a for a in stepper.kept or () if isinstance(a, np.ndarray)]
        for solver_ in (stepper.u_solver, getattr(stepper, "s_solver", None)):
            buffers += [] if solver_ is None else list(solver_.arrays)
        n = mesh.N + 1
        res = run(build_initial(cfg, mesh, build_physical(cfg)), mesh, model,
                  bd, scfg, output_every=1)
        for group in (states, stepped, res.trajectory):
            fields = [(s.u, s.sigma_v) for s in group]
            for i, (u, s) in enumerate(fields):
                for buf in buffers:
                    assert not np.shares_memory(u, buf)
                    assert not np.shares_memory(s, buf)
                for v, w in fields[i + 1:]:
                    assert not any(np.shares_memory(a, b)
                                   for a in (u, s) for b in (v, w))
        for state in stepped[1:] + states[1:]:
            chain = state.chain
            assert chain[n].tobytes() == chain[-1].tobytes() == \
                np.float64(0.0).tobytes()
            assert np.shares_memory(chain, state.u)
            assert np.shares_memory(chain, state.sigma_v)

    @_eps_cells(0.0, 1e-2)
    def test_recorder_rows_same_for_chained_and_unchained(self, eps):
        # homogenize centred on 0, so u and f = -u*M0 take both signs
        cfg = _constant_law_config("model.M0.value = -0.0")
        states, mesh, *_ = _run_states(cfg, eps, 40)
        tables = []
        for group in (states, [_from_arrays(s) for s in states]):
            table = np.empty((len(group), 11))
            recorder = Recorder(mesh, 0.8, table, reg_weight=eps * 1e-3)
            for state in group:
                recorder.add(state)
            recorder.flush()
            tables.append((table.tobytes(), recorder.reg_u, recorder.reg_s))
        assert tables[0] == tables[1]


def _constant_law_config(*lines):
    """homogenize with its cosine centred on 0, so u takes both signs and
    f = -u*M0 takes both zeros, plus the given lines."""
    return parse_config("\n".join(('preset = "homogenize"',
                                    "initial.u0.mean = 0.0") + lines) + "\n")


class TestFrozen:
    """Constant-law runs keep their step-1 build, bit for bit."""

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("preset", ["homogenize", "fickian"])
    def test_frozen_preset_matches_reference_loop(self, preset, eps):
        # fickian's u crosses zero, so its f holds both +0.0 and -0.0
        model = _assert_run_matches_reference_loop(
            preset_config(preset), 500, eps)
        assert model.frozen

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("preset, laws", [
        ("homogenize", dict(D=1.0, E=0.1, beta1=-1.0, gamma=0.5)),
        ("fickian", {})])
    def test_constant_model_runs_are_frozen(self, preset, laws, eps):
        # constant_model() is fickian's laws; the other is homogenize's
        model = constant_model(**laws)
        assert model.frozen
        _assert_run_matches_reference_loop(preset_config(preset),
                                           200, eps, model=model)

    @_eps_cells(0.0, 1e-2)
    @pytest.mark.parametrize("lines, frozen", [
        (["model.M0.value = -0.0"], True), (["model.nu0.value = -0.0"], True),
        (["model.mu0.value = -0.0"], False)])
    def test_signed_zero_laws_match_reference_loop(self, lines, frozen, eps):
        model = _assert_run_matches_reference_loop(
            _constant_law_config(*lines), 50, eps)
        assert model.frozen is frozen

    @pytest.mark.parametrize("lines", [
        [], ["model.M0.value = -0.0"], ["model.nu0.value = -0.0"],
        ["model.E0.value = 0.0"]])
    def test_frozen_fields_do_not_move(self, lines):
        # what a step builds from the fields is the same bits at every
        # state: D, E, beta1 and gamma, and the +0.0 load of f
        model = build_model(_constant_law_config(*lines))
        assert model.frozen
        x = np.linspace(0.0, 1.0, 65)
        rng = np.random.default_rng(7)
        built = set()
        for t in (0.0, 0.5, 7.0):
            u, s = rng.normal(0.0, 1.0, (2, 65))
            u[:3] = [0.0, -0.0, 1e-9]
            D, E, f, b1, g = (np.broadcast_to(v, x.shape) for v in
                              model.fields(t, x, u, s))
            load = assemble_flux_vector(build_mesh(1.0, 64), f)
            assert load.tobytes() == np.zeros(65).tobytes()
            built.add(b"".join(v.tobytes() for v in (D, E, b1, g)))
        assert len(built) == 1

    def test_nonzero_nu0_moves_gamma(self):
        # gamma = mu0 - beta0*(0.1*u)/u: the ratio is 0.1 only at some u
        model = build_model(_constant_law_config("model.nu0.value = 0.1",
                                                 "model.mu0.value = 0.0"))
        assert not model.frozen
        u = np.linspace(0.05, 0.95, 65)
        gamma = model.fields(0.0, 0.0, u, np.zeros(65))[4]
        assert len(set(gamma.tolist())) > 1

    @pytest.mark.parametrize("lines, frozen", [
        (['preset = "homogenize"'], True), (['preset = "fickian"'], True),
        (['preset = "sorption"'], False),
        (['preset = "homogenize"', "model.nu0.value = 0.1"], False),
        (['preset = "homogenize"', "model.M0.value = 2.0",
          "check.lyapunov = false"], False),
        (['preset = "homogenize"', "model.mu0.value = -0.0"], False)])
    def test_flag_follows_the_laws(self, lines, frozen):
        model = build_model(parse_config("\n".join(lines) + "\n"))
        assert model.frozen is frozen

    def test_flag_off_for_hand_built_and_changed_models(self):
        const = physical_from_models(
            *(make_scalar_model("constant", value=v)
              for v in (1.0, 0.1, 0.0, 1.0, 0.5, 0.0)))
        assert transform(const).frozen
        hand = dataclasses.replace(const, constants={})
        assert not transform(hand).frozen
        model = transform(const)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.f = lambda t, x, u, s: np.zeros(np.shape(u))
        assert model.frozen
        replaced = dataclasses.replace(model, D=model.D)
        assert not replaced.frozen
        own = transform(const)
        hand_built = TransformedModel(D=own.D, E=own.E, f=own.f,
                                      beta1=own.beta1, gamma=own.gamma)
        assert not hand_built.frozen

    def test_frozen_run_evaluates_each_law_once(self, monkeypatch):
        # a constant law enters the fields as its value, so homogenize
        # calls only nu0's antiderivative, once per run as it is frozen;
        # sorption calls it, D0, E0 and beta0 once per step
        calls = _count_law_calls(monkeypatch)
        counts = {}
        for preset in ("homogenize", "sorption"):
            cfg = preset_config(preset)
            mesh = build_mesh_from(cfg)
            phys = build_physical(cfg)
            init = build_initial(cfg, mesh, phys)
            dt = cfg["time.dt"]
            calls.clear()
            run(init, mesh, transform(phys), build_boundary(cfg),
                SolverConfig(dt=dt, T_end=5 * dt))
            counts[preset] = len(calls)
        assert counts["homogenize"] == 1
        assert counts["sorption"] == 4 * 5

    @pytest.mark.parametrize("lines, message", [
        (["model.D0.value = -1.0"], "not SPD at step 1 "),
        (["model.beta0.value = -2000.0"],
         "implicit stress decay singular at step 1:")])
    def test_failures_keep_their_step_index(self, lines, message):
        cfg = parse_config("\n".join(['preset = "homogenize"',
                                      "time.T_end = 0.01"] + lines) + "\n")
        mesh = build_mesh_from(cfg)
        phys = build_physical(cfg)
        model = transform(phys)
        assert model.frozen
        with pytest.raises(LinearSolveFailure, match=message):
            run(build_initial(cfg, mesh, phys), mesh, model,
                build_boundary(cfg), build_solver_config(cfg))


class TestFlux:
    def test_constant_state_zero_flux(self):
        mesh = build_mesh(1.0, 8)
        phys = _fickian_phys()
        state = State(t=0.0, u=np.full(9, 0.3), sigma_v=np.full(9, 0.1))
        assert np.allclose(compute_flux(state, mesh, phys), 0.0, atol=1e-14)

    def test_fickian_cosine_gradient(self):
        mesh = build_mesh(1.0, 256)
        phys = _fickian_phys(D=2.0)
        u = np.cos(math.pi * mesh.nodes)
        state = State(t=0.0, u=u, sigma_v=np.zeros_like(u))
        J = compute_flux(state, mesh, phys)
        exact = 2.0 * math.pi * np.sin(math.pi * mesh.midpoints)
        assert np.max(np.abs(J - exact)) <= 1e-3

    def test_boundary_flux_matches_influx(self):
        # after a long steady influx the discrete boundary flux approaches
        # the prescribed value
        mesh = build_mesh(1.0, 128)
        phys = _fickian_phys()
        model = constant_model(D=1.0)
        bd = BoundaryData(phi_left=lambda t: 0.5, phi_right=lambda t: 0.0)
        init = InitialData(np.zeros(129), np.zeros(129), phys)
        res = run(init, mesh, model, bd, SolverConfig(dt=1e-4, T_end=0.2))
        J = compute_flux(res.final_state, mesh, phys)
        # influx phi at the left boundary (outward normal -1): J(0) = phi_left
        assert J[0] == pytest.approx(0.5, abs=0.02)
