"""Norm monitors, Lyapunov/mass checks, and the CSV serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscodiff.coefficients import Box, LongTimeCondition, constant_model
from viscodiff.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    Recorder,
    homogenization_from_record,
    homogenization_metric,
    homogenized_since,
    lyapunov_decay_check,
    mass_balance_check,
    record,
)
from viscodiff.discretization import ZERO_INFLUX, BoundaryData, build_mesh
from viscodiff.output import format_csv
from viscodiff.solver import InitialData, SolverConfig, State, run
from viscodiff.coefficients import make_scalar_model, physical_from_models

BOX = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))


def _fickian_phys():
    return physical_from_models(
        D0=make_scalar_model("constant", value=1.0),
        E0=make_scalar_model("constant", value=0.0),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("constant", value=1.0),
        mu0=make_scalar_model("constant", value=0.0),
        nu0=make_scalar_model("constant", value=0.0),
    )


class TestRecord:
    def test_zero_state(self):
        mesh = build_mesh(1.0, 8)
        state = State(t=0.0, u=np.zeros(9), sigma_v=np.zeros(9))
        rec = record(state, mesh)
        for name in ("mass", "l2_u", "h1semi_u", "l2_s", "h1semi_s",
                     "lyapunov", "cum_grad_u", "cum_grad_s"):
            assert getattr(rec, name) == 0.0

    def test_cosine_norms_against_analytic(self):
        mesh = build_mesh(1.0, 256)
        u = np.cos(math.pi * mesh.nodes)
        state = State(t=0.0, u=u, sigma_v=u.copy())
        rec = record(state, mesh)
        assert rec.l2_u ** 2 == pytest.approx(0.5, rel=0.01)
        assert rec.h1semi_u ** 2 == pytest.approx(math.pi ** 2 / 2, rel=0.01)

    def test_lyapunov_hand_value(self):
        # Gamma = 2, u = 1 on [0,1], varsigma linear with slope 1 -> 2.5
        mesh = build_mesh(1.0, 64)
        state = State(t=0.0, u=np.ones(65), sigma_v=mesh.nodes.copy())
        rec = record(state, mesh, gamma=2.0)
        assert rec.lyapunov == pytest.approx(2.5, rel=1e-12)

    def test_gamma_must_be_positive(self):
        mesh = build_mesh(1.0, 8)
        state = State(t=0.0, u=np.zeros(9), sigma_v=np.zeros(9))
        with pytest.raises(ValueError):
            record(state, mesh, gamma=0.0)

    def test_cumulative_integrals_nondecreasing(self):
        mesh = build_mesh(1.0, 16)
        rng = np.random.default_rng(11)
        prev = None
        last_u = last_s = 0.0
        for k in range(5):
            state = State(t=0.1 * k, u=rng.normal(size=17),
                          sigma_v=rng.normal(size=17))
            prev = record(state, mesh, prev=prev)
            assert prev.cum_grad_u >= last_u
            assert prev.cum_grad_s >= last_s
            last_u, last_s = prev.cum_grad_u, prev.cum_grad_s


class TestHomogenizationMetric:
    def test_constant_field_zero(self):
        mesh = build_mesh(1.0, 16)
        state = State(t=0.0, u=np.full(17, 3.2), sigma_v=np.zeros(17))
        assert homogenization_metric(state, mesh) <= 1e-14

    def test_cosine_mode_value(self):
        mesh = build_mesh(1.0, 256)
        state = State(t=0.0, u=1.7 + np.cos(math.pi * mesh.nodes),
                      sigma_v=np.zeros(257))
        assert homogenization_metric(state, mesh) == pytest.approx(
            math.sqrt(0.5), rel=0.01)

    @given(arrays(np.float64, 17, elements=st.floats(-5, 5)),
           st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_constant_shift_invariance(self, u, c):
        mesh = build_mesh(1.0, 16)
        a = homogenization_metric(State(0.0, u, np.zeros(17)), mesh)
        b = homogenization_metric(State(0.0, u + c, np.zeros(17)), mesh)
        assert a == pytest.approx(b, abs=1e-9 * (1 + abs(c) + np.max(np.abs(u))))

    def test_decreasing_along_fickian_run(self):
        mesh = build_mesh(1.0, 64)
        phys = _fickian_phys()
        u0 = np.cos(math.pi * mesh.nodes)
        init = InitialData(u0, np.zeros_like(u0), phys)
        res = run(init, mesh, constant_model(D=1.0), ZERO_INFLUX,
                  SolverConfig(dt=1e-3, T_end=0.2), output_every=50)
        vals = [homogenization_metric(s, mesh) for s in res.trajectory]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _metric_series(times, metrics, L=1.0):
    """Records whose l2_u and mass give the homogenization metrics: mass
    L*ubar, l2_u^2 = metric^2 + mass^2/L."""
    ubar = 0.5
    return [DiagnosticsRecord(t, L * ubar, math.sqrt(m * m + L * ubar * ubar),
                              *[0.0] * 8) for t, m in zip(times, metrics)]


class TestHomogenizedSince:
    def test_dip_rise_decay_counts_from_the_last_entry_below(self):
        # the metric dips below 1e-4 at t=0.2 (a zero crossing of the
        # mode), rises above it, and only from t=0.7 on decays for good
        times = [0.1 * k for k in range(11)]
        metrics = [1e-2, 1e-3, 5e-6, 2e-4, 5e-4, 3e-4, 1.5e-4, 9e-5, 5e-5,
                   1e-5, 1e-6]
        series = _metric_series(times, metrics)
        assert [homogenization_from_record(r.l2_u, r.mass, 1.0) < 1e-4
                for r in series] == [m < 1e-4 for m in metrics]
        assert homogenized_since(series, 1.0, 1e-4) == times[7]

    def test_never_or_always_below(self):
        times = [0.0, 0.5, 1.0]
        assert homogenized_since(_metric_series(times, [1e-2, 1e-5, 2e-4]),
                                 1.0, 1e-4) is None
        assert homogenized_since(_metric_series(times, [1e-6, 1e-7, 0.0]),
                                 1.0, 1e-4) == 0.0
        assert homogenized_since(_metric_series(times, [1e-2, 1e-5, math.nan]),
                                 1.0, 1e-4) is None

    def test_record_formula_matches_the_state_metric(self):
        mesh = build_mesh(1.0, 64)
        state = State(0.0, 0.5 + 0.3 * np.cos(math.pi * mesh.nodes),
                      np.zeros(65))
        rec = record(state, mesh)
        assert homogenization_from_record(rec.l2_u, rec.mass, mesh.L) == \
            pytest.approx(homogenization_metric(state, mesh), rel=1e-9)


class TestRegularizationEnergies:
    @pytest.mark.parametrize("n", [3, 65, 129, 257, 4097])
    def test_row_sums_equal_one_state_sums(self, n):
        # the recorder sums the energies of a block along its last axis;
        # each row must equal the 1-D .sum() of that state, bit for bit
        rng = np.random.default_rng(n)
        block = rng.normal(0.0, 1.0, (7, 2, n)) * 10.0 ** rng.integers(
            -8, 8, (7, 2, 1))
        rows = block.sum(axis=-1)
        assert rows.tobytes() == np.array(
            [[v.sum() for v in pair] for pair in block]).tobytes()

    def test_initial_row_adds_no_energy(self):
        mesh = build_mesh(1.0, 8)
        rng = np.random.default_rng(3)
        states = [State(0.1 * k, *rng.normal(0.0, 1.0, (2, 9)))
                  for k in range(3)]
        table = np.empty((3, len(CSV_COLUMNS)))
        recorder = Recorder(mesh, 1.0, table, reg_weight=0.5)
        recorder.add(states[0])
        recorder.flush()
        assert (recorder.reg_u, recorder.reg_s) == (0.0, 0.0)
        for state in states[1:]:
            recorder.add(state)
        recorder.flush()
        assert recorder.reg_u > 0.0 and recorder.reg_s > 0.0


def _series_from_run(model, T=1.0, dt=1e-3, N=32, gamma=1.0, u_amp=0.3):
    mesh = build_mesh(1.0, N)
    phys = _fickian_phys()
    u0 = 0.5 + u_amp * np.cos(math.pi * mesh.nodes)
    init = InitialData(u0, np.zeros_like(u0), phys)
    res = run(init, mesh, model, ZERO_INFLUX,
              SolverConfig(dt=dt, T_end=T), gamma=gamma)
    return res


class TestLyapunovDecay:
    def test_decoupled_decay_passes(self):
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        res = _series_from_run(model)
        lt = LongTimeCondition(Gamma=1.0, Gamma_0=1.0, verified_box=BOX)
        report = lyapunov_decay_check(res.records, lt)
        assert report.ok
        assert report.details["combined_estimate_ok"]

    def test_constant_initial_data_passes(self):
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        res = _series_from_run(model, u_amp=0.0, T=0.1)
        lt = LongTimeCondition(Gamma=1.0, Gamma_0=1.0, verified_box=BOX)
        assert lyapunov_decay_check(res.records, lt).ok

    def test_dissipation_inequality_enforced(self):
        # L stays 1, so it never increases, yet one unit step dissipates
        # 0.6 + 0.6: L_1 + 1.2 > L_0 breaks the dissipation inequality
        g = math.sqrt(0.6)
        series = [DiagnosticsRecord(
            t=t, mass=0.0, l2_u=0.0, h1semi_u=g, l2_s=0.0, h1semi_s=g,
            lyapunov=1.0, cum_grad_u=c, cum_grad_s=c, u_min=0.0, u_max=0.0)
            for t, c in ((0.0, 0.0), (1.0, 0.6))]
        lt = LongTimeCondition(Gamma=1.0, Gamma_0=1.0, verified_box=BOX)
        report = lyapunov_decay_check(series, lt)
        assert not report.ok and report.first_violation == 1
        assert "dissipation inequality fails at step 1 (t=1)" in report.message

    def test_unstable_stress_reported(self):
        # mu = beta1 = +1: the stress ODE grows, the functional increases
        model = constant_model(D=1.0, E=0.5, beta1=1.0, gamma=0.5)
        res = _series_from_run(model, T=2.0)
        lt = LongTimeCondition(Gamma=1.0, Gamma_0=0.1, verified_box=BOX)
        report = lyapunov_decay_check(res.records, lt)
        assert not report.ok
        assert report.first_violation is not None


class TestMassBalance:
    def test_zero_influx_constant_mass(self):
        model = constant_model(D=1.0, E=0.1, beta1=-1.0, gamma=0.5)
        res = _series_from_run(model)
        assert mass_balance_check(res.records, ZERO_INFLUX).ok

    def test_sine_influx_quadrature(self):
        mesh = build_mesh(1.0, 32)
        phys = _fickian_phys()
        bd = BoundaryData(phi_left=math.sin, phi_right=lambda t: 0.0)
        init = InitialData(np.zeros(33), np.zeros(33), phys)
        dt = 1e-3
        # 3142 steps: the whole number of steps nearest to T = pi
        res = run(init, mesh, constant_model(D=1.0), bd,
                  SolverConfig(dt=dt, T_end=3.142))
        report = mass_balance_check(res.records, bd)
        assert report.ok
        gain = res.records[-1].mass - res.records[0].mass
        assert gain == pytest.approx(2.0, abs=20 * dt)
        influx = 0.0
        for k in range(1, 3143):
            influx += dt * (math.sin(k * dt) + 0.0)
        assert report.message == (f"mass tracks influx over 3142 steps (net "
                                  f"gain {gain:.12g}, influx sum dt*phi "
                                  f"{influx:.12g})")

    def test_regularized_run_follows_recursion(self):
        # the regularization removes dt*eps*m_k from the mass of step k
        mesh = build_mesh(1.0, 32)
        bd = BoundaryData(phi_left=lambda t: 0.3, phi_right=lambda t: 0.0)
        u0 = 0.5 + 0.3 * np.cos(math.pi * mesh.nodes)
        init = InitialData(u0, np.zeros_like(u0), _fickian_phys())
        res = run(init, mesh, constant_model(D=1.0, E=0.1, gamma=0.5), bd,
                  SolverConfig(dt=1e-3, T_end=0.1, epsilon=1e-2))
        assert not mass_balance_check(res.records, bd).ok
        assert mass_balance_check(res.records, bd, epsilon=1e-2).ok
        perturbed = list(res.records)
        perturbed[50] = perturbed[50]._replace(mass=perturbed[50].mass + 1e-8)
        report = mass_balance_check(perturbed, bd, epsilon=1e-2)
        assert not report.ok
        assert report.first_violation == 50

    def test_violation_reported(self):
        model = constant_model(D=1.0)
        res = _series_from_run(model, T=0.01)
        # claim an influx that the closed run cannot have seen
        wrong_bd = BoundaryData(phi_left=lambda t: 1.0,
                                phi_right=lambda t: 0.0)
        report = mass_balance_check(res.records, wrong_bd)
        assert not report.ok
        assert report.first_violation == 1
        # the gain and the influx up to the failing step, side by side
        gain = res.records[1].mass - res.records[0].mass
        assert report.message == (
            "mass drift -1.000e-03 at step 1 (t=0.001) exceeds 1e-10 "
            f"relative (net gain {gain:.12g}, influx sum dt*phi 0.001)")


class TestCsv:
    def test_column_order(self):
        assert CSV_COLUMNS == ("t", "mass", "l2_u", "h1semi_u", "l2_s",
                               "h1semi_s", "lyapunov", "cum_grad_u",
                               "cum_grad_s", "u_min", "u_max")
        assert CSV_COLUMNS == DiagnosticsRecord._fields

    def test_round_trip_values(self):
        rec = DiagnosticsRecord(t=0.1, mass=1 / 3, l2_u=0.2, h1semi_u=0.3,
                                l2_s=0.0, h1semi_s=0.0, lyapunov=0.02,
                                cum_grad_u=0.0, cum_grad_s=0.0,
                                u_min=-1e-17, u_max=0.9)
        text = format_csv(CSV_COLUMNS, [rec])
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        vals = [float(v) for v in lines[1].split(",")]
        assert vals[1] == 1 / 3  # %.17g is value-exact
        assert vals[9] == -1e-17

    def test_header_note_line(self):
        rec = DiagnosticsRecord(*([0.0] * 11))
        text = format_csv(CSV_COLUMNS, [rec], note="generated sometime")
        assert text.splitlines()[0] == "# generated sometime"
