"""Norm monitors, Lyapunov/mass checks, and the CSV serialization."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscodiff import config as cfgmod
from viscodiff.coefficients import (Box, LongTimeCondition, constant_model,
                                    transform)
from viscodiff.diagnostics import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    DECAY_STEP_SLACK,
    MASS_BALANCE_TOL,
    DiagnosticsRecord,
    Recorder,
    apriori_scaling_check,
    homogenization_from_record,
    homogenization_metric,
    homogenized_since,
    longtime_box_check,
    lyapunov_decay_check,
    mass_balance_check,
    record,
    RecordTable,
)
from viscodiff.discretization import (ZERO_INFLUX, BoundaryData, build_mesh,
                                      pair_rows)
from viscodiff.output import csv_blocks
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
        table = np.empty((5, len(CSV_COLUMNS)))
        recorder = Recorder(mesh, 1.0, table)
        for k in range(5):
            recorder.add(State(t=0.1 * k, u=rng.normal(size=17),
                               sigma_v=rng.normal(size=17)))
        recorder.flush()
        for name in ("cum_grad_u", "cum_grad_s"):
            cum = table[:, CSV_COLUMNS.index(name)]
            assert cum[0] == 0.0 and np.all(np.diff(cum) >= 0.0)


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


def _metric_table(n, L=1.0):
    """A record table of n rows at t = k/n whose homogenization metric is
    0: mass L*ubar and l2_u^2 = mass^2/L."""
    table = np.zeros((n, len(CSV_COLUMNS)))
    table[:, CSV_COLUMNS.index("t")] = np.arange(n) / n
    table[:, CSV_COLUMNS.index("mass")] = 0.5 * L
    table[:, CSV_COLUMNS.index("l2_u")] = math.sqrt(0.25 * L)
    return table


def _list_walk(table, L, tol):
    """homogenized_since as one walk back over whole-column lists."""
    t, l2_u, mass = (table[:, CSV_COLUMNS.index(c)].tolist()
                     for c in ("t", "l2_u", "mass"))
    since = None
    for k in reversed(range(len(t))):
        if not homogenization_from_record(l2_u[k], mass[k], L) < tol:
            break
        since = t[k]
    return since


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

    @pytest.mark.parametrize("above", [
        # rows above tol, as offsets back from the last row (the last
        # block starts at offset BLOCK_ROWS - 1): a final decay across
        # the joint after a dip below tol and a rise again, a rise on
        # either side of the joint, none, and only the first row
        [BLOCK_ROWS + 2, BLOCK_ROWS + 3, BLOCK_ROWS + 9],
        [BLOCK_ROWS - 1], [BLOCK_ROWS], [], [2 * BLOCK_ROWS + 6]])
    def test_blocks_equal_the_list_walk(self, above):
        n = 2 * BLOCK_ROWS + 7
        table = _metric_table(n)
        l2_u = table[:, CSV_COLUMNS.index("l2_u")]
        for k in above:
            # metric 2e-4 on row n - 1 - k, counted back from the last row
            l2_u[n - 1 - k] = math.sqrt(4e-8 + 0.25)
        series = RecordTable(table)
        expected = _list_walk(table, 1.0, 1e-4)
        assert homogenized_since(series, 1.0, 1e-4) == expected
        assert expected == (table[n - min(above), 0] if above else 0.0)

    def test_memory_stays_bounded(self):
        # every row below tol, so the walk reads the whole table
        series = RecordTable(_metric_table(50001))
        tracemalloc.start()
        try:
            assert homogenized_since(series, 1.0, 1e-4) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

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
        bd = BoundaryData(phi_left=np.sin, phi_right=lambda t: 0.0)
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


    @pytest.mark.parametrize("drift, ok", [(5e-9, True), (1e-7, False)])
    def test_tolerance_scales_with_the_mass_reached(self, drift, ok):
        # the mass grows from 0 by 1 a step; a drift of 5e-9 at step 500,
        # where the mass is 500, is 1e-11 of it: round-off, although it
        # is 50 times the tolerance that the initial mass alone gives
        bd = BoundaryData(phi_left=lambda t: 1000.0, phi_right=lambda t: 0.0)
        series = [DiagnosticsRecord(
            t=k * 1e-3, mass=k + (drift if k == 500 else 0.0), l2_u=0.0,
            h1semi_u=0.0, l2_s=0.0, h1semi_s=0.0, lyapunov=0.0,
            cum_grad_u=0.0, cum_grad_s=0.0, u_min=0.0, u_max=0.0)
            for k in range(1001)]
        report = mass_balance_check(series, bd)
        assert (report.ok, report.first_violation) == (
            (True, None) if ok else (False, 500))
        assert (report.ok, report.first_violation, report.message) == \
            _mass_loop(series, bd)


def _lyapunov_loop(series, lt):
    """The scalar loop lyapunov_decay_check replaced, each failure test
    written as the negation of its passing comparison: the reference."""
    G, G0, tol = lt.Gamma, lt.Gamma_0, DECAY_STEP_SLACK
    rows = iter(list(series))
    first = next(rows)
    t_prev, lyap0 = first.t, first.lyapunov
    lyap_prev = lyap0
    bound = lyap0 / min(G0 * G * G, G0) + tol
    cum_right = 0.0
    w = G0 * min(G * G, 1.0)
    for k, r in enumerate(rows, start=1):
        cum_right += (r.t - t_prev) * (r.h1semi_u ** 2 + r.h1semi_s ** 2)
        if not r.lyapunov <= lyap_prev + tol:
            message = (f"Lyapunov increase at step {k} (t={r.t:.6g}): "
                       f"{lyap_prev:.12g} -> {r.lyapunov:.12g}")
        elif not (r.cum_grad_u <= bound and r.cum_grad_s <= bound):
            message = (f"cumulative gradient integral exceeds the decay bound "
                       f"{bound:.6g} at step {k}")
        elif not r.lyapunov + w * cum_right <= lyap0 + tol * (k + 1):
            message = (f"dissipation inequality fails at step {k} "
                       f"(t={r.t:.6g}): {r.lyapunov:.12g} + "
                       f"{w * cum_right:.12g} > {lyap0:.12g}")
        else:
            t_prev, lyap_prev = r.t, r.lyapunov
            continue
        return (False, k, message)
    return (True, None, f"non-increasing over {len(series)} records "
                        f"(initial {lyap0:.6g}, final {lyap_prev:.6g})")


def _mass_loop(series, bd, epsilon=0.0):
    """The scalar loop mass_balance_check replaced, its failure test
    written as the negation of the passing comparison: the reference."""
    rows = iter(list(series))
    first = next(rows)
    t_prev, mass0 = first.t, first.mass
    expected = mass = mass0
    influx = 0.0
    peak = abs(mass0)  # the largest |mass| up to step k
    for k, r in enumerate(rows, start=1):
        t, mass = r.t, r.mass
        dt = t - t_prev
        gain = dt * (float(bd.phi_left(t)) + float(bd.phi_right(t)))
        influx += gain
        expected = (expected + gain) / (1.0 + dt * epsilon)
        drift = mass - expected
        peak = max(peak, abs(mass))
        if not abs(drift) <= MASS_BALANCE_TOL * (1.0 + peak):
            return (False, k, f"mass drift {drift:.3e} at step {k} "
                              f"(t={t:.6g}) exceeds "
                              f"{MASS_BALANCE_TOL:g} relative "
                              f"(net gain {mass - mass0:.12g}, "
                              f"influx sum dt*phi {influx:.12g})")
        t_prev = t
    return (True, None, f"mass tracks influx over {len(series) - 1} steps "
                        f"(net gain {mass - mass0:.12g}, "
                        f"influx sum dt*phi {influx:.12g})")


def _tampered(records, row, **changes):
    rows = list(records)
    for k in (row if isinstance(row, tuple) else (row,)):
        rows[k] = rows[k]._replace(**{
            name: f(getattr(rows[k], name)) for name, f in changes.items()})
    return rows


class TestChecksMatchTheScalarLoops:
    """The mass and Lyapunov checks pass over blocks of records with
    numpy; they give the verdict, the step and the message of the scalar
    loops they replaced, bit for bit, on runs longer than two blocks and
    on tables tampered to fail in each way, at a block's first or last
    row or inside one."""

    LT = LongTimeCondition(Gamma=1.0, Gamma_0=0.8, verified_box=BOX)

    @pytest.fixture(scope="class")
    def decay(self):
        model = constant_model(D=1.0, E=0.1, beta1=-1.0, gamma=0.5)
        return list(_series_from_run(model, T=2.5, N=8).records)

    @pytest.mark.parametrize("case", [
        "pass", "rise", "rise-and-bound", "bound", "bound-and-dissipation",
        "dissipation", "nan-before-rise"])
    @pytest.mark.parametrize("row", [1, 1023, 1024, 1025, 2500])
    def test_lyapunov(self, decay, case, row):
        big = lambda v: v + 1e6  # noqa: E731
        rise = lambda v: v + 1.0  # noqa: E731
        series = {
            "pass": decay,
            "rise": _tampered(decay, row, lyapunov=rise),
            "rise-and-bound": _tampered(decay, row, lyapunov=rise,
                                        cum_grad_s=big),
            "bound": _tampered(decay, row, cum_grad_u=big),
            "bound-and-dissipation": _tampered(decay, row, cum_grad_u=big,
                                               h1semi_s=big),
            "dissipation": _tampered(decay, row, h1semi_u=big),
            # the NaN fails at its step, before the rise after it
            "nan-before-rise": _tampered(
                _tampered(decay, row - 1, lyapunov=lambda v: math.nan),
                row, lyapunov=rise),
        }[case]
        report = lyapunov_decay_check(series, self.LT)
        ok, step, message = _lyapunov_loop(series, self.LT)
        assert (report.ok, report.first_violation, report.message) == (
            ok, step, message)
        assert ok == (case == "pass")
        if case == "nan-before-rise":
            assert step == max(row - 1, 1)

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("row", [None, 1, 1024, 1025, 1800, 2500])
    def test_mass_balance(self, eps, row):
        mesh = build_mesh(1.0, 8)
        bd = BoundaryData(phi_left=lambda t: 0.3 * np.sin(5 * t),
                          phi_right=lambda t: np.where(t <= 1.2, -0.1, 0.0))
        u0 = 0.5 + 0.3 * np.cos(math.pi * mesh.nodes)
        res = run(InitialData(u0, np.zeros_like(u0), _fickian_phys()), mesh,
                  constant_model(D=1.0, E=0.1, gamma=0.5), bd,
                  SolverConfig(dt=1e-3, T_end=2.5, epsilon=eps))
        series = list(res.records) if row is None else _tampered(
            res.records, row, mass=lambda v: v + 1e-8)
        report = mass_balance_check(series, bd, epsilon=eps)
        assert (report.ok, report.first_violation, report.message) == \
            _mass_loop(series, bd, eps)
        assert report.ok == (row is None)


class _BoxMonitor:
    """The per-state run observer longtime_box_check replaced: the
    reference.  It keeps the nodewise minima and maxima of the states'
    chains and reports as longtime_box_check does."""

    def __init__(self, box, n_nodes):
        self.box = box
        self.t = (math.inf, -math.inf)
        self.lo = np.full(2 * n_nodes + 2, math.inf)
        self.hi = np.full(2 * n_nodes + 2, -math.inf)

    def __call__(self, state):
        t_lo, t_hi = self.t
        self.t = min(t_lo, state.t), max(t_hi, state.t)
        np.minimum(self.lo, state.chain, out=self.lo)
        np.maximum(self.hi, state.chain, out=self.hi)

    def report(self):
        ranges = [("t", "t", self.t)] + [
            (name, axis, (float(lo.min()), float(hi.max())))
            for name, axis, lo, hi in zip(("u", "varsigma"), "us",
                                          pair_rows(self.lo),
                                          pair_rows(self.hi))]
        for name, axis, (lo, hi) in ranges:
            b_lo, b_hi = getattr(self.box, axis)
            slack = 1e-9 * max(abs(b_lo), abs(b_hi)) if axis == "t" else 0.0
            if lo < b_lo - slack or hi > b_hi + slack:
                return False, (f"{name} range [{lo:.6g}, {hi:.6g}] leaves "
                               f"longtime.box.{axis} = [{b_lo:g}, {b_hi:g}]")
        return True, "run stays in the longtime box: " + ", ".join(
            f"{name} in [{lo:.6g}, {hi:.6g}]" for name, _, (lo, hi) in ranges)


def _preset_run(name, observers, **values):
    """A run of the preset with values set, each observer seeing every
    state."""
    cfg = cfgmod.validate({**cfgmod.preset_config(name).values, **values})
    mesh = cfgmod.build_mesh_from(cfg)
    phys = cfgmod.build_physical(cfg)

    def observe(state):
        for o in observers:
            o(state)
    return run(cfgmod.build_initial(cfg, mesh, phys), mesh, transform(phys),
               cfgmod.build_boundary(cfg), cfgmod.build_solver_config(cfg),
               observer=observe)


class TestLongtimeBox:
    """The varsigma range a run records, and the box check on it."""

    @pytest.mark.parametrize("name, values", [
        # 31 states a record block, so the range crosses block joints
        ("sorption", {"time.T_end": 0.5}),
        # one state a block
        ("case2-front", {"mesh.N": 2048, "time.T_end": 20 * 2e-4}),
        # the regularized path
        ("eps-scan", {"epsilon": 1e-2, "time.T_end": 0.2}),
    ])
    def test_varsigma_range_is_that_of_every_state(self, name, values):
        lo, hi = [math.inf], [-math.inf]

        def extremes(state):
            lo[0] = min(lo[0], float(state.sigma_v.min()))
            hi[0] = max(hi[0], float(state.sigma_v.max()))
        res = _preset_run(name, [extremes], **values)
        assert np.array(res.varsigma_range).tobytes() == \
            np.array([lo[0], hi[0]]).tobytes()

    @pytest.mark.parametrize("name, values, boxes", [
        # homogenize starts at u in [0.2, 0.8] and varsigma = 0.25; its
        # varsigma extremes fall at step 255, in the fifth record block
        ("homogenize", {"time.T_end": 1.0}, [
            {}, {"t": (0.0, 0.5)}, {"t": (0.5, 1.0)}, {"u": (0.49, 0.51)},
            {"u": (0.2, 0.7)}, {"s": (0.9, 1.0)}, {"s": (0.0, 0.25)}]),
        # 3 steps of 0.1 end at t = 0.30000000000000004, inside [0, 0.3]
        ("homogenize", {"time.dt": 0.1, "time.T_end": 0.3},
         [{"t": (0.0, 0.3)}, {"t": (0.0, 0.2999)}]),
        # sorption's varsigma peaks at its last state, the 33rd block's
        ("sorption", {"time.T_end": 0.5},
         [{}, {"s": (-0.005, 0.0448)}, {"s": (0.0, 1.0)}]),
    ])
    def test_check_matches_the_per_state_monitor(self, name, values, boxes):
        base = dict(t=(0.0, values["time.T_end"]), x=(0.0, 1.0),
                    u=(0.0, 1.0), s=(-1.0, 1.0))
        boxes = [Box(**{**base, **b}) for b in boxes]
        n_nodes = cfgmod.preset_config(name)["mesh.N"] + 1
        monitors = [_BoxMonitor(box, n_nodes) for box in boxes]
        res = _preset_run(name, monitors, **values)
        verdicts = [longtime_box_check(res.records, res.varsigma_range, box)
                    for box in boxes]
        assert [(c.ok, c.message) for c in verdicts] == [
            m.report() for m in monitors]
        assert {c.ok for c in verdicts} == {True, False}


def _passing_table():
    """5 hand-made records that pass every check on BOX with zero influx:
    constant mass, a decreasing Lyapunov functional, no gradients, and
    u in [0.2, 0.5]."""
    table = np.zeros((5, len(CSV_COLUMNS)))
    for name, column in (("t", 0.1 * np.arange(5)), ("mass", 1.0),
                         ("l2_u", 1.0), ("lyapunov", 1.0 - 0.1 * np.arange(5)),
                         ("u_min", 0.2), ("u_max", 0.5)):
        table[:, CSV_COLUMNS.index(name)] = column
    return table


class TestNaNFails:
    """A NaN in a record fails the check at its step: every failure test
    negates its passing comparison."""

    LT = LongTimeCondition(Gamma=1.0, Gamma_0=1.0, verified_box=BOX)

    @staticmethod
    def _with_nan(name, row=2):
        table = _passing_table()
        table[row, CSV_COLUMNS.index(name)] = math.nan
        return RecordTable(table)

    def test_tables_pass_without_the_nan(self):
        records = RecordTable(_passing_table())
        assert mass_balance_check(records, ZERO_INFLUX).ok
        assert lyapunov_decay_check(records, self.LT).ok
        assert longtime_box_check(records, (0.0, 0.0), BOX).ok

    def test_mass_balance(self):
        report = mass_balance_check(self._with_nan("mass"), ZERO_INFLUX)
        assert (report.ok, report.first_violation) == (False, 2)
        assert report.message == (
            "mass drift nan at step 2 (t=0.2) exceeds 1e-10 relative "
            "(net gain nan, influx sum dt*phi 0)")

    def test_lyapunov_decay(self):
        report = lyapunov_decay_check(self._with_nan("lyapunov"), self.LT)
        assert (report.ok, report.first_violation) == (False, 2)
        assert report.message == \
            "Lyapunov increase at step 2 (t=0.2): 0.9 -> nan"

    def test_longtime_box(self):
        report = longtime_box_check(self._with_nan("u_min"), (0.0, 0.0), BOX)
        assert not report.ok
        assert report.message == \
            "u range [nan, 0.5] leaves longtime.box.u = [0, 1]"


def _scan_results(*members):
    """{eps: result} with only the fields apriori_scaling_check reads, from
    (eps, reg_energy_u, reg_energy_s, sup_h1_s) tuples."""
    return {eps: types.SimpleNamespace(reg_energy_u=ru, reg_energy_s=rs,
                                       sup_h1_s=sup)
            for eps, ru, rs, sup in members}


class TestAprioriScaling:
    def test_single_run_passes_vacuously(self):
        report = apriori_scaling_check(_scan_results((1e-2, 5.0, 5.0, 1.0)))
        assert report.ok and report.message == "single run: vacuously bounded"

    def test_bounded_family_passes(self):
        report = apriori_scaling_check(_scan_results(
            (1e-3, 1.1, 2.2, 1.1), (1e-2, 1.0, 2.0, 1.0),
            (1e-4, 0.5, 0.5, 1.05)))
        assert report.ok
        assert report.message == ("bounded across eps=[0.01, 0.001, 0.0001]: "
                                  "sup H1(s) in [1, 1.1]")

    def test_u_energy_growth_fails(self):
        report = apriori_scaling_check(_scan_results(
            (1e-2, 1.0, 2.0, 1.0), (1e-3, 1.2, 2.0, 1.0)))
        assert not report.ok
        assert report.message == ("eps-weighted H2 energy of u grows: 1.2 at "
                                  "eps=0.001 vs 1 at eps=0.01")

    def test_stress_energy_growth_fails(self):
        report = apriori_scaling_check(_scan_results(
            (1e-2, 1.0, 2.0, 1.0), (1e-3, 1.0, 2.3, 1.0)))
        assert not report.ok
        assert report.message == ("eps-weighted H2 energy of stress grows at "
                                  "eps=0.001")

    def test_sup_h1_spread_fails(self):
        report = apriori_scaling_check(_scan_results(
            (1e-2, 1.0, 2.0, 1.0), (1e-3, 1.0, 2.0, 1.2)))
        assert not report.ok
        assert report.message == ("sup-in-time H1 norm of stress spreads "
                                  "beyond 10%: [1, 1.2]")

    def test_nan_u_energy_fails(self):
        report = apriori_scaling_check(_scan_results(
            (1e-2, 1.0, 2.0, 1.0), (1e-3, math.nan, 2.0, 1.0)))
        assert not report.ok
        assert report.message == ("eps-weighted H2 energy of u grows: nan at "
                                  "eps=0.001 vs 1 at eps=0.01")

    def test_nan_sup_h1_fails(self):
        # Python's min and max skip a NaN after the first entry
        report = apriori_scaling_check(_scan_results(
            (1e-2, 1.0, 2.0, 1.0), (1e-3, 1.0, 2.0, math.nan)))
        assert not report.ok
        assert report.message == ("sup-in-time H1 norm of stress is nan at "
                                  "eps=0.001")


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
        text = "".join(csv_blocks(CSV_COLUMNS, [rec]))
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        vals = [float(v) for v in lines[1].split(",")]
        assert vals[1] == 1 / 3  # %.17g is value-exact
        assert vals[9] == -1e-17

    def test_header_note_line(self):
        rec = DiagnosticsRecord(*([0.0] * 11))
        text = "".join(csv_blocks(CSV_COLUMNS, [rec],
                                  note="generated sometime"))
        assert text.splitlines()[0] == "# generated sometime"
