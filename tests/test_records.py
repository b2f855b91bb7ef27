"""A run's records: one float64 table behind a read-only sequence view.

The view must read like the list of records it replaced, the checks
must report the same on the table as on a list, a failed step must
carry the records before it, and a long run must hold its records and
write its CSV in little memory.
"""

import math
import tracemalloc

import numpy as np
import pytest

from viscodiff import config
from viscodiff.coefficients import (Box, LongTimeCondition, constant_model,
                                    make_scalar_model, physical_from_models)
from viscodiff.diagnostics import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    DiagnosticsRecord,
    RecordTable,
    lyapunov_decay_check,
    mass_balance_check,
)
from viscodiff.discretization import BoundaryData, ZERO_INFLUX, build_mesh
from viscodiff.output import write_diagnostics
from viscodiff.solver import (InitialData, LinearSolveFailure, SolverConfig,
                              run)

BOX = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))


def _preset_run(text):
    cfg = config.parse_config(text)
    mesh = config.build_mesh_from(cfg)
    phys = config.build_physical(cfg)
    bd = config.build_boundary(cfg)
    init = config.build_initial(cfg, mesh, phys)
    return (init, mesh, config.build_model(cfg), bd,
            config.build_solver_config(cfg))


def _cosine_init(mesh):
    """u = 0.5 + 0.3 cos(pi x), zero stress, no change of variables."""
    laws = {role: make_scalar_model("constant", value=0.0)
            for role in ("D0", "E0", "M0", "beta0", "mu0", "nu0")}
    u0 = 0.5 + 0.3 * np.cos(math.pi * mesh.nodes)
    return InitialData(u0, np.zeros_like(u0), physical_from_models(**laws))


def _table(n_rows):
    """n_rows rows, every entry distinct, so a misplaced row shows."""
    return np.arange(n_rows * len(CSV_COLUMNS), dtype=float).reshape(
        n_rows, len(CSV_COLUMNS)) / 7.0


class TestView:
    def test_reads_like_a_list_of_records(self):
        n = 2 * BLOCK_ROWS + 5
        table = _table(n)
        view = RecordTable(table)
        records = [DiagnosticsRecord(*row) for row in table.tolist()]
        assert len(view) == n
        assert list(view) == records
        assert view[0] == records[0] and view[-1] == records[-1]
        assert view[np.int64(BLOCK_ROWS)] == records[BLOCK_ROWS]
        assert all(type(v) is float for v in view[3])
        assert type(next(iter(view)).t) is float
        assert list(view[BLOCK_ROWS - 2:BLOCK_ROWS + 3]) == \
            records[BLOCK_ROWS - 2:BLOCK_ROWS + 3]
        assert list(reversed(view)) == records[::-1]
        with pytest.raises(IndexError):
            view[n]

    def test_array_is_the_table_and_read_only(self):
        table = _table(10)
        view = RecordTable(table)
        arr = np.asarray(view)
        assert np.shares_memory(arr, table)
        assert arr.tobytes() == table.tobytes()
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        with pytest.raises(TypeError):
            view[0] = view[1]
        copied = np.array(view)
        assert not np.shares_memory(copied, table) and copied.flags.writeable

    def test_run_records_are_the_rows_of_one_table(self):
        init, mesh, model, bd, scfg = _preset_run(
            'preset = "sorption"\ntime.T_end = 0.05\n')
        res = run(init, mesh, model, bd, scfg)
        assert isinstance(res.records, RecordTable)
        table = np.asarray(res.records)
        assert table.shape == (scfg.n_steps + 1, len(CSV_COLUMNS))
        assert table.dtype == np.float64
        assert res.sup_h1_s == max(math.hypot(r.l2_s, r.h1semi_s)
                                   for r in res.records)


class TestChecksOnTheTable:
    """Each check reports the same on the view as on a list of records."""

    @staticmethod
    def _same(a, b):
        return (a.ok, a.first_violation, a.message) == \
            (b.ok, b.first_violation, b.message)

    def test_mass_balance(self):
        mesh = build_mesh(1.0, 32)
        bd = BoundaryData(phi_left=lambda t: 0.3, phi_right=lambda t: 0.0)
        model = constant_model(D=1.0, E=0.1, gamma=0.5)
        res = run(_cosine_init(mesh), mesh, model, bd,
                  SolverConfig(dt=1e-3, T_end=1.5))
        assert len(res.records) > BLOCK_ROWS
        passed = mass_balance_check(res.records, bd)
        assert passed.ok
        assert self._same(passed, mass_balance_check(list(res.records), bd))

        table = np.array(res.records)
        table[1100, CSV_COLUMNS.index("mass")] += 1e-8
        records = list(res.records)
        records[1100] = records[1100]._replace(mass=records[1100].mass + 1e-8)
        failed = mass_balance_check(RecordTable(table), bd)
        assert not failed.ok and failed.first_violation == 1100
        assert self._same(failed, mass_balance_check(records, bd))

    def test_lyapunov_decay(self):
        mesh = build_mesh(1.0, 32)
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        res = run(_cosine_init(mesh), mesh, model, ZERO_INFLUX,
                  SolverConfig(dt=1e-3, T_end=1.5))
        lt = LongTimeCondition(Gamma=1.0, Gamma_0=1.0, verified_box=BOX)
        passed = lyapunov_decay_check(res.records, lt)
        assert passed.ok
        assert self._same(passed, lyapunov_decay_check(list(res.records), lt))

        table = np.array(res.records)
        table[1030, CSV_COLUMNS.index("lyapunov")] += 1e-3
        records = [DiagnosticsRecord(*row) for row in table.tolist()]
        failed = lyapunov_decay_check(RecordTable(table), lt)
        assert not failed.ok and failed.first_violation == 1030
        assert self._same(failed, lyapunov_decay_check(records, lt))


def test_failed_step_carries_the_records_before_it():
    init, mesh, model, bd, scfg = _preset_run(
        'preset = "sorption"\nmodel.beta0 = "constant"\n'
        "model.beta0.value = -2000.0\n")
    with pytest.raises(LinearSolveFailure, match="at step 1") as exc:
        run(init, mesh, model, bd, scfg)
    records = exc.value.records
    assert isinstance(records, RecordTable)
    assert len(records) == 1 and records[0].t == 0.0


def test_long_run_holds_records_in_little_memory(tmp_path):
    # 10000 homogenize steps: a list of records and a CSV built whole
    # in memory peak near 11 MB; the table is 0.9 MB
    init, mesh, model, bd, scfg = _preset_run(
        'preset = "homogenize"\ntime.T_end = 10.0\n')
    tracemalloc.start()
    try:
        res = run(init, mesh, model, bd, scfg, output_every=5000)
        assert mass_balance_check(res.records, bd).ok
        write_diagnostics(tmp_path / "diagnostics.csv", res.records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.records) == 10_001
    assert peak < 3e6, f"traced peak {peak / 1e6:.2f} MB"
