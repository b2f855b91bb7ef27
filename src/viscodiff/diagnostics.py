"""Runtime monitors: norms, mass, Lyapunov functional, estimate checks.

All L2-type norms are weighted by the consistent mass matrix and the
H1 seminorms use the unit stiffness form, so values change only by
quadrature error under mesh refinement.  Cumulative time integrals use
the trapezoid rule at the recording cadence.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .coefficients import Box, LongTimeCondition
from .discretization import (BoundaryData, Mesh, mesh_operators, pair_bands,
                             tridiag_matvec)

__all__ = [
    "DiagnosticsRecord",
    "RecordTable",
    "CheckReport",
    "CSV_COLUMNS",
    "BLOCK_ROWS",
    "RECORD_BLOCK_BYTES",
    "Recorder",
    "record",
    "l2_norm",
    "homogenization_metric",
    "homogenization_from_record",
    "homogenized_since",
    "lyapunov_decay_check",
    "longtime_box_check",
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

# rows per block when a record table is iterated or written out
BLOCK_ROWS = 1024
# bytes of state chains per block of records computed together: 62
# states at N = 64, 31 at N = 128, one from N = 2047 up.  A block's
# products are no larger, so they stay below glibc's 128 KiB mmap
# threshold and reuse heap memory, as the step's own temporaries do.
RECORD_BLOCK_BYTES = 2 ** 16


def _steps(table: np.ndarray, names: Sequence[str]) -> Iterator[tuple]:
    """(k, columns) per block of up to BLOCK_ROWS steps from step k: views
    of the named columns over the block's rows and the row before."""
    cols = [CSV_COLUMNS.index(name) for name in names]
    for k in range(1, len(table), BLOCK_ROWS):
        yield k, [table[k - 1:k + BLOCK_ROWS, c] for c in cols]


class RecordTable(Sequence[DiagnosticsRecord]):
    """Read-only sequence of records over one (n, 11) float64 table.

    Row k holds record k, its columns in ``CSV_COLUMNS`` order, so a
    record costs 88 bytes.  Indexing an int gives a ``DiagnosticsRecord``
    of Python floats, a slice gives a view, ``np.asarray`` gives the
    table itself, and iteration converts BLOCK_ROWS rows at a time.
    """

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        table = table.view()
        table.flags.writeable = False
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordTable(self._table[index])
        return DiagnosticsRecord._make(
            self._table[operator.index(index)].tolist())

    def __iter__(self) -> Iterator[DiagnosticsRecord]:
        for start in range(0, len(self._table), BLOCK_ROWS):
            columns = self._table[start:start + BLOCK_ROWS].T.tolist()
            yield from map(DiagnosticsRecord._make, zip(*columns))

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._table, dtype=dtype)
        return np.asarray(self._table, dtype=dtype)


@dataclass
class CheckReport:
    ok: bool
    name: str
    message: str
    first_violation: Optional[int] = None

    def __bool__(self):
        return self.ok


def _quadratic(main: np.ndarray, off: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(v, tridiag_matvec(main, off, v)))


def record(state, mesh: Mesh, gamma: float = 1.0) -> DiagnosticsRecord:
    """Snapshot the monitored quantities for one state.

    ``gamma`` (the decay-condition weight Gamma) weights the
    concentration term in the Lyapunov functional; the running time
    integrals of the squared gradients start at zero.  This is the
    one-row case of ``Recorder``, which ``solver.run`` uses to compute
    the records of a block of states at a time; both give the same bits.
    """
    table = np.empty((1, len(CSV_COLUMNS)))
    Recorder(mesh, gamma, table).add(state)
    return DiagnosticsRecord._make(table[0].tolist())


class Recorder:
    """Fills a record table a block of states at a time.

    ``add`` writes a state's time into its row of the table and copies
    its chain (``State.chain``: u, a zero pad, varsigma, a zero pad, in
    the layout of ``pair_bands``) into the next row of a block of
    chains, allocated once.  When the block is full, and on ``flush``,
    the records of the states in it are computed together into their
    rows.  A block holds RECORD_BLOCK_BYTES of chains, and at least one
    state.  ``gamma`` is the Lyapunov weight, as for ``record``.

    With ``reg_weight`` = epsilon*dt > 0, the recorder also sums the
    regularization energies ``reg_u`` and ``reg_s`` over the states
    after the table's row 0 (the states a run's steps produce): each
    state adds reg_weight * sum(M_L w*w), with w = v + M_L^-1 K(1) v for
    v = u and v = varsigma, in the order the states were added.
    """

    def __init__(self, mesh: Mesh, gamma: float, table: np.ndarray,
                 reg_weight: float = 0.0):
        if gamma <= 0:
            raise ValueError("Gamma must be positive")
        ops = mesh_operators(mesh)
        self.gamma = gamma
        self.table = table
        self.lumped = ops.lumped
        self.reg_weight = reg_weight
        self.reg_u = self.reg_s = 0.0
        self.varsigma_range = (math.inf, -math.inf)  # of the flushed states
        # (t, h1semi_u, h1semi_s, cum_grad_u, cum_grad_s) of the record
        # before the block, which the running integrals continue
        self.carry = None
        self.n = n = mesh.N + 1
        width = 2 * n + 2
        self.rows = rows = max(1, min(len(table),
                                      RECORD_BLOCK_BYTES // (8 * width)))
        self.chains = np.zeros((rows, width))
        # the mass and unit-stiffness bands of the whole block read as
        # one chain of 2*rows rows, so that a block is multiplied by one
        # 1-D product; m states take the first m*width nodes
        self.bands = [pair_bands(main, off, 2 * rows) for main, off in (
            (ops.mass_main, ops.mass_off),
            (ops.unit_stiffness_main, ops.unit_stiffness_off))]
        # [row, u or varsigma, mass or stiffness] quadratic forms
        self.sq = np.empty((rows, 2, 2))
        self.count = 0  # states in the block
        self.filled = 0  # rows of the table written

    def add(self, state) -> None:
        j = self.count
        self.chains[j] = state.chain
        self.table[self.filled + j, 0] = state.t
        self.count = j + 1
        if self.count == self.rows:
            self.flush()

    def flush(self) -> None:
        """Compute the records of the states in the block and empty it.

        The mass and the unit stiffness each act on the block's chains,
        read as one chain, in one 1-D product (a pad decouples each row
        from the next, bit for bit, as in ``pair_bands``), the quadratic
        forms of each operator come from one ``vecdot`` (which sums as
        ``np.dot`` does, bit for bit), and the mass and the range of u
        are reductions along each row, so every row equals the one a
        one-state block gives.  The Lyapunov
        functional w*|u|^2 + |varsigma|_1^2/2 is a column of the same
        two products and a sum as the scalar formula, so the same bits.
        The trapezoid sums are taken row by row in Python floats:
        Python's ``x ** 2`` (libm ``pow``) and numpy's square differ in
        the last bit on some values.  The regularization energies come
        from the same unit-stiffness product, each row's sums (equal to a
        one-state ``.sum()``) added in row order.
        """
        m, n = self.count, self.n
        if m == 0:
            return
        chains, sq = self.chains[:m], self.sq[:m]
        size = chains.size
        rec = self.table[self.filled:self.filled + m]
        # [row, u or varsigma, node]
        fields = chains.reshape(m, 2, n + 1)[..., :n]
        u, s = fields[:, 0], fields[:, 1]
        for k, (main, off) in enumerate(self.bands):
            prod = tridiag_matvec(main[:size], off[:size - 1],
                                  chains.reshape(-1)).reshape(m, 2 * n + 2)
            np.vecdot(fields, prod.reshape(m, 2, n + 1)[..., :n],
                      out=sq[..., k])
            if k == 0:
                prod[:, :n].sum(axis=1, out=rec[:, 1])
            elif self.reg_weight > 0:
                self._add_reg_energies(fields, prod.reshape(m, 2, n + 1))
            del prod  # one product at a time
        sq = sq.reshape(m, 4)  # l2_u, h1semi_u, l2_s, h1semi_s squared
        sq[sq < 0.0] = 0.0  # max(sq, 0.0), which keeps a -0.0
        np.sqrt(sq, out=rec[:, 2:6])
        u.min(axis=1, out=rec[:, 9])
        u.max(axis=1, out=rec[:, 10])
        s_lo, s_hi = self.varsigma_range
        self.varsigma_range = (min(s_lo, float(s.min())),
                               max(s_hi, float(s.max())))

        w = 0.5 * self.gamma * self.gamma
        np.add(w * sq[:, 0], 0.5 * sq[:, 3], out=rec[:, 6])
        t_p, hu_p, hs_p, cu, cs = self.carry or (None,) * 5
        cums = []  # cum_grad_u, cum_grad_s of each row
        for t, hu, hs, hu_sq, hs_sq in zip(
                rec[:, 0].tolist(), rec[:, 3].tolist(), rec[:, 5].tolist(),
                sq[:, 1].tolist(), sq[:, 3].tolist()):
            if t_p is None:
                cu = cs = 0.0
            else:
                dt = t - t_p
                cu = cu + 0.5 * dt * (hu_p ** 2 + hu_sq)
                cs = cs + 0.5 * dt * (hs_p ** 2 + hs_sq)
            cums.append((cu, cs))
            t_p, hu_p, hs_p = t, hu, hs
        rec[:, 7:9] = cums
        self.carry = t_p, hu_p, hs_p, cu, cs
        self.count, self.filled = 0, self.filled + m

    def _add_reg_energies(self, fields: np.ndarray, stiff: np.ndarray) -> None:
        """Add the block's states to ``reg_u`` and ``reg_s``; fields and
        stiff are [row, u or varsigma, node], the states and K(1) of
        them (with the pads)."""
        first = 1 if self.filled == 0 else 0  # the table's row 0 adds none
        ml = self.lumped
        w = fields[first:] + stiff[first:, :, :self.n] / ml
        sums = (ml * w * w).sum(axis=-1)
        c = self.reg_weight
        for su, ss in sums.tolist():
            self.reg_u += c * su
            self.reg_s += c * ss


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


def homogenization_from_record(l2_u: float, mass: float, L: float) -> float:
    """``homogenization_metric`` recovered from a record's l2_u and mass.

    With ubar = mass/L the orthogonal split gives
    |u - ubar|^2 = |u|^2 - mass^2 / L exactly.
    """
    return math.sqrt(max(l2_u ** 2 - mass ** 2 / L, 0.0))


def homogenized_since(series: Sequence[DiagnosticsRecord], L: float,
                      tol: float) -> Optional[float]:
    """The earliest record time from which the homogenization metric
    stays below tol up to the last record, or None if the last record's
    is not below tol.  Read backwards from the last record, so a metric
    that dips below tol and rises again before it decays for good counts
    from its last entry below tol.  Each block of BLOCK_ROWS records is
    converted to floats in turn, so memory stays bounded."""
    table = np.asarray(series, dtype=float)
    cols = [CSV_COLUMNS.index(c) for c in ("t", "l2_u", "mass")]
    since = None
    for stop in range(len(table), 0, -BLOCK_ROWS):
        t, l2_u, mass = table[max(stop - BLOCK_ROWS, 0):stop, cols].T.tolist()
        for k in reversed(range(len(t))):
            if not homogenization_from_record(l2_u[k], mass[k], L) < tol:
                return since
            since = t[k]
    return since


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
    table = np.asarray(series, dtype=float)
    lyap0, lyap_end = table[[0, -1], CSV_COLUMNS.index("lyapunov")].tolist()
    bound = lyap0 / min(G0 * G * G, G0) + tol
    # the implicit scheme controls the right-endpoint quadrature of the
    # gradient integrals, so the inequality sums it here rather than
    # using the trapezoid running totals
    cum_right = 0.0
    w = G0 * min(G * G, 1.0)
    names = ("t", "h1semi_u", "h1semi_s", "lyapunov", "cum_grad_u",
             "cum_grad_s")
    for k0, (t, h1u, h1s, lyap, cum_u, cum_s) in _steps(table, names):
        # libm pow, as Python's x ** 2: numpy's square can differ in a bit;
        # the sums add in order in Python floats, as the loop's += did
        sq = [pow(a, 2) + pow(b, 2) for a, b in zip(h1u[1:].tolist(),
                                                    h1s[1:].tolist())]
        cums = np.array(list(accumulate(((t[1:] - t[:-1]) * sq).tolist(),
                                        initial=cum_right))[1:])
        # each failure negates its passing comparison: a NaN fails
        rises = ~(lyap[1:] <= lyap[:-1] + tol)
        exceeds = ~((cum_u[1:] <= bound) & (cum_s[1:] <= bound))
        dissipates = ~(lyap[1:] + w * cums <= lyap0 + tol * np.arange(
            k0 + 1, k0 + 1 + len(cums)))
        bad = rises | exceeds | dissipates
        i = int(bad.argmax())  # the first failing step, in the loop's order
        if bad[i]:
            k, tk, (lp, lk) = k0 + i, t[i + 1], lyap[i:i + 2]
            if rises[i]:
                message = (f"Lyapunov increase at step {k} (t={tk:.6g}): "
                           f"{lp:.12g} -> {lk:.12g}")
            elif exceeds[i]:
                message = (f"cumulative gradient integral exceeds the decay "
                           f"bound {bound:.6g} at step {k}")
            else:
                message = (f"dissipation inequality fails at step {k} "
                           f"(t={tk:.6g}): {lk:.12g} + "
                           f"{w * cums[i]:.12g} > {lyap0:.12g}")
            return CheckReport(ok=False, name="lyapunov_decay",
                               first_violation=k, message=message)
        cum_right = cums[-1]
    return CheckReport(
        ok=True, name="lyapunov_decay",
        message=f"non-increasing over {len(series)} records "
                f"(initial {lyap0:.6g}, final {lyap_end:.6g})")


def longtime_box_check(series: Sequence[DiagnosticsRecord],
                       varsigma_range: tuple[float, float],
                       box: Box) -> CheckReport:
    """PASS when the ranges of t and u over the records and varsigma_range
    stay in the box the decay condition was verified on, else FAIL
    naming the first of t, u and varsigma that leaves it; a range with a
    NaN bound leaves it.  A step time within the 1e-9 relative rule of
    ``solver.grid_steps`` of the box's t-range counts as inside it, as
    T_end counts as a step time."""
    table = np.asarray(series, dtype=float)
    t, u_min, u_max = (table[:, CSV_COLUMNS.index(c)]
                       for c in ("t", "u_min", "u_max"))
    ranges = [("t", "t", (float(t.min()), float(t.max()))),
              ("u", "u", (float(u_min.min()), float(u_max.max()))),
              ("varsigma", "s", varsigma_range)]
    for name, axis, (lo, hi) in ranges:
        b_lo, b_hi = getattr(box, axis)
        slack = 1e-9 * max(abs(b_lo), abs(b_hi)) if axis == "t" else 0.0
        if not (b_lo - slack <= lo and hi <= b_hi + slack):
            return CheckReport(
                ok=False, name="longtime_box",
                message=(f"{name} range [{lo:.6g}, {hi:.6g}] leaves "
                         f"longtime.box.{axis} = [{b_lo:g}, {b_hi:g}]"))
    return CheckReport(
        ok=True, name="longtime_box",
        message="run stays in the longtime box: " + ", ".join(
            f"{name} in [{lo:.6g}, {hi:.6g}]" for name, _, (lo, hi) in ranges))


def mass_balance_check(series: Sequence[DiagnosticsRecord], bd: BoundaryData,
                       *, epsilon: float = 0.0) -> CheckReport:
    """Total mass must track the time-accumulated boundary influx exactly.

    Assumes the series was recorded every step, so the expected mass
    follows the stepping rule term by term:
    m_k = (m_{k-1} + dt*(phi_left + phi_right)(t_k)) / (1 + dt*epsilon),
    the regularization removing dt*epsilon*m_k per step.  Both messages
    state the net gain and the influx the steps took in, the sum of
    dt*(phi_left + phi_right)(t_k) up to the last step checked (the
    integral of the influx whenever phi is constant over each step).
    The tolerance at step k is MASS_BALANCE_TOL times 1 plus the largest
    |mass| recorded up to step k, so round-off relative to the mass the
    run reaches passes.  A NaN mass fails at its step and does not raise
    the tolerance of later steps.
    """
    table = np.asarray(series, dtype=float)
    mass0, mass = table[[0, -1], CSV_COLUMNS.index("mass")].tolist()
    expected, influx, peak = mass0, 0.0, abs(mass0)
    for k0, (t, masses) in _steps(table, ("t", "mass")):
        dt = t[1:] - t[:-1]
        gain = dt * np.add(*bd.values(t[1:]))
        # in Python floats, step by step, as the loop's recursion went
        influxes = list(accumulate(gain.tolist(), initial=influx))[1:]
        expects = list(accumulate(
            zip(gain.tolist(), (1.0 + dt * epsilon).tolist()),
            lambda e, g_d: (e + g_d[0]) / g_d[1], initial=expected))[1:]
        drift = masses[1:] - expects
        peaks = np.fmax(np.fmax.accumulate(np.abs(masses[1:])), peak)
        bad = ~(np.abs(drift) <= MASS_BALANCE_TOL * (1.0 + peaks))
        i = int(bad.argmax())
        if bad[i]:
            k = k0 + i
            return CheckReport(
                ok=False, name="mass_balance", first_violation=k,
                message=(f"mass drift {drift[i]:.3e} at step {k} "
                         f"(t={t[i + 1]:.6g}) exceeds "
                         f"{MASS_BALANCE_TOL:g} relative "
                         f"(net gain {masses[i + 1] - mass0:.12g}, "
                         f"influx sum dt*phi {influxes[i]:.12g})"))
        influx, expected, peak = influxes[-1], expects[-1], peaks[-1]
    return CheckReport(
        ok=True, name="mass_balance",
        message=(f"mass tracks influx over {len(series) - 1} steps "
                 f"(net gain {mass - mass0:.12g}, "
                 f"influx sum dt*phi {influx:.12g})"))


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
    floor = 1e-12
    margin = APRIORI_MARGIN
    # each failure negates its passing comparison: a NaN fails
    for e in eps_sorted[1:]:
        r = runs[e]
        if not r.reg_energy_u <= (1 + margin) * ref.reg_energy_u + floor:
            return CheckReport(
                ok=False, name="apriori_scaling",
                message=(f"eps-weighted H2 energy of u grows: "
                         f"{r.reg_energy_u:.6g} at eps={e:g} vs "
                         f"{ref.reg_energy_u:.6g} at eps={eps_sorted[0]:g}"))
        if not r.reg_energy_s <= (1 + margin) * ref.reg_energy_s + floor:
            return CheckReport(
                ok=False, name="apriori_scaling",
                message=f"eps-weighted H2 energy of stress grows at eps={e:g}")
    # argmin and argmax keep the first of a tie, as Python's min and max
    # do, and stop at the first NaN
    sup_vals = np.array([runs[e].sup_h1_s for e in eps_sorted])
    j = int(sup_vals.argmax())
    lo, hi = float(sup_vals[sup_vals.argmin()]), float(sup_vals[j])
    if not hi <= (1 + margin) * lo + floor:
        return CheckReport(
            ok=False, name="apriori_scaling",
            message=(f"sup-in-time H1 norm of stress is nan at "
                     f"eps={eps_sorted[j]:g}" if math.isnan(hi) else
                     f"sup-in-time H1 norm of stress spreads beyond "
                     f"{margin:.0%}: [{lo:.6g}, {hi:.6g}]"))
    return CheckReport(
        ok=True, name="apriori_scaling",
        message=(f"bounded across eps={eps_sorted}: sup H1(s) in "
                 f"[{lo:.6g}, {hi:.6g}]"))

