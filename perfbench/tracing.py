"""Per-layer timers for the benchmark's traced rounds.

The package is not changed: the functions inside ``solver.run`` are
wrapped from here, and only in a traced round.  Wrapped are the names
the step loop looks up in ``viscodiff.solver``, ``DiscreteOperators.build``,
the five coefficient callables of the model passed to ``run``, and the
scalar coefficient laws (their ``fn``, ``dfn`` and antiderivative fields,
and ``ScalarModel.__call__``), which are counted but not timed.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np


def _caller_is_advance(frame) -> bool:
    return frame.f_code.co_name == "advance"


class Tracer:
    """Accumulates time and calls per layer, and per-step timestamps."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        # the part of seconds/calls spent inside run's step loops
        self.loop_seconds = defaultdict(float)
        self.loop_calls = defaultdict(int)
        self.step_s: list[float] = []
        self.node_steps = 0
        self.loop_s = 0.0
        self._stamps: list[float] = []
        self._mark = ({}, {})

    def routed(self, fn, route):
        """fn timed, with its layer chosen by ``route(caller's frame)``."""
        def wrapper(*args, **kwargs):
            layer = route(sys._getframe(1))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - t0
                self.calls[layer] += 1
        return wrapper

    def timed(self, layer: str, fn):
        return self.routed(fn, lambda frame: layer)

    def counted(self, layer: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the package's functions; lasts for the rest of the process."""
        from viscodiff import coefficients, config, discretization, output, solver

        solver.record = self.timed("diagnostics.record", solver.record)
        solver.solveh_banded = self.routed(
            solver.solveh_banded,
            lambda f: "solver.u_solve" if _caller_is_advance(f)
            else "solver.dual_solve")
        solver.solve_banded = self.routed(
            solver.solve_banded,
            lambda f: "solver.u_solve" if f.f_locals.get("what") == "concentration"
            else "solver.s_solve")
        for name in ("stiffness_diagonals", "boundary_functional",
                     "tridiag_matvec"):
            setattr(solver, name, self.routed(
                getattr(solver, name),
                lambda f: "discretization.assembly" if _caller_is_advance(f)
                else "solver.reg_energy"))
        build = discretization.DiscreteOperators.build.__func__
        discretization.DiscreteOperators.build = classmethod(
            self.timed("discretization.operators", build))

        output.write_diagnostics = self.timed("output.diagnostics_csv",
                                              output.write_diagnostics)

        law = "coefficients.law"
        coefficients.ScalarModel.__call__ = self.counted(
            law, coefficients.ScalarModel.__call__)
        make = config.make_scalar_model

        def make_counted(name, **params):
            m = make(name, **params)
            anti = m.antiderivative
            return dataclasses.replace(
                m, fn=self.counted(law, m.fn), dfn=self.counted(law, m.dfn),
                antiderivative=None if anti is None else self.counted(law, anti))
        config.make_scalar_model = make_counted

    def model(self, model):
        """The model with its five coefficient callables timed."""
        return dataclasses.replace(model, **{
            name: self.timed("coefficients.eval", getattr(model, name))
            for name in ("D", "E", "f", "beta1", "gamma")})

    def observer(self):
        """An observer for ``run`` that stamps every state it is given."""
        self._stamps = stamps = []

        def observe(state):
            if not stamps:
                self._mark = (dict(self.seconds), dict(self.calls))
            stamps.append(time.perf_counter())
        return observe

    def end_run(self, n_nodes: int) -> None:
        """Credit the layers' work since the observer's first call to the loop."""
        sec0, calls0 = self._mark
        for k, v in self.seconds.items():
            self.loop_seconds[k] += v - sec0.get(k, 0.0)
        for k, v in self.calls.items():
            self.loop_calls[k] += v - calls0.get(k, 0)
        steps = np.diff(self._stamps)
        self.step_s.extend(steps)
        self.node_steps += n_nodes * len(steps)
        self.loop_s += self._stamps[-1] - self._stamps[0]

    def metrics(self) -> dict:
        n = len(self.step_s)

        def us_per_step(layer):
            return 1e6 * self.loop_seconds[layer] / n

        p50, p99 = np.percentile(self.step_s, [50, 99]) * 1e6
        return {
            "coefficients.eval_us_per_step": us_per_step("coefficients.eval"),
            "coefficients.law_calls_per_step":
                self.loop_calls["coefficients.law"] / n,
            "discretization.assembly_us_per_step":
                us_per_step("discretization.assembly"),
            "discretization.operators_ms":
                1e3 * self.seconds["discretization.operators"],
            "solver.step_us_p50": float(p50),
            "solver.step_us_p99": float(p99),
            "solver.u_solve_us_per_step": us_per_step("solver.u_solve"),
            "solver.dual_solve_us_per_step": us_per_step("solver.dual_solve"),
            "solver.node_steps_per_s": self.node_steps / self.loop_s,
            "diagnostics.record_us_per_step": us_per_step("diagnostics.record"),
        }
