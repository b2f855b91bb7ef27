"""Output checks of the benchmark.

Each check compares a program result with a value computed here from
the P1 formulas, independently of the package's own diagnostics.  A
check returns None when it passes and a one-line message when it fails.
All inputs are plain floats, arrays and callables, so the checks can be
tested on hand-made results.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

# Relative tolerance of the mass balance; the package's own
# mass_balance_check uses the same figure.
MASS_TOL = 1e-10
# Absolute tolerance for "equal to round-off" on the homogenized state:
# the homogenize preset's 50000 steps drift its mass by about 2.2e-11.
ROUNDOFF_TOL = 1e-9
# Slack of the Lyapunov non-increase check, relative to its first value.
# Round-off drifts the mass of homogenize by 2.2e-11 over 50000 steps,
# which raised Gamma^2/2 |u|^2 by 6.4e-13 between two snapshots.
DECAY_SLACK = 1e-10


def p1_mass(h: float, u: np.ndarray) -> float:
    """Total mass h*(sum(u) - (u_0 + u_N)/2): the row sums of the P1 mass matrix."""
    return float(h * (np.sum(u) - 0.5 * (u[0] + u[-1])))


def mass_l2_sq(h: float, v: np.ndarray) -> float:
    """Consistent-mass squared L2 norm: sum over cells of h/3 (a^2 + ab + b^2)."""
    a, b = v[:-1], v[1:]
    return float(h / 3.0 * np.sum(a * a + a * b + b * b))


def stiffness_sq(h: float, v: np.ndarray) -> float:
    """Unit-stiffness squared seminorm: sum over cells of (b - a)^2 / h."""
    return float(np.sum(np.diff(v) ** 2) / h)


def influx(kind: str, params: dict) -> Callable[[float], float]:
    """A boundary signal of the config format, evaluated here."""
    if kind == "zero":
        return lambda t: 0.0
    if kind == "constant":
        return lambda t: params["value"]
    if kind == "pulse":
        v, t_on, t_off = params["value"], params["t_on"], params["t_off"]
        return lambda t: v if t_on < t <= t_off else 0.0
    if kind == "sinusoid":
        a, w, p = params["amplitude"], params["omega"], params["phase"]
        return lambda t: a * math.sin(w * t + p)
    raise ValueError(f"unknown boundary signal kind {kind!r}")


def expected_mass(m0: float, dt: float, epsilon: float,
                  times: Sequence[float],
                  phi_left: Callable[[float], float],
                  phi_right: Callable[[float], float]) -> float:
    """Mass after stepping through ``times`` with the given influx signals.

    m_k = (m_{k-1} + dt*(phi_L + phi_R)(t_k)) / (1 + dt*epsilon).  The
    division is the regularization term eps*M_L(I+L_h)^2, which removes
    dt*eps*m_k per step because (I+L_h) fixes constants.
    """
    m = m0
    for t in times:
        m = (m + dt * (float(phi_left(t)) + float(phi_right(t)))) / (
            1.0 + dt * epsilon)
    return m


def check_mass(m_final: float, m_expected: float, m0: float) -> Optional[str]:
    drift = m_final - m_expected
    if abs(drift) > MASS_TOL * (1.0 + abs(m0)):
        return (f"final mass {m_final:.17g} differs from the influx recursion "
                f"{m_expected:.17g} by {drift:.3e}")
    return None


def check_steps(times: Sequence[float], dt: float, T_end: float) -> Optional[str]:
    """Exactly T_end/dt steps, ending within dt/2 of T_end."""
    n = round(T_end / dt)
    if abs(n * dt - T_end) > 1e-9 * dt:
        return f"T_end={T_end:g} is not a whole number of steps dt={dt:g}"
    if len(times) - 1 != n:
        return f"{len(times) - 1} steps taken, {n} expected"
    if abs(times[-1] - T_end) > 0.5 * dt:
        return f"final time {times[-1]:.17g} is not within dt/2 of {T_end:g}"
    return None


def check_finite(arrays: Sequence[np.ndarray]) -> Optional[str]:
    for k, a in enumerate(arrays):
        if not np.all(np.isfinite(a)):
            return f"state {k} has non-finite entries"
    return None


def check_overshoot(us: Sequence[np.ndarray]) -> Optional[str]:
    """Peak over time of max u exceeds the final max u by over 1% of the amplitude."""
    peaks = [float(np.max(u)) for u in us]
    amplitude = max(float(np.max(u) - np.min(u)) for u in us)
    excess = max(peaks) - peaks[-1]
    if not excess > 0.01 * max(amplitude, 1e-12):
        return (f"no overshoot: peak {max(peaks):.6g}, final max "
                f"{peaks[-1]:.6g}, amplitude {amplitude:.6g}")
    return None


def front_positions(x: np.ndarray, times: Sequence[float],
                    us: Sequence[np.ndarray], threshold: float):
    """Rightmost crossing of u = threshold, linearly interpolated.

    Only states with t > 0 and the front strictly inside the domain are
    kept.  Returns (times, positions) as arrays.
    """
    ts, xs = [], []
    for t, u in zip(times, us):
        above = u >= threshold
        idx = np.nonzero(above[:-1] & ~above[1:])[0]
        if t <= 0 or idx.size == 0:
            continue
        i = int(idx[-1])
        xf = x[i] + (threshold - u[i]) / (u[i + 1] - u[i]) * (x[i + 1] - x[i])
        if x[0] < xf < x[-1]:
            ts.append(float(t))
            xs.append(float(xf))
    return np.asarray(ts), np.asarray(xs)


def _fit_rms(basis: np.ndarray, y: np.ndarray) -> float:
    A = np.column_stack([np.ones_like(basis), basis])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def check_front(times: np.ndarray, positions: np.ndarray) -> Optional[str]:
    """The front never recedes and fits a line in t better than one in sqrt(t)."""
    if len(times) < 10:
        return f"front found at only {len(times)} times"
    back = np.diff(positions)
    if np.any(back < 0):
        k = int(np.argmax(back < 0)) + 1
        return f"front recedes at t={times[k]:.6g} by {-back[k - 1]:.3e}"
    r_lin, r_sqrt = _fit_rms(times, positions), _fit_rms(np.sqrt(times), positions)
    if not r_lin < r_sqrt:
        return (f"front fits sqrt(t) (rms {r_sqrt:.4g}) no worse than t "
                f"(rms {r_lin:.4g})")
    return None


def check_decreasing(distances: dict) -> Optional[str]:
    """Values keyed by epsilon strictly decrease as epsilon decreases."""
    eps = sorted(distances, reverse=True)
    for a, b in zip(eps, eps[1:]):
        if not distances[b] < distances[a]:
            return (f"distance to eps=0 does not decrease from eps={a:g} "
                    f"({distances[a]:.6g}) to eps={b:g} ({distances[b]:.6g})")
    return None


def check_equals(v: np.ndarray, value: float, what: str) -> Optional[str]:
    """Every node of v equals value up to ROUNDOFF_TOL."""
    dev = float(np.max(np.abs(v - value)))
    if not dev <= ROUNDOFF_TOL:
        return f"{what} is off {value:.17g} by {dev:.3e}"
    return None


def check_nonincreasing(values: Sequence[float], what: str) -> Optional[str]:
    slack = DECAY_SLACK * abs(values[0])
    for k in range(1, len(values)):
        if values[k] > values[k - 1] + slack:
            return (f"{what} increases at snapshot {k}: {values[k - 1]:.17g} "
                    f"-> {values[k]:.17g}")
    return None


def lyapunov(h: float, Gamma: float, u: np.ndarray, s: np.ndarray) -> float:
    """Gamma^2/2 |u|_M^2 + 1/2 |s|_K^2."""
    return 0.5 * Gamma * Gamma * mass_l2_sq(h, u) + 0.5 * stiffness_sq(h, s)


def l2_distance(h: float, a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(max(mass_l2_sq(h, a - b), 0.0))
