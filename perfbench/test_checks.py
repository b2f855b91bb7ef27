"""Each output check of the benchmark rejects a wrong result.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import checks

H = 0.125
X = np.linspace(0.0, 1.0, 9)


def dense_mass(n, h):
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i:i + 2, i:i + 2] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return M


def test_p1_formulas_match_assembled_matrices():
    v = np.cos(3.0 * X) + X ** 2
    M = dense_mass(len(X), H)
    assert checks.p1_mass(H, v) == pytest.approx(np.sum(M @ v), rel=1e-14)
    assert checks.mass_l2_sq(H, v) == pytest.approx(v @ M @ v, rel=1e-14)
    K = np.diag(np.r_[1.0, 2.0 * np.ones(len(X) - 2), 1.0]) / H
    K -= np.diag(np.ones(len(X) - 1), 1) / H + np.diag(np.ones(len(X) - 1), -1) / H
    assert checks.stiffness_sq(H, v) == pytest.approx(v @ K @ v, rel=1e-12)


def test_mass_recursion_and_check():
    dt, n = 1e-3, 1000
    pulse = checks.influx("pulse", {"value": 0.2, "t_on": 0.0, "t_off": 0.5})
    zero = checks.influx("zero", {})
    times = [k * dt for k in range(1, n + 1)]
    m = checks.expected_mass(0.5, dt, 0.0, times, pulse, zero)
    assert m == pytest.approx(0.6, abs=1e-12)
    assert checks.check_mass(m, 0.6, 0.5) is None
    # one step of influx dropped
    dropped = checks.expected_mass(0.5, dt, 0.0, times[:499] + times[500:], pulse, zero)
    assert checks.check_mass(dropped, m, 0.5) is not None
    # the regularization removes dt*eps*m per step
    eps = 1e-2
    m_eps = checks.expected_mass(0.5, dt, eps, times, zero, zero)
    assert m_eps == pytest.approx(0.5 / (1.0 + dt * eps) ** n, rel=1e-14)
    assert checks.check_mass(0.5, m_eps, 0.5) is not None


def test_influx_kinds():
    assert checks.influx("constant", {"value": 0.45})(3.0) == 0.45
    sine = checks.influx("sinusoid", {"amplitude": 2.0, "omega": 1.0, "phase": 0.0})
    assert sine(math.pi / 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        checks.influx("ramp", {})


def test_steps():
    dt = 0.1
    times = [k * dt for k in range(11)]
    assert checks.check_steps(times, dt, 1.0) is None
    assert checks.check_steps(times[:-1], dt, 1.0) is not None
    assert checks.check_steps(times[:2], dt, 0.15) is not None
    late = times[:-1] + [1.0 + 0.6 * dt]
    assert checks.check_steps(late, dt, 1.0) is not None


def test_finite():
    u = np.ones(9)
    assert checks.check_finite([u, 2 * u]) is None
    bad = u.copy()
    bad[4] = np.nan
    assert checks.check_finite([u, bad]) is not None


def test_overshoot():
    rise_and_fall = [np.full(9, v) for v in (0.0, 0.4, 0.9, 0.7, 0.6)]
    for u in rise_and_fall:
        u[0] += 0.1
    assert checks.check_overshoot(rise_and_fall) is None
    monotone = [np.full(9, v) + 0.1 * (X == 0) for v in (0.0, 0.3, 0.5, 0.6)]
    assert checks.check_overshoot(monotone) is not None


def test_front_positions_interpolate():
    u = 1.0 - X
    ts, xs = checks.front_positions(X, [0.0, 1.0], [u, u], 0.5)
    assert list(ts) == [1.0] and xs[0] == pytest.approx(0.5)


def test_front():
    t = np.linspace(0.1, 1.0, 20)
    linear = 0.05 + 0.8 * t
    assert checks.check_front(t, linear) is None
    assert checks.check_front(t, linear[::-1]) is not None
    assert checks.check_front(t, 0.9 * np.sqrt(t)) is not None
    assert checks.check_front(t[:5], linear[:5]) is not None


def test_decreasing():
    assert checks.check_decreasing({1e-2: 3e-3, 1e-3: 4e-4, 1e-4: 4e-5}) is None
    assert checks.check_decreasing({1e-2: 3e-3, 1e-3: 4e-4, 1e-4: 5e-4}) is not None


def test_equals():
    u = np.full(9, 0.5)
    assert checks.check_equals(u + 2.2e-11, 0.5, "u") is None
    u[3] += 1e-6
    assert checks.check_equals(u, 0.5, "u") is not None


def test_nonincreasing_lyapunov():
    states = [(0.5 + a * np.cos(np.pi * X), 0.25 + a * X) for a in (0.3, 0.1, 0.0)]
    values = [checks.lyapunov(H, 1.0, u, s) for u, s in states]
    assert checks.check_nonincreasing(values, "V") is None
    assert checks.check_nonincreasing(values[::-1], "V") is not None


def test_l2_distance():
    a = np.cos(X)
    assert checks.l2_distance(H, a, a) == 0.0
    assert checks.l2_distance(H, a + 1.0, a) == pytest.approx(1.0)
