"""Coefficient laws, change of variables, gradient coefficients, checkers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodiff.coefficients import (
    Box,
    EllipticityViolation,
    GammaSearchFailure,
    LongTimeConditionFailure,
    PhysicalCoefficients,
    TransformedModel,
    _affine_growth_slope,
    _partial,
    check_assumptions,
    check_longtime_condition,
    constant_model,
    find_gamma,
    gradient_coefficients,
    make_scalar_model,
    physical_from_models,
    quadratic_form_min_eig,
    transform,
)
from viscodiff.config import (
    PRESET_NAMES,
    build_mesh_from,
    build_model,
    longtime_box,
    parse_config,
    preset_config,
)

BETA0 = make_scalar_model("tanh", beta_G=1.0, beta_R=2.0, u_RG=0.5,
                          delta=0.05)
SD = make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01)
D0_TANH = make_scalar_model("tanh", D_G=0.1, D_R=1.0, u_RG=0.5, delta=0.05)


class TestScalarLaws:
    def test_beta0_scalar_value(self):
        # 1.5 + 0.5*tanh(1) at u = u_RG + delta
        assert BETA0(0.55) == pytest.approx(
            1.5 + 0.5 * math.tanh(1.0), abs=1e-12)
        assert BETA0(0.55) == pytest.approx(1.8807970779, abs=1e-9)

    def test_beta0_midpoint_identity(self):
        assert abs(BETA0(0.5) - 0.5 * (2.0 + 1.0)) <= 1e-14

    def test_E0_scalar_value(self):
        assert SD(0.5) == pytest.approx(0.5 * 0.25 / 0.26, abs=1e-12)
        assert SD(0.5) == pytest.approx(0.4807692308, abs=1e-9)

    def test_E0_endpoints_exact(self):
        assert SD(0.0) == 0.0
        assert SD(1.0) == 0.0

    def test_E0_nonnegative_on_unit_interval(self):
        u = np.linspace(0.0, 1.0, 1001)
        assert np.all(SD(u) >= 0.0)

    def test_D0_tanh_scalar_value(self):
        assert D0_TANH(0.55) == pytest.approx(
            0.55 + 0.45 * math.tanh(1.0), abs=1e-12)
        assert D0_TANH(0.55) == pytest.approx(0.8927, abs=5e-5)

    def test_E0_du_matches_finite_difference(self):
        u = np.linspace(-0.5, 1.5, 101)
        h = 1e-6
        fd = (SD(u + h) - SD(u - h)) / (2 * h)
        assert np.allclose(SD.dfn(u), fd, atol=1e-7)

    @given(st.floats(0.2, 0.8), st.floats(0.2, 0.8))
    @settings(max_examples=100, deadline=None)
    def test_beta0_monotone_and_bounded(self, u1, u2):
        # away from floating-point tanh saturation the law is strictly
        # monotone and strictly inside (beta_G, beta_R)
        lo, hi = min(u1, u2), max(u1, u2)
        b1, b2 = float(BETA0(lo)), float(BETA0(hi))
        assert 1.0 < b1 < 2.0
        assert 1.0 < b2 < 2.0
        if hi - lo > 1e-9:
            assert b1 < b2

    def test_param_validation(self):
        for delta in (0.0, -1.0):
            with pytest.raises(ValueError, match="delta > 0"):
                make_scalar_model("tanh", D_G=0.1, D_R=1.0, u_RG=0.5,
                                  delta=delta)
        for a1, a2 in ((0.0, 0.1), (1.0, -0.1)):
            with pytest.raises(ValueError, match="alpha_1 > 0"):
                make_scalar_model("cohen-e0", alpha_1=a1, alpha_2=a2)


class TestScalarModelRegistry:
    def test_constant(self):
        m = make_scalar_model("constant", value=3.0)
        assert np.all(m(np.array([0.0, 1.0])) == 3.0)
        assert np.all(m.dfn(np.array([0.0, 1.0])) == 0.0)
        assert m.antiderivative(2.0) == 6.0
        assert m.constant_value == 3.0

    def test_tanh_aliases_match(self):
        a = make_scalar_model("tanh", beta_G=1.0, beta_R=2.0, delta=0.05,
                              u_RG=0.5)
        b = make_scalar_model("tanh", lo=1.0, hi=2.0, delta=0.05, center=0.5)
        u = np.linspace(-1, 2, 31)
        assert np.array_equal(a(u), b(u))
        assert np.array_equal(a(u), 1.5 + 0.5 * np.tanh((u - 0.5) / 0.05))

    def test_tanh_antiderivative_by_quadrature(self):
        m = make_scalar_model("tanh", lo=0.2, hi=1.0, delta=0.1, center=0.4)
        assert m.antiderivative(0.0) == pytest.approx(0.0, abs=1e-14)
        for u_hi in (0.3, 0.8, 2.0):
            grid = np.linspace(0.0, u_hi, 20001)
            quad = np.trapezoid(m(grid), grid)
            assert m.antiderivative(u_hi) == pytest.approx(quad, rel=1e-7)

    def test_polynomial(self):
        m = make_scalar_model("polynomial", coeffs=[1.0, 2.0])  # 1 + 2u
        assert m(3.0) == pytest.approx(7.0)
        assert m.dfn(3.0) == pytest.approx(2.0)
        assert m.antiderivative(2.0) == pytest.approx(2.0 + 4.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scalar_model("exp")

    def test_tanh_parameter_given_twice_rejected(self):
        with pytest.raises(ValueError, match="'lo' and 'D_G' both set 'lo'"):
            make_scalar_model("tanh", lo=0.1, D_G=0.5, hi=1.0, delta=0.1,
                              center=0.4)


def _tanh_physical(nu0_value=0.3):
    """tanh relaxation + Cohen stress-diffusion model with constant nu0."""
    return physical_from_models(
        D0=make_scalar_model("tanh", D_G=0.1, D_R=1.0, delta=0.05, u_RG=0.5),
        E0=make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01),
        M0=make_scalar_model("constant", value=0.0),
        beta0=make_scalar_model("tanh", beta_G=1.0, beta_R=2.0, delta=0.05,
                                u_RG=0.5),
        mu0=make_scalar_model("tanh", lo=0.2, hi=0.8, delta=0.1, center=0.5),
        nu0=make_scalar_model("constant", value=nu0_value),
    )


class TestTransform:
    def test_nu0_zero_reduces_to_physical(self):
        phys = physical_from_models(
            D0=make_scalar_model("constant", value=2.0),
            E0=make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01),
            M0=make_scalar_model("constant", value=0.5),
            beta0=make_scalar_model("constant", value=1.5),
            mu0=make_scalar_model("constant", value=0.7),
            nu0=make_scalar_model("constant", value=0.0),
        )
        model = transform(phys)
        u = np.linspace(0.1, 0.9, 9)
        s = np.linspace(-1, 1, 9)
        assert np.allclose(model.D(0, 0, u, s), 2.0)
        assert np.allclose(model.E(0, 0, u, s), SD(u))
        assert np.allclose(model.f(0, 0, u, s), -0.5 * u)
        assert np.allclose(model.beta1(0, 0, u, s), -1.5)
        assert np.allclose(model.gamma(0, 0, u, s), 0.7)

    def test_gamma_constant_nu0_closed_form(self):
        # nu0 = c, beta0 = b, mu0 = m -> gamma = m - b*c for every u
        c, b, m = 0.4, 1.3, 0.9
        phys = physical_from_models(
            D0=make_scalar_model("constant", value=1.0),
            E0=make_scalar_model("constant", value=0.0),
            M0=make_scalar_model("constant", value=0.0),
            beta0=make_scalar_model("constant", value=b),
            mu0=make_scalar_model("constant", value=m),
            nu0=make_scalar_model("constant", value=c),
        )
        model = transform(phys)
        for u in (1e-8, 0.5, 1.0, 0.0):
            got = float(model.gamma(0.0, 0.0, u, 0.2))
            assert got == pytest.approx(m - b * c, abs=1e-12)

    def test_gamma_continuity_at_zero(self):
        phys = _tanh_physical()
        model = transform(phys)
        g0 = float(model.gamma(0.0, 0.0, 0.0, 0.1))
        for u in np.geomspace(1e-9, 1e-3, 13):
            g = float(model.gamma(0.0, 0.0, u, 0.1))
            assert abs(g - g0) <= 50.0 * u  # C from the tanh slopes

    def test_D_identity_with_physical(self):
        phys = _tanh_physical()
        model = transform(phys)
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 1, 64)
        s = rng.uniform(-1, 1, 64)
        sigma = s + np.asarray(phys.nu0_antiderivative(u))
        lhs = np.asarray(model.D(0.0, 0.0, u, s)) \
            - np.asarray(phys.nu0(u)) * np.asarray(model.E(0.0, 0.0, u, s))
        rhs = np.asarray(phys.D0(0.0, 0.0, u, sigma))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    @given(st.floats(-2, 2), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_change_of_variables_round_trip(self, s, u):
        phys = _tanh_physical()
        shift = float(phys.nu0_antiderivative(u))
        assert (s + shift) - shift == pytest.approx(s, abs=1e-12)

    def test_analytic_partials_attached_for_constant_nu0(self):
        assert transform(_tanh_physical()).partials is not None

    def test_no_partials_without_constant_nu0(self):
        phys = _tanh_physical()
        phys.constants = {}
        assert transform(phys).partials is None


def _assert_fields_match_callables(model, t, x, u, s):
    fused = model.fields(t, x, u, s)
    five = [np.asarray(c(t, x, u, s), dtype=float)
            for c in (model.D, model.E, model.f, model.beta1, model.gamma)]
    assert len(fused) == 5
    for a, b in zip(fused, five):
        assert np.array_equal(a, b)


def _nodal_points(n, seed):
    """u across [0, 1] with entries on both sides of the |u| < 1e-8 branch."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.05, 1.05, n)
    u[:5] = [0.0, 1e-9, -1e-9, 2e-8, 1.0]
    return u, rng.normal(0.0, 0.5, n)


class TestFields:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_fields_equal_the_five_callables(self, name):
        cfg = preset_config(name)
        mesh = build_mesh_from(cfg)
        u, s = _nodal_points(mesh.N + 1, seed=3)
        _assert_fields_match_callables(build_model(cfg), 0.25, mesh.nodes, u, s)

    def test_txsigma_dependent_fields_equal_the_five_callables(self):
        phys = PhysicalCoefficients(
            D0=lambda t, x, u, sig: 1.0 + 0.3 * np.sin(x + t) * np.tanh(sig),
            E0=lambda t, x, u, sig: 0.2 * u * (1.0 - u) + 0.05 * np.cos(sig - x),
            M0=lambda t, x, u, sig: 0.1 * x + t * sig,
            beta0=lambda t, x, u, sig: 1.0 + 0.5 * np.tanh(sig - x) + t,
            mu0=lambda u: 0.5 + 0.1 * u,
            nu0=lambda u: 0.3 + 0.2 * u,
            nu0_antiderivative=lambda u: 0.3 * u + 0.1 * u * u,
        )
        x = np.linspace(0.0, 2.0, 41)
        u, s = _nodal_points(41, seed=4)
        _assert_fields_match_callables(transform(phys), 0.7, x, u, s)

    def test_fallback_for_hand_built_and_replaced_models(self):
        x = np.linspace(0.0, 1.0, 9)
        u, s = _nodal_points(9, seed=5)
        _assert_fields_match_callables(constant_model(D=2.0, gamma=0.3),
                                       0.0, x, u, s)
        own = constant_model(D=2.0, gamma=0.3)
        hand_built = TransformedModel(D=own.D, E=own.E, f=own.f,
                                      beta1=own.beta1, gamma=own.gamma)
        _assert_fields_match_callables(hand_built, 0.0, x, u, s)
        model = transform(_tanh_physical())
        model.gamma = lambda t, x, u, s: np.full(np.shape(u), 0.125)
        _assert_fields_match_callables(model, 0.0, x, u, s)
        assert np.array_equal(model.fields(0.0, x, u, s)[4], np.full(9, 0.125))


class TestGradientCoefficients:
    def test_constant_model_trivial(self):
        model = constant_model(D=1.0, E=0.0, beta1=-2.0, gamma=0.7)
        beta, mu, g = gradient_coefficients(model, 0.0, 0.0, 0.3, 0.4)
        assert float(beta) == pytest.approx(0.7)
        assert float(mu) == pytest.approx(-2.0)
        assert float(g) == pytest.approx(0.0)

    def test_hand_computed_linear_beta1(self):
        # beta1(u) = -u, gamma = 1 at (u, s) = (2, 3)
        model = constant_model()
        model.beta1 = lambda t, x, u, s: -np.asarray(u, dtype=float) + 0.0 * s
        model.gamma = lambda t, x, u, s: np.ones(
            np.broadcast_shapes(np.shape(u), np.shape(s)))
        model.partials = None
        beta, mu, g = gradient_coefficients(model, 0.0, 0.0, 2.0, 3.0)
        assert float(beta) == pytest.approx(-2.0, abs=1e-8)
        assert float(mu) == pytest.approx(-2.0, abs=1e-8)
        assert float(g) == pytest.approx(0.0, abs=1e-8)

    def test_analytic_vs_finite_difference_100_points(self):
        phys = _tanh_physical()
        analytic = transform(phys)
        assert analytic.partials is not None
        numeric = transform(phys)
        numeric.partials = None
        rng = np.random.default_rng(42)
        u = rng.uniform(0.05, 1.0, 100)
        s = rng.uniform(-1.0, 1.0, 100)
        ba, ma, ga = gradient_coefficients(analytic, 0.0, 0.0, u, s)
        bn, mn, gn = gradient_coefficients(numeric, 0.0, 0.0, u, s)
        for a, n in ((ba, bn), (ma, mn), (ga, gn)):
            assert np.max(np.abs(a - n) / (1.0 + np.abs(a))) <= 1e-6


class TestBoxAndAssumptions:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(t=(1.0, 0.0), x=(0, 1), u=(0, 1), s=(0, 1))

    def test_grid_degenerate_axis(self):
        box = Box(t=(0.0, 0.0), x=(0, 1), u=(0, 1), s=(-1, 1))
        t, x, u, s = box.grid(1000)
        assert np.all(t == 0.0)
        assert t.shape == x.shape == u.shape == s.shape

    def test_constant_model_bounds(self):
        model = constant_model(D=1.0)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        bounds = check_assumptions(model, box, n_samples=256)
        assert bounds.d == pytest.approx(1.0)
        assert bounds.K_D == pytest.approx(1.0)

    def test_cohen_K_E_location(self):
        phys = _tanh_physical()
        model = transform(phys)
        # degenerate box concentrates all samples on the u-axis
        box = Box(t=(0, 0), x=(0, 0), u=(0, 1), s=(0.2, 0.2))
        bounds = check_assumptions(model, box, n_samples=4096)
        grid = np.linspace(0, 1, 1_000_001)
        k_e_exact = float(np.max(SD(grid)))
        assert bounds.K_E == pytest.approx(k_e_exact, rel=1e-2)

    def test_ellipticity_violation_reported(self):
        model = constant_model(D=1.0)
        model.D = lambda t, x, u, s: np.asarray(u, dtype=float) + 0.0 * s
        box = Box(t=(0, 1), x=(0, 1), u=(0.0, 1.0), s=(-1, 1))
        with pytest.raises(EllipticityViolation) as exc:
            check_assumptions(model, box, n_samples=256)
        assert len(exc.value.points) >= 1


class TestLongTimeCondition:
    def test_diagonal_form(self):
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        # mu = beta1 = -1, beta = gamma = 0
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = check_longtime_condition(model, 1.0, box, n_samples=256)
        assert lt.Gamma_0 == pytest.approx(1.0, abs=1e-12)

    def test_cross_term_cancellation(self):
        # D=1, mu=-1, E=0.5, beta=0.5, Gamma=1 -> cross coefficient 0
        model = constant_model(D=1.0, E=0.5, beta1=-1.0, gamma=0.5)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = check_longtime_condition(model, 1.0, box, n_samples=256)
        assert abs(lt.Gamma_0 - 1.0) <= 1e-12

    def test_offdiagonal_half(self):
        # D=1, mu=-1, E=1, beta=0 -> [[1, .5], [.5, 1]] -> min eig 0.5
        model = constant_model(D=1.0, E=1.0, beta1=-1.0, gamma=0.0)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = check_longtime_condition(model, 1.0, box, n_samples=256)
        assert abs(lt.Gamma_0 - 0.5) <= 1e-12

    def test_failure_carries_point(self):
        model = constant_model(D=1.0, E=0.0, beta1=1.0, gamma=0.0)  # mu = +1
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        with pytest.raises(LongTimeConditionFailure) as exc:
            check_longtime_condition(model, 1.0, box, n_samples=256)
        assert exc.value.eigenvalue <= 0

    def test_quadratic_form_certificate(self):
        model = constant_model(D=1.0, E=0.5, beta1=-1.0, gamma=0.5)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = check_longtime_condition(model, 1.0, box, n_samples=64)
        rng = np.random.default_rng(7)
        t, x, u, s = (rng.uniform(lo, hi, 1000) for lo, hi in
                      (box.t, box.x, box.u, box.s))
        from viscodiff.coefficients import gradient_coefficients as gc
        beta, mu, _ = gc(model, t, x, u, s)
        D = np.asarray(model.D(t, x, u, s))
        E = np.asarray(model.E(t, x, u, s))
        theta = rng.uniform(0, 2 * math.pi, (1000, 10))
        xi, eta = np.cos(theta), np.sin(theta)
        c = E[:, None] * lt.Gamma - beta[:, None] / lt.Gamma
        Q = (D[:, None] * xi ** 2 - mu[:, None] * eta ** 2 + c * xi * eta)
        assert np.all(Q >= lt.Gamma_0 * (xi ** 2 + eta ** 2) - 1e-12)

    def test_min_eig_closed_form(self):
        lam = quadratic_form_min_eig(1.0, 1.0, 0.0, -1.0, 1.0)
        assert float(lam) == pytest.approx(0.5, abs=1e-14)

    def test_find_gamma_selects_cancellation(self):
        model = constant_model(D=1.0, E=0.5, beta1=-1.0, gamma=0.5)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = find_gamma(model, box, [0.5, 1.0, 2.0], n_samples=256)
        assert lt.Gamma == pytest.approx(1.0)

    def test_find_gamma_single_candidate(self):
        model = constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        lt = find_gamma(model, box, [2.0], n_samples=64)
        assert lt.Gamma == 2.0

    def test_find_gamma_all_fail(self):
        model = constant_model(D=1.0, E=0.0, beta1=1.0, gamma=0.0)
        box = Box(t=(0, 1), x=(0, 1), u=(0, 1), s=(-1, 1))
        with pytest.raises(GammaSearchFailure):
            find_gamma(model, box, [0.5, 1.0], n_samples=64)

    def test_find_gamma_zero_volume_box(self):
        model = constant_model(D=1.0)
        box = Box(t=(0, 0), x=(0, 1), u=(0, 1), s=(0, 0))
        with pytest.raises(ValueError):
            find_gamma(model, box, [1.0])


# every preset's box, plus eps-scan with a tanh nu0, whose gradient terms
# take the finite-difference path, and sorption on a box reaching u < 0,
# where D0 + nu0*E0 is negative
BOX_SCENARIOS = [f'preset = "{name}"' for name in PRESET_NAMES] + [
    'preset = "eps-scan"\nmodel.nu0 = "tanh"\nmodel.nu0.lo = 0.05\n'
    'model.nu0.hi = 0.2\nmodel.nu0.delta = 0.1\nmodel.nu0.center = 0.5',
    'preset = "sorption"\nlongtime.box.u = [-0.5, 1.2]']


def _hex(values):
    return [float(v).hex() for v in values]


def _reference_sample(model, box, n_samples):
    """The box grid and D, E, f, beta1, gamma, beta, mu, g on it, each
    field read from its own callable."""
    t, x, u, s = box.grid(n_samples)

    def full(v):
        return np.broadcast_to(np.asarray(v, dtype=float), u.shape)

    D, E, f, b1, gm = (full(c(t, x, u, s)) for c in
                       (model.D, model.E, model.f, model.beta1, model.gamma))
    d = {(name, which): full(_partial(model, name, which, t, x, u, s))
         for name in ("beta1", "gamma") for which in "usx"}
    beta = d["beta1", "u"] * s + gm + d["gamma", "u"] * u
    mu = b1 + d["beta1", "s"] * s + d["gamma", "s"] * u
    g = d["beta1", "x"] * s + d["gamma", "x"] * u
    return (t, x, u, s), (D, E, f, b1, gm, beta, mu, g)


def _reference_bounds(sample):
    (t, x, u, s), (D, E, f, b1, gm, beta, mu, g) = sample
    if np.min(D) <= 0:
        bad = np.nonzero(D <= 0)[0]
        bad = bad[np.argsort(D[bad])][:5]
        return ("violation", [_hex((t[i], x[i], u[i], s[i])) for i in bad],
                _hex(D[bad]))
    radius = np.abs(u) + np.abs(s)
    return _hex((np.max(np.abs(D)), np.max(np.abs(E)),
                 max(np.max(np.abs(beta)), np.max(np.abs(gm))),
                 max(np.max(np.abs(mu)), np.max(np.abs(b1))),
                 _affine_growth_slope(radius, np.abs(f)),
                 _affine_growth_slope(radius, np.abs(g)), np.min(D)))


def _bounds(model, box):
    try:
        b = check_assumptions(model, box)
    except EllipticityViolation as exc:
        return ("violation", [_hex(p) for p in exc.points], _hex(exc.values))
    return _hex((b.K_D, b.K_E, b.K_beta, b.K_mu, b.K_f, b.K_g, b.d))


def _reference_margin(sample, Gamma):
    (t, x, u, s), (D, E, _, _, _, beta, mu, _) = sample
    lam = quadratic_form_min_eig(D, E, beta, mu, Gamma)
    i = int(np.argmin(lam))
    if lam[i] > 0:
        return _hex((Gamma, lam[i]))
    return _hex((Gamma, lam[i], t[i], x[i], u[i], s[i]))


def _margin(check):
    try:
        lt = check()
    except LongTimeConditionFailure as exc:
        return _hex((exc.gamma, exc.eigenvalue, *exc.point))
    return _hex((lt.Gamma, lt.Gamma_0))


class TestSampledChecks:
    """The set-up checks read each box once through ``fields``."""

    @pytest.mark.parametrize("text", BOX_SCENARIOS)
    def test_checks_equal_the_five_callables(self, text):
        cfg = parse_config(text + "\n")
        model, box = build_model(cfg), longtime_box(cfg)
        ref = _reference_sample(model, box, 4096)
        assert _bounds(model, box) == _reference_bounds(ref)
        for Gamma in (0.3, 1.0, 2.0):
            assert _margin(lambda: check_longtime_condition(
                model, Gamma, box)) == _reference_margin(ref, Gamma)

    @pytest.mark.parametrize("text", BOX_SCENARIOS)
    def test_find_gamma_equals_looped_checks(self, text):
        cfg = parse_config(text + "\n")
        model, box = build_model(cfg), longtime_box(cfg)
        grid = list(np.geomspace(0.1, 10.0, 25))
        best, failures = None, []
        for g in grid:
            try:
                lt = check_longtime_condition(model, float(g), box)
            except LongTimeConditionFailure as exc:
                failures.append(exc)
                continue
            if best is None or lt.Gamma_0 > best.Gamma_0:
                best = lt
        if best is None:
            with pytest.raises(GammaSearchFailure) as exc:
                find_gamma(model, box, grid)
            assert [_hex((g, e.eigenvalue, *e.point))
                    for g, e in exc.value.failures] == [
                _hex((e.gamma, e.eigenvalue, *e.point)) for e in failures]
        else:
            lt = find_gamma(model, box, grid)
            assert _hex((lt.Gamma, lt.Gamma_0)) == _hex((best.Gamma,
                                                         best.Gamma_0))

    def test_each_law_read_once_per_box(self, monkeypatch):
        # one evaluation of the fields serves the bounds and all 25 Gamma
        # candidates; the constant-nu0 partials read no field at all
        model = build_model(preset_config("homogenize"))
        box = longtime_box(preset_config("homogenize"))
        calls = []
        fields = model.fields
        monkeypatch.setattr(model, "fields",
                            lambda *a: calls.append(1) or fields(*a))
        find_gamma(model, box, list(np.geomspace(0.1, 10.0, 25)))
        check_assumptions(model, box)
        assert len(calls) == 2
