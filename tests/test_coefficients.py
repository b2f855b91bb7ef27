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
    GlassRubberParams,
    LongTimeConditionFailure,
    PhysicalCoefficients,
    StressDiffusionParams,
    TanhDiffusionParams,
    check_assumptions,
    check_longtime_condition,
    constant_model,
    eval_beta0,
    eval_D0_tanh,
    eval_E0,
    eval_E0_du,
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
    preset_config,
)

GR = GlassRubberParams(beta_R=2.0, beta_G=1.0, delta=0.05, u_RG=0.5)
SD = StressDiffusionParams(alpha_1=1.0, alpha_2=0.01)
TD = TanhDiffusionParams(D_R=1.0, D_G=0.1, delta=0.05, u_RG=0.5)


class TestScalarLaws:
    def test_beta0_scalar_value(self):
        # 1.5 + 0.5*tanh(1) at u = u_RG + delta
        assert eval_beta0(0.55, GR) == pytest.approx(
            1.5 + 0.5 * math.tanh(1.0), abs=1e-12)
        assert eval_beta0(0.55, GR) == pytest.approx(1.8807970779, abs=1e-9)

    def test_beta0_midpoint_identity(self):
        assert abs(eval_beta0(GR.u_RG, GR) - 0.5 * (GR.beta_R + GR.beta_G)) \
            <= 1e-14

    def test_E0_scalar_value(self):
        assert eval_E0(0.5, SD) == pytest.approx(0.5 * 0.25 / 0.26, abs=1e-12)
        assert eval_E0(0.5, SD) == pytest.approx(0.4807692308, abs=1e-9)

    def test_E0_endpoints_exact(self):
        assert eval_E0(0.0, SD) == 0.0
        assert eval_E0(1.0, SD) == 0.0

    def test_E0_nonnegative_on_unit_interval(self):
        u = np.linspace(0.0, 1.0, 1001)
        assert np.all(eval_E0(u, SD) >= 0.0)

    def test_D0_tanh_scalar_value(self):
        assert eval_D0_tanh(0.55, TD) == pytest.approx(
            0.55 + 0.45 * math.tanh(1.0), abs=1e-12)
        assert eval_D0_tanh(0.55, TD) == pytest.approx(0.8927, abs=5e-5)

    def test_E0_du_matches_finite_difference(self):
        u = np.linspace(-0.5, 1.5, 101)
        h = 1e-6
        fd = (eval_E0(u + h, SD) - eval_E0(u - h, SD)) / (2 * h)
        assert np.allclose(eval_E0_du(u, SD), fd, atol=1e-7)

    @given(st.floats(0.2, 0.8), st.floats(0.2, 0.8))
    @settings(max_examples=100, deadline=None)
    def test_beta0_monotone_and_bounded(self, u1, u2):
        # away from floating-point tanh saturation the law is strictly
        # monotone and strictly inside (beta_G, beta_R)
        lo, hi = min(u1, u2), max(u1, u2)
        b1, b2 = float(eval_beta0(lo, GR)), float(eval_beta0(hi, GR))
        assert GR.beta_G < b1 < GR.beta_R
        assert GR.beta_G < b2 < GR.beta_R
        if hi - lo > 1e-9:
            assert b1 < b2

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GlassRubberParams(beta_R=1.0, beta_G=2.0, delta=0.1, u_RG=0.5)
        with pytest.raises(ValueError):
            TanhDiffusionParams(D_R=1.0, D_G=0.1, delta=-1.0, u_RG=0.5)
        with pytest.raises(ValueError):
            StressDiffusionParams(alpha_1=0.0, alpha_2=0.1)


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
        assert np.array_equal(a(u), eval_beta0(u, GR))

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

    def test_cohen_matches_eval(self):
        m = make_scalar_model("cohen-e0", alpha_1=1.0, alpha_2=0.01)
        u = np.linspace(0, 1, 11)
        assert np.array_equal(m(u), eval_E0(u, SD))
        assert m.antiderivative is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scalar_model("exp")


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
        assert np.allclose(model.E(0, 0, u, s), eval_E0(u, SD))
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
        phys.nu0_const = None
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
        model = transform(_tanh_physical())
        model.gamma = lambda t, x, u, s: np.full(np.shape(u), 0.125)
        _assert_fields_match_callables(model, 0.0, x, u, s)
        assert np.array_equal(model.fields(0.0, x, u, s)[4], np.full(9, 0.125))


class TestGradientCoefficients:
    def test_constant_model_trivial(self):
        model = constant_model(D=1.0, E=0.0, f=0.0, beta1=-2.0, gamma=0.7)
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
        k_e_exact = float(np.max(eval_E0(grid, SD)))
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
