"""Coefficient models for stress-assisted polymer diffusion.

Provides the physical coefficient laws (glass/rubber tanh relaxation,
Cohen-type stress-diffusion coefficient), the change of variables that
absorbs the nu0 * du/dt term into a transformed stress field, the
gradient coefficients of the transformed stress equation, and numerical
checkers for ellipticity/boundedness and for the long-time decay
condition on the coupled quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .discretization import scalar

__all__ = [
    "PhysicalCoefficients",
    "TransformedModel",
    "AssumptionBounds",
    "LongTimeCondition",
    "Box",
    "ScalarModel",
    "make_scalar_model",
    "transform",
    "check_assumptions",
    "check_longtime_condition",
    "find_gamma",
    "EllipticityViolation",
    "NonFiniteBound",
    "LongTimeConditionFailure",
    "GammaSearchFailure",
    "NonSmoothCoefficient",
]

# Below this |u| the gamma formula switches to its continuity limit:
# the ratio (integral of nu0 from 0 to u) / u is ill-conditioned there.
U_LIMIT_THRESHOLD = 1e-8

# Relative step for finite-difference partials of beta1 and gamma.
FD_STEP = 1e-5
# Relative disagreement between the h and h/2 central stencils above
# which the coefficient is flagged as non-smooth.
FD_SMOOTHNESS_TOL = 1e-3

# Default number of sample points of a box grid (longtime.n_samples).
N_SAMPLES = 4096


class EllipticityViolation(Exception):
    """Diffusion coefficient fails the uniform positivity bound on the box."""

    def __init__(self, points, values):
        self.points = points
        self.values = values
        worst = points[0]
        super().__init__(
            f"diffusion coefficient not uniformly positive: "
            f"D={values[0]:.6g} at (t,x,u,s)={tuple(float(v) for v in worst)}"
        )


class NonFiniteBound(Exception):
    """A coefficient bound is not finite on the box."""


class LongTimeConditionFailure(Exception):
    """The coupled quadratic form is not positive definite on the box."""

    def __init__(self, gamma, point, eigenvalue):
        self.gamma = gamma
        self.point = point
        self.eigenvalue = eigenvalue
        super().__init__(
            f"quadratic form loses definiteness for Gamma={gamma:.6g}: "
            f"min eigenvalue {eigenvalue:.6g} at "
            f"(t,x,u,s)={tuple(float(v) for v in point)}"
        )


class GammaSearchFailure(Exception):
    """No candidate Gamma yields a positive definite quadratic form."""

    def __init__(self, failures):
        self.failures = failures
        super().__init__(
            "all Gamma candidates failed: "
            + "; ".join(f"{g:.4g} -> {exc.eigenvalue:.4g}" for g, exc in failures)
        )


class NonSmoothCoefficient(Exception):
    """Finite-difference stencils disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# named scalar models (the configuration-facing registry)


def _logcosh(z):
    z = np.abs(np.asarray(z, dtype=float))
    return z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)


def _out(out, u):
    """out, or a new array of u's shape if it is None."""
    return np.empty(np.shape(u)) if out is None else out


@dataclass(frozen=True)
class ScalarModel:
    """A named single-variable coefficient law with derivative and
    antiderivative.

    ``fn(u, out=None)`` writes the law's values into ``out``, or into a
    new array of u's shape when out is None, and returns it.
    """

    name: str
    params: Mapping[str, object]
    fn: Callable[..., np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    antiderivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, u):
        return self.fn(u)

    @property
    def constant_value(self) -> Optional[float]:
        if self.name == "constant":
            return float(self.params["value"])
        return None


def make_scalar_model(name: str, **params) -> ScalarModel:
    """Build one of the registered coefficient laws.

    Registered names: "constant", "tanh", "cohen-e0", "polynomial".
    The tanh law accepts (lo, hi, delta, center) or the aliases
    (beta_G, beta_R, u_RG) / (D_G, D_R).
    """
    if name == "constant":
        value = float(params.pop("value"))
        _reject_extras(name, params)
        value_ = scalar(value)

        def fn(u, out=None):
            out = _out(out, u)
            out.fill(value)
            return out

        return ScalarModel(
            name="constant",
            params={"value": value},
            fn=fn,
            dfn=lambda u: np.zeros(np.shape(u), dtype=float),
            antiderivative=lambda u: np.multiply(value_, u, dtype=float),
        )
    if name == "tanh":
        aliases = {
            "beta_G": "lo", "beta_R": "hi", "u_RG": "center",
            "D_G": "lo", "D_R": "hi",
        }
        norm, given = {}, {}
        for key, val in params.items():
            canon = aliases.get(key, key)
            if canon in given:
                raise ValueError(f"tanh parameters {given[canon]!r} and "
                                 f"{key!r} both set {canon!r}")
            norm[canon], given[canon] = float(val), key
        lo, hi = norm.pop("lo"), norm.pop("hi")
        delta, center = norm.pop("delta"), norm.pop("center")
        _reject_extras(name, norm)
        if delta <= 0:
            raise ValueError("tanh model requires delta > 0")
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        mid_, half_, center_, delta_ = map(scalar, (mid, half, center, delta))

        def fn(u, out=None):
            # mid + half * tanh((u - center) / delta)
            out = np.subtract(u, center_, out=_out(out, u))
            np.divide(out, delta_, out=out)
            np.tanh(out, out=out)
            np.multiply(half_, out, out=out)
            return np.add(mid_, out, out=out)

        def dfn(u):
            return half / delta / np.cosh((np.asarray(u, float) - center) / delta) ** 2

        def antider(u):
            u = np.asarray(u, dtype=float)
            return mid * u + half * delta * (
                _logcosh((u - center) / delta) - _logcosh(-center / delta)
            )

        return ScalarModel("tanh", {"lo": lo, "hi": hi, "delta": delta,
                                    "center": center}, fn, dfn, antider)
    if name == "cohen-e0":
        a1, a2 = float(params.pop("alpha_1")), float(params.pop("alpha_2"))
        _reject_extras(name, params)
        if a1 <= 0 or a2 <= 0:
            raise ValueError("require alpha_1 > 0 and alpha_2 > 0")
        one_, a1_, a2_ = map(scalar, (1.0, a1, a2))

        def fn(u, out=None):
            # ((alpha_1 u) w) / (alpha_2 + w) with w = (u-1)^2: zero at
            # u = 0 and u = 1
            out = _out(out, u)
            w = np.subtract(u, one_, out=np.empty_like(out))
            np.square(w, out=w)
            np.multiply(a1_, u, out=out)
            np.multiply(out, w, out=out)
            np.add(a2_, w, out=w)
            return np.divide(out, w, out=out)

        def dfn(u):
            u = np.asarray(u, dtype=float)
            w = (u - 1.0) ** 2
            q = w / (a2 + w)
            dq = 2.0 * (u - 1.0) * a2 / (a2 + w) ** 2
            return a1 * (q + u * dq)

        return ScalarModel("cohen-e0", {"alpha_1": a1, "alpha_2": a2}, fn, dfn)
    if name == "polynomial":
        coeffs = [float(c) for c in params.pop("coeffs")]
        _reject_extras(name, params)
        poly = np.polynomial.Polynomial(coeffs)
        # an overflowing coefficient leaves an inf that the set-up checks
        # and the run's finiteness tests report in their own words
        with np.errstate(over="ignore"):
            dpoly, ipoly = poly.deriv(), poly.integ()
        return ScalarModel(
            "polynomial",
            {"coeffs": tuple(coeffs)},
            # numpy's own evaluation, copied into out (positive keeps -0.0)
            fn=lambda u, out=None: np.positive(poly(np.asarray(u, float)),
                                               out=out),
            dfn=lambda u: dpoly(np.asarray(u, float)),
            antiderivative=lambda u: ipoly(np.asarray(u, float)),
        )
    raise ValueError(f"unknown coefficient model {name!r}")


def _reject_extras(name, params):
    if params:
        raise ValueError(f"unexpected parameters for model {name!r}: "
                         f"{sorted(params)}")


# ---------------------------------------------------------------------------
# physical coefficients and the change of variables


Coefficient = Callable[..., np.ndarray]  # (t, x, u, sigma_or_varsigma) -> values


@dataclass
class PhysicalCoefficients:
    """The raw coefficient maps of the concentration/stress system.

    D0, E0, M0, beta0 take (t, x, u, sigma); mu0, nu0 and the
    antiderivative of nu0 take the concentration only.  The optional
    derivative fields are used to attach analytic partials during the
    change of variables; supplying beta0_du asserts that beta0 depends
    on u only.  ``constants`` maps the name of each map that is a
    constant law to its value: the fused ``fields`` of the change of
    variables use that value in place of calling the map, a constant
    nu0 also lets it attach analytic partials, and enough constant laws
    let a run keep its step-1 build (see ``_frozen``).
    """

    D0: Coefficient
    E0: Coefficient
    M0: Coefficient
    beta0: Coefficient
    mu0: Callable[[np.ndarray], np.ndarray]
    nu0: Callable[[np.ndarray], np.ndarray]
    nu0_antiderivative: Callable[[np.ndarray], np.ndarray]
    beta0_du: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mu0_du: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constants: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Lifted:
    """A scalar law as a map of (t, x, u, sigma): its values have the
    shape of u, and it writes them into ``out`` when given one."""

    law: ScalarModel

    def __call__(self, t, x, u, s, out=None):
        return self.law.fn(u, out)


def _field_rows(t, x, u, s) -> np.ndarray:
    """A new (5, ...) array for the five fields at (t, x, u, varsigma)."""
    return np.empty((5,) + np.broadcast(t, x, u, s).shape)


def _rows(out: np.ndarray) -> list:
    """The rows of a (5, ...) array as arrays, 0-d ones included."""
    return [out[i, ...] for i in range(len(out))]


@dataclass(frozen=True)
class TransformedModel:
    """Coefficients of the system in the (u, varsigma) variables.

    D, E, f, beta1, gamma take (t, x, u, varsigma).  ``partials``, when
    set, says that beta1 and gamma depend on u only: it maps u to
    (d beta1/du, d gamma/du).  When it is None, the partials along u,
    varsigma and x come from central finite differences.  The model is
    immutable: a changed one comes from ``dataclasses.replace``.  Only
    ``transform`` (which ``constant_model`` calls) fuses ``fields``,
    whose rows its five callables are, and can set ``frozen``.
    """

    D: Coefficient
    E: Coefficient
    f: Coefficient
    beta1: Coefficient
    gamma: Coefficient
    partials: Optional[Callable[[np.ndarray], tuple]] = None
    # set by transform: one function returning all five fields from a
    # single evaluation of each map, and whether what a step builds from
    # the fields is fixed; None for a hand-built or replaced model
    _fused: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def fields(self, t, x, u, s, out=None) -> np.ndarray:
        """The five fields (D, E, f, beta1, gamma) at (t, x, u, varsigma),
        as the rows of ``out``, or of a new (5, ...) array of the inputs'
        broadcast shape when out is None.

        A model built by ``transform`` evaluates each physical map once;
        a hand-built or replaced one copies each callable's values into
        its row.
        """
        if self._fused is not None:
            return self._fused[0](t, x, u, s, out)
        if out is None:
            out = _field_rows(t, x, u, s)
        for row, c in zip(_rows(out), (self.D, self.E, self.f, self.beta1,
                                       self.gamma)):
            row[...] = c(t, x, u, s)
        return out

    @property
    def frozen(self) -> bool:
        """True when what a step builds from the fields is the same bits
        at every (t, x, u, varsigma): set by ``transform`` from constant
        laws (see ``_frozen``)."""
        return self._fused is not None and self._fused[1]


# The three formulas of the change of variables.  Each writes its field
# into out, a row of the fields, and the operands may be arrays or floats.

def _diffusion(D0, nu0, E0, out, scratch):
    """D = D0 + nu0*E0; scratch holds nu0*E0."""
    return np.add(D0, np.multiply(nu0, E0, out=scratch), out=out)


def _forcing(u, M0, out):
    """f = (-u)*M0."""
    np.negative(u, out=out)
    return np.multiply(out, M0, out=out)


def _stress_drive(u, mu0, beta0, nu0, A, out):
    """gamma = mu0 - beta0 * A/u, with the ratio's limit nu0 near u = 0.

    The ratio is where(|u| < U_LIMIT_THRESHOLD, nu0, A/u); when every
    |u| is at least the threshold (none is small or NaN) it is A/u.
    """
    if not np.abs(u, out=out).min() >= U_LIMIT_THRESHOLD:
        small = out < U_LIMIT_THRESHOLD
        np.divide(A, np.where(small, 1.0, u), out=out)
        np.copyto(out, nu0, where=small)
    else:
        np.divide(A, u, out=out)
    np.multiply(beta0, out, out=out)
    return np.subtract(mu0, out, out=out)


def _frozen(constants: Mapping[str, float]) -> bool:
    """Whether constant laws fix the step's build bit for bit.

    D0, E0, beta0 and mu0 must be constant, and M0 and nu0 constant +-0.
    Then D = D0 + nu0*E0, E and beta1 are constants; f = -u*M0 is +-0 by
    the sign of u, but its load telescopes to +0.0 whatever the signs;
    and gamma = mu0 - beta0*(+-0) is exactly mu0 unless mu0 is -0.0.
    A non-zero nu0 would leave gamma = mu0 - beta0*(nu0*u)/u, which is
    not the same bits at every u.
    """
    if not {"D0", "E0", "M0", "beta0", "mu0", "nu0"} <= constants.keys():
        return False
    mu0 = constants["mu0"]
    return (constants["M0"] == 0.0 and constants["nu0"] == 0.0
            and not (mu0 == 0.0 and math.copysign(1.0, mu0) < 0.0))


def _operand(phys: PhysicalCoefficients, name: str):
    """The map ``name`` of phys as g(t, x, u, sigma, out) for the fused
    fields: a constant law gives its value as a 0-d array (see
    ``scalar``), a lifted scalar law writes its values into out, and any
    other map returns its own values."""
    if name in phys.constants:
        value = scalar(phys.constants[name])
        return lambda t, x, u, sig, out: value
    fn = getattr(phys, name)
    if isinstance(fn, _Lifted):
        law = fn.law.fn
        return lambda t, x, u, sig, out: law(u, out)
    if name in ("mu0", "nu0"):
        return lambda t, x, u, sig, out: fn(u)
    return lambda t, x, u, sig, out: fn(t, x, u, sig)


def transform(phys: PhysicalCoefficients) -> TransformedModel:
    """Change of variables varsigma = sigma - int_0^u nu0.

    Its ``fields`` forms D = D0 + nu0*E0, E = E0, f = -u*M0,
    beta1 = -beta0 and gamma = mu0 - beta0 * (int_0^u nu0)/u in their
    rows of ``out``, each map evaluated once at sigma = varsigma +
    int_0^u nu0; sigma is formed only when a map other than a scalar law
    reads it.  Near u = 0 the gamma ratio is replaced by its continuity
    limit nu0(u).  The model's five callables are the rows of ``fields``.
    """
    A = phys.nu0_antiderivative

    def arr(v):
        return np.asarray(v, dtype=float)

    maps = ("D0", "E0", "M0", "beta0")
    d0, e0, m0, b0, mu0_of, nu0_of = (_operand(phys, name)
                                      for name in maps + ("mu0", "nu0"))
    reads_sigma = not all(name in phys.constants
                          or isinstance(getattr(phys, name), _Lifted)
                          for name in maps)

    def fields(t, x, u, s, out=None):
        u = arr(u)
        if out is None:
            out = _field_rows(t, x, u, s)
        Dr, Er, fr, b1r, gr = out if out.ndim > 1 else _rows(out)
        a = arr(A(u))
        sig = arr(s) + a if reads_sigma else None
        nu0 = nu0_of(t, x, u, sig, None)
        E0 = e0(t, x, u, sig, Er)
        beta0 = b0(t, x, u, sig, b1r)
        # f's row holds nu0*E0 until the forcing is formed
        _diffusion(d0(t, x, u, sig, Dr), nu0, E0, out=Dr, scratch=fr)
        _forcing(u, m0(t, x, u, sig, None), out=fr)
        _stress_drive(u, mu0_of(t, x, u, sig, None), beta0, nu0, a, out=gr)
        if E0 is not Er:
            Er[...] = E0
        np.negative(beta0, out=b1r)
        return out

    partials = None
    if (phys.beta0_du is not None and phys.mu0_du is not None
            and "nu0" in phys.constants):
        c = phys.constants["nu0"]
        b0du, m0du = phys.beta0_du, phys.mu0_du

        def partials(u):
            # gamma = mu0(u) - c*beta0(u) identically when nu0 is constant
            db0 = np.asarray(b0du(u), dtype=float)
            return -db0, np.asarray(m0du(u), dtype=float) - c * db0

    def row(i):
        return lambda t, x, u, s: fields(t, x, u, s)[i, ...]

    model = TransformedModel(*map(row, range(5)), partials=partials)
    object.__setattr__(model, "_fused", (fields, _frozen(phys.constants)))
    return model


def physical_from_models(D0: ScalarModel, E0: ScalarModel, M0: ScalarModel,
                         beta0: ScalarModel, mu0: ScalarModel,
                         nu0: ScalarModel) -> PhysicalCoefficients:
    """Assemble PhysicalCoefficients from single-variable named models.

    All maps then depend on the concentration only; analytic derivative
    data is attached so the change of variables can carry analytic
    partials when nu0 is constant.
    """
    if nu0.antiderivative is None:
        raise ValueError(
            f"model {nu0.name!r} has no closed-form antiderivative; "
            "it cannot be used for nu0")
    laws = {"D0": D0, "E0": E0, "M0": M0, "beta0": beta0, "mu0": mu0,
            "nu0": nu0}
    return PhysicalCoefficients(
        D0=_Lifted(D0), E0=_Lifted(E0), M0=_Lifted(M0), beta0=_Lifted(beta0),
        mu0=mu0.fn, nu0=nu0.fn, nu0_antiderivative=nu0.antiderivative,
        beta0_du=beta0.dfn, mu0_du=mu0.dfn,
        constants={name: m.constant_value for name, m in laws.items()
                   if m.constant_value is not None},
    )


def constant_model(D=1.0, E=0.0, beta1=-1.0, gamma=0.0) -> TransformedModel:
    """``transform`` of the constant laws D0 = D, E0 = E, beta0 = -beta1,
    mu0 = gamma, M0 = nu0 = 0; frozen unless gamma is -0.0 (for tests)."""
    laws = (make_scalar_model("constant", value=v)
            for v in (D, E, 0.0, -beta1, gamma, 0.0))
    return transform(physical_from_models(*laws))


# ---------------------------------------------------------------------------
# gradient coefficients of the stress equation's right-hand side


def _fd_partial(fn, which, t, x, u, s):
    """Second-order central difference with a stencil-consistency check."""
    i = {"x": 1, "u": 2, "s": 3}[which]
    args = [t, x, u, s]
    base = args[i]
    h = FD_STEP * (1.0 + np.abs(np.asarray(base, dtype=float)))

    def at(delta):
        args[i] = base + delta
        return fn(*args)

    d1 = (at(h) - at(-h)) / (2.0 * h)
    d2 = (at(0.5 * h) - at(-0.5 * h)) / h
    scale = 1.0 + np.maximum(np.abs(d1), np.abs(d2))
    if np.any(np.abs(d1 - d2) > FD_SMOOTHNESS_TOL * scale):
        raise NonSmoothCoefficient(
            f"stencil disagreement in d/d{which} exceeds "
            f"{FD_SMOOTHNESS_TOL:g}; coefficient appears non-smooth")
    return d2


def _partials(model: TransformedModel, which: str, t, x, u, s) -> tuple:
    """(d beta1, d gamma) along ``which`` by central differences of the
    fields' last two rows, one ``fields`` call per stencil point."""
    return tuple(_fd_partial(lambda *a: model.fields(*a)[3:], which,
                             t, x, u, s))


def _coefficients(model: TransformedModel, t, x, u, s) -> tuple:
    """The five fields (D, E, f, beta1, gamma), from one ``fields`` call,
    and the coefficients (beta, mu, g) of grad(beta1*varsigma + gamma*u).

    beta multiplies grad u, mu multiplies grad varsigma, g collects the
    explicit spatial dependence:
        beta = (d beta1/du) s + gamma + (d gamma/du) u
        mu   = beta1 + (d beta1/ds) s + (d gamma/ds) u
        g    = (d beta1/dx) s + (d gamma/dx) u
    With ``model.partials`` set, beta1 and gamma depend on u only, so
    mu = beta1 and g = 0.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    D, E, f, b1, gm = model.fields(t, x, u, s)
    if model.partials is not None:
        db1_du, dgm_du = model.partials(u)
        mu, g = b1, np.zeros(np.shape(b1))
    else:
        db1_du, dgm_du = _partials(model, "u", t, x, u, s)
        db1_ds, dgm_ds = _partials(model, "s", t, x, u, s)
        db1_dx, dgm_dx = _partials(model, "x", t, x, u, s)
        mu = b1 + db1_ds * s + dgm_ds * u
        g = db1_dx * s + dgm_dx * u
    beta = db1_du * s + gm + dgm_du * u
    return D, E, f, b1, gm, beta, mu, g


# ---------------------------------------------------------------------------
# sampled assumption checking


@dataclass(frozen=True)
class Box:
    """Axis-aligned evaluation box in (t, x, u, varsigma)."""

    t: tuple[float, float]
    x: tuple[float, float]
    u: tuple[float, float]
    s: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in zip("txus", (self.t, self.x, self.u, self.s)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"invalid {name}-range ({lo}, {hi})")

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in (self.t, self.x, self.u, self.s):
            v *= hi - lo
        return v

    def grid(self, n_samples: int):
        """Deterministic product grid with about n_samples points."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        axes = []
        live = sum(1 for lo, hi in (self.t, self.x, self.u, self.s) if hi > lo)
        per_axis = max(2, round(n_samples ** (1.0 / live))) if live else 1
        for lo, hi in (self.t, self.x, self.u, self.s):
            axes.append(np.linspace(lo, hi, per_axis) if hi > lo
                        else np.array([lo]))
        T, X, U, S = np.meshgrid(*axes, indexing="ij")
        return T.ravel(), X.ravel(), U.ravel(), S.ravel()


@dataclass(frozen=True)
class AssumptionBounds:
    """Empirical bounds for the transformed coefficients on a declared box."""

    K_D: float
    K_E: float
    K_beta: float
    K_mu: float
    K_f: float
    K_g: float
    d: float

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError("ellipticity constant d must be positive")
        for k in (self.K_D, self.K_E, self.K_beta, self.K_mu, self.K_f, self.K_g):
            if not (math.isfinite(k) and k >= 0):
                raise ValueError("bounds must be finite and non-negative")


def _affine_growth_slope(radius: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of |values| against |u|+|s|, clamped >= 0."""
    if np.ptp(radius) < 1e-14:
        return 0.0
    return max(float(np.polyfit(radius, values, 1)[0]), 0.0)


def _sample(model: TransformedModel, box: Box, n_samples: int):
    """The box grid (t, x, u, s) and ``_coefficients`` on it, each
    broadcast to the grid.

    Overflow and invalid operations warn nothing here: the checks that
    read the sample fail on every NaN or inf they find, by name.
    """
    t, x, u, s = box.grid(n_samples)
    with np.errstate(all="ignore"):
        values = _coefficients(model, t, x, u, s)
    return (t, x, u, s), [np.broadcast_to(v, u.shape) for v in values]


def check_assumptions(model: TransformedModel, box: Box,
                      n_samples: int = N_SAMPLES) -> AssumptionBounds:
    """Empirical coefficient bounds over a deterministic sample grid.

    Raises EllipticityViolation when the sampled diffusion coefficient
    is not positive (NaN included), and NonFiniteBound, naming the bound
    and a sample point, when a field a bound is taken from is not finite.
    """
    (t, x, u, s), (D, E, fv, b1, gm, beta, mu, g) = _sample(model, box,
                                                           n_samples)

    d = float(np.min(D))
    if not d > 0:
        bad = np.nonzero(~(D > 0))[0]
        order = np.argsort(D[bad])
        bad = bad[order][:5]
        pts = [(t[i], x[i], u[i], s[i]) for i in bad]
        raise EllipticityViolation(pts, [float(D[i]) for i in bad])

    # the fields each bound is taken from, as rows; the first non-finite
    # entry in row order names its bound
    names = ("K_D", "K_E", "K_beta", "K_beta", "K_mu", "K_mu", "K_f", "K_g")
    values = np.abs((D, E, beta, gm, mu, b1, fv, g))
    row, i = divmod(int(np.argmin(np.isfinite(values))), values.shape[1])
    if not np.isfinite(values[row, i]):
        raise NonFiniteBound(
            f"{names[row]} is not finite on the box: {values[row, i]:.6g} "
            f"at (t,x,u,s)={tuple(float(v[i]) for v in (t, x, u, s))}")
    radius = np.abs(u) + np.abs(s)
    peak = values.max(axis=1)
    return AssumptionBounds(
        K_D=float(peak[0]), K_E=float(peak[1]),
        K_beta=float(max(peak[2], peak[3])), K_mu=float(max(peak[4], peak[5])),
        K_f=_affine_growth_slope(radius, values[6]),
        K_g=_affine_growth_slope(radius, values[7]), d=d)


# ---------------------------------------------------------------------------
# long-time decay condition


@dataclass(frozen=True)
class LongTimeCondition:
    """Certified positivity margin of the coupled quadratic form."""

    Gamma: float
    Gamma_0: float
    verified_box: Box

    def __post_init__(self):
        if not (self.Gamma > 0 and self.Gamma_0 > 0):
            raise ValueError("Gamma and Gamma_0 must be positive")


def quadratic_form_min_eig(D, E, beta, mu, Gamma):
    """Min eigenvalue of [[D, c/2], [c/2, -mu]] with c = E*Gamma - beta/Gamma."""
    a = np.asarray(D, dtype=float)
    c = -np.asarray(mu, dtype=float)
    b = 0.5 * (np.asarray(E, dtype=float) * Gamma
               - np.asarray(beta, dtype=float) / Gamma)
    return 0.5 * ((a + c) - np.sqrt((a - c) ** 2 + 4.0 * b * b))


def check_longtime_condition(model: TransformedModel, Gamma: float, box: Box,
                             n_samples: int = N_SAMPLES) -> LongTimeCondition:
    """Infimum over the box of the quadratic-form margin for the given Gamma.

    Raises LongTimeConditionFailure (carrying the minimizing point and
    eigenvalue) when the infimum is not positive.
    """
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    return _margin(_sample(model, box, n_samples), Gamma, box)


def _margin(sample, Gamma: float, box: Box) -> LongTimeCondition:
    """``check_longtime_condition`` on a ``_sample`` of the box."""
    (t, x, u, s), (D, E, _, _, _, beta, mu, _) = sample
    # an overflow or a non-finite entry makes the margin NaN or -inf,
    # which fails below
    with np.errstate(all="ignore"):
        lam = quadratic_form_min_eig(D, E, beta, mu, Gamma)
    i = int(np.argmin(lam))
    g0 = float(lam[i])
    if not g0 > 0:
        raise LongTimeConditionFailure(Gamma, (t[i], x[i], u[i], s[i]), g0)
    return LongTimeCondition(Gamma=Gamma, Gamma_0=g0, verified_box=box)


def find_gamma(model: TransformedModel, box: Box,
               gamma_grid: Sequence[float],
               n_samples: int = N_SAMPLES) -> LongTimeCondition:
    """Keep the candidate Gamma with the largest margin on one box sample."""
    if not gamma_grid:
        raise ValueError("gamma_grid must be non-empty")
    if any(g <= 0 for g in gamma_grid):
        raise ValueError("all Gamma candidates must be positive")
    if box.volume == 0:
        raise ValueError("evaluation box has zero volume")
    sample = _sample(model, box, n_samples)
    best: Optional[LongTimeCondition] = None
    failures = []
    for g in gamma_grid:
        try:
            cond = _margin(sample, float(g), box)
        except LongTimeConditionFailure as exc:
            failures.append((float(g), exc))
            continue
        if best is None or cond.Gamma_0 > best.Gamma_0:
            best = cond
    if best is None:
        raise GammaSearchFailure(failures)
    return best
