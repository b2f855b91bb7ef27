"""Scenario configuration: flat dotted key-value files, presets, builders.

A scenario file is a sequence of ``section.key = value`` lines, for
example::

    mesh.N = 256
    model.beta0 = "tanh"
    model.beta0.beta_R = 2.0

Values are ints, floats, booleans (true/false), quoted strings, or
bracketed numeric lists.  A ``preset = "name"`` line starts from the
named built-in scenario and overrides it.  Parsing applies the defaults
table below, then ``validate`` checks the result against the rule table
and reports unknown, ill-typed or out-of-range keys with line numbers;
serialize/parse round-trips are semantically exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coefficients import (
    N_SAMPLES,
    Box,
    PhysicalCoefficients,
    ScalarModel,
    TransformedModel,
    make_scalar_model,
    physical_from_models,
    transform,
)
from .discretization import BoundaryData, Mesh, build_mesh
from .output import read_snapshot
from .solver import InitialData, SolverConfig, grid_steps

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "validate",
    "serialize_config",
    "preset_config",
    "PRESET_NAMES",
    "DEFAULTS",
    "build_mesh_from",
    "build_physical",
    "build_model",
    "build_boundary",
    "build_initial",
    "build_solver_config",
    "longtime_box",
]


class ConfigError(Exception):
    def __init__(self, message: str, line: Optional[int] = None,
                 key: Optional[str] = None):
        self.line = line
        self.key = key
        where = ""
        if line is not None:
            where += f" (line {line})"
        if key is not None:
            where += f" [key {key!r}]"
        super().__init__(message + where)


MODEL_ROLES = ("D0", "E0", "M0", "beta0", "mu0", "nu0")

# defaults table: a minimal file inherits all of these
DEFAULTS: dict[str, object] = {
    "mesh.L": 1.0,
    "mesh.N": 64,
    "time.dt": 1e-3,
    "time.T_end": 1.0,
    "time.output_every": 0,          # 0: snapshot only first and last state
    "epsilon": 0.0,
    "model.D0": "constant", "model.D0.value": 1.0,
    "model.E0": "constant", "model.E0.value": 0.0,
    "model.M0": "constant", "model.M0.value": 0.0,
    "model.beta0": "constant", "model.beta0.value": 1.0,
    "model.mu0": "constant", "model.mu0.value": 0.0,
    "model.nu0": "constant", "model.nu0.value": 0.0,
    "initial.u0": "constant", "initial.u0.value": 0.0,
    "initial.sigma0": "constant", "initial.sigma0.value": 0.0,
    "boundary.phi_left": "zero",
    "boundary.phi_right": "zero",
    "check.mass_balance": True,
    "check.lyapunov": False,
    "signature": "none",
}

_SIGNATURES = ("none", "overshoot", "undershoot", "front")
_RANGE = (list, lambda v: len(v) == 2 and v[0] <= v[1],
          "must be a range [lo, hi] with lo <= hi")

# every key outside the groups: (type, test of the value, what the test
# requires); keys absent from DEFAULTS are optional
_RULES: dict[str, tuple] = {
    "mesh.L": (float, lambda v: v > 0, "must be positive"),
    "mesh.N": (int, lambda v: v >= 2, "must be at least 2"),
    "time.dt": (float, lambda v: v > 0, "must be positive"),
    "time.T_end": (float, lambda v: v >= 0, "must be non-negative"),
    "time.output_every": (int, lambda v: v >= 0, "must be non-negative"),
    "epsilon": (float, lambda v: v >= 0, "must be non-negative"),
    "check.mass_balance": (bool, None, ""),
    "check.lyapunov": (bool, None, ""),
    "check.analytic": (str, lambda v: v == "heat-cosine",
                       'must be "heat-cosine"'),
    "check.analytic_tol": (float, lambda v: v > 0, "must be positive"),
    "signature": (str, lambda v: v in _SIGNATURES,
                  f"must be one of {list(_SIGNATURES)}"),
    "front.threshold": (float, None, ""),
    "longtime.Gamma": (float, lambda v: v > 0, "must be positive"),
    "longtime.gamma_grid": (list, lambda v: v and min(v) > 0,
                            "must be a non-empty list of positive numbers"),
    "longtime.n_samples": (int, lambda v: v >= 1, "must be at least 1"),
    "longtime.box.t": _RANGE,
    "longtime.box.x": _RANGE,
    "longtime.box.u": _RANGE,
    "longtime.box.s": _RANGE,
}
# read for an unset optional key, which stays out of values and config.txt
_OPTIONAL_DEFAULTS = {
    "check.analytic_tol": 1e-2, "front.threshold": 0.5,
    "longtime.gamma_grid": tuple(np.geomspace(0.1, 10.0, 25)),
    "longtime.n_samples": N_SAMPLES}

_FIELD_KINDS = {
    "constant": {"value": None},
    "cosine": {"mean": 0.0, "amplitude": None, "mode": 1},
    "step": {"left": None, "right": None, "x0": None},
    "file": {"path": None},
}
_SIGNAL_KINDS = {
    "zero": {},
    "constant": {"value": None},
    "sinusoid": {"amplitude": None, "omega": None, "phase": 0.0},
    "pulse": {"value": None, "t_on": 0.0, "t_off": None},
}
_GROUP_HEADS = tuple(f"model.{r}" for r in MODEL_ROLES) + (
    "initial.u0", "initial.sigma0", "boundary.phi_left", "boundary.phi_right")
# the type of a group parameter, by its name; any other is a float
_PARAM_TYPES = {"path": str, "mode": int, "coeffs": list}

# key = value needs every key = value of its table:
_NEEDS = (
    # u must obey the plain heat equation, which the decaying cosine
    # solves: no stress coupling, forcing or influx
    ("check.analytic", "heat-cosine", {
        "initial.u0": "cosine", "model.D0": "constant",
        "model.E0": "constant", "model.E0.value": 0.0,
        "model.M0": "constant", "model.M0.value": 0.0,
        "boundary.phi_left": "zero", "boundary.phi_right": "zero",
        "epsilon": 0.0}),
    # decay of the closed system without forcing, the case
    # lyapunov_decay_check is for
    ("check.lyapunov", True, {
        "model.M0": "constant", "model.M0.value": 0.0,
        "boundary.phi_left": "zero", "boundary.phi_right": "zero"}))


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario with defaults applied; semantics live in ``values``.

    ``laws`` holds the six coefficient laws, by role, that ``validate``
    built from ``values``; ``build_physical`` reads them.
    """

    values: dict
    laws: dict = field(default_factory=dict, compare=False, repr=False)

    def __getitem__(self, key):
        """The value of ``key``, or the default of an unset optional key."""
        if key in self.values:
            return self.values[key]
        return _OPTIONAL_DEFAULTS[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def group(self, head: str) -> tuple[str, dict]:
        """(kind name, params) for a model/field/signal group key."""
        name = self.values[head]
        prefix = head + "."
        params = {k[len(prefix):]: v for k, v in self.values.items()
                  if k.startswith(prefix) and "." not in k[len(prefix):]}
        return name, params


# ---------------------------------------------------------------------------
# parsing


def _parse_scalar(tok: str):
    if len(tok) >= 2 and tok[0] == tok[-1] == '"':
        return tok[1:-1]
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok  # bare word: treated as a string


def _parse_value(tok: str, line_no: int):
    tok = tok.strip()
    if not tok:
        raise ConfigError("empty value", line=line_no)
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise ConfigError("unterminated list", line=line_no)
        inner = tok[1:-1].strip()
        if not inner:
            return []
        items = []
        for part in inner.split(","):
            v = _parse_scalar(part.strip())
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"list entries must be numbers, got {part!r}",
                                  line=line_no)
            items.append(float(v))
        return items
    return _parse_scalar(tok)


def _raw_pairs(text: str):
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}",
                              line=line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key", line=line_no)
        pairs.append((key, _parse_value(val, line_no), line_no))
    return pairs


def _overlay(base: dict, pairs) -> dict:
    """Apply updates; changing a group's kind drops the group's old params."""
    out = dict(base)
    for key, value, _line in pairs:
        if key in _GROUP_HEADS and out.get(key) != value:
            prefix = key + "."
            for stale in [k for k in out if k.startswith(prefix)]:
                del out[stale]
        out[key] = value
    return out


def _rule(key: str) -> Optional[tuple]:
    """(type, test, requirement) of a key, or None for an unknown key."""
    if key in _RULES:
        return _RULES[key]
    if key in _GROUP_HEADS:
        return (str, None, "")
    head, _, pname = key.rpartition(".")
    if head in _GROUP_HEADS:
        return (_PARAM_TYPES.get(pname, float), None, "")
    return None


def _coerce(key: str, value, want: type, line: Optional[int]):
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, want) or (want is not bool and isinstance(value, bool)):
        raise ConfigError(f"expected {want.__name__}, got {value!r}",
                          line=line, key=key)
    return value


def _validate_group(values: dict, head: str, kinds: dict, lines: dict):
    name = values.get(head)
    if name not in kinds:
        raise ConfigError(
            f"unknown kind {name!r}; expected one of {sorted(kinds)}",
            line=lines.get(head), key=head)
    schema = kinds[name]
    prefix = head + "."
    present = {k[len(prefix):] for k in values if k.startswith(prefix)}
    for extra in sorted(present - set(schema)):
        raise ConfigError(f"parameter {extra!r} not valid for kind {name!r}",
                          line=lines.get(prefix + extra), key=prefix + extra)
    for pname, default in schema.items():
        key = prefix + pname
        if key not in values:
            if default is None:
                raise ConfigError(f"kind {name!r} requires parameter {pname!r}",
                                  key=key)
            values[key] = default


def parse_config(text: str) -> ScenarioConfig:
    """Parse, expand any preset, apply defaults, and validate a scenario."""
    pairs = _raw_pairs(text)
    lines = {k: ln for k, _v, ln in pairs}

    preset_name = None
    body = []
    for key, value, line_no in pairs:
        if key == "preset":
            if not isinstance(value, str):
                raise ConfigError("preset must be a name", line=line_no,
                                  key="preset")
            preset_name = value
        else:
            body.append((key, value, line_no))

    base = dict(DEFAULTS)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: "
                f"{sorted(PRESETS)}", line=lines.get("preset"), key="preset")
        base = _overlay(base, _raw_pairs(PRESETS[preset_name]))

    return validate(_overlay(base, body), lines)


def validate(values: dict, lines: Optional[dict] = None) -> ScenarioConfig:
    """Check a resolved scenario and fill in its group defaults.

    Every rule on a scenario lives here, so a file, a CLI override and
    an eps-scan member are held to the same rules.  ``lines`` maps keys
    to the file lines they came from, for the error messages.
    """
    values, lines = dict(values), lines or {}
    for key, value in values.items():
        rule = _rule(key)
        if rule is None:
            raise ConfigError(f"unknown configuration key {key!r}",
                              line=lines.get(key), key=key)
        want, test, need = rule
        v = values[key] = _coerce(key, value, want, lines.get(key))
        numbers = v if isinstance(v, list) else (v,)
        if isinstance(v, (float, list)) and not all(map(math.isfinite,
                                                        numbers)):
            raise ConfigError(f"numbers must be finite, got {v!r}",
                              line=lines.get(key), key=key)
        if test is not None and not test(v):
            raise ConfigError(f"{key} {need}, got {v!r}",
                              line=lines.get(key), key=key)

    cfg = ScenarioConfig(values=values)
    cfg.laws.update(_scalar_models(cfg, lines))
    _validate_group(values, "initial.u0", _FIELD_KINDS, lines)
    _validate_group(values, "initial.sigma0", _FIELD_KINDS, lines)
    dt, T_end = values["time.dt"], values["time.T_end"]
    try:  # a whole number of steps, before the pulses' rule on the steps
        build_solver_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc), line=lines.get("time.T_end"),
                          key="time.T_end") from exc
    for side in ("boundary.phi_left", "boundary.phi_right"):
        _validate_group(values, side, _SIGNAL_KINDS, lines)
        if values[side] != "pulse":
            continue
        on, off = f"{side}.t_on", f"{side}.t_off"
        t_on, t_off = (_step_time(values[k], dt, T_end) for k in (on, off))
        for key, t in ((on, t_on), (off, t_off)):
            if t is None:
                raise ConfigError(
                    f"{key} = {values[key]!r} is not a step time k*time.dt "
                    f"(time.dt = {dt!r}), so the pulse would switch between "
                    "two steps", line=lines.get(key), key=key)
        if t_off <= t_on:
            raise ConfigError(f"{off} must be greater than {on}",
                              line=lines.get(off, lines.get(on)), key=off)

    for key, value, needs in _NEEDS:
        misfit = [k for k, v in needs.items() if values.get(k) != v]
        if values.get(key) == value and misfit:
            k = misfit[0]
            raise ConfigError(f"{key} = {_format_value(value)} needs "
                              f"{k} = {_format_value(needs[k])}, got "
                              f"{_format_value(values[k])}",
                              line=lines.get(key), key=key)
    box_x, L = values.get("longtime.box.x"), values["mesh.L"]
    if box_x is not None and not (box_x[0] <= 0.0 and box_x[1] >= L):
        raise ConfigError(f"longtime.box.x must cover [0, mesh.L] = "
                          f"[0.0, {L!r}], got {_format_value(box_x)}",
                          line=lines.get("longtime.box.x"),
                          key="longtime.box.x")
    if values["check.lyapunov"] and not has_longtime(cfg):
        raise ConfigError("check.lyapunov = true needs a longtime section",
                          line=lines.get("check.lyapunov"), key="check.lyapunov")
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    raise TypeError(f"cannot serialize {v!r}")


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    return "\n".join(f"{k} = {_format_value(v)}"
                     for k, v in sorted(cfg.values.items())) + "\n"


# ---------------------------------------------------------------------------
# builders


def build_mesh_from(cfg: ScenarioConfig) -> Mesh:
    return build_mesh(cfg["mesh.L"], cfg["mesh.N"])


def _scalar_models(cfg: ScenarioConfig,
                   lines: dict) -> dict[str, ScalarModel]:
    """The six laws; one its group does not define is a ConfigError.

    The error names the line of the group head or, when the head came
    from a preset, the first line at which the file set a parameter of
    the group.
    """
    out = {}
    for role in MODEL_ROLES:
        head = f"model.{role}"
        try:
            name, params = cfg.group(head)
            out[role] = make_scalar_model(name, **params)
        except (ValueError, KeyError, TypeError) as exc:
            line = lines.get(head, min(
                (ln for k, ln in lines.items() if k.startswith(head + ".")),
                default=None))
            raise ConfigError(f"invalid coefficient model for {role}: {exc}",
                              key=head, line=line) from exc
    return out


def build_physical(cfg: ScenarioConfig) -> PhysicalCoefficients:
    m = cfg.laws
    try:
        return physical_from_models(m["D0"], m["E0"], m["M0"],
                                    m["beta0"], m["mu0"], m["nu0"])
    except ValueError as exc:
        raise ConfigError(str(exc), key="model.nu0") from exc


def build_model(cfg: ScenarioConfig) -> TransformedModel:
    return transform(build_physical(cfg))


def _step_time(t: float, dt: float, T_end: float) -> Optional[float]:
    """A pulse's switching time as the run is built with it.

    A t > 0 within the rule ``SolverConfig`` applies to T_end of a step
    time k*dt is k*dt itself, the very float the run steps to, so the
    pulse switches at that step and not one step off.  Any other t in
    (0, T_end) is None: no step would sample the switch.  Any other t
    stays as it is.
    """
    k = grid_steps(t, dt) if t > 0 else None
    if k is not None:
        return k * dt
    return None if 0 < t < T_end else t


def _signal(kind: str, params: dict, dt: float, T_end: float):
    if kind == "zero":
        return lambda t: 0.0
    if kind == "constant":
        v = params["value"]
        return lambda t: v
    if kind == "sinusoid":
        a, w, p = params["amplitude"], params["omega"], params["phase"]
        return lambda t: a * math.sin(w * t + p)
    if kind == "pulse":
        v = params["value"]
        t_on, t_off = (_step_time(params[k], dt, T_end)
                       for k in ("t_on", "t_off"))
        return lambda t: v if t_on < t <= t_off else 0.0
    raise ConfigError(f"unknown boundary signal kind {kind!r}")


def build_boundary(cfg: ScenarioConfig) -> BoundaryData:
    dt, T_end = cfg["time.dt"], cfg["time.T_end"]
    lk, lp = cfg.group("boundary.phi_left")
    rk, rp = cfg.group("boundary.phi_right")
    return BoundaryData(phi_left=_signal(lk, lp, dt, T_end),
                        phi_right=_signal(rk, rp, dt, T_end))


def _field(kind: str, params: dict, mesh: Mesh, column: str) -> np.ndarray:
    x = mesh.nodes
    if kind == "constant":
        return np.full_like(x, params["value"])
    if kind == "cosine":
        return params["mean"] + params["amplitude"] * np.cos(
            params["mode"] * math.pi * x / mesh.L)
    if kind == "step":
        return np.where(x < params["x0"], params["left"], params["right"])
    if kind == "file":
        key = f"initial.{column}0.path"  # the key naming the file
        try:
            data = read_snapshot(params["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc), key=key) from exc
        vals = np.asarray(data[column], dtype=float)
        if vals.shape != x.shape:
            raise ConfigError(
                f"snapshot {params['path']!r} has {vals.size} nodes, "
                f"mesh has {x.size}", key=key)
        return vals
    raise ConfigError(f"unknown field kind {kind!r}")


def build_initial(cfg: ScenarioConfig, mesh: Mesh,
                  phys: PhysicalCoefficients) -> InitialData:
    uk, up = cfg.group("initial.u0")
    sk, sp = cfg.group("initial.sigma0")
    u0 = _field(uk, up, mesh, "u")
    sigma0 = _field(sk, sp, mesh, "sigma")
    return InitialData(u0, sigma0, phys)


def build_solver_config(cfg: ScenarioConfig) -> SolverConfig:
    return SolverConfig(dt=cfg["time.dt"], T_end=cfg["time.T_end"],
                        epsilon=cfg["epsilon"])


def longtime_box(cfg: ScenarioConfig) -> Box:
    def rng(key, default):
        v = cfg.get(key)
        return (v[0], v[1]) if v else default
    return Box(
        t=rng("longtime.box.t", (0.0, cfg["time.T_end"])),
        x=rng("longtime.box.x", (0.0, cfg["mesh.L"])),
        u=rng("longtime.box.u", (0.0, 1.0)),
        s=rng("longtime.box.s", (-1.0, 1.0)),
    )


def has_longtime(cfg: ScenarioConfig) -> bool:
    return any(k.startswith("longtime.") for k in cfg.values)


# ---------------------------------------------------------------------------
# presets


PRESETS: dict[str, str] = {
    # pure Fickian limit: constant diffusivity, decoupled stress, closed
    # boundary; compares against the decaying cosine mode
    "fickian": """
mesh.L = 1.0
mesh.N = 256
time.dt = 1e-4
time.T_end = 0.1
time.output_every = 100
model.D0 = "constant"
model.D0.value = 1.0
model.beta0 = "constant"
model.beta0.value = 1.0
initial.u0 = "cosine"
initial.u0.mean = 0.0
initial.u0.amplitude = 1.0
initial.u0.mode = 1
check.analytic = "heat-cosine"
check.analytic_tol = 5e-3
""",
    # homogenization regime: constant coefficients satisfying the coupled
    # quadratic-form condition, no forcing, closed boundary
    "homogenize": """
mesh.L = 1.0
mesh.N = 64
time.dt = 1e-3
time.T_end = 50.0
time.output_every = 5000
model.D0 = "constant"
model.D0.value = 1.0
model.E0 = "constant"
model.E0.value = 0.1
model.beta0 = "constant"
model.beta0.value = 1.0
model.mu0 = "constant"
model.mu0.value = 0.5
initial.u0 = "cosine"
initial.u0.mean = 0.5
initial.u0.amplitude = 0.3
initial.u0.mode = 1
initial.sigma0 = "constant"
initial.sigma0.value = 0.25
longtime.Gamma = 1.0
longtime.box.t = [0.0, 50.0]
longtime.box.x = [0.0, 1.0]
longtime.box.u = [0.0, 1.0]
longtime.box.s = [0.0, 1.0]
check.lyapunov = true
""",
    # sorption with glass/rubber coefficients: influx pulse, overshoot scan
    "sorption": """
mesh.L = 1.0
mesh.N = 128
time.dt = 5e-4
time.T_end = 4.0
time.output_every = 400
model.D0 = "tanh"
model.D0.lo = 0.1
model.D0.hi = 1.0
model.D0.delta = 0.1
model.D0.center = 0.4
model.E0 = "cohen-e0"
model.E0.alpha_1 = 1.0
model.E0.alpha_2 = 0.05
model.beta0 = "tanh"
model.beta0.beta_G = 0.1
model.beta0.beta_R = 2.0
model.beta0.delta = 0.05
model.beta0.u_RG = 0.4
model.mu0 = "constant"
model.mu0.value = 1.0
model.nu0 = "constant"
model.nu0.value = 0.5
initial.u0 = "constant"
initial.u0.value = 0.01
boundary.phi_left = "pulse"
boundary.phi_left.value = 1.0
boundary.phi_left.t_off = 1.0
signature = "overshoot"
""",
    # desorption: start wet, withdraw penetrant through the left boundary;
    # transitions kept soft so the profile re-equilibrates after the pulse
    "desorption": """
mesh.L = 1.0
mesh.N = 128
time.dt = 5e-4
time.T_end = 6.0
time.output_every = 400
model.D0 = "tanh"
model.D0.lo = 0.1
model.D0.hi = 1.0
model.D0.delta = 0.2
model.D0.center = 0.4
model.E0 = "cohen-e0"
model.E0.alpha_1 = 0.5
model.E0.alpha_2 = 0.05
model.beta0 = "tanh"
model.beta0.beta_G = 0.1
model.beta0.beta_R = 2.0
model.beta0.delta = 0.2
model.beta0.u_RG = 0.4
model.mu0 = "constant"
model.mu0.value = 1.0
model.nu0 = "constant"
model.nu0.value = 0.5
initial.u0 = "constant"
initial.u0.value = 0.9
initial.sigma0 = "constant"
initial.sigma0.value = 0.9
boundary.phi_left = "pulse"
boundary.phi_left.value = -0.25
boundary.phi_left.t_off = 2.0
signature = "undershoot"
""",
    # sharp-front regime: steep diffusivity/relaxation transition, steady
    # influx; front midpoint position fitted linear-in-t vs sqrt-t
    "case2-front": """
mesh.L = 1.0
mesh.N = 256
time.dt = 2e-4
time.T_end = 2.0
time.output_every = 100
model.D0 = "tanh"
model.D0.lo = 0.01
model.D0.hi = 1.0
model.D0.delta = 0.05
model.D0.center = 0.5
model.E0 = "cohen-e0"
model.E0.alpha_1 = 2.0
model.E0.alpha_2 = 0.05
model.beta0 = "tanh"
model.beta0.beta_G = 0.05
model.beta0.beta_R = 10.0
model.beta0.delta = 0.05
model.beta0.u_RG = 0.5
model.mu0 = "constant"
model.mu0.value = 1.0
model.nu0 = "constant"
model.nu0.value = 0.5
initial.u0 = "constant"
initial.u0.value = 0.0
boundary.phi_left = "constant"
boundary.phi_left.value = 0.45
signature = "front"
front.threshold = 0.5
""",
    # base scenario for the regularization-strength scan; starts off the
    # stress equilibrium so the stress transient is dominated by its
    # spatially uniform component
    "eps-scan": """
mesh.L = 1.0
mesh.N = 64
time.dt = 1e-3
time.T_end = 1.0
time.output_every = 100
model.D0 = "tanh"
model.D0.lo = 0.2
model.D0.hi = 1.0
model.D0.delta = 0.1
model.D0.center = 0.5
model.E0 = "cohen-e0"
model.E0.alpha_1 = 1.0
model.E0.alpha_2 = 0.05
model.beta0 = "tanh"
model.beta0.beta_G = 0.5
model.beta0.beta_R = 2.0
model.beta0.delta = 0.1
model.beta0.u_RG = 0.5
model.mu0 = "constant"
model.mu0.value = 0.5
model.nu0 = "constant"
model.nu0.value = 0.1
initial.u0 = "constant"
initial.u0.value = 0.5
boundary.phi_left = "pulse"
boundary.phi_left.value = 0.2
boundary.phi_left.t_off = 0.5
""",
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{sorted(PRESETS)}")
    return parse_config(PRESETS[name])
