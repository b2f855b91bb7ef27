"""Desk-scale 1D simulator for stress-assisted (non-Fickian) polymer diffusion.

The package couples a concentration equation with flux boundary data to
a pointwise relaxation equation for the stress, discretizes both with
P1 finite elements on a uniform mesh, and steps them semi-implicitly.
Monitors track mass balance, energy decay, and regularization
stability; a small CLI drives configured scenarios and presets.
"""

from .coefficients import (
    Box,
    LongTimeCondition,
    PhysicalCoefficients,
    ScalarModel,
    TransformedModel,
    check_assumptions,
    check_longtime_condition,
    constant_model,
    find_gamma,
    make_scalar_model,
    physical_from_models,
    transform,
)
from .config import ScenarioConfig, parse_config, preset_config, serialize_config
from .diagnostics import (
    DiagnosticsRecord,
    homogenization_metric,
    lyapunov_decay_check,
    mass_balance_check,
    record,
)
from .discretization import (
    BoundaryData,
    Mesh,
    boundary_functional,
    build_mesh,
)
from .solver import (
    InitialData,
    RunResult,
    SolverConfig,
    State,
    compute_flux,
    reconstruct_sigma,
    run,
)

__version__ = "0.1.0"
