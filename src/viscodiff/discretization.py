"""1D P1 finite-element mesh and operator assembly.

All operators are banded (bandwidth <= 2) and stored as band arrays:
(main, off) diagonals for the symmetric tridiagonal ones, LAPACK's
(2, 2) band storage for the pentadiagonal regularization.  Each is
assembled in a single O(N) pass from nodal coefficient values, using
per-element averages.
The boundary functional reduces to point evaluation of the influx at
the two end nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Mesh",
    "BoundaryData",
    "DiscreteOperators",
    "mesh_operators",
    "build_mesh",
    "lumped_mass_diagonal",
    "assemble_flux_vector",
    "boundary_functional",
    "tridiag_matvec",
    "band_matvec",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of [0, L] into N cells (N+1 nodes)."""

    L: float
    N: int
    h: float
    nodes: np.ndarray

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_mesh(L: float, N: int) -> Mesh:
    if L <= 0:
        raise ValueError("domain length must be positive")
    if N < 2:
        raise ValueError("need at least 2 cells")
    nodes = np.linspace(0.0, L, N + 1)
    return Mesh(L=float(L), N=int(N), h=float(L) / N, nodes=nodes)


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed influx through the two end points, as functions of time."""

    phi_left: Callable[[float], float]
    phi_right: Callable[[float], float]

    def validate(self, T: float) -> None:
        """Check finiteness and square-integrability on [0, T] by quadrature."""
        t = np.linspace(0.0, T, 1000)
        for name, fn in (("phi_left", self.phi_left), ("phi_right", self.phi_right)):
            vals = np.asarray([float(fn(tt)) for tt in t])
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} is not finite on [0, {T}]")
            if not np.isfinite(np.trapezoid(vals ** 2, t)):
                raise ValueError(f"{name} is not square-integrable on [0, {T}]")


ZERO_INFLUX = BoundaryData(phi_left=lambda t: 0.0, phi_right=lambda t: 0.0)


def mass_diagonals(mesh: Mesh):
    """(main, off) diagonals of the consistent P1 mass matrix."""
    n = mesh.N + 1
    main = np.full(n, 4.0 * mesh.h / 6.0)
    main[0] = main[-1] = 2.0 * mesh.h / 6.0
    off = np.full(n - 1, mesh.h / 6.0)
    return main, off


def lumped_mass_diagonal(mesh: Mesh) -> np.ndarray:
    """Row sums of the mass matrix: h at interior nodes, h/2 at the ends."""
    n = mesh.N + 1
    d = np.full(n, mesh.h)
    d[0] = d[-1] = 0.5 * mesh.h
    return d


def stiffness_diagonals(mesh: Mesh, a: np.ndarray):
    """(main, off) diagonals of the weighted stiffness form.

    The nodal coefficient a is averaged per element; the form
    annihilates constants exactly.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (mesh.N + 1,):
        raise ValueError(f"coefficient field must have {mesh.N + 1} entries")
    abar = 0.5 * (a[:-1] + a[1:]) / mesh.h   # per-element a / h
    main = np.zeros(mesh.N + 1)
    main[:-1] += abar
    main[1:] += abar
    return main, -abar


def assemble_flux_vector(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """Load vector b_i = int wbar * phi_i' with per-element averages of w.

    Entries telescope, so the components always sum to zero.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (mesh.N + 1,):
        raise ValueError(f"field must have {mesh.N + 1} entries")
    wbar = 0.5 * (w[:-1] + w[1:])
    b = np.zeros(mesh.N + 1)
    b[:-1] -= wbar
    b[1:] += wbar
    return b


def boundary_functional(mesh: Mesh, bd: BoundaryData, t: float) -> np.ndarray:
    """Influx functional: point loads at the two boundary nodes."""
    psi = np.zeros(mesh.N + 1)
    psi[0] = float(bd.phi_left(t))
    psi[-1] = float(bd.phi_right(t))
    return psi


def _bilaplacian_bands(lumped: np.ndarray, k_main: np.ndarray,
                       k_off: np.ndarray):
    """Regularization operators (I + L_h)^2 and M_L (I + L_h)^2 as bands.

    L_h = M_L^{-1} K(1) is the lumped-mass Neumann Laplacian, given by
    the lumped mass and the unit stiffness diagonals.  Both matrices are
    returned in dgbsv's (2, 2) band storage: ab[4 - d, j] holds entry
    (j - d, j), and rows 0..1 are the fill space of the LU factors.
    Constants are fixed points of (I + L_h)^2; its eigenvalues are real
    and >= 1, and M_L (I + L_h)^2 is symmetric positive definite.
    """
    n = lumped.size
    ml_inv = 1.0 / lumped
    b0 = 1.0 + ml_inv * k_main      # B = I + L_h: B[i, i]
    bu = ml_inv[:-1] * k_off        # B[i, i+1]
    bl = ml_inv[1:] * k_off         # B[i+1, i]
    # P = B @ B by diagonal, indexed by the smaller of row and column;
    # the main diagonal sums k = i+1, then i, then i-1, the order of
    # scipy's DIA product, which the tests compare against bit for bit
    main = b0 * b0
    main[:-1] += bu * bl
    main[1:] += bl * bu
    diags = {-2: bl[1:] * bl[:-1], -1: bl * b0[:-1] + b0[1:] * bl, 0: main,
             1: b0[:-1] * bu + bu * b0[1:], 2: bu[:-1] * bu[1:]}
    bilap = np.zeros((7, n), order="F")
    lumped_bilap = np.zeros((7, n), order="F")
    for d, vals in diags.items():
        cols = slice(d, None) if d >= 0 else slice(None, n + d)
        rows = slice(None, n - d) if d >= 0 else slice(-d, None)
        bilap[4 - d, cols] = vals
        lumped_bilap[4 - d, cols] = lumped[rows] * vals
    return bilap, lumped_bilap


@dataclass(frozen=True)
class DiscreteOperators:
    """Pre-assembled mesh-dependent operators shared across time steps.

    They depend on the mesh only through N and h.  Tridiagonal matrices
    are held as (main, off) diagonals, the regularization operators
    (I + L_h)^2 and M_L (I + L_h)^2 in (2, 2) band storage.  The arrays
    are read-only, so one instance can be shared by every caller.
    """

    mass_main: np.ndarray
    mass_off: np.ndarray
    lumped: np.ndarray
    unit_stiffness_main: np.ndarray
    unit_stiffness_off: np.ndarray
    bilaplacian: np.ndarray
    lumped_bilaplacian: np.ndarray

    @classmethod
    def build(cls, mesh: Mesh) -> "DiscreteOperators":
        lumped = lumped_mass_diagonal(mesh)
        km, ko = stiffness_diagonals(mesh, np.ones(mesh.N + 1))
        ops = cls(*mass_diagonals(mesh), lumped, km, ko,
                  *_bilaplacian_bands(lumped, km, ko))
        for arr in vars(ops).values():
            arr.flags.writeable = False
        return ops


# one DiscreteOperators per mesh geometry (N, h), built on first use
_OPERATORS: dict[tuple[int, float], DiscreteOperators] = {}


def mesh_operators(mesh: Mesh) -> DiscreteOperators:
    """The shared, read-only operators of the mesh's geometry."""
    key = (mesh.N, mesh.h)
    ops = _OPERATORS.get(key)
    if ops is None:
        ops = _OPERATORS[key] = DiscreteOperators.build(mesh)
    return ops


def tridiag_matvec(main: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix-vector product from diagonal storage."""
    out = main * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a (2, 2) band-stored matrix with v.

    Offsets are summed from -2 up to 2, the order scipy's dia_matvec
    uses.
    """
    n = v.size
    out = np.zeros(n)
    for d in range(-2, 3):
        if d >= 0:
            out[:n - d] += ab[4 - d, d:] * v[d:]
        else:
            out[-d:] += ab[4 - d, :n + d] * v[:n + d]
    return out
