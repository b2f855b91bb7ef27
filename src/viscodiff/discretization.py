"""1D P1 finite-element mesh and operator assembly.

All operators are banded (bandwidth <= 2) and assembled in a single
O(N) pass from nodal coefficient values, using per-element averages.
The boundary functional reduces to point evaluation of the influx at
the two end nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "BoundaryData",
    "DiscreteOperators",
    "mesh_operators",
    "build_mesh",
    "assemble_mass",
    "lumped_mass_diagonal",
    "assemble_stiffness",
    "assemble_flux_vector",
    "boundary_functional",
    "neumann_bilaplacian",
    "banded_diagonals",
    "tridiag_matvec",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of [0, L] into N cells (N+1 nodes)."""

    L: float
    N: int
    h: float
    nodes: np.ndarray

    @property
    def boundary(self):
        """End-node indices with outward normal signs."""
        return ((0, -1.0), (self.N, +1.0))

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

    def validate(self, T: float, n_quad: int = 1000) -> None:
        """Check finiteness and square-integrability on [0, T] by quadrature."""
        t = np.linspace(0.0, T, n_quad)
        for name, fn in (("phi_left", self.phi_left), ("phi_right", self.phi_right)):
            vals = np.asarray([float(fn(tt)) for tt in t])
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} is not finite on [0, {T}]")
            if not np.isfinite(np.trapezoid(vals ** 2, t)):
                raise ValueError(f"{name} is not square-integrable on [0, {T}]")


ZERO_INFLUX = BoundaryData(phi_left=lambda t: 0.0, phi_right=lambda t: 0.0)


def _tridiag(main: np.ndarray, off: np.ndarray) -> sp.dia_matrix:
    n = main.size
    data = np.zeros((3, n))
    data[0, :-1] = off       # sub-diagonal, dia_matrix ignores trailing slots
    data[1, :] = main
    data[2, 1:] = off        # super-diagonal
    return sp.dia_matrix((data, [-1, 0, 1]), shape=(n, n))


def mass_diagonals(mesh: Mesh):
    """(main, off) diagonals of the consistent P1 mass matrix."""
    n = mesh.N + 1
    main = np.full(n, 4.0 * mesh.h / 6.0)
    main[0] = main[-1] = 2.0 * mesh.h / 6.0
    off = np.full(n - 1, mesh.h / 6.0)
    return main, off


def assemble_mass(mesh: Mesh) -> sp.dia_matrix:
    """Consistent P1 mass matrix (tridiagonal, SPD, row sums total L)."""
    return _tridiag(*mass_diagonals(mesh))


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


def assemble_stiffness(mesh: Mesh, a: np.ndarray) -> sp.dia_matrix:
    """Tridiagonal matrix of the bilinear form int a * u' * phi'."""
    return _tridiag(*stiffness_diagonals(mesh, a))


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


def neumann_laplacian_lumped(mesh: Mesh) -> sp.dia_matrix:
    """Lumped-mass Neumann Laplacian L_h = M_L^{-1} K(1); zero row sums."""
    main, off = stiffness_diagonals(mesh, np.ones(mesh.N + 1))
    K = _tridiag(main, off)
    ml_inv = 1.0 / lumped_mass_diagonal(mesh)
    return sp.dia_matrix(sp.diags(ml_inv) @ K)


def neumann_bilaplacian(mesh: Mesh) -> sp.dia_matrix:
    """Pentadiagonal regularization operator (I + L_h)^2.

    Constants are fixed points; all eigenvalues are real and >= 1.  The
    operator is self-adjoint and positive definite in the lumped-mass
    inner product (M_L (I+L_h)^2 is a symmetric matrix).
    """
    n = mesh.N + 1
    Lh = neumann_laplacian_lumped(mesh)
    P = (sp.identity(n) + Lh) @ (sp.identity(n) + Lh)
    return sp.dia_matrix(P)


@dataclass(frozen=True)
class DiscreteOperators:
    """Pre-assembled mesh-dependent operators shared across time steps.

    They depend on the mesh only through N and h.  Their arrays are
    read-only, so one instance can be shared by every caller.
    """

    mass: sp.dia_matrix
    mass_main: np.ndarray
    mass_off: np.ndarray
    lumped: np.ndarray
    bilaplacian: sp.dia_matrix
    unit_stiffness_main: np.ndarray
    unit_stiffness_off: np.ndarray

    @classmethod
    def build(cls, mesh: Mesh) -> "DiscreteOperators":
        mm, mo = mass_diagonals(mesh)
        km, ko = stiffness_diagonals(mesh, np.ones(mesh.N + 1))
        ops = cls(
            mass=assemble_mass(mesh),
            mass_main=mm,
            mass_off=mo,
            lumped=lumped_mass_diagonal(mesh),
            bilaplacian=neumann_bilaplacian(mesh),
            unit_stiffness_main=km,
            unit_stiffness_off=ko,
        )
        for arr in (mm, mo, ops.lumped, km, ko, ops.mass.data,
                    ops.mass.offsets, ops.bilaplacian.data,
                    ops.bilaplacian.offsets):
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


def banded_diagonals(mat: sp.spmatrix) -> dict[int, list[float]]:
    """Serialize a banded matrix as {offset: diagonal values} for dumps."""
    dia = sp.dia_matrix(mat)
    n = dia.shape[0]
    out = {}
    for off, row in zip(dia.offsets, dia.data):
        if off >= 0:
            vals = row[off:n]
        else:
            vals = row[: n + off]
        out[int(off)] = [float(v) for v in vals]
    return out
