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

    phi_left: Callable[[np.ndarray], np.ndarray]
    phi_right: Callable[[np.ndarray], np.ndarray]

    def values(self, t: np.ndarray) -> list:
        """[phi_left(t), phi_right(t)] as float64 arrays of t's shape; a
        signal that cannot take an array of times is a ValueError."""
        out = []
        for name in ("phi_left", "phi_right"):
            try:
                v = np.asarray(getattr(self, name)(t), dtype=float)
                out.append(np.broadcast_to(v, t.shape))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name} must map an array of times to "
                                 f"values that broadcast to it: {exc}") from exc
        return out

    def validate(self, T: float) -> None:
        """Check finiteness and square-integrability on [0, T] by quadrature."""
        t = np.linspace(0.0, T, 1000)
        for name, vals in zip(("phi_left", "phi_right"), self.values(t)):
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


def scalar(value: float) -> np.ndarray:
    """value as a 0-d float64 array.

    The step kernel passes its scalars to ufuncs in this form: numpy
    dispatches a ufunc on a 0-d array operand faster than on a Python
    float (about 0.35 against 0.55 us a call on 129 nodes), and the
    float64 arithmetic, so every bit of the result, is the same.  The
    holders of these arrays never write to them.
    """
    return np.array(value, dtype=float)


_ZERO, _HALF = scalar(0.0), scalar(0.5)
_ZERO.flags.writeable = _HALF.flags.writeable = False


def element_means(w: np.ndarray, out=None) -> np.ndarray:
    """Per-element means of nodal values, into out if given."""
    out = np.add(w[:-1], w[1:], out=out)
    return np.multiply(_HALF, out, out=out)


def stiffness_from_means(abar: np.ndarray, main=None, off=None):
    """(main, off) diagonals of the stiffness form from the per-element
    weights abar (the element mean of the coefficient over h), into main
    and off if given.  main[i] is (0.0 + abar[i]) + abar[i-1]: the 0.0
    turns a -0.0 weight into +0.0."""
    if main is None:
        main = np.empty(abar.size + 1)
    main[-1] = 0.0
    np.add(_ZERO, abar, out=main[:-1])
    main[1:] += abar
    return main, np.negative(abar, out=off)


def load_from_means(wbar: np.ndarray, out=None) -> np.ndarray:
    """Load vector b_i = int wbar * phi_i' from per-element means, into
    out if given.  b[i] is (0.0 - wbar[i]) + wbar[i-1].

    Entries telescope, so the components always sum to zero.
    """
    if out is None:
        out = np.empty(wbar.size + 1)
    out[-1] = 0.0
    np.subtract(_ZERO, wbar, out=out[:-1])
    out[1:] += wbar
    return out


def _nodal(mesh: Mesh, w, what: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (mesh.N + 1,):
        raise ValueError(f"{what} must have {mesh.N + 1} entries")
    return w


def stiffness_diagonals(mesh: Mesh, a: np.ndarray):
    """(main, off) diagonals of the weighted stiffness form.

    The nodal coefficient a is averaged per element; the form
    annihilates constants exactly.
    """
    a = _nodal(mesh, a, "coefficient field")
    return stiffness_from_means(element_means(a) / mesh.h)


def assemble_flux_vector(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """Load vector b_i = int wbar * phi_i' with per-element averages of w."""
    return load_from_means(element_means(_nodal(mesh, w, "field")))


def boundary_functional(mesh: Mesh, bd: BoundaryData, t: float) -> np.ndarray:
    """Influx functional: point loads at the two boundary nodes."""
    psi = np.zeros(mesh.N + 1)
    psi[[0, -1]] = bd.values(np.array(t))
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


def pair_bands(main: np.ndarray, off: np.ndarray, copies: int = 2):
    """(main, off) diagonals of copies of a tridiagonal operator on a
    chain of rows, each of n nodes followed by one pad node.

    Two nodal vectors a and b make the chain a, 0.0, b, 0.0 (a state's
    ``State.chain``), and a block of such chains laid end to end is a
    chain of twice as many rows.  Every coupling to a pad is -0.0 and
    every pad holds 0.0, so a coupling adds -0.0 * 0.0 = -0.0 to a
    product entry, which leaves the entry unchanged bit for bit: one
    ``tridiag_matvec`` on the chain equals one call on each row, and the
    rows of a product p on a two-row chain are ``pair_rows(p)``.
    """
    n = main.size
    chain_main = np.zeros((copies, n + 1))
    chain_main[:, :n] = main
    chain_off = np.full((copies, n + 1), -0.0)
    chain_off[:, :n - 1] = off
    return chain_main.reshape(-1), chain_off.reshape(-1)[:-1]


def pair_rows(chain: np.ndarray):
    """Views of the two rows of a chain of 2n + 2 nodes in the layout of
    ``pair_bands`` (a, 0.0, b, 0.0): chain[..., :n] and
    chain[..., n + 1:-1]."""
    n = chain.shape[-1] // 2 - 1
    return chain[..., :n], chain[..., n + 1:-1]


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
        mm, mo = mass_diagonals(mesh)
        km, ko = stiffness_diagonals(mesh, np.ones(mesh.N + 1))
        ops = cls(mm, mo, lumped, km, ko, *_bilaplacian_bands(lumped, km, ko))
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


def tridiag_matvec(main: np.ndarray, off: np.ndarray, v: np.ndarray,
                   out=None, work=None) -> np.ndarray:
    """Symmetric tridiagonal matrix-vector product from diagonal storage.

    The product acts along the last axis, so a 2-D v is a stack of
    vectors, each multiplied as a one-vector call would multiply it.
    It is written into out if given; work, of the shape of
    ``off * v[..., 1:]``, holds the off-diagonal terms if given.
    """
    out = np.multiply(main, v, out=out)
    upper, lower = out[..., :-1], out[..., 1:]
    np.add(upper, np.multiply(off, v[..., 1:], out=work), out=upper)
    np.add(lower, np.multiply(off, v[..., :-1], out=work), out=lower)
    return out
