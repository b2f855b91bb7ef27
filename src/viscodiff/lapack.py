"""The three LAPACK routines of the step, called through ctypes.

``dpttrf`` and ``dpttrs`` factor and solve a symmetric positive definite
tridiagonal system, and ``dgbsv`` solves a general band system (Anderson
et al., LAPACK Users' Guide, 3rd ed., SIAM 1999).  They are taken from
the OpenBLAS that numpy has already loaded: numpy's build exports its
LAPACK as ``scipy_<name>_64_``, with 64-bit integers, and dlsym on
numpy's extension module searches the libraries that module depends on.
So a run loads no second BLAS and no scipy.  Where numpy's BLAS lacks
the symbols, the routines come from the capsules of scipy's
``cython_lapack``, with 32-bit integers.  Both sources give C functions
that take every argument by reference; the integer type is the only
difference, and it is a field of ``Lapack``.

A system binds its arrays once (``Tridiagonal``, ``Banded``): the
pointers and the by-reference integers are built when it is made, and
each routine is bound to them with ``functools.partial``, so a call
passes prebuilt arguments, reads no ``ndarray.ctypes`` and runs no
Python frame of its own.  The arrays must stay in place for as long as
the system is used; it holds a reference to each.
"""

from __future__ import annotations

import ctypes
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Lapack", "from_numpy", "from_scipy", "LAPACK", "Tridiagonal",
           "Banded"]

_NAMES = ("dpttrf", "dpttrs", "dgbsv")
# The C type of each routine: no result, and every argument a pointer.
# No argtypes are declared: every argument is made once per system as a
# ctypes pointer (``byref`` or ``c_void_p``), which ctypes passes as it
# is, while declared argtypes would convert each argument on every call
# (about 0.45 us more per dpttrs call).  The arrays are checked for
# dtype, order and length before their pointers are taken.
_ROUTINE = ctypes.CFUNCTYPE(None)


class Lapack(NamedTuple):
    """The three routines and the integer type they take."""

    dpttrf: Callable[..., None]
    dpttrs: Callable[..., None]
    dgbsv: Callable[..., None]
    int_type: type
    source: str  # "numpy" or "scipy"


def _bind(addresses, int_type: type, source: str) -> Lapack:
    return Lapack(*map(_ROUTINE, addresses), int_type, source)


def from_numpy() -> Lapack:
    """The routines in numpy's OpenBLAS; AttributeError where it lacks them."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    return _bind([ctypes.cast(getattr(lib, f"scipy_{name}_64_"),
                              ctypes.c_void_p).value for name in _NAMES],
                 ctypes.c_int64, "numpy")


def from_scipy() -> Lapack:
    """The routines in scipy's ``cython_lapack``, which imports scipy."""
    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    capsules = [cython_lapack.__pyx_capi__[name] for name in _NAMES]
    return _bind([pointer(c, name_of(c)) for c in capsules], ctypes.c_int,
                 "scipy")


try:
    LAPACK = from_numpy()
except (ImportError, AttributeError, OSError):
    LAPACK = from_scipy()


def _pointer(a: np.ndarray, order: str = "C") -> ctypes.c_void_p:
    if a.dtype != np.float64 or not a.flags[f"{order}_CONTIGUOUS"]:
        raise ValueError(f"expected a {order}-contiguous float64 array")
    return ctypes.c_void_p(a.ctypes.data)


class Tridiagonal:
    """The SPD tridiagonal matrix with diagonal ``d`` and off-diagonal
    ``e``, and the right-hand side ``b``.

    ``factor`` overwrites d and e with dpttrf's factors; ``solve()``
    then overwrites b with the solution (dpttrs), which is what dptsv
    does.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray, b: np.ndarray,
                 lapack: Lapack = LAPACK):
        n = len(d)
        if d.shape != (n,) or e.shape != (max(n - 1, 0),) or b.shape != (n,):
            raise ValueError("d, e and b must have n, n - 1 and n entries")
        self.arrays = d, e, b
        integer = lapack.int_type
        self.info = integer()
        n_, one = ctypes.byref(integer(n)), ctypes.byref(integer(1))
        info = ctypes.byref(self.info)
        d_, e_, b_ = _pointer(d), _pointer(e), _pointer(b)
        self._dpttrf = partial(lapack.dpttrf, n_, d_, e_, info)
        self.solve = partial(lapack.dpttrs, n_, one, d_, e_, b_, n_, info)

    def factor(self) -> int:
        """dpttrf's info: 0, or k > 0 when the leading minor of order k
        is not positive definite."""
        self._dpttrf()
        return self.info.value


class Banded:
    """The band matrix ``ab`` with ``kl`` sub- and ``ku`` super-diagonals,
    and the right-hand side ``b``.

    ``ab`` is in the storage dgbsv takes: Fortran order, 2*kl + ku + 1
    rows, of which the first kl are fill space and row kl + ku holds the
    diagonal.  ``solve`` overwrites ab with its LU factors and b with the
    solution, and returns dgbsv's info: 0, or k > 0 when U(k, k) is an
    exact zero.
    """

    def __init__(self, ab: np.ndarray, b: np.ndarray, kl: int, ku: int,
                 lapack: Lapack = LAPACK):
        n = len(b)
        if ab.shape != (2 * kl + ku + 1, n) or b.shape != (n,):
            raise ValueError("ab must have 2*kl + ku + 1 rows and n columns")
        integer = lapack.int_type
        self.ab = ab
        self.ipiv = np.empty(n, dtype=integer)
        self.arrays = ab, b, self.ipiv
        self.info = integer()
        n_ = ctypes.byref(integer(n))
        self._dgbsv = partial(
            lapack.dgbsv, n_, ctypes.byref(integer(kl)),
            ctypes.byref(integer(ku)), ctypes.byref(integer(1)),
            _pointer(ab, "F"), ctypes.byref(integer(ab.shape[0])),
            ctypes.c_void_p(self.ipiv.ctypes.data), _pointer(b), n_,
            ctypes.byref(self.info))

    def solve(self) -> int:
        self._dgbsv()
        return self.info.value
