"""The ctypes LAPACK bindings against scipy's f2py wrappers."""

import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack as f2py

from viscodiff import lapack
from viscodiff.lapack import Banded, Tridiagonal

SOURCES = {"numpy": lapack.from_numpy, "scipy": lapack.from_scipy}
SIZES = [2, 3, 65, 4097]


@pytest.fixture(params=sorted(SOURCES), scope="module")
def lib(request):
    return SOURCES[request.param]()


def _spd_tridiagonal(n):
    rng = np.random.default_rng(n)
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = 2.0 + rng.random(n)  # diagonally dominant, so SPD
    return d, e, rng.standard_normal(n)


def _dominant_bands(n):
    rng = np.random.default_rng(n)
    ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (7, n)))
    ab[4] += 5.0
    return ab, rng.standard_normal(n)


def test_routines_come_from_numpys_openblas():
    # a fallback to scipy's capsules would bring scipy back into every run
    assert lapack.LAPACK.source == "numpy"
    assert lapack.LAPACK.int_type is ctypes.c_int64
    assert lapack.from_scipy().int_type is ctypes.c_int


def test_falls_back_to_scipy_where_numpy_lacks_the_symbols():
    # a numpy whose BLAS exports none of the three names
    code = ("import ctypes\n"
            "class Bare:\n"
            "    def __init__(self, *args, **kwargs): pass\n"
            "    def __getattr__(self, name): raise AttributeError(name)\n"
            "ctypes.CDLL = Bare\n"
            "from viscodiff import lapack\n"
            "print(lapack.LAPACK.source, lapack.LAPACK.int_type.__name__)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["scipy", "c_int"]


@pytest.mark.parametrize("n", SIZES)
def test_tridiagonal_matches_f2py(lib, n):
    d, e, b = _spd_tridiagonal(n)
    d_ref, e_ref, info_ref = f2py.dpttrf(d, e)
    x_ref, _ = f2py.dpttrs(d_ref, e_ref, b)
    system = Tridiagonal(d.copy(), e.copy(), b.copy(), lib)
    assert system.factor() == info_ref == 0
    system.solve()
    for got, want in zip(system.arrays, (d_ref, e_ref, x_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", SIZES)
def test_banded_matches_f2py(lib, n):
    ab, b = _dominant_bands(n)
    lu_ref, piv_ref, x_ref, info_ref = f2py.dgbsv(2, 2, ab, b)
    system = Banded(ab.copy(order="F"), b.copy(), 2, 2, lib)
    assert system.solve() == info_ref == 0
    # f2py shifts LAPACK's pivot indices to start at 0
    for got, want in zip(system.arrays, (lu_ref, x_ref, piv_ref + 1)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, k", [(3, 1), (65, 40), (4097, 4097)])
def test_not_spd_info_names_the_leading_minor(lib, n, k):
    # the index reaches LinearSolveFailure's message unchanged
    d, e, _ = _spd_tridiagonal(n)
    d[k - 1] = -1.0
    d_ref, e_ref, info_ref = f2py.dpttrf(d, e)
    system = Tridiagonal(d.copy(), e.copy(), np.zeros(n), lib)
    assert system.factor() == info_ref == k
    assert np.array_equal(system.arrays[0], d_ref)
    assert np.array_equal(system.arrays[1], e_ref)


def test_singular_band_info(lib):
    ab, b = _dominant_bands(65)
    ab[:, 30] = 0.0  # a zero column
    info_ref = f2py.dgbsv(2, 2, ab, b)[3]
    system = Banded(ab.copy(order="F"), b.copy(), 2, 2, lib)
    assert system.solve() == info_ref > 0


def test_bound_arrays_are_checked():
    with pytest.raises(ValueError):
        Tridiagonal(np.ones(4), np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        Tridiagonal(np.ones(4), np.ones(3), np.ones(4, dtype=np.float32))
    with pytest.raises(ValueError):
        Banded(np.ones((7, 5)), np.ones(5), 2, 2)  # C order
    with pytest.raises(ValueError):
        Banded(np.ones((6, 5), order="F"), np.ones(5), 2, 2)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc")
def test_viscodiff_starts_no_thread_beyond_numpys():
    # one OpenBLAS, so one pool of BLAS threads: importing viscodiff
    # adds no thread to what importing numpy starts
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)

    def threads(module):
        code = (f"import {module}\n"
                "print(next(line.split()[1] for line in "
                "open('/proc/self/status') if line.startswith('Threads:')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        return int(out.stdout)

    assert threads("viscodiff") == threads("numpy")
