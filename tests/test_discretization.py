"""Mesh construction and banded operator assembly."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscodiff.discretization import (
    BoundaryData,
    DiscreteOperators,
    Mesh,
    assemble_flux_vector,
    boundary_functional,
    build_mesh,
    lumped_mass_diagonal,
    mass_diagonals,
    mesh_operators,
    pair_bands,
    pair_rows,
    stiffness_diagonals,
    tridiag_matvec,
)


def _dense_tridiag(main, off):
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _mass(mesh):
    return _dense_tridiag(*mass_diagonals(mesh))


def _stiffness(mesh, a):
    return _dense_tridiag(*stiffness_diagonals(mesh, a))


def _dense_bands(ab):
    """Dense matrix of a (2, 2) band array: ab[4 - d, j] is entry (j - d, j)."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(-2, 3):
        j = np.arange(max(d, 0), min(n, n + d))
        A[j - d, j] = ab[4 - d, j]
    return A


def _bilaplacian(mesh):
    return _dense_bands(mesh_operators(mesh).bilaplacian)


class TestMesh:
    def test_nodes_and_h(self):
        mesh = build_mesh(1.0, 4)
        assert np.allclose(mesh.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.h == 0.25

    def test_two_cells(self):
        mesh = build_mesh(2.0, 2)
        assert np.allclose(mesh.nodes, [0, 1, 2])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_mesh(1.0, 1)
        with pytest.raises(ValueError):
            build_mesh(0.0, 4)


class TestMass:
    def test_n2_entries(self):
        mesh = build_mesh(1.0, 2)
        h = 0.5
        M = _mass(mesh)
        expected = np.array([[h / 3, h / 6, 0],
                             [h / 6, 2 * h / 3, h / 6],
                             [0, h / 6, h / 3]])
        assert np.allclose(M, expected, atol=1e-15)

    def test_row_sums_total_L(self):
        for L, N in ((1.0, 7), (2.5, 33)):
            M = _mass(build_mesh(L, N))
            assert abs(M.sum() - L) <= 1e-14 * max(1.0, L)

    def test_symmetric_exact(self):
        M = _mass(build_mesh(1.0, 16))
        assert np.array_equal(M, M.T)

    def test_lumped_is_row_sums(self):
        mesh = build_mesh(1.5, 9)
        M = _mass(mesh)
        assert np.allclose(lumped_mass_diagonal(mesh), M.sum(axis=1),
                           atol=1e-15)


class TestStiffness:
    def test_unit_laplacian_n2(self):
        mesh = build_mesh(1.0, 2)
        K = _stiffness(mesh, np.ones(3))
        expected = (1 / 0.5) * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_constants_in_kernel(self):
        # zero up to one rounding of the diagonal accumulation
        mesh = build_mesh(1.0, 17)
        a = np.linspace(0.5, 2.0, 18)
        K = stiffness_diagonals(mesh, a)
        tol = 1e-15 * (1.0 + np.max(a) / mesh.h)
        assert np.max(np.abs(tridiag_matvec(*K, np.ones(18)))) <= tol

    def test_scaling_linearity(self):
        mesh = build_mesh(1.0, 8)
        K1 = _stiffness(mesh, np.ones(9))
        K3 = _stiffness(mesh, 3.0 * np.ones(9))
        assert np.allclose(K3, 3.0 * K1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            stiffness_diagonals(build_mesh(1.0, 4), np.ones(4))

    def test_positive_semidefinite(self):
        mesh = build_mesh(1.0, 12)
        rng = np.random.default_rng(3)
        K = _stiffness(mesh, rng.uniform(0.1, 2.0, 13))
        eig = np.linalg.eigvalsh(K)
        assert eig.min() >= -1e-12

    def test_coercivity_on_mean_zero(self):
        # second-smallest eigenvalue bounded below for a >= a_min > 0
        mesh = build_mesh(1.0, 32)
        a_min = 0.3
        K = _stiffness(mesh, np.full(33, a_min))
        eig = np.sort(np.linalg.eigvalsh(K))
        # continuous oracle: smallest nonzero eigenvalue of -a_min*Laplacian
        # in the h-weighted discrete form is ~ a_min * pi^2 * h
        assert eig[1] >= 0.5 * a_min * math.pi ** 2 * mesh.h

    @given(arrays(np.float64, 9, elements=st.floats(0.01, 10)))
    @settings(max_examples=50, deadline=None)
    def test_kernel_property(self, a):
        mesh = build_mesh(1.0, 8)
        K = stiffness_diagonals(mesh, a)
        tol = 1e-15 * (1.0 + np.max(a) / mesh.h)
        assert np.max(np.abs(tridiag_matvec(*K, np.ones(9)))) <= tol


class TestFluxVector:
    def test_constant_field(self):
        mesh = build_mesh(1.0, 5)
        b = assemble_flux_vector(mesh, np.full(6, 2.5))
        expected = np.zeros(6)
        expected[0], expected[-1] = -2.5, 2.5
        assert np.allclose(b, expected, atol=1e-15)

    def test_zero_field(self):
        b = assemble_flux_vector(build_mesh(1.0, 4), np.zeros(5))
        assert np.array_equal(b, np.zeros(5))

    def test_linear_field_exact_integral(self):
        # w(x) = x on two cells of h=0.5: b_i = int w * phi_i'
        mesh = build_mesh(1.0, 2)
        b = assemble_flux_vector(mesh, mesh.nodes.copy())
        # hand integration with element midpoint values 0.25 and 0.75
        assert np.allclose(b, [-0.25, -0.5, 0.75], atol=1e-15)

    @given(arrays(np.float64, 7, elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_components_sum_to_zero(self, w):
        b = assemble_flux_vector(build_mesh(1.0, 6), w)
        assert abs(b.sum()) <= 1e-12 * (1 + np.max(np.abs(w)))


class TestBoundaryFunctional:
    def test_point_loads(self):
        mesh = build_mesh(1.0, 4)
        bd = BoundaryData(phi_left=lambda t: 1.0, phi_right=lambda t: 0.0)
        assert np.array_equal(boundary_functional(mesh, bd, 0.0),
                              [1, 0, 0, 0, 0])

    def test_zero(self):
        mesh = build_mesh(1.0, 4)
        bd = BoundaryData(phi_left=lambda t: 0.0, phi_right=lambda t: 0.0)
        assert np.array_equal(boundary_functional(mesh, bd, 1.0), np.zeros(5))

    def test_time_dependence(self):
        mesh = build_mesh(1.0, 3)
        bd = BoundaryData(phi_left=np.sin, phi_right=lambda t: 0.0)
        psi = boundary_functional(mesh, bd, math.pi / 2)
        assert psi[0] == pytest.approx(1.0)
        assert np.all(psi[1:] == 0.0)

    def test_validate_rejects_nonfinite(self):
        bd = BoundaryData(phi_left=lambda t: math.inf, phi_right=lambda t: 0.0)
        with pytest.raises(ValueError):
            bd.validate(1.0)


class TestBilaplacian:
    def test_constants_are_fixed_points(self):
        mesh = build_mesh(1.0, 16)
        c = 3.7 * np.ones(17)
        assert np.allclose(_bilaplacian(mesh) @ c, c, atol=1e-12)

    def test_eigenvalues_at_least_one(self):
        P = _bilaplacian(build_mesh(1.0, 4))
        eig = np.linalg.eigvals(P)
        assert np.max(np.abs(eig.imag)) <= 1e-10
        assert eig.real.min() >= 1.0 - 1e-10

    def test_lowest_nonconstant_eigenvalue(self):
        # continuous Neumann oracle: (1 + (pi/L)^2)^2 via cos(pi x / L)
        mesh = build_mesh(1.0, 64)
        P = _bilaplacian(mesh)
        eig = np.sort(np.linalg.eigvals(P).real)
        target = (1.0 + math.pi ** 2) ** 2
        assert eig[1] == pytest.approx(target, rel=0.05)

    def test_selfadjoint_in_lumped_inner_product(self):
        mesh = build_mesh(1.0, 12)
        P = _bilaplacian(mesh)
        W = np.diag(lumped_mass_diagonal(mesh))
        assert np.allclose(W @ P, (W @ P).T, atol=1e-12)

    def test_laplacian_zero_row_sums(self):
        # L_h = M_L^{-1} K(1), the Laplacian (I + L_h)^2 is built from
        ops = mesh_operators(build_mesh(1.0, 10))
        Lh = _dense_tridiag(ops.unit_stiffness_main,
                            ops.unit_stiffness_off) / ops.lumped[:, None]
        assert np.allclose(Lh @ np.ones(11), 0.0, atol=1e-12)


class TestHelpers:
    def test_tridiag_matvec_matches_dense(self):
        mesh = build_mesh(1.0, 9)
        ops = DiscreteOperators.build(mesh)
        rng = np.random.default_rng(5)
        v = rng.normal(size=10)
        assert np.allclose(tridiag_matvec(ops.mass_main, ops.mass_off, v),
                           _mass(mesh) @ v, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 65, 4097])
    def test_chained_matvec_equals_two_calls(self, n):
        # the chain [a, 0.0, b, 0.0] against the pair_bands chain of
        # [A; B], B written over the second half as the step writes
        # K(E): each row of the one product has the bytes of its own call.
        # Vectors of signed zeros alone make every term a signed zero,
        # so a pad coupling of +0.0 would flip some sums to +0.0.
        rng = np.random.default_rng(n)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                            -1e-310, -3.5, 1e150])

        def draw(size, pool):
            v = rng.normal(0.0, 10.0, size) * 10.0 ** rng.integers(-5, 5, size)
            picks = rng.random(size) < 0.4
            v[picks] = rng.choice(pool, picks.sum())
            return v

        for trial in range(20):
            pool = special if trial % 2 else np.array([0.0, -0.0])
            a, b = (rng.choice(pool, n) for _ in range(2))
            a_main, b_main = draw(n, special), draw(n, special)
            a_off, b_off = draw(n - 1, special), draw(n - 1, special)
            chain_main, chain_off = pair_bands(a_main, a_off)
            chain_main[n + 1:-1], chain_off[n + 1:-1] = b_main, b_off
            chain = np.zeros(2 * n + 2)
            rows = pair_rows(chain)
            rows[0][:], rows[1][:] = a, b
            product = pair_rows(tridiag_matvec(chain_main, chain_off, chain))
            for row, want in zip(product, (tridiag_matvec(a_main, a_off, a),
                                           tridiag_matvec(b_main, b_off, b))):
                assert row.tobytes() == want.tobytes()

    def test_bandwidth_at_most_two(self):
        mesh = build_mesh(1.0, 20)
        ops = mesh_operators(mesh)
        for ab in (ops.bilaplacian, ops.lumped_bilaplacian):
            # the two fill rows and the slots outside the matrix stay zero
            assert not np.any(ab[:2])
            assert not np.any(ab[2, :2]) and not np.any(ab[3, :1])
            assert not np.any(ab[5, -1:]) and not np.any(ab[6, -2:])

    def test_assembly_scales_roughly_linearly(self):
        def best_time(N):
            mesh = build_mesh(1.0, N)
            a = np.ones(N + 1)
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                stiffness_diagonals(mesh, a)
                best = min(best, time.perf_counter() - t0)
            return best

        t_small = best_time(20_000)
        t_big = best_time(40_000)
        # lenient bound: linear assembly should not blow up quadratically
        assert t_big <= 10.0 * t_small + 1e-3


def test_import_loads_no_sparse_matrices():
    # operators are band arrays end to end; scipy.sparse must not come back
    code = "import sys, viscodiff; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_runs_load_no_scipy(tmp_path):
    # LAPACK comes from numpy's own OpenBLAS: a preset run and an
    # eps-scan (the dual-norm solve and the epsilon > 0 band solves)
    # import nothing from scipy
    code = (
        "import pathlib, sys\n"
        "import viscodiff\n"
        "from viscodiff.cli import main\n"
        "d = pathlib.Path(sys.argv[1])\n"
        "for verb, preset in (('run', 'sorption'), ('eps-scan', 'eps-scan')):\n"
        "    cfg = d / (preset + '.cfg')\n"
        "    cfg.write_text(f'preset = \"{preset}\"\\ntime.T_end = 0.01\\n')\n"
        "    print(main([verb, str(cfg), '--out', str(d / preset), '--quiet']))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split("\n")[:3] == ["0", "0", "[]"]
    assert (tmp_path / "eps-scan" / "diagnostics_eps_0p01.csv").exists()
