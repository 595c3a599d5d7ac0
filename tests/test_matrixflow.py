"""Matrix flow assembly, spectra and eigenvalue perturbation identities."""

import numpy as np
import pytest

from eigenflow import diagnostics
from eigenflow.eigensolvers import eigh
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel
from eigenflow.matrixflow import (DegenerateEigenvalueError, assemble_from_triangle,
                                  diagonal_scale, eigenvalue_derivatives, make_shift,
                                  sample_flows, spectra_of_stack)
from eigenflow.sampling import path_sampler
from oracles import eigh_jacobi, hoffman_wielandt_holds


def _flow_with_vectors(n, seed, t_max=1.0, steps=2, kernel=None):
    """Matrices (K+1, n, n) of one sampled flow, their eigenvalues and eigenvectors."""
    kernel = kernel or BrownianKernel()
    grid = TimeGrid.uniform(t_max, steps)
    y = sample_flows(path_sampler(kernel, grid), n, np.zeros((n, n)), seed, [0])[0]
    return (y,) + eigh(y)


class TestAssembly:
    def test_scalar_flow_diagonal_scaling(self):
        x = 0.8312
        y = assemble_from_triangle(np.array([[0.0, x]]), np.zeros((1, 1)), 1)
        assert y[1, 0, 0] == pytest.approx(np.sqrt(2.0) * x, rel=1e-15)

    def test_two_by_two_unit_entries(self):
        # rows (0, 0), (0, 1), (1, 1) in triu_indices order
        y = assemble_from_triangle(np.tile([0.0, 1.0], (3, 1)), np.zeros((2, 2)), 2)
        expected = np.array([[1.0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 1.0]])
        assert np.allclose(y[1], expected, atol=1e-15)

    def test_flow_starts_at_shift(self):
        grid = TimeGrid.uniform(1.0, 3)
        shift = np.diag([5.0, -5.0])
        y = sample_flows(path_sampler(BrownianKernel(), grid), 2, shift, 3, [0, 1])
        assert np.allclose(y[:, 0], shift, atol=0)

    def test_symmetry_exact(self):
        y = sample_flows(path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 4)),
                         7, np.zeros((7, 7)), 11, range(3))
        assert np.array_equal(y, np.swapaxes(y, -1, -2))

    def test_triangle_assembly_matches_loop(self):
        grid = TimeGrid.uniform(1.0, 2)
        n = 4
        gen = np.random.default_rng(0)
        tri = gen.normal(size=(n * (n + 1) // 2, len(grid)))
        shift = np.diag(np.arange(n, dtype=float))
        fast = assemble_from_triangle(tri, shift, n)
        iu, ju = np.triu_indices(n)
        entries = {(int(i), int(j)): tri[k] for k, (i, j) in enumerate(zip(iu, ju))}
        off, diag = diagonal_scale(n)
        slow = np.zeros((len(grid), n, n))
        for (i, j), path in entries.items():
            slow[:, i, j] = slow[:, j, i] = (diag if i == j else off) * path + shift[i, j]
        assert np.allclose(fast, slow, atol=1e-15)

    def test_scales(self):
        off, diag = diagonal_scale(4)
        assert off == pytest.approx(0.5)
        assert diag == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_chunking_does_not_change_samples(self, monkeypatch):
        # ensembles are chunked by diagnostics.ensemble_map, not by sample_flows
        grid = TimeGrid.uniform(1.0, 3)
        kernel = FractionalBrownianKernel(0.6)
        shift = np.zeros((5, 5))
        sampler = path_sampler(kernel, grid)
        whole = spectra_of_stack(sample_flows(sampler, 5, shift, 23, range(7)))
        for budget in (1, 1e12):  # one path per chunk, one chunk for all paths
            monkeypatch.setattr(diagnostics, "CHUNK_BYTES", budget)
            chunked = diagnostics.ensemble_map(sampler, 5, shift, 23, 7, lambda lam: lam)
            assert np.array_equal(chunked, whole)


class TestSpectra:
    def test_sorted_descending_and_trace(self):
        ys, lam, _ = _flow_with_vectors(12, seed=5)
        assert np.all(np.diff(lam, axis=1) <= 1e-12)
        for k in range(len(ys)):
            y = ys[k]
            tol = 1e-9 * 12 * (1.0 + np.max(np.abs(y)))
            assert abs(lam[k].sum() - np.trace(y)) <= tol
            assert abs((lam[k] ** 2).sum() - (y * y).sum()) \
                <= 1e-8 * (1 + (y * y).sum())

    def test_eigenvector_frame_quality(self):
        ys, lam, vec = _flow_with_vectors(10, seed=6)
        for k in range(len(ys)):
            u = vec[k]
            y = ys[k]
            assert np.max(np.abs(u.T @ u - np.eye(10))) <= 1e-9
            recon = u @ np.diag(lam[k]) @ u.T
            assert np.max(np.abs(recon - y)) <= 1e-8 * (1 + np.max(np.abs(y)))

    def test_stack_matches_flow_decomposition(self):
        grid = TimeGrid.uniform(1.0, 3)
        y = sample_flows(path_sampler(BrownianKernel(), grid), 9, np.zeros((9, 9)), 17, range(4))
        lam = spectra_of_stack(y)
        values, _ = eigh(y[2], want_vectors=False)
        # cyclic Jacobi per grid time is the independent reference
        ref = np.array([eigh_jacobi(m, want_vectors=False)[0] for m in y[2]])
        assert np.max(np.abs(lam[2] - ref)) < 1e-10
        assert np.max(np.abs(values - ref)) < 1e-10

    @pytest.mark.parametrize("n", [8, 40])
    def test_stacked_decomposition(self, n):
        grid = TimeGrid.uniform(1.0, 5)
        shift = np.diag(np.linspace(-1.0, 1.0, n))
        y = sample_flows(path_sampler(FractionalBrownianKernel(0.7), grid), n, shift, 41, [0])[0]
        values, vectors = eigh(y)
        assert values.shape == (len(grid), n)
        assert vectors.shape == (len(grid), n, n)
        for k in range(len(grid)):
            u, lam = vectors[k], values[k]
            assert np.all(np.diff(lam) <= 0)
            recon = (u * lam) @ u.T
            assert np.max(np.abs(recon - y[k])) <= 1e-8 * np.max(np.abs(y[k]))
            assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-9
            first = np.argmax(np.abs(u) > 1e-12 * np.max(np.abs(u), axis=0), axis=0)
            assert np.all(u[first, np.arange(n)] > 0)


class TestPerturbationDerivatives:
    def test_gradient_square_sum_is_two(self):
        _, lam, vec = _flow_with_vectors(8, seed=9)
        for i in range(8):
            der = eigenvalue_derivatives(lam[1], vec[1], i)
            assert der.grad_square_sum() == pytest.approx(2.0, abs=1e-10)

    def test_hessian_sum_identity(self):
        _, values, vec = _flow_with_vectors(8, seed=10)
        lam = values[1]
        for i in range(8):
            der = eigenvalue_derivatives(lam, vec[1], i)
            expected = np.sum(2.0 / (lam[i] - np.delete(lam, i)))
            assert der.hess_sum() == pytest.approx(expected, rel=1e-8)

    def test_gradient_matches_finite_differences(self):
        ys, values, vec = _flow_with_vectors(8, seed=11)
        y = ys[1]
        lam = values[1]
        eps = 1e-6
        for i in (0, 3, 7):
            der = eigenvalue_derivatives(lam, vec[1], i)
            for (k, h) in ((0, 1), (2, 2), (4, 7)):
                e = np.zeros((8, 8))
                e[k, h] = 1.0
                e[h, k] = 1.0
                wp = np.linalg.eigvalsh(y + eps * e)[::-1]
                wm = np.linalg.eigvalsh(y - eps * e)[::-1]
                fd = (wp[i] - wm[i]) / (2 * eps)
                # the diagonal free coordinate carries weight sqrt(2) in the matrix
                scale = np.sqrt(2.0) if k == h else 1.0
                assert fd * scale == pytest.approx(der.grad[k, h], rel=1e-4, abs=1e-8)

    def test_hessian_matches_finite_differences(self):
        ys, lam, vec = _flow_with_vectors(6, seed=12)
        y = ys[1]
        eps = 1e-4
        i = 2
        der = eigenvalue_derivatives(lam[1], vec[1], i)
        for (k, h) in ((0, 1), (3, 3)):
            e = np.zeros((6, 6))
            e[k, h] = 1.0
            e[h, k] = 1.0
            wp = np.linalg.eigvalsh(y + eps * e)[::-1][i]
            w0 = np.linalg.eigvalsh(y)[::-1][i]
            wm = np.linalg.eigvalsh(y - eps * e)[::-1][i]
            fd2 = (wp - 2 * w0 + wm) / eps ** 2
            scale = 2.0 if k == h else 1.0
            assert fd2 * scale == pytest.approx(der.hess_diag[k, h], rel=1e-3, abs=1e-6)

    def test_degenerate_gap_is_error(self):
        lam, vec = eigh(np.eye(2))
        with pytest.raises(DegenerateEigenvalueError) as err:
            eigenvalue_derivatives(lam, vec, 0)
        assert err.value.gap < 1e-8


class TestHoffmanWielandt:
    def test_holds_on_sampled_flows(self):
        gen = np.random.default_rng(14)
        grid = TimeGrid.uniform(1.0, 4)
        for trial in range(50):
            n = int(gen.integers(2, 50))
            y = sample_flows(path_sampler(FractionalBrownianKernel(0.4), grid), n,
                             np.zeros((n, n)), int(gen.integers(1 << 30)), [0])[0]
            lam = spectra_of_stack(y)
            k1, k2 = gen.choice(len(grid), size=2, replace=False)
            assert hoffman_wielandt_holds(y[k1], y[k2], lam[k1], lam[k2])


class TestShift:
    def test_zero(self):
        assert np.array_equal(make_shift("zero", 3), np.zeros((3, 3)))

    def test_diag(self):
        s = make_shift("diag:1,2,-3", 3)
        assert np.array_equal(s, np.diag([1.0, 2.0, -3.0]))

    def test_diag_wrong_length(self):
        with pytest.raises(ValueError):
            make_shift("diag:1,2", 3)

    @pytest.mark.parametrize("spec", ["diag:1,x", "diag:", "diag:nan,1", "diag:1,inf"])
    def test_diag_entries_must_be_finite_numbers(self, spec):
        with pytest.raises(ValueError, match="entries must be finite numbers"):
            make_shift(spec, 2)

    def test_file_roundtrip(self, tmp_path):
        m = np.array([[1.0, 0.5], [0.5, 2.0]])
        p = tmp_path / "shift.csv"
        np.savetxt(p, m, delimiter=",")
        assert np.allclose(make_shift(f"file:{p}", 2), m)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_shift("identity", 2)
