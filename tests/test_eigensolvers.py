"""One oracle suite for the production solver (LAPACK) and the cyclic
Jacobi reference."""

import numpy as np
import pytest

from eigenflow.eigensolvers import (EigenConvergenceError, eigh, eigh_jacobi,
                                    eigvalsh_stack, fix_eigenvector_signs)

# the production path is LAPACK; Jacobi is the independent reference
SOLVERS = {"jacobi": eigh_jacobi, "lapack": eigh}


def random_symmetric(n, gen, scale=1.0):
    a = gen.normal(size=(n, n)) * scale
    return (a + a.T) / 2


@pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
class TestOracleSuite:
    def test_exchange_matrix(self, solver):
        w, v = solver(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0], atol=1e-14)
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_two_by_two_closed_form(self, solver):
        gen = np.random.default_rng(8)
        worst = 0.0
        for _ in range(1000):
            a, b, c = gen.normal(size=3)
            m = np.array([[a, b], [b, c]])
            w, _ = solver(m)
            mid = (a + c) / 2
            rad = np.hypot((a - c) / 2, b)
            worst = max(worst, abs(w[0] - (mid + rad)), abs(w[1] - (mid - rad)))
        assert worst <= 1e-12

    def test_diagonal_with_degenerate_eigenvalue(self, solver):
        w, v = solver(np.diag([3.0, 2.0, 2.0, 1.0]))
        assert np.allclose(w, [3, 2, 2, 1], atol=1e-13)
        # eigenvector frame is a signed column permutation of the identity
        assert np.allclose(np.abs(v.T @ v), np.eye(4), atol=1e-12)
        assert np.allclose(np.sort(np.abs(v).max(axis=0)), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 16, 33, 64])
    def test_reconstruction_and_orthogonality(self, solver, n):
        gen = np.random.default_rng(n)
        for _ in range(5):
            m = random_symmetric(n, gen)
            w, v = solver(m)
            scale = 1.0 + np.max(np.abs(m))
            assert np.all(np.diff(w) <= 1e-12 * scale)
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
            assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_eigenvalues_match_lapack(self, solver, n):
        gen = np.random.default_rng(100 + n)
        m = random_symmetric(n, gen, scale=3.0)
        w, _ = solver(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(w - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))

    def test_eigenvalues_only(self, solver):
        m = random_symmetric(12, np.random.default_rng(0))
        w, v = solver(m, want_vectors=False)
        assert v is None
        wv, _ = solver(m, want_vectors=True)
        assert np.allclose(w, wv, atol=1e-12)

    def test_rejects_nonsymmetric(self, solver):
        with pytest.raises(ValueError):
            solver(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEngineAgreement:
    @pytest.mark.parametrize("n", [2, 7, 20, 48])
    def test_pairwise_agreement(self, n):
        gen = np.random.default_rng(n + 1)
        m = random_symmetric(n, gen)
        wj, _ = eigh_jacobi(m)
        wl, _ = eigh(m)
        assert np.max(np.abs(wj - wl)) <= 1e-10 * (1 + np.max(np.abs(wl)))


class TestPieces:
    def test_sign_convention(self):
        v = np.array([[-0.6, 0.8], [0.8, 0.6]])
        fixed = fix_eigenvector_signs(v.copy())
        assert fixed[0, 0] > 0
        assert fixed[0, 1] > 0

    def test_eigvalsh_stack_descending(self):
        gen = np.random.default_rng(9)
        stack = np.array([random_symmetric(6, gen) for _ in range(4)])
        w = eigvalsh_stack(stack)
        assert w.shape == (4, 6)
        assert np.all(np.diff(w, axis=1) <= 0)

    def test_jacobi_iteration_cap_raises(self):
        m = random_symmetric(6, np.random.default_rng(13))
        with pytest.raises(EigenConvergenceError) as err:
            eigh_jacobi(m, max_sweeps=0)
        assert err.value.matrix.shape == (6, 6)

    def test_near_degenerate_spectrum(self):
        # clustered eigenvalues through an orthogonal conjugation
        gen = np.random.default_rng(21)
        q, _ = np.linalg.qr(gen.normal(size=(12, 12)))
        lam = np.concatenate([np.full(4, 1.0 + 1e-13), np.full(4, 1.0), gen.normal(size=4)])
        m = (q * lam) @ q.T
        m = (m + m.T) / 2
        for solver in SOLVERS.values():
            w, v = solver(m)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) <= 1e-8 * (1 + np.max(np.abs(m)))


class TestStack:
    def test_stack_matches_single_matrices(self):
        gen = np.random.default_rng(31)
        stack = np.array([random_symmetric(7, gen) for _ in range(5)])
        w, v = eigh(stack)
        assert w.shape == (5, 7) and v.shape == (5, 7, 7)
        for k, m in enumerate(stack):
            wk, vk = eigh(m)
            assert np.allclose(w[k], wk, atol=1e-12)
            assert np.allclose(v[k], vk, atol=1e-10)
        assert np.array_equal(eigh(stack, want_vectors=False)[0], eigvalsh_stack(stack))

    def test_stack_with_one_nonsymmetric_matrix_is_rejected(self):
        gen = np.random.default_rng(32)
        stack = np.array([random_symmetric(4, gen) for _ in range(3)])
        stack[1, 0, 3] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            eigh(stack)
        with pytest.raises(ValueError, match="not symmetric"):
            eigh(stack, want_vectors=False)
