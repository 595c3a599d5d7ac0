"""Symmetric eigensolvers.

Every decomposition the package makes goes through LAPACK: ``eigh`` for
eigenvalues and eigenvectors of one matrix or a (..., n, n) stack, and
``eigvalsh_stack`` for the spectra of the sampled ensembles.  ``eigh``
returns descending eigenvalues and orthonormal eigenvector columns whose
first nonzero component is positive.

``eigh_jacobi`` (cyclic Jacobi rotations) keeps the same contract for one
matrix.  It shares no code with LAPACK and serves as the independent
reference the tests compare the production path against; exceeding its
sweep cap is a hard error carrying the offending matrix for reproduction.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_MAX_SWEEPS = 30


class EigenConvergenceError(RuntimeError):
    """Iteration cap exceeded; ``.matrix`` holds the offending input."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message + f"; offending matrix:\n{np.array2string(matrix, precision=17)}")
        self.matrix = matrix


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    """``a`` as floats; rejects a non-square or non-symmetric matrix, or a
    stack holding one."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    at = np.swapaxes(a, -1, -2)
    if not np.array_equal(a, at):
        scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
        if np.any(np.max(np.abs(a - at), axis=(-2, -1)) > 1e-12 * scale):
            raise ValueError("matrix is not symmetric")
    return a


def fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first nonzero component of each column positive, for one
    (n, n) frame or a (..., n, n) stack of them."""
    v = vectors
    tiny = 1e-12
    first = np.argmax(np.abs(v) > tiny * np.max(np.abs(v), axis=-2, keepdims=True), axis=-2)
    signs = np.sign(np.take_along_axis(v, first[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return v * signs


def _sorted_descending(values: np.ndarray, vectors: np.ndarray | None):
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    if vectors is None:
        return values, None
    return values, fix_eigenvector_signs(np.take_along_axis(vectors, order[..., None, :], axis=-1))


# ---------------------------------------------------------------------------
# Cyclic Jacobi
# ---------------------------------------------------------------------------

def _offdiag_idx(n: int):
    return np.triu_indices(n, k=1)


def eigh_jacobi(a: np.ndarray, want_vectors: bool = True,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi diagonalisation of one symmetric matrix."""
    a0 = _check_symmetric(a)
    if a0.ndim != 2:
        raise ValueError("expected a square matrix")
    A = a0.copy()
    n = A.shape[0]
    V = np.eye(n) if want_vectors else None
    if n == 1:
        return _sorted_descending(np.diag(A).copy(), V)

    for sweep in range(max_sweeps):
        off_sum = float(np.sum(np.abs(A[_offdiag_idx(n)])))
        if off_sum == 0.0:
            return _sorted_descending(np.diag(A).copy(), V)
        # gentle threshold for the first sweeps, then rotate on anything
        # that the small-element rule below does not zero outright
        thresh = 0.2 * off_sum / (n * n) if sweep < 3 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                probe = 100.0 * abs(apq)
                if sweep >= 3 and abs(A[p, p]) + probe == abs(A[p, p]) \
                        and abs(A[q, q]) + probe == abs(A[q, q]):
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                if abs(apq) <= thresh:
                    continue
                diff = A[q, q] - A[p, p]
                if abs(diff) + probe == abs(diff):
                    t = apq / diff  # |theta| huge: t = 1/(2 theta)
                else:
                    theta = 0.5 * diff / apq
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # rotate rows/cols p and q
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
                if V is not None:
                    vp = V[:, p].copy()
                    V[:, p] = c * vp - s * V[:, q]
                    V[:, q] = s * vp + c * V[:, q]
    off_sum = float(np.sum(np.abs(A[_offdiag_idx(n)])))
    if off_sum == 0.0:
        return _sorted_descending(np.diag(A).copy(), V)
    raise EigenConvergenceError(
        f"cyclic Jacobi did not converge in {max_sweeps} sweeps (n={n})", a0)


# ---------------------------------------------------------------------------
# LAPACK
# ---------------------------------------------------------------------------

def eigh(a: np.ndarray, want_vectors: bool = True):
    """Descending eigenvalues and, when asked, eigenvector columns of one
    symmetric matrix or of a (..., n, n) stack of them (LAPACK)."""
    a0 = _check_symmetric(a)
    if want_vectors:
        return _sorted_descending(*np.linalg.eigh(a0))
    return _sorted_descending(np.linalg.eigvalsh(a0), None)


def eigvalsh_stack(matrices: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a stack of symmetric matrices (LAPACK)."""
    w = np.linalg.eigvalsh(matrices)
    return w[..., ::-1]
