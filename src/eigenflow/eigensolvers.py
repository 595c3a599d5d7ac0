"""Symmetric eigensolvers.

Every decomposition the package makes goes through LAPACK: ``eigh`` for
eigenvalues and eigenvectors of one matrix or a (..., n, n) stack, and
``eigvalsh_stack`` for the spectra of the sampled ensembles.  ``eigh``
returns descending eigenvalues and orthonormal eigenvector columns whose
first nonzero component is positive.  The tests check both against an
independent cyclic Jacobi reference that shares no code with LAPACK.
"""

from __future__ import annotations

import numpy as np


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
