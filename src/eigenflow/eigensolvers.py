"""Symmetric eigensolvers.

Every decomposition the package makes goes through LAPACK: ``eigh`` for
eigenvalues and eigenvectors of one matrix or a (..., n, n) stack, and
``eigvalsh_stack`` for the spectra of the sampled ensembles.  ``eigh``
returns descending eigenvalues and orthonormal eigenvector columns whose
first nonzero component is positive.  The tests check both against an
independent cyclic Jacobi reference that shares no code with LAPACK.
LAPACK's ``eigh`` and ``eigvalsh`` routines need not agree to the last bit,
so every spectrum of a run comes from ``eigvalsh_stack``.

``one_blas_thread`` holds every OpenBLAS the process has loaded at one
thread inside its block, so that a pool of k workers, each calling LAPACK,
keeps k cores busy rather than k times OpenBLAS's own thread count.
``np.linalg.eigvalsh`` releases the GIL only when one call holds more than
``GIL_EIGENVALUES`` = 500 eigenvalues (matrices times n): two threads ran 4
matrices of n = 100 at 1.08x the serial rate and 6 at 1.41x, 12 of n = 32
at 0.99x and 16 at 2.2x.  So the pool runs in parallel only while each
call keeps a stack of that size; a task that diagonalises one large matrix
per call serialises it.  ``matrixflow.spectra_of_triangle`` cuts its time
blocks no smaller.
"""

from __future__ import annotations

import contextlib

import numpy as np

GIL_EIGENVALUES = 500
# thread-count setters in the order they are tried; each has a ``_get_`` twin
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


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


def _sorted_descending(values: np.ndarray, vectors: np.ndarray):
    order = np.argsort(-values, axis=-1, kind="stable")
    return (np.take_along_axis(values, order, axis=-1),
            fix_eigenvector_signs(np.take_along_axis(vectors, order[..., None, :], axis=-1)))


def eigh(a: np.ndarray):
    """Descending eigenvalues and eigenvector columns of one symmetric
    matrix or of a (..., n, n) stack of them (LAPACK)."""
    return _sorted_descending(*np.linalg.eigh(_check_symmetric(a)))


def eigvalsh_stack(matrices: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a stack of symmetric matrices (LAPACK)."""
    w = np.linalg.eigvalsh(matrices)
    return w[..., ::-1]


def _openblas_controls():
    """(path, setter, getter) of each OpenBLAS mapped into this process that
    exports a thread-count setter; empty where none is found (no
    ``/proc/self/maps``, or a BLAS other than OpenBLAS).  A process that
    imported scipy maps two, and their names do not say which one numpy
    calls, so every one is returned."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            getter = name.replace("_set_", "_get_")
            if hasattr(lib, name) and hasattr(lib, getter):
                controls.append((path, getattr(lib, name), getattr(lib, getter)))
                break
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block and put the caller's
    count back on the way out, also when the block raises.  Yields the
    paths of the libraries held; the block runs unchanged where the list
    is empty."""
    controls = _openblas_controls()
    saved = [(setter, getter()) for _, setter, getter in controls]
    for setter, _ in saved:
        setter(1)
    try:
        yield [path for path, *_ in controls]
    finally:
        for setter, count in saved:
            setter(count)
