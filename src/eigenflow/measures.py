"""Observables of empirical spectral measures.

An empirical spectral measure is the uniform measure on the eigenvalues of
one matrix, held as a plain ``(..., n)`` array of spectra; every function
here acts on the last axis and broadcasts over the others.  The pairwise
divided-difference form is built from the i < j pairs alone, in row tiles of
``budget.TILE_BYTES``, so its temporaries stay cache-sized.
"""

from __future__ import annotations

import numpy as np

from . import budget
from .limitlaw import AtomicMeasure
from .matrixflow import triangle
from .testfunctions import TestFunction


def divided_difference_stack(lambdas: np.ndarray, f: TestFunction) -> np.ndarray:
    """Double average of (f'(x) - f'(y)) / (x - y) over the atom pairs of
    each eigenvalue vector; ``lambdas`` is (..., n), the result drops the
    last axis.

    Near-coincident pairs (|x - y| <= 1e-6 (1 + |x| + |y|)) use
    f''((x+y)/2), which is also the exact diagonal convention.  The pair
    quotient is symmetric, so only the pairs i < j are formed: the mean is
    (sum_i f''(x_i) + 2 sum_{i<j} q_ij) / n^2, with f'' evaluated on the
    near-coincident pairs alone.  Spectra are taken in row tiles, 8 bytes a
    pair under ``budget.TILE_BYTES``, and each row is reduced on its own, so
    a block gives its rows' values bit for bit.
    """
    x = np.asarray(lambdas, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, n)
    iu, ju = triangle(n, 1)
    out = np.empty(x.shape[0])
    for rows in budget.row_slices(x.shape[0], 8 * max(iu.size, 1), budget.TILE_BYTES):
        xt = x[rows]
        d1 = f.d1(xt)
        xi, xj = np.take(xt, iu, axis=1), np.take(xt, ju, axis=1)
        diff = xi - xj
        near = np.abs(diff) <= 1e-6 * (1.0 + np.abs(xi) + np.abs(xj))
        diff[near] = 1.0  # a finite divisor; these quotients are replaced by f'' below
        q = np.take(d1, iu, axis=1)
        q -= np.take(d1, ju, axis=1)
        q /= diff
        q[near] = f.d2(0.5 * (xi[near] + xj[near]))
        out[rows] = (np.sum(f.d2(xt), axis=-1) + 2.0 * np.sum(q, axis=-1)) / n ** 2
    return out.reshape(lead)[()]


def kolmogorov_distance(spectra: np.ndarray, law) -> np.ndarray:
    """sup |F_emp - F_law| for each spectrum in ``spectra`` (..., n); the
    result drops the last axis.

    Exact against a continuous law (the sup is attained at an atom,
    approached from one side or the other), with one ``law.cdf`` call on
    the whole block.  An ``AtomicMeasure`` (the limit law at tau = 0) is
    compared at the atoms of both measures, where both right-continuous
    CDFs jump.
    """
    lam = np.sort(np.asarray(spectra, dtype=float), axis=-1)
    n = lam.shape[-1]
    if not isinstance(law, AtomicMeasure):
        fl = np.asarray(law.cdf(lam), dtype=float)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        return np.max(np.maximum(np.abs(fl - upper), np.abs(fl - lower)), axis=-1)[()]
    xs = np.concatenate([lam, np.broadcast_to(law.atoms, lam.shape[:-1] + law.atoms.shape)],
                        axis=-1)
    f_emp = np.count_nonzero(lam[..., None, :] <= xs[..., :, None], axis=-1) / n
    return np.max(np.abs(f_emp - law.cdf(xs)), axis=-1)[()]
