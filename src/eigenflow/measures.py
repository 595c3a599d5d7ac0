"""Observables of empirical spectral measures.

An empirical spectral measure is the uniform measure on the eigenvalues of
one matrix, held as a plain ``(..., n)`` array of spectra; every function
here acts on the last axis and broadcasts over the others.
"""

from __future__ import annotations

import numpy as np

from .limitlaw import AtomicMeasure
from .testfunctions import TestFunction


def divided_difference_stack(lambdas: np.ndarray, f: TestFunction) -> np.ndarray:
    """Double average of (f'(x) - f'(y)) / (x - y) over the atom pairs of
    each eigenvalue vector; ``lambdas`` is (..., n), the result drops the
    last axis.

    Near-coincident pairs (|x - y| below a relative threshold) use
    f''((x+y)/2), which is also the exact diagonal convention.
    """
    x = np.asarray(lambdas, dtype=float)
    d1 = f.d1(x)
    diff = x[..., :, None] - x[..., None, :]
    switch = 1e-6 * (1.0 + np.abs(x)[..., :, None] + np.abs(x)[..., None, :])
    far = np.abs(diff) > switch
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (d1[..., :, None] - d1[..., None, :]) / diff
    mid = f.d2(0.5 * (x[..., :, None] + x[..., None, :]))
    vals = np.where(far, quot, mid)
    return vals.mean(axis=(-2, -1))


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
