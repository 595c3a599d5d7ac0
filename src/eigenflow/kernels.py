"""Covariance kernels R(s,t) for the Gaussian entry processes.

Three kernel families are built in:

* Brownian:            R(s,t) = min(s,t)
* fractional Brownian: R(s,t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2,  H in (0,1)
* tabulated:           bilinear interpolation of a symmetric grid of samples,
                       read from a CSV by ``load_table_kernel``

``config.config_to_kernel`` builds the kernel a configuration names, and
library code constructs the classes directly.

A kernel carries the covariance itself and the exact diagonal increment
R(b,b) - R(a,a); every time integral against d/ds R(s,s) uses the
increment, so none touches the s=0 singularity of rough kernels.

The built-in kernels meet the paper's hypotheses in closed form: dR/ds is
integrable to a power alpha > 1, and R(s,s) - 2R(s,t) + R(t,t) = |t-s|^{2H}.
A table is Lipschitz on its bounded domain, so it meets both with gamma = 1;
the one property it can lack is positive semi-definiteness on the run grid,
for which ``factor_grid`` adds jitter and then raises ``FactorizationError``.

All kernels are immutable and safe to share across workers.
"""

from __future__ import annotations

import numpy as np


class KernelDomainError(ValueError):
    """Evaluation requested outside the kernel's domain."""


class CovarianceKernel:
    """Base class; subclasses implement ``eval`` on nonnegative times."""

    def eval(self, s, t):
        raise NotImplementedError

    def diag(self, t):
        """R(t,t)."""
        return self.eval(t, t)

    def diag_increment(self, a, b):
        """Exact integral of d/ds R(s,s) over [a, b], i.e. R(b,b) - R(a,a).

        Valid as |integral of the rate| whenever R(s,s) is monotone on
        [a, b]; this telescoped form is what every time integral against
        d/ds R(s,s) in this package uses, so divergent rates at s = 0 are
        integrated exactly.
        """
        return self.diag(b) - self.diag(a)

    def gram(self, times: np.ndarray) -> np.ndarray:
        """Matrix [R(t_i, t_j)] on the given times."""
        t = np.asarray(times, dtype=float)
        return self.eval(t[:, None], t[None, :])


class BrownianKernel(CovarianceKernel):
    """R(s,t) = min(s,t)."""

    def eval(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        _check_nonnegative(s, t)
        return np.minimum(s, t)[()]


class FractionalBrownianKernel(CovarianceKernel):
    """R(s,t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 for Hurst index H."""

    def __init__(self, hurst: float):
        if not (0.0 < hurst < 1.0):
            raise ValueError(f"hurst must lie in (0,1), got {hurst}")
        self.hurst = float(hurst)

    def eval(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        _check_nonnegative(s, t)
        h2 = 2.0 * self.hurst
        return (0.5 * (s ** h2 + t ** h2 - np.abs(t - s) ** h2))[()]

    def diag(self, t):
        t = np.asarray(t, dtype=float)
        return (t ** (2.0 * self.hurst))[()]


class TableKernel(CovarianceKernel):
    """Bilinear interpolation of R sampled on a rectangular time grid.

    The table must be symmetric; evaluation is canonicalised to the ordered
    pair so that eval(s,t) and eval(t,s) are bit-identical.  Out-of-domain
    evaluation is an error, never extrapolation.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("table needs at least a 2x2 grid")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("table times and values must be finite numbers")
        if np.any(np.diff(times) <= 0):
            raise ValueError("table times must be strictly increasing")
        if values.shape != (times.size, times.size):
            raise ValueError("table values must be square over the time axis")
        asym = np.max(np.abs(values - values.T))
        scale = max(1.0, float(np.max(np.abs(values))))
        if asym > 1e-10 * scale:
            raise ValueError(f"table is not symmetric (max asymmetry {asym:.3e})")
        self.times = times
        self.values = 0.5 * (values + values.T)

    def _locate(self, x):
        lo, hi = self.times[0], self.times[-1]
        outside = (x < lo) | (x > hi)
        if np.any(outside):
            raise KernelDomainError(
                f"time {float(x[outside].flat[0])} outside tabulated domain [{lo}, {hi}]")
        idx = np.clip(np.searchsorted(self.times, x, side="right") - 1, 0, self.times.size - 2)
        frac = (x - self.times[idx]) / (self.times[idx + 1] - self.times[idx])
        return idx, frac

    def eval(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        _check_nonnegative(s, t)
        ia, fa = self._locate(np.minimum(s, t))
        ib, fb = self._locate(np.maximum(s, t))
        v = self.values
        out = (v[ia, ib] * (1 - fa) * (1 - fb) + v[ia, ib + 1] * (1 - fa) * fb
               + v[ia + 1, ib] * fa * (1 - fb) + v[ia + 1, ib + 1] * fa * fb)
        return out[()]


def _check_nonnegative(s, t):
    if np.any(np.asarray(s) < 0) or np.any(np.asarray(t) < 0):
        raise KernelDomainError("covariance kernels are defined for s, t >= 0")


def load_table_kernel(path: str) -> TableKernel:
    """Load a tabulated kernel from a CSV with header ``s,t,value``."""
    try:
        raw = np.genfromtxt(path, delimiter=",", names=True)
    except IndexError:  # how numpy reads a file with no line at all
        raw = np.empty(0)
    if raw.dtype.names != ("s", "t", "value"):
        raise ValueError("expected CSV header 's,t,value'")
    if not all(np.all(np.isfinite(raw[name])) for name in raw.dtype.names):
        raise ValueError("every table entry must be a finite number")
    s = np.unique(raw["s"])
    t = np.unique(raw["t"])
    if not np.array_equal(s, t):
        raise ValueError("table must sample a square s x t grid")
    vals = np.full((s.size, s.size), np.nan)
    si = np.searchsorted(s, raw["s"])
    ti = np.searchsorted(t, raw["t"])
    _, first = np.unique(si * s.size + ti, return_index=True)
    if first.size < si.size:
        row = np.setdiff1d(np.arange(si.size), first)[0]
        raise ValueError(f"table repeats the pair (s,t) = ({raw['s'][row]}, {raw['t'][row]})")
    vals[si, ti] = raw["value"]
    if np.any(np.isnan(vals)):
        raise ValueError("table grid has missing (s,t) combinations")
    return TableKernel(s, vals)
