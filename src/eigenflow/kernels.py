"""Covariance kernels R(s,t) for the Gaussian entry processes.

Three kernel families are built in:

* Brownian:            R(s,t) = min(s,t)
* fractional Brownian: R(s,t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2,  H in (0,1)
* tabulated:           bilinear interpolation of a symmetric grid of samples

A kernel carries the covariance itself and the exact diagonal increment
R(b,b) - R(a,a); every time integral against d/ds R(s,s) uses the
increment, so none touches the s=0 singularity of rough kernels.  Two
numerical checkers probe the integrability hypothesis on dR/ds
(``check_h1``) and the Hoelder hypothesis on the increment variance
(``check_h2``); they produce evidence, not proofs.

All kernels are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import TimeGrid


class KernelDomainError(ValueError):
    """Evaluation requested outside the kernel's domain."""


class CovarianceKernel:
    """Base class; subclasses implement ``eval`` on nonnegative times."""

    kind: str = "abstract"

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

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.kind}>"


class BrownianKernel(CovarianceKernel):
    """R(s,t) = min(s,t)."""

    kind = "brownian"

    def eval(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        _check_nonnegative(s, t)
        return np.minimum(s, t)[()]

    def partial_s(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.where(s < t, 1.0, 0.0)[()]


class FractionalBrownianKernel(CovarianceKernel):
    """R(s,t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 for Hurst index H."""

    kind = "fbm"

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

    def partial_s(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        h = self.hurst
        h2 = 2.0 * h
        with np.errstate(divide="ignore", invalid="ignore"):
            term0 = np.where(s > 0, h * s ** (h2 - 1.0), np.inf if h < 0.5 else 0.0)
            d = np.abs(t - s)
            term1 = np.where(d > 0, h * d ** (h2 - 1.0) * np.sign(t - s), 0.0)
        return (term0 + term1)[()]


class TableKernel(CovarianceKernel):
    """Bilinear interpolation of R sampled on a rectangular time grid.

    The table must be symmetric; evaluation is canonicalised to the ordered
    pair so that eval(s,t) and eval(t,s) are bit-identical.  Out-of-domain
    evaluation is an error, never extrapolation.
    """

    kind = "table"

    def __init__(self, times: np.ndarray, values: np.ndarray):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("table needs at least a 2x2 grid")
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

    def _cell(self, s, t):
        """The table cell of (a, b) = (min, max)(s, t): its indices and
        fractions along a and b, and its corner values vij = v[ia + i, ib + j]."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        _check_nonnegative(s, t)
        ia, fa = self._locate(np.minimum(s, t))
        ib, fb = self._locate(np.maximum(s, t))
        v = self.values
        return ia, fa, ib, fb, (v[ia, ib], v[ia, ib + 1], v[ia + 1, ib], v[ia + 1, ib + 1])

    def eval(self, s, t):
        _, fa, _, fb, (v00, v01, v10, v11) = self._cell(s, t)
        out = (v00 * (1 - fa) * (1 - fb) + v01 * (1 - fa) * fb
               + v10 * fa * (1 - fb) + v11 * fa * fb)
        return out[()]

    def partial_s(self, s, t):
        """Exact dR/ds(s,t) of the interpolant, inside the table: the slope
        along a = s where s < t and along b = s otherwise, on the cell
        ``_locate`` picks (the one below the last node)."""
        ia, fa, ib, fb, (v00, v01, v10, v11) = self._cell(s, t)
        h = np.diff(self.times)
        along_a = ((v10 - v00) * (1 - fb) + (v11 - v01) * fb) / h[ia]
        along_b = ((v01 - v00) * (1 - fa) + (v11 - v10) * fa) / h[ib]
        return np.where(np.asarray(s) < np.asarray(t), along_a, along_b)[()]


def _check_nonnegative(s, t):
    if np.any(np.asarray(s) < 0) or np.any(np.asarray(t) < 0):
        raise KernelDomainError("covariance kernels are defined for s, t >= 0")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H2Report:
    kappa_hat: float
    gamma_hat: float
    passed: bool
    n_pairs: int


def check_h2(kernel: CovarianceKernel, grid: TimeGrid) -> H2Report:
    """Fit V(s,t) = R(s,s) - 2R(s,t) + R(t,t) against kappa |t-s|^gamma.

    Least squares on log pairs with separation at least one grid spacing;
    passes when the fitted bound covers every pair up to a 1e-6 slack.
    A degenerate kernel (V identically 0) passes with gamma_hat = inf.
    """
    times = grid.times
    if times.size < 3:
        raise ValueError("check_h2 needs a grid with at least 3 points")
    ti = times[:, None]
    tj = times[None, :]
    v = kernel.diag(times)[:, None] - 2.0 * kernel.gram(times) + kernel.diag(times)[None, :]
    sep = np.abs(tj - ti)
    iu = np.triu_indices(times.size, k=1)
    v = v[iu]
    sep = sep[iu]

    spacing = float(np.min(np.diff(times)))
    fit_mask = (v > 0) & (sep >= spacing * (1 - 1e-12))
    if not np.any(fit_mask):
        return H2Report(kappa_hat=0.0, gamma_hat=math.inf, passed=True, n_pairs=0)

    lx = np.log(sep[fit_mask])
    ly = np.log(v[fit_mask])
    gamma_hat, log_kappa = np.polyfit(lx, ly, 1)
    kappa_hat = float(np.exp(log_kappa))

    bound = kappa_hat * sep ** gamma_hat * (1.0 + 1e-6)
    passed = bool(np.all(v <= bound))
    return H2Report(kappa_hat=kappa_hat, gamma_hat=float(gamma_hat),
                    passed=passed, n_pairs=int(fit_mask.sum()))


@dataclass(frozen=True)
class H1Report:
    sup_integral: float
    passed: bool
    worst_rel_change: float


def check_h1(kernel: CovarianceKernel, grid: TimeGrid, alpha: float) -> H1Report:
    """Estimate sup_t of the integral of |dR/ds(s,t)|^alpha over [0,T].

    Composite midpoint quadrature on meshes geometrically refined toward
    the potentially singular points s = 0 and s = t, at two refinement
    levels; passes when every refined estimate is stable to 1e-3 relative.
    Non-convergence is reported, not raised.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    T = float(grid.times[-1])
    worst = 0.0
    sup_i = 0.0
    for t in grid.times:
        coarse = _h1_integral(kernel, float(t), T, alpha, cells=96)
        fine = _h1_integral(kernel, float(t), T, alpha, cells=192)
        rel = abs(fine - coarse) / max(abs(fine), 1e-300)
        worst = max(worst, rel)
        sup_i = max(sup_i, fine)
    return H1Report(sup_integral=float(sup_i), passed=bool(worst < 1e-3),
                    worst_rel_change=float(worst))


def _graded_mesh(a: float, b: float, cells: int, singular_left: bool) -> np.ndarray:
    """Breakpoints of [a,b], power-graded toward one possibly singular end."""
    u = np.linspace(0.0, 1.0, cells + 1)
    grade = 6.0
    w = u ** grade if singular_left else 1.0 - (1.0 - u) ** grade
    return a + (b - a) * w


def _h1_integral(kernel: CovarianceKernel, t: float, T: float, alpha: float,
                 cells: int) -> float:
    # candidate singular points of |dR/ds(., t)| are s = 0 and s = t;
    # every panel is graded toward exactly one of them
    total = 0.0
    panels = []
    if t > 0:
        panels.append((0.0, 0.5 * min(t, T), True))
        panels.append((0.5 * min(t, T), min(t, T), False))
    if t < T:
        cut = min(2.0 * max(t, 0.0), 0.5 * (t + T)) if t > 0 else 0.5 * T
        if t == 0.0:
            panels.append((0.0, cut, True))
        else:
            panels.append((t, cut, True))
        panels.append((cut, T, True))
    for a, b, singular_left in panels:
        if b <= a:
            continue
        mesh = _graded_mesh(a, b, cells, singular_left)
        mid = 0.5 * (mesh[1:] + mesh[:-1])
        widths = np.diff(mesh)
        vals = np.abs(kernel.partial_s(mid, t)) ** alpha
        total += float(np.sum(vals * widths))
    return total


# ---------------------------------------------------------------------------
# Construction from configuration values
# ---------------------------------------------------------------------------

def make_kernel(kind: str, hurst: Optional[float] = None,
                table_path: Optional[str] = None) -> CovarianceKernel:
    if kind == "brownian":
        return BrownianKernel()
    if kind == "fbm":
        if hurst is None:
            raise ValueError("fbm kernel requires a hurst index")
        return FractionalBrownianKernel(hurst)
    if kind == "table":
        if table_path is None:
            raise ValueError("table kernel requires a table path")
        return load_table_kernel(table_path)
    raise ValueError(f"unknown kernel kind {kind!r}")


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
    vals[si, ti] = raw["value"]
    if np.any(np.isnan(vals)):
        raise ValueError("table grid has missing (s,t) combinations")
    return TableKernel(s, vals)
