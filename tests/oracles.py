"""Independent references the tests check the package against.

None of these is on a run's path; each recomputes a quantity the package
produces by another route:

* ``eigh_jacobi``: cyclic Jacobi diagonalisation of one symmetric matrix,
  with the same contract as ``eigensolvers.eigh`` (descending eigenvalues,
  sign-normalised eigenvector columns) and no LAPACK call.  Exceeding its
  sweep cap is a hard error carrying the offending matrix.
* ``hoffman_wielandt_holds``: the Hoffman-Wielandt inequality between two
  symmetric matrices and their spectra.
* ``burgers_pde_residual``: central differences of ``limit_stieltjes`` put
  into the Burgers equation dF/dtau = F dF/dz.
* ``moment_from_stieltjes``: moments of the limit law by contour
  integration of ``limit_stieltjes``.
* ``sde_drift_rows``: the Dyson SDE drift of a (rows, n) state, summed
  along its contiguous length-n axis in numpy's own order.
"""

from __future__ import annotations

import math

import numpy as np

from eigenflow.eigensolvers import _check_symmetric, _sorted_descending
from eigenflow.limitlaw import AtomicMeasure, limit_stieltjes

JACOBI_MAX_SWEEPS = 30


class EigenConvergenceError(RuntimeError):
    """Iteration cap exceeded; ``.matrix`` holds the offending input."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message + f"; offending matrix:\n{np.array2string(matrix, precision=17)}")
        self.matrix = matrix


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
# Hoffman-Wielandt
# ---------------------------------------------------------------------------

def hoffman_wielandt_holds(y1: np.ndarray, y2: np.ndarray,
                           lam1: np.ndarray, lam2: np.ndarray,
                           slack: float = 1e-9) -> bool:
    """Sum of squared sorted-eigenvalue differences is bounded by the
    squared Frobenius distance of the matrices."""
    lhs = float(np.sum((np.sort(lam1) - np.sort(lam2)) ** 2))
    rhs = float(np.sum((y1 - y2) ** 2))
    return lhs <= rhs * (1.0 + slack) + slack


# ---------------------------------------------------------------------------
# The limit's Cauchy transform
# ---------------------------------------------------------------------------

def burgers_pde_residual(mu0: AtomicMeasure, taus: np.ndarray, zs: np.ndarray,
                         h: float = 1e-4) -> float:
    """max |dF/dtau - F dF/dz| over a (tau, z) grid, by central differences."""
    worst = 0.0
    for tau in np.asarray(taus, dtype=float):
        for z in np.atleast_1d(zs):
            z = complex(z)
            f0 = limit_stieltjes(mu0, tau, z)
            dtau = (limit_stieltjes(mu0, tau + h, z) - limit_stieltjes(mu0, tau - h, z)) / (2 * h)
            dz = (limit_stieltjes(mu0, tau, z + h) - limit_stieltjes(mu0, tau, z - h)) / (2 * h)
            worst = max(worst, abs(dtau - f0 * dz))
    return worst


def moment_from_stieltjes(mu0: AtomicMeasure, tau: float, order: int,
                          radius: float | None = None, nodes: int = 512) -> float:
    """k-th moment of the limit law at tau > 0, from F_tau = ``limit_stieltjes``.

    Contour integral of -z^k F(z)/(2 pi i) over a circle enclosing the
    support [min a_i - 2 sqrt(tau), max a_i + 2 sqrt(tau)], evaluated by the
    trapezoid rule (spectrally accurate for the analytic integrand); the
    lower half-circle uses F(conj z) = conj F(z).
    """
    spread = 2.0 * math.sqrt(tau)
    lo, hi = float(mu0.atoms.min()) - spread, float(mu0.atoms.max()) + spread
    if radius is None:
        radius = max(abs(lo), abs(hi)) + 1.0
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    zs = radius * np.exp(1j * theta)
    total = 0.0 + 0.0j
    for z in zs:
        if z.imag > 0:
            g = limit_stieltjes(mu0, tau, z)
        else:
            g = np.conj(limit_stieltjes(mu0, tau, np.conj(z)))
        total += (z ** order) * g * (1j * z)
    total *= (2.0 * np.pi / nodes)
    return float((-total / (2j * np.pi)).real)


def sde_drift_rows(lam: np.ndarray) -> np.ndarray:
    """(1/n) sum_{j != i} 1 / (lambda_i - lambda_j) for each row of a (rows, n)
    state, coincident pairs skipped (call under ``np.errstate``)."""
    diff = lam[:, :, None] - lam[:, None, :]
    inv = 1.0 / diff
    inv[diff == 0.0] = 0.0
    return inv.sum(axis=2) / lam.shape[-1]
