"""Scaled symmetric matrix flows, their spectra and spectral derivatives.

A matrix flow is Y(t) = scaled Gaussian part + deterministic shift A:

    Y_ij(t) = X_ij(t) / sqrt(n) + A_ij          (i < j)
    Y_ii(t) = sqrt(2) X_ii(t) / sqrt(n) + A_ii

built from one Gaussian path per upper-triangle entry.  Every flow takes
its (n, n) shift matrix A; n is its size.  Flows and spectra are plain
arrays: ``sample_triangle`` draws the upper-triangle paths of a batch of
realisations through the run's ``sampling.PathSampler``,
``assemble_from_triangle`` turns them into (..., K+1, n, n) matrix stacks
(``sample_flows`` does both) and ``spectra_of_stack`` returns their
descending eigenvalues (..., K+1, n).  Stream ids carry no n, so the draw
of size n is the leading sub-triangle of the draw of any larger size.
``eigenvalue_derivatives`` produces the first and second derivatives of a
single eigenvalue of one matrix, from the eigenvalues and eigenvectors
``eigensolvers.eigh`` returns, with respect to the free coordinates
``y_{k,h}`` (k <= h) of the scaled Gaussian part, in which the diagonal
coordinate enters the matrix with weight sqrt(2); these feed the gradient
and curvature identities used throughout the diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import eigensolvers, rng, sampling

DEGENERATE_GAP = 1e-8


class DegenerateEigenvalueError(RuntimeError):
    """Requested a derivative at an eigenvalue with a near-zero gap."""

    def __init__(self, index: int, gap: float):
        super().__init__(
            f"eigenvalue {index} has spectral gap {gap:.3e} < {DEGENERATE_GAP}; "
            "derivatives are skipped at degenerate times")
        self.gap = gap


def diagonal_scale(n: int) -> Tuple[float, float]:
    """(off-diagonal, diagonal) multipliers of the Gaussian part."""
    return 1.0 / np.sqrt(n), np.sqrt(2.0) / np.sqrt(n)


def assemble_from_triangle(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Vectorised assembly: ``values`` is (..., n(n+1)/2, K+1) in ``triu_indices``
    order and ``shift`` is (n, n); returns matrices of shape (..., K+1, n, n).

    The entries are scattered into the output, which is then scaled and
    shifted in place, so the only array beside the input is the output.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.ndim != 2 or shift.shape[0] != shift.shape[1]:
        raise ValueError(f"shift must be a square matrix, got shape {shift.shape}")
    n = shift.shape[0]
    iu, ju = np.triu_indices(n)
    off, diag = diagonal_scale(n)
    scale = np.full((n, n), off)
    np.fill_diagonal(scale, diag)
    y = np.empty(values.shape[:-2] + (values.shape[-1], n, n))
    entries = np.moveaxis(values, -1, -2)
    y[..., iu, ju] = entries
    y[..., ju, iu] = entries
    y *= scale
    y += shift
    return y


def sample_triangle(sampler: sampling.PathSampler, n: int, seed: int,
                    paths: Sequence[int]) -> np.ndarray:
    """Upper-triangle entry paths (P, n(n+1)/2, K+1) of size n, in ``triu_indices`` order.

    Entry (i, j) of path p is stream (sampler.domain, i, j, p), a pure
    function of (seed, path index) that does not depend on n.  So the draw
    of a smaller size m is the leading sub-triangle of this one: the
    entries with j < m, which keep ``triu_indices(m)`` order.
    """
    iu, ju = np.triu_indices(n)
    ids = rng.stream_id(sampler.domain, iu, ju, np.asarray(list(paths), dtype=np.int64)[:, None])
    return sampler.draw(seed, ids)


def sample_flows(sampler: sampling.PathSampler, shift: np.ndarray, seed: int,
                 paths: Sequence[int]) -> np.ndarray:
    """Matrix stacks (P, K+1, n, n) for a batch of path indices, n the size of ``shift``.

    ``diagnostics.ensemble_map`` streams whole ensembles, drawing one
    triangle per chunk for every size it is asked for.
    """
    return assemble_from_triangle(sample_triangle(sampler, len(shift), seed, paths), shift)


def spectra_of_stack(matrices: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of (..., n, n) symmetric stacks via LAPACK."""
    return eigensolvers.eigvalsh_stack(matrices)


# ---------------------------------------------------------------------------
# Eigenvalue perturbation quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueDerivatives:
    """First and second derivatives of one eigenvalue in the free
    upper-triangle coordinates (entries with k <= h)."""

    index: int
    grad: np.ndarray        # (n, n), valid on k <= h
    hess_diag: np.ndarray   # (n, n), valid on k <= h

    def grad_square_sum(self) -> float:
        iu = np.triu_indices(self.grad.shape[0])
        return float(np.sum(self.grad[iu] ** 2))

    def hess_sum(self) -> float:
        iu = np.triu_indices(self.hess_diag.shape[0])
        return float(np.sum(self.hess_diag[iu]))


def eigenvalue_derivatives(lam: np.ndarray, vectors: np.ndarray, i: int) -> EigenvalueDerivatives:
    """Derivatives of eigenvalue ``i`` of one matrix with eigenvalues
    ``lam`` (n,) and eigenvector columns ``vectors`` (n, n).

    grad_{k,h} = 2 u_k u_h for k < h and sqrt(2) u_k^2 on the diagonal,
    where u is the i-th eigenvector; hess_diag_{k,h} sums the usual
    second-order perturbation quotients over the other eigenvalues.
    Requires a simple eigenvalue.
    """
    n = lam.size
    if not (0 <= i < n):
        raise IndexError(f"eigenvalue index {i} out of range")
    gaps = lam[i] - np.delete(lam, i)
    if n > 1:
        min_gap = float(np.min(np.abs(gaps)))
        if min_gap < DEGENERATE_GAP:
            raise DegenerateEigenvalueError(i, min_gap)

    u = vectors[:, i]

    grad = 2.0 * np.outer(u, u)
    np.fill_diagonal(grad, np.sqrt(2.0) * u ** 2)

    others = np.delete(np.arange(n), i)
    V = vectors[:, others]                  # (n, n-1)
    inv_gap = 1.0 / (lam[i] - lam[others])  # (n-1,)

    # cross_{k,h,j} = u_k V_{h,j} + u_h V_{k,j}
    cross = u[:, None, None] * V[None, :, :] + u[None, :, None] * V[:, None, :]
    hess = 2.0 * np.einsum("khj,j->kh", cross ** 2, inv_gap)
    diag_terms = 4.0 * np.einsum("kj,j->k", (u[:, None] * V) ** 2, inv_gap)
    np.fill_diagonal(hess, diag_terms)

    return EigenvalueDerivatives(index=i, grad=grad, hess_diag=hess)


# ---------------------------------------------------------------------------
# Shift matrices
# ---------------------------------------------------------------------------

def make_shift(spec: str, n: int, root: str = "") -> np.ndarray:
    """Build the n x n deterministic shift from its configuration string.

    ``zero``, ``diag:<comma separated finite diagonal>`` or ``file:<csv
    path>`` of a finite symmetric matrix, a relative path resolving against
    ``root``.  This is the one parser of the spec; a spec that gives no such
    matrix raises ``ValueError``.
    """
    if spec == "zero":
        return np.zeros((n, n))
    if spec.startswith("diag:"):
        try:
            vals = np.array([float(x) for x in spec[len("diag:"):].split(",")])
        except ValueError:  # an entry that is no number fails the check below
            vals = np.array([np.nan])
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"diag: entries must be finite numbers, got {spec!r}")
        if vals.size != n:
            raise ValueError(f"diagonal shift has {vals.size} entries, expected {n}")
        return np.diag(vals)
    if spec.startswith("file:"):
        a = np.loadtxt(os.path.join(root, spec[len("file:"):]), delimiter=",")
        a = np.atleast_2d(a)
        if a.shape != (n, n):
            raise ValueError(f"shift file has shape {a.shape}, expected ({n},{n})")
        if not np.all(np.isfinite(a)):
            raise ValueError("shift file must hold finite numbers")
        if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
            raise ValueError("shift file must hold a symmetric matrix")
        return 0.5 * (a + a.T)
    raise ValueError(f"expected zero, diag:<csv> or file:<path>, got {spec!r}")

