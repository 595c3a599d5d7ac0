"""Exact joint sampling of Gaussian entry paths on a time grid.

Two exact-in-distribution block samplers are provided.  Each takes an
array of stream ids and returns one path per id:

* ``sample_entry_block`` draws z @ L.T where L is a (jittered) Cholesky
  factor of the Gram matrix [R(t_i, t_j)] (``factor_grid``) and each row of
  z comes from the counter-based stream keyed by (seed, stream id).  Works
  for every kernel and grid.
* ``circulant_fbm_block`` draws fractional Gaussian noise by circulant
  embedding (FFT) and cumulates it into fractional Brownian paths; only for
  uniform grids, same distribution as the Cholesky route.  An embedding
  that is not nonnegative definite raises ``FactorizationError``.  No
  embedding had a negative eigenvalue in a scan of 502 Hurst indices in
  (0, 1) at every step count from 1 to 1024 and at 2047-2049 and 4095-4097.

Every row is a pure function of (seed, stream id), independent of the block
it is drawn in, so one path is a block of one id.  ``upper_triangle_paths``
draws all upper-triangle entries of a batch of matrix realisations.  There
is no discretisation error anywhere: the law on the grid is exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import rng
from .grids import TimeGrid
from .kernels import CovarianceKernel, FractionalBrownianKernel

log = logging.getLogger(__name__)

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


class FactorizationError(RuntimeError):
    """A covariance could not be factored: a Gram matrix even with maximal
    jitter, or a circulant embedding that is not nonnegative definite."""


@dataclass(frozen=True)
class PathFactor:
    """Lower-triangular factor L with L @ L.T equal to the grid Gram matrix."""

    lower: np.ndarray
    jitter_used: float


def factor_grid(kernel: CovarianceKernel, grid: TimeGrid) -> PathFactor:
    """Cholesky-factor the Gram matrix, climbing a jitter ladder if needed.

    Rows and columns of exactly-zero variance (the t=0 node of a process
    started at 0) are zeroed before factoring.  Fails hard, naming the grid,
    once the ladder is exhausted.
    """
    gram = kernel.gram(grid.times)
    k = gram.shape[0]
    active = np.diag(gram) > 0.0
    sub = gram[np.ix_(active, active)]
    scale = max(1.0, float(np.max(np.diag(gram))))
    for jitter in JITTER_LADDER:
        try:
            ls = np.linalg.cholesky(sub + jitter * scale * np.eye(sub.shape[0]))
        except np.linalg.LinAlgError:
            continue
        lower = np.zeros((k, k))
        lower[np.ix_(active, active)] = ls
        recon = np.max(np.abs(lower @ lower.T - gram))
        if recon <= 1e-8 * (1.0 + scale):
            if jitter > 0:
                log.info("gram factorization used jitter %.1e on grid up to t=%g",
                         jitter, grid.t_max)
            return PathFactor(lower=lower, jitter_used=jitter * scale)
    raise FactorizationError(
        f"could not factor the Gram matrix on grid {np.array2string(grid.times, threshold=12)} "
        f"(jitter ladder {JITTER_LADDER} exhausted)")


_GEMM_TILE = 512


def _apply_factor(z: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """z @ lower.T in fixed-size row tiles.

    BLAS picks different (bit-inequivalent) kernels for different matrix
    heights; tiling every call to the same height makes the transform a
    pure function of each input row, so single-path and bulk sampling are
    bit-identical.
    """
    rows = z.shape[0]
    out = np.empty((rows, lower.shape[0]))
    lt = np.ascontiguousarray(lower.T)
    for lo in range(0, rows - rows % _GEMM_TILE, _GEMM_TILE):
        out[lo:lo + _GEMM_TILE] = z[lo:lo + _GEMM_TILE] @ lt
    rem = rows % _GEMM_TILE
    if rem:
        pad = np.zeros((_GEMM_TILE, z.shape[1]))
        pad[:rem] = z[rows - rem:]
        out[rows - rem:] = (pad @ lt)[:rem]
    return out


def sample_entry_block(factor: PathFactor, seed: int, ids: np.ndarray) -> np.ndarray:
    """Paths for a whole block of stream ids at once.

    ``ids`` is any uint64 array of entry stream ids; returns
    ``ids.shape + (K+1,)``.  Each row depends only on (seed, its id), not
    on the block layout.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    z = rng.normals(seed, ids.reshape(-1), factor.lower.shape[0])
    vals = _apply_factor(z, factor.lower)
    return vals.reshape(ids.shape + (factor.lower.shape[0],))


# ---------------------------------------------------------------------------
# Circulant embedding for fractional Brownian motion on uniform grids
# ---------------------------------------------------------------------------

def fgn_autocovariance(hurst: float, lags: np.ndarray) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise."""
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)


def circulant_sqrt_spectrum(hurst: float, n_steps: int) -> np.ndarray:
    """Square root of the circulant embedding eigenvalues.

    Raises ``FactorizationError``, naming the Hurst index and the step
    count, when the embedding is not nonnegative definite.
    """
    rho = fgn_autocovariance(hurst, np.arange(n_steps + 1))
    circ = np.concatenate([rho[:-1], rho[-1:], rho[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    if eigs.min() < -1e-8 * eigs.max():
        raise FactorizationError(
            f"circulant embedding of fractional Gaussian noise with hurst={hurst:g} "
            f"on {n_steps} steps is not nonnegative definite "
            f"(smallest eigenvalue {eigs.min():.3g})")
    return np.sqrt(np.maximum(eigs, 0.0))


def circulant_fbm_block(hurst: float, grid: TimeGrid, seed: int,
                        ids: np.ndarray) -> np.ndarray:
    """Fractional Brownian paths on a uniform grid for a block of stream ids.

    Exact in distribution.  Stream ids should carry the circulant domain
    tag so the two samplers stay on independent streams.
    """
    if not grid.is_uniform():
        raise ValueError("the circulant sampler requires a uniform grid")
    n_steps = len(grid) - 1
    dt = float(grid.deltas[0])
    sqrt_eigs = circulant_sqrt_spectrum(hurst, n_steps)
    m = 2 * n_steps
    ids = np.asarray(ids, dtype=np.uint64)
    shape = ids.shape
    flat = ids.reshape(-1)
    g = rng.normals(seed, flat, 2 * n_steps)

    z = np.empty((flat.size, m), dtype=np.complex128)
    z[:, 0] = g[:, 0]
    z[:, n_steps] = g[:, 1]
    re = g[:, 2::2]
    im = g[:, 3::2]
    z[:, 1:n_steps] = (re + 1j * im) / np.sqrt(2.0)
    z[:, n_steps + 1:] = np.conj(z[:, 1:n_steps][:, ::-1])

    noise = np.fft.ifft(sqrt_eigs[None, :] * z, axis=1).real[:, :n_steps]
    noise *= np.sqrt(m) * dt ** hurst

    paths = np.zeros((flat.size, n_steps + 1))
    np.cumsum(noise, axis=1, out=paths[:, 1:])
    return paths.reshape(shape + (n_steps + 1,))


def upper_triangle_paths(kernel: CovarianceKernel, grid: TimeGrid, n: int,
                         seed: int, paths: Iterable[int],
                         method: str = "cholesky") -> np.ndarray:
    """All upper-triangle entry paths for a batch of matrix realisations.

    Returns shape ``(n_paths, n*(n+1)//2, K+1)`` ordered like
    ``numpy.triu_indices(n)``.
    """
    iu, ju = np.triu_indices(n)
    path_col = np.asarray(list(paths), dtype=np.int64)[:, None]
    if method == "cholesky":
        ids = rng.stream_id(rng.DOMAIN_ENTRY, iu, ju, path_col)
        return sample_entry_block(factor_grid(kernel, grid), seed, ids)
    if method == "circulant":
        if not isinstance(kernel, FractionalBrownianKernel):
            raise ValueError("the circulant sampler only applies to fbm kernels")
        ids = rng.stream_id(rng.DOMAIN_CIRCULANT, iu, ju, path_col)
        return circulant_fbm_block(kernel.hurst, grid, seed, ids)
    raise ValueError(f"unknown sampling method {method!r}")
