"""Exact joint sampling of Gaussian entry paths on a time grid.

``path_sampler(kernel, grid, method)`` picks one of two exact-in-distribution
block samplers, checks that it applies and builds its factor once.  The
frozen ``PathSampler`` it returns draws one path per stream id:

* ``cholesky``: ``sample_entry_block`` draws z @ L.T where L is a
  (jittered) Cholesky factor of the Gram matrix [R(t_i, t_j)]
  (``factor_grid``) and each row of z comes from the counter-based stream
  keyed by (seed, stream id).  Works for every kernel and grid.  The
  product overwrites the draw, one ``_GEMM_TILE`` of rows at a time, so
  the block holds one draw and one tile's product.
* ``circulant``: ``circulant_fbm_block`` draws fractional Gaussian noise by
  circulant embedding (FFT) and cumulates it into fractional Brownian
  paths; only for fbm on uniform grids, same distribution as the Cholesky
  route.  It works in ``budget.TILE_BYTES`` row tiles that write into the
  output; a tile draws its normals straight into one complex (rows, 2K)
  buffer, held for the whole block, which is scaled, mirrored and
  Fourier-transformed in place.
  An embedding that is not nonnegative definite raises
  ``FactorizationError``.  No embedding had a negative eigenvalue in a scan
  of 502 Hurst indices in (0, 1) at every step count from 1 to 1024 and at
  2047-2049 and 4095-4097.

Every row is a pure function of (seed, stream id), independent of the block
it is drawn in, so one path is a block of one id.  There is no
discretisation error anywhere: the law on the grid is exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import budget, rng
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
    """z @ lower.T in fixed-size row tiles, written back into ``z``, which is returned.

    BLAS picks different (bit-inequivalent) kernels for different matrix
    heights; tiling every call to the same height makes the transform a
    pure function of each input row, so single-path and bulk sampling are
    bit-identical.  Each tile's product replaces the rows it came from, so
    the transform holds one tile beside the draw, not a second draw.
    """
    rows = z.shape[0]
    lt = np.ascontiguousarray(lower.T)
    for lo in range(0, rows - rows % _GEMM_TILE, _GEMM_TILE):
        z[lo:lo + _GEMM_TILE] = z[lo:lo + _GEMM_TILE] @ lt
    rem = rows % _GEMM_TILE
    if rem:
        pad = np.zeros((_GEMM_TILE, z.shape[1]))
        pad[:rem] = z[rows - rem:]
        z[rows - rem:] = (pad @ lt)[:rem]
    return z


def sample_entry_block(factor: PathFactor, seed: int, ids: np.ndarray) -> np.ndarray:
    """Paths for a whole block of stream ids at once.

    ``ids`` is any uint64 array of entry stream ids; returns
    ``ids.shape + (K+1,)``.  Each row depends only on (seed, its id), not
    on the block layout.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    z = rng.normals(seed, ids.reshape(-1), factor.lower.shape[0])
    return _apply_factor(z, factor.lower).reshape(ids.shape + (factor.lower.shape[0],))


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


def circulant_fbm_block(sqrt_eigs: np.ndarray, hurst: float, dt: float, seed: int,
                        ids: np.ndarray) -> np.ndarray:
    """Fractional Brownian paths on a uniform grid of step ``dt`` for a block
    of stream ids, from the embedding's square-root spectrum ``sqrt_eigs``.

    Exact in distribution.  Stream ids should carry the circulant domain
    tag so the two samplers stay on independent streams.  Normals, FFT and
    cumulative sum run over ``budget.TILE_BYTES`` row tiles (8 bytes an entry)
    and write into the output, so no temporary grows with the block; each
    row is transformed on its own, so the tiling changes no bit.  Every
    tile draws its normals into one complex buffer of the first (largest)
    tile, held for the whole call, and scales, mirrors and
    inverse-transforms it in place.
    """
    m = sqrt_eigs.size
    n_steps = m // 2
    ids = np.asarray(ids, dtype=np.uint64)
    flat = ids.reshape(-1)
    paths = np.zeros((flat.size, n_steps + 1))
    tiles = budget.row_slices(flat.size, 8 * m, budget.TILE_BYTES)
    held = np.empty((tiles[0].stop if tiles else 0, m), dtype=np.complex128)
    for rows in tiles:
        z = held[:rows.stop - rows.start]
        # normals g_0..g_{m-1} land interleaved as (re, im) of columns
        # 0..K-1: g_{2j}, g_{2j+1} are already column j's parts for 0 < j < K
        parts = z.view(np.float64)
        rng.normals(seed, flat[rows], m, out=parts[:, :m])
        parts[:, m] = parts[:, 1]  # g_1 is the real column K
        parts[:, 1] = parts[:, m + 1] = 0.0
        parts[:, 2:m] *= 1.0 / np.sqrt(2.0)  # as complex-by-real division rounds
        np.conjugate(z[:, n_steps - 1:0:-1], out=z[:, n_steps + 1:])

        z *= sqrt_eigs
        noise = np.fft.ifft(z, axis=1, out=z).real[:, :n_steps]
        noise *= np.sqrt(m) * dt ** hurst
        np.cumsum(noise, axis=1, out=paths[rows, 1:])
    return paths.reshape(ids.shape + (n_steps + 1,))


@dataclass(frozen=True)
class PathSampler:
    """Exact entry paths of ``kernel`` on ``grid``, drawn from stream ``domain``
    through one ``factor``: a ``PathFactor`` or the circulant spectrum."""

    kernel: CovarianceKernel
    grid: TimeGrid
    domain: int
    factor: object

    def draw(self, seed: int, ids: np.ndarray) -> np.ndarray:
        """One path per stream id: shape ``ids.shape + (K+1,)``."""
        if isinstance(self.factor, PathFactor):
            return sample_entry_block(self.factor, seed, ids)
        return circulant_fbm_block(self.factor, self.kernel.hurst,
                                   float(self.grid.deltas[0]), seed, ids)


def path_sampler(kernel: CovarianceKernel, grid: TimeGrid,
                 method: str = "cholesky") -> PathSampler:
    """The ``method`` sampler of ``kernel`` on ``grid``; ``ValueError`` where it does not apply.

    ``parse_config`` rejects a name other than cholesky or circulant.
    """
    if method == "cholesky":
        return PathSampler(kernel, grid, rng.DOMAIN_ENTRY, factor_grid(kernel, grid))
    if method != "circulant" or not (isinstance(kernel, FractionalBrownianKernel)
                                     and grid.is_uniform()):
        raise ValueError(f"sampler.method = {method} does not apply: cholesky fits every "
                         "kernel and grid, circulant only kernel.kind = fbm on a uniform grid")
    return PathSampler(kernel, grid, rng.DOMAIN_CIRCULANT,
                       circulant_sqrt_spectrum(kernel.hurst, len(grid) - 1))
