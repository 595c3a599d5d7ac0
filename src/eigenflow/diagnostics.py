"""Experiments that confront the simulated spectral flow with its limit.

* ``weak_equation_residual``: the part of the evolution of <mu_t, f> not
  explained by the deterministic drift.  Writing dd(s) for the pairwise
  divided-difference average and S2(s) for the sum of f'' over the
  eigenvalues,

      G = <mu_t, f> - <mu_0, f>
          - 1/2 * int_0^t dd(s) dR(s,s)
          - 1/(2 n^2) * int_0^t S2(s) dR(s,s),

  where both time integrals are trapezoid in the measure factor and exact
  (telescoped, R(b,b) - R(a,a)) in the dR factor, so rough kernels with a
  divergent rate at s=0 are integrated without touching the singularity.
  G is a centered quantity whose second moment must vanish as n grows.
* ``convergence_study``: Kolmogorov distance of empirical spectra to the
  deterministic limit law, the Burgers evolution of ``initial_law``, per
  grid time, with the sup over grid times.
* ``holder_increments``: moment scaling of measure increments in the time
  separation, fitted as a log-log slope.
* ``collision_experiment``: minimum spectral gap statistics of a streamed
  ensemble; ``collision_proximity`` gives them for a spectra block in hand.
* ``dyson_crosscheck``: Brownian-only Euler-Maruyama integration of the
  n-rescaled non-colliding eigenvalue SDE

      d lambda_i = sqrt(2/n) dW_i + (1/n) sum_{j != i} dt / (lambda_i - lambda_j)

  compared against exactly sampled matrix spectra through the Wasserstein-1
  distance of path-averaged sorted spectra, at every step size asked for.
  The matrix side is one ensemble for every step size, and the SDE runs at
  all step sizes advance in one pass over the step index.

Every experiment takes (n, n) shift matrices A; n is the size of each.
``matrixflow.make_shift`` builds A once per run and n, and
``initial_law(A)`` is mu_0, the spectral law of A that every flow starts
at.  ``convergence_study``, ``residual_experiment`` and
``collision_experiment`` take a sequence of shifts and return one result
per shift; ``holder_increments`` and ``dyson_crosscheck`` take one.  Every
Monte Carlo experiment takes the run's one ``sampling.PathSampler``
(kernel, grid and one factor), which the runner builds on the grid the
experiment draws on, and streams its ensemble through
:func:`ensemble_map`: each task of the pool is one tile of whole paths
under ``budget.TILE_BYTES`` (one path on the large runs), which it
samples, diagonalises a block of grid times at a time and reduces,
keeping only the reductions, and the per-path results are placed in path
order, so neither the tile size nor the worker count changes an output.
One draw per tile serves every n: the tile samples the upper triangle of
the largest n once, and each n diagonalises its leading sub-triangle,
which is its own draw bit for bit.  So the results of several n in one
call are those of one call per n, and they share their paths, which
correlates them.  The Dyson SDE
side maps its paths by the same rule in chunks under
``budget.CHUNK_BYTES``, the one reader of that budget, with noise keyed
by (seed, path, step), so its paths are pure functions of (seed, path)
as well; its chunk counts the state of each step size and a step's
pairwise drift, and its base Euler noise is drawn for a block of steps
at a time under the same budget, once for every step size, into one
block buffer held for the whole pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from . import budget, matrixflow, rng
from .kernels import BrownianKernel, CovarianceKernel
from .limitlaw import AtomicMeasure, law_at_time
from .matrixflow import DEGENERATE_GAP, sample_triangle
# unused here: bound for the benchmark's tracer, which wraps both at these names
from .eigensolvers import eigvalsh_stack as spectra_of_stack
from .matrixflow import sample_flows
from .measures import divided_difference_stack, kolmogorov_distance
from .sampling import PathSampler
from .testfunctions import TestFunction

if TYPE_CHECKING:  # for annotations only: the runner builds every grid
    from .grids import TimeGrid


def _map_paths(task: Callable[[range], object], paths: int, row_bytes: float, limit: float,
               mapper=map) -> list:
    """``task`` of each range of paths 0..paths-1 under ``limit`` bytes, in path order."""
    return list(mapper(task, [range(paths)[rows]
                              for rows in budget.row_slices(paths, row_bytes, limit)]))


def ensemble_map(sampler: PathSampler, shifts: Sequence[np.ndarray], seed: int, paths: int,
                 reduce: Callable[[int, np.ndarray], np.ndarray], mapper=map) -> List[np.ndarray]:
    """``reduce(k, spectra)`` of the spectra (P, K+1, n) of paths 0..paths-1 at
    each ``shifts[k]``, tile by tile; one array per shift.

    ``mapper`` (a thread pool's map, say) maps one task over each tile of
    whole paths under ``budget.TILE_BYTES``, a path's row being its triangle
    and its spectra of the largest n.  A task draws the upper triangle of the
    largest n once, through the one factor of ``sampler``, and every shift
    assembles and diagonalises its leading sub-triangle a block of grid
    times at a time (``matrixflow.spectra_of_triangle``) and reduces the
    spectra at once: stream ids carry no n, so that is exactly the draw of
    its own n.  No task holds a whole matrix stack, and only the reductions
    outlive it; each shift's are concatenated along the first axis in path
    order.  Flows are pure functions of (seed, path index) and ``reduce``
    must act on each path on its own, so neither the tile size, ``mapper``
    nor the other shifts change a result.
    """
    sizes = [len(shift) for shift in shifts]
    top = max(sizes)
    ju = matrixflow.triangle(top)[1]
    # triu_indices(top) kept where j < n is triu_indices(n), in its order
    leading = [slice(None) if n == top else np.flatnonzero(ju < n) for n in sizes]

    def task(pid: range) -> list:
        entries = sample_triangle(sampler, top, seed, pid)
        return [reduce(k, matrixflow.spectra_of_triangle(entries, keep, shifts[k]))
                for k, keep in enumerate(leading)]

    tiles = _map_paths(task, paths, len(sampler.grid) * (len(ju) + top) * 8,
                       budget.TILE_BYTES, mapper)
    return [np.concatenate(results) for results in zip(*tiles)]


# ---------------------------------------------------------------------------
# Weak-equation residual
# ---------------------------------------------------------------------------

def weak_equation_residual(lambdas: np.ndarray, kernel: CovarianceKernel,
                           grid: TimeGrid, f: TestFunction) -> np.ndarray:
    """Residual G for each eigenvalue flow in ``lambdas`` (..., K+1, n).

    G is taken at the last grid time; returns the residuals with shape
    ``lambdas.shape[:-2]``.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.shape[-1]

    mu_f = np.mean(f.f(lam), axis=-1)               # (..., K+1)
    dd = divided_difference_stack(lam, f)            # (..., K+1)
    s2 = np.sum(f.d2(lam), axis=-1)                  # (..., K+1)
    integrand = 0.5 * dd + s2 / (2.0 * n ** 2)

    dr = kernel.diag_increment(grid.times[:-1], grid.times[1:])  # (K,)
    pair_mean = 0.5 * (integrand[..., :-1] + integrand[..., 1:])
    drift = np.sum(pair_mean * dr, axis=-1)

    return mu_f[..., -1] - mu_f[..., 0] - drift


@dataclass(frozen=True)
class ResidualReport:
    n: int
    paths: int
    test_function: str
    mean_residual: float
    mean_residual_se: float
    mean_square: float
    mean_square_se: float
    residuals: np.ndarray = field(repr=False)


def residual_experiment(sampler: PathSampler, shifts: Sequence[np.ndarray], f: TestFunction,
                        paths: int, seed: int, mapper=map) -> List[ResidualReport]:
    """Monte Carlo estimate of E[G^2] at the matrix dimension of each shift,
    one report per shift, from one ensemble."""
    residuals = ensemble_map(
        sampler, shifts, seed, paths,
        lambda k, lam: weak_equation_residual(lam, sampler.kernel, sampler.grid, f), mapper)
    reports = []
    for shift, resid in zip(shifts, residuals):
        (mean, se), (square, square_se) = _mean_se(resid), _mean_se(resid ** 2)
        reports.append(ResidualReport(
            n=len(shift), paths=paths, test_function=f.name, mean_residual=float(mean),
            mean_residual_se=float(se), mean_square=float(square),
            mean_square_se=float(square_se), residuals=resid))
    return reports


def _mean_se(x: np.ndarray):
    """The mean over paths, the first axis of ``x``, and its standard error."""
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(len(x))


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Convergence to the limit law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    t: Optional[float]          # None marks the sup-over-grid-times row
    mean_distance: float
    stderr: float
    paths: int


def initial_law(shift: np.ndarray) -> AtomicMeasure:
    """mu_0, the spectral law of the shift matrix that every flow starts at."""
    return AtomicMeasure.from_eigenvalues(np.linalg.eigvalsh(shift))


def convergence_study(sampler: PathSampler, shifts: Sequence[np.ndarray], paths: int,
                      seed: int, mapper=map) -> List[List[ConvergenceRow]]:
    """Mean Kolmogorov distance to the limit law per grid time, at the n of
    each shift: one list of rows per shift, from one ensemble.

    The initial law is the spectral distribution of the shift matrix, so
    the limit at time t is the evolved law with tau = R(t,t); a sup row
    (t = None) reports the uniform-over-grid-times distance per path.
    """
    laws = [[law_at_time(sampler.kernel, initial_law(shift), float(t))
             for t in sampler.grid.times] for shift in shifts]

    def distances(k, lam):
        return np.stack([kolmogorov_distance(lam[:, j], law)
                         for j, law in enumerate(laws[k])], axis=1)

    studies = []
    times = [*map(float, sampler.grid.times), None]
    for shift, dist in zip(shifts, ensemble_map(sampler, shifts, seed, paths, distances, mapper)):
        studies.append([ConvergenceRow(n=len(shift), t=t, mean_distance=float(mean),
                                       stderr=float(se), paths=paths)
                        for t, (mean, se) in zip(times, map(_mean_se, [*dist.T, dist.max(1)]))])
    return studies


# ---------------------------------------------------------------------------
# Hoelder increments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderPair:
    t1: float
    t2: float
    moment: float
    stderr: float


@dataclass(frozen=True)
class HolderReport:
    p: float
    pairs: List[HolderPair]
    slope: Optional[float]      # None when every increment vanishes
    paths: int
    test_function: str


def holder_times(t_base: float, separations: Sequence[float]) -> np.ndarray:
    """The sorted time set {0, t_base, t_base + delta} that holder samples on.

    Raises ``ValueError`` naming each separation whose t_base + delta is
    not a time of its own above t_base (it rounds to t_base, or to the time
    of another separation), which would give a zero-length increment or a
    repeated row.
    """
    later = [t_base + d for d in separations]
    lost = [d for d, t in zip(separations, later) if t <= t_base or later.count(t) > 1]
    if lost:
        raise ValueError(f"t_base = {t_base!r} does not resolve separations "
                         + ", ".join(repr(float(d)) for d in lost)
                         + ": each t_base + delta must be a distinct time above t_base")
    return np.unique(np.concatenate([[0.0, t_base], later]))


def holder_increments(sampler: PathSampler, shift: np.ndarray,
                      f: TestFunction, p: float, t_base: float,
                      separations: Sequence[float], paths: int, seed: int,
                      mapper=map) -> HolderReport:
    """E|<mu_{t2}, f> - <mu_{t1}, f>|^p for pairs (t_base, t_base + delta).

    The fitted log-log slope is meaningful when the separations span at
    least a decade; a constant f yields the degenerate report.  Paths are
    drawn by ``sampler``, whose grid must hold t_base and every
    t_base + delta: ``holder_times(t_base, separations)`` is the least such
    grid.
    """
    seps = np.asarray(sorted(separations), dtype=float)
    base_idx = sampler.grid.index_of(t_base)
    idx = [sampler.grid.index_of(t_base + d) for d in seps]

    def increments(lam):
        mu_f = np.mean(f.f(lam), axis=-1)            # (P, K+1)
        return np.abs(mu_f[:, idx] - mu_f[:, base_idx, None]) ** p

    (incr,) = ensemble_map(sampler, [shift], seed, paths, lambda k, lam: increments(lam), mapper)
    moments, errs = np.array([_mean_se(col) for col in incr.T]).T  # column by column

    pairs = [HolderPair(t1=t_base, t2=float(t_base + d), moment=float(m), stderr=float(e))
             for d, m, e in zip(seps, moments, errs)]
    slope = None
    # a slope is only meaningful when the separations span at least a decade
    if np.all(moments > 0) and seps[-1] / seps[0] >= 10.0 * (1 - 1e-12):
        slope = fit_loglog_slope(seps, moments)
        if math.isnan(slope):
            slope = None
    return HolderReport(p=p, pairs=pairs, slope=slope, paths=paths, test_function=f.name)


# ---------------------------------------------------------------------------
# Collision proximity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionReport:
    n: int
    paths: int
    quantiles: dict
    degenerate_fraction: float


GAP_QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


def _min_gaps(lambdas: np.ndarray) -> np.ndarray:
    """Minimum spectral gap of each spectrum in (..., n); n = 1 gives infinity."""
    lam = np.asarray(lambdas)
    if lam.shape[-1] < 2:
        return np.full(lam.shape[:-1], math.inf)
    return np.min(np.abs(np.diff(lam, axis=-1)), axis=-1)


def _gap_report(gaps: np.ndarray, n: int) -> CollisionReport:
    if n < 2:
        return CollisionReport(n=n, paths=gaps.shape[0],
                               quantiles={q: math.inf for q in GAP_QUANTILES},
                               degenerate_fraction=0.0)
    flat = gaps.reshape(-1)
    qs = {q: float(np.quantile(flat, q)) for q in GAP_QUANTILES}
    return CollisionReport(n=n, paths=gaps.shape[0], quantiles=qs,
                           degenerate_fraction=float(np.mean(flat < DEGENERATE_GAP)))


def collision_proximity(lambdas: np.ndarray) -> CollisionReport:
    """Minimum spectral gap statistics of spectra (P, K+1, n); n = 1 reports infinity."""
    return _gap_report(_min_gaps(lambdas), np.shape(lambdas)[-1])


def collision_experiment(sampler: PathSampler, shifts: Sequence[np.ndarray], paths: int,
                         seed: int, mapper=map) -> List[CollisionReport]:
    """Gap statistics of the (P, K+1) minimum gaps at each shift, one report
    per shift, from one ensemble streamed in path tiles."""
    gaps = ensemble_map(sampler, shifts, seed, paths, lambda k, lam: _min_gaps(lam), mapper)
    return [_gap_report(g, len(shift)) for shift, g in zip(shifts, gaps)]


# ---------------------------------------------------------------------------
# Dyson cross-check (Brownian kernel only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DysonRow:
    n: int
    t: float
    dt: float
    paths: int
    w1_distance: float
    w1_mc_error: float
    forced_sorts: int


@dataclass(frozen=True)
class DysonReport:
    rows: List[DysonRow]        # one per step size, in the order asked for

    @property
    def forced_sorts(self) -> int:
        """Forced sorts of the whole run, over every step size."""
        return sum(r.forced_sorts for r in self.rows)


def _sde_drift(lam: np.ndarray) -> np.ndarray:
    """(1/n) sum_{j != i} 1 / (lambda_i - lambda_j) of an (n, rows) state,
    coincident pairs skipped.

    The sum over j keeps numpy's order along a contiguous length-n axis:
    left to right below n = 8, pairwise from there on, through an
    (n, rows, n) copy.  Runs under the caller's ``np.errstate``: the 1/0 of
    the diagonal and of coincident pairs is zeroed after the division.
    """
    n = len(lam)
    diff = lam[:, None] - lam[None, :]
    inv = 1.0 / diff
    inv[diff == 0.0] = 0.0
    if n < 8:
        return inv.sum(axis=1) / n
    return np.ascontiguousarray(inv.transpose(0, 2, 1)).sum(axis=2) / n


_SDE_MAX_DEPTH = 3
# refined half steps under one Euler step (node 0): node h has children 2h+1, 2h+2
_SDE_NODES = 2 ** (_SDE_MAX_DEPTH + 1) - 2


def _tamed_displacement(drift: np.ndarray, dt: np.ndarray, lam: np.ndarray,
                        d: np.ndarray) -> np.ndarray:
    """Drift displacement bounded by half the local gap.

    ``d`` holds the neighbour differences ``lam[1:] - lam[:-1]`` of the
    (n, rows) state; ``dt`` is (rows,).  The taming factor
    1 / (1 + 2 dt |drift| / gap) tends to one as dt shrinks at a fixed gap,
    so the scheme stays consistent while the repulsion can never overshoot a
    neighbour within one step.
    """
    disp = drift * dt
    big = np.abs(lam).max(axis=0, keepdims=True) + 1.0
    gap_lo = np.concatenate([big, d])
    gap_hi = np.concatenate([d, big])
    gap = np.minimum(np.maximum(gap_lo, 0.0), np.maximum(gap_hi, 0.0))
    tame = np.where(gap > 0.0, 1.0 / (1.0 + 2.0 * np.abs(disp) / np.maximum(gap, 1e-300)), 1.0)
    return disp * tame


def _sde_step(lam: np.ndarray, dt: np.ndarray, noise: np.ndarray, depth: int,
              sorts: np.ndarray, tree: Callable[[np.ndarray], np.ndarray],
              node: int = 0) -> np.ndarray:
    """One Euler-Maruyama step (heap node ``node``) with step-size rejection near collisions.

    The state ``lam`` and ``noise`` are (n, rows): one column per row, so
    the drift, the gaps and the tests all run along the rows.  Column r
    steps by ``dt[r]`` and its forced sorts are added to ``sorts[r]``; so
    rows of runs at different step sizes advance together.  A step is
    rejected and redone as two halves, with keyed noise, when the starting
    state cannot resolve the repulsion at this step size (minimum gap below
    the step-dependent threshold 2 dt max|drift|).  ``tree(stiff)`` gives
    the refinement draw ``below``, (hits, _SDE_NODES, n), and the row of
    ``below`` of each stiff column; node h's noise is gathered from entry
    h - 1 of those rows only when node h steps.
    The criterion depends only on the starting state, so refinement is pure
    step-size adaptivity and does not condition the outcome.  At the
    recursion cap the drift is gap-tamed instead, and the stiffness test is
    skipped.  Crossed proposals are reflected by sorting (exact relabelling
    for coincident starts, counted otherwise).  Runs under the caller's
    ``np.errstate``, as the drift does.
    """
    n = len(lam)
    drift = _sde_drift(lam)
    sigma = math.sqrt(2.0 / n)
    d = lam[1:] - lam[:-1]  # for the gap, the taming and the degenerate test
    gap = d.min(axis=0) if n > 1 else None

    if depth >= _SDE_MAX_DEPTH:
        prop = lam + _tamed_displacement(drift, dt, lam, d) + sigma * np.sqrt(dt) * noise
    else:
        prop = lam + drift * dt + sigma * np.sqrt(dt) * noise
        if n > 1:
            stiff = (2.0 * dt * np.abs(drift).max(axis=0) > gap) & (gap > 0.0)
            if stiff.any():
                sub, sub_dt, sub_sorts = lam[:, stiff], 0.5 * dt[stiff], sorts[stiff]
                below, rows = tree(stiff)
                for child in (2 * node + 1, 2 * node + 2):
                    sub = _sde_step(sub, sub_dt, below[rows, child - 1].T, depth + 1,
                                    sub_sorts, lambda s: (below, rows[s]), child)
                prop[:, stiff] = sub
                sorts[stiff] = sub_sorts

    if n > 1:
        # for doubles, b < a exactly when b - a < 0
        crossed = (prop[1:] < prop[:-1]).any(axis=0)
        if crossed.any():
            degenerate = gap <= 0.0
            sorts += crossed & ~degenerate
            prop[:, crossed] = np.sort(prop[:, crossed], axis=0)
    return prop


def _sde_paths(lam0: np.ndarray, dts: Sequence[float], n_steps: Sequence[int], seed: int,
               pid: range):
    """Sorted final states (len(dts), len(pid), n) and forced-sort counts (len(dts),)
    of SDE paths ``pid``, run d taking ``n_steps[d]`` steps of ``dts[d]``.

    Every (run, path) row, a column of the (n, rows) state, advances in one
    loop over the step index k, and retires when its run has taken its
    steps.  Noise is keyed as laid out in :mod:`eigenflow.rng`, so each path
    is a pure function of (seed, path) and step k of every run draws the
    same noise: the base noise of a block of steps, under
    ``budget.CHUNK_BYTES / 8``, is drawn once for all runs into one
    (steps n, paths) buffer held for the whole pass and read as (steps, n,
    paths), and one refinement-tree draw per step serves every run.
    """
    n, p = lam0.size, len(pid)
    base_ids, tree_ids = rng.stream_id(rng.DOMAIN_SDE, np.array([[0], [1]]), 0, np.asarray(pid))
    # runs by step count, longest first, so the live rows are always a prefix
    order = sorted(range(len(dts)), key=lambda r: -n_steps[r])
    lam = np.repeat(lam0[:, None], len(dts) * p, axis=1)
    dt = np.repeat([dts[r] for r in order], p)
    sorts = np.zeros(len(dts) * p, dtype=np.int64)
    blocks = budget.row_slices(n_steps[order[0]], 64 * n * p, budget.CHUNK_BYTES)
    held = np.empty(((blocks[0].stop if blocks else 0) * n, p))
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in blocks:
            first, steps = block.start, block.stop - block.start
            # drawn through the transpose, so each step's (n, paths) is contiguous
            rng.normals(seed, base_ids, steps * n, start=first * n, out=held[:steps * n].T)
            noise = held[:steps * n].reshape(steps, n, p)
            for step in range(first, first + steps):
                live = p * sum(n_steps[r] > step for r in order)

                def tree(stiff, step=step):
                    # one draw per step covers every refinement of the stiff
                    # rows of every run; the rows of one path share its noise
                    hit = stiff.reshape(-1, p).any(axis=0)
                    below = rng.normals(seed, tree_ids[hit], _SDE_NODES * n,
                                        start=step * _SDE_NODES * n).reshape(-1, _SDE_NODES, n)
                    return below, (np.cumsum(hit) - 1)[np.flatnonzero(stiff) % p]

                lam[:, :live] = _sde_step(lam[:, :live], dt[:live],
                                          np.tile(noise[step - first], live // p),
                                          0, sorts[:live], tree)
    # sorted by every step; a copy, since a mean over a strided view sums in another order
    runs = np.ascontiguousarray(lam.T).reshape(len(dts), p, n)
    counts = sorts.reshape(len(dts), p).sum(axis=1)
    back = np.argsort(order)
    return runs[back], counts[back]


def sde_steps(t_max: float, dt: float) -> int:
    """The number of Euler steps of size dt to t_max; dt > 0 must divide t_max."""
    n_steps = int(round(t_max / dt)) if dt > 0 else 0
    if not math.isclose(n_steps * dt, t_max, rel_tol=1e-9):
        raise ValueError(f"dt = {dt!r} must be positive and divide t_max = {t_max!r}")
    return n_steps


def dyson_crosscheck(sampler: PathSampler, shift: np.ndarray, dts: Sequence[float],
                     paths: int, seed: int, mapper=map) -> DysonReport:
    """Wasserstein-1 distance between SDE and matrix spectra at the last time of
    ``sampler.grid``, one row per step size in ``dts``, in their order.

    ``sampler`` must draw Brownian entries, since the SDE is the free
    Brownian case only; any other kernel raises ``ValueError`` before a
    draw.  Both ensembles start from the spectrum of the shift matrix.
    The matrix side is sampled exactly, once for every row.  The SDE side is
    one Euler-Maruyama pass with non-collision step rejection that advances
    every step size together, so each path draws its noise once.  The matrix
    side is mapped in path tiles and the SDE side in path chunks.  Sorted
    spectra are averaged over paths before the distance; ``w1_mc_error``
    combines the standard errors of the two averages.
    """
    if not isinstance(sampler.kernel, BrownianKernel):
        raise ValueError(f"the Dyson SDE is Brownian, but the sampler draws "
                         f"{type(sampler.kernel).__name__} entries")
    t_max = sampler.grid.t_max
    n_steps = [sde_steps(t_max, dt) for dt in dts]
    (lam_matrix,) = ensemble_map(sampler, [shift], seed, paths,
                                 lambda k, lam: lam[:, -1, ::-1], mapper)  # ascending
    mean_matrix, se_matrix = _mean_se(lam_matrix)

    lam0 = np.linalg.eigvalsh(shift)  # ascending
    n = lam0.size
    # per path and step size: an n-column of the state, its step size and sort
    # count, held for the whole pass, and a step's (n, n) pairwise drift; the
    # base noise block is bounded on its own, and a step draws refinement
    # noise only for its stiff rows, a few of them
    chunks = _map_paths(lambda pid: _sde_paths(lam0, dts, n_steps, seed, pid), paths,
                        len(dts) * (n * n + n + 2) * 8, budget.CHUNK_BYTES, mapper)
    runs = np.concatenate([c[0] for c in chunks], axis=1)  # (len(dts), paths, n)
    sorts = np.sum([c[1] for c in chunks], axis=0)
    rows = []
    for dt, lam, forced in zip(dts, runs, sorts):
        mean_sde, se_sde = _mean_se(lam)
        rows.append(DysonRow(n=n, t=t_max, dt=dt, paths=paths,
                             w1_distance=float(np.mean(np.abs(mean_sde - mean_matrix))),
                             w1_mc_error=float(np.mean(np.sqrt(se_sde ** 2 + se_matrix ** 2))),
                             forced_sorts=int(forced)))
    return DysonReport(rows)
