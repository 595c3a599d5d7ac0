"""Experiment orchestration: dispatch, worker pool, CSV and manifest output.

``READS`` names the optional sampler, observables and experiment keys each
subcommand reads; a run rejects any other key of those sections that is
set away from its default, so no setting is silently ignored.  The shift
matrix of each ``matrix.n`` is built once, by ``matrixflow.make_shift``,
before anything is sampled, and every experiment takes that matrix.  So is
the one ``sampling.path_sampler`` of every subcommand but ``limit``, on the
grid it draws on: the config grid, ``holder``'s ``holder_times`` or
``dyson``'s [0, t_max].  Its one factor serves every n and chunk, and
``dyson`` samples one matrix ensemble for both ``dt`` and ``dt/2``; a
method that does not apply exits 1.  There is no loop over n: ``converge``,
``residual`` and ``collisions`` make one experiment call with the shifts of
every n, which draws each chunk's paths once for all of them.

Every output CSV starts with a ``#``-prefixed JSON comment embedding the
subcommand, the master seed and the full resolved configuration, followed
by a header row.  Floats are written with ``repr`` (shortest round-trip),
and a field holding a comma, such as a test function's name, is quoted the
way ``csv`` quotes it.  Every run maps its chunks through one thread pool of
``threads`` workers (at least one); chunk results are placed by index and
reduced in a fixed order, so a run is a pure function of (canonical config,
seed) regardless of the thread count.  That pool is the run's only level of
parallelism: for the whole run, OpenBLAS is held at one thread
(``eigensolvers.one_blas_thread``) and the caller's count is put back
afterwards, so ``threads`` workers keep ``threads`` cores busy instead of
each LAPACK call starting threads of its own.  Every table is checked
before any file is written, and the output directory is made only then, so
a run that fails its input checks leaves nothing behind; a non-finite value
where a healthy run has none is a ``NumericalFailure``.  The manifest records the
canonical config, the thread counts, the environment and the working
directory, against which a relative ``table_path`` or ``file:`` shift path
resolves; the canonical text keeps such a path as written, and a replay
(``root``) resolves it against the recorded directory, from any directory.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List

import numpy as np

from . import __version__, diagnostics, sampling
from .config import ExperimentConfig, config_to_grid, config_to_kernel
from .eigensolvers import one_blas_thread
from .grids import TimeGrid
from .kernels import BrownianKernel, KernelDomainError
from .limitlaw import AtomicMeasure, law_at_time, limit_stieltjes
from .matrixflow import make_shift
from .testfunctions import by_name

READS = {
    "converge": ("sampler.method", "experiment.m"),
    "residual": ("sampler.method", "experiment.m", "observables.test_functions"),
    "holder": ("experiment.m", "experiment.p", "experiment.t_base", "experiment.separations",
               "observables.test_functions"),
    "collisions": ("sampler.method", "experiment.m"),
    "dyson": ("experiment.m", "experiment.dt"),
    "limit": ("observables.z_points", "experiment.x_min", "experiment.x_max",
              "experiment.x_points"),
}
SUBCOMMANDS = tuple(READS)
MANIFEST_NAME = "run_manifest.json"

log = logging.getLogger(__name__)


class RunUsageError(ValueError):
    """The configuration cannot drive the requested subcommand."""


class NumericalFailure(ArithmeticError):
    """The run produced a non-finite number where a healthy run has none."""


def _fmt(v) -> str:
    if v is None:
        return "sup"
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _header_comment(cfg: ExperimentConfig, subcommand: str) -> str:
    blob = {"subcommand": subcommand, "seed": cfg.sampler_seed,
            "config": cfg.canonical_text()}
    return "# " + json.dumps(blob, sort_keys=True)


def _write_csv(path: Path, cfg: ExperimentConfig, subcommand: str,
               header: str, rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_header_comment(cfg, subcommand) + "\n")
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)


def run(cfg: ExperimentConfig, subcommand: str, out_dir: str | None = None,
        threads: int = 1, root: str = "") -> List[str]:
    """Execute a subcommand; returns the list of files written.  A relative
    input path resolves against ``root``, the working directory by default."""
    if subcommand not in SUBCOMMANDS:
        raise RunUsageError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    for name, default in cfg.away_from_default(("sampler", "observables", "experiment")).items():
        if name not in READS[subcommand]:
            raise RunUsageError(f"{subcommand} does not read {name}; "
                                f"leave it at its default {default}")
    if out_dir is not None:
        cfg = replace(cfg, output_directory=str(out_dir))
    out = Path(cfg.output_directory)

    started = time.perf_counter()
    threads = max(1, threads)
    with one_blas_thread() as blas_libraries:
        if blas_libraries:
            log.info("BLAS held at 1 thread for the run: %s",
                     ", ".join(Path(p).name for p in blas_libraries))
        else:
            log.info("no OpenBLAS thread control found; BLAS threads left as they are")
        with ThreadPoolExecutor(max_workers=threads) as pool:
            written = _dispatch(cfg, subcommand, out, pool.map, root)

    manifest = {
        "subcommand": subcommand,
        "seed": cfg.sampler_seed,
        "canonical_config": cfg.canonical_text(),
        "threads": threads,
        "blas_threads": 1 if blas_libraries else None,
        "outputs": [str(p) for p in written],
        "working_directory": os.path.abspath(root),
        "wall_time_s": time.perf_counter() - started,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "eigenflow": __version__,
        },
    }
    manifest_path = out / MANIFEST_NAME
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [str(p) for p in written] + [str(manifest_path)]


def _dispatch(cfg: ExperimentConfig, subcommand: str, out: Path, mapper,
              root: str) -> List[Path]:
    try:  # a table kernel reads and checks its file here
        kernel = config_to_kernel(cfg, root)
    except ValueError as exc:
        raise RunUsageError(f"kernel.table_path = {cfg.kernel_table_path}: {exc}") from None
    grid = config_to_grid(cfg)
    if subcommand in ("holder", "dyson", "limit") and len(cfg.matrix_n) > 1:
        raise RunUsageError(f"{subcommand} runs one matrix dimension; "
                            f"matrix.n lists {len(cfg.matrix_n)}")
    shifts, problems = {}, []
    for n in cfg.matrix_n:
        try:
            shifts[n] = make_shift(cfg.matrix_shift, n, root)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:  # a problem that does not depend on n is named once
        raise RunUsageError("matrix.shift: " + "; ".join(dict.fromkeys(problems)))
    if subcommand == "dyson":
        if not isinstance(kernel, BrownianKernel):
            raise RunUsageError("the dyson cross-check is defined for the Brownian kernel only")
        try:
            diagnostics.sde_steps(grid.t_max, cfg.experiment_dt)
        except ValueError as exc:
            raise RunUsageError(f"experiment.dt: {exc}") from None
        grid = TimeGrid.uniform(grid.t_max, 1)  # the matrix side is sampled at t_max only
    elif subcommand == "holder":
        try:
            grid = TimeGrid(diagnostics.holder_times(cfg.experiment_t_base,
                                                     cfg.experiment_separations))
        except ValueError as exc:
            raise RunUsageError(f"experiment.separations: {exc}") from None
    try:  # a table kernel covers a bounded range of times
        variance = kernel.diag(grid.times)
    except KernelDomainError as exc:
        raise RunUsageError(f"kernel.table_path = {cfg.kernel_table_path}: {exc}") from None
    if np.any(variance < 0.0):  # a symmetric table need not be a covariance
        k = int(np.argmax(variance < 0.0))
        raise RunUsageError(f"kernel.table_path = {cfg.kernel_table_path}: the variance R(t,t) "
                            f"at t = {_fmt(float(grid.times[k]))} is {_fmt(float(variance[k]))}"
                            "; a variance cannot be negative")
    if subcommand != "limit":  # one sampler and factor for the whole run
        try:
            sampler = sampling.path_sampler(kernel, grid, cfg.sampler_method)
        except ValueError as exc:
            raise RunUsageError(str(exc)) from None
    tables = []  # (file name, header, rows, whether non-finite cells are expected)

    if subcommand == "converge":
        studies = diagnostics.convergence_study(
            sampler, list(shifts.values()), cfg.experiment_m, cfg.sampler_seed, mapper=mapper)
        for n, rows in zip(shifts, studies):
            tables.append((f"converge_n{n}.csv", "n,t,mean_distance,stderr,M",
                           [(r.n, r.t, r.mean_distance, r.stderr, r.paths) for r in rows],
                           False))

    elif subcommand == "residual":
        f = by_name(cfg.observables_test_functions)
        reports = diagnostics.residual_experiment(
            sampler, list(shifts.values()), f, cfg.experiment_m, cfg.sampler_seed, mapper=mapper)
        for rep in reports:
            tables.append((f"residual_n{rep.n}.csv",
                           "n,test_function,M,mean_residual,mean_residual_se,"
                           "mean_square,mean_square_se",
                           [(rep.n, rep.test_function, rep.paths, rep.mean_residual,
                             rep.mean_residual_se, rep.mean_square, rep.mean_square_se)],
                           False))
        slope = diagnostics.fit_loglog_slope(
            np.array([r.n for r in reports], dtype=float),
            np.array([r.mean_square for r in reports]))
        # one matrix size fits no slope and writes nan
        tables.append(("residual_fit.csv", "test_function,n_values,slope",
                       [(f.name, ";".join(str(n) for n in cfg.matrix_n), slope)],
                       len(reports) == 1))

    elif subcommand == "holder":
        f = by_name(cfg.observables_test_functions)
        n = cfg.matrix_n[0]
        rep = diagnostics.holder_increments(
            sampler, shifts[n], f, cfg.experiment_p, cfg.experiment_t_base,
            cfg.experiment_separations, cfg.experiment_m, cfg.sampler_seed, mapper=mapper)
        tables.append((f"holder_n{n}.csv", "t1,t2,p,moment,stderr",
                       [(p.t1, p.t2, rep.p, p.moment, p.stderr) for p in rep.pairs], False))
        qhat = rep.slope if rep.slope is not None else "degenerate"
        tables.append((f"holder_fit_n{n}.csv", "p,qhat,M,test_function",
                       [(rep.p, qhat, rep.paths, rep.test_function)], False))

    elif subcommand == "collisions":
        reports = diagnostics.collision_experiment(
            sampler, list(shifts.values()), cfg.experiment_m, cfg.sampler_seed, mapper=mapper)
        for n, rep in zip(shifts, reports):
            rows = [(n, f"q{int(q * 100):02d}", v) for q, v in rep.quantiles.items()]
            rows.append((n, "degenerate_fraction", rep.degenerate_fraction))
            # one eigenvalue has no gap, and its gap quantiles are inf
            tables.append((f"collisions_n{n}.csv", "n,stat,value", rows, n == 1))

    elif subcommand == "dyson":
        n = cfg.matrix_n[0]
        rep = diagnostics.dyson_crosscheck(
            sampler, shifts[n], (cfg.experiment_dt, 0.5 * cfg.experiment_dt),
            cfg.experiment_m, cfg.sampler_seed, mapper=mapper)
        tables.append((f"dyson_n{n}.csv", "n,t,dt,M,w1_distance,w1_mc_error,forced_sorts",
                       [(r.n, r.t, r.dt, r.paths, r.w1_distance, r.w1_mc_error, r.forced_sorts)
                        for r in rep.rows], False))

    elif subcommand == "limit":
        mu0 = diagnostics.initial_law(shifts[cfg.matrix_n[0]])
        xs = np.linspace(cfg.experiment_x_min, cfg.experiment_x_max, cfg.experiment_x_points)
        rows = []
        for k, t in enumerate(grid.times):
            law = law_at_time(kernel, mu0, float(t))
            atomic = isinstance(law, AtomicMeasure)  # mu_0 at tau = 0 has no density
            pdf = np.zeros_like(xs) if atomic else np.atleast_1d(law.pdf(xs))
            tables.append((f"limit_density_t{k}.csv", "x,pdf,cdf",
                           list(zip(xs, pdf, np.atleast_1d(law.cdf(xs)))), False))
            tau = float(kernel.diag(t))
            for z in cfg.observables_z_points:
                fval = limit_stieltjes(mu0, tau, z)
                rows.append((float(t), z.real, z.imag, fval.real, fval.imag))
        tables.append(("limit_stieltjes.csv", "t,re_z,im_z,re_F,im_F", rows, False))

    for name, header, rows, nonfinite_expected in tables:
        for i, row in enumerate([] if nonfinite_expected else rows, start=1):
            for column, v in zip(header.split(","), row):
                if isinstance(v, float) and not np.isfinite(v):
                    raise NumericalFailure(f"{name} data row {i} column {column} is {_fmt(v)}; "
                                           "no file was written")
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows, _ in tables:
        _write_csv(out / name, cfg, subcommand, header, rows)
    return [out / name for name, *_ in tables]
