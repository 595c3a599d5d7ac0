"""Experiment orchestration: dispatch, worker pool, CSV and manifest output.

Every output CSV starts with a ``#``-prefixed JSON comment embedding the
subcommand, the master seed and the full resolved configuration, followed
by a header row.  Floats are written with ``repr`` (shortest round-trip),
chunk results are placed by index and reduced in a fixed order, so a run
is a pure function of (canonical config, seed) regardless of the thread
count.  The manifest records the canonical config and environment; a run
can be reproduced from it.
"""

from __future__ import annotations

import json
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, List

import numpy as np
import scipy

from . import __version__, diagnostics
from .config import ExperimentConfig, config_to_grid, config_to_kernel
from .kernels import BrownianKernel
from .limitlaw import AtomicMeasure, law_at_time, limit_at_time
from .matrixflow import make_shift
from .testfunctions import by_name

SUBCOMMANDS = ("converge", "residual", "holder", "collisions", "dyson", "limit")
MANIFEST_NAME = "run_manifest.json"


class RunUsageError(ValueError):
    """The configuration cannot drive the requested subcommand."""


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
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _mapper(threads: int):
    if threads <= 1:
        return map, None
    pool = ThreadPoolExecutor(max_workers=threads)
    return pool.map, pool


def run(cfg: ExperimentConfig, subcommand: str, out_dir: str | None = None,
        threads: int = 1) -> List[str]:
    """Execute a subcommand; returns the list of files written."""
    if subcommand not in SUBCOMMANDS:
        raise RunUsageError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    if out_dir is not None:
        cfg = cfg.with_output_directory(out_dir)
    out = Path(cfg.output_directory)
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    mapper, pool = _mapper(threads)
    try:
        written = _dispatch(cfg, subcommand, out, mapper)
    finally:
        if pool is not None:
            pool.shutdown()

    manifest = {
        "subcommand": subcommand,
        "seed": cfg.sampler_seed,
        "canonical_config": cfg.canonical_text(),
        "threads": threads,
        "outputs": [str(p) for p in written],
        "wall_time_s": time.perf_counter() - started,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "eigenflow": __version__,
        },
    }
    manifest_path = out / MANIFEST_NAME
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [str(p) for p in written] + [str(manifest_path)]


def _dispatch(cfg: ExperimentConfig, subcommand: str, out: Path, mapper) -> List[Path]:
    kernel = config_to_kernel(cfg)
    grid = config_to_grid(cfg)
    if cfg.sampler_method == "circulant":
        if subcommand not in ("converge", "residual", "collisions"):
            raise RunUsageError("sampler.method = circulant serves converge, residual and "
                                f"collisions only, not {subcommand}")
        if kernel.kind != "fbm":
            raise RunUsageError("sampler.method = circulant requires kernel.kind = fbm")
        if not grid.is_uniform():
            raise RunUsageError("sampler.method = circulant requires a uniform grid")
    if subcommand in ("holder", "dyson", "limit") and len(cfg.matrix_n) > 1:
        raise RunUsageError(f"{subcommand} runs one matrix dimension; "
                            f"matrix.n lists {len(cfg.matrix_n)}")
    for n in cfg.matrix_n:  # parse_config checks diag: shifts; a file: one is read here
        try:
            make_shift(cfg.matrix_shift, n)
        except ValueError as exc:
            raise RunUsageError(f"matrix.shift: {exc}") from None
    written: List[Path] = []

    if subcommand == "converge":
        rows = diagnostics.convergence_study(
            kernel, grid, cfg.matrix_n, cfg.experiment_m, cfg.sampler_seed,
            shift_spec=cfg.matrix_shift, method=cfg.sampler_method, mapper=mapper)
        for n in cfg.matrix_n:
            path = out / f"converge_n{n}.csv"
            _write_csv(path, cfg, subcommand, "n,t,mean_distance,stderr,M",
                       [(r.n, r.t, r.mean_distance, r.stderr, r.paths)
                        for r in rows if r.n == n])
            written.append(path)

    elif subcommand == "residual":
        f = _real_test_function(cfg)
        reports = diagnostics.residual_experiment(
            kernel, grid, cfg.matrix_n, f, cfg.experiment_m, cfg.sampler_seed,
            shift_spec=cfg.matrix_shift, method=cfg.sampler_method, mapper=mapper)
        for rep in reports:
            path = out / f"residual_n{rep.n}.csv"
            _write_csv(path, cfg, subcommand,
                       "n,test_function,M,mean_residual,mean_residual_se,"
                       "mean_square,mean_square_se",
                       [(rep.n, rep.test_function, rep.paths, rep.mean_residual,
                         rep.mean_residual_se, rep.mean_square, rep.mean_square_se)])
            written.append(path)
        slope = diagnostics.fit_loglog_slope(
            np.array([r.n for r in reports], dtype=float),
            np.array([r.mean_square for r in reports]))
        path = out / "residual_fit.csv"
        _write_csv(path, cfg, subcommand, "test_function,n_values,slope",
                   [(f.name, ";".join(str(n) for n in cfg.matrix_n), slope)])
        written.append(path)

    elif subcommand == "holder":
        f = _real_test_function(cfg)
        n = cfg.matrix_n[0]
        rep = diagnostics.holder_increments(
            kernel, n, f, cfg.experiment_p, cfg.experiment_t_base,
            cfg.experiment_separations, cfg.experiment_m, cfg.sampler_seed,
            shift_spec=cfg.matrix_shift, mapper=mapper)
        path = out / f"holder_n{n}.csv"
        _write_csv(path, cfg, subcommand, "t1,t2,p,moment,stderr",
                   [(p.t1, p.t2, rep.p, p.moment, p.stderr) for p in rep.pairs])
        written.append(path)
        path = out / f"holder_fit_n{n}.csv"
        qhat = rep.slope if rep.slope is not None else "degenerate"
        _write_csv(path, cfg, subcommand, "p,qhat,M,test_function",
                   [(rep.p, qhat, rep.paths, rep.test_function)])
        written.append(path)

    elif subcommand == "collisions":
        for n in cfg.matrix_n:
            rep = diagnostics.collision_experiment(
                kernel, grid, n, cfg.experiment_m, cfg.sampler_seed,
                shift_spec=cfg.matrix_shift, method=cfg.sampler_method, mapper=mapper)
            path = out / f"collisions_n{n}.csv"
            rows = [(n, f"q{int(q * 100):02d}", v) for q, v in rep.quantiles.items()]
            rows.append((n, "degenerate_fraction", rep.degenerate_fraction))
            _write_csv(path, cfg, subcommand, "n,stat,value", rows)
            written.append(path)

    elif subcommand == "dyson":
        if not isinstance(kernel, BrownianKernel):
            raise RunUsageError("the dyson cross-check is defined for the Brownian kernel only")
        n = cfg.matrix_n[0]
        rows = []
        for dt in (cfg.experiment_dt, 0.5 * cfg.experiment_dt):
            r = diagnostics.dyson_crosscheck(
                n, grid.t_max, dt, cfg.experiment_m, cfg.sampler_seed,
                shift_spec=cfg.matrix_shift, mapper=mapper)
            rows.append((r.n, r.t, r.dt, r.paths, r.w1_distance, r.w1_mc_error,
                         r.forced_sorts))
        path = out / f"dyson_n{n}.csv"
        _write_csv(path, cfg, subcommand, "n,t,dt,M,w1_distance,w1_mc_error,forced_sorts",
                   rows)
        written.append(path)

    elif subcommand == "limit":
        n = cfg.matrix_n[0]
        shift = make_shift(cfg.matrix_shift, n)
        mu0 = AtomicMeasure.from_eigenvalues(np.linalg.eigvalsh(shift))
        xs = np.linspace(cfg.experiment_x_min, cfg.experiment_x_max, cfg.experiment_x_points)
        for k, t in enumerate(grid.times):
            law = law_at_time(kernel, mu0, float(t))
            path = out / f"limit_density_t{k}.csv"
            cdf = np.atleast_1d(law.cdf(xs))
            if getattr(law, "atom_positions", None) is not None:
                pdf = np.zeros_like(xs)
            else:
                pdf = np.atleast_1d(law.pdf(xs))
            rows = list(zip(xs, pdf, cdf))
            _write_csv(path, cfg, subcommand, "x,pdf,cdf", rows)
            written.append(path)
        rows = []
        for t in grid.times:
            for z in cfg.observables_z_points:
                fval = limit_at_time(kernel, mu0, float(t), z)
                rows.append((float(t), z.real, z.imag, fval.real, fval.imag))
        path = out / "limit_stieltjes.csv"
        _write_csv(path, cfg, subcommand, "t,re_z,im_z,re_F,im_F", rows)
        written.append(path)

    return written


def _real_test_function(cfg: ExperimentConfig):
    names = cfg.observables_test_functions
    if len(names) > 1:
        raise RunUsageError("this experiment uses one test function; "
                            f"observables.test_functions lists {len(names)}")
    f = by_name(names[0])
    if f.complex_valued:
        raise RunUsageError(
            "this experiment needs a real bounded test function; "
            f"got {f.name}")
    return f
