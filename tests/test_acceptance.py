"""Acceptance criteria.

Each test implements one numbered criterion at its frozen tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them).
Monte Carlo thresholds marked as calibrated were frozen after a single
calibration run at the recorded seed and have not been tuned since.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from eigenflow import rng
from eigenflow.cli import main as cli_main
from eigenflow.diagnostics import dyson_crosscheck, fit_loglog_slope, residual_experiment
from eigenflow.eigensolvers import eigh, one_blas_thread
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel
from eigenflow.limitlaw import (AtomicMeasure, Semicircle, burgers_solve,
                                semicircle_stieltjes)
from eigenflow.matrixflow import eigenvalue_derivatives, sample_flows, spectra_of_stack
from eigenflow.measures import kolmogorov_distance
from eigenflow.sampling import factor_grid, path_sampler, sample_entry_block
from eigenflow.testfunctions import gaussian_bump
from oracles import burgers_pde_residual, hoffman_wielandt_holds


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _ks_to_semicircle(kernel, n, t, paths, seed):
    # a mid-time node keeps the joint law (and hence the sampled flow)
    # genuinely different across Hurst indices even though the time-t
    # marginal has the same variance
    grid = TimeGrid([0.0, 0.5 * t, t])
    lam = spectra_of_stack(sample_flows(path_sampler(kernel, grid), n, np.zeros((n, n)),
                                        seed, range(paths)))[:, -1, :]
    law = Semicircle(0.0, float(kernel.diag(t)))
    d = kolmogorov_distance(lam, law)
    return d.mean(), d.std(ddof=1) / np.sqrt(paths)


def test_criterion_1_semicircle_agreement_across_regularity():
    started = time.perf_counter()
    worst = 0.0
    details = []
    for hurst in (0.3, 0.5, 0.75):
        kernel = FractionalBrownianKernel(hurst)
        big, big_se = _ks_to_semicircle(kernel, 200, 1.0, 20, seed=20240101)
        small, small_se = _ks_to_semicircle(kernel, 25, 1.0, 20, seed=20240101)
        worst = max(worst, big)
        margin = (small - big) / np.hypot(big_se, small_se)
        details.append(f"H={hurst}: d200={big:.4f} d25={small:.4f} margin={margin:.1f}se")
        assert big <= 0.08, f"H={hurst}: mean distance {big:.4f} > 0.08"
        assert small - big > 2.0 * np.hypot(big_se, small_se), \
            f"H={hurst}: no 2-se separation between n=25 and n=200"
    elapsed = time.perf_counter() - started
    _report(1, "semicircle agreement", worst <= 0.08 and elapsed < 120,
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_2_cauchy_transform_match():
    kernel = FractionalBrownianKernel(0.75)
    grid = TimeGrid([0.0, 0.5, 1.0, 2.0])
    n, paths = 200, 50
    lam = spectra_of_stack(sample_flows(path_sampler(kernel, grid), n, np.zeros((n, n)),
                                        31415, range(paths)))
    worst = 0.0
    for k, t in ((1, 0.5), (2, 1.0), (3, 2.0)):
        tau = float(kernel.diag(t))
        for z in (1j, 1 + 1j, 2j):
            g_emp = np.mean([np.mean(1.0 / (lam[p, k] - z)) for p in range(paths)])
            err = abs(g_emp - semicircle_stieltjes(tau, z))
            worst = max(worst, err)
            assert err <= 0.05, f"t={t}, z={z}: |G_emp - F| = {err:.4f} > 0.05"
    _report(2, "Cauchy-transform match", worst <= 0.05, f"max error {worst:.4f}")


def test_criterion_3_weak_equation_residual_decay():
    started = time.perf_counter()
    f = gaussian_bump
    n_values = (8, 16, 32, 64)
    details = []
    for hurst in (0.3, 0.75):
        grid = TimeGrid.power_graded(1.0, 24) if hurst < 0.5 else TimeGrid.uniform(1.0, 24)
        sampler = path_sampler(FractionalBrownianKernel(hurst), grid)
        # two workers, each with one BLAS thread, as a run with --threads 2
        # has; the worker count moves no bit (criterion 8, TestThreadInvariance)
        with one_blas_thread(), ThreadPoolExecutor(max_workers=2) as pool:
            reports = [residual_experiment(sampler, n, np.zeros((n, n)), f, 2000, seed=2024,
                                           mapper=pool.map)
                       for n in n_values]
        msq = np.array([r.mean_square for r in reports])
        ses = np.array([r.mean_square_se for r in reports])
        for a, b, sa, sb in zip(msq, msq[1:], ses, ses[1:]):
            assert b <= a + 2.0 * np.hypot(sa, sb), \
                f"H={hurst}: E[G^2] not non-increasing within 2 se"
        slope = fit_loglog_slope(np.array(n_values, dtype=float), msq)
        assert slope <= -0.7, f"H={hurst}: slope {slope:.2f} > -0.7"
        details.append(f"H={hurst}: slope={slope:.2f}")
    elapsed = time.perf_counter() - started
    _report(3, "residual decay", elapsed < 600,
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_4_perturbation_identities():
    kernel = BrownianKernel()
    grid = TimeGrid([0.0, 1.0])
    n = 8
    y = sample_flows(path_sampler(kernel, grid), n, np.zeros((n, n)), 424242,
                     range(1000))[:, 1]
    checked = 0
    worst_grad = worst_hess = worst_fd = 0.0
    for p in range(1000):
        lam, vec = eigh(y[p])
        if np.min(np.abs(np.diff(lam))) <= 1e-6:
            continue
        checked += 1
        for i in range(n):
            der = eigenvalue_derivatives(lam, vec, i)
            worst_grad = max(worst_grad, abs(der.grad_square_sum() - 2.0))
            expected = float(np.sum(2.0 / (lam[i] - np.delete(lam, i))))
            worst_hess = max(worst_hess,
                             abs(der.hess_sum() - expected) / max(abs(expected), 1e-30))
        if p < 60:  # finite-difference oracle on a subset
            eps = 1e-6
            for i in (0, 4, 7):
                der = eigenvalue_derivatives(lam, vec, i)
                for (k, h) in ((0, 1), (3, 3), (2, 7)):
                    e = np.zeros((n, n))
                    e[k, h] = e[h, k] = 1.0
                    wp = np.linalg.eigvalsh(y[p] + eps * e)[::-1][i]
                    wm = np.linalg.eigvalsh(y[p] - eps * e)[::-1][i]
                    scale = np.sqrt(2.0) if k == h else 1.0
                    fd = (wp - wm) / (2 * eps) * scale
                    # relative to the component, floored at 1e-3 of the O(1)
                    # gradient scale: components near 0 only see FD roundoff
                    rel = abs(fd - der.grad[k, h]) / max(abs(der.grad[k, h]), 1e-3)
                    worst_fd = max(worst_fd, rel)
    assert checked >= 990, f"too many degenerate snapshots: {1000 - checked}"
    assert worst_grad <= 1e-10, f"grad identity off by {worst_grad:.2e}"
    assert worst_hess <= 1e-8, f"hess identity off by {worst_hess:.2e}"
    assert worst_fd <= 1e-4, f"gradient vs finite differences off by {worst_fd:.2e}"
    _report(4, "perturbation identities", True,
            f"{checked} snapshots, grad {worst_grad:.1e}, hess {worst_hess:.1e}, "
            f"fd {worst_fd:.1e}")


def test_criterion_5_hoffman_wielandt_and_holder_scaling():
    gen = np.random.default_rng(55)
    grid = TimeGrid.uniform(1.0, 4)
    held = 0
    total = 0
    for trial in range(250):
        n = int(gen.integers(2, 51))
        hurst = float(gen.choice([0.3, 0.5, 0.75]))
        y = sample_flows(path_sampler(FractionalBrownianKernel(hurst), grid), n,
                         np.zeros((n, n)), int(gen.integers(1 << 40)), [0])[0]
        lam = spectra_of_stack(y)
        for _ in range(4):
            k1, k2 = gen.choice(len(grid), size=2, replace=False)
            total += 1
            held += hoffman_wielandt_holds(y[k1], y[k2], lam[k1], lam[k2])
    assert total == 1000 and held == total, f"HW held on {held}/{total} pairs"

    from eigenflow.diagnostics import holder_increments, holder_times
    seps = np.geomspace(1e-3, 1e-1, 7)
    holder_grid = TimeGrid(holder_times(0.5, seps))
    slopes = {}
    for kernel, gamma in ((BrownianKernel(), 1.0), (FractionalBrownianKernel(0.75), 1.5)):
        rep = holder_increments(path_sampler(kernel, holder_grid), 32, np.zeros((32, 32)),
                                gaussian_bump, 4.0, 0.5, seps, paths=400, seed=5150)
        bound = 0.9 * (4.0 * gamma / 2.0)
        slopes[kernel.kind + f"(g={gamma})"] = rep.slope
        assert rep.slope is not None and rep.slope >= bound, \
            f"{kernel.kind}: qhat {rep.slope:.2f} < {bound}"
    _report(5, "Hoffman-Wielandt + Hoelder", True,
            f"HW {held}/{total}; slopes " +
            ", ".join(f"{k}:{v:.2f}" for k, v in slopes.items()))


def test_criterion_6_burgers_solver_correctness():
    mu0 = AtomicMeasure.point_mass(0.0)
    gen = np.random.default_rng(66)

    worst_fp = 0.0
    worst_closed = 0.0
    for _ in range(200):
        tau = float(gen.uniform(0.05, 5.0))
        z = complex(gen.uniform(-3, 3), gen.uniform(0.02, 3.0))
        f = burgers_solve(mu0, tau, z)
        worst_fp = max(worst_fp, abs(f - mu0.stieltjes(z + tau * f)) / (1 + abs(f)))
        worst_closed = max(worst_closed, abs(f - semicircle_stieltjes(tau, z)))
    assert worst_fp <= 1e-12
    assert worst_closed <= 1e-10

    taus = np.linspace(0.3, 2.0, 10)
    zs = np.array([complex(re, im) for re in np.linspace(-1.5, 1.5, 5)
                   for im in (0.8, 1.6)])
    pde = burgers_pde_residual(mu0, taus, zs)
    assert pde <= 1e-6, f"PDE residual {pde:.2e}"

    worst_shift = 0.0
    for a in (-1.2, 0.4, 2.0):
        mua = AtomicMeasure.point_mass(a)
        for tau in (0.3, 1.0, 3.0):
            z = 0.25 + 0.9j
            worst_shift = max(worst_shift, abs(
                burgers_solve(mua, tau, z) - semicircle_stieltjes(tau, z - a)))
    assert worst_shift <= 1e-10
    _report(6, "Burgers solver", True,
            f"fp {worst_fp:.1e}, closed {worst_closed:.1e}, pde {pde:.1e}, "
            f"shift {worst_shift:.1e}")


def test_criterion_7_sampler_exactness():
    hurst = 0.3
    kernel = FractionalBrownianKernel(hurst)
    grid = TimeGrid.uniform(1.0, 7)  # 8-point grid
    n_paths = 200_000
    factor = factor_grid(kernel, grid)
    ids_c = rng.stream_id(rng.DOMAIN_ENTRY, 0, 0, np.arange(n_paths))
    chol = sample_entry_block(factor, 7777, ids_c)

    gram = kernel.gram(grid.times)
    emp = chol.T @ chol / n_paths
    se = np.sqrt((np.outer(np.diag(gram), np.diag(gram)) + gram ** 2) / n_paths)
    err = np.abs(emp - gram)[1:, 1:]
    worst_units = float(np.max(err / se[1:, 1:]))
    assert worst_units <= 4.0, f"empirical Gram off by {worst_units:.2f} se units"

    ids_f = rng.stream_id(rng.DOMAIN_CIRCULANT, 0, 0, np.arange(n_paths))
    circ = path_sampler(kernel, grid, "circulant").draw(7777, ids_f)
    alpha = 0.01 / (len(grid) - 1)  # Bonferroni across the marginals
    min_p = 1.0
    for k in range(1, len(grid)):
        stat = ks_2samp(chol[:, k], circ[:, k])
        min_p = min(min_p, stat.pvalue)
        assert stat.pvalue >= alpha, \
            f"marginal t={grid.times[k]}: KS p={stat.pvalue:.4f} < {alpha:.5f}"
    _report(7, "sampler exactness", True,
            f"gram max {worst_units:.2f} se units; min KS p {min_p:.3f}")


def test_criterion_8_determinism_across_thread_counts(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
[kernel]
kind = fbm
hurst = 0.3

[grid]
t_max = 1.0
steps = 6

[matrix]
n = 16, 24

[sampler]
seed = 31337

[experiment]
m = 12
""")
    out = tmp_path / "run"
    assert cli_main(["converge", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
    files = sorted(p for p in out.iterdir() if p.suffix == ".csv")
    snapshots = {p.name: p.read_bytes() for p in files}
    assert cli_main(["converge", "--config", str(cfg), "--out", str(out),
                     "--threads", "4"]) == 0
    identical = all(p.read_bytes() == snapshots[p.name]
                    for p in sorted(out.iterdir()) if p.suffix == ".csv")
    assert identical, "thread count changed CSV bytes"
    _report(8, "determinism", identical,
            f"{len(snapshots)} CSVs byte-identical across thread counts")


def test_criterion_9_dyson_crosscheck():
    sampler = path_sampler(BrownianKernel(), TimeGrid.uniform(1.0, 1))
    row = dyson_crosscheck(sampler, 2, np.zeros((2, 2)), 1e-3, 10_000, seed=90210)
    assert row.w1_distance <= 0.05, f"W1 {row.w1_distance:.4f} > 0.05"
    half = dyson_crosscheck(sampler, 2, np.zeros((2, 2)), 5e-4, 10_000, seed=90210)
    budget = 2.0 * np.hypot(row.w1_mc_error, half.w1_mc_error)
    assert half.w1_distance <= row.w1_distance + budget, \
        f"refinement increased W1 beyond MC error: {row.w1_distance:.4f} -> " \
        f"{half.w1_distance:.4f} (budget {budget:.4f})"
    _report(9, "Dyson cross-check", True,
            f"W1(dt)={row.w1_distance:.4f}, W1(dt/2)={half.w1_distance:.4f}, "
            f"mc budget {budget:.4f}")
