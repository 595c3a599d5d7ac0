"""Diagnostics: residual bookkeeping, convergence, scaling, SDE cross-check."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eigenflow import diagnostics
from eigenflow.diagnostics import (collision_experiment, collision_proximity,
                                   convergence_study, dyson_crosscheck, fit_loglog_slope,
                                   holder_increments, holder_times, residual_experiment,
                                   weak_equation_residual)
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel, TableKernel
from eigenflow.limitlaw import AtomicMeasure
from eigenflow.matrixflow import sample_flows, spectra_of_stack
from eigenflow.sampling import path_sampler
from eigenflow.testfunctions import TestFunction, gaussian_bump
from oracles import burgers_pde_residual


def holder_sampler(kernel, t_base, separations):
    return path_sampler(kernel, TimeGrid(holder_times(t_base, separations)))


def dyson_sampler(t_max):
    return path_sampler(BrownianKernel(), TimeGrid.uniform(t_max, 1))


class TestWeakEquationResidual:
    def test_constant_flow_is_exactly_zero(self):
        # a degenerate tabulated kernel freezes the flow: R identically 0
        ts = np.linspace(0.0, 1.0, 5)
        kernel = TableKernel(ts, np.zeros((5, 5)))
        grid = TimeGrid(ts)
        lam = np.tile(np.array([1.0, 0.0, -2.0]), (4, len(grid), 1))
        g = weak_equation_residual(lam, kernel, grid, gaussian_bump)
        assert np.all(g == 0.0)

    def test_scalar_case_matches_ito_oracle(self):
        # n=1: the eigenvalue is sqrt(2) X(t) and the weak equation reduces
        # to the scalar Ito formula with d<lambda> = 2 dR(s,s); the oracle
        # simulates Brownian paths with an unrelated generator and applies
        # the same grid functional
        kernel = BrownianKernel()
        grid = TimeGrid.uniform(1.0, 32)
        f = gaussian_bump
        paths = 10_000

        report = residual_experiment(path_sampler(kernel, grid), 1, np.zeros((1, 1)), f, paths,
                                     seed=99)
        module_msq = report.mean_square
        module_se = report.mean_square_se

        gen = np.random.default_rng(123456)  # independent sampler
        dt = np.diff(grid.times)
        incr = gen.normal(size=(paths, dt.size)) * np.sqrt(dt)
        x = np.concatenate([np.zeros((paths, 1)), np.cumsum(incr, axis=1)], axis=1)
        lam = np.sqrt(2.0) * x
        f2 = f.d2(lam)
        drift = np.sum(0.5 * (f2[:, :-1] + f2[:, 1:]) * dt, axis=1)
        oracle = f.f(lam[:, -1]) - f.f(lam[:, 0]) - drift
        oracle_msq = np.mean(oracle ** 2)
        oracle_se = np.std(oracle ** 2, ddof=1) / np.sqrt(paths)

        assert abs(module_msq - oracle_msq) < 3.0 * np.hypot(module_se, oracle_se)

    def test_mean_zero_within_four_se(self):
        f = gaussian_bump
        for kernel, grid in [
            (BrownianKernel(), TimeGrid.uniform(1.0, 16)),
            (FractionalBrownianKernel(0.75), TimeGrid.uniform(1.0, 16)),
            (FractionalBrownianKernel(0.3), TimeGrid.power_graded(1.0, 16)),
        ]:
            sampler = path_sampler(kernel, grid)
            reports = [residual_experiment(sampler, n, np.zeros((n, n)), f, 600, seed=5)
                       for n in (4, 16)]
            for rep in reports:
                assert abs(rep.mean_residual) <= 4.0 * rep.mean_residual_se, \
                    f"{kernel.kind} n={rep.n}"

    def test_mean_square_decreases_in_n(self):
        f = gaussian_bump
        grid = TimeGrid.uniform(1.0, 12)
        kernel = FractionalBrownianKernel(0.75)
        sampler = path_sampler(kernel, grid)
        reports = [residual_experiment(sampler, n, np.zeros((n, n)), f, 400, seed=7)
                   for n in (4, 8, 16, 32)]
        msq = [r.mean_square for r in reports]
        ses = [r.mean_square_se for r in reports]
        for a, b, sa, sb in zip(msq, msq[1:], ses, ses[1:]):
            assert b <= a + 2.0 * np.hypot(sa, sb)

    def test_mapper_equivalence(self):
        f = gaussian_bump
        grid = TimeGrid.uniform(1.0, 8)
        sampler = path_sampler(BrownianKernel(), grid)
        serial = residual_experiment(sampler, 6, np.zeros((6, 6)), f, 50, seed=3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = residual_experiment(sampler, 6, np.zeros((6, 6)), f, 50, seed=3,
                                           mapper=pool.map)
        assert np.array_equal(serial.residuals, parallel.residuals)


class TestConvergenceStudy:
    def test_distance_shrinks_with_n(self):
        grid = TimeGrid.uniform(1.0, 2)
        rows = [r for n in (10, 60)
                for r in convergence_study(path_sampler(BrownianKernel(), grid), n,
                                           np.zeros((n, n)), 30, seed=11)]
        at_t1 = {r.n: r.mean_distance for r in rows if r.t == 1.0}
        assert at_t1[60] < at_t1[10]

    def test_distances_decrease_in_n_for_each_hurst(self):
        grid = TimeGrid.uniform(1.0, 2)
        for hurst in (0.3, 0.5, 0.75):
            kernel = FractionalBrownianKernel(hurst)
            rows = [r for n in (25, 50, 100, 200)
                    for r in convergence_study(path_sampler(kernel, grid), n, np.zeros((n, n)), 10,
                                         seed=61)]
            seq = [(r.mean_distance, r.stderr) for r in rows if r.t == 1.0]
            for (a, sa), (b, sb) in zip(seq, seq[1:]):
                assert b <= a + 2.0 * np.hypot(sa, sb), f"H={hurst}"

    def test_time_zero_distance_is_zero(self):
        grid = TimeGrid.uniform(1.0, 2)
        rows = convergence_study(path_sampler(BrownianKernel(), grid), 12, np.zeros((12, 12)), 10,
                                 seed=13)
        z = [r for r in rows if r.t == 0.0][0]
        assert z.mean_distance == 0.0

    def test_sup_row_bounds_pointwise_rows(self):
        grid = TimeGrid.uniform(1.0, 3)
        rows = convergence_study(path_sampler(FractionalBrownianKernel(0.75), grid), 16,
                                 np.zeros((16, 16)), 15, seed=17)
        sup = [r for r in rows if r.t is None][0]
        for r in rows:
            if r.t is not None:
                assert sup.mean_distance >= r.mean_distance - 1e-12

    def test_nonzero_shift_uses_evolved_law(self):
        grid = TimeGrid.uniform(1.0, 2)
        rows = convergence_study(path_sampler(BrownianKernel(), grid), 40,
                                 np.diag([1.0] * 20 + [-1.0] * 20), 10, seed=19)
        at_t1 = [r for r in rows if r.t == 1.0][0]
        assert at_t1.mean_distance < 0.25


class TestHolder:
    def test_brownian_p4_slope(self):
        seps = np.geomspace(1e-3, 1e-1, 7)
        rep = holder_increments(holder_sampler(BrownianKernel(), 0.5, seps), 24,
                                np.zeros((24, 24)), gaussian_bump, 4.0,
                                t_base=0.5, separations=seps, paths=300, seed=23)
        assert rep.slope is not None
        # increment bound exponent p*gamma/2 = 2 with 10% slack
        assert rep.slope >= 1.8

    def test_smooth_fbm_p4_slope(self):
        seps = np.geomspace(1e-3, 1e-1, 7)
        rep = holder_increments(holder_sampler(FractionalBrownianKernel(0.75), 0.5, seps), 24,
                                np.zeros((24, 24)), gaussian_bump, 4.0,
                                t_base=0.5, separations=seps, paths=300, seed=29)
        assert rep.slope >= 2.7

    def test_constant_function_degenerate(self):
        constant = TestFunction("constant", np.ones_like, np.zeros_like, np.zeros_like)
        rep = holder_increments(holder_sampler(BrownianKernel(), 0.5, [0.01, 0.1]), 6,
                                np.zeros((6, 6)), constant, 4.0, 0.5, [0.01, 0.1],
                                paths=20, seed=31)
        assert rep.slope is None

    @pytest.mark.parametrize("t_base, separations", [(0.25, [0.01, 0.1]), (0.5, [0.01, 0.2])],
                             ids=["base", "separation"])
    def test_grid_must_hold_every_time(self, t_base, separations):
        sampler = holder_sampler(BrownianKernel(), 0.5, [0.01, 0.1])
        with pytest.raises(ValueError, match="is not a grid time"):
            holder_increments(sampler, 2, np.zeros((2, 2)), gaussian_bump, 4.0, t_base,
                              separations, paths=4, seed=1)


class TestCollisions:
    def test_n_one_reports_infinite_gap(self):
        rep = collision_proximity(np.zeros((5, 3, 1)), 1, 5)
        assert rep.quantiles[0.5] == np.inf
        assert rep.degenerate_fraction == 0.0

    def test_goe_like_snapshot_has_no_degenerate_gaps(self):
        # snapshot at t=1 (the start is trivially degenerate when A = 0)
        grid = TimeGrid.uniform(1.0, 1)
        lam = spectra_of_stack(sample_flows(
            path_sampler(BrownianKernel(), grid), 50, np.zeros((50, 50)), 37, range(100)))
        rep = collision_proximity(lam[:, 1:, :], 50, 100)
        assert rep.degenerate_fraction == 0.0
        assert rep.quantiles[0.0] > 1e-8

    def test_repeated_shift_entry_gives_zero_gap_at_start(self):
        grid = TimeGrid.uniform(1.0, 1)
        lam = spectra_of_stack(sample_flows(
            path_sampler(BrownianKernel(), grid), 3, np.diag([2.0, 2.0, 0.0]), 41, range(8)))
        rep = collision_proximity(lam[:, :1, :], 3, 8)
        assert rep.quantiles[0.0] == 0.0
        assert rep.degenerate_fraction > 0.0

    def test_experiment_driver_counts_initial_degeneracy(self):
        # with a zero shift every path is degenerate at t = 0 and nowhere else
        rep = collision_experiment(path_sampler(BrownianKernel(), TimeGrid.uniform(1.0, 3)),
                                   12, np.zeros((12, 12)), 25, seed=53)
        assert rep.degenerate_fraction == pytest.approx(0.25, abs=1e-12)


class TestDyson:
    def test_time_zero_distance(self):
        row = dyson_crosscheck(dyson_sampler(1.0), 2, np.zeros((2, 2)), 0.5, paths=2000,
                               seed=43)
        assert row.w1_distance < 0.2  # crude step, still the same law family

    def test_small_scale_agreement(self):
        row = dyson_crosscheck(dyson_sampler(1.0), 2, np.zeros((2, 2)), 0.01, paths=4000,
                               seed=47)
        assert row.w1_distance <= 0.05

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError):
            dyson_crosscheck(dyson_sampler(1.0), 2, np.zeros((2, 2)), 0.3, paths=10, seed=1)

    @pytest.mark.parametrize("n", [3, 4])  # odd n puts every other step at an odd start
    def test_extending_the_batch_leaves_shared_paths_unchanged(self, n, monkeypatch):
        depths = []
        real_step = diagnostics._sde_step

        def spy(lam, dt, noise, n, depth, *rest):
            depths.append(depth)
            return real_step(lam, dt, noise, n, depth, *rest)

        monkeypatch.setattr(diagnostics, "_sde_step", spy)
        lam0 = np.zeros(n)
        small, _ = diagnostics._sde_paths(lam0, 1e-2, 100, 8, range(200))
        large, _ = diagnostics._sde_paths(lam0, 1e-2, 100, 8, range(400))
        assert max(depths) == diagnostics._SDE_MAX_DEPTH  # refinement was exercised
        assert np.array_equal(small, large[:200])

    def test_noise_blocks_move_no_bit(self, monkeypatch):
        # odd n and an odd block put block starts at odd positions, and the
        # last block is short; the zero start drives refinement and sorts
        n, paths, n_steps = 3, 1100, 60
        block = int(diagnostics.CHUNK_BYTES / 8 / (8 * n * paths))
        assert block % 2 == 1 and n_steps % block and n_steps > block
        args = (np.zeros(n), 1e-2, n_steps, 5, range(paths))
        blocked, blocked_sorts = diagnostics._sde_paths(*args)
        monkeypatch.setattr(diagnostics, "CHUNK_BYTES", 1)  # one step per block
        single, single_sorts = diagnostics._sde_paths(*args)
        assert np.array_equal(blocked, single)
        assert blocked_sorts == single_sorts > 0

    def test_drift_of_coincident_pairs_is_zero(self):
        lam = np.array([[0.0, 0.0, 1.0], [2.0, 2.0, 2.0], [-1.0, 1.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):  # as _sde_paths runs it
            drift = diagnostics._sde_drift(lam, 3)
        assert np.array_equal(drift, np.array([[-1.0, -1.0, 2.0], [0.0, 0.0, 0.0],
                                               [-1.0, 0.5, 0.5]]) / 3)

    def test_peak_memory_of_the_sde_side_stays_small(self):
        # the dyson-sde benchmark shape: 250 steps of 3000 paths in one chunk
        tracemalloc.start()
        try:
            dyson_crosscheck(dyson_sampler(0.25), 2, np.zeros((2, 2)), 1e-3, 3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestEnsembleMap:
    def test_peak_memory_of_a_residual_chunk(self, traced_peak):
        # one residual-fbm chunk at n = 64: 6 paths fill the 5 MB budget
        kernel, grid, n = FractionalBrownianKernel(0.75), TimeGrid.uniform(1.0, 24), 64
        assert int(diagnostics.CHUNK_BYTES / (len(grid) * n * n * 8)) == 6
        peak = traced_peak(diagnostics.ensemble_map, path_sampler(kernel, grid), n,
                           np.zeros((n, n)), 3, 6,
                           lambda lam: weak_equation_residual(lam, kernel, grid, gaussian_bump))
        assert peak < 2 * diagnostics.CHUNK_BYTES

    def test_experiments_ignore_chunk_budget_and_workers(self, monkeypatch):
        kernel = FractionalBrownianKernel(0.7)
        grid = TimeGrid.uniform(1.0, 4)
        f = gaussian_bump

        def run(mapper=map):
            circulant = path_sampler(kernel, grid, "circulant")
            return (np.stack([residual_experiment(circulant, n, np.zeros((n, n)), f, 9, seed=2,
                                                  mapper=mapper).residuals
                              for n in (3, 5)]),
                    convergence_study(path_sampler(kernel, grid), 4,
                                      np.diag([1.0, 1.0, -1.0, -1.0]), 5, seed=3, mapper=mapper),
                    holder_increments(holder_sampler(kernel, 0.5, [0.01, 0.1]), 4,
                                      np.zeros((4, 4)), f, 2.0, 0.5, [0.01, 0.1], 9,
                                      seed=4, mapper=mapper),
                    collision_experiment(path_sampler(kernel, grid), 4,
                                         np.diag([1.0, 1.0, 0.0, 0.0]), 9, seed=5, mapper=mapper),
                    dyson_crosscheck(dyson_sampler(0.5), 4, np.zeros((4, 4)), 1e-2, 9, seed=6,
                                     mapper=mapper))

        whole = run()
        monkeypatch.setattr(diagnostics, "CHUNK_BYTES", 1)  # one path per chunk
        with ThreadPoolExecutor(max_workers=2) as pool:
            chunked = run(pool.map)
        assert np.array_equal(whole[0], chunked[0])
        assert whole[1:] == chunked[1:]  # DysonRow includes forced_sorts
        assert whole[-1].forced_sorts > 0


class TestBurgersPde:
    def test_residual_point_mass(self):
        taus = np.linspace(0.3, 2.0, 10)
        zs = np.array([complex(re, im) for re in np.linspace(-1.5, 1.5, 5)
                       for im in (0.8, 1.6)])
        res = burgers_pde_residual(AtomicMeasure.point_mass(0.0), taus, zs)
        assert res <= 1e-6

    def test_residual_two_atoms(self):
        taus = np.linspace(0.3, 2.0, 10)
        zs = np.array([complex(re, im) for re in np.linspace(-1.5, 1.5, 5)
                       for im in (0.9, 1.8)])
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        res = burgers_pde_residual(mu0, taus, zs)
        assert res <= 1e-6


class TestSlopeFit:
    def test_exact_powerlaw(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog_slope(x, x ** -1.5) == pytest.approx(-1.5, abs=1e-12)

    def test_degenerate_input(self):
        assert np.isnan(fit_loglog_slope(np.array([1.0]), np.array([2.0])))
