"""Diagnostics: residual bookkeeping, convergence, scaling, SDE cross-check."""

import hashlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eigenflow import budget, diagnostics, eigensolvers, matrixflow, rng
from eigenflow.diagnostics import (collision_experiment, collision_proximity,
                                   convergence_study, dyson_crosscheck, fit_loglog_slope,
                                   holder_increments, holder_times, residual_experiment,
                                   weak_equation_residual)
from eigenflow.eigensolvers import eigvalsh_stack
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel, TableKernel
from eigenflow.limitlaw import AtomicMeasure
from eigenflow.matrixflow import sample_flows
from eigenflow.sampling import path_sampler
from eigenflow.testfunctions import TestFunction, gaussian_bump
from oracles import burgers_pde_residual, sde_drift_rows


def holder_sampler(kernel, t_base, separations):
    return path_sampler(kernel, TimeGrid(holder_times(t_base, separations)))


def dyson_sampler(t_max):
    return path_sampler(BrownianKernel(), TimeGrid.uniform(t_max, 1))


@pytest.fixture
def sde_depths(monkeypatch):
    """The depth of every ``_sde_step`` call the test makes."""
    depths = []
    real_step = diagnostics._sde_step

    def spy(lam, dt, noise, depth, *rest):
        depths.append(depth)
        return real_step(lam, dt, noise, depth, *rest)

    monkeypatch.setattr(diagnostics, "_sde_step", spy)
    return depths


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

        (report,) = residual_experiment(path_sampler(kernel, grid), [np.zeros((1, 1))], f, paths,
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
            reports = residual_experiment(sampler, [np.zeros((n, n)) for n in (4, 16)], f, 600,
                                          seed=5)
            for rep in reports:
                assert abs(rep.mean_residual) <= 4.0 * rep.mean_residual_se, \
                    f"{type(kernel).__name__} n={rep.n}"

    def test_mean_square_decreases_in_n(self):
        f = gaussian_bump
        grid = TimeGrid.uniform(1.0, 12)
        kernel = FractionalBrownianKernel(0.75)
        sampler = path_sampler(kernel, grid)
        reports = residual_experiment(sampler, [np.zeros((n, n)) for n in (4, 8, 16, 32)], f,
                                      400, seed=7)
        msq = [r.mean_square for r in reports]
        ses = [r.mean_square_se for r in reports]
        for a, b, sa, sb in zip(msq, msq[1:], ses, ses[1:]):
            assert b <= a + 2.0 * np.hypot(sa, sb)

    def test_mapper_equivalence(self):
        f = gaussian_bump
        grid = TimeGrid.uniform(1.0, 8)
        sampler = path_sampler(BrownianKernel(), grid)
        (serial,) = residual_experiment(sampler, [np.zeros((6, 6))], f, 50, seed=3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            (parallel,) = residual_experiment(sampler, [np.zeros((6, 6))], f, 50, seed=3,
                                              mapper=pool.map)
        assert np.array_equal(serial.residuals, parallel.residuals)


class TestConvergenceStudy:
    def test_distance_shrinks_with_n(self):
        grid = TimeGrid.uniform(1.0, 2)
        rows = [r for rows in convergence_study(path_sampler(BrownianKernel(), grid),
                                                [np.zeros((n, n)) for n in (10, 60)], 30,
                                                seed=11)
                for r in rows]
        at_t1 = {r.n: r.mean_distance for r in rows if r.t == 1.0}
        assert at_t1[60] < at_t1[10]

    def test_distances_decrease_in_n_for_each_hurst(self):
        grid = TimeGrid.uniform(1.0, 2)
        for hurst in (0.3, 0.5, 0.75):
            kernel = FractionalBrownianKernel(hurst)
            rows = [r for rows in convergence_study(
                        path_sampler(kernel, grid), [np.zeros((n, n)) for n in (25, 50, 100, 200)],
                        10, seed=61)
                    for r in rows]
            seq = [(r.mean_distance, r.stderr) for r in rows if r.t == 1.0]
            for (a, sa), (b, sb) in zip(seq, seq[1:]):
                assert b <= a + 2.0 * np.hypot(sa, sb), f"H={hurst}"

    def test_time_zero_distance_is_zero(self):
        grid = TimeGrid.uniform(1.0, 2)
        (rows,) = convergence_study(path_sampler(BrownianKernel(), grid), [np.zeros((12, 12))],
                                    10, seed=13)
        z = [r for r in rows if r.t == 0.0][0]
        assert z.mean_distance == 0.0

    def test_sup_row_bounds_pointwise_rows(self):
        grid = TimeGrid.uniform(1.0, 3)
        (rows,) = convergence_study(path_sampler(FractionalBrownianKernel(0.75), grid),
                                    [np.zeros((16, 16))], 15, seed=17)
        sup = [r for r in rows if r.t is None][0]
        for r in rows:
            if r.t is not None:
                assert sup.mean_distance >= r.mean_distance - 1e-12

    def test_nonzero_shift_uses_evolved_law(self):
        grid = TimeGrid.uniform(1.0, 2)
        (rows,) = convergence_study(path_sampler(BrownianKernel(), grid),
                                    [np.diag([1.0] * 20 + [-1.0] * 20)], 10, seed=19)
        at_t1 = [r for r in rows if r.t == 1.0][0]
        assert at_t1.mean_distance < 0.25


class TestHolder:
    def test_brownian_p4_slope(self):
        seps = np.geomspace(1e-3, 1e-1, 7)
        rep = holder_increments(holder_sampler(BrownianKernel(), 0.5, seps),
                                np.zeros((24, 24)), gaussian_bump, 4.0,
                                t_base=0.5, separations=seps, paths=300, seed=23)
        assert rep.slope is not None
        # increment bound exponent p*gamma/2 = 2 with 10% slack
        assert rep.slope >= 1.8

    def test_smooth_fbm_p4_slope(self):
        seps = np.geomspace(1e-3, 1e-1, 7)
        rep = holder_increments(holder_sampler(FractionalBrownianKernel(0.75), 0.5, seps),
                                np.zeros((24, 24)), gaussian_bump, 4.0,
                                t_base=0.5, separations=seps, paths=300, seed=29)
        assert rep.slope >= 2.7

    def test_constant_function_degenerate(self):
        constant = TestFunction("constant", np.ones_like, np.zeros_like, np.zeros_like)
        rep = holder_increments(holder_sampler(BrownianKernel(), 0.5, [0.01, 0.1]),
                                np.zeros((6, 6)), constant, 4.0, 0.5, [0.01, 0.1],
                                paths=20, seed=31)
        assert rep.slope is None

    @pytest.mark.parametrize("t_base, separations", [(0.25, [0.01, 0.1]), (0.5, [0.01, 0.2])],
                             ids=["base", "separation"])
    def test_grid_must_hold_every_time(self, t_base, separations):
        sampler = holder_sampler(BrownianKernel(), 0.5, [0.01, 0.1])
        with pytest.raises(ValueError, match="is not a grid time"):
            holder_increments(sampler, np.zeros((2, 2)), gaussian_bump, 4.0, t_base,
                              separations, paths=4, seed=1)


class TestCollisions:
    def test_n_one_reports_infinite_gap(self):
        rep = collision_proximity(np.zeros((5, 3, 1)))
        assert rep.quantiles[0.5] == np.inf
        assert rep.degenerate_fraction == 0.0

    def test_goe_like_snapshot_has_no_degenerate_gaps(self):
        # snapshot at t=1 (the start is trivially degenerate when A = 0)
        grid = TimeGrid.uniform(1.0, 1)
        lam = eigvalsh_stack(sample_flows(
            path_sampler(BrownianKernel(), grid), np.zeros((50, 50)), 37, range(100)))
        rep = collision_proximity(lam[:, 1:, :])
        assert rep.degenerate_fraction == 0.0
        assert rep.quantiles[0.0] > 1e-8

    def test_repeated_shift_entry_gives_zero_gap_at_start(self):
        grid = TimeGrid.uniform(1.0, 1)
        lam = eigvalsh_stack(sample_flows(
            path_sampler(BrownianKernel(), grid), np.diag([2.0, 2.0, 0.0]), 41, range(8)))
        rep = collision_proximity(lam[:, :1, :])
        assert rep.quantiles[0.0] == 0.0
        assert rep.degenerate_fraction > 0.0

    def test_experiment_driver_counts_initial_degeneracy(self):
        # with a zero shift every path is degenerate at t = 0 and nowhere else
        (rep,) = collision_experiment(path_sampler(BrownianKernel(), TimeGrid.uniform(1.0, 3)),
                                      [np.zeros((12, 12))], 25, seed=53)
        assert rep.degenerate_fraction == pytest.approx(0.25, abs=1e-12)


class TestDyson:
    def test_time_zero_distance(self):
        (row,) = dyson_crosscheck(dyson_sampler(1.0), np.zeros((2, 2)), (0.5,), paths=2000,
                                  seed=43).rows
        assert row.w1_distance < 0.2  # crude step, still the same law family

    def test_small_scale_agreement(self):
        (row,) = dyson_crosscheck(dyson_sampler(1.0), np.zeros((2, 2)), (0.01,), paths=4000,
                                  seed=47).rows
        assert row.w1_distance <= 0.05

    def test_rejects_a_sampler_that_is_not_brownian(self, monkeypatch):
        # the SDE is the free Brownian one: fBm spectra would be compared
        # with it silently, so the check comes before any draw
        monkeypatch.setattr(rng, "normals", None)
        sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(0.25, 1))
        with pytest.raises(ValueError, match="FractionalBrownianKernel"):
            dyson_crosscheck(sampler, np.zeros((2, 2)), (1e-2,), 200, seed=1)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError):
            dyson_crosscheck(dyson_sampler(1.0), np.zeros((2, 2)), (0.25, 0.3), paths=10,
                             seed=1)

    @pytest.mark.parametrize("n", [3, 4])  # odd n puts every other step at an odd start
    def test_extending_the_batch_leaves_shared_paths_unchanged(self, n, sde_depths):
        # two runs with different step counts, so one retires midway
        args = (np.zeros(n), (1e-2, 5e-3), (50, 100), 8)
        small, small_sorts = diagnostics._sde_paths(*args, range(200))
        large, _ = diagnostics._sde_paths(*args, range(400))
        assert max(sde_depths) == diagnostics._SDE_MAX_DEPTH  # refinement was exercised
        assert np.array_equal(small, large[:, :200])
        assert np.all(small_sorts > 0)

    def test_noise_blocks_move_no_bit(self, monkeypatch):
        # odd n and an odd block put block starts at odd positions, and the
        # blocks differ in size; the shorter run retires inside the second
        # block, which starts at an odd position; the zero start drives
        # refinement and sorts
        n, paths, n_steps = 3, 1100, (30, 61)
        blocks = budget.row_slices(61, 64 * n * paths, budget.CHUNK_BYTES)
        sizes = [b.stop - b.start for b in blocks]
        assert sizes[0] % 2 == 1 and sizes[0] == max(sizes) == min(sizes) + 1
        assert blocks[1].start < 30 < blocks[1].stop and blocks[1].start * n % 2 == 1
        args = (np.zeros(n), (1e-2, 5e-3), n_steps, 5, range(paths))
        blocked, blocked_sorts = diagnostics._sde_paths(*args)
        monkeypatch.setattr(budget, "CHUNK_BYTES", 1)  # one step per block
        single, single_sorts = diagnostics._sde_paths(*args)
        assert np.array_equal(blocked, single)
        assert np.array_equal(blocked_sorts, single_sorts) and np.all(blocked_sorts > 0)

    def test_noise_blocks_land_in_one_held_buffer(self, monkeypatch):
        # the setup above: three blocks, the first the largest; every base
        # noise draw of the pass writes into one buffer, at the positions
        # its block of steps has always read
        n, paths, n_steps = 3, 1100, (30, 61)
        base = rng.stream_id(rng.DOMAIN_SDE, 0, 0, np.arange(paths))
        draws, draw = [], rng.normals

        def spy(seed, ids, count, start=0, out=None):
            if np.array_equal(ids, base):
                draws.append((start, count, out))
            return draw(seed, ids, count, start=start, out=out)

        monkeypatch.setattr(rng, "normals", spy)
        diagnostics._sde_paths(np.zeros(n), (1e-2, 5e-3), n_steps, 5, range(paths))
        blocks = budget.row_slices(61, 64 * n * paths, budget.CHUNK_BYTES)
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == 3 and max(sizes) - min(sizes) == 1 and sizes[0] == max(sizes)
        assert [(start, count) for start, count, _ in draws] == \
            [(b.start * n, (b.stop - b.start) * n) for b in blocks]
        held = draws[0][2]
        assert all(out is not None and np.shares_memory(out, held) for _, _, out in draws)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dts_together_or_apart_move_no_bit(self, n):
        # the zero start drives refinement and forced sorts at both step sizes
        sampler, shift = dyson_sampler(0.5), np.zeros((n, n))
        together = dyson_crosscheck(sampler, shift, (1e-2, 5e-3), 200, seed=11)
        apart = [row for dt in (1e-2, 5e-3)
                 for row in dyson_crosscheck(sampler, shift, (dt,), 200, seed=11).rows]
        assert together.rows == apart
        assert together.forced_sorts == sum(row.forced_sorts for row in apart)
        assert all(row.forced_sorts > 0 for row in apart)

    def test_drift_of_coincident_pairs_is_zero(self):
        lam = np.array([[0.0, 0.0, 1.0], [2.0, 2.0, 2.0], [-1.0, 1.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):  # as _sde_paths runs it
            drift = diagnostics._sde_drift(lam.T)  # one state per column
        assert np.array_equal(drift, np.array([[-1.0, -1.0, 2.0], [0.0, 0.0, 0.0],
                                               [-1.0, 0.5, 0.5]]).T / 3)

    @pytest.mark.parametrize("n", [*range(1, 13), 130])
    def test_drift_sums_in_the_order_of_a_row_state(self, n):
        # numpy sums a contiguous axis left to right below 8 and pairwise
        # from 8 on; the column drift must keep that order bit for bit
        gen = np.random.default_rng(n)
        lam = gen.standard_normal((40, n))
        lam[::3, n // 2:] = lam[::3, n // 2:n // 2 + 1]  # coincident pairs
        lam = np.sort(lam, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(diagnostics._sde_drift(np.ascontiguousarray(lam.T)),
                                  sde_drift_rows(lam).T)

    @pytest.mark.parametrize("n, expected", [
        (3, "0bcbd43a0c1ae64a3c32030ba95b08e5a28dcf61cd08404506259b1ae2d4ff06"),
        (9, "8e9d9aed74566bfbdbb885314376d6a3ea73fd9f6922eb73d57814693020e459"),
    ])
    def test_sde_paths_bits_at_odd_n_and_pairwise_sums(self, n, expected, sde_depths):
        # the golden files pin n = 2 only; n = 9 sums its drift pairwise
        runs, sorts = diagnostics._sde_paths(np.zeros(n), (1e-2, 5e-3), (20, 40), 7, range(100))
        assert max(sde_depths) == diagnostics._SDE_MAX_DEPTH and np.all(sorts > 0)
        assert hashlib.sha256(runs.tobytes() + sorts.tobytes()).hexdigest() == expected

    def test_peak_memory_of_the_sde_side_stays_small(self):
        # the dyson-sde benchmark call: 250 and 500 steps of 3000 paths in one chunk
        tracemalloc.start()
        try:
            dyson_crosscheck(dyson_sampler(0.25), np.zeros((2, 2)), (1e-3, 5e-4), 3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_peak_memory_of_the_sde_paths_alone(self, traced_peak):
        # the dyson-sde SDE side without the matrix side: from the zero start
        # every path is stiff at first; a node gathers its noise when it steps
        peak = traced_peak(diagnostics._sde_paths, np.zeros(2), (1e-3, 5e-4), (250, 500), 1,
                           range(3000))
        assert peak < 3.0e6

    def test_criterion_9_sde_side_is_one_chunk(self):
        # a chunk counts what the pass holds per path, not a refinement tree
        # per row and step, so criterion 9's 10000 paths run as one chunk
        chunks = []

        def mapper(task, pids):
            chunks.append(len(pids))
            return map(task, pids)

        dyson_crosscheck(dyson_sampler(0.01), np.zeros((2, 2)), (1e-3, 5e-4), 10_000, seed=1,
                         mapper=mapper)
        assert chunks[-1] == 1  # the SDE side maps after the matrix side


def residual_fbm_ensemble():
    """Sampler, shifts, paths and reduction of 4 paths of the residual-fbm
    benchmark: n = 8, 16, 32 and 64 from one draw."""
    kernel, grid = FractionalBrownianKernel(0.75), TimeGrid.uniform(1.0, 24)
    shifts = [np.zeros((n, n)) for n in (8, 16, 32, 64)]
    return (path_sampler(kernel, grid), shifts, 4,
            lambda k, lam: weak_equation_residual(lam, kernel, grid, gaussian_bump))


def collisions_circulant_ensemble():
    """Sampler, shifts, paths and reduction of 3 paths of the
    collisions-circulant benchmark: fbm H = 0.3 through the circulant
    sampler, 16 steps, n = 100."""
    sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 16), "circulant")
    return sampler, [np.zeros((100, 100))], 3, lambda k, lam: diagnostics._min_gaps(lam)


def ensemble_bytes(sampler, shifts, paths):
    """Every float that the residual, convergence and collision experiments
    return at ``shifts``, as bytes."""
    residual = residual_experiment(sampler, shifts, gaussian_bump, paths, seed=2)
    studies = convergence_study(sampler, shifts, paths, seed=3)
    collisions = collision_experiment(sampler, shifts, paths, seed=5)
    return (np.array([[r.mean_residual, r.mean_residual_se, r.mean_square, r.mean_square_se]
                      for r in residual]).tobytes(),
            np.concatenate([r.residuals for r in residual]).tobytes(),
            np.array([[row.mean_distance, row.stderr] for rows in studies for row in rows]
                     ).tobytes(),
            np.array([[*rep.quantiles.values(), rep.degenerate_fraction]
                      for rep in collisions]).tobytes())


class TestEnsembleMap:
    @pytest.mark.parametrize("method, hurst, steps, sizes, signed, expected", [
        ("circulant", 0.3, 16, (5, 40, 100), False,
         "e008db3dd26b897962b109f09154c01660a5b538533356e3c1604d9a0f44b4fc"),
        ("circulant", 0.3, 16, (5, 40, 100), True,
         "84850ddb113a03a83a496b8ee4455210e14a72b151961dd43abd14fa9932490f"),
        ("circulant", 0.3, 64, (5, 40, 100), False,
         "d07ee4e6fec9e8a5e72424e3884be3dc077e2ab834c1fa37a1ac9b7d94f35bb9"),
        ("circulant", 0.3, 64, (5, 40, 100), True,
         "94ab033643f03bb6d83b4be46edb45a930a2e188c478f64a4e4271113adc26bd"),
        ("cholesky", 0.75, 24, (8, 16, 32, 64), False,
         "e83014de0f15751ad4f4108c78f997f12353593a08a3f8b70fb5040b9317528c"),
    ])
    def test_spectra_bits(self, method, hurst, steps, sizes, signed, expected):
        # every size from one draw, at zero and diag +-1 shifts; pinned before
        # the time axis was split into blocks, which must move no bit
        sampler = path_sampler(FractionalBrownianKernel(hurst), TimeGrid.uniform(1.0, steps),
                               method)
        shifts = [np.diag(np.resize([1.0, -1.0], n)) if signed else np.zeros((n, n))
                  for n in sizes]
        spectra = diagnostics.ensemble_map(sampler, shifts, 7, 3, lambda k, lam: lam)
        digest = hashlib.sha256(b"".join(s.tobytes() for s in spectra)).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize("ensemble, bound", [(residual_fbm_ensemble, 3.0e6),
                                                 (collisions_circulant_ensemble, 2.0e6)],
                             ids=["residual", "collisions"])
    def test_a_task_holds_one_path_tile_at_a_time(self, traced_peak, ensemble, bound):
        # each pool task is one path here: the run holds one path's triangle
        # and spectra and one block of its matrices at a time, not those of
        # every path, nor its whole matrix stack
        sampler, shifts, paths, reduce = ensemble()
        assert traced_peak(diagnostics.ensemble_map, sampler, shifts, 3, paths, reduce) < bound

    def test_a_long_grid_task_holds_no_whole_matrix_stack(self, traced_peak):
        # one path of n = 96 on 513 grid times: its matrix stack alone is
        # 37.8 MB, its triangle 18.0 MB
        sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 512),
                               "circulant")
        peak = traced_peak(diagnostics.ensemble_map, sampler, [np.zeros((96, 96))], 3, 1,
                           lambda k, lam: diagnostics._min_gaps(lam))
        assert peak < 25e6

    def test_a_collisions_tile_assembles_one_path_at_a_time(self, monkeypatch):
        # one path's triangle and spectra outgrow a tile, and its 17 matrices
        # of n = 100 go in two blocks of over 500 eigenvalues each
        sampler, shifts, paths, reduce = collisions_circulant_ensemble()
        sizes = []
        real_assemble = matrixflow.assemble_from_triangle

        def counted(values, shift):
            sizes.append(values.shape[::2])
            return real_assemble(values, shift)

        monkeypatch.setattr(matrixflow, "assemble_from_triangle", counted)
        diagnostics.ensemble_map(sampler, shifts, 1, paths, reduce)
        assert sizes == [(1, 9), (1, 8)] * paths

    @pytest.mark.parametrize("kernel, steps, method, sizes, paths", [
        (FractionalBrownianKernel(0.75), 24, "cholesky", (8, 16, 32, 64), 4),  # residual-fbm
        (BrownianKernel(), 1, "cholesky", (20,), 2),  # converge-shift
        (BrownianKernel(), 1, "cholesky", (2,), 3000),  # dyson-sde, the matrix side
        (FractionalBrownianKernel(0.3), 16, "circulant", (100,), 3),  # collisions-circulant
        (FractionalBrownianKernel(0.3), 512, "circulant", (96,), 1),
    ], ids=["residual", "converge", "dyson", "collisions", "n96-K512"])
    def test_every_eigvalsh_call_keeps_the_gil_floor(self, kernel, steps, method, sizes, paths,
                                                     monkeypatch):
        # a call of at most 500 eigenvalues keeps the GIL and serialises the
        # pool, so only a tile's whole stack may be that small; the blocks of
        # one tile differ by at most one grid time
        calls = []
        real_eigvalsh = eigensolvers.eigvalsh_stack

        def spy(matrices):
            calls.append(matrices.shape[:3])
            return real_eigvalsh(matrices)

        monkeypatch.setattr(eigensolvers, "eigvalsh_stack", spy)
        sampler = path_sampler(kernel, TimeGrid.uniform(1.0, steps), method)
        diagnostics.ensemble_map(sampler, [np.zeros((n, n)) for n in sizes], 1, paths,
                                 lambda k, lam: lam)
        tiles, held = [], steps + 1
        for p, times, n in calls:
            assert p * times * n > eigensolvers.GIL_EIGENVALUES or times == steps + 1
            if held == steps + 1:
                tiles.append([])
                held = 0
            tiles[-1].append(times)
            held += times
        assert held == steps + 1
        assert all(max(blocks) - min(blocks) <= 1 for blocks in tiles)

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_the_tile_budget_moves_no_bit(self, method, monkeypatch):
        # 40 paths, drawn per tile by each of the 3 experiments
        sampler = path_sampler(FractionalBrownianKernel(0.7), TimeGrid.uniform(1.0, 4), method)
        shifts = [np.diag(np.resize([1.0, -1.0], n)) for n in (3, 5, 8)]
        tiles = []
        real_sample = diagnostics.sample_triangle

        def counted(sampler, n, seed, paths):
            tiles.append(len(paths))
            return real_sample(sampler, n, seed, paths)

        monkeypatch.setattr(diagnostics, "sample_triangle", counted)
        expected = ensemble_bytes(sampler, shifts, 40)
        assert tiles == [40] * 3  # the default budget
        for tile, sizes in ((1, [1] * 40), (1 << 40, [40])):
            tiles.clear()
            monkeypatch.setattr(budget, "TILE_BYTES", tile)
            assert ensemble_bytes(sampler, shifts, 40) == expected
            assert tiles == sizes * 3

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_one_call_for_every_n_equals_one_call_per_n(self, method, monkeypatch):
        # each tile draws the n = 8 triangle once; n = 3 and 5 take its
        # leading sub-triangles, which are their own draws bit for bit
        sampler = path_sampler(FractionalBrownianKernel(0.7), TimeGrid.uniform(1.0, 4), method)
        shifts = [np.diag(np.resize([1.0, -1.0], n)) for n in (3, 5, 8)]
        tiles = []
        real_sample = diagnostics.sample_triangle

        def counted(sampler, n, seed, paths):
            tiles.append((n, len(paths)))
            return real_sample(sampler, n, seed, paths)

        monkeypatch.setattr(diagnostics, "sample_triangle", counted)

        def run(shifts, mapper=map):
            residual = residual_experiment(sampler, shifts, gaussian_bump, 9, seed=2,
                                           mapper=mapper)
            return ([(r.n, r.mean_residual, r.mean_residual_se, r.mean_square,
                      r.mean_square_se, r.residuals.tobytes()) for r in residual],
                    convergence_study(sampler, shifts, 9, seed=3, mapper=mapper),
                    collision_experiment(sampler, shifts, 9, seed=5, mapper=mapper))

        apart = [run([shift]) for shift in shifts]
        expected = tuple([one[i][0] for one in apart] for i in range(3))
        tiles.clear()
        assert run(shifts) == expected
        assert tiles == [(8, 9)] * 3  # one tile of the largest n per experiment
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # one path per tile
        tiles.clear()
        assert run(shifts) == expected
        assert tiles == [(8, 1)] * 27
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert run(shifts, pool.map) == expected

    def test_a_residual_run_over_two_n_draws_the_largest_triangle_once(self, monkeypatch):
        grid = TimeGrid.uniform(1.0, 4)
        sampler = path_sampler(FractionalBrownianKernel(0.75), grid)
        drawn, maps = [], []
        real_normals = rng.normals

        def counted_normals(*args, **kwargs):
            out = real_normals(*args, **kwargs)
            drawn.append(out.size)
            return out

        def mapper(task, tiles):
            maps.append(len(tiles))
            return map(task, tiles)

        monkeypatch.setattr(rng, "normals", counted_normals)
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # ten tasks, still one map
        paths = 10
        residual_experiment(sampler, [np.zeros((4, 4)), np.zeros((8, 8))], gaussian_bump,
                            paths, seed=1, mapper=mapper)
        assert sum(drawn) == 36 * paths * len(grid)  # the n = 8 triangle holds 36 entries
        assert maps == [paths]

    def test_experiments_ignore_tile_budget_and_workers(self, monkeypatch):
        kernel = FractionalBrownianKernel(0.7)
        grid = TimeGrid.uniform(1.0, 4)
        f = gaussian_bump

        def run(mapper=map):
            circulant = path_sampler(kernel, grid, "circulant")
            return (np.stack([r.residuals for r in residual_experiment(
                                  circulant, [np.zeros((n, n)) for n in (3, 5)], f, 9, seed=2,
                                  mapper=mapper)]),
                    convergence_study(path_sampler(kernel, grid),
                                      [np.diag([1.0, 1.0, -1.0, -1.0])], 5, seed=3, mapper=mapper),
                    holder_increments(holder_sampler(kernel, 0.5, [0.01, 0.1]),
                                      np.zeros((4, 4)), f, 2.0, 0.5, [0.01, 0.1], 9,
                                      seed=4, mapper=mapper),
                    collision_experiment(path_sampler(kernel, grid),
                                         [np.diag([1.0, 1.0, 0.0, 0.0])], 9, seed=5,
                                         mapper=mapper),
                    dyson_crosscheck(dyson_sampler(0.5), np.zeros((4, 4)), (1e-2, 5e-3), 9,
                                     seed=6, mapper=mapper))

        whole = run()
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # one path per task
        monkeypatch.setattr(budget, "CHUNK_BYTES", 1)  # one path per dyson SDE chunk
        tasks = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            def mapper(task, pids):
                tasks.append([len(pid) for pid in pids])
                return pool.map(task, pids)

            chunked = run(mapper)
        # residual, convergence, holder, collisions, dyson matrix and SDE sides
        assert tasks == [[1] * paths for paths in (9, 5, 9, 9, 9, 9)]
        assert np.array_equal(whole[0], chunked[0])
        assert whole[1:] == chunked[1:]  # DysonRow includes forced_sorts
        assert all(row.forced_sorts > 0 for row in whole[-1].rows)


class TestBurgersPde:
    def test_residual_point_mass(self):
        taus = np.linspace(0.3, 2.0, 10)
        zs = np.array([complex(re, im) for re in np.linspace(-1.5, 1.5, 5)
                       for im in (0.8, 1.6)])
        res = burgers_pde_residual(AtomicMeasure.from_eigenvalues([0.0]), taus, zs)
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
