"""Path samplers: factorization, exactness in distribution, reproducibility."""

import hashlib
import itertools

import numpy as np
import pytest

from eigenflow import budget, rng, sampling
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel
from eigenflow.sampling import (circulant_fbm_block, circulant_sqrt_spectrum, factor_grid,
                                fgn_autocovariance, path_sampler, sample_entry_block)


def _one_id(domain, i, j, path):
    return rng.stream_id(domain, i, j, np.array([path]))


def _circulant_paths(hurst, grid, seed, ids):
    """Circulant fbm paths of ``ids``, drawn through the grid's sampler."""
    return path_sampler(FractionalBrownianKernel(hurst), grid, "circulant").draw(seed, ids)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        assert np.allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])
        assert g.is_uniform()

    def test_nonuniform(self):
        g = TimeGrid([0.0, 0.1, 0.5, 2.0])
        assert np.allclose(g.deltas, [0.1, 0.4, 1.5])
        assert not g.is_uniform()

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid([0.5, 1.0])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, 1.0, 1.0])

    def test_power_graded(self):
        g = TimeGrid.power_graded(2.0, 4, grade=2.0)
        assert np.allclose(g.times, 2.0 * (np.arange(5) / 4) ** 2)
        assert g.times[0] == 0.0


class TestFactorGrid:
    def test_brownian_two_points(self):
        f = factor_grid(BrownianKernel(), TimeGrid([0.0, 1.0]))
        assert np.allclose(f.lower, [[0, 0], [0, 1]])
        assert f.jitter_used == 0.0

    def test_brownian_three_points_reconstruction(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        f = factor_grid(BrownianKernel(), grid)
        gram = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]], dtype=float)
        assert np.max(np.abs(f.lower @ f.lower.T - gram)) < 1e-12

    def test_fbm_gram_entry(self):
        grid = TimeGrid([0.0, 0.5, 1.0])
        f = factor_grid(FractionalBrownianKernel(0.75), grid)
        gram = f.lower @ f.lower.T
        # R(0.5, 1) = (0.5^1.5 + 1 - 0.5^1.5)/2 = 0.5
        assert gram[1, 2] == pytest.approx(0.5, rel=1e-12)

    def test_zero_time_row_is_zero(self):
        f = factor_grid(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 6))
        assert np.all(f.lower[0] == 0.0)
        assert np.all(f.lower[:, 0] == 0.0)

    @pytest.mark.parametrize("kernel", [BrownianKernel(), FractionalBrownianKernel(0.3),
                                        FractionalBrownianKernel(0.75)],
                             ids=["bm", "fbm03", "fbm075"])
    def test_reconstruction_tolerance(self, kernel):
        grid = TimeGrid.uniform(3.0, 24)
        f = factor_grid(kernel, grid)
        gram = kernel.gram(grid.times)
        bound = 1e-8 * (1.0 + np.max(np.diag(gram)))
        assert np.max(np.abs(f.lower @ f.lower.T - gram)) <= bound

    def test_jitter_ladder_on_singular_gram(self):
        # rank-one kernel R = s t: the Gram matrix is singular, plain
        # Cholesky fails and the ladder must engage while keeping the
        # reconstruction bound
        from eigenflow.kernels import TableKernel
        ts = np.linspace(0.0, 1.0, 9)
        kernel = TableKernel(ts, np.outer(ts, ts))
        grid = TimeGrid(ts)
        f = factor_grid(kernel, grid)
        gram = kernel.gram(grid.times)
        assert np.max(np.abs(f.lower @ f.lower.T - gram)) <= 1e-8 * 2.0

    def test_indefinite_gram_fails_hard(self):
        from eigenflow.kernels import TableKernel
        from eigenflow.sampling import FactorizationError
        ts = np.array([0.0, 1.0, 2.0])
        vals = np.array([[0.0, 0.0, 0.0],
                         [0.0, 1.0, 2.0],
                         [0.0, 2.0, 1.0]])  # symmetric but indefinite
        kernel = TableKernel(ts, vals)
        with pytest.raises(FactorizationError, match="jitter ladder"):
            factor_grid(kernel, TimeGrid(ts))


class TestEntrySampling:
    def test_bit_identical_repeat(self):
        f = factor_grid(BrownianKernel(), TimeGrid.uniform(1.0, 5))
        a = sample_entry_block(f, 42, _one_id(rng.DOMAIN_ENTRY, 1, 2, 7))[0]
        b = sample_entry_block(f, 42, _one_id(rng.DOMAIN_ENTRY, 1, 2, 7))[0]
        assert a.shape == (6,)
        assert np.array_equal(a, b)

    def test_block_matches_single(self):
        f = factor_grid(FractionalBrownianKernel(0.7), TimeGrid.uniform(1.0, 4))
        iu, ju = np.triu_indices(3)
        block = sample_entry_block(f, 9, rng.stream_id(rng.DOMAIN_ENTRY, iu, ju,
                                                       np.arange(3)[:, None]))
        for p in range(3):
            for k in range(len(iu)):
                single = sample_entry_block(
                    f, 9, _one_id(rng.DOMAIN_ENTRY, int(iu[k]), int(ju[k]), p))[0]
                assert np.array_equal(block[p, k], single)

    def test_brownian_terminal_variance(self):
        f = factor_grid(BrownianKernel(), TimeGrid([0.0, 1.0]))
        ids = rng.stream_id(0, 0, 0, np.arange(100_000))
        vals = sample_entry_block(f, 77, ids)[:, 1]
        # Var X(1) = 1; sample variance within ~3 standard errors
        assert vals.var() == pytest.approx(1.0, abs=0.02)

    def test_fbm_cross_covariance(self):
        grid = TimeGrid([0.0, 0.5, 1.0])
        kern = FractionalBrownianKernel(0.3)
        f = factor_grid(kern, grid)
        ids = rng.stream_id(0, 0, 0, np.arange(100_000))
        v = sample_entry_block(f, 123, ids)
        cov = np.mean(v[:, 1] * v[:, 2])
        assert cov == pytest.approx(kern.eval(0.5, 1.0), abs=0.02)

    def test_empirical_gram_within_four_se(self):
        # exactness invariant at moderate scale for each built-in kernel
        grid = TimeGrid.uniform(1.0, 7)
        n_paths = 200_000
        for kern in (BrownianKernel(), FractionalBrownianKernel(0.3)):
            f = factor_grid(kern, grid)
            ids = rng.stream_id(0, 1, 1, np.arange(n_paths))
            v = sample_entry_block(f, 2718, ids)
            emp = v.T @ v / n_paths
            gram = kern.gram(grid.times)
            # SE of a Gaussian covariance estimate
            se = np.sqrt((np.outer(np.diag(gram), np.diag(gram)) + gram ** 2) / n_paths)
            err = np.abs(emp - gram)[1:, 1:]
            assert np.all(err <= 4.0 * se[1:, 1:]), f"{kern.kind} exceeded 4 SE"

    def test_distinct_entries_independent(self):
        f = factor_grid(BrownianKernel(), TimeGrid([0.0, 1.0]))
        ids_a = rng.stream_id(0, 0, 1, np.arange(100_000))
        ids_b = rng.stream_id(0, 1, 1, np.arange(100_000))
        a = sample_entry_block(f, 5, ids_a)[:, 1]
        b = sample_entry_block(f, 5, ids_b)[:, 1]
        assert abs(np.mean(a * b)) < 4.0 / np.sqrt(a.size)


class TestCirculant:
    def test_fgn_autocovariance_values(self):
        # lag-1 fGn autocovariance: (|2|^{2H} - 2)/2
        assert fgn_autocovariance(0.75, 1) == pytest.approx(0.5 * (2 ** 1.5 - 2), rel=1e-12)
        assert fgn_autocovariance(0.3, 1) == pytest.approx(0.5 * (2 ** 0.6 - 2), rel=1e-12)

    def test_h_half_increments_uncorrelated(self):
        grid = TimeGrid.uniform(1.0, 64)
        ids = rng.stream_id(1, 0, 0, np.arange(20_000))
        paths = _circulant_paths(0.5, grid, 11, ids)
        inc = np.diff(paths, axis=1)
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:]) / np.mean(inc ** 2)
        assert abs(lag1) < 0.01

    @pytest.mark.parametrize("hurst,expected", [
        (0.75, 0.5 * (2 ** 1.5 - 2)),
        (0.3, 0.5 * (2 ** 0.6 - 2)),
    ])
    def test_unit_lag_autocovariance(self, hurst, expected):
        # unit spacing: 8 steps of dt=1 via t_max=8
        grid = TimeGrid.uniform(8.0, 8)
        ids = rng.stream_id(1, 0, 0, np.arange(200_000))
        paths = _circulant_paths(hurst, grid, 13, ids)
        inc = np.diff(paths, axis=1)
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:])
        se = np.std(inc[:, :-1] * inc[:, 1:]) / np.sqrt(inc[:, :-1].size)
        assert abs(lag1 - expected) < 4 * se

    def test_matches_cholesky_distribution_covariance(self):
        grid = TimeGrid.uniform(1.0, 7)
        kern = FractionalBrownianKernel(0.3)
        ids = rng.stream_id(1, 0, 0, np.arange(150_000))
        v = _circulant_paths(0.3, grid, 999, ids)
        emp = v.T @ v / v.shape[0]
        gram = kern.gram(grid.times)
        se = np.sqrt((np.outer(np.diag(gram), np.diag(gram)) + gram ** 2) / v.shape[0])
        assert np.all(np.abs(emp - gram)[1:, 1:] <= 4.0 * se[1:, 1:])

    def test_single_path_interface(self):
        grid = TimeGrid.uniform(1.0, 8)
        p = _circulant_paths(0.75, grid, 3, _one_id(rng.DOMAIN_CIRCULANT, 0, 0, 5))[0]
        assert p.shape == (9,)
        assert p[0] == 0.0
        q = _circulant_paths(0.75, grid, 3, _one_id(rng.DOMAIN_CIRCULANT, 0, 0, 5))[0]
        assert np.array_equal(p, q)

    def test_tiles_match_single_rows(self, monkeypatch):
        from eigenflow import budget
        grid = TimeGrid.uniform(1.0, 6)
        ids = rng.stream_id(rng.DOMAIN_CIRCULANT, 0, 1, np.arange(7))
        monkeypatch.setattr(budget, "TILE_BYTES", 240)  # 12 entries a row: 2 rows a tile
        block = _circulant_paths(0.3, grid, 4, ids)
        for k in range(ids.size):
            assert np.array_equal(block[k], _circulant_paths(0.3, grid, 4, ids[k:k + 1])[0])
        monkeypatch.undo()
        assert np.array_equal(block, _circulant_paths(0.3, grid, 4, ids))

    def test_peak_memory_stays_near_the_output(self, traced_peak):
        # the collisions-circulant chunk: 3 paths of a 100 x 100 matrix, 16 steps
        ids = rng.stream_id(rng.DOMAIN_CIRCULANT, *np.triu_indices(100), np.arange(3)[:, None])
        sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 16),
                               "circulant")
        peak = traced_peak(sampler.draw, 5, ids)
        assert peak < 6e6  # the output is 2.1 MB

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="sampler.method = circulant does not apply"):
            path_sampler(FractionalBrownianKernel(0.5), TimeGrid([0, 0.1, 1.0]), "circulant")

    def test_indefinite_embedding_fails_hard(self, monkeypatch):
        from eigenflow import sampling
        from eigenflow.sampling import FactorizationError

        def indefinite(hurst, lags):  # unit variance, lag-1 covariance 2
            lags = np.asarray(lags)
            return (lags == 0) + 2.0 * (lags == 1)
        monkeypatch.setattr(sampling, "fgn_autocovariance", indefinite)
        with pytest.raises(FactorizationError, match=r"hurst=0\.7 on 8 steps"):
            path_sampler(FractionalBrownianKernel(0.7), TimeGrid.uniform(1.0, 8), "circulant")


class TestPathSampler:
    def test_shapes_and_determinism(self):
        grid = TimeGrid.uniform(1.0, 3)
        ids = rng.stream_id(rng.DOMAIN_ENTRY, *np.triu_indices(4), np.arange(5)[:, None])
        a = path_sampler(BrownianKernel(), grid).draw(21, ids)
        b = path_sampler(BrownianKernel(), grid).draw(21, ids)
        assert a.shape == (5, 10, 4)
        assert np.array_equal(a, b)
        # the sampler draws through the grid's factor, bit for bit
        assert np.array_equal(a, sample_entry_block(factor_grid(BrownianKernel(), grid), 21, ids))

    def test_circulant_method_requires_fbm(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="sampler.method = circulant does not apply: "
                                             ".*circulant only kernel.kind = fbm"):
            path_sampler(BrownianKernel(), grid, "circulant")

    def test_unknown_method_is_named(self):
        with pytest.raises(ValueError, match="sampler.method = quantum does not apply"):
            path_sampler(BrownianKernel(), TimeGrid.uniform(1.0, 4), "quantum")


# sha256 of both samplers' paths, drawn before either transform wrote into
# its own buffers: every bit must stay
CIRCULANT_DIGEST = "8dd8fc5fdd21fc91d8314414aa664286627a7047d308184e22130c2f161648d4"
CHOLESKY_DIGEST = "2414eb2013e90d20226844fafbbea4612d64375185558c350f62a09ec30b9ac2"


def _circulant_digest():
    id_sets = (rng.stream_id(rng.DOMAIN_CIRCULANT, 0, 1, np.arange(5)),
               rng.stream_id(rng.DOMAIN_CIRCULANT, *np.triu_indices(3),
                             np.array([0, 7])[:, None]))
    digest = hashlib.sha256()
    for hurst, steps, ids in itertools.product((0.3, 0.5, 0.75), (1, 2, 7, 16, 33), id_sets):
        paths = circulant_fbm_block(circulant_sqrt_spectrum(hurst, steps), hurst,
                                    1.0 / steps, 11, ids)
        assert paths.shape == ids.shape + (steps + 1,)
        digest.update(paths.tobytes())
    return digest.hexdigest()


class TestTransformsInPlace:
    @pytest.mark.parametrize("tile_bytes", [None, 240])  # 240: a row or two a tile
    def test_circulant_bits_over_hurst_steps_and_tiles(self, tile_bytes, monkeypatch):
        if tile_bytes is not None:
            monkeypatch.setattr(budget, "TILE_BYTES", tile_bytes)
        assert _circulant_digest() == CIRCULANT_DIGEST

    def test_cholesky_bits_around_the_gemm_tile(self):
        factor = factor_grid(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 7))
        digest = hashlib.sha256()
        for rows in (511, 512, 513, 1025):
            ids = rng.stream_id(rng.DOMAIN_ENTRY, 0, 1, np.arange(rows))
            paths = sample_entry_block(factor, 5, ids)
            assert paths.shape == (rows, 8)
            digest.update(paths.tobytes())
        ids = rng.stream_id(rng.DOMAIN_ENTRY, *np.triu_indices(5), np.arange(41)[:, None])
        digest.update(sample_entry_block(factor, 5, ids).tobytes())  # 615 rows, 2-D ids
        assert digest.hexdigest() == CHOLESKY_DIGEST

    def test_apply_factor_writes_into_the_draw(self, traced_peak):
        # one residual-fbm path at n = 64: 2080 rows of 25 normals, 0.42 MB
        lower = factor_grid(FractionalBrownianKernel(0.75), TimeGrid.uniform(1.0, 24)).lower
        z = np.random.default_rng(3).normal(size=(2080, 25))
        lt = np.ascontiguousarray(lower.T)
        expected = np.concatenate([z[lo:lo + 512] @ lt for lo in range(0, 2048, 512)]
                                  + [(np.vstack([z[2048:], np.zeros((480, 25))]) @ lt)[:32]])
        # the padded remainder and its product, 0.1 MB each, and no second draw
        assert traced_peak(sampling._apply_factor, z.copy(), lower) < 0.3e6
        out = sampling._apply_factor(z, lower)
        assert out is z and np.array_equal(out, expected)

    def test_peak_memory_of_one_collisions_path_draw(self, traced_peak):
        # one collisions-circulant path: 5050 entries of 16 steps, 0.69 MB;
        # a 512-row tile holds its normals and the call's complex buffer,
        # 0.13 and 0.26 MB
        ids = rng.stream_id(rng.DOMAIN_CIRCULANT, *np.triu_indices(100), 0)
        sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid.uniform(1.0, 16),
                               "circulant")
        assert traced_peak(sampler.draw, 5, ids) < 1.75e6
