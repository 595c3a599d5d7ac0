"""Covariance kernels: closed forms, regularity checkers, Gram validity."""

import numpy as np
import pytest

from eigenflow.grids import TimeGrid
from eigenflow.kernels import (BrownianKernel, FractionalBrownianKernel, KernelDomainError,
                               TableKernel, check_h1, check_h2)

BUILTIN_KERNELS = [
    BrownianKernel(),
    FractionalBrownianKernel(0.25),
    FractionalBrownianKernel(0.3),
    FractionalBrownianKernel(0.5),
    FractionalBrownianKernel(0.75),
]


class TestEval:
    def test_brownian_is_min(self):
        k = BrownianKernel()
        assert k.eval(1.0, 2.0) == 1.0
        assert k.eval(3.5, 0.25) == 0.25

    def test_fbm_half_reduces_to_brownian(self):
        k = FractionalBrownianKernel(0.5)
        assert k.eval(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_fbm_formula_value(self):
        # direct arithmetic: (1 + 2^1.5 - 1)/2 = 2^0.5
        k = FractionalBrownianKernel(0.75)
        expected = 0.5 * (1.0 + 2.0 ** 1.5 - 1.0)
        assert k.eval(1.0, 2.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("kernel", BUILTIN_KERNELS, ids=lambda k: k.kind + str(getattr(k, "hurst", "")))
    def test_symmetry_bit_identical(self, kernel):
        gen = np.random.default_rng(11)
        s = gen.uniform(0, 5, size=200)
        t = gen.uniform(0, 5, size=200)
        assert np.array_equal(kernel.eval(s, t), kernel.eval(t, s))

    def test_negative_time_rejected(self):
        with pytest.raises(KernelDomainError):
            BrownianKernel().eval(-0.1, 1.0)

    def test_hurst_domain(self):
        with pytest.raises(ValueError):
            FractionalBrownianKernel(1.0)


class TestTableKernel:
    @staticmethod
    def _rank_one_table():
        # R(s,t) = s*t sampled on a grid; bilinear interp is exact for it
        ts = np.linspace(0.0, 2.0, 9)
        return TableKernel(ts, np.outer(ts, ts))

    def test_interpolates_exactly_on_bilinear_function(self):
        k = self._rank_one_table()
        gen = np.random.default_rng(3)
        s = gen.uniform(0, 2, 50)
        t = gen.uniform(0, 2, 50)
        assert np.allclose(k.eval(s, t), s * t, atol=1e-14)

    def test_out_of_domain_is_error_not_extrapolation(self):
        k = self._rank_one_table()
        with pytest.raises(KernelDomainError):
            k.eval(0.5, 2.5)

    def test_asymmetric_table_rejected(self):
        ts = np.linspace(0, 1, 3)
        vals = np.outer(ts, ts)
        vals[0, 2] += 1.0
        with pytest.raises(ValueError):
            TableKernel(ts, vals)

    def test_symmetry_bit_identical(self):
        k = self._rank_one_table()
        gen = np.random.default_rng(5)
        s = gen.uniform(0, 2, 100)
        t = gen.uniform(0, 2, 100)
        assert np.array_equal(k.eval(s, t), k.eval(t, s))

    def test_csv_loader_roundtrip(self, tmp_path):
        from eigenflow.kernels import load_table_kernel, make_kernel
        ts = np.linspace(0.0, 1.0, 5)
        lines = ["s,t,value"]
        for s in ts:
            for t in ts:
                lines.append(f"{s},{t},{min(s, t)}")
        p = tmp_path / "table.csv"
        p.write_text("\n".join(lines) + "\n")
        k = load_table_kernel(str(p))
        assert k.eval(0.25, 0.75) == pytest.approx(0.25, abs=1e-12)
        k2 = make_kernel("table", table_path=str(p))
        assert k2.eval(0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_csv_loader_rejects_bad_header(self, tmp_path):
        from eigenflow.kernels import load_table_kernel
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_table_kernel(str(p))

    def test_csv_loader_rejects_incomplete_grid(self, tmp_path):
        from eigenflow.kernels import load_table_kernel
        p = tmp_path / "partial.csv"
        p.write_text("s,t,value\n0,0,0\n0,1,0\n1,0,0\n")
        with pytest.raises(ValueError, match="missing"):
            load_table_kernel(str(p))


class TestDiagDerivative:
    def test_diag_increment_telescopes(self):
        k = FractionalBrownianKernel(0.3)
        # exact integral of the rate across the s=0 singularity
        assert k.diag_increment(0.0, 2.0) == pytest.approx(2.0 ** 0.6, rel=1e-15)


class TestGram:
    @pytest.mark.parametrize("kernel", BUILTIN_KERNELS,
                             ids=lambda k: k.kind + str(getattr(k, "hurst", "")))
    @pytest.mark.parametrize("points", [8, 33, 64])
    def test_gram_symmetric_psd(self, kernel, points):
        grid = TimeGrid.uniform(2.0, points - 1)
        gram = kernel.gram(grid.times)
        assert np.array_equal(gram, gram.T)
        w = np.linalg.eigvalsh(gram)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)
        assert np.all(np.diag(gram) >= 0)


class TestH2:
    def test_fbm_recovers_double_hurst(self):
        grid = TimeGrid.uniform(1.0, 31)
        for hurst in (0.3, 0.5, 0.75):
            rep = check_h2(FractionalBrownianKernel(hurst), grid)
            assert rep.passed
            assert rep.gamma_hat == pytest.approx(2 * hurst, abs=1e-2)
            assert rep.kappa_hat == pytest.approx(1.0, abs=1e-2)

    def test_brownian(self):
        rep = check_h2(BrownianKernel(), TimeGrid.uniform(1.0, 16))
        assert rep.passed
        assert rep.gamma_hat == pytest.approx(1.0, abs=1e-6)
        assert rep.kappa_hat == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_table_quadratic_increments(self):
        ts = np.linspace(0.0, 1.0, 9)
        k = TableKernel(ts, np.outer(ts, ts))
        rep = check_h2(k, TimeGrid.from_times(ts))
        assert rep.passed
        assert rep.gamma_hat == pytest.approx(2.0, abs=1e-6)

    def test_degenerate_kernel(self):
        ts = np.linspace(0.0, 1.0, 5)
        k = TableKernel(ts, np.ones((5, 5)))
        rep = check_h2(k, TimeGrid.from_times(ts))
        assert rep.passed
        assert rep.gamma_hat == np.inf


class TestH1:
    def test_brownian_alpha2(self):
        rep = check_h1(BrownianKernel(), TimeGrid.uniform(1.0, 8), 2.0)
        assert rep.passed
        assert rep.sup_integral == pytest.approx(1.0, rel=1e-10)

    def test_fbm_smooth_regime(self):
        rep = check_h1(FractionalBrownianKernel(0.75), TimeGrid.uniform(1.0, 8), 1.2)
        assert rep.passed
        assert rep.sup_integral < 2.0

    def test_fbm_rough_regime_integrable_alpha(self):
        # |dR/ds| ~ s^{2H-1}: alpha-integrable since 1.1 * 0.5 < 1
        rep = check_h1(FractionalBrownianKernel(0.25), TimeGrid.uniform(1.0, 8), 1.1)
        assert rep.passed
        assert np.isfinite(rep.sup_integral)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            check_h1(BrownianKernel(), TimeGrid.uniform(1.0, 4), 1.0)
