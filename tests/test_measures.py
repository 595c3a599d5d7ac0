"""Empirical spectral measures as arrays: bilinear form and Kolmogorov distance."""

import numpy as np
import pytest

from eigenflow.limitlaw import AtomicMeasure, BurgersEvolved, Semicircle
from eigenflow.measures import divided_difference_stack, kolmogorov_distance
from eigenflow.testfunctions import GaussianBump, SmoothBump, TruncatedPolynomial


class TestDividedDifference:
    def test_single_atom_gives_second_derivative(self):
        f = GaussianBump()
        assert divided_difference_stack(np.array([0.37]), f) == pytest.approx(f.d2(0.37),
                                                                      rel=1e-12)

    def test_quadratic_gives_constant_two(self):
        f = TruncatedPolynomial([0.0, 0.0, 1.0], cutoff_width=100.0)
        assert divided_difference_stack(np.array([0.0, 1.0]), f) == pytest.approx(2.0, abs=1e-8)

    def test_matches_bruteforce_double_loop(self):
        gen = np.random.default_rng(4)
        f = SmoothBump()
        atoms = np.concatenate([gen.normal(size=9), [0.5, 0.5 + 1e-9]])
        n = atoms.size
        total = 0.0
        for x in atoms:
            for y in atoms:
                if abs(x - y) > 1e-6 * (1 + abs(x) + abs(y)):
                    total += (f.d1(x) - f.d1(y)) / (x - y)
                else:
                    total += f.d2((x + y) / 2)
        assert divided_difference_stack(atoms, f) == pytest.approx(total / n ** 2, rel=1e-12)

    def test_symmetric_under_permutation(self):
        gen = np.random.default_rng(5)
        atoms = gen.normal(size=12)
        f = GaussianBump()
        a = divided_difference_stack(np.sort(atoms), f)
        b = divided_difference_stack(np.sort(atoms[::-1]), f)
        assert a == b

    def test_stable_under_switch_halving(self):
        gen = np.random.default_rng(6)
        atoms = gen.normal(size=15)
        f = GaussianBump()
        x = np.sort(atoms)
        base = divided_difference_stack(x, f)

        # recompute with the threshold halved via the stack helper trick:
        # shrink coordinates so the relative switch halves
        d1 = f.d1(x)
        diff = x[:, None] - x[None, :]
        switch = 0.5e-6 * (1.0 + np.abs(x)[:, None] + np.abs(x)[None, :])
        far = np.abs(diff) > switch
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (d1[:, None] - d1[None, :]) / diff
        mid = f.d2(0.5 * (x[:, None] + x[None, :]))
        halved = float(np.where(far, quot, mid).mean())
        assert abs(base - halved) < 1e-8

    def test_stack_matches_scalar(self):
        gen = np.random.default_rng(7)
        lam = gen.normal(size=(3, 4, 6))
        f = GaussianBump()
        stacked = divided_difference_stack(lam, f)
        for i in range(3):
            for k in range(4):
                assert stacked[i, k] == pytest.approx(
                    divided_difference_stack(np.sort(lam[i, k]), f), rel=1e-12)


class TestKolmogorov:
    def test_quantile_construction(self):
        law = Semicircle(0.0, 1.0)
        n = 64
        # invert the cdf at the mid-quantiles by bisection
        qs = (np.arange(n) + 0.5) / n
        atoms = []
        for q in qs:
            lo, hi = -2.0, 2.0
            for _ in range(80):
                mid = (lo + hi) / 2
                if law.cdf(mid) < q:
                    lo = mid
                else:
                    hi = mid
            atoms.append(mid)
        d = kolmogorov_distance(np.array(atoms), law)
        assert d == pytest.approx(1.0 / (2 * n), abs=1e-6)

    def test_point_mass_vs_semicircle(self):
        d = kolmogorov_distance(np.zeros(100), Semicircle(0.0, 1.0))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_identical_atomic_measures(self):
        # exactly 0: the t = 0 law reads the same k/n as the empirical side
        for atoms in (np.array([-1.0, 0.0, 2.0]), np.arange(5.0), np.arange(20.0)):
            law = BurgersEvolved(initial=AtomicMeasure.from_eigenvalues(atoms), tau=0.0)
            assert kolmogorov_distance(atoms, law) == 0.0, atoms.size

    def test_atomic_mismatch(self):
        law = BurgersEvolved(initial=AtomicMeasure.point_mass(0.0), tau=0.0)
        d = kolmogorov_distance(np.array([1.0]), law)
        assert d == 1.0

    def test_block_matches_rows(self):
        gen = np.random.default_rng(8)
        spectra = gen.normal(size=(40, 25))
        two = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        for law in (Semicircle(0.3, 1.5), BurgersEvolved(initial=two, tau=0.25),
                    BurgersEvolved(initial=AtomicMeasure.from_eigenvalues(spectra[0]), tau=0.0)):
            block = kolmogorov_distance(spectra, law)
            assert block.shape == (40,)
            assert np.array_equal(block, [kolmogorov_distance(row, law) for row in spectra])

    def test_atomic_atoms_of_both_measures(self):
        # F_law jumps 0.2 at -1 and 0.8 at 3.  Against {0, 5} the sup 0.5 sits
        # at 3, an atom only the law has; against {-1, 3} it is 0.3 on [-1, 3)
        law = BurgersEvolved(initial=AtomicMeasure(np.array([-1.0, 3.0]),
                                                   np.array([0.2, 0.8])), tau=0.0)
        d = kolmogorov_distance(np.array([[5.0, 0.0], [3.0, -1.0]]), law)
        assert d == pytest.approx([0.5, 0.3], abs=1e-15)

