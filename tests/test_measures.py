"""Empirical spectral measures as arrays: bilinear form and Kolmogorov distance."""

import hashlib

import numpy as np
import pytest

from eigenflow import budget
from eigenflow.limitlaw import AtomicMeasure, BurgersEvolved, Semicircle
from eigenflow.measures import divided_difference_stack, kolmogorov_distance
from eigenflow.testfunctions import BUILTINS, TestFunction, gaussian_bump, smooth_bump


def full_matrix_divided_difference(lambdas, f):
    """Reference: the mean of the whole n x n pair matrix, f'' on every
    midpoint, switching to it where |x - y| <= 1e-6 (1 + |x| + |y|)."""
    x = np.asarray(lambdas, dtype=float)
    d1 = f.d1(x)
    diff = x[..., :, None] - x[..., None, :]
    switch = 1e-6 * (1.0 + np.abs(x)[..., :, None] + np.abs(x)[..., None, :])
    far = np.abs(diff) > switch
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (d1[..., :, None] - d1[..., None, :]) / diff
    mid = f.d2(0.5 * (x[..., :, None] + x[..., None, :]))
    return np.where(far, quot, mid).mean(axis=(-2, -1))


def _switch_pairs():
    """Spectra holding a pair just inside and a pair just outside the switch."""
    x, y = 0.3, -1.2
    inside = 0.9e-6 * (1.0 + 2.0 * abs(x))
    outside = 1.1e-6 * (1.0 + 2.0 * abs(y))
    return np.array([[x, x + inside, y, y + outside, 2.0]])


class TestDividedDifference:
    def test_single_atom_gives_second_derivative(self):
        f = gaussian_bump
        assert divided_difference_stack(np.array([0.37]), f) == pytest.approx(f.d2(0.37),
                                                                      rel=1e-12)

    def test_quadratic_gives_constant_two(self):
        f = TestFunction("quadratic", lambda x: x ** 2, lambda x: 2.0 * x,
                         lambda x: np.full_like(x, 2.0))
        assert divided_difference_stack(np.array([0.0, 1.0]), f) == pytest.approx(2.0, abs=1e-8)

    def test_matches_bruteforce_double_loop(self):
        gen = np.random.default_rng(4)
        f = smooth_bump
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
        f = gaussian_bump
        a = divided_difference_stack(np.sort(atoms), f)
        b = divided_difference_stack(np.sort(atoms[::-1]), f)
        assert a == b

    def test_stable_under_switch_halving(self):
        gen = np.random.default_rng(6)
        atoms = gen.normal(size=15)
        f = gaussian_bump
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
        f = gaussian_bump
        stacked = divided_difference_stack(lam, f)
        for i in range(3):
            for k in range(4):
                assert stacked[i, k] == pytest.approx(
                    divided_difference_stack(np.sort(lam[i, k]), f), rel=1e-12)


class TestTriangleOnlyForm:
    """The i < j form against the full-matrix reference, and its tiling."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("case", ["zero_spectrum", "switch_pairs", "random_block"])
    def test_matches_full_matrix_reference(self, name, case):
        f = BUILTINS[name]
        lam = {"zero_spectrum": np.zeros((2, 3, 64)),  # t = 0: every pair coincides
               "switch_pairs": _switch_pairs(),
               "random_block": np.random.default_rng(8).normal(size=(6, 25, 64))}[case]
        ref = full_matrix_divided_difference(lam, f)
        got = divided_difference_stack(lam, f)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_tiles_match_single_rows(self, monkeypatch):
        monkeypatch.setattr(budget, "TILE_BYTES", 400)  # 15 pairs a row: 3 rows a tile
        lam = np.random.default_rng(9).normal(size=(4, 5, 6))
        lam[1, 2] = 0.0
        block = divided_difference_stack(lam, smooth_bump)
        for i in range(4):
            for k in range(5):
                assert block[i, k] == divided_difference_stack(lam[i, k], smooth_bump)

    def test_peak_memory_is_per_tile(self, traced_peak):
        # the residual-fbm chunk at n = 64: 6 paths, 25 grid times
        lam = np.random.default_rng(10).normal(size=(6, 25, 64))
        assert traced_peak(divided_difference_stack, lam, gaussian_bump) < 4e6

    def test_peak_memory_of_one_residual_path(self, traced_peak):
        # one residual-fbm path at n = 64: 25 spectra, 2016 pairs each, in
        # tiles of 8 spectra; three reused pair buffers of 0.13 MB each
        lam = np.random.default_rng(11).normal(size=(25, 64))
        assert traced_peak(divided_difference_stack, lam, gaussian_bump) < 0.6e6


# sha256 of the divided differences of every built-in, computed before the
# tile loop wrote into its own buffers: every bit must stay
DIVIDED_DIFFERENCE_DIGEST = "3591dba5dc9a009f9b79d55a02afad1dd3960f85950c34ea5a190900cbf27641"


def test_divided_difference_bits_over_ties_and_sizes():
    gen = np.random.default_rng(12)
    digest = hashlib.sha256()
    for n in (1, 2, 3, 8, 64):
        lam = gen.normal(size=(4, 3, n))
        lam[0, 0] = 0.0                                  # all-zero spectrum
        lam[1, :, 1::2] = lam[1, :, ::2][..., :n // 2]  # exact ties
        lam[2, :, 1::2] = lam[2, :, ::2][..., :n // 2] * (1.0 + 1e-9)  # near ties
        for name in sorted(BUILTINS):
            dd = divided_difference_stack(lam, BUILTINS[name])
            assert dd.shape == (4, 3)
            digest.update(dd.tobytes())
    assert digest.hexdigest() == DIVIDED_DIFFERENCE_DIGEST


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
            law = AtomicMeasure.from_eigenvalues(atoms)
            assert kolmogorov_distance(atoms, law) == 0.0, atoms.size

    def test_atomic_mismatch(self):
        law = AtomicMeasure.point_mass(0.0)
        d = kolmogorov_distance(np.array([1.0]), law)
        assert d == 1.0

    def test_block_matches_rows(self):
        gen = np.random.default_rng(8)
        spectra = gen.normal(size=(40, 25))
        two = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        for law in (Semicircle(0.3, 1.5), BurgersEvolved(initial=two, tau=0.25),
                    AtomicMeasure.from_eigenvalues(spectra[0])):
            block = kolmogorov_distance(spectra, law)
            assert block.shape == (40,)
            assert np.array_equal(block, [kolmogorov_distance(row, law) for row in spectra])

    def test_atomic_atoms_of_both_measures(self):
        # F_law jumps 0.2 at -1 and 0.8 at 3.  Against {0, 5} the sup 0.5 sits
        # at 3, an atom only the law has; against {-1, 3} it is 0.3 on [-1, 3)
        law = AtomicMeasure(np.array([-1.0, 3.0]), np.array([0.2, 0.8]))
        d = kolmogorov_distance(np.array([[5.0, 0.0], [3.0, -1.0]]), law)
        assert d == pytest.approx([0.5, 0.3], abs=1e-15)

