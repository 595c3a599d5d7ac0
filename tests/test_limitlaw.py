"""Limit laws: closed forms, the Burgers fixed point, densities, moments."""

import numpy as np
import pytest
from scipy.integrate import quad

from eigenflow.limitlaw import (AtomicMeasure, BurgersError, BurgersEvolved,
                                Semicircle, _newton_fixed_point, _subordination_start,
                                burgers_solve, law_at_time, limit_stieltjes,
                                semicircle_stieltjes)
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel
from oracles import moment_from_stieltjes

GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


class TestSemicircleStieltjes:
    def test_value_at_i(self):
        # closed form at tau=1, z=i equals i (sqrt(5)-1)/2; cross-checked
        # below against direct quadrature of the semicircle density
        assert semicircle_stieltjes(1.0, 1j) == pytest.approx(GOLDEN * 1j, abs=1e-14)

    def test_quadrature_oracle(self):
        z = 0.4 + 0.9j
        tau = 1.3
        law = Semicircle(0.0, tau)

        def integrand_re(x):
            return (law.pdf(x) / (x - z)).real

        def integrand_im(x):
            return (law.pdf(x) / (x - z)).imag

        r = 2 * np.sqrt(tau)
        re, _ = quad(integrand_re, -r, r, limit=400, epsabs=1e-12)
        im, _ = quad(integrand_im, -r, r, limit=400, epsabs=1e-12)
        assert semicircle_stieltjes(tau, z) == pytest.approx(re + 1j * im, abs=1e-8)

    def test_far_field(self):
        z = 2000j
        assert semicircle_stieltjes(1.0, z) == pytest.approx(-1 / z, rel=1e-5)

    def test_tau_zero_is_point_mass(self):
        assert semicircle_stieltjes(0.0, 1j) == pytest.approx(1j, rel=1e-15)

    def test_small_tau_limit(self):
        assert semicircle_stieltjes(1e-12, 1j) == pytest.approx(1j, rel=1e-10)

    def test_herglotz_wide_grid(self):
        res = np.linspace(-5, 5, 20)
        ims = np.linspace(0.05, 5, 20)
        for tau in (0.1, 1.0, 10.0):
            for re in res:
                for im in ims:
                    assert semicircle_stieltjes(tau, complex(re, im)).imag > 0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            semicircle_stieltjes(1.0, -1j)


class TestBurgersSolver:
    def test_point_mass_matches_closed_form(self):
        mu0 = AtomicMeasure.point_mass(0.0)
        for tau in (0.1, 1.0, 4.0):
            for z in (1j, 1 + 1j, -2 + 0.5j, 0.1j):
                direct = burgers_solve(mu0, tau, z)
                assert abs(direct - semicircle_stieltjes(tau, z)) <= 1e-10

    def test_translation_equivariance(self):
        for a in (-1.5, 0.7):
            mu0 = AtomicMeasure.point_mass(a)
            for tau in (0.5, 2.0):
                z = 0.3 + 0.8j
                assert abs(burgers_solve(mu0, tau, z)
                           - semicircle_stieltjes(tau, z - a)) <= 1e-10

    def test_tau_zero_returns_initial_transform(self):
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        z = 0.2 + 0.4j
        assert burgers_solve(mu0, 0.0, z) == mu0.stieltjes(z)

    def test_fixed_point_residual(self):
        mu0 = AtomicMeasure(np.array([-1.0, 0.3, 1.0]), np.array([0.2, 0.5, 0.3]))
        gen = np.random.default_rng(3)
        for _ in range(50):
            tau = float(gen.uniform(0.05, 5.0))
            z = complex(gen.uniform(-3, 3), gen.uniform(0.05, 3.0))
            f = burgers_solve(mu0, tau, z)
            resid = abs(f - mu0.stieltjes(z + tau * f))
            assert resid <= 1e-12 * (1.0 + abs(f))
            assert f.imag > 0
            assert (z + tau * f).imag > 0

    def test_subordination_start_matches_cubic(self):
        # for the +-1 start omega = z + tau F is the root in the upper
        # half-plane of omega^3 - z omega^2 - (1 - tau) omega + z = 0; the
        # points checked are those where Newton from F_0(z) fails
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        checked = 0
        for tau in (0.1, 1.0, 10.0):
            for im in (1e-3, 1e-6, 1e-9):
                for re in np.linspace(-4.0, 4.0, 17):
                    z = complex(re, im)
                    try:
                        _newton_fixed_point(mu0, tau, z, mu0.stieltjes(z))
                        continue
                    except BurgersError:
                        checked += 1
                    roots = np.roots([1.0, -z, -(1.0 - tau), z])
                    exact = (roots[np.argmax(roots.imag)] - z) / tau
                    f = burgers_solve(mu0, tau, z)
                    assert abs(f - exact) <= 1e-13 * (1.0 + abs(f)), (tau, z)
        assert checked > 0

    def test_subordination_start_skips_a_root_lifted_by_rounding(self):
        # LAPACK puts the root next to the atom at -1e308 at imaginary part
        # 8.3e291, far above omega* ~ 1i; its residual is about 1e308
        mu0 = AtomicMeasure(np.array([-1e308, 1e308]), np.array([0.5, 0.5]))
        assert _subordination_start(mu0, 0.5, 1j) == mu0.stieltjes(1j)

    def test_near_axis_multi_atom_starts(self):
        gen = np.random.default_rng(2024)
        for _ in range(200):
            m = int(gen.integers(2, 31))
            mu0 = AtomicMeasure(gen.normal(size=m), gen.dirichlet(np.ones(m)))
            tau = float(10.0 ** gen.uniform(-3.0, np.log10(30.0)))
            spread = 2.0 * np.sqrt(tau)
            z = complex(gen.uniform(mu0.atoms[0] - spread, mu0.atoms[-1] + spread),
                        10.0 ** gen.uniform(-9.0, -2.0))
            f = burgers_solve(mu0, tau, z)
            assert abs(f - mu0.stieltjes(z + tau * f)) <= 1e-12 * (1.0 + abs(f))
            assert f.imag > 0
            assert (z + tau * f).imag > 0

    def test_herglotz_two_atom_grid(self):
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        for tau in (0.1, 1.0, 10.0):
            for re in np.linspace(-4, 4, 20):
                for im in np.linspace(0.1, 4, 20):
                    f = limit_stieltjes(mu0, tau, complex(re, im))
                    assert f.imag > 0

    def test_moments_of_evolved_point_mass(self):
        # second moment tau, fourth moment 2 tau^2
        mu0 = AtomicMeasure.point_mass(0.0)
        for tau in (0.3, 1.0, 2.5):
            assert moment_from_stieltjes(mu0, tau, 0) == pytest.approx(1.0, abs=1e-10)
            assert moment_from_stieltjes(mu0, tau, 1) == pytest.approx(0.0, abs=1e-10)
            assert moment_from_stieltjes(mu0, tau, 2) == pytest.approx(tau, abs=1e-6)
            assert moment_from_stieltjes(mu0, tau, 4) == pytest.approx(2 * tau ** 2, abs=1e-5)

    def test_moments_of_two_atom_start(self):
        # free additive evolution preserves the mean and adds tau variance
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        tau = 0.7
        assert moment_from_stieltjes(mu0, tau, 1) == pytest.approx(0.0, abs=1e-8)
        assert moment_from_stieltjes(mu0, tau, 2) == pytest.approx(1.0 + tau, abs=1e-6)


class TestLimitAtTime:
    def test_fbm_time_one(self):
        k = FractionalBrownianKernel(0.75)
        mu0 = AtomicMeasure.point_mass(0.0)
        tau = float(k.diag(1.0))
        assert limit_stieltjes(mu0, tau, 1j) == pytest.approx(GOLDEN * 1j, abs=1e-12)

    def test_brownian_time_four(self):
        k = BrownianKernel()
        mu0 = AtomicMeasure.point_mass(0.0)
        got = limit_stieltjes(mu0, float(k.diag(4.0)), 2j)
        assert got == pytest.approx(semicircle_stieltjes(4.0, 2j), abs=1e-12)

    def test_time_zero_returns_initial(self):
        k = FractionalBrownianKernel(0.3)
        mu0 = AtomicMeasure(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        z = 1j
        assert law_at_time(k, mu0, 0.0).stieltjes(z) == mu0.stieltjes(z)

    def test_time_zero_one_atom_has_one_evaluator(self):
        # the one-atom closed form divides in Python and mu0.stieltjes in
        # numpy; at tau = 0 both routes must give mu0's own value, bit for bit
        mu0 = AtomicMeasure.point_mass(0.0)
        z = 0.5 + 0.1j
        got = limit_stieltjes(mu0, 0.0, z)
        assert got == law_at_time(BrownianKernel(), mu0, 0.0).stieltjes(z)
        assert got.imag == 0.3846153846153846


class TestSemicircleLaw:
    def test_density_and_cdf_center(self):
        law = Semicircle(0.0, 1.0)
        pdf, cdf = float(law.pdf(0.0)), float(law.cdf(0.0))
        assert pdf == pytest.approx(1 / np.pi, rel=1e-12)
        assert cdf == pytest.approx(0.5, abs=1e-14)

    def test_support_endpoints(self):
        law = Semicircle(0.0, 1.0)
        assert law.pdf(2.0) == 0.0
        assert law.pdf(-2.0) == 0.0
        assert law.cdf(-2.0) == 0.0
        assert law.cdf(2.0) == 1.0

    def test_mass_and_moments_closed_form(self):
        law = Semicircle(0.5, 2.0)
        mass, _ = quad(law.pdf, *law.support, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)
        m2, _ = quad(lambda x: (x - 0.5) ** 2 * law.pdf(x), *law.support, limit=200)
        assert m2 == pytest.approx(2.0, abs=1e-9)
        m4, _ = quad(lambda x: (x - 0.5) ** 4 * law.pdf(x), *law.support, limit=200)
        assert m4 == pytest.approx(2 * 2.0 ** 2, abs=1e-8)

    def test_support_matches_two_sigma(self):
        law = Semicircle(0.0, 4.0)
        assert law.support == (-4.0, 4.0)


class TestBurgersEvolvedLaw:
    def test_density_matches_semicircle(self):
        law = BurgersEvolved(initial=AtomicMeasure.point_mass(0.0), tau=1.0)
        ref = Semicircle(0.0, 1.0)
        for x in (-2.0, -1.99, -1.5, -0.3, 0.0, 0.9, 1.99, 2.0):
            assert law.pdf(x) == pytest.approx(ref.pdf(x), abs=1e-5)
        assert law.pdf(0.0) == pytest.approx(1 / np.pi, abs=1e-5)

    def test_cdf_matches_semicircle(self):
        law = BurgersEvolved(initial=AtomicMeasure.point_mass(0.0), tau=1.0)
        ref = Semicircle(0.0, 1.0)
        for x in (-1.0, 0.0, 1.3):
            assert law.cdf(x) == pytest.approx(ref.cdf(x), abs=2e-5)

    def test_mass_within_inversion_accuracy(self):
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        law = BurgersEvolved(initial=mu0, tau=0.5)
        lo, hi = law.support
        mass, _ = quad(law.pdf, lo, hi, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_density_vanishes_at_cusp(self):
        # at tau = 1 the two halves of the +-1 start touch at 0, where the
        # density grows like |x|^(1/3)
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert BurgersEvolved(initial=mu0, tau=1.0).pdf(0.0) <= 1e-4

    def test_tau_zero_cdf_is_step(self):
        # the law at tau = 0 is mu_0 itself
        law = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert law.cdf(-0.5) == 0.0
        assert law.cdf(0.5) == 0.5
        assert law.cdf(1.5) == 1.0

    def test_law_at_time_dispatch(self):
        k = BrownianKernel()
        assert isinstance(law_at_time(k, AtomicMeasure.point_mass(0.0), 1.0), Semicircle)
        two = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert isinstance(law_at_time(k, two, 1.0), BurgersEvolved)
        assert law_at_time(k, two, 0.0) is two

    @pytest.mark.parametrize("tau", [0.0, -0.5, float("nan")])
    def test_requires_positive_tau(self, tau):
        # tau = 0 is mu_0 itself, which law_at_time returns as it is
        mu0 = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="tau must be positive"):
            BurgersEvolved(initial=mu0, tau=tau)


TWO_ATOMS = AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
THREE_ATOMS = AtomicMeasure(np.array([-2.0, 0.3, 1.0]), np.array([0.2, 0.5, 0.3]))


@pytest.fixture(params=[(TWO_ATOMS, 0.0625), (TWO_ATOMS, 0.5), (TWO_ATOMS, 1.0),
                        (THREE_ATOMS, 0.05)],
                ids=["two-0.0625", "two-0.5", "two-1", "three-0.05"])
def evolved(request):
    mu0, tau = request.param
    return BurgersEvolved(initial=mu0, tau=tau)


def _assert_block_equals_elements(law):
    lo, hi = law.support
    x = np.linspace(lo - 0.1, hi + 0.1, 301)
    for name in ("pdf", "cdf"):
        evaluate = getattr(law, name)
        block = evaluate(x)
        assert np.array_equal(block, [evaluate(xi) for xi in x]), name
        assert np.array_equal(evaluate(x[::-1].reshape(7, 43)), block[::-1].reshape(7, 43)), name


class TestBoundaryExactness:
    """The closed-form CDF against its own density and the known moments."""

    def test_block_equals_elements(self, evolved):
        # bit for bit, so a value never depends on the rest of its block
        _assert_block_equals_elements(evolved)

    def test_block_equals_elements_fifty_atoms(self):
        gen = np.random.default_rng(50)
        mu0 = AtomicMeasure(3.0 * gen.normal(size=50), gen.dirichlet(np.ones(50)))
        _assert_block_equals_elements(BurgersEvolved(initial=mu0, tau=0.2))

    def test_cdf_is_zero_and_one_off_support(self, evolved):
        lo, hi = evolved.support
        assert np.all(evolved.cdf(np.linspace(lo - 3.0, lo, 50)) == 0.0)
        assert np.all(evolved.cdf(np.linspace(hi, hi + 3.0, 50)) == 1.0)

    def test_cdf_nondecreasing(self, evolved):
        lo, hi = evolved.support
        assert np.all(np.diff(evolved.cdf(np.linspace(lo - 0.1, hi + 0.1, 2001))) >= 0.0)

    def test_cdf_increments_match_density_quadrature(self, evolved):
        lo, hi = evolved.support
        for a, b in ((lo, hi), (lo + 0.3 * (hi - lo), lo + 0.55 * (hi - lo))):
            mass, _ = quad(evolved.pdf, a, b, limit=200, epsabs=1e-10, epsrel=1e-10)
            assert evolved.cdf(b) - evolved.cdf(a) == pytest.approx(mass, abs=1e-9)

    def test_mean_and_variance_from_cdf(self, evolved):
        # E X = lo + int (1 - F) and E (X - lo)^2 = 2 int (x - lo)(1 - F)
        lo, hi = evolved.support
        tail, _ = quad(lambda x: 1.0 - evolved.cdf(x), lo, hi,
                       limit=200, epsabs=1e-11, epsrel=1e-11)
        second, _ = quad(lambda x: 2.0 * (x - lo) * (1.0 - evolved.cdf(x)), lo, hi,
                         limit=200, epsabs=1e-11, epsrel=1e-11)
        mean, var = lo + tail, second - tail ** 2
        atoms, weights = evolved.initial.atoms, evolved.initial.weights
        mean0 = weights @ atoms
        assert mean == pytest.approx(mean0, abs=1e-8)
        assert var == pytest.approx(weights @ (atoms - mean0) ** 2 + evolved.tau, abs=1e-8)
        assert moment_from_stieltjes(evolved.initial, evolved.tau, 1) == pytest.approx(
            mean, abs=1e-6)
        assert moment_from_stieltjes(evolved.initial, evolved.tau, 2) == pytest.approx(
            var + mean ** 2, abs=1e-6)


class TestAtomicMeasure:
    def test_from_eigenvalues_merges_duplicates(self):
        mu = AtomicMeasure.from_eigenvalues([1.0, 1.0, -1.0, 0.0])
        assert np.array_equal(mu.atoms, [-1.0, 0.0, 1.0])
        assert np.allclose(mu.weights, [0.25, 0.25, 0.5])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_cdf(self):
        mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        assert mu.cdf(-0.1) == 0.0
        assert mu.cdf(0.0) == 0.25
        assert mu.cdf(2.0) == 1.0
