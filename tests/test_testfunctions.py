"""Test-function library: derivative correctness and boundedness."""

import numpy as np
import pytest

from eigenflow.testfunctions import (BUILTINS, GaussianBump, SmoothBump,
                                     TruncatedPolynomial, by_name)

FAMILIES = [
    GaussianBump(),
    GaussianBump(center=0.3, width=1.7),
    SmoothBump(),
    SmoothBump(center=-1.0, halfwidth=2.0, steepness=1.5),
    TruncatedPolynomial([0.0, 0.0, 1.0], cutoff_width=10.0),
    TruncatedPolynomial([1.0, -0.5, 0.25, 0.0, 0.125], cutoff_width=4.0),
]


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name)
class TestDerivatives:
    def test_first_two_derivatives_match_finite_differences(self, f):
        gen = np.random.default_rng(42)
        x = gen.uniform(-3.0, 3.0, size=100)
        # per-order steps balance truncation against roundoff so that
        # 1e-6 relative accuracy is attainable for every order
        stencils = {
            f.d1: (1e-6, lambda g, x, h: (g(x + h) - g(x - h)) / (2 * h)),
            f.d2: (1e-4, lambda g, x, h: (g(x + h) - 2 * g(x) + g(x - h)) / h ** 2),
        }
        fscale = np.max(np.abs(f.f(x)))
        for order, (derivative, (h, stencil)) in enumerate(stencils.items(), start=1):
            exact = derivative(x)
            approx = stencil(f.f, x, h)
            # roundoff in an order-k stencil scales with |f| eps / h^k
            scale = np.max(np.abs(exact)) + fscale + 1.0
            assert np.max(np.abs(exact - approx)) < 2e-6 * scale, \
                f"{f.name} derivative {order}"

    def test_bounded_on_wide_range(self, f):
        x = np.linspace(-50, 50, 20001)
        for evaluate in (f.f, f.d1, f.d2):
            vals = np.abs(evaluate(x))
            assert np.all(np.isfinite(vals))
            assert vals.max() < 1e3


class TestSpecificValues:
    def test_gaussian_bump_at_one(self):
        f = GaussianBump()
        assert f.f(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_truncated_polynomial_flat_region(self):
        f = TruncatedPolynomial([0.0, 0.0, 1.0], cutoff_width=10.0)
        # essentially x^2 far inside the cutoff
        assert f.f(1.0) == pytest.approx(1.0, abs=1e-7)
        assert f.d2(0.5) == pytest.approx(2.0, abs=1e-6)
        # decays beyond the cutoff scale
        assert abs(f.f(30.0)) < 1e-100

    def test_polynomial_degree_cap(self):
        with pytest.raises(ValueError):
            TruncatedPolynomial([1.0] * 6)


class TestRegistry:
    def test_builtin_names(self):
        assert sorted(BUILTINS) == ["gaussian_bump", "poly_quadratic", "smooth_bump"]
        assert by_name("gaussian_bump").name == "gaussian_bump"
        assert by_name("smooth_bump").name == "smooth_bump"
        assert by_name("poly_quadratic").name.startswith("poly(")

    def test_resolvent_literal(self):
        # the weak equation needs a real test function; resolvents are not built in
        with pytest.raises(ValueError, match="unknown test function"):
            by_name("resolvent(1+2i)")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            by_name("hat_function")
