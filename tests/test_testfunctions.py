"""Test-function library: derivative correctness, boundedness and exact bits."""

import numpy as np
import pytest

from eigenflow.testfunctions import BUILTINS, by_name, gaussian_bump, poly_quadratic

@pytest.mark.parametrize("f", BUILTINS.values(), ids=lambda f: f.name)
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
        f = gaussian_bump
        assert f.f(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_truncated_polynomial_flat_region(self):
        f = poly_quadratic
        # essentially x^2 far inside the cutoff
        assert f.f(1.0) == pytest.approx(1.0, abs=1e-7)
        assert f.d2(0.5) == pytest.approx(2.0, abs=1e-6)
        # decays beyond the cutoff scale
        assert abs(f.f(30.0)) < 1e-100

    # repr of f, f' and f'' at these points; residual and holder rows depend
    # on every bit, so a rewrite of a formula must reproduce them exactly
    GOLDEN_POINTS = (-1.3, 0.0, 0.37, 2.5, 12.0)
    GOLDEN = {
        ("gaussian_bump", "f"): ("0.18451952399298924", "1.0", "0.8720574275147192",
                                 "0.0019304541362277093", "2.8946403116483003e-63"),
        ("gaussian_bump", "d1"): ("0.47975076238177206", "-0.0", "-0.6453224963608921",
                                  "-0.009652270681138546", "-6.947136747955921e-62"),
        ("gaussian_bump", "d2"): ("0.8783129342066289", "-2.0", "-1.2665762077223781",
                                  "0.044400445133237314", "1.6615235388861244e-60"),
        ("smooth_bump", "f"): ("0.34439189190730024", "0.7615941559557649", "0.7183722044641601",
                               "0.04651482198316609", "2.7383773026912195e-10"),
        ("smooth_bump", "d1"): ("0.4378629539003022", "0.0", "-0.23033884769804197",
                                "-0.08853287710158048", "-5.476754605382439e-10"),
        ("smooth_bump", "d2"): ("0.2279643070767682", "-0.6397000084492246",
                                "-0.5845163014846111", "0.1599320479880329",
                                "1.095350920454206e-09"),
        ("poly_quadratic", "f"): ("1.689999862141514", "0.0", "0.13689999999951913",
                                  "6.249904633295952", "1.954230167311842"),
        ("poly_quadratic", "d1"): ("-2.5999989395501406", "0.0", "0.7399999999870038",
                                   "4.999618535512089", "-5.2761829835487575"),
        ("poly_quadratic", "d2"): ("1.9999926584245291", "2.0", "1.9999999996838767",
                                   "1.9986267446070787", "10.950140128232457"),
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
    def test_golden_bits(self, key):
        name, derivative = key
        evaluate = getattr(by_name(name), derivative)
        points = np.array(self.GOLDEN_POINTS)
        assert tuple(repr(float(v)) for v in evaluate(points)) == self.GOLDEN[key]
        assert tuple(repr(float(evaluate(x))) for x in self.GOLDEN_POINTS) == self.GOLDEN[key]


class TestRegistry:
    def test_builtin_names(self):
        assert sorted(BUILTINS) == ["gaussian_bump", "poly_quadratic", "smooth_bump"]
        assert by_name("gaussian_bump").name == "gaussian_bump"
        assert by_name("smooth_bump").name == "smooth_bump"
        assert by_name("poly_quadratic").name == "poly([0,0,1],w=10)"

    def test_resolvent_literal(self):
        # the weak equation needs a real test function; resolvents are not built in
        with pytest.raises(ValueError, match="unknown test function"):
            by_name("resolvent(1+2i)")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            by_name("hat_function")
