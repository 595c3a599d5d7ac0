"""A closed library of smooth bounded test functions.

Three real families, each with analytic derivatives up to order two (all
bounded, so every member can probe weak convergence of measures):

* ``SmoothBump``              tanh-based plateau bump
* ``GaussianBump``            f(x) = exp(-x^2) (optionally shifted/scaled)
* ``TruncatedPolynomial``     p(x) * exp(-(x/w)^8), deg p <= 4

The library is deliberately fixed so residual experiments stay
reproducible: a run names one of the ``BUILTINS``, and user-defined
functions are out of scope.
"""

from __future__ import annotations

import numpy as np


class TestFunction:
    """f with derivative evaluators f' and f''."""

    name: str = "abstract"

    def f(self, x):
        raise NotImplementedError

    def d1(self, x):
        raise NotImplementedError

    def d2(self, x):
        raise NotImplementedError


class GaussianBump(TestFunction):
    """f(x) = exp(-u^2) with u = (x - center) / width."""

    def __init__(self, center: float = 0.0, width: float = 1.0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.center = float(center)
        self.width = float(width)
        self.name = "gaussian_bump" if (center, width) == (0.0, 1.0) \
            else f"gaussian_bump(c={center:g},w={width:g})"

    def _u(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.width

    def f(self, x):
        return np.exp(-self._u(x) ** 2)

    def d1(self, x):
        u = self._u(x)
        return -2.0 * u * np.exp(-u ** 2) / self.width

    def d2(self, x):
        u = self._u(x)
        return (4.0 * u ** 2 - 2.0) * np.exp(-u ** 2) / self.width ** 2


class SmoothBump(TestFunction):
    """Plateau bump (tanh(a(x-l)) - tanh(a(x-r))) / 2 on [l, r]."""

    def __init__(self, center: float = 0.0, halfwidth: float = 1.0, steepness: float = 1.0):
        if halfwidth <= 0 or steepness <= 0:
            raise ValueError("halfwidth and steepness must be positive")
        self.center = float(center)
        self.halfwidth = float(halfwidth)
        self.a = float(steepness)
        self.name = "smooth_bump" if (center, halfwidth, steepness) == (0.0, 1.0, 1.0) \
            else f"smooth_bump(c={center:g},h={halfwidth:g},a={steepness:g})"

    def _edges(self, x):
        x = np.asarray(x, dtype=float)
        return (self.a * (x - self.center + self.halfwidth),
                self.a * (x - self.center - self.halfwidth))

    @staticmethod
    def _t1(t):
        return 1.0 - t ** 2

    def f(self, x):
        ul, ur = self._edges(x)
        return 0.5 * (np.tanh(ul) - np.tanh(ur))

    def d1(self, x):
        ul, ur = self._edges(x)
        return 0.5 * self.a * (self._t1(np.tanh(ul)) - self._t1(np.tanh(ur)))

    def d2(self, x):
        ul, ur = self._edges(x)
        tl, tr = np.tanh(ul), np.tanh(ur)
        return 0.5 * self.a ** 2 * (-2.0 * tl * self._t1(tl) + 2.0 * tr * self._t1(tr))


class TruncatedPolynomial(TestFunction):
    """p(x) * exp(-(x/w)^8) for a polynomial p of degree at most 4.

    The eighth-power cutoff leaves p essentially untouched on |x| << w and
    kills it (with all derivatives bounded) beyond |x| ~ w.
    """

    def __init__(self, coeffs, cutoff_width: float = 10.0):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.size > 5:
            raise ValueError("polynomial degree must not exceed 4")
        if cutoff_width <= 0:
            raise ValueError("cutoff width must be positive")
        self.coeffs = coeffs  # ascending order
        self.w = float(cutoff_width)
        c = ",".join(f"{v:g}" for v in coeffs)
        self.name = f"poly([{c}],w={self.w:g})"

    def _p(self, x, order: int):
        c = np.polynomial.polynomial.polyder(self.coeffs, order) if order else self.coeffs
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    def _q(self, x, order: int):
        x = np.asarray(x, dtype=float)
        k = 8 - order
        fact = {0: 1.0, 1: 8.0, 2: 56.0}[order]
        return fact * x ** k / self.w ** 8

    def f(self, x):
        return self._p(x, 0) * np.exp(-self._q(x, 0))

    def d1(self, x):
        e = np.exp(-self._q(x, 0))
        return (self._p(x, 1) - self._p(x, 0) * self._q(x, 1)) * e

    def d2(self, x):
        p, p1, p2 = self._p(x, 0), self._p(x, 1), self._p(x, 2)
        q1, q2 = self._q(x, 1), self._q(x, 2)
        e = np.exp(-self._q(x, 0))
        return (p2 - 2.0 * p1 * q1 - p * q2 + p * q1 ** 2) * e


BUILTINS = {
    "gaussian_bump": lambda: GaussianBump(),
    "smooth_bump": lambda: SmoothBump(),
    "poly_quadratic": lambda: TruncatedPolynomial([0.0, 0.0, 1.0], cutoff_width=10.0),
}


def by_name(name: str) -> TestFunction:
    """The built-in test function of a configuration name."""
    if name not in BUILTINS:
        raise ValueError(f"unknown test function {name!r}; built-ins: {sorted(BUILTINS)}")
    return BUILTINS[name]()
