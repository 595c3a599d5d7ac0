"""A closed library of three smooth bounded test functions.

Each built-in carries its analytic first and second derivatives, and the
function and both derivatives are bounded, so each can probe weak
convergence of measures:

* ``gaussian_bump``   f(x) = exp(-x^2)
* ``smooth_bump``     f(x) = (tanh(x + 1) - tanh(x - 1)) / 2, a plateau on [-1, 1]
* ``poly_quadratic``  f(x) = x^2 * exp(-(x/10)^8), named ``poly([0,0,1],w=10)``
  in output: ascending coefficients and cutoff width.  The eighth-power
  cutoff leaves x^2 essentially untouched on |x| << 10 and kills it (with
  all derivatives bounded) beyond |x| ~ 10.

The library is deliberately fixed so residual experiments stay
reproducible: a run names one of the ``BUILTINS``, and user-defined
functions are out of scope.  Residual and holder rows depend on every bit
of these formulas, so their operation order is part of the output
(``tests/test_testfunctions.py`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    """A named test function f with its derivatives f' and f''."""

    __test__ = False  # a library record, not a pytest test class

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


def _gaussian_f(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x ** 2)


def _gaussian_d1(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * x * np.exp(-x ** 2)


def _gaussian_d2(x):
    x = np.asarray(x, dtype=float)
    return (4.0 * x ** 2 - 2.0) * np.exp(-x ** 2)


def _smooth_f(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.tanh(x + 1.0) - np.tanh(x - 1.0))


def _smooth_d1(x):
    x = np.asarray(x, dtype=float)
    tl, tr = np.tanh(x + 1.0), np.tanh(x - 1.0)
    return 0.5 * ((1.0 - tl ** 2) - (1.0 - tr ** 2))


def _smooth_d2(x):
    x = np.asarray(x, dtype=float)
    tl, tr = np.tanh(x + 1.0), np.tanh(x - 1.0)
    return 0.5 * (-2.0 * tl * (1.0 - tl ** 2) + 2.0 * tr * (1.0 - tr ** 2))


def _poly_f(x):
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-(x ** 8 / 10.0 ** 8))


def _poly_d1(x):
    x = np.asarray(x, dtype=float)
    q1 = 8.0 * x ** 7 / 10.0 ** 8
    return (2.0 * x - x * x * q1) * np.exp(-(x ** 8 / 10.0 ** 8))


def _poly_d2(x):
    x = np.asarray(x, dtype=float)
    p, p1 = x * x, 2.0 * x
    q1, q2 = 8.0 * x ** 7 / 10.0 ** 8, 56.0 * x ** 6 / 10.0 ** 8
    return (2.0 - 2.0 * p1 * q1 - p * q2 + p * q1 ** 2) * np.exp(-(x ** 8 / 10.0 ** 8))


gaussian_bump = TestFunction("gaussian_bump", _gaussian_f, _gaussian_d1, _gaussian_d2)
smooth_bump = TestFunction("smooth_bump", _smooth_f, _smooth_d1, _smooth_d2)
poly_quadratic = TestFunction("poly([0,0,1],w=10)", _poly_f, _poly_d1, _poly_d2)

BUILTINS = {
    "gaussian_bump": gaussian_bump,
    "smooth_bump": smooth_bump,
    "poly_quadratic": poly_quadratic,
}


def by_name(name: str) -> TestFunction:
    """The built-in test function of a configuration name."""
    if name not in BUILTINS:
        raise ValueError(f"unknown test function {name!r}; built-ins: {sorted(BUILTINS)}")
    return BUILTINS[name]
