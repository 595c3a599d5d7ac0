"""The deterministic limit of the spectral measure flow.

The limiting Cauchy transform at matrix time t is F_tau(z) evaluated at
tau = R(t,t), where F solves the complex inviscid Burgers' equation

    dF/dtau = F dF/dz,     F_0(z) = integral of (x - z)^{-1} over mu_0.

Along characteristics this collapses to the implicit fixed point
F = F_0(z + tau F), which is solved here by damped Newton iteration kept
inside the upper half-plane.  For a point-mass start the solution is the
semicircle transform in closed form

    F_tau(z) = (sqrt(z^2 - 4 tau) - z) / (2 tau),

with the square root branch chosen as the product of principal roots of
(z - 2 sqrt(tau)) and (z + 2 sqrt(tau)), which is continuous on the upper
half-plane and behaves like z at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .kernels import CovarianceKernel

FIXED_POINT_TOL = 1e-12
NEWTON_MAX_ITERS = 200
INVERSION_EPS = 1e-6


class BurgersError(RuntimeError):
    pass


class BurgersNonConvergence(BurgersError):
    def __init__(self, z: complex, tau: float, last: complex):
        super().__init__(
            f"Burgers fixed point did not converge at z={z}, tau={tau} (last iterate {last})")
        self.z, self.tau, self.last = z, tau, last


class BranchViolation(BurgersError):
    def __init__(self, z: complex, tau: float, value: complex):
        super().__init__(f"branch violation: F={value} left the upper half-plane "
                         f"at z={z}, tau={tau}")


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely-supported initial law."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0 or atoms.size != weights.size:
            raise ValueError("atoms and weights must be non-empty and equally sized")
        if np.any(weights < 0) or not math.isclose(weights.sum(), 1.0, rel_tol=1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
        order = np.argsort(atoms)
        object.__setattr__(self, "atoms", atoms[order])
        object.__setattr__(self, "weights", weights[order])

    @classmethod
    def point_mass(cls, a: float = 0.0) -> "AtomicMeasure":
        return cls(np.array([a]), np.array([1.0]))

    @classmethod
    def from_eigenvalues(cls, values) -> "AtomicMeasure":
        values = np.asarray(values, dtype=float).ravel()
        atoms, counts = np.unique(values, return_counts=True)
        return cls(atoms, counts / values.size)

    def stieltjes(self, w: complex) -> complex:
        return complex(np.sum(self.weights / (self.atoms - w)))

    def stieltjes_derivative(self, w: complex) -> complex:
        return complex(np.sum(self.weights / (self.atoms - w) ** 2))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.atoms, x, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        return cum[idx]


def semicircle_stieltjes(tau: float, z: complex) -> complex:
    """Closed-form F_tau(z) for a point-mass start at 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"F is defined on the upper half-plane, got z={z}")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if tau == 0:
        return -1.0 / z
    if 4.0 * tau < 1e-6 * abs(z) ** 2:
        # series in tau/z^2 avoids the cancellation sqrt(z^2-4tau) - z
        return -1.0 / z - tau / z ** 3 - 2.0 * tau ** 2 / z ** 5
    root = 2.0 * math.sqrt(tau)
    sq = np.sqrt(z - root) * np.sqrt(z + root)
    return (sq - z) / (2.0 * tau)


def _newton_fixed_point(mu0: AtomicMeasure, tau: float, z: complex,
                        start: complex) -> complex:
    """Damped Newton for F = F_0(z + tau F) from a given start iterate."""
    f = start
    for _ in range(NEWTON_MAX_ITERS):
        w = z + tau * f
        g = f - mu0.stieltjes(w)
        if abs(g) <= FIXED_POINT_TOL * (1.0 + abs(f)):
            if f.imag <= 0 or w.imag <= 0:
                raise BranchViolation(z, tau, f)
            return f
        gprime = 1.0 - tau * mu0.stieltjes_derivative(w)
        step = -g / gprime if gprime != 0 else -g
        candidate = f + step
        halvings = 0
        while (candidate.imag <= 0 or (z + tau * candidate).imag <= 0) and halvings < 60:
            step *= 0.5
            candidate = f + step
            halvings += 1
        if candidate.imag <= 0 or (z + tau * candidate).imag <= 0:
            raise BranchViolation(z, tau, candidate)
        f = candidate
    raise BurgersNonConvergence(z, tau, f)


def _tau_continuation(mu0: AtomicMeasure, tau: float, z: complex,
                      start: complex) -> complex:
    last_error = None
    for stages in (8, 32, 128):
        f = start
        try:
            for k in range(1, stages + 1):
                f = _newton_fixed_point(mu0, tau * k / stages, z, f)
            return f
        except BurgersError as exc:
            last_error = exc
    raise last_error


def burgers_solve(mu0: AtomicMeasure, tau: float, z: complex) -> complex:
    """Solve F = F_0(z + tau F) by damped Newton iteration.

    Starts from F_0(z); each step is halved until the iterate stays in the
    upper half-plane and the characteristic argument z + tau F does too.
    Converges when |F - F_0(z + tau F)| <= 1e-12 (1 + |F|).  Hard points
    (large tau close to the real axis) fall back to a geometric
    continuation in tau, warm-starting Newton at each stage.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"F is defined on the upper half-plane, got z={z}")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if tau == 0:
        return mu0.stieltjes(z)

    try:
        return _newton_fixed_point(mu0, tau, z, mu0.stieltjes(z))
    except BurgersError:
        pass
    # hard points sit close to the real axis or at large tau: walk the
    # spectral parameter down an imaginary ladder (warm starts), falling
    # back to geometric continuation in tau on any rung that resists
    rungs = [complex(z.real, im) for im in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
             if im > z.imag] + [z]
    f = None
    for zz in rungs:
        start = f if f is not None else mu0.stieltjes(zz)
        try:
            f = _newton_fixed_point(mu0, tau, zz, start)
        except BurgersError:
            f = _tau_continuation(mu0, tau, zz, start)
    return f


def limit_stieltjes(mu0: AtomicMeasure, tau: float, z: complex) -> complex:
    """F_tau(z); closed form for a single atom, fixed point otherwise."""
    if mu0.atoms.size == 1:
        return semicircle_stieltjes(tau, complex(z) - mu0.atoms[0])
    return burgers_solve(mu0, tau, z)


def limit_at_time(kernel: CovarianceKernel, mu0: AtomicMeasure, t: float,
                  z: complex) -> complex:
    """G_t(z): the limiting Cauchy transform at matrix time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    tau = float(kernel.diag(t))
    return limit_stieltjes(mu0, tau, z)


# ---------------------------------------------------------------------------
# Limit laws with density / CDF evaluators
# ---------------------------------------------------------------------------

class LimitLaw:
    """Common interface: stieltjes(z), pdf(x), cdf(x), support bounds."""

    def stieltjes(self, z: complex) -> complex:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    @property
    def support(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Semicircle(LimitLaw):
    """Semicircle law with a given center and variance."""

    center: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.variance)

    @property
    def support(self):
        return (self.center - self.radius, self.center + self.radius)

    def stieltjes(self, z: complex) -> complex:
        return semicircle_stieltjes(self.variance, complex(z) - self.center)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        u = x - self.center
        inside = self.radius ** 2 - u ** 2
        out = np.where(inside > 0,
                       np.sqrt(np.maximum(inside, 0.0)) / (2.0 * np.pi * self.variance),
                       0.0)
        return out[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip((x - self.center) / self.radius, -1.0, 1.0)
        out = 0.5 + (u * np.sqrt(1.0 - u ** 2) + np.arcsin(u)) / np.pi
        return out[()]


@dataclass(frozen=True)
class BurgersEvolved(LimitLaw):
    """The law whose Cauchy transform is F_tau started from an atomic mu_0.

    tau = 0 degenerates to the atomic initial law itself (the ``cdf`` is a
    step function and ``atom_positions`` exposes the jumps).  For tau > 0
    the density comes from boundary values of F: Im F(x + i eps)/pi at
    eps = 1e-6 with one Richardson step, accurate to about 1e-5.
    """

    initial: AtomicMeasure = None
    tau: float = 0.0

    def __post_init__(self):
        if self.initial is None:
            raise ValueError("an initial atomic measure is required")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def atom_positions(self) -> Optional[np.ndarray]:
        return self.initial.atoms if self.tau == 0 else None

    @property
    def support(self):
        spread = 2.0 * math.sqrt(self.tau)
        return (float(self.initial.atoms.min()) - spread,
                float(self.initial.atoms.max()) + spread)

    def stieltjes(self, z: complex) -> complex:
        return limit_stieltjes(self.initial, self.tau, z)

    def pdf(self, x):
        if self.tau == 0:
            raise ValueError("the initial atomic law has no density")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        eps = INVERSION_EPS
        out = np.empty(xs.shape)
        for k, xv in enumerate(xs):
            rho1 = self.stieltjes(complex(xv, eps)).imag / np.pi
            rho2 = self.stieltjes(complex(xv, 0.5 * eps)).imag / np.pi
            out[k] = max(2.0 * rho2 - rho1, 0.0)
        return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def cdf(self, x):
        if self.tau == 0:
            return self.initial.cdf(x)
        lo, hi = self.support
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        order = np.argsort(xs)
        out = np.empty(xs.shape)
        acc = 0.0
        prev = lo - 1e-9
        for idx in order:
            xv = xs[idx]
            if xv <= lo:
                out[idx] = 0.0
                continue
            top = min(xv, hi + 1e-9)
            if top > prev:
                seg, _ = quad(lambda u: self.pdf(u), prev, top, limit=200)
                acc += seg
                prev = top
            out[idx] = min(max(acc, 0.0), 1.0)
        return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def law_at_time(kernel: CovarianceKernel, mu0: AtomicMeasure, t: float) -> LimitLaw:
    """The limit law at matrix time t for the given kernel and start."""
    tau = float(kernel.diag(t))
    if tau == 0:
        return BurgersEvolved(initial=mu0, tau=0.0)
    if mu0.atoms.size == 1:
        return Semicircle(center=float(mu0.atoms[0]), variance=tau)
    return BurgersEvolved(initial=mu0, tau=tau)


def moment_from_stieltjes(law: LimitLaw, order: int, radius: float | None = None,
                          nodes: int = 512) -> float:
    """k-th moment extracted from the Stieltjes transform.

    Contour integral of -z^k F(z)/(2 pi i) over a circle enclosing the
    support, evaluated by the trapezoid rule (spectrally accurate for the
    analytic integrand); the lower half-circle uses F(conj z) = conj F(z).
    """
    lo, hi = law.support
    if radius is None:
        radius = max(abs(lo), abs(hi)) + 1.0
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    zs = radius * np.exp(1j * theta)
    total = 0.0 + 0.0j
    for z in zs:
        if z.imag > 0:
            g = law.stieltjes(z)
        else:
            g = np.conj(law.stieltjes(np.conj(z)))
        total += (z ** order) * g * (1j * z)
    total *= (2.0 * np.pi / nodes)
    return float((-total / (2j * np.pi)).real)
