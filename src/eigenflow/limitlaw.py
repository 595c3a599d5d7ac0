"""The deterministic limit of the spectral measure flow.

The limiting Cauchy transform at matrix time t is F_tau(z) evaluated at
tau = R(t,t), where F solves the complex inviscid Burgers' equation

    dF/dtau = F dF/dz,     F_0(z) = integral of (x - z)^{-1} over mu_0.

Along characteristics this collapses to the implicit fixed point
F = F_0(z + tau F), which is solved here by damped Newton iteration kept
inside the upper half-plane.  Newton starts from F_0(z) and, where that
fails, from the exact subordination point: omega = z + tau F is the one
root in the upper half-plane of omega - tau F_0(omega) = z, an eigenvalue
of a bordered matrix.  For a point-mass start the solution is the
semicircle transform in closed form

    F_tau(z) = (sqrt(z^2 - 4 tau) - z) / (2 tau),

with the square root branch chosen as the product of principal roots of
(z - 2 sqrt(tau)) and (z + 2 sqrt(tau)), which is continuous on the upper
half-plane and behaves like z at infinity.  ``limit_stieltjes`` is the one
evaluator of F_tau(z).  On the real axis the limit is mu_0 at tau = 0 and
mu_0 boxplus semicircle(tau) after; the law objects carry densities and
CDFs only, and ``BurgersEvolved`` evaluates them exactly through Biane's
parametrisation of the subordination boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import CovarianceKernel

FIXED_POINT_TOL = 1e-12
NEWTON_MAX_ITERS = 200
BOUNDARY_NODES = 1025
BOUNDARY_RTOL = 2.0 ** -48


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
    """A finitely-supported initial law; ``cumulative`` is the CDF at each
    sorted atom, exactly k/n when built ``from_eigenvalues``."""

    atoms: np.ndarray
    weights: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "cumulative", np.cumsum(self.weights))

    @classmethod
    def from_eigenvalues(cls, values) -> "AtomicMeasure":
        values = np.asarray(values, dtype=float).ravel()
        atoms, counts = np.unique(values, return_counts=True)
        measure = cls(atoms, counts / values.size)
        object.__setattr__(measure, "cumulative", np.cumsum(counts) / values.size)
        return measure

    def stieltjes(self, w: complex) -> complex:
        return complex(np.sum(self.weights / (self.atoms - w)))

    def stieltjes_derivative(self, w: complex) -> complex:
        return complex(np.sum(self.weights / (self.atoms - w) ** 2))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.atoms, x, side="right")
        return np.concatenate([[0.0], self.cumulative])[idx]


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


def _subordination_start(mu0: AtomicMeasure, tau: float, z: complex) -> complex:
    """F_0(omega) at the unique root in the upper half-plane of omega -
    tau F_0(omega) = z (Biane, Indiana Univ. Math. J. 46, 1997): of the
    eigenvalues in the upper half-plane of [[z, i s^T], [i s, diag(a)]],
    s_i = sqrt(tau w_i), whose characteristic polynomial is
    prod (a_i - omega) (z - omega + tau F_0(omega)), the one of smallest
    residual |z - omega + tau F_0(omega)|: rounding can lift a root next to
    a large atom higher, at a residual of about |omega - z|."""
    border = 1j * np.sqrt(tau * mu0.weights)
    bordered = np.diag(np.concatenate([[z], mu0.atoms]))
    bordered[0, 1:] = bordered[1:, 0] = border
    roots = np.linalg.eigvals(bordered)
    with np.errstate(all="ignore"):  # a root on an atom divides by zero
        f0 = (mu0.weights / (mu0.atoms - roots[:, None])).sum(axis=1)
        residual = np.abs(z - roots + tau * f0)
    return mu0.stieltjes(roots[np.nanargmin(np.where(roots.imag > 0, residual, np.inf))])


def burgers_solve(mu0: AtomicMeasure, tau: float, z: complex) -> complex:
    """Solve F = F_0(z + tau F) by damped Newton iteration.

    Starts from F_0(z); each step is halved until the iterate stays in the
    upper half-plane and the characteristic argument z + tau F does too.
    Converges when |F - F_0(z + tau F)| <= 1e-12 (1 + |F|).  Where that
    first try fails (large tau close to the real axis), the same Newton
    runs once more from the exact subordination start, one O(m^3)
    eigenvalue problem in the m atoms of mu_0.
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
        return _newton_fixed_point(mu0, tau, z, _subordination_start(mu0, tau, z))


def limit_stieltjes(mu0: AtomicMeasure, tau: float, z: complex) -> complex:
    """F_tau(z): F_0 = ``mu0.stieltjes`` itself at tau = 0, the closed form
    for a single atom at tau > 0, the fixed point otherwise."""
    if mu0.atoms.size == 1 and tau > 0:
        return semicircle_stieltjes(tau, complex(z) - mu0.atoms[0])
    return burgers_solve(mu0, tau, z)


# ---------------------------------------------------------------------------
# Limit laws with density / CDF evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Semicircle:
    """Semicircle law with a given center and variance."""

    center: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.variance)

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
class BurgersEvolved:
    """The law whose Cauchy transform is F_tau started from an atomic mu_0.

    Requires tau > 0 (at tau = 0 the law is mu_0 itself).  It is mu_0
    boxplus semicircle(tau), exact up to rounding through Biane's
    boundary parametrisation (Indiana Univ. Math. J. 46, 1997): a real x is
    omega - tau F_0(omega) for one omega = u + iv, where v >= 0 solves
    sum w_i / ((u - a_i)^2 + v^2) = 1/tau (v = 0 where the sum at v = 0 is
    at most 1/tau) and x(u) increases strictly.  Then pdf(x) = v/(pi tau),
    and integrating G along z = omega + tau G_0(omega), G_0 = -F_0, gives
    cdf(x) = 1 - [sum w_i arg(omega - a_i) + (tau/2) Im G_0(omega)^2] / pi
    with arg in [0, pi].
    """

    initial: AtomicMeasure
    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        # (u, v^2, x) nodes that bracket every root-find, built here
        # because laws are shared across threads
        keep = self.initial.weights > 0
        a, w = self.initial.atoms[keep], self.initial.weights[keep]
        object.__setattr__(self, "_atoms", (a, w))
        u = np.linspace(a[0] - math.sqrt(self.tau), a[-1] + math.sqrt(self.tau),
                        BOUNDARY_NODES)
        nodes = (u,) + self._point(u, 0.0 * u)[:2]
        if not np.isfinite(nodes).all():
            raise BurgersError(f"the boundary table of mu_0 boxplus semicircle({self.tau}) "
                               f"overflows: mu_0 spans [{a[0]:g}, {a[-1]:g}]")
        object.__setattr__(self, "_nodes", nodes)

    def pdf(self, x):
        return self._pdf_cdf(x)[0]

    def cdf(self, x):
        return self._pdf_cdf(x)[1]

    def _pdf_cdf(self, x):
        # Newton on the increasing x(u), bisecting whenever a step would leave
        # the bracket the table starts; an element is done once x(u) = x or u
        # is settled to rounding (|x - u| <= sqrt(tau) on the boundary sets the
        # scale), and only unfinished elements are advanced, so every value is
        # the same whatever else is in the block
        nodes_u, nodes_s, nodes_x = self._nodes
        x = np.asarray(x, dtype=float)
        pdf, cdf = np.zeros(x.shape), np.where(x >= nodes_x[-1], 1.0, 0.0)
        inside = (x > nodes_x[0]) & (x < nodes_x[-1])
        xs = x[inside]
        k = np.searchsorted(nodes_x, xs, side="right")
        lo, hi = nodes_u[k - 1], nodes_u[k]
        u, s = np.interp(xs, nodes_x, nodes_u), np.interp(xs, nodes_x, nodes_s)
        xu = np.empty(u.shape)
        tol = BOUNDARY_RTOL * (np.abs(xs) + math.sqrt(self.tau))
        todo = np.arange(u.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(NEWTON_MAX_ITERS):
                ut = u[todo]
                s[todo], xu[todo], slope = self._point(ut, s[todo])
                f = xu[todo] - xs[todo]
                lo[todo] = lt = np.where(f < 0, ut, lo[todo])
                hi[todo] = ht = np.where(f > 0, ut, hi[todo])
                new = ut - f / slope
                new = np.where((new > lt) & (new < ht), new, 0.5 * (lt + ht))
                going = (np.abs(f) > tol[todo]) & (np.abs(new - ut) > tol[todo])
                todo = todo[going]
                if todo.size == 0:
                    break
                u[todo] = new[going]
            else:
                raise BurgersNonConvergence(complex(xs[todo[0]]), self.tau, complex(u[todo[0]]))
        # on the boundary Re G_0 = (x - u)/tau and Im G_0 = -v/tau; a row sum,
        # unlike a matrix product, adds each element's terms in a fixed order
        a, w = self._atoms
        v = np.sqrt(s)
        arg = (np.arctan2(v[:, None], u[:, None] - a) * w).sum(axis=1)
        pdf[inside] = v / (np.pi * self.tau)
        cdf[inside] = np.clip(1.0 - (arg - (xu - u) * v / self.tau) / np.pi, 0.0, 1.0)
        return pdf[()], cdf[()]

    def _point(self, u, s):
        """(v^2, x, dx/du) over each u.  v^2 is Newton's root of the concave,
        increasing 1 / sum w_i / ((u - a_i)^2 + v^2) = tau: from a start above
        the root one step lands below it, and from below it climbs
        monotonically.  Each element stops at its own converged step."""
        a, w = self._atoms
        e = u[:, None] - a
        d = e * e
        floor = np.maximum((w * self.tau - d).max(axis=1), 0.0)
        s = np.maximum(s, floor)
        todo = np.arange(u.size)
        for _ in range(NEWTON_MAX_ITERS):
            big_d = d[todo] + s[todo, None]
            r = w / big_d
            h, h1 = r.sum(axis=1), (r / big_d).sum(axis=1)
            step = np.maximum(s[todo] + (self.tau * h - 1.0) * h / h1, floor[todo]) - s[todo]
            going = np.abs(step) > BOUNDARY_RTOL * h / h1
            todo = todo[going]
            if todo.size == 0:
                break
            s[todo] += step[going]
        else:
            raise BurgersNonConvergence(complex(u[todo[0]]), self.tau, complex(s[todo[0]]))
        # dx/du is 1 - tau h off the support and 2 tau (s h1 + g^2 / h1) on it,
        # with g = sum w_i (u - a_i) / ((u - a_i)^2 + s)^2
        big_d = d + s[:, None]
        r = w / big_d
        h, h1, g = r.sum(axis=1), (r / big_d).sum(axis=1), (r * e / big_d).sum(axis=1)
        slope = np.where(s > 0, 2.0 * self.tau * (s * h1 + g * g / h1), 1.0 - self.tau * h)
        return s, u + self.tau * (r * e).sum(axis=1), slope


def law_at_time(kernel: CovarianceKernel, mu0: AtomicMeasure, t: float):
    """The limit law at matrix time t: mu0 itself where tau = R(t,t) is 0,
    a ``Semicircle`` from one atom and a ``BurgersEvolved`` otherwise."""
    tau = float(kernel.diag(t))
    if tau == 0:
        return mu0
    if mu0.atoms.size == 1:
        return Semicircle(center=float(mu0.atoms[0]), variance=tau)
    return BurgersEvolved(initial=mu0, tau=tau)

