"""Empirical spectral measures: integration, transforms and distances."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .testfunctions import TestFunction


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure on a sorted vector of eigenvalues."""

    atoms: np.ndarray = field()

    def __post_init__(self):
        atoms = np.sort(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("an empirical measure needs at least one atom")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.atoms.size

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.atoms, x, side="right") / self.n


def integrate(measure: EmpiricalMeasure, f: TestFunction):
    """(1/n) sum of f over the atoms; exact finite sum."""
    return np.mean(f.f(measure.atoms))


def cauchy_transform(measure: EmpiricalMeasure, z: complex) -> complex:
    """G(z) = (1/n) sum 1/(atom - z) for Im z > 0; maps into C_+."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"the Cauchy transform is evaluated on Im z > 0, got {z}")
    return complex(np.mean(1.0 / (measure.atoms - z)))


def divided_difference_stack(lambdas: np.ndarray, f: TestFunction) -> np.ndarray:
    """Double average of (f'(x) - f'(y)) / (x - y) over the atom pairs of
    each eigenvalue vector; ``lambdas`` is (..., n), the result drops the
    last axis.

    Near-coincident pairs (|x - y| below a relative threshold) use
    f''((x+y)/2), which is also the exact diagonal convention.
    """
    x = np.asarray(lambdas, dtype=float)
    d1 = f.d1(x)
    diff = x[..., :, None] - x[..., None, :]
    switch = 1e-6 * (1.0 + np.abs(x)[..., :, None] + np.abs(x)[..., None, :])
    far = np.abs(diff) > switch
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (d1[..., :, None] - d1[..., None, :]) / diff
    mid = f.d2(0.5 * (x[..., :, None] + x[..., None, :]))
    vals = np.where(far, quot, mid)
    return vals.mean(axis=(-2, -1))


def kolmogorov_distance(measure: EmpiricalMeasure, law) -> float:
    """sup-distance between the empirical CDF and a law's CDF.

    Exact for an atomic empirical measure against a continuous law (the
    sup is attained at an atom, approached from one side or the other);
    atomic laws are compared over the union of atom positions.
    """
    atoms = measure.atoms
    n = measure.n
    law_atoms = getattr(law, "atom_positions", None)
    if law_atoms is None:
        fl = np.asarray(law.cdf(atoms), dtype=float)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        return float(np.max(np.maximum(np.abs(fl - upper), np.abs(fl - lower))))
    xs = np.unique(np.concatenate([atoms, np.asarray(law_atoms, dtype=float)]))
    f_emp = measure.cdf(xs)
    f_law = np.asarray(law.cdf(xs), dtype=float)
    right = np.max(np.abs(f_emp - f_law))
    left = np.max(np.abs(np.concatenate([[0.0], f_emp[:-1]])
                         - np.concatenate([[0.0], f_law[:-1]])))
    return float(max(right, left))


def wasserstein1_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """W1 between two atomic measures.

    Sorted coupling when the atom counts match, quantile-function coupling
    (exact for uniform atomic measures) otherwise.
    """
    a = mu.atoms
    b = nu.atoms
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    # integrate |F_mu^{-1}(u) - F_nu^{-1}(u)| du over the common refinement
    cuts = np.union1d(np.arange(1, a.size) / a.size, np.arange(1, b.size) / b.size)
    cuts = np.concatenate([[0.0], cuts, [1.0]])
    widths = np.diff(cuts)
    midpoints = 0.5 * (cuts[:-1] + cuts[1:])
    qa = a[np.minimum((midpoints * a.size).astype(int), a.size - 1)]
    qb = b[np.minimum((midpoints * b.size).astype(int), b.size - 1)]
    return float(np.sum(np.abs(qa - qb) * widths))


def write_measure_csv(measure: EmpiricalMeasure, stream: TextIO) -> None:
    """Emit a measure as CSV with columns ``atom_index,value``."""
    stream.write("atom_index,value\n")
    for idx, val in enumerate(measure.atoms):
        stream.write(f"{idx},{float(val)!r}\n")
