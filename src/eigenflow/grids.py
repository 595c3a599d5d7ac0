"""Sampling time grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times 0 = t_0 < ... < t_K."""

    times: np.ndarray = field()

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a time grid needs at least two points")
        if times[0] != 0.0:
            raise ValueError("time grids must start at exactly 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t_max: float, steps: int) -> "TimeGrid":
        if t_max <= 0 or steps < 1:
            raise ValueError("uniform grid needs t_max > 0 and steps >= 1")
        return cls(np.linspace(0.0, float(t_max), steps + 1))

    @classmethod
    def from_times(cls, times) -> "TimeGrid":
        return cls(np.asarray(times, dtype=float))

    @classmethod
    def power_graded(cls, t_max: float, steps: int, grade: float = 2.0) -> "TimeGrid":
        """Grid refined toward 0: t_k = t_max (k/K)^grade.

        The right quadrature design for kernels whose diagonal rate blows
        up at 0 (rough fractional kernels): time integrals against
        d/ds R(s,s) then put most nodes where the rate varies fastest.
        """
        if grade <= 0:
            raise ValueError("grade must be positive")
        u = np.arange(steps + 1) / steps
        return cls(float(t_max) * u ** grade)

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return self.times.size

    def index_of(self, t: float) -> int:
        """Index of a grid time; raises if t is not a grid node."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-12 * max(1.0, abs(t)):
            raise ValueError(f"{t} is not a grid time")
        return k

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        d = self.deltas
        return bool(np.all(np.abs(d - d[0]) <= rtol * d[0]))
