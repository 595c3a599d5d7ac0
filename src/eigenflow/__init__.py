"""Spectral-measure flows of Gaussian matrix-valued processes.

Simulates symmetric matrix processes with i.i.d. Gaussian entry paths of a
configurable covariance kernel, tracks eigenvalue flows and empirical
spectral measures, and verifies numerically that the measure flow follows
its deterministic limit (a time-rescaled Burgers' evolution of the Cauchy
transform; the semicircle family when started from a point mass).
"""

__version__ = "0.1.0"

from .eigensolvers import eigh
from .grids import TimeGrid
from .kernels import (BrownianKernel, CovarianceKernel, FractionalBrownianKernel,
                      TableKernel, check_h1, check_h2, make_kernel)
from .limitlaw import (AtomicMeasure, BurgersEvolved, Semicircle,
                       burgers_solve, law_at_time, semicircle_stieltjes)
from .matrixflow import eigenvalue_derivatives, make_shift, sample_flows
from .measures import divided_difference_stack, kolmogorov_distance
from .sampling import PathFactor, factor_grid, path_sampler, sample_entry_block
from .testfunctions import TestFunction, by_name

__all__ = [
    "TimeGrid",
    "CovarianceKernel", "BrownianKernel", "FractionalBrownianKernel", "TableKernel",
    "check_h1", "check_h2", "make_kernel",
    "AtomicMeasure", "Semicircle", "BurgersEvolved",
    "semicircle_stieltjes", "burgers_solve", "law_at_time",
    "eigh", "eigenvalue_derivatives", "make_shift", "sample_flows",
    "divided_difference_stack", "kolmogorov_distance",
    "PathFactor", "factor_grid", "path_sampler", "sample_entry_block",
    "TestFunction", "by_name",
]
