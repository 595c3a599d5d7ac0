"""Negative controls: each claim check, run against a deliberately wrong
limit, must fail its own frozen threshold.

A check that also passes for the wrong limit gives no evidence for the
right one.
"""

import numpy as np
import pytest

from eigenflow.diagnostics import (ensemble_map, fit_loglog_slope, holder_increments,
                                   holder_times, weak_equation_residual)
from eigenflow.eigensolvers import eigvalsh_stack
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel, TableKernel
from eigenflow.limitlaw import Semicircle, semicircle_stieltjes
from eigenflow.matrixflow import sample_flows, sample_triangle
from eigenflow.measures import kolmogorov_distance
from eigenflow.sampling import path_sampler
from eigenflow.testfunctions import gaussian_bump
from oracles import loop_identity_z, moment_identity_z


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_criterion_1_rejects_the_brownian_variance(hurst):
    # criterion 1's statistic and setup, moved to t = 0.25: at t = 1 every
    # fBm has R(1,1) = 1, so there it cannot tell H from the Brownian 1/2
    t, n, paths, bound = 0.25, 200, 20, 0.08
    kernel = FractionalBrownianKernel(hurst)
    grid = TimeGrid([0.0, 0.5 * t, t])
    lam = eigvalsh_stack(sample_flows(path_sampler(kernel, grid), np.zeros((n, n)),
                                      20240101, range(paths)))[:, -1, :]
    right, wrong = (kolmogorov_distance(lam, Semicircle(0.0, float(k.diag(t)))).mean()
                    for k in (kernel, BrownianKernel()))
    assert right <= bound, f"H={hurst}: right variance, mean distance {right:.4f} > {bound}"
    assert wrong > bound, f"H={hurst}: Brownian variance, mean distance {wrong:.4f} <= {bound}"


def test_criterion_2_rejects_the_brownian_variance():
    # criterion 2's statistic and setup; t = 1 is left out, since R(1,1) = 1
    # for every fBm, so the Brownian tau = t is wrong only at t = 0.5 and 2
    kernel, n, paths, bound = FractionalBrownianKernel(0.75), 200, 50, 0.05
    lam = eigvalsh_stack(sample_flows(path_sampler(kernel, TimeGrid([0.0, 0.5, 1.0, 2.0])),
                                      np.zeros((n, n)), 31415, range(paths)))

    def worst(tau_kernel):
        return max(abs(np.mean(1.0 / (lam[:, k] - z), axis=1).mean()
                       - semicircle_stieltjes(float(tau_kernel.diag(t)), z))
                   for k, t in ((1, 0.5), (3, 2.0)) for z in (1j, 1 + 1j, 2j))

    right, wrong = worst(kernel), worst(BrownianKernel())
    assert right <= bound, f"right variance: max |G_emp - F| = {right:.4f} > {bound}"
    assert wrong > bound, f"Brownian variance: max |G_emp - F| = {wrong:.4f} <= {bound}"


def test_criterion_3_rejects_a_wrong_variance_rate():
    # criterion 3's statistic on its H = 0.3 setup (power-graded 24-step
    # grid, gaussian_bump, seed 2024), at n = 8 to 32 and 200 paths: the
    # residual's drift integrates against dR(s,s), and with the Brownian or
    # the H = 0.75 R(s,s) E[G^2] barely decays (slopes about -0.51 and
    # -0.31, against about -2.07 with the right one)
    kernel, grid, bound = FractionalBrownianKernel(0.3), TimeGrid.power_graded(1.0, 24), -0.7
    n_values = (8, 16, 32)
    kernels = (kernel, BrownianKernel(), FractionalBrownianKernel(0.75))
    residuals = ensemble_map(
        path_sampler(kernel, grid), [np.zeros((n, n)) for n in n_values], 2024, 200,
        lambda k, lam: np.stack([weak_equation_residual(lam, rate, grid, gaussian_bump)
                                 for rate in kernels], axis=-1))
    mean_square = np.array([np.mean(g ** 2, axis=0) for g in residuals])  # (n, kernel)
    right, brownian, smoother = (fit_loglog_slope(np.array(n_values, dtype=float), column)
                                for column in mean_square.T)
    assert right <= bound, f"right R(s,s): slope {right:.2f} > {bound}"
    assert brownian > bound, f"Brownian R(s,s): slope {brownian:.2f} <= {bound}"
    assert smoother > bound, f"H = 0.75 R(s,s): slope {smoother:.2f} <= {bound}"


def test_criterion_5_rejects_rougher_paths():
    # criterion 5's Hoelder statistic and setup (n = 32, 400 paths, p = 4,
    # t_base = 0.5, seed 5150) on fBm paths with H = 0.3: their slope (1.59
    # to 1.68 at seeds 5150 to 5152) must fail the Brownian bound.  The
    # control runs rougher paths, not smoother ones, since Brownian paths
    # (slope about 3.0) also pass the H = 0.75 bound of 2.7
    seps = np.geomspace(1e-3, 1e-1, 7)
    sampler = path_sampler(FractionalBrownianKernel(0.3), TimeGrid(holder_times(0.5, seps)))
    rep = holder_increments(sampler, np.zeros((32, 32)), gaussian_bump, 4.0, 0.5, seps,
                            paths=400, seed=5150)
    bound = 0.9 * (4.0 * 1.0 / 2.0)
    assert rep.slope is not None and rep.slope < bound, \
        f"H = 0.3 paths: qhat {rep.slope} >= Brownian bound {bound}"


def test_criterion_10_rejects_a_kernel_with_the_same_diagonal():
    # criterion 10's identities and setup at n = 8 on B(t^0.6), a table of
    # min(s,t)^0.6 with fBm H = 0.3's R(t,t): the fixed-time moments cannot
    # tell the two apart, but the increments after the first (z about -183,
    # -271 and -341) fail the fBm increment identity
    nodes = np.linspace(0.0, 1.0, 41)
    table = TableKernel(nodes, np.minimum.outer(nodes, nodes) ** 0.6)
    grid, n, bound = TimeGrid.uniform(1.0, 4), 8, 4.0
    entries = sample_triangle(path_sampler(table, grid), n, 777, range(2000))
    z = moment_identity_z(entries, np.zeros((n, n)), FractionalBrownianKernel(0.3), grid.times)
    marginal = max(np.max(np.abs(z["m2"])), np.max(np.abs(z["m4"])))
    assert marginal <= bound, f"same R(t,t): moments max |z| {marginal:.1f} > {bound}"
    assert np.max(np.abs(z["increment"])) > bound, \
        f"same R(t,t): increments max |z| {np.max(np.abs(z['increment'])):.1f} <= {bound}"


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_criterion_10_rejects_the_brownian_variance(hurst):
    # criterion 10's m2 identity and setup at n = 8 with the Brownian R: it
    # must fail at some t < 1 (z about 83, 45 and 21 for H = 0.3, -193, -81
    # and -30 for H = 0.75); at t = 1 every fBm has R(1,1) = 1
    kernel, grid, n, bound = FractionalBrownianKernel(hurst), TimeGrid.uniform(1.0, 4), 8, 4.0
    entries = sample_triangle(path_sampler(kernel, grid), n, 777, range(2000))
    right, wrong = (moment_identity_z(entries, np.zeros((n, n)), k, grid.times)["m2"]
                    for k in (kernel, BrownianKernel()))
    assert np.max(np.abs(right)) <= bound, f"right R: m2 max |z| {np.max(np.abs(right)):.1f}"
    assert np.max(np.abs(wrong[:-1])) > bound, \
        f"Brownian R: m2 max |z| before t = 1 is {np.max(np.abs(wrong[:-1])):.1f} <= {bound}"


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_criterion_11_rejects_the_brownian_variance(hurst):
    # criterion 11's loop equation and setup at n = 8 from the zero start
    # with the Brownian R: it must fail at some t < 1 (max |z| about 89, 47
    # and 21 for H = 0.3, 180, 75 and 29 for H = 0.75); at t = 1 every fBm
    # has R(1,1) = 1
    kernel, grid, n, bound = FractionalBrownianKernel(hurst), TimeGrid.uniform(1.0, 4), 8, 4.0
    zs = (0.5j, 1 + 0.5j, 2j, -1.5 + 0.25j, 0.1j)
    entries = sample_triangle(path_sampler(kernel, grid), n, 777, range(2000))
    right, wrong = (loop_identity_z(entries, np.zeros((n, n)), k, grid.times, zs)
                    for k in (kernel, BrownianKernel()))
    assert np.max(np.abs(right)) <= bound, f"right R: max |z| {np.max(np.abs(right)):.1f}"
    assert np.max(np.abs(wrong[:-1])) > bound, \
        f"Brownian R: max |z| before t = 1 is {np.max(np.abs(wrong[:-1])):.1f} <= {bound}"
