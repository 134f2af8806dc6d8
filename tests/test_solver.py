"""Density evolution, exit-time moments, and the coercivity estimate,
validated against the analytic exponential exit law and against each other
(moment solves vs time-integrated survival)."""

import dataclasses

import numpy as np
import pytest

from conftest import EXIT_RATE, exp_survival, point_mass
from jumpexit.errors import ConfigurationError, NumericalError
from jumpexit.geometry import DomainPartition, build_grid
from jumpexit.kernels import CompoundPoissonUniform
from jumpexit.operators import assemble
from jumpexit.solver import (coercivity_sigma, evolve, exit_moments,
                             mean_exit_time, uniform_density)


def _censored_op(h=1 / 32):
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    return assemble(k, build_grid(part, h), part)


# --- evolve -----------------------------------------------------------------

def test_censored_survival_stays_one():
    op = _censored_op()
    traj = evolve(op, uniform_density(op), dt=0.05, t_end=20.0, store_every=100)
    assert np.max(np.abs(traj.survival - 1.0)) <= 1e-12
    assert np.all(traj.absorbed_cdf == 0.0)
    assert np.array_equal(traj.density_times, traj.times[::100])


def test_density_storage_is_opt_in(analytic_op_64):
    u0 = uniform_density(analytic_op_64)
    traj = evolve(analytic_op_64, u0, dt=0.1, t_end=5.0)
    assert np.array_equal(traj.density_times, [0.0, traj.times[-1]])
    # stored densities keep one entry per cell, zero on the absorbing set
    assert traj.densities.shape == (2, analytic_op_64.n_cells)
    assert np.array_equal(traj.densities[0], u0)
    assert np.all(traj.densities[:, analytic_op_64.absorbing] == 0.0)
    assert np.all(traj.densities[1, analytic_op_64.interior] > 0.0)


def test_survival_matches_exponential(analytic_op_64):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=0.01, t_end=50.0)
    assert np.max(np.abs(traj.survival - exp_survival(traj.times))) <= 1e-2


def test_conservation_every_step(analytic_op_64):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=0.05, t_end=30.0)
    assert np.max(np.abs(traj.survival + traj.absorbed_cdf - traj.survival[0])) <= 1e-10


def test_absorbed_flux_comes_from_flux_matrix(analytic_op_64):
    # F is accumulated from the flux into the absorbing cells, not read off
    # as 1 - S: recompute it from the stored densities
    op = analytic_op_64
    dt = 0.1
    traj = evolve(op, uniform_density(op), dt=dt, t_end=5.0, store_every=1)
    w_abs = op.widths[op.absorbing]
    per_step = [float(np.sum((op.flux_to_d @ u[op.interior]) * w_abs))
                for u in traj.densities[1:]]
    f = dt * np.concatenate([[0.0], np.cumsum(per_step)])
    assert np.max(np.abs(f - traj.absorbed_cdf)) <= 1e-13
    assert traj.absorbed_cdf[-1] > 0.1
    assert np.max(np.abs(traj.survival + traj.absorbed_cdf - traj.survival[0])) <= 1e-12
    # a doubled flux matrix doubles F and leaves S alone; 1 - S would not
    doubled = evolve(dataclasses.replace(op, flux_to_d=2 * op.flux_to_d),
                     uniform_density(op), dt=dt, t_end=5.0)
    assert np.array_equal(doubled.survival, traj.survival)
    assert np.max(np.abs(doubled.absorbed_cdf - 2 * traj.absorbed_cdf)) <= 1e-13


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0, 10.0])
def test_implicit_euler_monotone_and_positive(analytic_op_64, dt):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=dt, t_end=20 * dt, store_every=1)
    assert np.all(np.diff(traj.survival) <= 1e-12)
    assert traj.densities.min() >= -1e-14


def test_evolve_validates_inputs(analytic_op_64):
    good = uniform_density(analytic_op_64)
    with pytest.raises(ConfigurationError, match="positive"):
        evolve(analytic_op_64, good, dt=-0.1, t_end=1.0)
    bad = good.copy()
    bad[analytic_op_64.absorbing[0]] = 1.0
    with pytest.raises(ConfigurationError, match="supported"):
        evolve(analytic_op_64, bad, dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError, match="integrate"):
        evolve(analytic_op_64, 2 * good, dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        evolve(analytic_op_64, -good, dt=0.1, t_end=1.0)
    # 1.0 / 0.03 is not whole; rounding would silently stop at t = 0.99
    with pytest.raises(ConfigurationError, match="whole number"):
        evolve(analytic_op_64, good, dt=0.03, t_end=1.0)


# --- moments ----------------------------------------------------------------

def test_mean_exit_time_flat_field(analytic_op_256):
    met = mean_exit_time(analytic_op_256)
    assert np.max(np.abs(met.interior_values - 10.0)) <= 0.02 * 10.0
    assert np.all(met.values[analytic_op_256.absorbing] == 0.0)


def test_mean_exit_time_requires_absorbing():
    with pytest.raises(ConfigurationError, match="absorbing"):
        mean_exit_time(_censored_op())


def test_second_moment_and_jensen(analytic_op_256):
    m1, m2 = exit_moments(analytic_op_256, 2)
    assert np.max(np.abs(m2.interior_values - 200.0)) <= 0.03 * 200.0
    assert np.all(m2.interior_values >= m1.interior_values ** 2 - 1e-9)


def test_first_moment_identical_between_routes(analytic_op_128):
    met = mean_exit_time(analytic_op_128)
    m1 = exit_moments(analytic_op_128, 2)[0]
    assert np.array_equal(met.values, m1.values)


def test_kernel_scaling_rescales_moments(analytic_partition):
    c = 3.0
    base = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    grid = build_grid(analytic_partition, 1 / 64)
    m_base = exit_moments(assemble(base, grid, analytic_partition), 2)
    fast = CompoundPoissonUniform(rate=0.6, horizon=1.0)
    m_fast = exit_moments(assemble(fast, grid, analytic_partition), 2)
    np.testing.assert_allclose(m_fast[0].values, m_base[0].values / c, rtol=1e-12)
    np.testing.assert_allclose(m_fast[1].values, m_base[1].values / c**2, rtol=1e-12)


def test_mean_exit_time_equals_time_integrated_survival(analytic_op_64):
    # point-mass starts at five interior cells: the moment solve must match
    # the trapezoid integral of the survival curve (tail truncated when
    # S < 1e-8, bounded by the exponential decay)
    met = mean_exit_time(analytic_op_64)
    dt = 0.01
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        idx = analytic_op_64.interior[int(frac * analytic_op_64.interior.size)]
        x = analytic_op_64.centers[idx]
        u0 = point_mass(analytic_op_64, x)
        traj = evolve(analytic_op_64, u0, dt=dt, t_end=200.0)
        keep = traj.survival >= 1e-8
        integral = np.trapezoid(traj.survival[keep], traj.times[keep])
        assert integral == pytest.approx(met.values[idx], rel=2e-3)


def test_moment_recursion_vs_trajectory_integral(analytic_op_64):
    # k-th moment against the integral of k t^(k-1) S(t) for uniform start
    u0 = uniform_density(analytic_op_64)
    traj = evolve(analytic_op_64, u0, dt=0.01, t_end=200.0)
    keep = traj.survival >= 1e-8
    t, s = traj.times[keep], traj.survival[keep]
    m1, m2 = exit_moments(analytic_op_64, 2)
    w = analytic_op_64.widths
    for k, mom in ((1, m1), (2, m2)):
        route_a = np.trapezoid(k * t ** (k - 1) * s, t)
        route_b = float(np.sum(mom.values * u0 * w))
        assert route_a == pytest.approx(route_b, rel=0.05)


def test_moments_reject_negative_rhs_shape(analytic_op_64):
    with pytest.raises(ConfigurationError):
        exit_moments(analytic_op_64, 0)


# --- coercivity ---------------------------------------------------------------

def _symmetrized_block(op):
    """The width-weighted, symmetrized negative generator whose bottom
    eigenvalue is sigma."""
    sw = np.sqrt(op.widths[op.interior])
    c = sw[:, None] * -op.a_gen.toarray() / sw[None, :]
    return 0.5 * (c + c.T)


@pytest.mark.parametrize("kernel", ["stable_kernel_05", "stable_kernel_15"])
def test_sigma_residual_at_rounding_for_capped_power_law(kernel, request):
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(request.getfixturevalue(kernel), build_grid(part, 1 / 32), part)
    est = coercivity_sigma(op)
    b = _symmetrized_block(op)
    assert est.residual <= 1e-12 * np.max(np.abs(b))
    assert est.value == pytest.approx(float(np.linalg.eigvalsh(b)[0]), rel=1e-12)


def test_sigma_reruns_are_bit_identical(stable_kernel_05):
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(stable_kernel_05, build_grid(part, 1 / 32), part)
    first, second = coercivity_sigma(op), coercivity_sigma(op)
    assert first.value == second.value and first.residual == second.residual
    assert first.mode.tobytes() == second.mode.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("absorbing", ["full", "empty"])
def test_sigma_on_one_cell_domain(absorbing):
    part = DomainPartition.build([(0.0, 0.1)], horizon=1.0, absorbing=absorbing)
    op = assemble(CompoundPoissonUniform(rate=0.2, horizon=1.0), build_grid(part, 0.1), part)
    assert op.interior.size == 1
    est = coercivity_sigma(op)
    b00 = float(_symmetrized_block(op)[0, 0])
    assert est.value == b00
    assert b00 > 0.0 if absorbing == "full" else b00 == 0.0
    assert np.abs(est.mode).tolist() == [1.0]


def test_sigma_matches_dense_eigensolve(analytic_op_64):
    est = coercivity_sigma(analytic_op_64)
    dense = float(np.linalg.eigvalsh(_symmetrized_block(analytic_op_64))[0])
    assert est.value == pytest.approx(dense, rel=1e-10, abs=1e-13)
    assert abs(est.value - EXIT_RATE) <= 0.02 * EXIT_RATE
    # the minimizing mode is the constant function on the domain
    mode = est.mode / est.mode[0]
    assert np.max(np.abs(mode - 1.0)) <= 1e-8
    assert est.residual <= 1e-10


def test_sigma_zero_for_censored_process():
    est = coercivity_sigma(_censored_op())
    assert abs(est.value) <= 1e-10
    mode = est.mode / est.mode[0]
    assert np.max(np.abs(mode - 1.0)) <= 1e-6


def test_sigma_energy_bound_on_mean_exit_time(analytic_op_64):
    # Rayleigh inequality: <m, -A m>_w >= sigma <m, m>_w for the mean exit field
    est = coercivity_sigma(analytic_op_64)
    met = mean_exit_time(analytic_op_64)
    idx = analytic_op_64.interior
    w = analytic_op_64.widths[idx]
    m = met.values[idx]
    neg_a = -analytic_op_64.a_gen.toarray()
    energy = float((m * w) @ (neg_a @ m))
    assert energy >= est.value * float(np.sum(m * m * w)) * (1 - 1e-10)


def test_sigma_positive_for_stable_kernel(stable_kernel_05):
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 1 / 32)
    op = assemble(stable_kernel_05, grid, part)
    est = coercivity_sigma(op)
    assert est.value > 0.0
    # mean exit field obeys the energy-norm bound <m, -A m>_w >= sigma <m, m>_w
    met = mean_exit_time(op)
    idx = op.interior
    w = op.widths[idx]
    m = met.values[idx]
    energy = float((m * w) @ (-op.a_gen.toarray() @ m))
    assert energy >= est.value * float(np.sum(m * m * w)) * (1 - 1e-9)
