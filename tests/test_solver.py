"""Density evolution, exit-time moments, and the coercivity estimate,
validated against the analytic exponential exit law and against each other
(moment solves vs time-integrated survival)."""

import ast
import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from conftest import EXIT_RATE, exp_survival, point_mass
from jumpexit import operators, solver
from jumpexit.errors import ConfigurationError, NumericalError
from jumpexit.geometry import DomainPartition, build_grid
from jumpexit.kernels import CompoundPoissonUniform, TabulatedKernel
from jumpexit.operators import _factor, assemble
from jumpexit.solver import (DensityTrajectory, coercivity_sigma, evolve, exit_moments,
                             mean_exit_time, on_step_grid, uniform_density)


def _censored_op(h=1 / 32):
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    return assemble(k, build_grid(part, h), part)


# --- evolve -----------------------------------------------------------------

def test_censored_survival_stays_one():
    op = _censored_op()
    traj = evolve(op, uniform_density(op), dt=0.05, t_end=20.0)
    assert np.max(np.abs(traj.survival - 1.0)) <= 1e-12
    assert np.all(traj.absorbed_cdf == 0.0)


def test_survival_matches_exponential(analytic_op_64):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=0.01, t_end=50.0)
    assert np.max(np.abs(traj.survival - exp_survival(traj.times))) <= 1e-2


def test_conservation_every_step(analytic_op_64):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=0.05, t_end=30.0)
    assert np.max(np.abs(traj.survival + traj.absorbed_cdf - traj.survival[0])) <= 1e-10


def test_absorbed_flux_comes_from_exit_weights(analytic_op_64, analytic_kernel,
                                              analytic_partition):
    # F is accumulated from the flux into the absorbing set, not read off
    # as 1 - S: step the density alongside and recompute each step's flux
    # cell by cell from the walk's rate into the absorbing set
    op = analytic_op_64
    dt = 0.1
    traj = evolve(op, uniform_density(op), dt=dt, t_end=5.0)
    step = _factor(op.a_star, "time-step", dt).solve
    kappa = np.array([analytic_kernel.total_rate(x, analytic_partition.absorbing)
                      for x in op.centers])
    u, per_step = uniform_density(op), []
    for _ in range(traj.times.size - 1):
        u = step(u)
        per_step.append(float(np.sum(kappa * u * op.widths)))
    f = dt * np.concatenate([[0.0], np.cumsum(per_step)])
    assert np.max(np.abs(f - traj.absorbed_cdf)) <= 1e-13
    assert traj.absorbed_cdf[-1] > 0.1
    assert np.max(np.abs(traj.survival + traj.absorbed_cdf - traj.survival[0])) <= 1e-12
    # doubled exit weights double F and leave S alone; 1 - S would not
    doubled = evolve(dataclasses.replace(op, exit_weights=2 * op.exit_weights),
                     uniform_density(op), dt=dt, t_end=5.0)
    assert np.array_equal(doubled.survival, traj.survival)
    assert np.max(np.abs(doubled.absorbed_cdf - 2 * traj.absorbed_cdf)) <= 1e-13


def test_survival_at_reads_the_step_grid_rule():
    # one rule for what lies on the grid of steps dt: a time that
    # on_step_grid refuses has no recorded survival
    times = np.arange(11) * 0.01
    traj = DensityTrajectory(times=times, survival=1.0 - times, absorbed_cdf=times)
    assert traj.survival_at(0.0) == 1.0 and traj.survival_at(0.05) == 1.0 - times[5]
    for t in (0.0100000005, 1e-12):
        assert not on_step_grid(t, 0.01)
        with pytest.raises(ValueError, match="not on the recorded step grid"):
            traj.survival_at(t)
    with pytest.raises(ValueError, match="not on the recorded step grid"):
        traj.survival_at(0.11)  # past the run


def test_the_config_reads_the_step_grid_rule_without_the_solver():
    # load_config and the solver share one on_step_grid, and config.py
    # imports nothing from the solver, which imports scipy
    from jumpexit import config
    tree = ast.parse(Path(config.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not any("solver" in name for name in imported if name)
    assert on_step_grid is config.on_step_grid


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0, 10.0])
def test_implicit_euler_monotone_and_positive(analytic_op_64, dt):
    traj = evolve(analytic_op_64, uniform_density(analytic_op_64),
                  dt=dt, t_end=20 * dt)
    assert np.all(np.diff(traj.survival) <= 1e-12)
    # every step's density, stepped as evolve steps it
    step = _factor(analytic_op_64.a_star, "time-step", dt).solve
    u = uniform_density(analytic_op_64)
    for _ in range(20):
        u = step(u)
        assert u.min() >= -1e-14


@pytest.mark.parametrize("dt, t_end", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.inf),
                                       (0.1, np.nan)])
def test_evolve_rejects_non_finite_steps(analytic_op_64, dt, t_end):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        evolve(analytic_op_64, uniform_density(analytic_op_64), dt=dt, t_end=t_end)


def test_evolve_validates_inputs(analytic_op_64):
    good = uniform_density(analytic_op_64)
    with pytest.raises(ConfigurationError, match="positive"):
        evolve(analytic_op_64, good, dt=-0.1, t_end=1.0)
    # one entry per domain cell: a vector with one more is rejected
    with pytest.raises(ConfigurationError, match=rf"domain cell \({good.size}\)"):
        evolve(analytic_op_64, np.append(good, 0.0), dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError, match="integrate"):
        evolve(analytic_op_64, 2 * good, dt=0.1, t_end=1.0)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        evolve(analytic_op_64, -good, dt=0.1, t_end=1.0)
    # 1.0 / 0.03 is not whole; rounding would silently stop at t = 0.99
    with pytest.raises(ConfigurationError, match="whole number"):
        evolve(analytic_op_64, good, dt=0.03, t_end=1.0)


def _banded_op():
    """Horizon 1/16 at h = 1/256: each domain row couples about 32 of the
    256 domain cells, well under the quarter that counts as dense."""
    k = CompoundPoissonUniform(rate=0.2, horizon=1 / 16)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1 / 16, absorbing="full")
    op = assemble(k, build_grid(part, 1 / 256), part)
    assert 4 * op.a_star.nnz < op.n_cells ** 2
    return op


def _implicit_euler_reference(op, dt, n_steps, step):
    """Survival and absorbed flux of implicit Euler, one ``step`` solve of
    ``(I - dt A_fwd) u_new = u`` per step."""
    u = uniform_density(op)
    w = op.widths
    survival, absorbed = [float(u @ w)], [0.0]
    for _ in range(n_steps):
        u = step(u)
        survival.append(float(u @ w))
        absorbed.append(absorbed[-1] + dt * float(op.exit_weights @ u))
    return np.array(survival), np.array(absorbed)


def test_dense_block_steps_match_sparse_lu_reference(analytic_op_64, monkeypatch):
    op, dt = analytic_op_64, 0.1
    assert op.a_star.nnz == op.n_cells ** 2
    lu = splu((sp.identity(op.n_cells, format="csr") - dt * op.a_star).tocsc())
    s_ref, f_ref = _implicit_euler_reference(op, dt, 200, lu.solve)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense block went to SuperLU")

    monkeypatch.setattr(operators, "splu", refuse)
    traj = evolve(op, uniform_density(op), dt=dt, t_end=20.0)
    assert np.max(np.abs(traj.survival - s_ref)) <= 1e-13
    assert np.max(np.abs(traj.absorbed_cdf - f_ref)) <= 1e-13


def test_banded_block_steps_with_sparse_lu(monkeypatch):
    op, dt = _banded_op(), 0.1
    system = np.eye(op.n_cells) - dt * op.a_star.toarray()
    s_ref, f_ref = _implicit_euler_reference(op, dt, 100,
                                             lambda u: np.linalg.solve(system, u))

    def refuse(*args, **kwargs):
        raise AssertionError("a banded block was densified for LAPACK")

    monkeypatch.setattr(operators, "get_lapack_funcs", refuse)
    traj = evolve(op, uniform_density(op), dt=dt, t_end=10.0)
    assert np.max(np.abs(traj.survival - s_ref)) <= 1e-13
    assert np.max(np.abs(traj.absorbed_cdf - f_ref)) <= 1e-13
    assert np.all(np.diff(traj.survival) < 0.0)


@pytest.mark.parametrize("dense", [True, False])
def test_singular_step_system_raises_numerical_error(analytic_op_64, dense):
    # a_star = I / dt makes I - dt * a_star exactly zero
    op, dt = (analytic_op_64 if dense else _banded_op()), 0.1
    n = op.n_cells
    a_star = sp.identity(n, format="csr") / dt
    if dense:  # the same matrix with all n^2 entries stored
        a_star = sp.csr_matrix(np.ones((n, n)))
        a_star.data = np.eye(n).ravel() / dt
    singular = dataclasses.replace(op, a_star=a_star)
    with pytest.raises(NumericalError, match="time-step factorization failed"):
        evolve(singular, uniform_density(op), dt=dt, t_end=1.0)


# --- moments ----------------------------------------------------------------

@pytest.mark.parametrize("dense", [True, False])
def test_generator_factor_route_matches_a_direct_solve(analytic_op_64, monkeypatch, dense):
    # a dense block goes to LAPACK and a banded one to SuperLU, each
    # checked against a solve of the same a_gen by the other route
    op = dataclasses.replace(analytic_op_64 if dense else _banded_op(), _gen_lu=None)
    n = op.n_cells
    assert (op.a_gen.nnz == n * n) == dense
    reference = (splu(op.a_gen.tocsc()).solve if dense
                 else functools.partial(np.linalg.solve, op.a_gen.toarray()))

    def refuse(*args, **kwargs):
        raise AssertionError("the generator took the other factorization route")

    monkeypatch.setattr(operators, "splu" if dense else "get_lapack_funcs", refuse)
    m = np.ones(n)
    for moment in exit_moments(op, 4):
        m = reference(-moment.order * m)
        assert np.max(np.abs(moment.values / m - 1.0)) <= 1e-12
    lu = op.generator_solver()
    assert isinstance(lu, SuperLU) != dense
    if dense:  # the stored triangles, L with its unit diagonal, as SuperLU counts them
        assert lu.L.nnz + lu.U.nnz == n * (n + 1)


@pytest.mark.parametrize("dense", [True, False])
def test_singular_generator_raises_numerical_error(analytic_op_64, dense):
    op = analytic_op_64 if dense else _banded_op()
    n = op.n_cells
    a_gen = sp.csr_matrix((n, n))
    if dense:  # the zero matrix with all n^2 entries stored
        a_gen = sp.csr_matrix(np.ones((n, n)))
        a_gen.data[:] = 0.0
    singular = dataclasses.replace(op, a_gen=a_gen, _gen_lu=None)
    with pytest.raises(NumericalError, match="generator factorization failed"):
        exit_moments(singular, 2)


def test_mean_exit_time_flat_field(analytic_op_256):
    met = mean_exit_time(analytic_op_256)
    assert met.values.shape == (analytic_op_256.n_cells,)
    assert np.max(np.abs(met.values - 10.0)) <= 0.02 * 10.0


def test_mean_exit_time_requires_absorbing():
    with pytest.raises(ConfigurationError, match="absorbing"):
        mean_exit_time(_censored_op())


def test_exit_moments_name_a_cell_that_cannot_reach_the_absorbing_set():
    # (5, 6) lies farther than the horizon from the absorbing set and from
    # (0, 1): its rows sum to zero, and the LU once solved that singular
    # system to m_1 near 4e16
    k = CompoundPoissonUniform(rate=1.0, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0), (5.0, 6.0)], horizon=1.0,
                                 absorbing=[(-1.0, 0.0), (1.0, 2.0)])
    with pytest.raises(ConfigurationError, match=r"domain cell at x=5\.0625 reaches"):
        exit_moments(assemble(k, build_grid(part, 1 / 8), part), 1)
    # (1.5, 2.5) reaches the absorbing set through (0, 1), whose cells near
    # 1 reach it only through cells nearer 0: a chain of several jumps
    chain = DomainPartition.build([(0.0, 1.0), (1.5, 2.5)], horizon=1.0,
                                  absorbing=[(-1.0, -0.5)])
    m1, = exit_moments(assemble(k, build_grid(chain, 1 / 8), chain), 1)
    assert np.all(np.isfinite(m1.values)) and m1.values.min() > 0.0


def test_second_moment_and_jensen(analytic_op_256):
    m1, m2 = exit_moments(analytic_op_256, 2)
    assert np.max(np.abs(m2.values - 200.0)) <= 0.03 * 200.0
    assert np.all(m2.values >= m1.values ** 2 - 1e-9)


@pytest.mark.parametrize("h", [64, 256])
def test_analytic_moments_are_exact_on_the_grid(h, request):
    # every cell average of the uniform kernel is exact and the exit rate is
    # 0.1 from every point, so only rounding separates the discrete moments
    # from 10 and 200
    m1, m2 = exit_moments(request.getfixturevalue(f"analytic_op_{h}"), 2)
    assert np.max(np.abs(m1.values / 10.0 - 1.0)) <= 1e-12
    assert np.max(np.abs(m2.values / 200.0 - 1.0)) <= 1e-12


def test_analytic_survival_is_implicit_euler_exactly(analytic_traj_256):
    # the uniform density is an eigenvector of A_fwd with eigenvalue -0.1,
    # so the only error left in S is implicit Euler's, (1 + 0.1 dt)^-k
    traj = analytic_traj_256
    steps = np.arange(traj.times.size)
    assert np.max(np.abs(traj.survival - (1.0 + EXIT_RATE * 0.01) ** -steps)) <= 1e-12


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
        k = int(frac * analytic_op_64.n_cells)
        x = analytic_op_64.centers[k]
        u0 = point_mass(analytic_op_64, x)
        traj = evolve(analytic_op_64, u0, dt=dt, t_end=200.0)
        keep = traj.survival >= 1e-8
        integral = np.trapezoid(traj.survival[keep], traj.times[keep])
        assert integral == pytest.approx(met.values[k], rel=2e-3)


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
    sw = np.sqrt(op.widths)
    c = sw[:, None] * -op.a_gen.toarray() / sw[None, :]
    return 0.5 * (c + c.T)


@pytest.mark.parametrize("case", ["symmetric", "mixed_widths", "asymmetric"])
def test_sigma_dense_block_is_the_two_array_formula_bit_for_bit(case, monkeypatch):
    # the dense block is built in one array, and must be 0.5 (c + c^T)
    # with c = W^1/2 (-A) W^-1/2, formed array by array, entry for entry
    z = np.linspace(-1.0, 1.0, 41)
    kernel = (TabulatedKernel(horizon=1.0, displacements=z, values=np.where(z > 0, 0.35, 0.15))
              if case == "asymmetric" else CompoundPoissonUniform(rate=0.2, horizon=1.0))
    omega = [(0.0, 1.0), (1.6, 2.4)] if case == "mixed_widths" else [(0.0, 1.0)]
    part = DomainPartition.build(omega, horizon=1.0, absorbing="full")
    op = assemble(kernel, build_grid(part, 1 / 16), part)
    assert operators._is_dense(op.a_gen) and (np.ptp(op.widths) > 0) == (case == "mixed_widths")
    blocks, eigsh = [], solver.eigsh

    def keeping(b, *args, **kwargs):
        blocks.append(b.copy())
        return eigsh(b, *args, **kwargs)

    monkeypatch.setattr(solver, "eigsh", keeping)
    coercivity_sigma(op)
    (b,) = blocks
    assert b.tobytes() == _symmetrized_block(op).tobytes()


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
    assert op.n_cells == 1
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
    m = mean_exit_time(analytic_op_64).values
    w = analytic_op_64.widths
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
    m = mean_exit_time(op).values
    w = op.widths
    energy = float((m * w) @ (-op.a_gen.toarray() @ m))
    assert energy >= est.value * float(np.sum(m * m * w)) * (1 - 1e-9)
