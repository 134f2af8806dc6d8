"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The quantitative gates all trace to the analytic exponential configuration
(unit domain, uniform-jump kernel, rate 0.2, unit horizon, fully absorbing
collar: exit time Exponential(0.1)) or to structural identities that hold
to rounding.
"""

import numpy as np
import pytest

from conftest import exp_survival
from jumpexit.geometry import DomainPartition, Intervals, build_grid
from jumpexit.kernels import CompoundPoissonUniform, TruncatedStable
from jumpexit.montecarlo import (brownian_path, empirical_survival, path_rng,
                                 simulate_path, survival_z_scores)
from jumpexit.operators import (adjoint_check, assemble, balance_check,
                                divergence_theorem_check)
from jumpexit.solver import (coercivity_sigma, evolve, exit_moments,
                             mean_exit_time, uniform_density)

CHECKPOINTS = [1.0, 5.0, 10.0, 25.0, 50.0]


def _report(num, name, detail):
    print(f"[criterion {num:2d}] {name}: PASS ({detail})")


def test_criterion_01_analytic_exit_law(analytic_op_256, analytic_traj_256):
    sup = float(np.max(np.abs(analytic_traj_256.survival
                              - exp_survival(analytic_traj_256.times))))
    assert sup <= 1e-2
    m1, m2 = exit_moments(analytic_op_256, 2)
    met_err = float(np.max(np.abs(m1.values - 10.0))) / 10.0
    m2_err = float(np.max(np.abs(m2.values - 200.0))) / 200.0
    assert met_err <= 0.02
    assert m2_err <= 0.03
    _report(1, "analytic exit law",
            f"sup|S-exp|={sup:.2e}, met_err={met_err:.2%}, m2_err={m2_err:.2%}")


def test_criterion_02_monte_carlo_agreement(analytic_ensemble, analytic_traj_256):
    mean = analytic_ensemble.mean_exit_time()
    gate = 3 * 10.0 / np.sqrt(analytic_ensemble.n_paths)
    assert abs(mean - 10.0) <= gate
    z_exp, _ = survival_z_scores(analytic_ensemble, CHECKPOINTS, exp_survival)
    ref = [analytic_traj_256.survival_at(t) for t in CHECKPOINTS]
    z_solver, _ = survival_z_scores(analytic_ensemble, CHECKPOINTS, ref)
    assert float(np.max(np.abs(z_exp))) <= 3.0
    assert float(np.max(np.abs(z_solver))) <= 3.0
    _report(2, "Monte Carlo agreement",
            f"mean={mean:.4f} (gate {gate:.3f}), max|z| exp={np.max(np.abs(z_exp)):.2f}, "
            f"solver={np.max(np.abs(z_solver)):.2f}")


def test_criterion_03_first_jump_exit_probability(analytic_ensemble):
    p = float(np.mean(analytic_ensemble.jumps[~analytic_ensemble.censored] == 1))
    gate = 3 * np.sqrt(0.25 / analytic_ensemble.n_paths)
    assert abs(p - 0.5) <= gate
    _report(3, "first-jump exit probability 1/2", f"p={p:.5f} (gate +-{gate:.5f})")


@pytest.mark.parametrize("h", [0.25, 0.125, 0.0625])
@pytest.mark.parametrize("kernel", [
    CompoundPoissonUniform(rate=0.2, horizon=1.0),
    TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=1e-3),
    TruncatedStable(alpha=1.5, m=1000.0, horizon=1.0, epsilon=1e-3),
], ids=["compound", "stable05", "stable15"])
def test_criterion_04_calculus_identity_suite(kernel, h):
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(kernel, build_grid(part, h), part)
    norm = float(abs(op.a_gen).max())
    rng = np.random.default_rng(2024)

    adj = adjoint_check(op, trials=50, rng=rng) / norm
    # A 1 = -kappa on the domain block, kappa read off the exit weights
    const = float(np.max(np.abs(op.a_gen @ np.ones(op.n_cells)
                                + op.killing_rate))) / norm
    u = rng.random(op.n_cells) + 0.5
    bal = balance_check(op, u)
    div = divergence_theorem_check(op, u) / float(np.sum(u * op.widths))
    worst = max(adj, const, bal, div)
    assert worst <= 1e-10
    label = type(kernel).__name__
    if isinstance(kernel, TruncatedStable):
        label += f"(alpha={kernel.alpha})"
    _report(4, f"calculus identities [{label}, h={h}]",
            f"worst relative defect {worst:.2e}")


def test_criterion_05_conservation(analytic_traj_256):
    drift = float(np.max(np.abs(analytic_traj_256.survival
                                + analytic_traj_256.absorbed_cdf
                                - analytic_traj_256.survival[0])))
    assert drift <= 1e-10
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    kernel = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    op = assemble(kernel, build_grid(part, 1 / 64), part)
    traj = evolve(op, uniform_density(op), dt=0.05, t_end=25.0)
    censored_drift = float(np.max(np.abs(traj.survival - 1.0)))
    assert censored_drift <= 1e-12
    _report(5, "conservation S+F and censored mass",
            f"|S+F-1|={drift:.2e}, censored |S-1|={censored_drift:.2e}")


def test_criterion_06_symmetric_kernel_symmetric_matrix(analytic_op_256, stable_kernel_05):
    worst = 0.0
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    ops = [analytic_op_256, assemble(stable_kernel_05, build_grid(part, 1 / 64), part)]
    for op in ops:
        blk = op.a_gen.toarray()
        worst = max(worst, float(np.max(np.abs(blk - blk.T)) / np.max(np.abs(blk))))
    assert worst <= 1e-12
    _report(6, "symmetric kernel gives symmetric interior block",
            f"max rel asymmetry {worst:.2e}")


def test_criterion_07_coercivity(analytic_kernel, analytic_partition):
    op = assemble(analytic_kernel, build_grid(analytic_partition, 1 / 64), analytic_partition)
    est = coercivity_sigma(op)
    m = -op.a_gen.toarray()
    sw = np.sqrt(op.widths)
    b = sw[:, None] * m / sw[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
    assert est.value == pytest.approx(float(eigs[0]), rel=1e-9, abs=1e-12)
    assert abs(est.value - 0.1) <= 0.02 * 0.1
    # minimizing mode is the constant function (brute-force cross-check)
    mode = est.mode / est.mode[0]
    assert float(np.max(np.abs(mode - 1.0))) <= 1e-8

    part0 = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    op0 = assemble(analytic_kernel, build_grid(part0, 1 / 64), part0)
    est0 = coercivity_sigma(op0)
    assert abs(est0.value) <= 1e-10
    _report(7, "coercivity constant",
            f"sigma={est.value:.5f} (target 0.1, dense {eigs[0]:.5f}), "
            f"censored sigma={est0.value:.1e}")


def test_criterion_08_fluctuation_regimes(analytic_kernel, stable_kernel_05):
    lam_cp = analytic_kernel.total_rate(0.0)
    counts = np.array([simulate_path(analytic_kernel, 0.0, path_rng(81, i), 50.0).times.size - 2
                       for i in range(40)])
    expect = lam_cp * 50.0
    cp_dev = abs(counts.mean() - expect)
    assert cp_dev <= 3 * np.sqrt(expect / counts.size)

    lam_ts = stable_kernel_05.total_rate(0.0)
    assert lam_ts == pytest.approx(185.73665961010278, rel=1e-12)
    ts_counts = []
    for i in range(3):
        n_jumps = simulate_path(stable_kernel_05, 0.0, path_rng(82, i), 50.0).times.size - 2
        ts_counts.append(n_jumps)
        assert abs(n_jumps - lam_ts * 50.0) <= 3 * np.sqrt(lam_ts * 50.0)

    finals = np.array([brownian_path(0.0, path_rng(83, i), 50.0, n_steps=200).positions[-1]
                       for i in range(10_000)])
    msd = float(np.mean(finals ** 2))
    assert abs(msd - 50.0) <= 0.05 * 50.0
    _report(8, "fluctuation regimes",
            f"compound mean count={counts.mean():.1f} (exp {expect:.0f}), "
            f"stable counts={ts_counts} (exp {lam_ts * 50:.0f}), MSD(50)={msd:.1f}")


def test_criterion_09_grid_convergence():
    # the analytic case is exact on every grid (each cell average of its
    # uniform kernel is exact, and its exit rate is the same from every
    # point), so the rate is read on a shorter horizon, lambda = 1/2, where
    # the exit rate varies across the domain: against the average of a
    # much finer solve over each coarse cell
    kernel = CompoundPoissonUniform(rate=0.2, horizon=0.5)
    part = DomainPartition.build([(0.0, 1.0)], horizon=0.5, absorbing="full")

    def met(h):
        return mean_exit_time(assemble(kernel, build_grid(part, h), part)).values

    fine = met(1 / 1024)
    errs = [float(np.max(np.abs(m - fine.reshape(m.size, -1).mean(axis=1))))
            for m in (met(1 / 32), met(1 / 64), met(1 / 128))]
    assert errs[0] / errs[1] >= 1.9
    assert errs[1] / errs[2] >= 1.9
    _report(9, "mean-exit-time grid convergence",
            f"errors {errs[0]:.4f} -> {errs[1]:.4f} -> {errs[2]:.4f} "
            f"(ratios {errs[0]/errs[1]:.2f}, {errs[1]/errs[2]:.2f})")


def test_criterion_10_disconnected_domain(analytic_kernel, disconnected_op_256,
                                          disconnected_traj, disconnected_ensemble):
    ref = [disconnected_traj.survival_at(t) for t in CHECKPOINTS]
    z, _ = survival_z_scores(disconnected_ensemble, CHECKPOINTS, ref)
    assert float(np.max(np.abs(z))) <= 3.0
    # exits into the collar shared between the two components: impossible
    # for a continuous path, routine for a jump process
    shared = Intervals(((1.0, 1.5),))
    ok = ~disconnected_ensemble.censored
    n_shared = int(sum(shared.contains(y) for y in disconnected_ensemble.exit_location[ok]))
    assert n_shared > 0
    op = disconnected_op_256
    # the initial rate of arrival in the gap, from the kernel's integral
    # over it out of each domain cell
    into_shared = analytic_kernel.interval_rates(op.centers, shared.bounds)[:, 0]
    pde_shared_flux = float(np.sum(into_shared * uniform_density(op) * op.widths))
    assert pde_shared_flux > 0.0
    _report(10, "disconnected domain",
            f"max|z|={np.max(np.abs(z)):.2f}, shared-collar exits={n_shared}, "
            f"pde shared flux={pde_shared_flux:.4f}")
