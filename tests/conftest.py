"""Shared fixtures: the analytic exponential configuration and its heavy
artifacts (fine-grid operators, trajectories, big ensembles) are built
once per session and reused across unit and acceptance tests.

The analytic configuration -- unit domain, uniform-jump kernel with total
rate 0.2 and unit jump range, fully absorbing collar -- has a closed-form
exit law: from any interior point the jump lands outside the domain with
probability exactly 1/2, so exits follow a thinned Poisson clock and the
exit time is Exponential(0.1) independent of position. Mean exit time 10,
second moment 200, survival exp(-0.1 t).
"""

import numpy as np
import pytest

from jumpexit.geometry import DomainPartition, build_grid
from jumpexit.kernels import CompoundPoissonUniform, TruncatedStable
from jumpexit.montecarlo import simulate_ensemble
from jumpexit.operators import assemble
from jumpexit.solver import evolve, uniform_density

EXIT_RATE = 0.1  # analytic thinned exit rate: total rate 0.2, exit odds 1/2


@pytest.fixture(scope="session")
def analytic_kernel():
    return CompoundPoissonUniform(rate=0.2, horizon=1.0)


@pytest.fixture(scope="session")
def analytic_partition():
    return DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")


def _analytic_op(kernel, partition, h):
    grid = build_grid(partition, h)
    return assemble(kernel, grid, partition)


@pytest.fixture(scope="session")
def analytic_op_64(analytic_kernel, analytic_partition):
    return _analytic_op(analytic_kernel, analytic_partition, 1 / 64)


@pytest.fixture(scope="session")
def analytic_op_128(analytic_kernel, analytic_partition):
    return _analytic_op(analytic_kernel, analytic_partition, 1 / 128)


@pytest.fixture(scope="session")
def analytic_op_256(analytic_kernel, analytic_partition):
    return _analytic_op(analytic_kernel, analytic_partition, 1 / 256)


@pytest.fixture(scope="session")
def analytic_traj_256(analytic_op_256):
    return evolve(analytic_op_256, uniform_density(analytic_op_256),
                  dt=0.01, t_end=50.0)


@pytest.fixture(scope="session")
def analytic_ensemble(analytic_kernel, analytic_partition):
    return simulate_ensemble(analytic_kernel, analytic_partition,
                             n_paths=100_000, seed=1234, t_max=500.0)


@pytest.fixture(scope="session")
def stable_kernel_05():
    return TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=1e-3)


@pytest.fixture(scope="session")
def stable_kernel_15():
    return TruncatedStable(alpha=1.5, m=1000.0, horizon=1.0, epsilon=1e-3)


@pytest.fixture(scope="session")
def disconnected_partition():
    return DomainPartition.build([(0.0, 1.0), (1.5, 2.5)], horizon=1.0, absorbing="full")


@pytest.fixture(scope="session")
def disconnected_op_256(analytic_kernel, disconnected_partition):
    return _analytic_op(analytic_kernel, disconnected_partition, 1 / 256)


@pytest.fixture(scope="session")
def disconnected_traj(disconnected_op_256):
    return evolve(disconnected_op_256, uniform_density(disconnected_op_256),
                  dt=0.01, t_end=50.0)


@pytest.fixture(scope="session")
def disconnected_ensemble(analytic_kernel, disconnected_partition):
    return simulate_ensemble(analytic_kernel, disconnected_partition,
                             n_paths=100_000, seed=1234, t_max=500.0)


def exp_survival(t):
    return np.exp(-EXIT_RATE * np.asarray(t, dtype=float))


def point_mass(op, x):
    """Single-cell density of unit mass at the domain cell nearest ``x``."""
    i = op.interior[np.argmin(np.abs(op.centers[op.interior] - x))]
    u = np.zeros(op.n_cells)
    u[i] = 1.0 / op.widths[i]
    return u
