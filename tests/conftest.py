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
from hypothesis import strategies as st

from jumpexit.geometry import DomainPartition, Intervals, build_grid, interaction_domain
from jumpexit.kernels import CompoundPoissonUniform, TabulatedKernel, TruncatedStable
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
    k = np.argmin(np.abs(op.centers - x))
    u = np.zeros(op.n_cells)
    u[k] = 1.0 / op.widths[k]
    return u


@st.composite
def kernel_cases(draw):
    """A kernel of one of the four families on a random interval-union
    domain with a random partial absorbing set, and the time scale of its
    walks: ``(kernel, partition, t_scale)``."""
    horizon = draw(st.sampled_from([0.5, 1.0]))
    omega, lo = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        lo += draw(st.floats(0.05, 2.5))
        length = draw(st.floats(0.1, 1.5))
        omega.append((lo, lo + length))
        lo += length
    absorbing = []
    for clo, chi in interaction_domain(Intervals(tuple(omega)), horizon).bounds:
        a, b = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
        kind = draw(st.sampled_from(["full", "none", "part"]))
        if kind == "full":
            absorbing.append((clo, chi))
        elif kind == "part" and b - a > 0.05:
            absorbing.append((clo + a * (chi - clo), clo + b * (chi - clo)))
    part = DomainPartition.build(omega, horizon=horizon, absorbing=absorbing or "empty")

    family = draw(st.sampled_from(["uniform", "power_half", "power_three_halves",
                                   "translation_table", "bivariate_table"]))
    if family == "uniform":
        kernel = CompoundPoissonUniform(rate=draw(st.floats(0.5, 3.0)), horizon=horizon)
        t_scale = 20.0
    elif family == "power_half":
        kernel = TruncatedStable(alpha=0.5, m=1.0, horizon=horizon,
                                 epsilon=draw(st.sampled_from([1e-3, 1e-2])))
        t_scale = 2.0
    elif family == "power_three_halves":
        kernel = TruncatedStable(alpha=1.5, m=100.0, horizon=horizon, epsilon=1e-2)
        t_scale = 3.0
    elif family == "translation_table":
        # the table may stop short of the horizon or run past it
        n = draw(st.integers(2, 24))
        width = draw(st.floats(0.5, 1.5)) * horizon
        values = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        kernel = TabulatedKernel(horizon=horizon,
                                 displacements=np.linspace(-width, width, n),
                                 values=np.array(values))
        t_scale = 20.0
    else:
        # y nodes stop short of the collar on both sides
        y_lo = omega[0][0] - draw(st.floats(0.1, 0.9)) * horizon
        y_hi = omega[-1][1] + draw(st.floats(0.1, 0.9)) * horizon
        x_nodes = np.linspace(omega[0][0], omega[-1][1], draw(st.integers(2, 12)))
        y_nodes = np.linspace(y_lo, y_hi, draw(st.integers(2, 60)))
        c = draw(st.floats(0.5, 4.0))
        grid = 0.2 + 0.1 * np.add.outer(np.sin(c * x_nodes), np.cos(c * y_nodes)) ** 2
        kernel = TabulatedKernel(horizon=horizon, x_nodes=x_nodes, y_nodes=y_nodes,
                                 grid_values=grid)
        t_scale = 20.0
    return kernel, part, t_scale
