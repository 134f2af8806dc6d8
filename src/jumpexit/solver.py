"""Time integration of the density equation and steady exit-moment solves.

Both work on the operator's domain cells: the volume constraint holds the
density and the exit-time moments at zero on the absorbing set, so every
vector here holds one entry per domain cell, in ``op.centers`` order.

Time stepping is implicit Euler: ``I - dt * A_fwd`` is an M-matrix
(Metzler off-diagonal signs plus exact weighted column sums), so densities
stay nonnegative and the survival probability is monotone for any step
size. Absorbed mass is accumulated from the same new-step density, which
closes the survival + absorbed budget to solver roundoff rather than
O(dt). Exit-time moments solve the generator recursion
``A m_k = -k m_{k-1}`` with ``m_0 = 1``.

The step system and the generator are each factored once, by dense
LAPACK when the domain block stores at least a quarter of its entries (a
horizon that spans most of the domain) and by SuperLU when it is banded
(``operators._factor``). The coercivity constant is the smallest
eigenvalue of the (symmetrized, width-weighted) negative generator, from
one shift-invert call to ARPACK's implicitly restarted Lanczos method, on
the dense block or, when it is banded, on the sparse one.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import ConfigurationError, NumericalError
from .operators import DiscreteOperator, _factor, _is_dense


@dataclass(eq=False)
class DensityTrajectory:
    """Recorded evolution of the not-yet-exited density.

    ``survival[k]`` is the domain mass at ``times[k] = k dt``;
    ``absorbed_cdf[k]`` the cumulative flux into the absorbing set.
    """

    times: np.ndarray
    survival: np.ndarray
    absorbed_cdf: np.ndarray

    def survival_at(self, t: float) -> float:
        """The survival at a recorded time: ``t`` must be on the step grid
        (``on_step_grid``) and within the run."""
        dt = self.times[1]
        k = int(round(t / dt))
        if not (on_step_grid(t, dt) and 0 <= k < self.times.size):
            raise ValueError(f"time {t} is not on the recorded step grid")
        return float(self.survival[k])


@dataclass(eq=False)
class ExitMoments:
    """k-th exit-time moment field on the domain cells (the volume
    constraint holds it at zero on the absorbing set)."""

    order: int
    values: np.ndarray


@dataclass(frozen=True)
class SigmaEstimate:
    """Coercivity constant with its eigenpair residual ``|b x - value x|``
    and mode (unit norm, one entry per domain cell). ``iterations`` counts
    eigensolver calls, so it is always 1."""

    value: float
    residual: float
    iterations: int
    mode: np.ndarray


def uniform_density(op: DiscreteOperator) -> np.ndarray:
    """Probability density uniform over the domain cells."""
    return np.full(op.n_cells, 1.0 / float(op.widths.sum()))


def _validate_u0(op: DiscreteOperator, u0: np.ndarray) -> np.ndarray:
    u0 = op.domain_vector(u0, "u0")
    if np.any(u0 < 0):
        raise ConfigurationError("u0 must be nonnegative")
    mass = float(np.sum(u0 * op.widths))
    if abs(mass - 1.0) > 1e-8:
        raise ConfigurationError(f"u0 must integrate to 1, got {mass}")
    return u0


def on_step_grid(t: float, dt: float) -> bool:
    """Whether ``t`` is a whole number of steps ``dt``, to relative 1e-9."""
    return abs(round(t / dt) * dt - t) <= 1e-9 * t


def evolve(op: DiscreteOperator, u0: np.ndarray, dt: float, t_end: float) -> DensityTrajectory:
    """Advance the density by implicit Euler under the forward operator,
    recording survival and absorbed flux per step.

    ``I - dt A_fwd`` is factored once; a singular step system raises
    ``NumericalError``."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf):
        raise ConfigurationError("dt and t_end must be positive and finite")
    if not on_step_grid(t_end, dt):
        raise ConfigurationError(f"t_end = {t_end} is not a whole number of steps dt = {dt}")
    n_steps = int(round(t_end / dt))
    u = _validate_u0(op, u0)

    times = np.arange(n_steps + 1) * dt
    step = _factor(op.a_star, "time-step", dt).solve

    w = op.widths
    exit_w = op.exit_weights  # each step's absorbed flux is one dot product
    survival = np.empty(n_steps + 1)
    absorbed = np.empty(n_steps + 1)
    survival[0] = float(np.sum(u * w))
    absorbed[0] = 0.0

    f_acc = 0.0
    for k in range(1, n_steps + 1):
        u = step(u)
        f_acc += dt * float(exit_w @ u)
        survival[k] = float(np.sum(u * w))
        absorbed[k] = f_acc

    return DensityTrajectory(times=times, survival=survival, absorbed_cdf=absorbed)


def _cell_without_exit(op: DiscreteOperator) -> int | None:
    """Position of the first domain cell from which no chain of jumps
    reaches the absorbing set, a cell that cannot jump at all included;
    None when there is none.

    The generator is singular exactly when some cell has no way out. The
    search runs backwards from the cells with a positive exit weight,
    reading each row of the forward matrix at most once (row j lists the
    cells that jump into cell j), so it is O(nnz).
    """
    done = op.exit_weights > 0
    frontier = np.flatnonzero(done)
    while frontier.size and not done.all():
        into = op.a_star[frontier]
        sources = into.indices[into.data != 0]
        frontier = np.unique(sources[~done[sources]])
        done[frontier] = True
    stuck = np.flatnonzero(~done)
    return int(stuck[0]) if stuck.size else None


def exit_moments(op: DiscreteOperator, k_max: int) -> list[ExitMoments]:
    """Exit-time moments m_1 .. m_k by the generator recursion, one LU.
    A domain cell that cannot reach the absorbing set is a
    ``ConfigurationError``: its exit time is infinite."""
    stuck = _cell_without_exit(op)
    if stuck is not None:
        raise ConfigurationError(
            f"no chain of jumps from the domain cell at x={float(op.centers[stuck])} "
            "reaches the absorbing set, so the exit time from there is infinite "
            "and has no moments (the generator is singular)"
        )
    if k_max < 1:
        raise ConfigurationError("k_max must be at least 1")
    lu = op.generator_solver()
    m = np.ones(op.n_cells)  # m_0 on the domain
    out = []
    for k in range(1, k_max + 1):
        m = lu.solve(-k * m)
        if np.min(m) < -1e-10 * max(1.0, float(np.max(np.abs(m)))):
            raise NumericalError(
                f"moment {k} came out negative (min {np.min(m):.3e}); "
                "the discrete system is not an absorbed-process generator"
            )
        out.append(ExitMoments(order=k, values=m))
    return out


def mean_exit_time(op: DiscreteOperator) -> ExitMoments:
    """Mean exit time field on the domain cells: generator solve with unit
    source."""
    return exit_moments(op, 1)[0]


# Shift-invert target for sigma, relative to the largest entry: it keeps
# the shifted block nonsingular when 0 is an eigenvalue (nothing absorbs).
_SIGMA_SHIFT = -1e-10


def coercivity_sigma(op: DiscreteOperator) -> SigmaEstimate:
    """Smallest eigenvalue of the negative generator on the domain block.

    Works in the width-weighted inner product: the matrix is symmetrized as
    ``(C + C^T)/2`` with ``C = W^{1/2} (-A) W^{-1/2}`` and the bottom of its
    spectrum found by one shift-invert Lanczos call (ARPACK, started from
    the constant vector so that reruns are bit-identical); the value is the
    Rayleigh quotient of the returned mode. Positive when every domain cell
    can reach the absorbing set; zero (constants) when nothing absorbs.
    """
    sw = np.sqrt(op.widths)
    if _is_dense(op.a_gen):
        # 0.5 (c + c^T), c = (sw * -a) / sw, in one array and the same IEEE
        # operations: (-a) s = -(a s), and numpy buffers the overlapping b.T
        b = op.a_gen.toarray()
        b *= -sw[:, np.newaxis]
        b /= sw[np.newaxis, :]
        b += b.T
        b *= 0.5
    else:  # ARPACK's shift-invert factors a sparse b with SuperLU
        c = sp.diags(sw) @ -op.a_gen @ sp.diags(1.0 / sw)
        b = 0.5 * (c + c.T)
    norm_b = float(abs(b).max()) or 1.0
    try:
        with warnings.catch_warnings():
            # a one-cell block goes to scipy.linalg.eigh, with this warning
            warnings.filterwarnings("ignore", "k >= N for N", RuntimeWarning)
            _, vecs = eigsh(b, k=1, sigma=_SIGMA_SHIFT * norm_b, v0=np.ones(b.shape[0]))
    except ArpackError as exc:
        raise NumericalError(f"coercivity eigensolve failed: {exc}") from exc
    x = vecs[:, 0]
    bx = b @ x
    rho = float(x @ bx)  # the Rayleigh quotient: its error is the square of the mode's
    residual = float(np.linalg.norm(bx - rho * x))
    mode = x / sw
    mode /= np.linalg.norm(mode)
    return SigmaEstimate(value=rho, residual=residual, iterations=1, mode=mode)
