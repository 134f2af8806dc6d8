"""Time integration of the density equation and steady exit-moment solves.

Both work on the operator's domain block: the volume constraint holds the
density and the exit-time moments at zero on the absorbing cells, so
those unknowns never enter a linear system. Public vectors keep one entry
per cell; they are restricted to the domain on entry and scattered back,
zero on the absorbing cells, on exit.

Time stepping is implicit Euler: ``I - dt * A_fwd`` is an M-matrix
(Metzler off-diagonal signs plus exact weighted column sums), so densities
stay nonnegative and the survival probability is monotone for any step
size. Absorbed mass is accumulated from the same new-step density, which
closes the survival + absorbed budget to solver roundoff rather than
O(dt).

Exit-time moments solve the generator recursion ``A m_k = -k m_{k-1}``
with ``m_0 = 1``, reusing one LU factorization. The coercivity constant is
the smallest eigenvalue of the (symmetrized, width-weighted) negative
generator, from one shift-invert call to ARPACK's implicitly restarted
Lanczos method on the dense block.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh, splu

from .errors import ConfigurationError, NumericalError
from .operators import DiscreteOperator


@dataclass(eq=False)
class DensityTrajectory:
    """Recorded evolution of the not-yet-exited density.

    ``survival[k]`` is the domain mass at ``times[k]``; ``absorbed_cdf[k]``
    the cumulative flux into the absorbing cells. Densities (one entry per
    cell) are stored at ``density_times``: the start and the end, plus
    every ``store_every``-th step when that is given.
    """

    times: np.ndarray
    survival: np.ndarray
    absorbed_cdf: np.ndarray
    density_times: np.ndarray
    densities: np.ndarray

    def survival_at(self, t: float) -> float:
        k = int(round(t / (self.times[1] - self.times[0]))) if self.times.size > 1 else 0
        if not (0 <= k < self.times.size) or abs(self.times[k] - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"time {t} is not on the recorded step grid")
        return float(self.survival[k])


@dataclass(eq=False)
class ExitMoments:
    """k-th exit-time moment field on the operator's cells (zero on the
    absorbing set)."""

    order: int
    values: np.ndarray
    centers: np.ndarray
    interior: np.ndarray

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[self.interior]


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
    u = np.zeros(op.n_cells)
    mass = float(op.widths[op.interior].sum())
    u[op.interior] = 1.0 / mass
    return u


def _validate_u0(op: DiscreteOperator, u0: np.ndarray) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n_cells,):
        raise ConfigurationError(f"u0 must have one entry per cell ({op.n_cells})")
    if np.any(u0 < 0):
        raise ConfigurationError("u0 must be nonnegative")
    if np.any(u0[op.absorbing] != 0):
        raise ConfigurationError("u0 must be supported on the domain cells")
    mass = float(np.sum(u0 * op.widths))
    if abs(mass - 1.0) > 1e-8:
        raise ConfigurationError(f"u0 must integrate to 1, got {mass}")
    return u0


def on_step_grid(t: float, dt: float) -> bool:
    """Whether ``t`` is a whole number of steps ``dt``, to relative 1e-9."""
    return abs(round(t / dt) * dt - t) <= 1e-9 * t


def evolve(op: DiscreteOperator, u0: np.ndarray, dt: float, t_end: float,
           store_every: int | None = None) -> DensityTrajectory:
    """Advance the density by implicit Euler under the forward operator,
    recording survival and absorbed flux per step."""
    if dt <= 0 or t_end <= 0:
        raise ConfigurationError("dt and t_end must be positive")
    if not on_step_grid(t_end, dt):
        raise ConfigurationError(f"t_end = {t_end} is not a whole number of steps dt = {dt}")
    n_steps = int(round(t_end / dt))
    u = _validate_u0(op, u0)[op.interior]

    times = np.arange(n_steps + 1) * dt
    system = (sp.identity(op.interior.size, format="csr") - dt * op.a_star).tocsc()
    try:
        lu = splu(system)
    except RuntimeError as exc:
        raise NumericalError(f"time-step factorization failed: {exc}") from exc

    w_int = op.widths[op.interior]
    exit_w = op.exit_weights  # each step's absorbed flux is one dot product
    survival = np.empty(n_steps + 1)
    absorbed = np.empty(n_steps + 1)
    survival[0] = float(np.sum(u * w_int))
    absorbed[0] = 0.0

    rec_idx = list(range(0, n_steps + 1, max(1, store_every or n_steps)))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    densities = np.zeros((len(rec_idx), op.n_cells))
    densities[0, op.interior] = u
    rec_pos = 1

    f_acc = 0.0
    for k in range(1, n_steps + 1):
        u = lu.solve(u)
        f_acc += dt * float(exit_w @ u)
        survival[k] = float(np.sum(u * w_int))
        absorbed[k] = f_acc
        if rec_pos < len(rec_idx) and k == rec_idx[rec_pos]:
            densities[rec_pos, op.interior] = u
            rec_pos += 1

    return DensityTrajectory(times=times, survival=survival, absorbed_cdf=absorbed,
                             density_times=times[np.array(rec_idx)], densities=densities)


def exit_moments(op: DiscreteOperator, k_max: int) -> list[ExitMoments]:
    """Exit-time moments m_1 .. m_k by the generator recursion, one LU."""
    if op.absorbing.size == 0:
        raise ConfigurationError(
            "exit moments need a nonempty absorbing set; a purely confined "
            "process never exits (the generator is singular on constants)"
        )
    if k_max < 1:
        raise ConfigurationError("k_max must be at least 1")
    lu = op.generator_solver()
    m = np.ones(op.interior.size)  # m_0 on the domain
    out = []
    for k in range(1, k_max + 1):
        m = lu.solve(-k * m)
        if np.min(m) < -1e-10 * max(1.0, float(np.max(np.abs(m)))):
            raise NumericalError(
                f"moment {k} came out negative (min {np.min(m):.3e}); "
                "the discrete system is not an absorbed-process generator"
            )
        values = np.zeros(op.n_cells)
        values[op.interior] = m
        out.append(ExitMoments(order=k, values=values, centers=op.centers, interior=op.interior))
    return out


def mean_exit_time(op: DiscreteOperator) -> ExitMoments:
    """Mean exit time field: generator solve with unit source, zero on the
    absorbing cells."""
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
    Rayleigh quotient of the returned mode. Positive when the whole collar
    absorbs; zero (constants) when nothing does.
    """
    m = -op.a_gen.toarray()
    sw = np.sqrt(op.widths[op.interior])
    c = (sw[:, np.newaxis] * m) / sw[np.newaxis, :]
    b = 0.5 * (c + c.T)
    norm_b = float(np.max(np.abs(b))) or 1.0
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
