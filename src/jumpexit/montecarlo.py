"""Continuous-time random walk simulation of the confined jump process.

Each path draws exponential waits at the local censored jump rate (the
rate integral over domain + absorbing set only, so jumps into the
unreachable collar never occur) and lands by exact inverse-CDF sampling.
The rate and the draw come from one ``JumpLaw`` built per jump. A path
ends when it lands in the absorbing set, or is censored at ``t_max``.

Reproducibility: every path owns a generator seeded from ``(seed,
path_index)``, so an ensemble is bit-identical no matter how the paths are
chunked across workers; reductions sum in fixed path order.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import DomainPartition, Region
from .kernels import JumpKernel


@dataclass(frozen=True)
class ExitRecord:
    x0: float
    exit_time: float
    exit_location: float  # nan when censored
    jumps: int
    censored: bool


@dataclass(eq=False)
class ExitEnsemble:
    """Exit statistics for a batch of independent paths."""

    x0: np.ndarray
    exit_time: np.ndarray
    exit_location: np.ndarray
    jumps: np.ndarray
    censored: np.ndarray
    seed: int
    t_max: float

    @property
    def n_paths(self) -> int:
        return self.x0.size

    def mean_exit_time(self) -> float:
        ok = ~self.censored
        if not np.any(ok):
            raise ValueError("every path was censored; no exit times observed")
        return float(self.exit_time[ok].mean())


@dataclass(eq=False)
class SamplePath:
    """Jump instants and positions; the path is constant between jumps."""

    times: np.ndarray
    positions: np.ndarray


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Per-path stream; depends only on (seed, index), not on scheduling."""
    return np.random.default_rng((int(seed), int(index)))


def simulate_exit(kernel: JumpKernel, partition: DomainPartition, x0: float,
                  rng: np.random.Generator, t_max: float) -> ExitRecord:
    """Walk one path until it lands in the absorbing set or time runs out."""
    if partition.region_of(x0) != Region.INTERIOR:
        raise ConfigurationError(f"start point {x0} is not inside the domain")
    region = partition.reachable
    x = float(x0)
    t = 0.0
    jumps = 0
    while True:
        law = kernel.jump_law(x, region)
        rate = law.total
        if rate <= 0.0:
            raise ConfigurationError(
                f"zero jump rate at x={x}: the point cannot reach the rest of "
                "the configured region"
            )
        t += rng.standard_exponential() / rate
        if t > t_max:
            return ExitRecord(x0=x0, exit_time=t_max, exit_location=np.nan,
                              jumps=jumps, censored=True)
        y = law.sample(rng)
        jumps += 1
        if partition.region_of(y) == Region.ABSORBING:
            return ExitRecord(x0=x0, exit_time=t, exit_location=y,
                              jumps=jumps, censored=False)
        x = y


def _run_chunk(args):
    kernel, partition, x0_spec, seed, t_max, start, stop = args
    records = []
    for idx in range(start, stop):
        rng = path_rng(seed, idx)
        x0 = partition.domain.sample_uniform(rng) if x0_spec is None else float(x0_spec)
        records.append(simulate_exit(kernel, partition, x0, rng, t_max))
    return records


def simulate_ensemble(kernel: JumpKernel, partition: DomainPartition, n_paths: int,
                      seed: int, t_max: float, x0: float | None = None,
                      workers: int = 1) -> ExitEnsemble:
    """Simulate ``n_paths`` independent exits.

    ``x0=None`` draws each start uniformly over the domain (from the path's
    own stream); a float pins every path's start. ``workers > 1`` farms
    chunks out to processes; results are identical to a serial run.
    """
    if n_paths < 1:
        raise ConfigurationError("n_paths must be at least 1")
    if partition.absorbing.empty and not np.isfinite(t_max):
        raise ConfigurationError("confined process needs a finite t_max")
    chunks = []
    n_chunks = max(1, min(workers * 4, n_paths)) if workers > 1 else 1
    bounds = np.linspace(0, n_paths, n_chunks + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            chunks.append((kernel, partition, x0, seed, t_max, int(a), int(b)))
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    records = [r for chunk in results for r in chunk]
    return ExitEnsemble(
        x0=np.array([r.x0 for r in records]),
        exit_time=np.array([r.exit_time for r in records]),
        exit_location=np.array([r.exit_location for r in records]),
        jumps=np.array([r.jumps for r in records], dtype=np.int64),
        censored=np.array([r.censored for r in records], dtype=bool),
        seed=seed, t_max=t_max,
    )


def simulate_path(kernel: JumpKernel, x0: float, rng: np.random.Generator,
                  t_max: float, free_space: bool = True,
                  partition: DomainPartition | None = None) -> SamplePath:
    """Record a sample path: unconfined when ``free_space``, otherwise the
    censored/absorbed walk over the partition (stops on absorption)."""
    if not free_space and partition is None:
        raise ConfigurationError("confined paths need a domain partition")
    region = None if free_space else partition.reachable
    times = [0.0]
    positions = [float(x0)]
    x = float(x0)
    t = 0.0
    while True:
        law = kernel.jump_law(x, region)
        rate = law.total
        if rate <= 0.0:
            raise ConfigurationError(f"zero jump rate at x={x}")
        t += rng.standard_exponential() / rate
        if t > t_max:
            times.append(t_max)
            positions.append(x)
            break
        y = law.sample(rng)
        times.append(t)
        positions.append(y)
        if not free_space and partition.region_of(y) == Region.ABSORBING:
            break
        x = y
    return SamplePath(times=np.array(times), positions=np.array(positions))


def brownian_path(x0: float, rng: np.random.Generator, t_max: float,
                  n_steps: int = 2000, diffusion: float = 0.5) -> SamplePath:
    """Gaussian-increment comparator path with the given diffusion
    coefficient (mean square displacement ``2 * diffusion * t``)."""
    dt = t_max / n_steps
    steps = rng.standard_normal(n_steps) * np.sqrt(2.0 * diffusion * dt)
    positions = np.concatenate([[x0], x0 + np.cumsum(steps)])
    times = np.arange(n_steps + 1) * dt
    return SamplePath(times=times, positions=positions)


def _survival_counts(ensemble: ExitEnsemble, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival at each time and the number of paths it is
    estimated from.

    Censored paths count as still-inside for ``t < t_max`` and drop out of
    the estimate beyond the censoring time.
    """
    if ensemble.n_paths == 0:
        raise ValueError("ensemble is empty")
    s_hat = np.empty(times.size)
    n_obs = np.empty(times.size)
    for k, t in enumerate(times):
        if t < ensemble.t_max:
            alive = ensemble.exit_time > t
            n = ensemble.n_paths
        else:
            ok = ~ensemble.censored
            alive = ok & (ensemble.exit_time > t)
            n = int(ok.sum())
        s_hat[k] = float(alive.sum()) / n if n else np.nan
        n_obs[k] = n
    return s_hat, n_obs


def empirical_survival(ensemble: ExitEnsemble, times) -> tuple[np.ndarray, np.ndarray]:
    """Survival curve with binomial standard errors (see ``_survival_counts``
    for how censored paths count)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    s_hat, n = _survival_counts(ensemble, times)
    with np.errstate(invalid="ignore", divide="ignore"):
        stderr = np.sqrt(s_hat * (1.0 - s_hat) / n)
    return s_hat, stderr


def survival_z_scores(ensemble: ExitEnsemble, times, reference) -> tuple[np.ndarray, np.ndarray]:
    """Per-checkpoint z-scores of the empirical survival against a
    reference curve (callable or array of values at ``times``), and the
    standard errors they divide by.

    The standard error is the binomial one under the null hypothesis that
    the reference is the true survival, ``sqrt(S_ref (1 - S_ref) / n)``,
    with ``S_ref`` clipped to [0, 1] against rounding. Where it is zero
    (at t = 0, say) z is 0 when the estimate equals the reference and
    infinite otherwise.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    s_hat, n = _survival_counts(ensemble, times)
    ref = np.array([reference(t) for t in times]) if callable(reference) \
        else np.asarray(reference, dtype=float)
    ref = np.clip(ref, 0.0, 1.0)
    diff = s_hat - ref
    with np.errstate(invalid="ignore", divide="ignore"):
        stderr = np.sqrt(ref * (1.0 - ref) / n)
        z = np.divide(diff, stderr, out=np.zeros_like(diff), where=diff != 0)
    return z, stderr
