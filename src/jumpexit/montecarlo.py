"""Continuous-time random walk simulation of the confined jump process.

Each path draws exponential waits at the local censored jump rate (the
rate integral over domain + absorbing set only, so jumps into the
unreachable collar never occur) and lands by exact inverse-CDF sampling.
A path ends when it lands in the absorbing set, or is censored at ``t_max``.

Ensembles walk in lockstep: each step builds one batched ``JumpLaws`` for
the positions of every live path, takes every path's wait and landing from
it, and drops the paths that were absorbed or censored. ``simulate_path``
keeps the scalar ``JumpLaw`` walk, one law per jump, since it records few
long paths.

Reproducibility: path i draws from numpy's ``default_rng((seed, i))``
stream (``path_rng``) in the order a lone walk would: its start, then per
jump the wait and the landing uniform. The lockstep walk builds no
``Generator``: ``_streams.PathStreams`` holds every live path's PCG64 state
as arrays, and seeds, steps and draws for all of them at once with numpy's
own integer arithmetic, so each path gets its stream's words, in order, and
turns them into the same doubles. The rare exponential draw off numpy's
ziggurat fast path is made by a scalar ``Generator`` set to that path's
state, which hands the state back. The batched law rounds as the scalar
one does. So a path's record does not depend on the batch it walked in, on
how the paths are chunked across workers, or on the worker count;
reductions sum in fixed path order.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._streams import PathStreams
from .errors import ConfigurationError
from .geometry import DomainPartition, Intervals, Region
from .kernels import JumpKernel


@dataclass(eq=False)
class ExitEnsemble:
    """Exit statistics for a batch of independent paths."""

    x0: np.ndarray
    exit_time: np.ndarray
    exit_location: np.ndarray
    jumps: np.ndarray
    censored: np.ndarray
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


# Live paths per lockstep batch. A chunk larger than this refills the batch
# as paths finish. The streams take 32 bytes a path, so the batch's memory
# is the jump laws' arrays; on a 2-core host, batches of 4096 and 8192 paths
# were no faster than 2048 on either benchmark workload and left the peak
# RSS where it was.
_BATCH = 2048


def _inside(region: Intervals, ys: np.ndarray) -> np.ndarray:
    """``region.contains`` for every point of ``ys``."""
    out = np.zeros(ys.size, dtype=bool)
    for lo, hi in region.bounds:
        out |= (lo <= ys) & (ys <= hi)
    return out


def _walk(kernel: JumpKernel, partition: DomainPartition, seed: int, t_max: float,
          first: int, stop: int) -> tuple[np.ndarray, ...]:
    """Walk paths ``first .. stop-1`` in lockstep until each is absorbed or
    censored. Path i draws from the stream of ``path_rng(seed, i)``: first
    its start, uniform over the domain.

    Every step builds one batched jump law for all live positions, then
    draws every live path's exponential wait and then its uniform, in the
    order a lone walk draws them. Paths therefore come out bit for bit as
    if each walked alone, whatever else is in the batch.
    A zero rate is a ``ConfigurationError``; when several paths fail, the
    first one's error is raised, as a path-by-path walk would raise it.
    Returns ``x0, exit_time, exit_location, jumps, censored`` in path order.
    """
    n = stop - first
    region = partition.reachable
    x0 = np.empty(n)
    exit_time = np.full(n, t_max, dtype=float)
    exit_location = np.full(n, np.nan)
    jumps = np.zeros(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    errors = {}
    ids = np.empty(0, dtype=np.int64)
    x = np.empty(0)
    t = np.empty(0)
    count = np.empty(0, dtype=np.int64)
    streams = PathStreams.seeded(seed, first, first)
    pending = 0
    while True:
        if pending < n and len(streams) <= _BATCH // 2:
            end = min(n, pending + _BATCH - len(streams))
            new = PathStreams.seeded(seed, first + pending, first + end)
            x0[pending:end] = partition.domain.uniform_points(new.random())
            streams.extend(new)
            new_ids = np.arange(pending, end, dtype=np.int64)
            pending = end
            ids = np.concatenate([ids, new_ids])
            x = np.concatenate([x, x0[new_ids]])
            t = np.concatenate([t, np.zeros(new_ids.size)])
            count = np.concatenate([count, np.zeros(new_ids.size, dtype=np.int64)])
        if not len(streams):
            break
        law = kernel.jump_laws(x, region)
        rate = law.total
        stuck = rate <= 0.0
        if stuck.any():
            for k in np.flatnonzero(stuck):
                errors[int(ids[k])] = ConfigurationError(
                    f"zero jump rate at x={float(x[k])}: the point cannot reach the rest "
                    "of the configured region"
                )
            rate = np.where(stuck, np.inf, rate)  # these paths are dropped below
        wait = streams.standard_exponential()
        uniforms = streams.random()
        t = t + wait / rate
        over = (t > t_max) & ~stuck
        censored[ids[over]] = True
        jumps[ids[over]] = count[over]
        y = law.sample(uniforms)
        count = count + 1
        out = ~stuck & ~over & ~_inside(partition.domain, y) & _inside(partition.absorbing, y)
        exit_time[ids[out]] = t[out]
        exit_location[ids[out]] = y[out]
        jumps[ids[out]] = count[out]
        live = ~(stuck | over | out)
        if not live.all():
            streams.keep(live)
            ids, t, count = ids[live], t[live], count[live]
        x = y[live]
    if errors:
        raise errors[min(errors)]
    return x0, exit_time, exit_location, jumps, censored


def simulate_ensemble(kernel: JumpKernel, partition: DomainPartition, n_paths: int,
                      seed: int, t_max: float, workers: int = 1) -> ExitEnsemble:
    """Simulate ``n_paths`` independent exits, each started uniformly over
    the domain (from the path's own stream).

    ``workers > 1`` splits the paths into one chunk per worker process;
    results are identical to a serial run.
    """
    if n_paths < 1:
        raise ConfigurationError("n_paths must be at least 1")
    if partition.absorbing.empty and not np.isfinite(t_max):
        raise ConfigurationError("confined process needs a finite t_max")
    n_chunks = min(workers, n_paths) if workers > 1 else 1
    bounds = np.linspace(0, n_paths, n_chunks + 1).astype(int)
    chunks = [(kernel, partition, seed, t_max, int(a), int(b))
              for a, b in zip(bounds[:-1], bounds[1:])]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_walk, *zip(*chunks)))
    else:
        results = [_walk(*chunks[0])]
    x0s, exit_time, exit_location, jumps, censored = (np.concatenate(a) for a in zip(*results))
    return ExitEnsemble(x0=x0s, exit_time=exit_time, exit_location=exit_location,
                        jumps=jumps, censored=censored, t_max=t_max)


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
                  n_steps: int = 2000) -> SamplePath:
    """Gaussian-increment comparator path with diffusion coefficient 1/2,
    so the mean square displacement is ``t``."""
    dt = t_max / n_steps
    steps = rng.standard_normal(n_steps) * np.sqrt(dt)
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
