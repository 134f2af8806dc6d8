"""Continuous-time random walk simulation of the confined jump process.

Each path draws exponential waits at the local censored jump rate (the
rate integral over domain + absorbing set only, so jumps into the
unreachable collar never occur) and lands by exact inverse-CDF sampling.
A path ends when it lands in the absorbing set, or is censored at ``t_max``.

Ensembles walk in lockstep, one chunk of paths per worker: each step
builds one batched ``JumpLaws`` for the positions of every live path of
the batch, takes every path's wait and landing from it, and drops the
paths that were absorbed or censored; a half-empty batch takes in the
chunk's next paths. Jump counts have a long tail, so most steps would
carry a few live paths and still pay the whole step's numpy overhead
(about 0.3 ms, against about 10 us for one scalar law): once every path
of the chunk has joined and at most ``_TAIL`` (32) are live, each of
those finishes alone on the scalar ``JumpLaw`` walk, ``_walk_path``.
``simulate_path`` records its few long paths on the same walk.

``map_chunks`` cuts the paths of an ensemble, or of the ``paths``
subcommand, into one chunk of consecutive paths per worker process.

Reproducibility: path i draws from numpy's ``default_rng((seed, i))``
stream (``path_rng``) in the order a lone walk would: its start, then per
jump the wait and the landing uniform. The lockstep walk builds no
``Generator``: ``_streams.PathStreams`` holds every live path's PCG64 state
as arrays, and seeds, steps and draws for all of them at once with numpy's
own integer arithmetic, so each path gets its stream's words, in order, and
turns them into the same doubles. The rare exponential draw off numpy's
ziggurat fast path is made by a scalar ``Generator`` set to that path's
state, which hands the state back; a tail path walks on with that
``Generator``, set to its stream where the lockstep walk left it. The
batched law rounds as the scalar one does. So a path's record does not
depend on the batch it walked in, on the other paths of that batch, on
when it left the lockstep walk, or on the worker count; reductions sum in
fixed path order.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._streams import PathStreams
from .errors import ConfigurationError
from .geometry import DomainPartition
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


# Live paths per lockstep batch, the bound on a process's walk memory (the
# streams take 32 bytes a path; the rest is the jump laws' arrays). On a
# 2-core host, 4096 and 8192 were no faster than 2048 on either benchmark
# workload and left the peak RSS where it was. Refilling leaves one tail of
# short steps per chunk; walking 2048-path slices to their ends took 5373
# steps for 1293 on configs/stable_alpha05.ini, and about 1.7 times as long.
_BATCH = 2048

# Once every path has joined, the lockstep walk hands its last live paths to
# the scalar walk when at most this many are left. A lockstep step costs
# about 0.3 ms of numpy calls whatever its size, a scalar law about 10 us.
# On a 2-core host, stable-mc's 1000-path ensemble on two workers (seed 14)
# took 0.26 s at 0 (864 steps), 0.21 s at 8, 0.18-0.19 s at 16, 32 and 64
# (355 steps at 32), and 0.21 s at 128; the 4000-path fine-grid ensemble
# took 9.5-12 ms at every value from 0 to 128.
_TAIL = 32


def _stuck(x: float) -> ConfigurationError:
    """The error of a walk whose jump rate at ``x`` is zero."""
    return ConfigurationError(
        f"zero jump rate at x={x}: the point cannot reach the rest of the configured region"
    )


def _stranded_part(kernel: JumpKernel, partition: DomainPartition) -> tuple[float, float] | None:
    """A domain component from which no chain of jumps reaches the absorbing
    set; None when every component reaches it. A jump's displacement lies
    in the kernel's support D (``jump_support``), so a chain steps from a
    component to a set that the component's Minkowski sum with D meets."""
    support = kernel.jump_support().bounds
    left = list(partition.domain.bounds)
    reached = partition.absorbing.bounds
    while reached and left:
        reached = [(lo, hi) for lo, hi in left
                   if any(rlo - hi < dhi and lo - rhi < -dlo
                          for rlo, rhi in reached for dlo, dhi in support)]
        left = [part for part in left if part not in reached]
    return left[0] if left else None


def _check_ends(kernel: JumpKernel, partition: DomainPartition | None, t_max: float) -> None:
    """Raise unless every walk ends, by absorption or at a finite ``t_max``."""
    if np.isfinite(t_max):
        return
    if partition is None:
        why = "free space absorbs nothing"
    elif not kernel.translation_invariant:
        why = ("a bivariate kernel table has no one jump support to show that every walk is "
               "absorbed; set a finite [mc] t_max, or leave it unset to censor the walk at 50 "
               "times the largest mean exit time")
    elif (part := _stranded_part(kernel, partition)) is not None:
        why = f"no chain of jumps leads from the domain part {part} to the absorbing set"
    else:
        return
    raise ConfigurationError(f"a walk that nothing absorbs needs a finite t_max, got {t_max}: {why}")


def _walk_path(kernel: JumpKernel, partition: DomainPartition | None, x: float, t: float,
               t_max: float, rng: np.random.Generator, times: list | None = None,
               positions: list | None = None) -> tuple[float, float, int, bool]:
    """Walk one path on from ``x`` at elapsed time ``t``, one scalar jump
    law per jump: a wait from ``rng``, censoring at ``t_max``, then a
    landing uniform from ``rng``. The path ends when it lands outside the
    domain and inside the absorbing set, as in the lockstep walk; with no
    partition it walks free space and ends only at ``t_max``. ``times`` and
    ``positions``, when given, collect each jump's time and landing. Returns
    the end time, the last position, the jumps made and whether the path was
    censored. A zero rate is a ``ConfigurationError``.
    """
    region = None if partition is None else partition.reachable
    jumps = 0
    while True:
        law = kernel.jump_law(x, region)
        rate = law.total
        if rate <= 0.0:
            raise _stuck(x)
        t += rng.standard_exponential() / rate
        if t > t_max:
            return t_max, x, jumps, True
        x = law.sample(rng)
        jumps += 1
        if times is not None:
            times.append(t)
            positions.append(x)
        if partition is not None and not partition.domain.contains(x) \
                and partition.absorbing.contains(x):
            return t, x, jumps, False


def _walk(kernel: JumpKernel, partition: DomainPartition, seed: int, t_max: float,
          first: int, stop: int) -> tuple[np.ndarray, ...]:
    """Walk paths ``first .. stop-1`` until each is absorbed or censored.
    Path i draws from the stream of ``path_rng(seed, i)``: first its start,
    uniform over the domain, as it joins the batch.

    Every lockstep step builds one batched jump law for all live positions,
    then draws every live path's exponential wait and then its uniform, in
    the order a lone walk draws them. Paths therefore come out bit for bit
    as if each walked alone, whatever else is in the batch. Each path's
    elapsed time and jump count live in the output arrays, indexed by the
    live ids; ``ids``, ``x`` and the streams hold the batch. Once every
    path has joined and at most ``_TAIL`` are live, each of those walks on
    alone by ``_walk_path`` from its stream's state.
    A zero rate is a ``ConfigurationError``; when several paths fail, the
    first one's error is raised, as a path-by-path walk would raise it.
    Returns ``x0, exit_time, exit_location, jumps, censored`` in path order.
    """
    n = stop - first
    region = partition.reachable
    x0 = np.empty(n)
    exit_time = np.zeros(n)  # elapsed time until the path ends
    exit_location = np.full(n, np.nan)
    jumps = np.zeros(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    errors = {}
    ids = np.empty(0, dtype=np.int64)
    x = np.empty(0)
    streams = PathStreams.seeded(seed, first, first)
    joined = 0  # paths 0 .. joined-1 have entered the batch
    while joined < n or ids.size > _TAIL:
        if joined < n and ids.size <= _BATCH // 2:
            new = np.arange(joined, min(n, joined + _BATCH - ids.size))
            fresh = PathStreams.seeded(seed, first + joined, first + joined + new.size)
            x0[new] = partition.domain.uniform_points(fresh.random())
            streams.extend(fresh)
            ids, x = np.concatenate([ids, new]), np.concatenate([x, x0[new]])
            joined += new.size
        law = kernel.jump_laws(x, region)
        rate = law.total
        stuck = rate <= 0.0
        if stuck.any():
            for k in np.flatnonzero(stuck):
                errors[int(ids[k])] = _stuck(float(x[k]))
            rate = np.where(stuck, np.inf, rate)  # these paths are dropped below
        wait = streams.standard_exponential()
        uniforms = streams.random()
        t = exit_time[ids] + wait / rate
        over = (t > t_max) & ~stuck
        censored[ids[over]] = True
        exit_time[ids] = np.where(over, t_max, t)
        y = law.sample(uniforms)
        jumped = ~(stuck | over)
        jumps[ids] += jumped
        out = jumped & ~partition.domain.contains(y) & partition.absorbing.contains(y)
        exit_location[ids[out]] = y[out]
        live = jumped & ~out
        streams.keep(live)
        ids, x = ids[live], y[live]
    for k, i in enumerate(ids):
        try:
            t_end, y_end, more, over = _walk_path(kernel, partition, float(x[k]),
                                                  float(exit_time[i]), t_max, streams.generator(k))
        except ConfigurationError as exc:
            errors[int(i)] = exc
            continue
        exit_time[i], censored[i] = t_end, over
        jumps[i] += more
        if not over:
            exit_location[i] = y_end
    if errors:
        raise errors[min(errors)]
    return x0, exit_time, exit_location, jumps, censored


def map_chunks(work, n: int, workers: int) -> list:
    """``work(first, stop)`` for each chunk of ``range(n)``, the results in
    chunk order. There is one chunk of consecutive indices per worker, and
    at most ``os.cpu_count()`` chunks. More than one chunk runs on a pool of
    one process per chunk; when chunks raise, the lowest one's exception is
    raised, as a serial run would raise it. ``work`` must pickle."""
    workers = min(workers, os.cpu_count() or 1)
    size = -(-n // workers)
    firsts = range(0, n, size)
    stops = [min(first + size, n) for first in firsts]
    if len(firsts) == 1:
        return list(map(work, firsts, stops))
    with ProcessPoolExecutor(max_workers=len(firsts)) as pool:
        return list(pool.map(work, firsts, stops))


def simulate_ensemble(kernel: JumpKernel, partition: DomainPartition, n_paths: int,
                      seed: int, t_max: float, workers: int = 1) -> ExitEnsemble:
    """Simulate ``n_paths`` independent exits, each started uniformly over
    the domain (from the path's own stream).

    The paths are walked in chunks of consecutive paths by ``map_chunks``,
    one chunk per worker. Results are identical to a serial run.
    """
    if n_paths < 1:
        raise ConfigurationError("n_paths must be at least 1")
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    _check_ends(kernel, partition, t_max)
    results = map_chunks(partial(_walk, kernel, partition, seed, t_max), n_paths, workers)
    x0s, exit_time, exit_location, jumps, censored = (np.concatenate(a) for a in zip(*results))
    return ExitEnsemble(x0=x0s, exit_time=exit_time, exit_location=exit_location,
                        jumps=jumps, censored=censored, t_max=t_max)


def simulate_path(kernel: JumpKernel, x0: float, rng: np.random.Generator,
                  t_max: float, partition: DomainPartition | None = None) -> SamplePath:
    """Record a sample path from ``x0``, censored at ``t_max``: the free
    jump process when ``partition`` is None, otherwise the walk confined to
    the partition, which stops when it is absorbed. A walk that nothing
    absorbs needs a finite ``t_max``."""
    _check_ends(kernel, partition, t_max)
    times, positions = [0.0], [float(x0)]
    _, x, _, over = _walk_path(kernel, partition, float(x0), 0.0, t_max, rng, times, positions)
    if over:
        times.append(t_max)
        positions.append(x)
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

    A censored path is alive at every ``t <= t_max``, and every path
    counts. Past ``t_max`` every path has exited when none was censored
    (S = 0); otherwise nothing is known there (S = NaN from n = 0).
    """
    if ensemble.n_paths == 0:
        raise ValueError("ensemble is empty")
    s_hat = np.empty(times.size)
    n_obs = np.full(times.size, ensemble.n_paths)
    for k, t in enumerate(times):
        if t > ensemble.t_max and ensemble.censored.any():
            s_hat[k], n_obs[k] = np.nan, 0
        else:
            alive = ensemble.censored | (ensemble.exit_time > t)
            s_hat[k] = float(alive.sum()) / ensemble.n_paths
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
