"""Stochastic arm: exit ensembles, sample paths, empirical survival, and
their statistical agreement with the closed-form exit law and the solver.

Statistical gates are three standard errors on fixed seeds; the
Anderson-Darling gate uses the 1% critical value 3.857 for a fully
specified null distribution.
"""

import dataclasses
import hashlib
import itertools
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXIT_RATE, exp_survival, kernel_cases
from jumpexit import _streams
from jumpexit import montecarlo as mc
from jumpexit._streams import PathStreams
from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, Intervals, interaction_domain
from jumpexit.kernels import (CompoundPoissonUniform, JumpKernel, JumpLaw, JumpLaws,
                              TabulatedKernel, TruncatedStable)
from jumpexit.montecarlo import (ExitEnsemble, SamplePath, brownian_path, empirical_survival,
                                 path_rng, simulate_ensemble, simulate_path,
                                 survival_z_scores)
from jumpexit.solver import evolve, uniform_density

AD_CRIT_1PCT = 3.857
KS_CRIT_1PCT = 1.628


def recorded_paths(kernel, partition, seed, t_max, n_paths):
    """The sample paths 0 .. n_paths-1 as the ``paths`` subcommand records
    them: on the lockstep walk, each from its start (uniform over the
    domain, or 0 in free space)."""
    *_, (path, t, x) = mc._walk(kernel, partition, seed, t_max, 0, n_paths, record=True)
    cuts = np.flatnonzero(np.diff(path)) + 1
    return [SamplePath(times=a, positions=b) for a, b in zip(np.split(t, cuts), np.split(x, cuts))]


def test_exit_records_well_formed(analytic_ensemble, analytic_partition):
    ens = analytic_ensemble
    assert ens.n_paths == 100_000
    ok = ~ens.censored
    assert np.all([analytic_partition.absorbing.contains(y) for y in ens.exit_location[ok][:2000]])
    assert np.all(np.isnan(ens.exit_location[~ok]))
    assert np.all([analytic_partition.domain.contains(x) for x in ens.x0[:2000]])
    assert np.all(ens.jumps[ok] >= 1)


def test_mean_exit_time_estimate(analytic_ensemble):
    # Exponential(0.1) law: mean 10, sd 10; 3 sigma at 1e5 paths
    assert abs(analytic_ensemble.mean_exit_time() - 10.0) <= 3 * 10.0 / np.sqrt(1e5)


def test_first_jump_exit_probability(analytic_ensemble):
    # jump from anywhere in the unit domain lands outside with odds exactly 1/2
    p = np.mean(analytic_ensemble.jumps[~analytic_ensemble.censored] == 1)
    assert abs(p - 0.5) <= 3 * np.sqrt(0.25 / analytic_ensemble.n_paths)


def test_empirical_survival_at_zero(analytic_ensemble):
    s, se = empirical_survival(analytic_ensemble, [0.0])
    assert s[0] == 1.0


def test_survival_against_exponential(analytic_ensemble):
    s, se = empirical_survival(analytic_ensemble, [10.0])
    assert abs(s[0] - np.exp(-1.0)) <= 3 * se[0]
    z, _ = survival_z_scores(analytic_ensemble, [1, 5, 10, 25, 50], exp_survival)
    assert np.max(np.abs(z)) <= 3.0


def test_survival_against_solver(analytic_ensemble, analytic_traj_256):
    times = [1.0, 5.0, 10.0, 25.0, 50.0]
    ref = [analytic_traj_256.survival_at(t) for t in times]
    z, _ = survival_z_scores(analytic_ensemble, times, ref)
    assert np.max(np.abs(z)) <= 3.0


def test_censored_records_beyond_t_max():
    # hand-built ensemble: censored paths are alive up to and at t_max, and
    # past it the survival of a censored ensemble is unknown
    ens = ExitEnsemble(
        x0=np.zeros(4),
        exit_time=np.array([1.0, 3.0, 5.0, 5.0]),
        exit_location=np.array([1.5, 1.5, np.nan, np.nan]),
        jumps=np.array([1, 2, 9, 9]),
        censored=np.array([False, False, True, True]),
        t_max=5.0,
    )
    s, se = empirical_survival(ens, [2.0, 4.0, 6.0, 5.0])
    assert s[0] == pytest.approx(3 / 4)   # censored still counted alive
    assert s[1] == pytest.approx(2 / 4)
    assert np.isnan(s[2]) and np.isnan(se[2])
    assert s[3] == pytest.approx(2 / 4)   # at t_max, over all 4 paths
    # with no path censored, every path has exited by t_max
    absorbed = dataclasses.replace(ens, censored=np.zeros(4, dtype=bool))
    s, se = empirical_survival(absorbed, [4.0, 5.0, 6.0])
    assert s.tolist() == [0.5, 0.0, 0.0]
    assert se[2] == 0.0


def test_censored_process_never_exits():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    ens = simulate_ensemble(k, part, n_paths=50, seed=3, t_max=30.0)
    assert np.all(ens.censored)
    for path in recorded_paths(k, part, 3, 100.0, 5):
        assert np.all((path.positions > 0.0) & (path.positions < 1.0))


def test_a_partition_confines_the_sample_path():
    # the partition alone confines the walk: every landing stays in the
    # domain until one lands in the absorbing set and ends the path; with
    # no partition the same streams walk free space and leave the domain
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(1.0, 2.0)])
    left = 0
    for i, path in enumerate(recorded_paths(k, part, 12, 200.0, 50)):
        inside = part.domain.contains(path.positions)
        assert np.all(inside[:-1])
        assert inside[-1] or (path.positions[-1] > 1.0 and path.times[-1] < 200.0)
        left += np.any(simulate_path(k, 0.5, path_rng(12, i), 200.0).positions < 0.0)
    assert left > 0


def test_a_walk_nothing_absorbs_needs_a_finite_t_max():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    full = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    empty = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    for t_max in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="nothing absorbs needs a finite t_max"):
            simulate_path(k, 0.5, path_rng(0, 0), t_max)
        with pytest.raises(ConfigurationError, match="nothing absorbs needs a finite t_max"):
            simulate_ensemble(k, empty, n_paths=4, seed=0, t_max=t_max)
    # absorption ends the walk whatever t_max is
    assert recorded_paths(k, full, 0, np.inf, 1)[0].times[-1] < np.inf


def test_a_walk_from_a_part_nothing_absorbs_needs_a_finite_t_max():
    # (5, 6) lies farther than the horizon from the absorbing set and from
    # the other component; (0, 1) touches the absorbing set
    k = CompoundPoissonUniform(rate=1.0, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0), (5.0, 6.0)], horizon=1.0,
                                 absorbing=[(-1.0, 0.0), (1.0, 2.0)])
    for t_max in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match=r"nothing absorbs needs a finite t_max"
                                                     r".*domain part \(5\.0, 6\.0\)"):
            simulate_ensemble(k, part, n_paths=4, seed=0, t_max=t_max)
        with pytest.raises(ConfigurationError, match="nothing absorbs needs a finite t_max"):
            mc._check_ends(k, part, t_max)  # the check simulate_ensemble makes first
    assert recorded_paths(k, part, 0, 50.0, 1)[0].times[-1] <= 50.0


def test_a_chain_of_components_reaches_the_absorbing_set():
    # (1.5, 2.5) reaches the absorbing set only through (0, 1), across a
    # gap of 0.5 < horizon: every walk ends by absorption
    k = CompoundPoissonUniform(rate=1.0, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0), (1.5, 2.5)], horizon=1.0,
                                 absorbing=[(-1.0, -0.5)])
    ens = simulate_ensemble(k, part, n_paths=50, seed=4, t_max=np.inf)
    assert not ens.censored.any() and np.all(ens.exit_location < -0.5)
    # a gap of exactly the horizon cannot be jumped
    far = DomainPartition.build([(0.0, 1.0), (2.0, 3.0)], horizon=1.0, absorbing=[(-1.0, 0.0)])
    with pytest.raises(ConfigurationError, match=r"domain part \(2\.0, 3\.0\)"):
        mc._check_ends(k, far, np.inf)


def test_reachability_follows_the_kernel_support():
    # jumps go right only, by 0.1 to 0.5: (0, 1) reaches an absorbing set
    # on its right and never one on its left, whatever the horizon spans
    k = TabulatedKernel(horizon=1.0, displacements=np.array([0.1, 0.5]),
                        values=np.array([1.0, 1.0]))
    left = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(-1.0, 0.0)])
    with pytest.raises(ConfigurationError, match=r"domain part \(0\.0, 1\.0\)"):
        mc._check_ends(k, left, np.inf)
    right = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(1.0, 2.0)])
    mc._check_ends(k, right, np.inf)
    ens = simulate_ensemble(k, right, n_paths=50, seed=4, t_max=np.inf)
    assert not ens.censored.any() and np.all(ens.exit_location > 1.0)


def _land_first_at(monkeypatch, law_class, y0):
    """Make the first ``law_class.sample`` call land every point it draws
    for at ``y0``, after drawing as the walk would."""
    sample, calls = law_class.sample, []

    def first_at(law, u):
        y = sample(law, u)
        if calls:
            return y
        calls.append(y)
        return np.full_like(y, y0) if isinstance(y, np.ndarray) else y0
    monkeypatch.setattr(law_class, "sample", first_at)


@pytest.mark.parametrize("walk", ["recorded_path", "simulate_ensemble"])
def test_a_landing_on_the_shared_endpoint_stays_in_the_domain(walk, monkeypatch):
    # x = 1.0 ends the domain (0, 1) and starts the absorbing set (1, 2):
    # the scalar walk and the lockstep walk both keep a landing there in
    # the domain and jump on from it. Every path lands at 1.0 in the first
    # lockstep step; the first path that the scalar tail walk takes on
    # lands there again
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    _land_first_at(monkeypatch, JumpLaw, 1.0)
    _land_first_at(monkeypatch, JumpLaws, 1.0)
    if walk == "recorded_path":
        path, = recorded_paths(k, part, 5, 1e4, 1)
        assert path.positions[1] == path.positions[2] == 1.0 and path.positions.size > 3
        assert not part.domain.contains(path.positions[-1])
        return
    ens = simulate_ensemble(k, part, n_paths=8, seed=5, t_max=1e4)
    assert not ens.censored.any() and np.all(ens.jumps >= 2)
    assert not part.domain.contains(ens.exit_location).any()
    assert ens.jumps[0] >= 3


def test_strict_absorbing_subset_censors_the_rest():
    # only the right collar absorbs; the left collar must never be visited
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(1.0, 2.0)])
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    ens = simulate_ensemble(k, part, n_paths=3000, seed=11, t_max=400.0)
    ok = ~ens.censored
    assert ok.sum() > 0
    assert np.all(ens.exit_location[ok] >= 1.0)
    left = Intervals(((-1.0, 0.0),))
    for path in recorded_paths(k, part, 11, 50.0, 200):
        assert not any(left.contains(p) for p in path.positions)
        assert np.max(np.abs(np.diff(path.positions))) < 1.0  # range invariant


def test_reproducible_across_worker_counts(analytic_kernel, analytic_partition):
    runs = [simulate_ensemble(analytic_kernel, analytic_partition, n_paths=300,
                              seed=99, t_max=200.0, workers=w) for w in (1, 4, 8)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].exit_time, other.exit_time)
        assert np.array_equal(runs[0].x0, other.x0)
        assert np.array_equal(runs[0].jumps, other.jumps)


def _chunk_pid(first, stop):
    time.sleep(0.5)  # long enough that each worker of the pool takes one chunk
    return first, stop, os.getpid()


def _chunk_error(first, stop):
    if first == 0:
        time.sleep(0.5)  # the later chunk raises first
    raise ValueError(f"chunk {first}")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: map_chunks runs one chunk")
def test_map_chunks_runs_each_chunk_in_a_worker_process():
    chunks = mc.map_chunks(_chunk_pid, 5, workers=2)
    assert [chunk[:2] for chunk in chunks] == [(0, 3), (3, 5)]
    pids = {chunk[2] for chunk in chunks}
    assert len(pids) == 2 and os.getpid() not in pids


def test_map_chunks_returns_chunk_order_and_raises_the_first_chunk_error():
    two = (os.cpu_count() or 1) >= 2
    assert mc.map_chunks(range, 5, workers=2) == ([range(0, 3), range(3, 5)] if two
                                                  else [range(0, 5)])
    # one chunk runs in this process: the lambda need not pickle
    assert mc.map_chunks(lambda first, stop: (first, stop), 5, workers=1) == [(0, 5)]
    assert mc.map_chunks(lambda first, stop: (first, stop), 1, workers=4) == [(0, 1)]
    with pytest.raises(ValueError, match="chunk 0"):
        mc.map_chunks(_chunk_error, 4, workers=2)


def test_exit_times_anderson_darling_exponential(analytic_ensemble):
    # thinning of the rate-0.2 clock by the exactly-1/2 exit odds gives
    # Exponential(0.1) exit times
    t = analytic_ensemble.exit_time[~analytic_ensemble.censored][:10_000]
    n = t.size
    f = 1.0 - np.exp(-EXIT_RATE * np.sort(t))
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(f) + np.log(1 - f[::-1])))
    assert a2 <= AD_CRIT_1PCT


def test_standardized_waits_are_unit_exponential():
    # position-dependent rate: only the right collar is reachable, so the
    # censored rate from x is 0.1 * (1 + x); wait * rate must pool to Exp(1)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(1.0, 2.0)])
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    region = part.reachable
    pooled = []
    for path in recorded_paths(k, part, 21, 300.0, 400):
        waits = np.diff(path.times)
        xs = path.positions[:-1]
        censored_tail = part.domain.contains(path.positions[-1]) and path.times[-1] == 300.0
        if censored_tail:
            waits, xs = waits[:-1], xs[:-1]
        pooled.extend(w * k.total_rate(x, region) for w, x in zip(waits, xs))
    pooled = np.sort(np.array(pooled))
    n = pooled.size
    assert n > 1000
    cdf = 1.0 - np.exp(-pooled)
    stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert stat <= KS_CRIT_1PCT / np.sqrt(n)
    # sanity on the rate formula itself
    assert k.total_rate(0.25, region) == pytest.approx(0.1 * 1.25, rel=1e-12)


def test_free_space_jump_counts_poisson(analytic_kernel, stable_kernel_05):
    lam_cp = analytic_kernel.total_rate(0.0)
    counts = [simulate_path(analytic_kernel, 0.0, path_rng(31, i), 50.0).times.size - 2
              for i in range(40)]
    mean_expect = lam_cp * 50.0
    assert abs(np.mean(counts) - mean_expect) <= 3 * np.sqrt(mean_expect / len(counts))

    lam = stable_kernel_05.total_rate(0.0)
    assert lam == pytest.approx(185.73665961010278, rel=1e-12)
    for i in range(3):
        path = simulate_path(stable_kernel_05, 0.0, path_rng(32, i), 50.0)
        n_jumps = path.times.size - 2
        assert abs(n_jumps - lam * 50.0) <= 3 * np.sqrt(lam * 50.0)
        assert np.max(np.abs(np.diff(path.positions))) < stable_kernel_05.horizon


def test_brownian_comparator_msd():
    finals = np.array([brownian_path(0.0, path_rng(41, i), 50.0, n_steps=200).positions[-1]
                       for i in range(10_000)])
    msd = float(np.mean(finals ** 2))
    assert abs(msd - 50.0) <= 0.05 * 50.0


def test_stuck_particle_is_a_configuration_error():
    zero = TabulatedKernel(horizon=1.0, displacements=np.linspace(-1, 1, 9),
                           values=np.zeros(9))
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    with pytest.raises(ConfigurationError):
        simulate_ensemble(zero, part, n_paths=1, seed=0, t_max=10.0)


def test_asymmetric_kernel_moments_validate_against_mc():
    # drifted kernel: no self-adjoint shortcut, so the moment solve is
    # checked against the stochastic arm directly
    z = np.linspace(-1, 1, 21)
    v = np.where(z > 0, 0.35, 0.15).astype(float)
    v[z == 0] = 0.25
    k = TabulatedKernel(horizon=1.0, displacements=z, values=v)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    from jumpexit.geometry import build_grid
    from jumpexit.operators import assemble
    from jumpexit.solver import mean_exit_time
    op = assemble(k, build_grid(part, 1 / 128), part)
    solver_mean = float(mean_exit_time(op).values.mean())
    ens = simulate_ensemble(k, part, n_paths=6000, seed=8, t_max=200.0)
    se = ens.exit_time[~ens.censored].std() / np.sqrt((~ens.censored).sum())
    assert abs(ens.mean_exit_time() - solver_mean) <= 3 * se


def test_mc_matches_solver_on_strict_subset_config():
    # mixed absorbed/censored configuration: cross-validate the two arms
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(1.0, 2.0)])
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    from jumpexit.geometry import build_grid
    from jumpexit.operators import assemble
    op = assemble(k, build_grid(part, 1 / 128), part)
    traj = evolve(op, uniform_density(op), dt=0.02, t_end=40.0)
    ens = simulate_ensemble(k, part, n_paths=40_000, seed=17, t_max=500.0)
    times = [2.0, 10.0, 20.0, 40.0]
    ref = [traj.survival_at(t) for t in times]
    z, _ = survival_z_scores(ens, times, ref)
    assert np.max(np.abs(z)) <= 3.0


# --- one jump law per jump ---------------------------------------------------

def _family_cases():
    """One walk per kernel family, two of them on a partial absorbing set."""
    unit = [(0.0, 1.0)]
    z = np.linspace(-1.0, 1.0, 21)
    v = np.where(z > 0, 0.35, 0.15)
    nodes = np.linspace(-1.5, 2.5, 41)
    vv = 0.2 + 0.05 * np.add.outer(np.sin(nodes), np.cos(nodes)) ** 2
    return {
        "uniform": (CompoundPoissonUniform(rate=0.2, horizon=1.0),
                    DomainPartition.build(unit, horizon=1.0, absorbing="full"), 50.0),
        "capped_power_law": (TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=1e-3),
                             DomainPartition.build(unit, horizon=1.0, absorbing=[(1.0, 2.0)]),
                             20.0),
        "translation_table": (TabulatedKernel(horizon=1.0, displacements=z, values=v),
                              DomainPartition.build(unit, horizon=1.0, absorbing="full"), 50.0),
        "bivariate_table": (TabulatedKernel(horizon=1.0, x_nodes=nodes, y_nodes=nodes,
                                            grid_values=vv),
                            DomainPartition.build(unit, horizon=1.0, absorbing=[(-1.0, 0.0)]),
                            50.0),
    }


# sha256 of x0, exit_time, exit_location and jumps (raw float64/int64 bytes)
# of a 200-path, seed-7 ensemble, recorded before the rate and the draw were
# taken from one jump law: the random streams must not move.
STREAM_PINS = {
    "uniform": "03e349c2df443349b7688de33b1c2d8a7000fae07af155886c057c6462d890bc",
    "capped_power_law": "80b7155bb113b3a9e8c7c75b669ba241e8ebc25579dc317e5b2b4f3ea07c3ce9",
    "translation_table": "ed384d2c75dc5d686d3faf4048392cb5d06cd1e4f2c52b9a27b5ab3aa3b1ba3a",
    "bivariate_table": "748a30f1b430e6140d61234270ebda207c86c910d2752fbad16126eb8213840f",
}


@pytest.mark.parametrize("family", sorted(STREAM_PINS))
def test_ensemble_streams_are_pinned(family):
    kernel, part, t_max = _family_cases()[family]
    ens = simulate_ensemble(kernel, part, n_paths=200, seed=7, t_max=t_max)
    digest = hashlib.sha256()
    for a in (ens.x0, ens.exit_time, ens.exit_location, ens.jumps):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == STREAM_PINS[family]


def _check_one_law_per_jump(events, laws, n, tail):
    """``events`` of one serial walk of ``n`` paths, in order: ("join", k)
    as k paths join, ("batch", k) for a k-row lockstep law, ("scalar", 1)
    for a scalar law and ("tail", 1) as a path leaves the lockstep walk.
    ``laws`` is each path's jumps plus one for a censoring wait."""
    kinds = [kind for kind, _ in events]
    batched = [size for kind, size in events if kind == "batch"]
    assert sum(batched) + kinds.count("scalar") == laws.sum()
    if "scalar" not in kinds:
        return
    first = kinds.index("scalar")
    # scalar builds start once nothing is left to join and at most `tail`
    # paths are live; then the lockstep walk is over
    assert sum(size for kind, size in events[:first] if kind == "join") == n
    assert {"join", "batch"}.isdisjoint(kinds[first:])
    assert 0 < kinds.count("tail") <= tail
    # and no sooner could they start: the last lockstep step held more than
    # `tail` paths or took in new ones
    last = len(kinds) - 1 - kinds[::-1].index("batch")
    assert batched[-1] > tail or kinds[last - 1] == "join"


@pytest.mark.parametrize("family", sorted(STREAM_PINS))
def test_one_piece_build_per_jump(family, monkeypatch):
    kernel, part, _ = _family_cases()[family]
    events = []
    jump_laws, pieces, walk_path = JumpKernel.jump_laws, type(kernel)._pieces, mc._walk_path
    seeded = PathStreams.seeded.__func__

    def counting_laws(self, xs, region):
        events.append(("batch", len(xs)))
        return jump_laws(self, xs, region)

    def counting_pieces(self, x, region):
        events.append(("scalar", 1))
        return pieces(self, x, region)

    def counting_seeded(cls, seed, first, stop):
        events.append(("join", stop - first))
        return seeded(cls, seed, first, stop)

    def counting_walk_path(*args):
        events.append(("tail", 1))
        return walk_path(*args)

    monkeypatch.setattr(JumpKernel, "jump_laws", counting_laws)
    monkeypatch.setattr(type(kernel), "_pieces", counting_pieces)
    monkeypatch.setattr(PathStreams, "seeded", classmethod(counting_seeded))
    monkeypatch.setattr(mc, "_walk_path", counting_walk_path)
    for tail in (0, mc._TAIL):
        monkeypatch.setattr(mc, "_TAIL", tail)
        seen = set()
        for i, t_max in enumerate([0.05, 0.5, 5.0, 50.0] * 4):
            events.clear()
            one = simulate_ensemble(kernel, part, n_paths=1, seed=5 + i, t_max=t_max)
            laws = one.jumps + one.censored
            _check_one_law_per_jump(events, laws, 1, tail)
            # a lone path leaves the lockstep walk after its first step
            batched = [size for kind, size in events if kind == "batch"]
            assert batched == ([1] * int(laws[0]) if tail == 0 else [1])
            seen.add(bool(one.censored[0]))
        assert seen == {True, False}

        events.clear()
        ens = simulate_ensemble(kernel, part, n_paths=200, seed=7, t_max=5.0)
        laws = ens.jumps + ens.censored
        _check_one_law_per_jump(events, laws, 200, tail)
        batched = [size for kind, size in events if kind == "batch"]
        if tail == 0:
            # one build per lockstep step, holding exactly the paths still live
            assert batched == [int((laws > step).sum()) for step in range(laws.max())]
        else:
            assert ("tail", 1) in events


@pytest.mark.parametrize("family", sorted(STREAM_PINS))
def test_jump_law_matches_rate_and_draw(family):
    kernel, part, _ = _family_cases()[family]
    xs = np.random.default_rng(2).random(20)
    for region in (None, part.reachable, part.absorbing, Intervals(((0.2, 0.3), (0.6, 0.9)))):
        for i, x in enumerate(xs):
            law = kernel.jump_law(x, region)
            assert kernel.total_rate(x, region) == law.total
            assert law.total == sum(law.masses)
            if law.total > 0.0:
                a, b = path_rng(9, i), path_rng(9, i)
                assert kernel.sample_jump(x, region, a) == law.sample(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=kernel_cases(), seed=st.integers(0, 2**32 - 1))
def test_each_batched_row_is_the_scalar_law(case, seed):
    # row i of jump_laws(xs, region) is jump_law(xs[i], region) bit for
    # bit, in free space (None) too: the same masses in piece order, the
    # same total, and the same landing from the same uniform
    kernel, part, _ = case
    xs = part.domain.uniform_points(np.random.default_rng(seed).random(16))
    u = np.array([path_rng(seed, i).random() for i in range(xs.size)])
    (lo, hi), = part.domain.union(interaction_domain(part.domain, kernel.horizon)).bounds[:1]
    union = Intervals.from_pairs([(lo, lo + 0.3 * (hi - lo)), (lo + 0.5 * (hi - lo), hi)])
    regions = [None, part.reachable, union] + [part.absorbing] * (not part.absorbing.empty)
    for region in regions:
        laws = kernel.jump_laws(xs, region)
        y = laws.sample(u)
        for i, x in enumerate(xs):
            law = kernel.jump_law(x, region)
            masses = [m[rows == i][0] for (rows, _), m in zip(laws.columns, laws.masses)
                      if i in rows]
            assert masses == law.masses
            assert laws.total[i] == law.total
            if law.total > 0.0:
                assert y[i] == law.sample(path_rng(seed, i))


# --- lockstep engine against the path-by-path walk -------------------------

def scalar_reference_walk(kernel, partition, n_paths, seed, t_max):
    """The path-by-path exit walk that the lockstep engine replaced: each
    path in turn, one scalar ``jump_law`` per jump, its wait and its landing
    drawn from its own generator. Returns the ensemble's five arrays."""
    region = partition.reachable
    records = []
    for idx in range(n_paths):
        rng = path_rng(seed, idx)
        start = partition.domain.sample_uniform(rng)
        x, t, jumps = start, 0.0, 0
        while True:
            law = kernel.jump_law(x, region)
            if law.total <= 0.0:
                raise ConfigurationError(
                    f"zero jump rate at x={x}: the point cannot reach the rest "
                    "of the configured region"
                )
            t += rng.standard_exponential() / law.total
            if t > t_max:
                records.append((start, t_max, np.nan, jumps, True))
                break
            y = law.sample(rng)
            jumps += 1
            if not partition.domain.contains(y) and partition.absorbing.contains(y):
                records.append((start, t, y, jumps, False))
                break
            x = y
    x0s, times, locations, jumps, censored = zip(*records)
    return (np.array(x0s, dtype=float), np.array(times, dtype=float),
            np.array(locations, dtype=float), np.array(jumps, dtype=np.int64),
            np.array(censored, dtype=bool))


def _ensemble_arrays(ens):
    return ens.x0, ens.exit_time, ens.exit_location, ens.jumps, ens.censored


# seeds of one, two and three 32-bit words, the last two around 2**32 and 2**64
_seeds = st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**32 + 2),
                   st.integers(2**64, 2**70))


@st.composite
def _walk_cases(draw):
    """A kernel case from ``kernel_cases`` and a run to make on it."""
    kernel, part, t_scale = draw(kernel_cases())
    run = dict(n_paths=draw(st.integers(1, 25)), seed=draw(_seeds),
               t_max=t_scale * draw(st.floats(0.05, 1.0)))
    return kernel, part, run


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_walk_cases(), workers=st.sampled_from([1, 2, 3]))
def test_lockstep_ensemble_matches_scalar_walk_bit_for_bit(case, workers):
    # at _TAIL = 0 the paths walk in lockstep to their ends; at the default,
    # at most 25 paths leave the lockstep walk after its first step
    kernel, part, run = case
    reference = scalar_reference_walk(kernel, part, **run)
    for tail in (0, mc._TAIL):
        with mock.patch.object(mc, "_TAIL", tail):
            ens = simulate_ensemble(kernel, part, workers=workers, **run)
        for got, want in zip(_ensemble_arrays(ens), reference):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_lockstep_ensemble_refills_its_batch(monkeypatch):
    # more paths than one batch holds: at every worker count, each chunk's
    # batch of 16 refills as paths finish, and the records do not move,
    # whether the last paths walk in lockstep or alone
    kernel, part, t_max = _family_cases()["capped_power_law"]
    reference = scalar_reference_walk(kernel, part, 70, 4, t_max)
    for tail, workers in itertools.product((0, mc._TAIL), (1, 2, 3)):
        monkeypatch.setattr(mc, "_TAIL", tail)
        monkeypatch.setattr(mc, "_BATCH", 2048)
        whole = simulate_ensemble(kernel, part, n_paths=70, seed=4, t_max=t_max, workers=workers)
        monkeypatch.setattr(mc, "_BATCH", 16)
        refilled = simulate_ensemble(kernel, part, n_paths=70, seed=4, t_max=t_max,
                                     workers=workers)
        for got, one_batch, want in zip(_ensemble_arrays(refilled), _ensemble_arrays(whole),
                                        reference):
            assert got.tobytes() == one_batch.tobytes() == want.tobytes()


def _stuck_table():
    """A bivariate table whose rates vanish for x >= 0.7, on the unit
    interval with full absorption."""
    x_nodes = np.array([0.0, 0.6, 0.7, 1.0])
    y_nodes = np.linspace(-1.0, 2.0, 13)
    grid = 0.3 * np.outer([1.0, 1.0, 0.0, 0.0], np.ones(y_nodes.size))
    kernel = TabulatedKernel(horizon=1.0, x_nodes=x_nodes, y_nodes=y_nodes, grid_values=grid)
    return kernel, DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_raises_the_first_failing_paths_error(workers, monkeypatch):
    # a path that starts or lands at x >= 0.7 is stuck. A low-numbered path
    # may get stuck many jumps after a later one does, and failing paths
    # join a batch of 3 in several refills; the error raised must still be
    # the lowest-numbered path's, whether paths get stuck in the lockstep
    # walk or after they leave it
    monkeypatch.setattr(mc, "_BATCH", 3)
    kernel, part = _stuck_table()
    for seed in range(6):
        with pytest.raises(ConfigurationError) as want:
            scalar_reference_walk(kernel, part, 12, seed, 10.0)
        for tail in (0, mc._TAIL):
            monkeypatch.setattr(mc, "_TAIL", tail)
            with pytest.raises(ConfigurationError) as got:
                simulate_ensemble(kernel, part, n_paths=12, seed=seed, t_max=10.0,
                                  workers=workers)
            assert str(got.value) == str(want.value)


def test_zero_rate_error_reads_the_same_on_every_walk():
    kernel, part = _stuck_table()
    message = ("zero jump rate at x=0.8: the point cannot reach the rest of the "
               "configured region")
    with pytest.raises(ConfigurationError) as got:
        simulate_path(kernel, 0.8, path_rng(0, 0), t_max=10.0)
    assert str(got.value) == message
    with pytest.raises(ConfigurationError) as got:
        mc._walk_path(kernel, part, 0.8, 0.0, 10.0, path_rng(0, 0))
    assert str(got.value) == message
    with pytest.raises(ConfigurationError) as got:
        simulate_ensemble(kernel, part, n_paths=12, seed=0, t_max=10.0)
    x = float(str(got.value).split("x=")[1].split(":")[0])
    assert x >= 0.7 and str(got.value) == message.replace("0.8", repr(x))


# --- the recorded walk of the paths subcommand --------------------------------

def scalar_reference_paths(kernel, partition, seed, t_max, first, stop):
    """Path i's record for each i in ``first .. stop-1`` from ``_walk_path``
    alone, on ``path_rng(seed, i)``: the times and positions of its start
    (uniform over the domain, or 0 in free space), of every jump, and of
    ``(t_max, x)`` when it is censored; or its ``ConfigurationError``."""
    records = {}
    for i in range(first, stop):
        rng = path_rng(seed, i)
        x0 = 0.0 if partition is None else partition.domain.sample_uniform(rng)
        times, positions = [0.0], [x0]
        try:
            mc._walk_path(kernel, partition, x0, 0.0, t_max, rng, times, positions)
        except ConfigurationError as exc:
            records[i] = exc
        else:
            records[i] = (np.array(times), np.array(positions))
    return records


def check_recorded_walk(kernel, partition, seed, t_max, first, stop):
    """``_walk``'s recorded rows are every path's scalar record, bit for
    bit, in path order; when paths get stuck, the lowest-numbered one's
    error is raised."""
    want = scalar_reference_paths(kernel, partition, seed, t_max, first, stop)
    failed = [i for i, record in want.items() if isinstance(record, ConfigurationError)]
    if failed:
        with pytest.raises(ConfigurationError) as got:
            mc._walk(kernel, partition, seed, t_max, first, stop, record=True)
        assert str(got.value) == str(want[min(failed)])
        return
    *ensemble, (path, t, x) = mc._walk(kernel, partition, seed, t_max, first, stop, record=True)
    assert path.dtype == np.int64
    assert path.tolist() == [i for i, (times, _) in want.items() for _ in times]
    assert t.tobytes() == np.concatenate([times for times, _ in want.values()]).tobytes()
    assert x.tobytes() == np.concatenate([xs for _, xs in want.values()]).tobytes()
    unrecorded = mc._walk(kernel, partition, seed, t_max, first, stop)
    for got, one in zip(ensemble, unrecorded):
        assert got.tobytes() == one.tobytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=kernel_cases(), seed=_seeds, first=st.integers(0, 1000),
       t_frac=st.floats(0.05, 0.5))
def test_recorded_walk_is_the_scalar_walk(case, seed, first, t_frac):
    # 80 paths: the lockstep walk takes them to the end at _TAIL = 0, and
    # at the default hands the last 32 to the scalar walk
    kernel, part, t_scale = case
    for partition, tail in itertools.product((None, part), (0, mc._TAIL)):
        with mock.patch.object(mc, "_TAIL", tail):
            check_recorded_walk(kernel, partition, seed, t_scale * t_frac, first, first + 80)


def test_recorded_walk_refills_its_batch(monkeypatch):
    # a batch of 16 refills as the 80 paths end; the rows do not move
    kernel, part, t_max = _family_cases()["capped_power_law"]
    monkeypatch.setattr(mc, "_BATCH", 16)
    for partition, tail in itertools.product((None, part), (0, mc._TAIL)):
        monkeypatch.setattr(mc, "_TAIL", tail)
        check_recorded_walk(kernel, partition, 4, 0.025 * t_max, 0, 80)


def test_recorded_walk_raises_the_first_stuck_paths_error(monkeypatch):
    # confined, a path that starts or lands at x >= 0.7 is stuck; in free
    # space every path starts at 0 and gets stuck where it lands there
    monkeypatch.setattr(mc, "_BATCH", 3)
    kernel, part = _stuck_table()
    for seed, partition, tail in itertools.product(range(4), (None, part), (0, mc._TAIL)):
        monkeypatch.setattr(mc, "_TAIL", tail)
        check_recorded_walk(kernel, partition, seed, 10.0, 0, 12)


@pytest.mark.parametrize("workers, cpus, pool, chunks", [
    (5000, 4, 4, [(0, 3), (3, 6), (6, 9), (9, 10)]),
    (3, 4, 3, [(0, 4), (4, 8), (8, 10)]),
    (5000, None, None, [(0, 10)]),
    (1, 4, None, [(0, 10)]),
])
def test_worker_pool_is_bounded_by_the_cpu_count(workers, cpus, pool, chunks, monkeypatch):
    import jumpexit.montecarlo as mc
    kernel, part, t_max = _family_cases()["uniform"]
    serial = simulate_ensemble(kernel, part, n_paths=10, seed=6, t_max=t_max)
    pools, walked = [], []

    class InlinePool:
        """Records its size and runs the chunks in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def walk(*args):
        walked.append(args[-2:])
        return original(*args)

    original = mc._walk
    monkeypatch.setattr(mc, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(mc, "_walk", walk)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    ens = simulate_ensemble(kernel, part, n_paths=10, seed=6, t_max=t_max, workers=workers)
    assert pools == ([] if pool is None else [pool])
    assert walked == chunks
    for got, want in zip(_ensemble_arrays(ens), _ensemble_arrays(serial)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_ensemble_needs_a_worker(workers):
    kernel, part, t_max = _family_cases()["uniform"]
    with pytest.raises(ConfigurationError, match="workers"):
        simulate_ensemble(kernel, part, n_paths=10, seed=6, t_max=t_max, workers=workers)


# --- the batched streams against numpy's own ---------------------------------

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1


def _state_before(word: int, inc: int) -> int:
    """A PCG64 state whose next output is ``word``: one step back from
    the state (high half 0, low half ``word``) whose XSL-RR output is
    ``word`` with no rotation."""
    return (word - inc) * pow(_MULT, -1, 1 << 128) & _MASK


def _generator_at(state: int, inc: int) -> np.random.Generator:
    bit_gen = np.random.PCG64(0)
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_gen)


def _streams_at(states: list[int], incs: list[int]) -> PathStreams:
    halves = [[v >> 64 for v in states], [v & (1 << 64) - 1 for v in states],
              [v >> 64 for v in incs], [v & (1 << 64) - 1 for v in incs]]
    return PathStreams(np.array(halves, dtype=np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=_seeds, first=st.one_of(st.integers(0, 100), st.integers(2**32 - 20, 2**32 + 4)),
       n=st.integers(0, 40))
def test_batched_seed_words_match_seed_sequence(seed, first, n):
    got = _streams._seed_words(seed, first, first + n)
    want = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            for i in range(first, first + n)]
    assert got.dtype == np.uint64 and got.shape == (4, n)
    assert got.T.tobytes() == np.array(want, dtype=np.uint64).reshape(n, 4).tobytes()


@pytest.mark.parametrize("seed,first", [(0, 0), (7, 2**32 - 3), (2**32 + 1, 5), (2**64 + 1, 0)])
def test_batched_draws_match_path_rng(seed, first):
    n = 30
    streams = PathStreams.seeded(seed, first, first + n)
    gens = [path_rng(seed, i) for i in range(first, first + n)]
    for _ in range(100):
        for draw in ("standard_exponential", "random"):
            got = getattr(streams, draw)()
            want = np.array([getattr(g, draw)() for g in gens])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("idx,ri", [(1, 0), (1, 12345), (0, 2**53 - 1), (7, 2**53 - 1)])
def test_draw_off_the_ziggurat_fast_path_matches_numpy(idx, ri):
    # idx 1 never takes the fast path (its bound is 0); ri past idx 0's
    # bound sends the draw to the exponential tail
    assert ri >= _streams._KE[idx]
    incs = [2 * 12345 + 1, 2 * 999 + 1]
    word = ((ri << 8) | idx) << 3
    states = [_state_before(word, inc) for inc in incs]
    streams = _streams_at(states, incs)
    gens = [_generator_at(s, inc) for s, inc in zip(states, incs)]
    for _ in range(5):  # the rows take their streams back from numpy
        got = streams.standard_exponential()
        assert got.tobytes() == np.array([g.standard_exponential() for g in gens]).tobytes()
        got = streams.random()
        assert got.tobytes() == np.array([g.random() for g in gens]).tobytes()


def test_ziggurat_tables_match_installed_numpy():
    # a word gives ri = word >> 11 and idx = (word >> 3) & 0xFF; numpy
    # returns ri * we[idx] from that one word exactly when ri < ke[idx]
    inc = 1
    gen = _generator_at(0, inc)

    def draw(idx, ri):
        """The draw from the word (ri, idx), and how many words it took."""
        word = ((ri << 8) | idx) << 3
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": _state_before(word, inc), "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        value = gen.standard_exponential()
        after, steps = word, 1
        while after != gen.bit_generator.state["state"]["state"]:
            after, steps = (after * _MULT + inc) & _MASK, steps + 1
        return value, steps

    we, ke = [], []
    for idx in range(256):
        lo, hi = 0, 1 << 53  # the least ri that takes more than one word
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(idx, mid)[1] == 1:
                lo = mid + 1
            else:
                hi = mid
        ke.append(lo)
        value, steps = draw(idx, 1)
        # idx 1 has no fast path; its slow path returns ri * we[1] when the
        # second word accepts it
        assert steps == 1 or (idx == 1 and steps == 2)
        we.append(value)
    assert _streams._KE.tolist() == ke
    assert _streams._WE.tobytes() == np.array(we).tobytes()
