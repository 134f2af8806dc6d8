"""Interval-union algebra, collar construction, and grid building."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpexit.errors import ConfigurationError
from jumpexit.geometry import (DomainPartition, Intervals, Region, build_grid,
                               interaction_domain)


def ivs(*pairs):
    return Intervals.from_pairs(pairs)


def measure(u):
    """Total length of an interval union (reference helper)."""
    return float(sum(hi - lo for lo, hi in u.bounds))


def intersect(a, b):
    """Pairwise intersection of two interval unions (reference helper)."""
    out = []
    for alo, ahi in a.bounds:
        for blo, bhi in b.bounds:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo:
                out.append((lo, hi))
    return Intervals(tuple(out))


@st.composite
def interval_unions(draw, max_components=4):
    n = draw(st.integers(1, max_components))
    endpoints = draw(st.lists(
        st.floats(-20, 20, allow_nan=False).map(lambda v: round(v, 3)),
        min_size=2 * n, max_size=2 * n, unique=True))
    endpoints.sort()
    return Intervals.from_pairs(zip(endpoints[::2], endpoints[1::2]))


@given(interval_unions())
def test_intervals_sorted_disjoint_merged(u):
    for (alo, ahi), (blo, bhi) in zip(u.bounds, u.bounds[1:]):
        assert ahi < blo  # strictly separated: merged and sorted
        assert alo < ahi


@given(interval_unions(), interval_unions())
def test_union_and_intersection_measures(a, b):
    union = a.union(b)
    inter = intersect(a, b)
    assert measure(union) == pytest.approx(measure(a) + measure(b) - measure(inter),
                                           rel=1e-12, abs=1e-12)


@given(interval_unions(), interval_unions())
def test_difference_partitions_measure(a, b):
    assert measure(a.difference(b)) + measure(intersect(a, b)) == pytest.approx(
        measure(a), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("omega, lam, expected", [
    # single interval: plain two-sided collar
    ([(0.0, 1.0)], 1.0, ((-1.0, 0.0), (1.0, 2.0))),
    # nearby components: their collars merge in the shared gap
    ([(0.0, 1.0), (1.5, 2.5)], 1.0, ((-1.0, 0.0), (1.0, 1.5), (2.5, 3.5))),
    # distant components: collars stay separate
    ([(0.0, 1.0), (3.0, 4.0)], 0.5, ((-0.5, 0.0), (1.0, 1.5), (2.5, 3.0), (4.0, 4.5))),
])
def test_interaction_domain_examples(omega, lam, expected):
    got = interaction_domain(Intervals.from_pairs(omega), lam)
    assert len(got.bounds) == len(expected)
    for (glo, ghi), (elo, ehi) in zip(got.bounds, expected):
        assert glo == pytest.approx(elo, abs=1e-15)
        assert ghi == pytest.approx(ehi, abs=1e-15)


def test_one_jump_reachability():
    # every point within one jump of the domain lies in domain + collar,
    # and points farther than the horizon do not
    omega = ivs((0.0, 1.0), (1.5, 2.5), (7.0, 7.25))
    lam = 0.8
    collar = interaction_domain(omega, lam)
    reach = omega.union(collar)
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        x = omega.sample_uniform(rng)
        d = rng.uniform(-lam, lam)
        assert reach.contains(x + d)
    far = rng.uniform(-30, 30, size=10_000)
    for y in far:
        dist = min(min(abs(y - lo), abs(y - hi)) for lo, hi in omega.bounds) \
            if not omega.contains(y) else 0.0
        if dist > lam:
            assert not reach.contains(y)


def test_partition_rejects_absorbing_outside_collar():
    with pytest.raises(ConfigurationError, match="not contained"):
        DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=[(3.0, 4.0)])


def test_partition_accepts_absorbing_within_tolerance_of_collar_end():
    # 0.1 + 0.7 rounds to just below 0.8, so the collar ends short of the
    # absorbing interval by one ulp; the endpoint slack accepts it
    part = DomainPartition.build([(0.0, 0.1)], horizon=0.7, absorbing=[(0.1, 0.8)])
    assert part.collar.bounds[-1][1] < 0.8
    assert part.absorbing.bounds == ((0.1, 0.8),)
    with pytest.raises(ConfigurationError, match=r"\(0.1, 0.8001\) is not contained"):
        DomainPartition.build([(0.0, 0.1)], horizon=0.7, absorbing=[(0.1, 0.8001)])


def test_partition_rejects_overlapping_domain():
    with pytest.raises(ConfigurationError, match="overlap"):
        DomainPartition.build([(0.0, 1.0), (0.5, 2.0)], horizon=1.0)


def test_region_of_ties_toward_domain():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    assert part.region_of(1.0) == Region.INTERIOR  # shared endpoint
    assert part.region_of(1.5) == Region.ABSORBING
    assert part.region_of(0.5) == Region.INTERIOR
    assert part.region_of(5.0) is None
    empty = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    assert empty.region_of(1.5) == Region.COLLAR


def test_grid_cell_counts_and_tags():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="empty")
    grid = build_grid(part, 0.25)
    assert grid.n_cells == 12  # 4 interior + 4 collar each side
    assert np.flatnonzero(grid.tags == int(Region.INTERIOR)).size == 4
    assert np.flatnonzero(grid.tags == int(Region.COLLAR)).size == 8
    assert np.flatnonzero(grid.tags == int(Region.ABSORBING)).size == 0
    # tags partition the index set
    counts = sum(np.flatnonzero(grid.tags == int(tag)).size for tag in Region)
    assert counts == grid.n_cells


def test_grid_full_absorbing_has_no_collar_tags():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 0.25)
    assert np.flatnonzero(grid.tags == int(Region.COLLAR)).size == 0
    assert np.flatnonzero(grid.tags == int(Region.ABSORBING)).size == 8


def test_grid_tiles_domain_plus_collar():
    part = DomainPartition.build([(0.0, 1.0), (1.5, 2.5)], horizon=0.9, absorbing="full")
    grid = build_grid(part, 0.11)
    total = measure(part.domain) + measure(part.collar)
    assert float(grid.widths.sum()) == pytest.approx(total, rel=1e-12)
    # no cell straddles a region boundary: each center's region matches its tag
    for c, tag in zip(grid.centers, grid.tags):
        assert part.region_of(float(c)) == Region(tag)


def test_grid_rejects_underresolved_horizon():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    with pytest.raises(ConfigurationError, match="horizon/4"):
        build_grid(part, 0.3)
    with pytest.raises(ConfigurationError):
        build_grid(part, -0.1)


def test_grid_refits_width_per_component():
    # component lengths 1 and 0.7 cannot share one exact width
    part = DomainPartition.build([(0.0, 0.7)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 0.15)
    widths = np.unique(np.round(grid.widths, 12))
    assert widths.size >= 2
    assert grid.h <= 0.25 * (1 + 1e-12)
