"""Interval-union algebra, collar construction, and grid building."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, Intervals, build_grid, interaction_domain


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


def collar_by_difference(omega, r):
    """The collar as it used to be built (reference): the components grown
    by ``r`` and merged, minus ``omega``, cut by cut."""
    out = []
    for lo, hi in Intervals.from_pairs((lo - r, hi + r) for lo, hi in omega.bounds).bounds:
        cuts = [(lo, hi)]
        for blo, bhi in omega.bounds:
            nxt = []
            for clo, chi in cuts:
                if bhi <= clo or blo >= chi:
                    nxt.append((clo, chi))
                    continue
                if blo > clo:
                    nxt.append((clo, min(blo, chi)))
                if bhi < chi:
                    nxt.append((max(bhi, clo), chi))
            cuts = nxt
        out.extend(c for c in cuts if c[1] > c[0])
    return tuple(out)


@st.composite
def domains_with_horizon(draw):
    """A horizon and a union whose gaps are drawn at random or at exactly
    the horizon, twice it, or 1e-12: where collar pieces just meet."""
    lam = draw(st.floats(1e-3, 5))
    x = draw(st.floats(-20, 20))
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.floats(1e-3, 5))
        pairs.append((x, x + length))
        x += length + draw(st.sampled_from([lam, 2 * lam, 1e-12]) | st.floats(1e-9, 10))
    return Intervals.from_pairs(pairs), lam


@settings(max_examples=300)
@given(st.one_of(domains_with_horizon(),
                 st.tuples(interval_unions(), st.floats(1e-3, 10))))
def test_collar_is_the_grown_domain_minus_the_domain(case):
    omega, lam = case
    assert interaction_domain(omega, lam).bounds == collar_by_difference(omega, lam)


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
    assert interaction_domain(part.domain, 0.7).bounds[-1][1] < 0.8
    assert part.absorbing.bounds == ((0.1, 0.8),)
    with pytest.raises(ConfigurationError, match=r"\(0.1, 0.8001\) is not contained"):
        DomainPartition.build([(0.0, 0.1)], horizon=0.7, absorbing=[(0.1, 0.8001)])


def test_partition_rejects_overlapping_domain():
    with pytest.raises(ConfigurationError, match="overlap"):
        DomainPartition.build([(0.0, 1.0), (0.5, 2.0)], horizon=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_geometry_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigurationError, match="not finite"):
        Intervals.from_pairs([(0.0, 1.0), (2.0, bad)])
    with pytest.raises(ConfigurationError, match="horizon must be positive and finite"):
        DomainPartition.build([(0.0, 1.0)], horizon=bad)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0)
    with pytest.raises(ConfigurationError, match="h must be positive and finite"):
        build_grid(part, bad)


def test_grid_cell_counts_and_tags():
    # every cell is a domain cell: the collar gets none, whatever absorbs,
    # so the grid is the same for empty, full and partial absorbing sets
    grids = [build_grid(DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=a), 0.25)
             for a in ("empty", "full", [(1.0, 1.5)])]
    for grid in grids:
        assert grid.n_cells == 4
        assert grid.centers.tolist() == [0.125, 0.375, 0.625, 0.875]
        assert grid.widths.tolist() == [0.25] * 4


def test_grid_full_absorbing_has_no_collar_tags():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 0.25)
    assert part.absorbing.bounds == ((-1.0, 0.0), (1.0, 2.0))
    # no cell centre lies in the absorbing collar; all lie in the domain
    assert not any(part.absorbing.contains(float(c)) for c in grid.centers)
    assert all(part.domain.contains(float(c)) for c in grid.centers)


def test_grid_tiles_each_domain_component():
    part = DomainPartition.build([(0.0, 1.0), (1.5, 2.5)], horizon=0.9, absorbing="full")
    grid = build_grid(part, 0.11)
    assert float(grid.widths.sum()) == pytest.approx(measure(part.domain), rel=1e-12)
    # sorted, and no cell straddles the gap: each lies inside one component
    assert np.all(np.diff(grid.centers) > 0)
    for c, w in zip(grid.centers, grid.widths):
        assert sum(lo <= c - w / 2 and c + w / 2 <= hi + 1e-12
                   for lo, hi in part.domain.bounds) == 1


@pytest.mark.parametrize("omega_d", [[(-0.37, 0.0), (1.0, 2.0)], [(-1.0, -0.37)]])
def test_grid_width_rule_reads_domain_cells_only(omega_d):
    # an absorbing interval 0.37 long has no cells, so its length cannot
    # break the h <= lambda/4 rule; the domain cells are a quarter wide
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing=omega_d)
    grid = build_grid(part, 0.25)
    assert grid.widths.max() == 0.25


def test_grid_rejects_underresolved_horizon():
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    with pytest.raises(ConfigurationError, match="horizon/4"):
        build_grid(part, 0.3)
    with pytest.raises(ConfigurationError):
        build_grid(part, -0.1)


def test_grid_cells_are_never_wider_than_h():
    # a 0.37 component gets two cells, not one 0.37 wide; a length that is
    # a whole number of h up to rounding (1.1 / 0.1 = 11.000000000000002)
    # keeps that count
    part = DomainPartition.build([(0.0, 1.0), (1.5, 1.87)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 0.25)
    assert grid.n_cells == 6 and grid.widths.max() == 0.25
    assert build_grid(DomainPartition.build([(0.0, 1.1)], horizon=1.0), 0.1).n_cells == 11


def test_grid_refits_width_per_component():
    # component lengths 1 and 0.7 cannot share one exact width
    part = DomainPartition.build([(0.0, 1.0), (1.5, 2.2)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 0.15)
    widths = np.unique(np.round(grid.widths, 12))
    assert widths.size >= 2
    assert grid.widths.max() <= 0.25 * (1 + 1e-12)
