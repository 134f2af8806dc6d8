"""Kernel families: branch values, rate integrals, sampling, and parameter
validation.

Expected numbers for the regularized power-law family come from its
closed-form antiderivative: with index 1/2, unit scale and range, and cap
width 1e-3, the full rate is 6/sqrt(1e-3) - 4 and the capped core carries
fraction 2/sqrt(1e-3) of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpexit.errors import ConfigurationError
from jumpexit.geometry import Intervals
from jumpexit.kernels import CompoundPoissonUniform, TabulatedKernel, TruncatedStable

PLATEAU_05 = 31622.776601683792          # 0.001 ** -1.5
TOTAL_RATE_05 = 185.73665961010278       # 6 / sqrt(1e-3) - 4
PLATEAU_PROB_05 = 0.34051195566956066    # (2 / sqrt(1e-3)) / TOTAL_RATE_05

KS_CRIT_1PCT = 1.628  # one-sample asymptotic critical value at the 1% level


# --- jump support --------------------------------------------------------------

def test_jump_support_is_where_the_law_has_mass():
    assert CompoundPoissonUniform(rate=0.2, horizon=1.0).jump_support().bounds == ((-1.0, 1.0),)
    # the plateau and the two power-law tails join into the horizon ball
    assert TruncatedStable(alpha=0.5, m=1.0, horizon=0.5).jump_support().bounds == ((-0.5, 0.5),)
    # a table that vanishes on (-0.2, 0.1) and stops short of the horizon
    table = TabulatedKernel(horizon=1.0, displacements=np.array([-0.6, -0.2, 0.1, 0.5]),
                            values=np.array([1.0, 0.0, 0.0, 2.0]))
    assert table.jump_support().bounds == ((-0.6, -0.2), (0.1, 0.5))
    # a bivariate table's support moves with x, and no one set of
    # displacements bounds the rows between or beyond its x nodes
    bivariate = TabulatedKernel(horizon=1.0, x_nodes=np.array([0.0, 1.0]),
                                y_nodes=np.array([-0.5, 0.0, 0.5, 1.5]),
                                grid_values=np.array([[1.0, 1.0, 0.0, 0.0],
                                                      [0.0, 0.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="translation-invariant"):
        bivariate.jump_support()


# --- cell averages ----------------------------------------------------------

def _cell_average(kernel, x, lo, hi):
    return float(kernel.quadrature_values(x, np.array([0.5 * (lo + hi)]), np.array([hi - lo]))[0])


def test_stable_plateau_and_cutoff_values(stable_kernel_05):
    k = stable_kernel_05
    assert _cell_average(k, 0.0, 0.00025, 0.00075) == pytest.approx(PLATEAU_05, rel=1e-14)
    assert _cell_average(k, 0.0, 1.95, 2.05) == 0.0
    # (a^-1/2 - b^-1/2) / (1/2) over the cell (a, b) = (0.01, 0.02)
    want = 2 * (0.01 ** -0.5 - 0.02 ** -0.5) / 0.01
    assert _cell_average(k, 0.3, 0.31, 0.32) == pytest.approx(want, rel=1e-12)
    assert _cell_average(k, 0.3, 0.28, 0.29) == pytest.approx(want, rel=1e-12)
    # plateau applies on the closed set |dy| <= epsilon
    assert _cell_average(k, 0.0, 0.0, 1e-3) == pytest.approx(PLATEAU_05, rel=1e-14)


def test_compound_poisson_density():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    assert _cell_average(k, 0.0, 0.25, 0.35) == pytest.approx(0.1)
    # a cell the horizon covers in part counts with that part
    assert _cell_average(k, 0.0, 0.95, 1.05) == pytest.approx(0.05)
    assert _cell_average(k, 0.0, 1.0, 1.1) == 0.0
    # normalization: the cell masses of a tiling add up to the total rate
    edges = np.linspace(-1.5, 1.5, 3001)
    w = np.diff(edges)
    total = float(np.sum(k.quadrature_values(0.0, edges[:-1] + 0.5 * w, w) * w))
    assert total == pytest.approx(0.2, rel=1e-12)


@given(x=st.floats(-5, 5), dy=st.floats(-10, 10))
def test_finite_range_and_nonnegative(x, dy):
    w = 1e-3
    for k in (CompoundPoissonUniform(rate=0.7, horizon=1.3),
              TruncatedStable(alpha=0.8, m=2.0, horizon=1.3, epsilon=1e-2)):
        v = _cell_average(k, x, x + dy - 0.5 * w, x + dy + 0.5 * w)
        assert v >= 0.0
        if abs(dy) >= k.horizon + w:
            assert v == 0.0


# --- total_rate -----------------------------------------------------------

def test_stable_total_rate_closed_form(stable_kernel_05):
    assert stable_kernel_05.total_rate(0.0) == pytest.approx(TOTAL_RATE_05, rel=1e-12)


def test_compound_total_rate():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    assert k.total_rate(0.0) == pytest.approx(0.2, rel=1e-14)
    # ball about 0.5 lies inside (-1, 2): restriction changes nothing
    assert k.total_rate(0.5, Intervals(((-1.0, 2.0),))) == pytest.approx(0.2, rel=1e-14)


def test_total_rate_against_quadrature(stable_kernel_05):
    # the pieces' rate integral against the cell masses of a tiling of the
    # region, which come from the closed-form CDF by another route
    region = Intervals.from_pairs([(-0.8, -0.4), (0.002, 0.6)])
    got = stable_kernel_05.total_rate(0.1, region)
    ref = 0.0
    for lo, hi in region.bounds:
        edges = np.linspace(lo, hi, 4001)
        w = np.diff(edges)
        ref += float(np.sum(stable_kernel_05.quadrature_values(0.1, edges[:-1] + 0.5 * w, w) * w))
    assert got == pytest.approx(ref, rel=1e-12)


@settings(max_examples=40)
@given(x=st.floats(-2, 2),
       cut=st.floats(-2.9, 2.9),
       alpha=st.floats(0.2, 1.8))
def test_total_rate_additive_over_disjoint_regions(x, cut, alpha):
    k = TruncatedStable(alpha=alpha, m=1.5, horizon=1.1, epsilon=5e-3)
    lo, hi = -3.0, 3.0
    a = Intervals(((lo, cut),)) if cut > lo else Intervals()
    b = Intervals(((cut, hi),)) if cut < hi else Intervals()
    whole = Intervals(((lo, hi),))
    total = k.total_rate(x, whole)
    assert k.total_rate(x, a) + k.total_rate(x, b) == pytest.approx(total, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kernel", [
    CompoundPoissonUniform(rate=0.2, horizon=1.0),
    TruncatedStable(alpha=0.5, m=1.0, horizon=1.0),
    TabulatedKernel(horizon=1.0, displacements=np.array([-1.0, 1.0]), values=np.ones(2)),
    TabulatedKernel(horizon=1.0, x_nodes=np.array([0.0, 1.0]), y_nodes=np.array([-1.0, 2.0]),
                    grid_values=np.ones((2, 2))),
], ids=["compound", "stable", "translation_table", "bivariate_table"])
def test_total_rate_over_empty_region_is_zero(kernel):
    assert kernel.total_rate(0.5, Intervals()) == 0.0


def test_unregularized_stable_rejected():
    with pytest.raises(ConfigurationError, match="epsilon"):
        TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=0.0)


@pytest.mark.parametrize("make", [
    lambda v: CompoundPoissonUniform(rate=v, horizon=1.0),
    lambda v: CompoundPoissonUniform(rate=0.2, horizon=v),
    lambda v: TruncatedStable(alpha=0.5, m=v, horizon=1.0),
    lambda v: TruncatedStable(alpha=0.5, m=1.0, horizon=v),
    lambda v: TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=v),
    lambda v: TabulatedKernel(horizon=v, displacements=np.array([-1.0, 1.0]),
                              values=np.ones(2)),
], ids=["rate", "uniform_horizon", "m", "stable_horizon", "epsilon", "table_horizon"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_kernel_parameters_must_be_finite(make, value):
    with pytest.raises(ConfigurationError):
        make(value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["displacement", "value", "x_node", "y_node", "grid_value"])
def test_tables_must_be_finite(where, bad):
    z, v = np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.2, 0.1])
    xs, ys, vv = np.array([0.0, 1.0]), np.array([-1.0, 0.5, 2.0]), np.ones((2, 3))
    tables = {"displacement": z, "value": v, "x_node": xs, "y_node": ys, "grid_value": vv}
    tables[where].flat[-1] = bad  # the last entry of that array, in place
    with pytest.raises(ConfigurationError, match="finite"):
        if where in ("displacement", "value"):
            TabulatedKernel(horizon=1.0, displacements=z, values=v)
        else:
            TabulatedKernel(horizon=1.0, x_nodes=xs, y_nodes=ys, grid_values=vv)


# --- sampling -------------------------------------------------------------

def test_sample_plateau_probability(stable_kernel_05):
    eps = stable_kernel_05.epsilon
    core = stable_kernel_05.total_rate(0.0, Intervals(((-eps, eps),)))
    assert core / stable_kernel_05.total_rate(0.0) == pytest.approx(PLATEAU_PROB_05, rel=1e-12)
    rng = np.random.default_rng(20)
    n = 100_000
    hits = sum(abs(stable_kernel_05.sample_jump(0.0, None, rng)) <= eps for _ in range(n))
    stderr = np.sqrt(PLATEAU_PROB_05 * (1 - PLATEAU_PROB_05) / n)
    assert abs(hits / n - PLATEAU_PROB_05) <= 3 * stderr


def _ks_statistic(samples, cdf):
    s = np.sort(samples)
    n = s.size
    f = cdf(s)
    up = np.max(np.arange(1, n + 1) / n - f)
    down = np.max(f - np.arange(n) / n)
    return max(up, down)


def _closed_form_cdf(kernel, x, lo, hi):
    """Reference CDF of the jump from x restricted to (lo, hi), from the
    kernel's closed-form CDF, independent of the sampler's pieces."""
    f_lo, f_hi = kernel._cdf(x, np.array([lo - x, hi - x]))
    return lambda s: (kernel._cdf(x, s - x) - f_lo) / (f_hi - f_lo)


@pytest.mark.parametrize("kernel_name", ["compound", "stable"])
def test_sample_jump_matches_quadrature_cdf(kernel_name, stable_kernel_05):
    kernel = CompoundPoissonUniform(rate=0.2, horizon=1.0) if kernel_name == "compound" \
        else stable_kernel_05
    x = 0.25
    rng = np.random.default_rng(77)
    n = 100_000
    samples = np.array([kernel.sample_jump(x, None, rng) for _ in range(n)])
    cdf = _closed_form_cdf(kernel, x, x - kernel.horizon, x + kernel.horizon)
    assert _ks_statistic(samples, cdf) <= KS_CRIT_1PCT / np.sqrt(n)


def test_sample_jump_uniform_in_ball():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    rng = np.random.default_rng(5)
    n = 100_000
    s = np.array([k.sample_jump(0.0, Intervals(((-1.0, 1.0),)), rng) for _ in range(n)])
    assert _ks_statistic(s, lambda y: (y + 1) / 2) <= KS_CRIT_1PCT / np.sqrt(n)
    assert abs(s.mean()) <= 3 / np.sqrt(3 * n)  # symmetric region: zero-mean jumps


def test_sample_jump_restricted_region(stable_kernel_05):
    region = Intervals.from_pairs([(0.4, 0.5), (0.9, 0.95)])
    rng = np.random.default_rng(9)
    for _ in range(500):
        y = stable_kernel_05.sample_jump(0.0, region, rng)
        assert region.contains(y)


def test_sample_jump_zero_mass_raises():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    with pytest.raises(ConfigurationError, match="isolated"):
        k.sample_jump(0.0, Intervals(((5.0, 6.0),)), np.random.default_rng(0))


# --- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0, m=1.0, horizon=1.0, epsilon=1e-3),
    dict(alpha=2.0, m=1.0, horizon=1.0, epsilon=1e-3),
    dict(alpha=0.5, m=-1.0, horizon=1.0, epsilon=1e-3),
    dict(alpha=0.5, m=1.0, horizon=1.0, epsilon=2.0),
])
def test_stable_parameter_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TruncatedStable(**kwargs)


@pytest.mark.parametrize("x_nodes, y_nodes, match", [
    ([0.0, 1.0], [1.0, 0.0], "y nodes must be strictly increasing"),
    ([1.0, 0.0], [0.0, 1.0], "x nodes must be strictly increasing"),
    ([0.0, 1.0], [0.5], "at least two y nodes"),
    ([0.5], [0.0, 1.0], "at least two x nodes"),
    ([0.0, 1.0], [[0.0, 1.0]], "1-D array"),
], ids=["y_decreasing", "x_decreasing", "one_y", "one_x", "y_2d"])
def test_bivariate_nodes_are_validated(x_nodes, y_nodes, match):
    # y_nodes = [1, 0] once rated every jump 0; a single node once gave
    # NaN rates or an IndexError
    values = np.ones((np.size(x_nodes), np.size(y_nodes)))
    with pytest.raises(ConfigurationError, match=match):
        TabulatedKernel(horizon=1.0, x_nodes=np.array(x_nodes), y_nodes=np.array(y_nodes),
                        grid_values=values)


# --- tabulated bivariate ----------------------------------------------------

def test_bivariate_table_cell_averages_and_sample():
    nodes = np.linspace(-2.0, 2.0, 81)
    vv = 0.2 + 0.05 * np.add.outer(np.sin(nodes), np.cos(nodes)) ** 2
    k = TabulatedKernel(horizon=1.0, x_nodes=nodes, y_nodes=nodes, grid_values=vv)
    assert _cell_average(k, 0.0, 1.1, 1.3) == 0.0  # horizon clips the table
    assert _cell_average(k, 0.0, 0.4, 0.6) > 0.0
    # the cell averages of a table stop where its y nodes do
    short = TabulatedKernel(horizon=1.0, x_nodes=nodes, y_nodes=nodes[30:51],
                            grid_values=vv[:, 30:51])  # y in [-0.5, 0.5]
    assert _cell_average(short, 0.0, -0.7, -0.5) == 0.0
    assert _cell_average(short, 0.0, -0.6, -0.4) == pytest.approx(
        0.5 * _cell_average(k, 0.0, -0.5, -0.4), rel=1e-12)
    rng = np.random.default_rng(3)
    region = Intervals(((-0.5, 0.5),))
    n = 50_000
    samples = np.array([k.sample_jump(0.0, region, rng) for _ in range(n)])
    assert np.all(np.abs(samples) <= 0.5)
    cdf = _closed_form_cdf(k, 0.0, -0.5, 0.5)
    assert _ks_statistic(samples, cdf) <= KS_CRIT_1PCT / np.sqrt(n)
