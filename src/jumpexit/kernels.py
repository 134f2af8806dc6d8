"""Finite-range jump-rate kernels: integration and sampling.

A kernel gives the rate density gamma(x, y) for jumps from x to y, zero
whenever |x - y| >= horizon. Three families are provided:

* ``CompoundPoissonUniform`` -- constant density ``rate / (2 * horizon)``
  inside the jump range, so the total jump rate from any point in free
  space equals ``rate``. Finite activity, finite variation.
* ``TruncatedStable`` -- power-law density ``|z|**-(1 + alpha) / m``
  capped at the plateau value ``epsilon**-(1 + alpha) / m`` for
  ``|z| <= epsilon``. The cap makes the otherwise non-integrable density
  simulable as a compound Poisson process; the underlying uncapped family
  has infinite activity, with finite variation exactly when ``alpha < 1``.
* ``TabulatedKernel`` -- values interpolated from a table, either a
  translation-invariant profile over signed displacements or a full
  bivariate (x, y) grid. Integration is exact on the interpolant.

The solver reads a kernel through ``JumpKernel.quadrature_values``, the
exact average of gamma(x, .) over each cell from a per-family closed-form
CDF, so a cell that the horizon covers in part counts with that part, and
through ``JumpKernel.interval_rates``, the same CDF's integral over the
intervals of the absorbing set.

Rate integrals over interval unions use exact piecewise antiderivatives
(power-law, constant, and linear pieces), and jump destinations are drawn
by inverting the piecewise closed-form CDF -- no rejection loops, so the
cost per jump is deterministic even when the admissible region is tiny.
``JumpKernel.jump_law`` builds the clipped pieces and their masses once;
the walk takes both its waiting rate and its landing draw from that one
table, so each jump makes a single pass over the pieces.
``JumpKernel.jump_laws`` builds the same table for a whole batch of points
from the same piece classes, each piece's fields held as arrays over the
points it reaches in place of floats. The arithmetic is the scalar law's,
and power-law powers go through Python floats, so every point's law is bit
for bit the scalar one. ``JumpKernel.jump_support`` gives the
displacements a jump of a translation-invariant kernel can take, from the
pieces that carry mass; the walks read it to refuse an infinite ``t_max``
for a domain part whose jumps cannot lead to the absorbing set.

Kernels are immutable and safe to share across workers; sampling state
lives entirely in the caller-supplied generator.
"""

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import ConfigurationError
from .geometry import Intervals

# ---------------------------------------------------------------------------
# density pieces: closed-form mass and inverse CDF per piece


# A piece's fields are floats for one point's law, or arrays over the points
# of a batch (one piece of each point's law, same shape), and both run the
# same arithmetic, so a batched point rounds exactly as its scalar law does.
# Pieces are built per jump, so they are plain slotted dataclasses (cheap to
# construct); nothing mutates one after it is built.


def _pow(base, exponent: float):
    """``base ** exponent`` for a float, or elementwise for an array, each
    rounded as Python floats round it.

    numpy's vectorized power is not the C library's: it differs in the last
    bit on a few percent of inputs, which would move the walks' streams.
    """
    if isinstance(base, np.ndarray):
        return np.fromiter(map(pow, base.tolist(), repeat(exponent)), float, base.size)
    return base ** exponent


def _take(piece, rows):
    """``piece`` with every array field cut to ``rows`` (an index array or a
    mask), or to the one row ``rows`` as floats (an int); scalar fields are
    shared."""
    take = np.ndarray.item if isinstance(rows, int) else np.ndarray.__getitem__
    return type(piece)(*[take(f, rows) if isinstance(f, np.ndarray) else f
                         for f in map(piece.__getattribute__, piece.__slots__)])


@dataclass(slots=True)
class _ConstPiece:
    lo: float | np.ndarray
    hi: float | np.ndarray
    value: float

    def mass(self):
        return self.value * (self.hi - self.lo)

    def invert(self, v):
        return self.lo + v / self.value

    def clip(self, lo, hi) -> "_ConstPiece":
        return _ConstPiece(lo, hi, self.value)


@dataclass(slots=True)
class _PowerPiece:
    """Density scale * |y - center|**-(1 + alpha) on one side of center:
    the right side (lo >= center) when ``right``, else the left."""

    lo: float | np.ndarray
    hi: float | np.ndarray
    center: float | np.ndarray
    scale: float
    alpha: float
    right: bool

    def mass(self):
        a, c = self.alpha, self.center
        near, far = (self.lo - c, self.hi - c) if self.right else (c - self.hi, c - self.lo)
        return self.scale * (_pow(near, -a) - _pow(far, -a)) / a

    def invert(self, v):
        a, c = self.alpha, self.center
        if self.right:  # distance grows with y
            return c + _pow(_pow(self.lo - c, -a) - v * a / self.scale, -1.0 / a)
        # distance shrinks as y sweeps from lo toward center
        return c - _pow(v * a / self.scale + _pow(c - self.lo, -a), -1.0 / a)

    def clip(self, lo, hi) -> "_PowerPiece":
        return _PowerPiece(lo, hi, self.center, self.scale, self.alpha, self.right)


@dataclass(slots=True)
class _LinearPiece:
    """Density linear from ``v_lo`` at lo to ``v_hi`` at hi. A scalar law
    holds a table's pieces as one piece of arrays over the pieces, and
    indexing builds the one piece (of floats) that a draw inverts."""

    lo: float | np.ndarray
    hi: float | np.ndarray
    v_lo: float | np.ndarray
    v_hi: float | np.ndarray

    __getitem__ = _take

    def mass(self):
        return 0.5 * (self.v_lo + self.v_hi) * (self.hi - self.lo)

    def invert(self, v):
        lo, v_lo = self.lo, self.v_lo
        s = (self.v_hi - v_lo) / (self.hi - lo)
        disc = v_lo * v_lo + 2.0 * s * v
        if isinstance(v, np.ndarray):
            denom = v_lo + np.sqrt(np.where(0.0 > disc, 0.0, disc))  # max(disc, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(denom <= 0.0, lo, lo + 2.0 * v / denom)
        denom = v_lo + math.sqrt(max(disc, 0.0))
        return lo if denom <= 0.0 else lo + 2.0 * v / denom

    def clip(self, lo, hi) -> "_LinearPiece":
        # each end's value from this piece's slope
        s = (self.v_hi - self.v_lo) / (self.hi - self.lo)
        return _LinearPiece(lo, hi, self.v_lo + s * (lo - self.lo), self.v_lo + s * (hi - self.lo))


def _clip_pieces(pieces, region: Intervals | None):
    if region is None:
        return [p for p in pieces if p.hi > p.lo]
    bounds = region.bounds
    out = []
    for p in pieces:
        plo, phi = p.lo, p.hi
        for rlo, rhi in bounds:
            # max(plo, rlo) and min(phi, rhi), ties going to the piece
            lo = rlo if rlo > plo else plo
            hi = rhi if rhi < phi else phi
            if hi > lo:
                out.append(p if lo == plo and hi == phi else p.clip(lo, hi))
    return out


def _clip_linear(p: _LinearPiece, bounds) -> _LinearPiece:
    """Linear pieces, held as one piece of arrays over the pieces, clipped
    to every (rlo, rhi) of ``bounds`` with ``_clip_pieces``' tie rule and
    order (piece by piece, each in bound order)."""
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)  # () for an empty region
    # max(lo, rlo) and min(hi, rhi), ties going to the piece
    lo = np.maximum(p.lo[:, None], bounds[:, 0])
    hi = np.minimum(p.hi[:, None], bounds[:, 1])
    keep = hi > lo
    k = keep.nonzero()[0]  # the piece of each kept cut, in order
    return _take(p, k).clip(lo[keep], hi[keep])


def _clip_column(rows, p, rlo, rhi):
    """The column ``(rows, p)`` of a batch clipped to [rlo, rhi] with
    ``_clip_pieces``' tie rule, keeping the rows where something is left;
    None when no row keeps any."""
    lo = np.where(rlo > p.lo, rlo, p.lo)
    hi = np.where(rhi < p.hi, rhi, p.hi)
    keep = hi > lo
    if not keep.any():
        return None
    return _kept_rows(rows, p.clip(lo, hi), keep)


def _kept_rows(rows, p, keep):
    """The column ``(rows, p)`` on the rows where ``keep`` holds."""
    return (rows, p) if keep.all() else (rows[keep], _take(p, keep))


@dataclass(slots=True)
class JumpLaw:
    """The jump law from one point over one region: the clipped density
    pieces, their masses in piece order, and the total rate (their sum)."""

    x: float
    pieces: list | _LinearPiece
    masses: list
    total: float

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a destination by exact inversion of the piecewise CDF."""
        if self.total <= 0.0:
            raise ConfigurationError(
                f"no jump mass reachable from x={self.x}; the point is isolated "
                "within the configured region"
            )
        u = rng.random() * self.total
        for k, m in enumerate(self.masses):
            if u <= m:
                return self.pieces[k].invert(u)
            u -= m
        return self.pieces[-1].hi  # unreachable up to rounding


@dataclass(slots=True)
class JumpLaws:
    """``JumpLaw`` for every point of a batch at once, bit for bit: the same
    clipped pieces in the same order, their masses, and per-point totals
    summed left to right in piece order. Each column is ``(rows, piece)``:
    one piece of the laws of the points ``rows``, its fields arrays over
    those rows."""

    x: np.ndarray
    columns: list
    masses: list
    total: np.ndarray

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Destinations for one uniform per point, by the piece walk of
        ``JumpLaw.sample``. A point without mass gets a meaningless value;
        the caller must drop it."""
        u = uniforms * self.total
        y = np.full(self.x.size, np.nan)
        searching = np.ones(self.x.size, dtype=bool)
        for (rows, p), m in zip(self.columns, self.masses):
            ur = u[rows]
            hit = searching[rows] & (ur <= m)
            if hit.any():
                found = rows[hit]
                y[found] = _take(p, hit).invert(ur[hit])
                searching[found] = False
            u[rows] = ur - m  # only rows still searching read it again
        if searching.any():  # unreachable up to rounding: the last piece's hi
            for rows, p in self.columns:
                left = searching[rows]
                y[rows[left]] = p.hi[left]
        return y


class JumpKernel:
    """Shared behavior for all kernel families.

    Subclasses provide ``_cdf`` (the closed-form CDF of the displacement,
    which gives the solver its cell averages) and ``_unclipped`` (the
    closed-form density pieces of y -> gamma(x, y) over the horizon ball,
    for one point or a batch), or else both law builders, ``_pieces`` and
    ``_piece_columns``. ``jump_law`` takes the clipped pieces once;
    ``total_rate`` and ``sample_jump`` are its total and its draw.
    ``jump_laws`` is ``jump_law`` for a batch.
    """

    horizon: float
    translation_invariant = True  # gamma(x, y) depends on y - x alone; _cdf ignores x

    @property
    def symmetric(self) -> bool:
        """gamma(x, y) depends on |x - y| alone."""
        raise NotImplementedError

    def _cdf(self, x: float, d: np.ndarray) -> np.ndarray:
        """An antiderivative of d -> gamma(x, x + d), vectorized over the
        displacements ``d``; constant for |d| >= horizon."""
        raise NotImplementedError

    def _unclipped(self, x) -> list:
        """The pieces of gamma(x, .), in order, for a float ``x``, or for
        every point of an array ``x`` with array fields over the points."""
        raise NotImplementedError

    def _pieces(self, x: float, region: Intervals | None) -> tuple:
        """The pieces of gamma(x, .) clipped to ``region`` (all space when
        None), in order, and the list of their masses."""
        pieces = _clip_pieces(self._unclipped(x), region)
        return pieces, [p.mass() for p in pieces]

    def _piece_columns(self, xs: np.ndarray) -> list:
        """The unclipped pieces for every point of ``xs``, as ``(rows,
        piece)`` columns."""
        rows = np.arange(xs.size)
        return [(rows, p) for p in self._unclipped(xs)]

    def jump_law(self, x: float, region: Intervals | None = None) -> JumpLaw:
        """Pieces of gamma(x, .) clipped to ``region`` (all space when
        None), with their masses and total, built in one pass."""
        pieces, masses = self._pieces(x, region)
        return JumpLaw(x, pieces, masses, float(sum(masses)))

    def jump_laws(self, xs: np.ndarray, region: Intervals | None) -> JumpLaws:
        """``jump_law(x, region)`` for every point x of ``xs``, in one pass
        over the pieces; with no region, the pieces with ``hi > lo``."""
        xs = np.asarray(xs, dtype=float)
        if region is None:
            clipped = (_kept_rows(rows, p, p.hi > p.lo) for rows, p in self._piece_columns(xs))
        else:
            clipped = (_clip_column(rows, p, rlo, rhi)
                       for rows, p in self._piece_columns(xs) for rlo, rhi in region.bounds)
        columns = [c for c in clipped if c is not None]
        masses = [p.mass() for _, p in columns]
        total = np.zeros(xs.size)
        for (rows, _), m in zip(columns, masses):
            total[rows] += m  # rows are distinct within a column
        return JumpLaws(xs, columns, masses, total)

    def jump_support(self) -> Intervals:
        """The displacements y - x that a jump can take, as open intervals:
        where the pieces of gamma(0, .) carry mass. The whole horizon ball
        for the uniform and power-law families. A translation-invariant
        kernel only: a bivariate table's support moves with x."""
        if not self.translation_invariant:
            raise ValueError("jump_support needs a translation-invariant kernel")
        law = self.jump_law(0.0)
        return Intervals.from_pairs([(law.pieces[k].lo, law.pieces[k].hi)
                                     for k, m in enumerate(law.masses) if m > 0.0])

    def total_rate(self, x: float, region: Intervals | None = None) -> float:
        """Integral of gamma(x, .) over ``region`` (all space when None)."""
        return self.jump_law(x, region).total

    def sample_jump(self, x: float, region: Intervals | None, rng: np.random.Generator) -> float:
        """Draw a destination with density gamma(x, .)/rate restricted to
        ``region``, by exact inversion of the piecewise CDF."""
        return self.jump_law(x, region).sample(rng)

    def quadrature_values(self, x: float, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """The average of gamma(x, .) over each cell, ``(F(d + w/2) -
        F(d - w/2)) / w`` for the CDF F of the displacement d = c - x.

        A symmetric kernel reads the distance |c - x|, so the rates between
        two cells of one width agree bit for bit in both directions.
        """
        d = np.asarray(centers, dtype=float) - x
        d = np.abs(d) if self.symmetric else d
        f = self._cdf(x, d + np.multiply.outer((-0.5, 0.5), widths))  # both cell ends
        return (f[1] - f[0]) / widths

    def interval_rates(self, x: np.ndarray, bounds) -> np.ndarray:
        """The rate of jumps from each point of ``x`` into each interval
        (lo, hi) of ``bounds``, ``F(hi - x) - F(lo - x)`` for the CDF F of
        the displacement, as an array of shape ``(x.size, len(bounds))``.

        One CDF call serves every point of a translation-invariant kernel;
        a bivariate table takes one call per point.
        """
        x = np.asarray(x, dtype=float)
        ends = np.asarray(bounds, dtype=float).reshape(-1, 2).T  # every lo, then every hi
        if self.translation_invariant:
            f = self._cdf(0.0, ends - x[:, np.newaxis, np.newaxis])
        else:
            f = np.array([self._cdf(p, ends - p) for p in x.tolist()])
        return f[:, 1] - f[:, 0]


@dataclass(frozen=True)
class CompoundPoissonUniform(JumpKernel):
    """Uniform jumps over (x - horizon, x + horizon) with total rate ``rate``."""

    rate: float
    horizon: float

    def __post_init__(self):
        if not (0 < self.rate < math.inf and 0 < self.horizon < math.inf):
            raise ConfigurationError("rate and horizon must be positive and finite")

    @property
    def symmetric(self) -> bool:
        return True

    @property
    def density(self) -> float:
        return self.rate / (2.0 * self.horizon)

    def _cdf(self, x, d):
        # np.clip through the bare ufuncs, whose call cost counts per row
        return self.density * np.minimum(np.maximum(d, -self.horizon), self.horizon)

    def _unclipped(self, x):
        return [_ConstPiece(x - self.horizon, x + self.horizon, self.density)]


@dataclass(frozen=True)
class TruncatedStable(JumpKernel):
    """Plateau-regularized truncated power-law kernel.

    Density ``|z|**-(1 + alpha) / m`` for ``epsilon < |z| < horizon``,
    frozen at the plateau value for ``|z| <= epsilon`` (plateau taken on
    the closed set), zero at or beyond the horizon.
    """

    alpha: float
    m: float
    horizon: float
    epsilon: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0 < self.m < math.inf:
            raise ConfigurationError("m must be positive and finite")
        if not self.epsilon > 0:
            raise ConfigurationError(
                "epsilon must be positive: the unregularized power-law kernel has "
                "divergent total rate and cannot be integrated or sampled"
            )
        if not self.epsilon < self.horizon < math.inf:
            raise ConfigurationError("epsilon must be smaller than the horizon, and both finite")

    @property
    def symmetric(self) -> bool:
        return True

    @property
    def plateau(self) -> float:
        return self.epsilon ** -(1.0 + self.alpha) / self.m

    def _cdf(self, x, d):
        # the integral over displacements (0, |d|), extended as an odd function
        eps, a = self.epsilon, self.alpha
        z = np.minimum(np.abs(d), self.horizon)
        tail = (eps ** -a - np.maximum(z, eps) ** -a) / (self.m * a)
        return np.copysign(self.plateau * np.minimum(z, eps) + tail, d)

    def _unclipped(self, x):
        lam, eps, scale, a = self.horizon, self.epsilon, 1.0 / self.m, self.alpha
        return [
            _PowerPiece(x - lam, x - eps, x, scale, a, False),
            _ConstPiece(x - eps, x + eps, self.plateau),
            _PowerPiece(x + eps, x + lam, x, scale, a, True),
        ]


def _linear_integral(nodes: np.ndarray, values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Integral from ``nodes[0]`` to each of ``q`` of the linear interpolant
    of ``values`` over ``nodes``, taken as zero outside the nodes."""
    q = np.minimum(np.maximum(q, nodes[0]), nodes[-1])
    dz = np.diff(nodes)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (values[:-1] + values[1:]) * dz)))
    k = np.minimum(nodes.searchsorted(q, side="right") - 1, nodes.size - 2)
    t = q - nodes[k]
    slope = (values[k + 1] - values[k]) / dz[k]
    return cum[k] + t * (values[k] + 0.5 * slope * t)


def _nodes(nodes, name: str) -> np.ndarray:
    """A table's nodes as floats: a 1-D array of at least two, strictly
    increasing."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ConfigurationError(
            f"a kernel table needs a 1-D array of at least two {name} nodes, got shape {nodes.shape}")
    if np.any(np.diff(nodes) <= 0):  # NaN nodes go on to the finiteness check
        raise ConfigurationError(f"{name} nodes must be strictly increasing")
    return nodes


@dataclass(frozen=True, eq=False)
class TabulatedKernel(JumpKernel):
    """Kernel interpolated from tabulated values.

    Either translation-invariant (``displacements``/``values`` over signed
    displacement, linear interpolation, zero outside the table) or bivariate
    (``x_nodes`` x ``y_nodes`` grid of values, bilinear, zero for y outside
    the table and clamped to the nearest row for x outside it). Values
    beyond the horizon are clipped to zero regardless of the table.
    """

    horizon: float
    displacements: np.ndarray | None = None
    values: np.ndarray | None = None
    x_nodes: np.ndarray | None = None
    y_nodes: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")
        if self.displacements is not None:
            z = _nodes(self.displacements, "displacement")
            v = np.asarray(self.values, dtype=float)
            if v.shape != z.shape:
                raise ConfigurationError("displacement table needs matching 1-D arrays")
            object.__setattr__(self, "displacements", z)
            object.__setattr__(self, "values", v)
            tables = (z, v)
        elif self.grid_values is not None:
            xs, ys = _nodes(self.x_nodes, "x"), _nodes(self.y_nodes, "y")
            vv = np.ascontiguousarray(self.grid_values, dtype=float)
            if vv.shape != (xs.size, ys.size):
                raise ConfigurationError("bivariate table shape must be (n_x, n_y)")
            object.__setattr__(self, "x_nodes", xs)
            object.__setattr__(self, "y_nodes", ys)
            object.__setattr__(self, "grid_values", vv)
            tables = (xs, ys, vv)
        else:
            raise ConfigurationError("tabulated kernel needs a displacement or bivariate table")
        if not all(np.isfinite(a).all() for a in tables):
            raise ConfigurationError("tabulated nodes and rates must be finite")
        if np.any(tables[-1] < 0):
            raise ConfigurationError("tabulated rates must be nonnegative")

    @property
    def translation_invariant(self) -> bool:
        return self.displacements is not None

    @cached_property  # quadrature_values reads it once per assembled row
    def symmetric(self) -> bool:
        # gamma(x, y) = gamma(y, x) does not make one row's cell averages
        # another's, so only an even profile over |x - y| qualifies
        if not self.translation_invariant:
            return False
        z, v = self.displacements, self.values
        mirrored = np.interp(-z, z, v, left=0.0, right=0.0)
        scale = max(float(v.max()), 1e-300)
        return bool(np.max(np.abs(v - mirrored)) <= 1e-12 * scale)

    def _cdf(self, x, d):
        d = np.minimum(np.maximum(d, -self.horizon), self.horizon)
        if self.translation_invariant:
            return _linear_integral(self.displacements, self.values, d)
        # the interpolant in y at fixed x, zero beyond the table's y range
        # as the sampling pieces are
        return _linear_integral(self.y_nodes, self._bilinear(x, self.y_nodes), x + d)

    def _bilinear(self, x, y):
        """The bilinear interpolant at (x, y), broadcast, with both clamped
        to the table."""
        xs, ys, vv = self.x_nodes, self.y_nodes, self.grid_values
        # np.clip's arithmetic through the bare ufuncs, at about a quarter
        # of np.clip's per-call cost, which dominates on one jump law's nodes
        x = np.minimum(np.maximum(x, xs[0]), xs[-1])
        y = np.minimum(np.maximum(y, ys[0]), ys[-1])
        i = np.minimum(np.maximum(xs.searchsorted(x) - 1, 0), xs.size - 2)
        j = np.minimum(np.maximum(ys.searchsorted(y) - 1, 0), ys.size - 2)
        tx = (x - xs[i]) / (xs[i + 1] - xs[i])
        ty = (y - ys[j]) / (ys[j + 1] - ys[j])
        sx, sy = 1 - tx, 1 - ty
        k = i * ys.size + j  # vv[i, j] in the flat table; vv is C-ordered
        vv = vv.ravel()
        return (sx * sy * vv[k] + tx * sy * vv[k + ys.size]
                + sx * ty * vv[k + 1] + tx * ty * vv[k + ys.size + 1])

    def _pieces(self, x, region):
        lam = self.horizon
        nodes = x + self.displacements if self.translation_invariant else self.y_nodes
        # piece k survives the clip to the horizon ball only when
        # nodes[k + 1] > x - lam and nodes[k] < x + lam; build no others
        a = max(int(np.searchsorted(nodes, x - lam, side="right")) - 1, 0)
        b = int(np.searchsorted(nodes, x + lam, side="left")) + 1
        nodes = nodes[a:b]
        if self.translation_invariant:
            vals = self.values[a:b]
        else:
            vals = self._bilinear(x, nodes)
        # the ball, then the region: each cut's ends from the piece it cuts
        pieces = _clip_linear(_LinearPiece(nodes[:-1], nodes[1:], vals[:-1], vals[1:]),
                              ((x - lam, x + lam),))
        if region is not None:
            pieces = _clip_linear(pieces, region.bounds)
        return pieces, pieces.mass().tolist()

    def _piece_columns(self, xs):
        lam = self.horizon
        if self.translation_invariant:
            nodes = xs[:, None] + self.displacements
            vals = np.broadcast_to(self.values, nodes.shape)
        else:
            nodes = np.broadcast_to(self.y_nodes, (xs.size, self.y_nodes.size))
            vals = self._bilinear(np.broadcast_to(xs[:, None], nodes.shape), nodes)
        rows = np.arange(xs.size)
        lo, hi = xs - lam, xs + lam
        columns = (_clip_column(rows, _LinearPiece(nodes[:, k], nodes[:, k + 1],
                                                   vals[:, k], vals[:, k + 1]), lo, hi)
                   for k in range(nodes.shape[1] - 1))
        return [c for c in columns if c is not None]


def load_tabulated_csv(path, horizon: float) -> TabulatedKernel:
    """Load a tabulated kernel from CSV.

    Two-column rows ``dx,value`` define a translation-invariant profile;
    three-column rows ``x,y,value`` must fill a complete rectangular grid.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                rows.append([float(c) for c in row])
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigurationError(f"cannot load kernel table {path}: {exc}") from exc
    if not rows:
        raise ConfigurationError(f"kernel table {path} is empty")
    ncol = len(rows[0])
    if any(len(r) != ncol for r in rows):
        raise ConfigurationError(f"kernel table {path} has ragged rows")
    if ncol == 2:
        data = np.array(sorted(rows))
        return TabulatedKernel(horizon=horizon, displacements=data[:, 0], values=data[:, 1])
    if ncol == 3:
        data = np.array(rows)
        xs = np.unique(data[:, 0])
        ys = np.unique(data[:, 1])
        if xs.size * ys.size != data.shape[0]:
            raise ConfigurationError(
                f"kernel table {path}: (x, y) triples do not form a complete grid"
            )
        vv = np.full((xs.size, ys.size), np.nan)
        ix = np.searchsorted(xs, data[:, 0])
        iy = np.searchsorted(ys, data[:, 1])
        vv[ix, iy] = data[:, 2]
        if np.any(np.isnan(vv)):
            raise ConfigurationError(f"kernel table {path}: duplicate or missing grid entries")
        return TabulatedKernel(horizon=horizon, x_nodes=xs, y_nodes=ys, grid_values=vv)
    raise ConfigurationError(f"kernel table {path} must have 2 or 3 columns, found {ncol}")
