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
CDF, so a cell that the horizon covers in part counts with that part.

Rate integrals over interval unions use exact piecewise antiderivatives
(power-law, constant, and linear pieces), and jump destinations are drawn
by inverting the piecewise closed-form CDF -- no rejection loops, so the
cost per jump is deterministic even when the admissible region is tiny.
``JumpKernel.jump_law`` builds the clipped pieces and their masses once;
the walk takes both its waiting rate and its landing draw from that one
table, so each jump makes a single pass over the pieces.
``JumpKernel.jump_laws`` builds the same table for a whole batch of points,
each piece held as arrays over the points it reaches. It repeats the scalar
arithmetic operation for operation, and takes power-law powers through
Python floats, so every point's law is bit for bit the scalar one.

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


# Pieces are built per jump, so they are plain slotted dataclasses (cheap to
# construct); nothing mutates one after it is built.


@dataclass(slots=True)
class _ConstPiece:
    lo: float
    hi: float
    value: float

    def mass(self) -> float:
        return self.value * (self.hi - self.lo)

    def invert(self, v: float) -> float:
        return self.lo + v / self.value

    def clip(self, lo: float, hi: float) -> "_ConstPiece":
        if lo == self.lo and hi == self.hi:
            return self
        return _ConstPiece(lo, hi, self.value)


@dataclass(slots=True)
class _PowerPiece:
    """Density scale * |y - center|**-(1 + alpha) on one side of center."""

    lo: float
    hi: float
    center: float
    scale: float
    alpha: float

    def mass(self) -> float:
        za = abs(self.lo - self.center)
        zb = abs(self.hi - self.center)
        za, zb = min(za, zb), max(za, zb)
        return self.scale * (za ** -self.alpha - zb ** -self.alpha) / self.alpha

    def invert(self, v: float) -> float:
        a = self.alpha
        if self.lo >= self.center:  # right side: distance grows with y
            za = self.lo - self.center
            z = (za ** -a - v * a / self.scale) ** (-1.0 / a)
            return self.center + z
        # left side: distance shrinks as y sweeps from lo toward center
        z_far = self.center - self.lo
        z = (v * a / self.scale + z_far ** -a) ** (-1.0 / a)
        return self.center - z

    def clip(self, lo: float, hi: float) -> "_PowerPiece":
        if lo == self.lo and hi == self.hi:
            return self
        return _PowerPiece(lo, hi, self.center, self.scale, self.alpha)


@dataclass(slots=True)
class _LinearPiece:
    lo: float
    hi: float
    v_lo: float
    v_hi: float

    def _slope(self) -> float:
        return (self.v_hi - self.v_lo) / (self.hi - self.lo)

    def mass(self) -> float:
        return 0.5 * (self.v_lo + self.v_hi) * (self.hi - self.lo)

    def invert(self, v: float) -> float:
        s = self._slope()
        disc = self.v_lo * self.v_lo + 2.0 * s * v
        denom = self.v_lo + math.sqrt(max(disc, 0.0))
        if denom <= 0.0:
            return self.lo
        return self.lo + 2.0 * v / denom


@dataclass(slots=True)
class _LinearTable:
    """Linear pieces held as arrays over the pieces. Indexing builds the
    one ``_LinearPiece`` a draw inverts, so a law builds no piece objects."""

    lo: np.ndarray
    hi: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray

    def __getitem__(self, k: int) -> _LinearPiece:
        return _LinearPiece(self.lo[k].item(), self.hi[k].item(),
                            self.v_lo[k].item(), self.v_hi[k].item())

    def masses(self) -> list:
        """``_LinearPiece.mass`` of every piece, in order."""
        return (0.5 * (self.v_lo + self.v_hi) * (self.hi - self.lo)).tolist()


def _with_masses(pieces: list) -> tuple[list, list]:
    return pieces, [p.mass() for p in pieces]


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
                out.append(p.clip(lo, hi))
    return out


def _clip_linear(lo, hi, v_lo, v_hi, bounds):
    """Linear pieces, held as arrays over the pieces, clipped to every
    (rlo, rhi) of ``bounds`` with ``_clip_pieces``' tie rule and order
    (piece by piece, each in bound order). A clipped piece's end values
    are ``v_lo + slope * (end - lo)`` from the piece it was cut from."""
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)  # () for an empty region
    # max(lo, rlo) and min(hi, rhi), ties going to the piece
    clo = np.maximum(lo[:, None], bounds[:, 0])
    chi = np.minimum(hi[:, None], bounds[:, 1])
    keep = chi > clo
    k = keep.nonzero()[0]  # the piece of each kept cut, in order
    clo, chi, lo, v_lo = clo[keep], chi[keep], lo[k], v_lo[k]
    s = (v_hi[k] - v_lo) / (hi[k] - lo)
    return clo, chi, v_lo + s * (clo - lo), v_lo + s * (chi - lo)


# Batched pieces: one piece of the table for many points at once. ``rows``
# index the points of the batch that the piece reaches; every other field is
# an array over those rows (or a scalar shared by them). The arithmetic
# repeats the scalar piece's, operation for operation, so each row rounds
# exactly as the scalar piece would.


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` elementwise, rounded as Python floats round it.

    numpy's vectorized power is not the C library's: it differs in the last
    bit on a few percent of inputs, which would move the walks' streams.
    """
    return np.fromiter(map(pow, base.tolist(), repeat(exponent)), float, base.size)


@dataclass(slots=True)
class _ConstColumn:
    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    value: float

    def mass(self) -> np.ndarray:
        return self.value * (self.hi - self.lo)

    def invert(self, sel: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.lo[sel] + v / self.value

    def clip(self, keep, lo, hi) -> "_ConstColumn":
        return _ConstColumn(self.rows[keep], lo, hi, self.value)


@dataclass(slots=True)
class _PowerColumn:
    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    scale: float
    alpha: float

    def mass(self) -> np.ndarray:
        za = np.abs(self.lo - self.center)
        zb = np.abs(self.hi - self.center)
        # min(za, zb) and max(za, zb), ties going to za
        near = np.where(zb < za, zb, za)
        far = np.where(zb > za, zb, za)
        return self.scale * (_pow(near, -self.alpha) - _pow(far, -self.alpha)) / self.alpha

    def invert(self, sel: np.ndarray, v: np.ndarray) -> np.ndarray:
        a = self.alpha
        lo, c = self.lo[sel], self.center[sel]
        y = np.empty(lo.size)
        right = lo >= c
        left = ~right
        z = _pow(_pow(lo[right] - c[right], -a) - v[right] * a / self.scale, -1.0 / a)
        y[right] = c[right] + z
        z = _pow(v[left] * a / self.scale + _pow(c[left] - lo[left], -a), -1.0 / a)
        y[left] = c[left] - z
        return y

    def clip(self, keep, lo, hi) -> "_PowerColumn":
        return _PowerColumn(self.rows[keep], lo, hi, self.center[keep], self.scale, self.alpha)


@dataclass(slots=True)
class _LinearColumn:
    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray

    def _slope(self) -> np.ndarray:
        return (self.v_hi - self.v_lo) / (self.hi - self.lo)

    def mass(self) -> np.ndarray:
        return 0.5 * (self.v_lo + self.v_hi) * (self.hi - self.lo)

    def invert(self, sel: np.ndarray, v: np.ndarray) -> np.ndarray:
        lo, v_lo = self.lo[sel], self.v_lo[sel]
        s = (self.v_hi[sel] - v_lo) / (self.hi[sel] - lo)
        disc = v_lo * v_lo + 2.0 * s * v
        denom = v_lo + np.sqrt(np.where(0.0 > disc, 0.0, disc))  # max(disc, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom <= 0.0, lo, lo + 2.0 * v / denom)

    def clip(self, keep, lo, hi) -> "_LinearColumn":
        # value_at on each end, from the unclipped piece's slope
        s, base, v = self._slope()[keep], self.lo[keep], self.v_lo[keep]
        return _LinearColumn(self.rows[keep], lo, hi, v + s * (lo - base), v + s * (hi - base))


def _clip_column(c, rlo, rhi):
    """``c`` clipped to [rlo, rhi] with ``_clip_pieces``' tie rule, keeping
    the rows where something is left; None when no row keeps any."""
    lo = np.where(rlo > c.lo, rlo, c.lo)
    hi = np.where(rhi < c.hi, rhi, c.hi)
    keep = hi > lo
    if keep.all():
        return c.clip(slice(None), lo, hi)
    if not keep.any():
        return None
    return c.clip(keep, lo[keep], hi[keep])


def _clip_columns(columns, region: Intervals):
    clipped = (_clip_column(c, rlo, rhi) for c in columns for rlo, rhi in region.bounds)
    return [c for c in clipped if c is not None]


@dataclass(slots=True)
class JumpLaw:
    """The jump law from one point over one region: the clipped density
    pieces, their masses in piece order, and the total rate (their sum)."""

    x: float
    pieces: list | _LinearTable
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
    clipped pieces in the same order (as batched columns), their masses,
    and per-point totals summed left to right in piece order."""

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
        for c, m in zip(self.columns, self.masses):
            rows = c.rows
            ur = u[rows]
            hit = searching[rows] & (ur <= m)
            if hit.any():
                found = rows[hit]
                y[found] = c.invert(hit, ur[hit])
                searching[found] = False
            u[rows] = ur - m  # only rows still searching read it again
        if searching.any():  # unreachable up to rounding: the last piece's hi
            for c in self.columns:
                left = searching[c.rows]
                y[c.rows[left]] = c.hi[left]
        return y


class JumpKernel:
    """Shared behavior for all kernel families.

    Subclasses provide ``_cdf`` (the closed-form CDF of the displacement,
    which gives the solver its cell averages), ``_pieces`` (the closed-form
    density pieces of y -> gamma(x, y), clipped to a region) and
    ``_piece_columns`` (the unclipped pieces for a batch of points).
    ``jump_law`` takes the clipped pieces once; ``total_rate`` and
    ``sample_jump`` are its total and its draw. ``jump_laws`` is
    ``jump_law`` for a batch.
    """

    horizon: float

    @property
    def symmetric(self) -> bool:
        """gamma(x, y) depends on |x - y| alone."""
        raise NotImplementedError

    def _cdf(self, x: float, d: np.ndarray) -> np.ndarray:
        """An antiderivative of d -> gamma(x, x + d), vectorized over the
        displacements ``d``; constant for |d| >= horizon."""
        raise NotImplementedError

    def _pieces(self, x: float, region: Intervals | None) -> tuple:
        """The pieces of gamma(x, .) clipped to ``region`` (all space when
        None), in order, and the list of their masses."""
        raise NotImplementedError

    def _piece_columns(self, xs: np.ndarray) -> list:
        """``_pieces`` for every point of ``xs``, as batched columns."""
        raise NotImplementedError

    def jump_law(self, x: float, region: Intervals | None = None) -> JumpLaw:
        """Pieces of gamma(x, .) clipped to ``region`` (all space when
        None), with their masses and total, built in one pass."""
        pieces, masses = self._pieces(x, region)
        return JumpLaw(x, pieces, masses, float(sum(masses)))

    def jump_laws(self, xs: np.ndarray, region: Intervals) -> JumpLaws:
        """``jump_law(x, region)`` for every point x of ``xs``, in one pass
        over the pieces."""
        xs = np.asarray(xs, dtype=float)
        columns = _clip_columns(self._piece_columns(xs), region)
        masses = [c.mass() for c in columns]
        total = np.zeros(xs.size)
        for c, m in zip(columns, masses):
            total[c.rows] += m  # rows are distinct within a column
        return JumpLaws(xs, columns, masses, total)

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

    def _pieces(self, x, region):
        return _with_masses(_clip_pieces(
            [_ConstPiece(x - self.horizon, x + self.horizon, self.density)], region))

    def _piece_columns(self, xs):
        rows = np.arange(xs.size)
        return [_ConstColumn(rows, xs - self.horizon, xs + self.horizon, self.density)]


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

    def _pieces(self, x, region):
        lam, eps = self.horizon, self.epsilon
        scale = 1.0 / self.m
        return _with_masses(_clip_pieces([
            _PowerPiece(x - lam, x - eps, x, scale, self.alpha),
            _ConstPiece(x - eps, x + eps, self.plateau),
            _PowerPiece(x + eps, x + lam, x, scale, self.alpha),
        ], region))

    def _piece_columns(self, xs):
        lam, eps = self.horizon, self.epsilon
        scale = 1.0 / self.m
        rows = np.arange(xs.size)
        return [
            _PowerColumn(rows, xs - lam, xs - eps, xs, scale, self.alpha),
            _ConstColumn(rows, xs - eps, xs + eps, self.plateau),
            _PowerColumn(rows, xs + eps, xs + lam, xs, scale, self.alpha),
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
            z = np.asarray(self.displacements, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if z.ndim != 1 or z.size < 2 or v.shape != z.shape:
                raise ConfigurationError("displacement table needs matching 1-D arrays")
            if np.any(np.diff(z) <= 0):
                raise ConfigurationError("displacement nodes must be strictly increasing")
            object.__setattr__(self, "displacements", z)
            object.__setattr__(self, "values", v)
            tables = (z, v)
        elif self.grid_values is not None:
            xs = np.asarray(self.x_nodes, dtype=float)
            ys = np.asarray(self.y_nodes, dtype=float)
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
        pieces = _clip_linear(nodes[:-1], nodes[1:], vals[:-1], vals[1:], ((x - lam, x + lam),))
        if region is not None:
            pieces = _clip_linear(*pieces, region.bounds)
        table = _LinearTable(*pieces)
        return table, table.masses()

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
        columns = (_clip_column(_LinearColumn(rows, nodes[:, k], nodes[:, k + 1],
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
