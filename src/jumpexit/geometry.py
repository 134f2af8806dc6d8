"""Interval-union domains, interaction collars, and uniform cell grids.

Everything here is one-dimensional: a domain is a finite union of disjoint
open intervals. A finite-range process started inside the domain can land
at most ``horizon`` away from it, so the reachable exterior is a collar of
width ``horizon`` around each component (components closer than twice the
horizon share a merged collar piece). An absorbing subset of the collar
marks where walkers are killed; the rest of the collar is unreachable by
construction (censored jumps).

Only the domain is tiled with cells. The volume constraint pins the density
to zero on the absorbing set, so that set enters the equations only through
the killing rate, an integral of the kernel over its intervals; the rest of
the collar enters not at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def _merge_pairs(pairs):
    """Sort (lo, hi) pairs and merge overlapping or touching ones."""
    try:
        items = sorted((float(lo), float(hi)) for lo, hi in pairs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"interval endpoints must be numbers: {exc}") from exc
    merged: list[list[float]] = []
    for lo, hi in items:
        if not -np.inf < lo < hi < np.inf:  # NaN fails too
            raise ConfigurationError(f"interval ({lo}, {hi}) is degenerate or not finite")
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class Intervals:
    """A finite union of disjoint intervals, kept sorted and merged.

    Endpoint topology (open vs closed) is not tracked: every quantity
    computed from an ``Intervals`` is insensitive to measure-zero sets.
    """

    bounds: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_pairs(cls, pairs) -> "Intervals":
        return cls(_merge_pairs(pairs))

    @property
    def empty(self) -> bool:
        return not self.bounds

    def contains(self, x: float | np.ndarray) -> bool | np.ndarray:
        """Whether ``x`` lies in the union: a bool for a float, and for an
        array a bool array, point by point."""
        inside = np.zeros(x.shape, dtype=bool) if isinstance(x, np.ndarray) else False
        for lo, hi in self.bounds:
            inside |= (lo <= x) & (x <= hi)
        return inside

    def dilate(self, r: float) -> "Intervals":
        if r < 0:
            raise ValueError("dilation radius must be nonnegative")
        if self.empty:
            return self
        return Intervals.from_pairs((lo - r, hi + r) for lo, hi in self.bounds)

    def union(self, other: "Intervals") -> "Intervals":
        if self.empty:
            return other
        if other.empty:
            return self
        return Intervals.from_pairs(self.bounds + other.bounds)

    def difference(self, other: "Intervals") -> "Intervals":
        """Set difference self \\ other (up to measure zero)."""
        out = []
        for lo, hi in self.bounds:
            cuts = [(lo, hi)]
            for blo, bhi in other.bounds:
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
        return Intervals(tuple(out))

    def uniform_points(self, uniforms: np.ndarray) -> np.ndarray:
        """The points that uniforms in [0, 1) map to, uniformly with respect
        to length: u times the total length, walked through the intervals
        in order."""
        if self.empty:
            raise ValueError("cannot sample from an empty interval union")
        widths = np.array([hi - lo for lo, hi in self.bounds])
        u = np.asarray(uniforms, dtype=float) * widths.sum()
        out = np.full(u.shape, self.bounds[-1][1])  # unreachable up to rounding
        searching = np.ones(u.shape, dtype=bool)
        for (lo, hi), w in zip(self.bounds, widths):
            hit = searching & (u <= w)
            out[hit] = lo + u[hit]
            searching &= ~hit
            u = u - w  # only points still searching read it again
        return out

    def sample_uniform(self, rng: np.random.Generator) -> float:
        """Draw a point uniformly with respect to length."""
        return float(self.uniform_points(np.array([rng.random()]))[0])


def interaction_domain(omega: Intervals, horizon: float) -> Intervals:
    """Collar of points outside ``omega`` reachable in one jump.

    The collar is the horizon-dilation of the domain minus the domain
    itself. Components of ``omega`` closer than twice the horizon produce
    a single merged collar piece between them.
    """
    if not 0 < horizon < np.inf:
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    return omega.dilate(horizon).difference(omega)


@dataclass(frozen=True)
class DomainPartition:
    """Domain, the absorbing subset of its interaction collar, and the
    horizon."""

    domain: Intervals
    absorbing: Intervals
    horizon: float

    @classmethod
    def build(cls, omega_pairs, horizon: float, absorbing="full") -> "DomainPartition":
        """Construct from raw interval pairs.

        ``absorbing`` is ``"full"`` (kill anywhere in the collar),
        ``"empty"`` (pure confinement, no exit), or an explicit list of
        (lo, hi) pairs that must lie inside the collar.
        """
        pairs = [tuple(p) for p in omega_pairs]
        omega = Intervals.from_pairs(pairs)
        if len(omega.bounds) != len(pairs):
            raise ConfigurationError(
                f"domain intervals overlap or touch after merging: {omega.bounds}"
            )
        collar = interaction_domain(omega, horizon)
        if isinstance(absorbing, str):
            if absorbing == "full":
                absorbing_iv = collar
            elif absorbing == "empty":
                absorbing_iv = Intervals()
            else:
                raise ConfigurationError(
                    f"absorbing set must be 'full', 'empty', or interval pairs, got {absorbing!r}"
                )
        elif isinstance(absorbing, Intervals):
            absorbing_iv = absorbing
        else:
            absorbing_iv = Intervals.from_pairs(absorbing)
        # slack at the endpoints absorbs float noise from the collar build
        tol = 1e-12 * max(1.0, abs(collar.bounds[0][0]), abs(collar.bounds[-1][1])) if not collar.empty else 0.0
        for lo, hi in absorbing_iv.bounds:
            if not any(blo - tol <= lo and hi <= bhi + tol for blo, bhi in collar.bounds):
                raise ConfigurationError(
                    f"absorbing interval ({lo}, {hi}) is not contained in the "
                    f"interaction collar {collar.bounds}"
                )
        return cls(domain=omega, absorbing=absorbing_iv, horizon=float(horizon))

    @property
    def reachable(self) -> Intervals:
        """Domain plus absorbing set: where the censored process can land."""
        return self.domain.union(self.absorbing)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell partition of the domain.

    Cells are built per component interval, so none straddles a gap; the
    width is re-fitted per component (``length / ceil(length/h)``, never
    wider than ``h``) so each component tiles exactly, and the centres come
    out sorted.
    """

    centers: np.ndarray
    widths: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.centers.size


def build_grid(partition: DomainPartition, h: float) -> Grid:
    """Tile the domain with near-uniform cells of width at most ``h``.

    Raises when ``h`` exceeds a quarter of the horizon: coarser grids
    cannot resolve the jump range and the collocation sums would be
    meaningless.
    """
    if not 0 < h < np.inf:
        raise ConfigurationError(f"cell width h must be positive and finite, got {h}")
    if h > partition.horizon / 4 * (1 + 1e-12):
        raise ConfigurationError(
            f"cell width {h:.6g} exceeds horizon/4 = {partition.horizon / 4:.6g}; "
            "refine the grid"
        )
    if partition.domain.empty:
        raise ConfigurationError("partition has no domain cells to grid")
    centers, widths = [], []
    for lo, hi in partition.domain.bounds:
        # a length that is a whole number of h up to rounding keeps that count
        n = math.ceil((hi - lo) / h * (1 - 1e-12))
        w = (hi - lo) / n
        centers.append(lo + (np.arange(n) + 0.5) * w)
        widths.append(np.full(n, w))
    centers, widths = np.concatenate(centers), np.concatenate(widths)
    centers.setflags(write=False)
    widths.setflags(write=False)
    return Grid(centers=centers, widths=widths)
