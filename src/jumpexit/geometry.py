"""Interval-union domains, interaction collars, and uniform cell grids.

Everything here is one-dimensional: a domain is a finite union of disjoint
open intervals. A finite-range process started inside the domain can land
at most ``horizon`` away from it, so the reachable exterior is a collar of
width ``horizon`` around each component (components closer than twice the
horizon share a merged collar piece). An absorbing subset of the collar
marks where walkers are killed; the rest of the collar is unreachable by
construction (censored jumps).
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError


class Region(IntEnum):
    INTERIOR = 0   # the domain itself
    ABSORBING = 1  # killing subset of the collar
    COLLAR = 2     # unreachable remainder of the collar


def _merge_pairs(pairs):
    """Sort (lo, hi) pairs and merge overlapping or touching ones."""
    items = sorted((float(lo), float(hi)) for lo, hi in pairs)
    merged: list[list[float]] = []
    for lo, hi in items:
        if hi <= lo:
            raise ConfigurationError(f"degenerate interval ({lo}, {hi})")
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

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.bounds)

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

    def sample_uniform(self, rng: np.random.Generator) -> float:
        """Draw a point uniformly with respect to length."""
        if self.empty:
            raise ValueError("cannot sample from an empty interval union")
        widths = np.array([hi - lo for lo, hi in self.bounds])
        u = rng.random() * widths.sum()
        for (lo, hi), w in zip(self.bounds, widths):
            if u <= w:
                return lo + u
            u -= w
        return self.bounds[-1][1]  # unreachable up to rounding


def interaction_domain(omega: Intervals, horizon: float) -> Intervals:
    """Collar of points outside ``omega`` reachable in one jump.

    The collar is the horizon-dilation of the domain minus the domain
    itself. Components of ``omega`` closer than twice the horizon produce
    a single merged collar piece between them.
    """
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    return omega.dilate(horizon).difference(omega)


@dataclass(frozen=True)
class DomainPartition:
    """Domain, its interaction collar, and the absorbing subset."""

    domain: Intervals
    collar: Intervals
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
        return cls(domain=omega, collar=collar, absorbing=absorbing_iv, horizon=float(horizon))

    @property
    def reachable(self) -> Intervals:
        """Domain plus absorbing set: where the censored process can land."""
        return self.domain.union(self.absorbing)

    def region_of(self, x: float) -> Region | None:
        """Which region a point belongs to; ties at shared endpoints go to
        the domain, then the absorbing set. None when outside everything."""
        if self.domain.contains(x):
            return Region.INTERIOR
        if self.absorbing.contains(x):
            return Region.ABSORBING
        if self.collar.contains(x):
            return Region.COLLAR
        return None


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell partition of domain plus collar.

    Cells are built per component interval so none straddles a region
    boundary; the width is re-fitted per component (``length / round(length/h)``)
    so each component tiles exactly. ``h`` records the largest fitted width.
    """

    centers: np.ndarray
    widths: np.ndarray
    tags: np.ndarray
    h: float
    horizon: float

    @property
    def n_cells(self) -> int:
        return self.centers.size


def build_grid(partition: DomainPartition, h: float) -> Grid:
    """Tile domain + collar with near-uniform cells of target width ``h``.

    Raises when the fitted width exceeds a quarter of the horizon: coarser
    grids cannot resolve the jump range and the collocation sums would be
    meaningless.
    """
    if h <= 0:
        raise ConfigurationError("cell width h must be positive")
    pieces = []
    for region, ivs in (
        (Region.INTERIOR, partition.domain),
        (Region.ABSORBING, partition.absorbing),
        (Region.COLLAR, partition.collar.difference(partition.absorbing)),
    ):
        for lo, hi in ivs.bounds:
            length = hi - lo
            n = max(1, round(length / h))
            w = length / n
            centers = lo + (np.arange(n) + 0.5) * w
            pieces.append((centers, np.full(n, w), np.full(n, int(region), dtype=np.int8)))
    if not pieces:
        raise ConfigurationError("partition has no cells to grid")
    centers = np.concatenate([p[0] for p in pieces])
    widths = np.concatenate([p[1] for p in pieces])
    tags = np.concatenate([p[2] for p in pieces])
    order = np.argsort(centers)
    centers, widths, tags = centers[order], widths[order], tags[order]
    h_max = float(widths.max())
    if h_max > partition.horizon / 4 * (1 + 1e-12):
        raise ConfigurationError(
            f"cell width {h_max:.6g} exceeds horizon/4 = {partition.horizon / 4:.6g}; "
            "refine the grid"
        )
    centers.setflags(write=False)
    widths.setflags(write=False)
    tags.setflags(write=False)
    return Grid(centers=centers, widths=widths, tags=tags, h=h_max, horizon=partition.horizon)
