"""Discrete forward/backward jump operators on the cell grid.

Midpoint collocation of the master equation on the cells of the domain
plus absorbing set: the gain into cell i from cell j carries weight
``gamma(x_j, x_i) * w_j`` and the loss at cell i is the same discrete sum
taken in the forward direction, over every target cell, absorbing ones
included. Jumps into the unreachable part of the collar are excluded from
both gain and loss (censoring). The volume constraint pins the density to
zero on the absorbing cells, so those unknowns are known and the matrices
hold only the domain block: generator rows sum to minus the killing rate
(the rate of jumping into the absorbing set), and the flux matrix carries
that rate to the absorbing cells, so mass bookkeeping closes exactly at
the semi-discrete level.

Since the absorbing densities are pinned, the solver and the checks read
only the jump rates out of domain cells: assembly evaluates the kernel rows
of the domain cells alone.

The forward matrix (density evolution) and the backward matrix (the
process generator, acting on observables) satisfy the weighted-transpose
duality ``W A_fwd = A_bwd^T W`` with ``W = diag(cell widths)``; for a
symmetric kernel on a uniform-width grid the two matrices coincide
entry for entry.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalError
from .geometry import DomainPartition, Grid, Region
from .kernels import JumpKernel


@dataclass(eq=False)
class DiscreteOperator:
    """Assembled operator pair on the domain block of the Omega + absorbing
    cell set.

    ``a_star`` evolves densities (forward) and ``a_gen`` is the generator
    (backward), both ``n_int x n_int`` over the cells listed in
    ``interior``; ``flux_to_d`` (``n_abs x n_int``) maps a domain density to
    the per-absorbing-cell arrival-rate density. ``domain_rows``
    (``n_int x n_cells``) keeps the raw collocation rate densities out of
    each domain cell (row k = source ``interior[k]``, column = target
    cell), the rows all of these were built from. Full-cell vectors index
    ``centers``; ``interior`` and ``absorbing`` pick their blocks.
    """

    centers: np.ndarray
    widths: np.ndarray
    tags: np.ndarray
    interior: np.ndarray      # indices of domain cells
    absorbing: np.ndarray     # indices of absorbing cells
    a_star: sp.csr_matrix
    a_gen: sp.csr_matrix
    flux_to_d: sp.csr_matrix
    domain_rows: sp.csr_matrix
    horizon: float
    _gen_lu: object = field(default=None, repr=False)

    @property
    def n_cells(self) -> int:
        return self.centers.size

    @property
    def exit_weights(self) -> np.ndarray:
        """Flux into the absorbing set per unit density on each domain cell,
        read off the flux matrix: the absorbed flux of a domain density
        ``u`` is ``exit_weights @ u``."""
        return self.flux_to_d.T @ self.widths[self.absorbing]

    @property
    def killing_rate(self) -> np.ndarray:
        """Jump rate from each domain cell into the absorbing set."""
        return self.exit_weights / self.widths[self.interior]

    def generator_solver(self):
        """LU factorization of the generator's domain block, built once and
        reused across moment solves."""
        if self._gen_lu is None:
            try:
                self._gen_lu = splu(self.a_gen.tocsc())
            except RuntimeError as exc:
                raise NumericalError(f"generator factorization failed: {exc}") from exc
        return self._gen_lu


def _rate_rows(kernel: JumpKernel, x: np.ndarray, w: np.ndarray,
               sources: np.ndarray) -> sp.csr_matrix:
    """Collocation rate densities out of each cell in ``sources`` (row k =
    source ``sources[k]``) into every cell of ``x`` within the horizon, as
    CSR with sorted columns and no stored zeros."""
    counts = np.zeros(sources.size, dtype=np.int64)
    cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for k, i in enumerate(sources):
        mask = np.abs(x - x[i]) < kernel.horizon
        mask[i] = False  # self-jumps cancel exactly between gain and loss
        j = np.flatnonzero(mask)
        if j.size == 0:
            continue
        v = kernel.quadrature_values(x[i], x[j], w[j])
        nz = v != 0.0
        counts[k] = np.count_nonzero(nz)
        cols.append(j[nz])
        vals.append(v[nz])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                         shape=(sources.size, x.size))


def _scaled_transpose(block: sp.csr_matrix, row_scale: np.ndarray) -> sp.csr_matrix:
    """``(diag(row_scale) block)^T`` as CSR, scaling ``block`` in place."""
    block.data *= np.repeat(row_scale, np.diff(block.indptr))
    return block.T.tocsr()


def assemble(kernel: JumpKernel, grid: Grid, partition: DomainPartition) -> DiscreteOperator:
    """Assemble forward/backward matrices for the censored-and-absorbed
    process from the kernel rows of the domain cells alone: the volume
    constraint pins the absorbing densities to zero, so no rate out of an
    absorbing cell enters either matrix."""
    if abs(kernel.horizon - partition.horizon) > 1e-12 * max(1.0, partition.horizon):
        raise ConfigurationError(
            f"kernel horizon {kernel.horizon} does not match the domain "
            f"partition horizon {partition.horizon}"
        )
    sel = np.flatnonzero(grid.tags != int(Region.COLLAR))
    x = grid.centers[sel]
    w = grid.widths[sel]
    tags = grid.tags[sel]
    interior = np.flatnonzero(tags == int(Region.INTERIOR))
    absorbing = np.flatnonzero(tags == int(Region.ABSORBING))

    rows = _rate_rows(kernel, x, w, interior)
    w_int = w[interior]
    # arrival-rate density at each absorbing cell from the domain density
    flux_to_d = _scaled_transpose(rows[:, absorbing], w_int)
    # loss rate: same discrete sum as the gain weights, forward direction,
    # over every target cell
    minus_loss = sp.diags(-(rows @ w))
    v_int = rows[:, interior]
    a_gen = v_int.multiply(w_int[np.newaxis, :]) + minus_loss    # A_bwd[i, j] = v_ij w_j
    # v_int's last use: it is scaled in place
    a_star = _scaled_transpose(v_int, w_int) + minus_loss         # A_fwd[i, j] = v_ji w_j

    return DiscreteOperator(
        centers=x, widths=w, tags=tags, interior=interior, absorbing=absorbing,
        a_star=a_star, a_gen=a_gen, flux_to_d=flux_to_d, domain_rows=rows,
        horizon=kernel.horizon,
    )


def adjoint_check(op: DiscreteOperator, trials: int = 100, rng=None) -> float:
    """Worst relative defect of <v, A_fwd u> = <A_bwd v, u> over random
    domain vector pairs, in the width-weighted inner product.

    For symmetric kernels this is the discrete self-adjointness of the
    operator; for asymmetric kernels it is the weighted-transpose relation
    between the forward matrix and the generator built from the reversed
    kernel. Both hold to rounding by construction.
    """
    rng = np.random.default_rng(rng)
    w = op.widths[op.interior]
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.interior.size)
        v = rng.standard_normal(op.interior.size)
        lhs = float(np.sum(v * (op.a_star @ u) * w))
        rhs = float(np.sum((op.a_gen @ v) * u * w))
        nu = np.sqrt(np.sum(u * u * w))
        nv = np.sqrt(np.sum(v * v * w))
        worst = max(worst, abs(lhs - rhs) / (nu * nv))
    return worst


@dataclass(frozen=True)
class BalanceReport:
    """Violations of the three discrete balance-law conditions that can
    fail, plus the magnitude scale used to read them relatively."""

    self_interaction: float
    action_reaction: float
    additivity: float
    scale: float

    @property
    def max_relative(self) -> float:
        s = max(self.scale, 1e-300)
        return max(self.self_interaction, self.action_reaction, self.additivity) / s


def balance_check(op: DiscreteOperator, u: np.ndarray, rng=None, trials: int = 16) -> BalanceReport:
    """Check the balance-law conditions on the discrete flux integrand.

    The integrand ``psi_ij = u_j v_ji - u_i v_ij`` (collocation rate values)
    is antisymmetric by construction: it is built as ``F^T - F`` with
    ``F = diag(u) V``, and ``b - a`` is exactly ``-(a - b)`` in floating
    point, so that condition is not measured. Sums of ``psi`` weighted by cell measures over any
    index set must vanish (no self-interaction), fluxes between disjoint
    sets cancel (action-reaction), and set sums are additive. ``u`` has one
    entry per cell and must vanish on the absorbing cells, where the volume
    constraint pins the density.

    Everything runs on sparse rate rows in O(nnz): ``psi`` is the sparse
    matrix ``(diag(u) V)^T - diag(u) V``, and each trial's set sums are
    bilinear forms in 0/1 indicator vectors of the random subsets. Only
    the rows of ``V`` where ``u`` is nonzero enter ``diag(u) V``, and those
    are the assembled domain rows.
    """
    rng = np.random.default_rng(rng)
    u = np.asarray(u, dtype=float)
    if np.any(u[op.absorbing]):
        raise ConfigurationError("u must be supported on the domain cells")
    w = op.widths
    n = op.n_cells
    counts = np.zeros(n, dtype=np.int64)  # the domain rows in their places
    counts[op.interior] = np.diff(op.domain_rows.indptr)
    rates = sp.csr_matrix((op.domain_rows.data, op.domain_rows.indices,
                           np.concatenate([[0], np.cumsum(counts)])), shape=(n, n))
    flux_out = sp.diags(u) @ rates
    psi = (flux_out.T - flux_out).tocsr()

    weighted = psi  # weighted in place: psi_ij w_i w_j
    weighted.data *= np.repeat(w, np.diff(weighted.indptr))
    weighted.data *= w[weighted.indices]
    scale = float(np.sum(np.abs(weighted.data)))
    self_int = 0.0
    action = 0.0
    additive = 0.0
    row_flux = weighted @ np.ones(n)  # per-cell net outgoing minus incoming
    for _ in range(trials):
        size = max(1, n // 3)
        perm = rng.permutation(n)
        s1, s2 = perm[:size], perm[size:2 * size]
        e1 = np.zeros(n)
        e1[s1] = 1.0
        e2 = np.zeros(n)
        e2[s2] = 1.0
        to1 = weighted @ e1
        self_int = max(self_int, abs(float(e1 @ to1)))
        action = max(action, abs(float(e1 @ (weighted @ e2)) + float(e2 @ to1)))
        both = np.concatenate([s1, s2])
        additive = max(additive, abs(float(row_flux[both].sum())
                                     - float(row_flux[s1].sum())
                                     - float(row_flux[s2].sum())))
    return BalanceReport(self_int, action, additive, scale)


def divergence_theorem_check(op: DiscreteOperator, u: np.ndarray) -> float:
    """Defect of (rate of mass change in the domain) + (absorbed flux) = 0.

    Only the domain part of ``u`` enters: the volume constraint holds the
    density at zero on the absorbing cells, matching the evolution
    semantics.
    """
    ui = np.asarray(u, dtype=float)[op.interior]
    interior_rate = float(np.sum((op.a_star @ ui) * op.widths[op.interior]))
    absorbed = float(np.sum((op.flux_to_d @ ui) * op.widths[op.absorbing]))
    return abs(interior_rate + absorbed)


def dump_operator(op: DiscreteOperator, csv_path, meta_path) -> None:
    """Write the forward matrix as (i, j, value) triplets plus a JSON
    sidecar with the grid metadata, for external inspection. ``i`` and
    ``j`` are positions in the sidecar's ``interior`` list."""
    coo = op.a_star.tocoo()
    with open(csv_path, "w") as fh:
        fh.write("i,j,value\n")
        order = np.lexsort((coo.col, coo.row))
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i},{j},{v:.17g}\n")
    meta = {
        "n_cells": int(op.n_cells),
        "horizon": op.horizon,
        "centers": [float(c) for c in op.centers],
        "widths": [float(w) for w in op.widths],
        "tags": [int(t) for t in op.tags],
        "interior": [int(i) for i in op.interior],
        "absorbing": [int(i) for i in op.absorbing],
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
