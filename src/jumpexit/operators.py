"""Discrete forward/backward jump operators on the domain cells.

Collocation of the master equation at the centres of the domain cells, the
rate ``v_ij`` from cell i into cell j being the exact average of
gamma(x_i, .) over cell j: the gain into cell i from cell j carries weight
``v_ji * w_j``, and the loss at cell i is the same discrete sum taken in the
forward direction plus the killing rate ``kappa_i``, the integral of
gamma(x_i, .) over the absorbing set. The volume constraint pins the
density to zero on the absorbing set, so that set enters only through
kappa, which ``JumpKernel.interval_rates`` takes from the kernel's
closed-form CDF over each absorbing interval: no cell tiles it. Jumps into
the unreachable part of the collar are excluded from both gain and loss
(censoring). The matrices and every vector hold one entry per domain cell.
Generator rows sum to minus kappa, and the exit weights carry that rate out
of the domain, so mass bookkeeping closes exactly at the semi-discrete
level. The operator keeps the two matrices and the kernel, not the rates
they were built from: the balance-law check evaluates the rates again to
test both matrices against each cell's net two-point flux.

Two routes build the rates between domain cells, bit for bit alike, with
one reach rule and one zero filter. For a translation-invariant kernel on
cells of one dyadic width whose centres sit on one lattice, every row is
the same function of the offset, so the kernel is evaluated once per offset
and each row is gathered from that table. Bivariate tables and grids of
mixed widths or off one lattice take the loop, one kernel row per domain
cell.

The forward matrix (density evolution) and the backward matrix (the
process generator, acting on observables) satisfy the weighted-transpose
duality ``W A_fwd = A_bwd^T W`` with ``W = diag(cell widths)``; for a
symmetric kernel (gamma a function of |x - y| alone) whose domain cells
share one width the two matrices coincide entry for entry, and assembly
builds one and uses it as both.
"""

import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalError
from .geometry import DomainPartition, Grid
from .kernels import JumpKernel


@dataclass(eq=False)
class DiscreteOperator:
    """Assembled operator pair on the domain cells.

    ``centers`` and ``widths`` list the ``n_cells`` domain cells. ``a_star``
    evolves densities (forward) and ``a_gen`` is the generator (backward),
    both ``n_cells x n_cells``; ``exit_weights`` is the flux into the
    absorbing set per unit density on each cell, the killing rate times
    the width, so the absorbed flux of a density ``u`` is ``exit_weights @
    u``; ``kernel`` is the kernel the matrices were assembled from.

    ``a_star`` may be the very object ``a_gen`` is (a symmetric kernel on
    domain cells of one width), so the arrays of both are read-only: a
    change meant for one would reach the other.
    """

    centers: np.ndarray
    widths: np.ndarray
    a_star: sp.csr_matrix
    a_gen: sp.csr_matrix
    exit_weights: np.ndarray
    kernel: JumpKernel
    _gen_lu: object = field(default=None, repr=False)

    @property
    def n_cells(self) -> int:
        return self.centers.size

    @property
    def killing_rate(self) -> np.ndarray:
        """Jump rate from each domain cell into the absorbing set."""
        return self.exit_weights / self.widths

    def domain_vector(self, u, name: str) -> np.ndarray:
        """``u`` as floats, one entry per domain cell; any other shape is a
        ``ConfigurationError``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_cells,):
            raise ConfigurationError(
                f"{name} must have one entry per domain cell ({self.n_cells}), "
                f"got shape {u.shape}")
        return u

    def generator_solver(self):
        """The generator's LU factors (``_factor``), built once per operator."""
        if self._gen_lu is None:
            self._gen_lu = _factor(self.a_gen, "generator")
        return self._gen_lu


def _is_dense(block: sp.spmatrix) -> bool:
    """Whether a square block stores at least a quarter of its entries.

    Past that, LAPACK on the densified block solves faster than SuperLU,
    whose fill tracks the block's nnz, and n^2 floats cost no more memory
    than the sparse storage already holds; below it the block stays
    sparse, so a grid whose n x n array would not fit still runs. The
    diagonal counts as stored, so a block of up to four cells is dense.
    """
    n = block.shape[0]
    return 4 * max(block.nnz, n) >= n * n


def _factor(block: sp.csr_matrix, name: str, dt: float | None = None):
    """LU factors of a square ``block``, or of ``I - dt * block`` when
    ``dt`` is given, with SuperLU's ``solve(b)``, ``L.nnz`` and ``U.nnz``.

    A dense block (``_is_dense``) is factored in place by LAPACK ``getrf``
    and each solve is one raw ``getrs`` call: ``lu_solve`` re-checks its
    arguments on every call, which costs twice the solve itself on a
    128-cell block. Its fill counts the stored triangles, L with its unit
    diagonal, as SuperLU counts a dense block's. A banded block goes to
    SuperLU. A singular system raises ``NumericalError``.
    """
    n = block.shape[0]
    if not _is_dense(block):
        system = block if dt is None else sp.identity(n, format="csr") - dt * block
        try:
            return splu(system.tocsc())
        except RuntimeError as exc:
            raise NumericalError(f"{name} factorization failed: {exc}") from exc
    # Fortran order for getrf; CSR's toarray(order="F") takes three times as long
    system = np.asfortranarray(block.toarray())
    if dt is not None:
        system *= -dt
        system[np.diag_indices(n)] += 1.0  # I - dt * block, entry for entry as the sparse sum
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (system,))
    lu, piv, info = getrf(system, overwrite_a=True)
    if info > 0:
        raise NumericalError(f"{name} factorization failed: pivot {info - 1} is exactly zero")
    triangle = SimpleNamespace(nnz=n * (n + 1) // 2)
    # getrs's info flags only malformed arguments, which f2py rejects first
    return SimpleNamespace(solve=lambda b: getrs(lu, piv, b)[0], L=triangle, U=triangle)


def _reached(kernel: JumpKernel, d, w):
    """The reach rule: a target cell of width ``w`` at displacement ``d``
    from the source counts while part of it is in range."""
    return np.abs(d) < kernel.horizon + 0.5 * w


def _nonzero_rates(kernel: JumpKernel, x: float, c: np.ndarray, w: np.ndarray):
    """The zero filter: the positions in ``c`` of the cells (centres ``c``,
    widths ``w``) that gamma(x, .) charges, and their cell averages."""
    v = kernel.quadrature_values(x, c, w)
    nz = np.flatnonzero(v)
    return nz, v[nz]


def _offset_rows(kernel: JumpKernel, x: np.ndarray, w: np.ndarray) -> sp.csr_matrix | None:
    """``_rate_rows`` from one table of offsets, or None where it does not
    apply: the kernel must be translation invariant, and every cell must
    have one width ``w0``, a power of two, with its centre on one lattice
    of spacing ``w0`` (gaps allowed). Every centre is then a whole number
    of half-widths below 2**52, so two cells k sites apart lie exactly
    ``k * w0`` apart, and each row is the loop's bit for bit. The kernel is
    evaluated once for each offset 0 < |k| <= K = ceil((lambda + w0/2) /
    w0) in reach, and row i gathers the cells at site(i) + k; a cell more
    than K sites away is out of reach."""
    w0 = w[0]
    m = x * (2.0 / w0)  # exact: 2 / w0 is a power of two
    if (not kernel.translation_invariant or np.any(w != w0) or math.frexp(w0)[0] != 0.5
            or np.any(m != np.rint(m)) or np.max(np.abs(m)) >= 2.0 ** 52
            or np.any((m - m[0]) % 2.0 != 0.0)):
        return None
    site = ((m - m[0]) / 2.0).astype(np.intp)
    reach = math.ceil((kernel.horizon + 0.5 * w0) / w0)
    k = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    k = k[_reached(kernel, k * w0, w0)]
    nz, v = _nonzero_rates(kernel, 0.0, k * w0, np.full(k.size, w0))
    cell = np.full(site[-1] + 2 * reach + 1, -1, dtype=np.int32)  # -1: no cell at that site
    cell[site + reach] = np.arange(x.size)
    cols = cell[site[:, np.newaxis] + reach + k[nz]]  # columns sorted, as sites are
    has = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(has, axis=1))])
    return sp.csr_matrix((np.broadcast_to(v, has.shape)[has], cols[has], indptr),
                         shape=(x.size, x.size))


def _row_loop(kernel: JumpKernel, x: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
    """``_rate_rows`` by one kernel row per cell: the route for bivariate
    tables and for cells of mixed widths or off one lattice."""
    counts = np.zeros(x.size, dtype=np.int64)
    cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for i in range(x.size):
        mask = _reached(kernel, x - x[i], w)
        mask[i] = False  # self-jumps cancel exactly between gain and loss
        j = np.flatnonzero(mask)
        if j.size == 0:
            continue
        nz, v = _nonzero_rates(kernel, x[i], x[j], w[j])
        counts[i] = nz.size
        cols.append(j[nz])
        vals.append(v)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                         shape=(x.size, x.size))


def _rate_rows(kernel: JumpKernel, x: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
    """Collocation rate densities out of each cell of ``x`` (row = source)
    into every other cell the horizon reaches, in part or whole, as CSR
    with sorted columns and no stored zeros: from the offset table where it
    applies, else by the row loop, bit for bit the same rows."""
    rows = _offset_rows(kernel, x, w)
    return _row_loop(kernel, x, w) if rows is None else rows


def _scale_columns(block: sp.csr_matrix, col_scale: np.ndarray) -> sp.csr_matrix:
    """``block diag(col_scale)``, scaling ``block`` in place."""
    block.data *= col_scale[block.indices]
    return block


def assemble(kernel: JumpKernel, grid: Grid, partition: DomainPartition) -> DiscreteOperator:
    """Assemble forward/backward matrices for the censored-and-absorbed
    process on the domain cells of ``grid``: the rates between those cells,
    and the killing rate from the kernel's CDF over the intervals of
    ``partition.absorbing``. The rates are scaled in place into the
    generator, after the forward matrix is built from their transpose."""
    if abs(kernel.horizon - partition.horizon) > 1e-12 * max(1.0, partition.horizon):
        raise ConfigurationError(
            f"kernel horizon {kernel.horizon} does not match the domain "
            f"partition horizon {partition.horizon}"
        )
    x, w = grid.centers, grid.widths
    rows = _rate_rows(kernel, x, w)
    kappa = kernel.interval_rates(x, partition.absorbing.bounds).sum(axis=1)
    # loss rate: the gain weights' discrete sum in the forward direction,
    # plus the jumps into the absorbing set
    minus_loss = sp.diags(-(rows @ w + kappa))
    if kernel.symmetric and np.all(w == w[0]):
        # v_ji = v_ij bit for bit, so A_fwd = A_bwd entry for entry: one matrix
        a_gen = a_star = _scale_columns(rows, w) + minus_loss
    else:
        a_star = _scale_columns(rows.T.tocsr(), w) + minus_loss   # A_fwd[i, j] = v_ji w_j
        a_gen = _scale_columns(rows, w) + minus_loss              # A_bwd[i, j] = v_ij w_j
    for a in (a_gen, a_star):  # one matrix may serve as both: neither may change
        for array in (a.data, a.indices, a.indptr):
            array.setflags(write=False)

    return DiscreteOperator(centers=x, widths=w, a_star=a_star, a_gen=a_gen,
                            exit_weights=kappa * w, kernel=kernel)


def adjoint_check(op: DiscreteOperator, trials: int = 100, rng=None) -> float:
    """Worst relative defect of <v, A_fwd u> = <A_bwd v, u> over random
    domain vector pairs, in the width-weighted inner product.

    For symmetric kernels this is the discrete self-adjointness of the
    operator; for asymmetric kernels it is the weighted-transpose relation
    between the forward matrix and the generator built from the reversed
    kernel. Both hold to rounding by construction.
    """
    rng = np.random.default_rng(rng)
    w = op.widths
    # all trials in one draw, u then v per trial as a loop would draw them;
    # rows are trials, so every sum runs along a contiguous row
    u, v = rng.standard_normal((trials, 2, op.n_cells)).transpose(1, 0, 2)
    a_u = np.ascontiguousarray((op.a_star @ u.T).T)
    b_v = np.ascontiguousarray((op.a_gen @ v.T).T)
    lhs = np.sum(v * a_u * w, axis=1)
    rhs = np.sum(b_v * u * w, axis=1)
    nu = np.sqrt(np.sum(u * u * w, axis=1))
    nv = np.sqrt(np.sum(v * v * w, axis=1))
    return float(np.max(np.abs(lhs - rhs) / (nu * nv), initial=0.0))


def balance_check(op: DiscreteOperator, u: np.ndarray) -> float:
    """Worst relative defect of the per-cell flux balance of both matrices.

    The forward equation is the nonlocal divergence of the two-point flux
    ``psi_ij = u_j v_ji - u_i v_ij`` (``v`` the collocation rates), less the
    killing: cell i must change at ``sum_j psi_ij w_j - kappa_i u_i``, the
    gain carried in from every domain cell minus the loss carried out to
    every domain cell and into the absorbing set. The generator mirrors it
    with ``sum_j v_ij w_j (u_j - u_i) - kappa_i u_i``. Both sides are
    rebuilt from the killing rate and the rates ``v``, which ``_rate_rows``
    evaluates again from ``op.kernel`` as assembly did, bit for bit, in
    O(nnz) and without a dense array, and compared with ``A_fwd u`` and
    ``A_bwd u`` relative to each product's largest entry; the larger
    defect is returned. ``u`` is a domain vector; the volume constraint
    holds the density at zero on the absorbing set.
    """
    u = op.domain_vector(u, "u")
    rows = _rate_rows(op.kernel, op.centers, op.widths)
    uw = u * op.widths
    loss = u * (rows @ op.widths + op.killing_rate)  # u_i (sum_j v_ij w_j + kappa_i)
    gain = rows.T @ uw                                # sum_j v_ji w_j u_j
    worst = 0.0
    for a, balance in ((op.a_star, gain - loss), (op.a_gen, rows @ uw - loss)):
        a_u = a @ u
        defect = float(np.max(np.abs(a_u - balance), initial=0.0))
        worst = max(worst, defect / max(float(np.max(np.abs(a_u), initial=0.0)), 1e-300))
    return worst


def divergence_theorem_check(op: DiscreteOperator, u: np.ndarray) -> float:
    """Defect of (rate of mass change in the domain) + (absorbed flux) = 0
    for a domain vector ``u``."""
    u = op.domain_vector(u, "u")
    domain_rate = float(np.sum((op.a_star @ u) * op.widths))
    return abs(domain_rate + float(op.exit_weights @ u))


def dump_operator(op: DiscreteOperator, csv_path, meta_path) -> None:
    """Write the forward matrix as (i, j, value) triplets plus a JSON
    sidecar with the grid metadata, for external inspection. ``i`` and
    ``j`` are positions in the sidecar's ``centers`` list."""
    coo = op.a_star.tocoo()
    with open(csv_path, "w") as fh:
        fh.write("i,j,value\n")
        order = np.lexsort((coo.col, coo.row))
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i},{j},{v:.17g}\n")
    meta = {
        "n_cells": int(op.n_cells),
        "horizon": op.kernel.horizon,
        "centers": [float(c) for c in op.centers],
        "widths": [float(w) for w in op.widths],
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
