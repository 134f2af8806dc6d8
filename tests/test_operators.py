"""Assembly of the forward/backward operator pair and its structural
identities: adjointness, balance laws, flux bookkeeping, sign structure."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_cases
from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, Intervals, build_grid
from jumpexit.kernels import CompoundPoissonUniform, JumpKernel, TabulatedKernel, TruncatedStable
from jumpexit import operators
from jumpexit.operators import (DiscreteOperator, _offset_rows, _rate_rows, _row_loop,
                                adjoint_check, assemble, balance_check,
                                divergence_theorem_check, dump_operator)
from jumpexit.solver import (_cell_without_exit, coercivity_sigma, evolve, exit_moments,
                             uniform_density)


def make_op(kernel, omega=((0.0, 1.0),), absorbing="full", h=1 / 32, horizon=1.0):
    part = DomainPartition.build(list(omega), horizon=horizon, absorbing=absorbing)
    grid = build_grid(part, h)
    return assemble(kernel, grid, part)


def bivariate_short_table():
    """Bivariate table whose y nodes stop short of x +- lambda on the unit
    domain."""
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(-0.4, 1.6, 41)
    vv = 0.2 + 0.1 * np.add.outer(xs, np.cos(3 * ys)) ** 2
    return TabulatedKernel(horizon=1.0, x_nodes=xs, y_nodes=ys, grid_values=vv)


def random_density(op, seed=0):
    """A positive density on the domain cells."""
    rng = np.random.default_rng(seed)
    return rng.random(op.n_cells) + 0.25


def asym_kernel(horizon=1.0):
    z = np.linspace(-horizon, horizon, 81)
    v = np.where(z > 0, 0.35, 0.15).astype(float)
    v[z == 0] = 0.25
    return TabulatedKernel(horizon=horizon, displacements=z, values=v)


def test_zero_kernel_gives_zero_rows():
    zero = TabulatedKernel(horizon=1.0, displacements=np.linspace(-1, 1, 9),
                           values=np.zeros(9))
    op = make_op(zero)
    # only the domain block is stored, and it is all zero
    assert op.a_star.shape == op.a_gen.shape == (op.n_cells, op.n_cells)
    assert np.all(op.a_star.toarray() == 0.0)
    assert op.exit_weights.shape == (op.n_cells,)
    assert np.all(op.killing_rate == 0.0)
    # both sides of every cell balance are zero: no defect, and no 0/0
    assert balance_check(op, random_density(op, seed=1)) == 0.0


def test_symmetric_kernel_symmetric_interior_block(analytic_op_128):
    blk = analytic_op_128.a_gen.toarray()
    assert np.max(np.abs(blk - blk.T)) <= 1e-12 * np.max(np.abs(blk))
    # forward and backward matrices coincide entry for entry here
    assert (analytic_op_128.a_star != analytic_op_128.a_gen).nnz == 0


def test_interior_diagonal_converges_to_total_rate(analytic_op_64, analytic_op_128, analytic_op_256):
    errs = []
    for op in (analytic_op_64, analytic_op_128, analytic_op_256):
        diag = op.a_star.diagonal()
        errs.append(np.max(np.abs(diag + 0.2)))
    assert errs[0] / errs[1] >= 1.9  # the loss leaves out the own cell, 0.1 h
    assert errs[1] / errs[2] >= 1.9
    assert errs[2] <= 5e-3


def test_gain_entries_nonnegative(analytic_op_64):
    a = analytic_op_64.a_star.toarray()
    off = a - np.diag(a.diagonal())
    assert off.min() >= 0.0


def test_generator_annihilates_constants(analytic_op_64, stable_kernel_05, stable_kernel_15):
    # without absorbing rows, A 1 = -kappa, with the killing rate kappa read
    # off the exit weights (not off A itself)
    for op in (analytic_op_64, make_op(stable_kernel_05), make_op(stable_kernel_15)):
        ones = np.ones(op.n_cells)
        norm = abs(op.a_gen).max()
        kappa = op.killing_rate
        assert kappa.min() > 0.0  # every domain cell reaches the absorbing collar
        assert np.max(np.abs(op.a_gen @ ones + kappa)) <= 1e-12 * norm
    # censored process: no killing, constants annihilated outright
    op = make_op(CompoundPoissonUniform(rate=0.2, horizon=1.0), absorbing="empty")
    assert np.max(np.abs(op.a_gen @ np.ones(op.n_cells))) <= 1e-12 * abs(op.a_gen).max()


def test_adjoint_identity_symmetric(analytic_op_64):
    norm = np.max(np.abs(analytic_op_64.a_gen.toarray()))
    assert adjoint_check(analytic_op_64, trials=100, rng=1) <= 1e-12 * norm


def test_adjoint_identity_asymmetric_weighted_transpose():
    op = make_op(asym_kernel())
    norm = np.max(np.abs(op.a_gen.toarray()))
    # inner-product form of the duality
    assert adjoint_check(op, trials=100, rng=2) <= 1e-12 * norm
    # matrix form: W A_fwd = A_bwd^T W on the domain block
    w = op.widths
    lhs = w[:, None] * op.a_star.toarray()
    rhs = op.a_gen.toarray().T * w[:, None]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * norm


@pytest.mark.parametrize("case", ["analytic_64", "asymmetric_32"])
def test_batched_adjoint_check_matches_per_trial_loop(case, analytic_op_64):
    op = analytic_op_64 if case == "analytic_64" else make_op(asym_kernel())
    rng = np.random.default_rng(8)
    w = op.widths
    worst = 0.0
    for _ in range(40):  # the per-trial loop: one draw and two mat-vecs per trial
        u = rng.standard_normal(op.n_cells)
        v = rng.standard_normal(op.n_cells)
        lhs = float(np.sum(v * (op.a_star @ u) * w))
        rhs = float(np.sum((op.a_gen @ v) * u * w))
        nu = np.sqrt(np.sum(u * u * w))
        nv = np.sqrt(np.sum(v * v * w))
        worst = max(worst, abs(lhs - rhs) / (nu * nv))
    batched_rng = np.random.default_rng(8)
    assert adjoint_check(op, trials=40, rng=batched_rng) == worst
    # the same draws in the same order leave the generator where the loop did
    assert batched_rng.bit_generator.state == rng.bit_generator.state
    assert adjoint_check(op, trials=0, rng=1) == 0.0


def test_balance_conditions(analytic_op_64):
    assert balance_check(analytic_op_64, random_density(analytic_op_64, seed=3)) <= 1e-12
    # the volume constraint pins the density to zero on the absorbing set,
    # so a density has one entry per domain cell; any other length is
    # rejected
    u = np.append(random_density(analytic_op_64, seed=3), 0.0)
    n = analytic_op_64.n_cells
    with pytest.raises(ConfigurationError, match=rf"domain cell \({n}\)"):
        balance_check(analytic_op_64, u)


@pytest.fixture(params=["analytic_64", "asymmetric_16"])
def balance_case(request):
    """An operator, a density on its domain cells, and the all-cells
    reference on the same grid."""
    kernel, h, seed = {
        "analytic_64": (CompoundPoissonUniform(rate=0.2, horizon=1.0), 1 / 64, 3),
        "asymmetric_16": (asym_kernel(), 1 / 16, 5),
    }[request.param]
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(kernel, build_grid(part, h), part)
    return op, random_density(op, seed=seed), all_cells_reference(kernel, part, h)


def test_matrices_match_dense_two_point_flux(balance_case):
    # A_fwd u = sum_j psi_ij w_j, with psi_ij = u_j v_ji - u_i v_ij built
    # densely from the rates out of every cell of a grid that tiles the
    # absorbing set too, the density zero there
    op, u, ref = balance_case
    gamma, w, dom = ref["values"].toarray(), ref["widths"], ref["domain"]
    full = np.zeros(w.size)  # zero on the absorbing cells
    full[dom] = u
    psi = full[np.newaxis, :] * gamma.T - full[:, np.newaxis] * gamma
    want = (psi @ w)[dom]
    got = op.a_star @ u
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # and its mirror, A_bwd u = sum_j v_ij w_j (u_j - u_i)
    want = ((gamma * (full[np.newaxis, :] - full[:, np.newaxis])) @ w)[dom]
    got = op.a_gen @ u
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert balance_check(op, u) <= 1e-12


def _zero_rate_row(op, k):
    """Both matrices as if the rates out of cell k were lost: the
    off-diagonal entries of row k of A_bwd and of column k of A_fwd."""
    gen, fwd = op.a_gen.toarray(), op.a_star.toarray()
    diagonal = gen[k, k], fwd[k, k]
    gen[k, :] = 0.0
    fwd[:, k] = 0.0
    gen[k, k], fwd[k, k] = diagonal
    return {"a_gen": sp.csr_matrix(gen), "a_star": sp.csr_matrix(fwd)}


@pytest.mark.parametrize("mutation", [
    lambda op: {"a_star": op.a_star * (1 + 1e-8)},
    lambda op: {"a_gen": op.a_gen * (1 + 1e-8)},
    lambda op: {"a_star": op.a_gen, "a_gen": op.a_star},
    lambda op: _zero_rate_row(op, op.n_cells // 3),
    lambda op: {"kernel": dataclasses.replace(op.kernel, values=op.kernel.values * (1 + 1e-8))},
], ids=["a_star_scaled", "a_gen_scaled", "swapped", "zeroed_domain_row", "kernel_rates_scaled"])
def test_balance_check_catches_corrupted_operator(mutation):
    # the check rebuilds the rates from op.kernel, so the matrices are
    # caught when they stray from the kernel, and so is a kernel that is
    # not the one they were assembled from
    op = make_op(asym_kernel(), h=1 / 16)
    u = random_density(op, seed=5)
    assert balance_check(op, u) <= 1e-12
    assert balance_check(dataclasses.replace(op, **mutation(op)), u) > 1e-10


_PROPERTY_MAX_CELLS = 200


def _property_h(kernel, part, cells_per_horizon):
    """A cell width of at most lambda/6 that puts no more than
    ``_PROPERTY_MAX_CELLS`` cells across the domain and its collar."""
    reach = part.domain.dilate(kernel.horizon).bounds
    h = max(kernel.horizon / cells_per_horizon,
            (reach[-1][1] - reach[0][0]) / _PROPERTY_MAX_CELLS)
    assert h <= kernel.horizon / 6
    return h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=kernel_cases(), cells_per_horizon=st.sampled_from([6, 8, 12]),
       seed=st.integers(0, 2**16))
def test_balance_check_holds_for_every_family_and_partition(case, cells_per_horizon, seed):
    # a cell is at most 3/2 of h wide after fitting, so h <= lambda/6 keeps
    # every grid within lambda/4; the cap keeps each case to a few hundred rows
    kernel, part, _ = case
    h = _property_h(kernel, part, cells_per_horizon)
    op = assemble(kernel, build_grid(part, h), part)
    assert balance_check(op, random_density(op, seed=seed)) <= 1e-10


def test_balance_check_never_densifies(balance_case, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("balance_check densified a sparse matrix")

    classes = {cls for kind in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix,
                                sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array)
               for cls in kind.__mro__}
    for cls in classes:
        for name in ("toarray", "todense"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    op, u, ref = balance_case
    with pytest.raises(AssertionError, match="densified"):
        ref["values"].toarray()
    balance_check(op, u)  # raises if it densifies


def test_divergence_censored_case_conserves():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    op = make_op(k, absorbing="empty")
    u = random_density(op, seed=7)
    scale = float(np.sum(u * op.widths))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale


def test_divergence_uniform_density(analytic_op_64):
    u = np.ones(analytic_op_64.n_cells)
    assert divergence_theorem_check(analytic_op_64, u) <= 1e-12


def test_divergence_random_density(analytic_op_64):
    op = analytic_op_64
    u = random_density(op, seed=8)
    w_int = op.widths
    scale = float(np.sum(u * w_int))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale
    # mass flowing out of the domain shows up as absorbed flux
    assert float(op.exit_weights @ u) > 0.0


def test_horizon_mismatch_rejected():
    k = CompoundPoissonUniform(rate=0.2, horizon=0.8)
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    grid = build_grid(part, 1 / 16)
    with pytest.raises(ConfigurationError, match="horizon"):
        assemble(k, grid, part)


def test_stable_kernel_operator_identities(stable_kernel_05):
    op = make_op(stable_kernel_05, h=1 / 16)
    norm = np.max(np.abs(op.a_gen.toarray()))
    assert adjoint_check(op, trials=50, rng=9) <= 1e-12 * norm
    u = random_density(op, seed=10)
    scale = float(np.sum(u * op.widths))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale
    blk = op.a_gen.toarray()
    assert np.max(np.abs(blk - blk.T)) <= 1e-12 * norm


def test_dump_operator(tmp_path, analytic_op_64):
    csv_path = tmp_path / "operator.csv"
    meta_path = tmp_path / "operator_meta.json"
    dump_operator(analytic_op_64, csv_path, meta_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) - 1 == analytic_op_64.a_star.nnz
    import json
    meta = json.loads(meta_path.read_text())
    assert meta["n_cells"] == analytic_op_64.n_cells
    assert len(meta["centers"]) == analytic_op_64.n_cells
    # triplet indices are positions in the domain cells, the only cells
    ij = np.array([[int(v) for v in line.split(",")[:2]] for line in lines[1:]])
    assert ij.max() == len(meta["centers"]) - 1
    assert set(meta) == {"n_cells", "horizon", "centers", "widths"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=kernel_cases())
def test_cell_rates_match_the_jump_law_pieces(case):
    # the solver's cell averages come from each family's closed-form CDF,
    # the walk's rates from its density pieces: on every domain cell the
    # killing rate is the pieces' rate into the absorbing set, and the loss
    # rate is their rate into the reachable set less the source's own
    # cell, to rounding (bivariate tables whose y nodes stop short of the
    # collar included)
    kernel, part, _ = case
    op = assemble(kernel, build_grid(part, _property_h(kernel, part, 8)), part)
    loss = -op.a_gen.diagonal()
    scale = max(float(loss.max()), 1e-300)
    for k, (x, w) in enumerate(zip(op.centers, op.widths)):
        own = Intervals(((x - 0.5 * w, x + 0.5 * w),))
        assert abs(op.killing_rate[k] - kernel.total_rate(x, part.absorbing)) <= 1e-12 * scale
        want = kernel.total_rate(x, part.reachable) - kernel.total_rate(x, own)
        assert abs(loss[k] - want) <= 1e-12 * scale


def all_cells_reference(kernel, partition, h):
    """Rates between every cell of a grid that tiles the absorbing set as
    well as the domain, one kernel row per cell: the form the operator took
    when the absorbing set was cells, kept as the reference for
    ``assemble``. The domain cells are ``build_grid``'s, and each absorbing
    interval is fitted with cells near ``h`` wide the same way. Returns the
    rates, the widths, and the positions of the domain and absorbing
    cells."""
    grid = build_grid(partition, h)
    xs, ws, on_domain = [grid.centers], [grid.widths], [np.ones(grid.n_cells, dtype=bool)]
    for lo, hi in partition.absorbing.bounds:
        n = max(1, round((hi - lo) / h))
        xs.append(lo + (np.arange(n) + 0.5) * ((hi - lo) / n))
        ws.append(np.full(n, (hi - lo) / n))
        on_domain.append(np.zeros(n, dtype=bool))
    order = np.argsort(np.concatenate(xs))
    x, w, on_domain = (np.concatenate(a)[order] for a in (xs, ws, on_domain))
    n = x.size
    counts = np.zeros(n, dtype=np.int64)
    cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for i in range(n):
        mask = np.abs(x - x[i]) < kernel.horizon + 0.5 * w
        mask[i] = False
        j = np.flatnonzero(mask)
        if j.size == 0:
            continue
        v = kernel.quadrature_values(x[i], x[j], w[j])
        nz = v != 0.0
        counts[i] = np.count_nonzero(nz)
        cols.append(j[nz])
        vals.append(v[nz])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    values = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(n, n))
    return {"values": values, "widths": w, "domain": np.flatnonzero(on_domain),
            "absorbing": np.flatnonzero(~on_domain)}


def assert_matches_reference(op, ref):
    """The domain block of the all-cells reference is the rates that
    ``_rate_rows`` rebuilds from ``op.kernel`` for the balance check, and
    the matrices' off-diagonal entries are its rates times the target
    widths, bit for bit; the killing rate is the reference's rates summed
    over the absorbing cells, and each diagonal entry minus the loss, to
    rounding."""
    dom, absorbing, w_all = ref["domain"], ref["absorbing"], ref["widths"]
    from_domain = ref["values"][dom]
    block = from_domain[:, dom]
    got = _rate_rows(op.kernel, op.centers, op.widths)
    assert got.shape == block.shape
    assert np.array_equal(got.indptr, block.indptr)
    assert np.array_equal(got.indices, block.indices)
    assert got.data.tobytes() == block.data.tobytes()
    kappa = from_domain[:, absorbing] @ w_all[absorbing]
    assert np.max(np.abs(op.killing_rate - kappa), initial=0.0) <= 1e-13 * np.max(kappa, initial=0.0)
    w = op.widths
    dense = block.toarray()
    norm = max(float(abs(op.a_gen).max()), 1e-300)
    for a, rates in ((op.a_gen, dense), (op.a_star, dense.T)):
        a = a.toarray()
        diag = a.diagonal().copy()
        np.fill_diagonal(a, 0.0)
        assert a.tobytes() == (rates * w).tobytes()
        assert np.max(np.abs(diag + (dense @ w + kappa))) <= 1e-13 * norm


ASSEMBLY_CASES = {
    "compound_poisson": (lambda: CompoundPoissonUniform(rate=0.2, horizon=1.0),
                         [(0.0, 1.0)], "full", 1 / 32),
    "stable_05": (lambda: TruncatedStable(alpha=0.5, m=1.0, horizon=1.0, epsilon=1e-3),
                  [(0.0, 1.0)], "full", 1 / 32),
    "stable_15": (lambda: TruncatedStable(alpha=1.5, m=1.0, horizon=1.0),
                  [(0.0, 1.0)], "full", 1 / 16),
    "translation_table": (asym_kernel, [(0.0, 1.0)], "full", 1 / 16),
    "bivariate_short_of_collar": (bivariate_short_table, [(0.0, 1.0)], "full", 1 / 32),
    "disconnected": (lambda: CompoundPoissonUniform(rate=0.2, horizon=1.0),
                     [(0.0, 1.0), (1.5, 2.5)], "full", 1 / 16),
    "censored": (lambda: CompoundPoissonUniform(rate=0.2, horizon=1.0),
                 [(0.0, 1.0)], "empty", 1 / 32),
    "partial_absorbing": (lambda: TruncatedStable(alpha=0.5, m=1.0, horizon=0.5),
                          [(0.0, 1.0), (1.25, 2.0)],
                          Intervals.from_pairs([[-0.5, 0.0], [1.0, 1.25]]), 1 / 32),
    "gapped_lattice": (asym_kernel, [(0.0, 1.0), (1.5, 2.5)],
                       Intervals.from_pairs([[-1.0, -0.5], [1.25, 1.375], [2.5, 3.0]]), 1 / 32),
    "non_dyadic_h": (lambda: TruncatedStable(alpha=0.5, m=1.0, horizon=1.0),
                     [(0.0, 1.0)], "full", 1 / 24),
    "mixed_widths": (lambda: CompoundPoissonUniform(rate=0.2, horizon=1.0),
                     [(0.0, 1.0), (1.6, 2.4)], "full", 1 / 16),
}

# the cases the row loop builds; the offset table builds the rest
LOOP_CASES = {"bivariate_short_of_collar", "non_dyadic_h", "mixed_widths"}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_domain_row_assembly_matches_all_rows_reference(case):
    make_kernel, omega, absorbing, h = ASSEMBLY_CASES[case]
    kernel = make_kernel()
    part = DomainPartition.build(omega, horizon=kernel.horizon, absorbing=absorbing)
    op = assemble(kernel, build_grid(part, h), part)
    assert (_offset_rows(kernel, op.centers, op.widths) is None) == (case in LOOP_CASES)
    assert_matches_reference(op, all_cells_reference(kernel, part, h))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=kernel_cases(), cells_per_horizon=st.sampled_from([6, 8, 12]))
def test_domain_cells_alone_match_an_all_cells_reference(case, cells_per_horizon):
    # every family, bivariate and asymmetric tables included, on gapped
    # domains with full, partial or empty absorbing sets: the operator on
    # the domain cells alone is the all-cells one's domain block, with the
    # absorbing cells' rates summed into the killing rate
    kernel, part, _ = case
    h = _property_h(kernel, part, cells_per_horizon)
    op = assemble(kernel, build_grid(part, h), part)
    assert_matches_reference(op, all_cells_reference(kernel, part, h))


def test_killing_rate_is_exact_on_the_fine_grid():
    # the analytic kernel kills at rate 0.1 from every point of the unit
    # domain; from the CDF's integral over the collar that holds to a few
    # ulp on each of 1024 cells
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(CompoundPoissonUniform(rate=0.2, horizon=1.0), build_grid(part, 2.0 ** -10), part)
    assert op.n_cells == 1024
    assert np.max(np.abs(op.killing_rate - 0.1)) <= 4 * np.spacing(0.1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=kernel_cases())
def test_offset_table_rows_equal_the_row_loop(case):
    # cells of one dyadic width h on one lattice over the domain and the
    # absorbing set, with gaps where the collar does not absorb: the offset
    # table builds the loop's rows bit for bit, and a bivariate table,
    # whose rows are no one function of the offset, is left to the loop
    kernel, part, _ = case
    reach = part.domain.dilate(kernel.horizon).bounds
    lo, hi = reach[0][0], reach[-1][1]
    h = 2.0 ** math.ceil(math.log2(max(kernel.horizon / 16, (hi - lo) / 400)))
    x = (np.arange(math.floor(lo / h), math.ceil(hi / h)) + 0.5) * h
    x = x[part.reachable.contains(x)]
    w = np.full(x.size, h)
    table = _offset_rows(kernel, x, w)
    if not kernel.translation_invariant:
        assert table is None
        return
    loop = _row_loop(kernel, x, w)
    assert table.shape == loop.shape == (x.size, x.size)
    assert np.array_equal(table.indptr, loop.indptr)
    assert np.array_equal(table.indices, loop.indices)
    assert table.data.tobytes() == loop.data.tobytes()


def test_assembly_evaluates_domain_rows_only(stable_kernel_05, monkeypatch):
    # a bivariate table takes one kernel row per domain cell, and the
    # killing rate none; a translation-invariant kernel on one lattice
    # takes one call in all, at the offsets k h (k != 0) from a source at 0
    calls = []
    original = JumpKernel.quadrature_values

    def counting(self, x, centers, widths):
        calls.append((x, np.array(centers)))
        return original(self, x, centers, widths)

    monkeypatch.setattr(JumpKernel, "quadrature_values", counting)
    omega, h = ((0.0, 1.0), (1.5, 2.5)), 1 / 16
    op = make_op(bivariate_short_table(), omega=omega, h=h)
    assert sorted(x for x, _ in calls) == sorted(op.centers)
    calls.clear()
    op = make_op(stable_kernel_05, omega=omega, h=h)
    ((x, offsets),) = calls
    k = offsets / h
    assert x == 0.0 and np.array_equal(k, np.rint(k)) and np.all(k != 0)
    assert op.a_gen.nnz > offsets.size


@pytest.mark.parametrize("kernel", [CompoundPoissonUniform(rate=0.2, horizon=1.0), asym_kernel(),
                                    bivariate_short_table()],
                         ids=["symmetric", "asymmetric", "bivariate"])
def test_the_operator_keeps_no_third_matrix(kernel, monkeypatch):
    # the rates are scaled in place into the generator: nothing holds
    # them once assembly returns, and the operator holds its two matrices,
    # its cells, its exit weights and its kernel (whose horizon it is)
    refs, rate_rows = [], operators._rate_rows

    def keeping(*args):
        rows = rate_rows(*args)
        refs.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(operators, "_rate_rows", keeping)
    op = make_op(kernel, h=1 / 16)
    gc.collect()
    (ref,) = refs
    assert ref() is None
    assert [f.name for f in dataclasses.fields(DiscreteOperator) if not f.name.startswith("_")] == [
        "centers", "widths", "a_star", "a_gen", "exit_weights", "kernel"]
    assert op.kernel is kernel


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=kernel_cases(), cells_per_horizon=st.sampled_from([6, 8, 12]))
def test_the_balance_check_rebuilds_the_assembled_rates(case, cells_per_horizon):
    # the rates the balance check evaluates again from op.kernel, times the
    # target widths, are the off-diagonal entries of A_bwd bit for bit, and
    # through the transpose (v_ji w_j) those of A_fwd
    kernel, part, _ = case
    op = assemble(kernel, build_grid(part, _property_h(kernel, part, cells_per_horizon)), part)
    rates = _rate_rows(op.kernel, op.centers, op.widths).toarray()
    for a, v in ((op.a_gen, rates), (op.a_star, rates.T)):
        a = a.toarray()
        np.fill_diagonal(a, 0.0)
        assert a.tobytes() == (v * op.widths).tobytes()


def test_one_matrix_serves_both_directions_and_nothing_changes_it(tmp_path):
    # a symmetric kernel on cells of one width: A_fwd is A_bwd, and no stage
    # that reads the operator writes to it (its arrays are read-only)
    op = make_op(CompoundPoissonUniform(rate=0.2, horizon=1.0), h=1 / 32)
    assert op.a_star is op.a_gen
    arrays = (op.a_gen.data, op.a_gen.indices, op.a_gen.indptr)
    before = [a.copy() for a in arrays]
    evolve(op, uniform_density(op), dt=0.1, t_end=1.0)
    exit_moments(op, 2)
    assert _cell_without_exit(op) is None
    coercivity_sigma(op)
    adjoint_check(op, trials=4, rng=0)
    balance_check(op, random_density(op))
    dump_operator(op, tmp_path / "operator.csv", tmp_path / "operator_meta.json")
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="read-only"):
        op.a_star.data *= 2.0
    # an asymmetric kernel keeps two matrices, tied by the weighted transpose
    op = make_op(asym_kernel(), h=1 / 32)
    assert op.a_star is not op.a_gen
    assert adjoint_check(op, trials=20, rng=1) <= 1e-12 * abs(op.a_gen).max()
