"""Assembly of the forward/backward operator pair and its structural
identities: adjointness, balance laws, flux bookkeeping, sign structure."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_cases
from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, Intervals, Region, build_grid
from jumpexit.kernels import CompoundPoissonUniform, JumpKernel, TabulatedKernel, TruncatedStable
from jumpexit.operators import (_offset_rows, _row_loop, adjoint_check, assemble, balance_check,
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
    """A positive density on the domain cells (one draw per cell of the
    operator, kept on the domain ones)."""
    rng = np.random.default_rng(seed)
    return (rng.random(op.n_cells) + 0.25)[op.interior]


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
    assert op.a_star.shape == (op.interior.size, op.interior.size)
    assert np.all(op.a_star.toarray() == 0.0)
    assert op.exit_weights.shape == (op.interior.size,)
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
        ones = np.ones(op.interior.size)
        norm = abs(op.a_gen).max()
        kappa = op.killing_rate
        assert kappa.min() > 0.0  # every domain cell reaches the absorbing collar
        assert np.max(np.abs(op.a_gen @ ones + kappa)) <= 1e-12 * norm
    # censored process: no killing, constants annihilated outright
    op = make_op(CompoundPoissonUniform(rate=0.2, horizon=1.0), absorbing="empty")
    assert np.max(np.abs(op.a_gen @ np.ones(op.interior.size))) <= 1e-12 * abs(op.a_gen).max()


def test_adjoint_identity_symmetric(analytic_op_64):
    norm = np.max(np.abs(analytic_op_64.a_gen.toarray()))
    assert adjoint_check(analytic_op_64, trials=100, rng=1) <= 1e-12 * norm


def test_adjoint_identity_asymmetric_weighted_transpose():
    op = make_op(asym_kernel())
    norm = np.max(np.abs(op.a_gen.toarray()))
    # inner-product form of the duality
    assert adjoint_check(op, trials=100, rng=2) <= 1e-12 * norm
    # matrix form: W A_fwd = A_bwd^T W on the domain block
    w = op.widths[op.interior]
    lhs = w[:, None] * op.a_star.toarray()
    rhs = op.a_gen.toarray().T * w[:, None]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * norm


@pytest.mark.parametrize("case", ["analytic_64", "asymmetric_32"])
def test_batched_adjoint_check_matches_per_trial_loop(case, analytic_op_64):
    op = analytic_op_64 if case == "analytic_64" else make_op(asym_kernel())
    rng = np.random.default_rng(8)
    w = op.widths[op.interior]
    worst = 0.0
    for _ in range(40):  # the per-trial loop: one draw and two mat-vecs per trial
        u = rng.standard_normal(op.interior.size)
        v = rng.standard_normal(op.interior.size)
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
    # the volume constraint pins the density to zero on the absorbing cells,
    # so a density has one entry per domain cell; a vector over every cell
    # is rejected
    u = np.zeros(analytic_op_64.n_cells)
    u[analytic_op_64.interior] = random_density(analytic_op_64, seed=3)
    n = analytic_op_64.interior.size
    with pytest.raises(ConfigurationError, match=rf"domain cell \({n}\)"):
        balance_check(analytic_op_64, u)


@pytest.fixture(params=["analytic_64", "asymmetric_16"])
def balance_case(request):
    """An operator, a density on its domain cells, and the reference rate
    matrix over all of its cells."""
    kernel, h, seed = {
        "analytic_64": (CompoundPoissonUniform(rate=0.2, horizon=1.0), 1 / 64, 3),
        "asymmetric_16": (asym_kernel(), 1 / 16, 5),
    }[request.param]
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    grid = build_grid(part, h)
    op = assemble(kernel, grid, part)
    return op, random_density(op, seed=seed), all_rows_reference(kernel, grid, part)["values"]


def test_matrices_match_dense_two_point_flux(balance_case):
    # A_fwd u = sum_j psi_ij w_j, with psi_ij = u_j v_ji - u_i v_ij built
    # densely from the rates out of every cell, absorbing ones included
    op, u, rates = balance_case
    gamma = rates.toarray()
    full = np.zeros(op.n_cells)  # zero on the absorbing cells
    full[op.interior] = u
    psi = full[np.newaxis, :] * gamma.T - full[:, np.newaxis] * gamma
    want = (psi @ op.widths)[op.interior]
    got = op.a_star @ u
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # and its mirror, A_bwd u = sum_j v_ij w_j (u_j - u_i)
    want = ((gamma * (full[np.newaxis, :] - full[:, np.newaxis])) @ op.widths)[op.interior]
    got = op.a_gen @ u
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert balance_check(op, u) <= 1e-12


def _zero_row(op, k):
    rows = op.domain_rows.copy()
    rows.data[rows.indptr[k]:rows.indptr[k + 1]] = 0.0
    return rows


@pytest.mark.parametrize("mutation", [
    lambda op: {"a_star": op.a_star * (1 + 1e-8)},
    lambda op: {"a_gen": op.a_gen * (1 + 1e-8)},
    lambda op: {"a_star": op.a_gen, "a_gen": op.a_star},
    lambda op: {"domain_rows": _zero_row(op, op.interior.size // 3)},
], ids=["a_star_scaled", "a_gen_scaled", "swapped", "zeroed_domain_row"])
def test_balance_check_catches_corrupted_operator(mutation):
    op = make_op(asym_kernel(), h=1 / 16)
    u = random_density(op, seed=5)
    assert balance_check(op, u) <= 1e-12
    assert balance_check(dataclasses.replace(op, **mutation(op)), u) > 1e-10


_PROPERTY_MAX_CELLS = 200


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=kernel_cases(), cells_per_horizon=st.sampled_from([6, 8, 12]),
       seed=st.integers(0, 2**16))
def test_balance_check_holds_for_every_family_and_partition(case, cells_per_horizon, seed):
    # a cell is at most 3/2 of h wide after fitting, so h <= lambda/6 keeps
    # every grid within lambda/4; the cap keeps each case to a few hundred rows
    kernel, part, _ = case
    lo, hi = part.collar.bounds[0][0], part.collar.bounds[-1][1]
    h = max(kernel.horizon / cells_per_horizon, (hi - lo) / _PROPERTY_MAX_CELLS)
    assert h <= kernel.horizon / 6
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
    op, u, rates = balance_case
    with pytest.raises(AssertionError, match="densified"):
        rates.toarray()
    balance_check(op, u)  # raises if it densifies


def test_divergence_censored_case_conserves():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    op = make_op(k, absorbing="empty")
    u = random_density(op, seed=7)
    scale = float(np.sum(u * op.widths[op.interior]))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale


def test_divergence_uniform_density(analytic_op_64):
    u = np.ones(analytic_op_64.interior.size)
    assert divergence_theorem_check(analytic_op_64, u) <= 1e-12


def test_divergence_random_density(analytic_op_64):
    op = analytic_op_64
    u = random_density(op, seed=8)
    w_int = op.widths[op.interior]
    scale = float(np.sum(u * w_int))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale
    # mass flowing out of the domain shows up as absorbing-cell flux
    flux = op.domain_rows[:, op.absorbing].T @ (u * w_int)
    assert float(np.sum(flux * op.widths[op.absorbing])) > 0.0


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
    scale = float(np.sum(u * op.widths[op.interior]))
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
    # triplet indices are positions in the domain block
    ij = np.array([[int(v) for v in line.split(",")[:2]] for line in lines[1:]])
    assert ij.max() == len(meta["interior"]) - 1


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
    lo, hi = part.collar.bounds[0][0], part.collar.bounds[-1][1]
    h = max(kernel.horizon / 8, (hi - lo) / _PROPERTY_MAX_CELLS)
    op = assemble(kernel, build_grid(part, h), part)
    loss = op.domain_rows @ op.widths
    scale = max(float(loss.max()), 1e-300)
    for k, i in enumerate(op.interior):
        x, w = op.centers[i], op.widths[i]
        own = Intervals(((x - 0.5 * w, x + 0.5 * w),))
        assert abs(op.killing_rate[k] - kernel.total_rate(x, part.absorbing)) <= 1e-12 * scale
        want = kernel.total_rate(x, part.reachable) - kernel.total_rate(x, own)
        assert abs(loss[k] - want) <= 1e-12 * scale


def all_rows_reference(kernel, grid, partition):
    """Assembly from a kernel row for every cell, absorbing ones included,
    then sliced to the domain rows: kept as the reference for ``assemble``,
    which evaluates the domain rows alone. Returns the three matrices and
    the exit weights."""
    sel = np.flatnonzero(grid.tags != int(Region.COLLAR))
    x = grid.centers[sel]
    w = grid.widths[sel]
    tags = grid.tags[sel]
    n = x.size
    interior = np.flatnonzero(tags == int(Region.INTERIOR))
    absorbing = np.flatnonzero(tags == int(Region.ABSORBING))
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
    w_int = w[interior]
    from_int = values[interior]
    minus_loss = sp.diags(-(from_int @ w))
    v_int = from_int[:, interior]
    return {
        "a_gen": (v_int.multiply(w_int[np.newaxis, :]) + minus_loss).tocsr(),
        "a_star": (v_int.T.multiply(w_int[np.newaxis, :]) + minus_loss).tocsr(),
        "exit_weights": (from_int[:, absorbing].T.multiply(w_int[np.newaxis, :]).tocsr().T
                         @ w[absorbing]),
        "values": values,
    }


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
    grid = build_grid(part, h)
    op = assemble(kernel, grid, part)
    assert (_offset_rows(kernel, op.centers, op.widths, op.interior) is None) == (case in LOOP_CASES)
    ref = all_rows_reference(kernel, grid, part)
    ref["domain_rows"] = ref.pop("values")[op.interior]
    assert op.exit_weights.tobytes() == ref.pop("exit_weights").tobytes()
    for name, expected in ref.items():
        got = getattr(op, name)
        assert got.shape == expected.shape, name
        assert np.array_equal(got.indptr, expected.indptr), name
        assert np.array_equal(got.indices, expected.indices), name
        assert got.data.tobytes() == expected.data.tobytes(), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=kernel_cases())
def test_offset_table_rows_equal_the_row_loop(case):
    # cells of one dyadic width h on one lattice over the domain and the
    # absorbing set, with gaps where the collar does not absorb: the offset
    # table builds the loop's rows bit for bit, and a bivariate table,
    # whose rows are no one function of the offset, is left to the loop
    kernel, part, _ = case
    lo, hi = part.collar.bounds[0][0], part.collar.bounds[-1][1]
    h = 2.0 ** math.ceil(math.log2(max(kernel.horizon / 16, (hi - lo) / 400)))
    x = (np.arange(math.floor(lo / h), math.ceil(hi / h)) + 0.5) * h
    x = x[part.reachable.contains(x)]
    w = np.full(x.size, h)
    sources = np.flatnonzero(part.domain.contains(x))
    assert sources.size > 0  # every component is wider than h
    table = _offset_rows(kernel, x, w, sources)
    if not kernel.translation_invariant:
        assert table is None
        return
    loop = _row_loop(kernel, x, w, sources)
    assert table.shape == loop.shape
    assert np.array_equal(table.indptr, loop.indptr)
    assert np.array_equal(table.indices, loop.indices)
    assert table.data.tobytes() == loop.data.tobytes()


def test_assembly_evaluates_domain_rows_only(stable_kernel_05, monkeypatch):
    # a bivariate table takes one kernel row per domain cell and none for
    # an absorbing cell; a translation-invariant kernel on one lattice takes
    # one call in all, at the offsets k h (k != 0) from a source at 0
    calls = []
    original = JumpKernel.quadrature_values

    def counting(self, x, centers, widths):
        calls.append((x, np.array(centers)))
        return original(self, x, centers, widths)

    monkeypatch.setattr(JumpKernel, "quadrature_values", counting)
    omega, h = ((0.0, 1.0), (1.5, 2.5)), 1 / 16
    op = make_op(bivariate_short_table(), omega=omega, h=h)
    assert sorted(x for x, _ in calls) == sorted(op.centers[op.interior])
    calls.clear()
    op = make_op(stable_kernel_05, omega=omega, h=h)
    ((x, offsets),) = calls
    k = offsets / h
    assert x == 0.0 and np.array_equal(k, np.rint(k)) and np.all(k != 0)
    assert op.domain_rows.nnz > offsets.size


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
