"""Assembly of the forward/backward operator pair and its structural
identities: adjointness, balance laws, flux bookkeeping, sign structure."""

import numpy as np
import pytest
import scipy.sparse as sp

from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, Intervals, Region, build_grid
from jumpexit.kernels import CompoundPoissonUniform, TabulatedKernel, TruncatedStable
from jumpexit.operators import (BalanceReport, adjoint_check, assemble, balance_check,
                                divergence_theorem_check, dump_operator)


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


def random_density(op, seed=0, domain_only=True):
    rng = np.random.default_rng(seed)
    u = rng.random(op.n_cells) + 0.25
    if domain_only:
        mask = np.ones(op.n_cells, dtype=bool)
        mask[op.interior] = False
        u[mask] = 0.0
    return u


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
    assert op.flux_to_d.shape == (op.absorbing.size, op.interior.size)
    assert np.all(op.killing_rate == 0.0)


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
    assert errs[0] / errs[1] >= 1.9  # first-order quadrature of the loss integral
    assert errs[1] / errs[2] >= 1.9
    assert errs[2] <= 5e-3


def test_gain_entries_nonnegative(analytic_op_64):
    a = analytic_op_64.a_star.toarray()
    off = a - np.diag(a.diagonal())
    assert off.min() >= 0.0


def test_generator_annihilates_constants(analytic_op_64, stable_kernel_05, stable_kernel_15):
    # without absorbing rows, A 1 = -kappa, with the killing rate kappa read
    # off the flux matrix (not off A itself)
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


def test_balance_conditions(analytic_op_64):
    rep = balance_check(analytic_op_64, random_density(analytic_op_64, seed=3), rng=4)
    assert rep.max_relative <= 1e-12
    # the volume constraint pins the density to zero on the absorbing cells,
    # and no rate out of them is assembled
    u = random_density(analytic_op_64, seed=3, domain_only=False)
    with pytest.raises(ConfigurationError, match="supported on the domain"):
        balance_check(analytic_op_64, u, rng=4)


def test_balance_conditions_asymmetric():
    op = make_op(asym_kernel(), h=1 / 16)
    rep = balance_check(op, random_density(op, seed=5), rng=6)
    assert rep.max_relative <= 1e-12


def dense_balance_reference(op, u, rates, rng=None, trials=16):
    """The balance-law check on the densified all-cells rate matrix
    ``rates``, kept as the reference for the sparse ``balance_check``: same
    formulas, same RNG order."""
    rng = np.random.default_rng(rng)
    gamma = rates.toarray()
    w = op.widths
    psi = u[np.newaxis, :] * gamma.T - u[:, np.newaxis] * gamma
    scale = float(np.sum(np.abs(psi) * w[:, np.newaxis] * w[np.newaxis, :]))
    n = op.n_cells
    weighted = psi * w[:, np.newaxis] * w[np.newaxis, :]
    self_int = action = additive = 0.0
    row_flux = weighted.sum(axis=1)
    for _ in range(trials):
        size = max(1, n // 3)
        perm = rng.permutation(n)
        s1, s2 = perm[:size], perm[size:2 * size]
        self_int = max(self_int, abs(float(weighted[np.ix_(s1, s1)].sum())))
        action = max(action, abs(float(weighted[np.ix_(s1, s2)].sum())
                                 + float(weighted[np.ix_(s2, s1)].sum())))
        both = np.concatenate([s1, s2])
        additive = max(additive, abs(float(row_flux[both].sum())
                                     - float(row_flux[s1].sum())
                                     - float(row_flux[s2].sum())))
    return BalanceReport(self_int, action, additive, scale)


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


def test_sparse_balance_check_matches_dense_reference(balance_case):
    op, u, rates = balance_case
    rep = balance_check(op, u, rng=11)
    ref = dense_balance_reference(op, u, rates, rng=11)
    assert ref.scale > 0.0
    for name in ("self_interaction", "action_reaction", "additivity", "scale"):
        assert abs(getattr(rep, name) - getattr(ref, name)) <= 1e-15 * ref.scale, name


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
    balance_check(op, u, rng=11)  # raises if it densifies


def test_divergence_censored_case_conserves():
    k = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    op = make_op(k, absorbing="empty")
    u = random_density(op, seed=7)
    scale = float(np.sum(np.abs(u) * op.widths))
    assert divergence_theorem_check(op, u) <= 1e-12 * scale


def test_divergence_uniform_density(analytic_op_64):
    u = np.zeros(analytic_op_64.n_cells)
    u[analytic_op_64.interior] = 1.0
    assert divergence_theorem_check(analytic_op_64, u) <= 1e-12


def test_divergence_random_density(analytic_op_64):
    u = random_density(analytic_op_64, seed=8)
    scale = float(np.sum(np.abs(u) * analytic_op_64.widths))
    assert divergence_theorem_check(analytic_op_64, u) <= 1e-12 * scale
    # mass flowing out of the domain shows up as absorbing-cell flux
    flux = analytic_op_64.flux_to_d @ u[analytic_op_64.interior]
    assert float(np.sum(flux * analytic_op_64.widths[analytic_op_64.absorbing])) > 0.0


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
    scale = float(np.sum(np.abs(u) * op.widths))
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


def test_bivariate_table_short_of_collar_matches_pieces():
    # y nodes stop short of x +- lambda: gamma vanishes beyond the table on
    # both routes, so the operator's first-jump exit odds kappa_i / |A_ii|
    # match the sampling pieces' to O(h) on every domain cell
    k = bivariate_short_table()
    assert float(k.evaluate(0.0, -0.6)) == 0.0
    assert float(k.evaluate(0.0, -0.3)) > 0.0
    part = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    for h in (1 / 64, 1 / 128):
        op = make_op(k, h=h)
        odds = op.killing_rate / np.abs(op.a_star.diagonal())
        x = op.centers[op.interior]
        ref = np.array([k.total_rate(xi, part.absorbing) / k.total_rate(xi, part.reachable)
                        for xi in x])
        assert np.max(np.abs(odds - ref)) <= h


def all_rows_reference(kernel, grid, partition):
    """Assembly from a kernel row for every cell, absorbing ones included,
    then sliced to the domain rows: kept as the reference for ``assemble``,
    which evaluates the domain rows alone. Returns the four matrices."""
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
        mask = np.abs(x - x[i]) < kernel.horizon
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
        "flux_to_d": from_int[:, absorbing].T.multiply(w_int[np.newaxis, :]).tocsr(),
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
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_domain_row_assembly_matches_all_rows_reference(case):
    make_kernel, omega, absorbing, h = ASSEMBLY_CASES[case]
    kernel = make_kernel()
    part = DomainPartition.build(omega, horizon=kernel.horizon, absorbing=absorbing)
    grid = build_grid(part, h)
    op = assemble(kernel, grid, part)
    ref = all_rows_reference(kernel, grid, part)
    ref["domain_rows"] = ref.pop("values")[op.interior]
    for name, expected in ref.items():
        got = getattr(op, name)
        assert got.shape == expected.shape, name
        assert np.array_equal(got.indptr, expected.indptr), name
        assert np.array_equal(got.indices, expected.indices), name
        assert got.data.tobytes() == expected.data.tobytes(), name


def test_assembly_evaluates_domain_rows_only(stable_kernel_05, monkeypatch):
    calls = []
    original = type(stable_kernel_05).quadrature_values

    def counting(self, *args):
        calls.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(type(stable_kernel_05), "quadrature_values", counting)
    op = make_op(stable_kernel_05, omega=((0.0, 1.0), (1.5, 2.5)), h=1 / 16)
    assert len(calls) == op.interior.size
    assert sorted(calls) == sorted(op.centers[op.interior])
