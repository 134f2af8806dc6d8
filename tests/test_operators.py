"""Assembly of the forward/backward operator pair and its structural
identities: adjointness, balance laws, flux bookkeeping, sign structure."""

import numpy as np
import pytest
import scipy.sparse as sp

from jumpexit.errors import ConfigurationError
from jumpexit.geometry import DomainPartition, build_grid
from jumpexit.kernels import CompoundPoissonUniform, TabulatedKernel, TruncatedStable
from jumpexit.operators import (BalanceReport, adjoint_check, assemble, balance_check,
                                divergence_theorem_check, dump_operator)


def make_op(kernel, omega=((0.0, 1.0),), absorbing="full", h=1 / 32, horizon=1.0):
    part = DomainPartition.build(list(omega), horizon=horizon, absorbing=absorbing)
    grid = build_grid(part, h)
    return assemble(kernel, grid, part)


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
    u = random_density(analytic_op_64, seed=3, domain_only=False)
    u[analytic_op_64.absorbing] = 0.3  # conditions hold for any density
    rep = balance_check(analytic_op_64, u, rng=4)
    assert rep.antisymmetry == 0.0  # exact algebraic antisymmetry
    assert rep.max_relative <= 1e-12


def test_balance_conditions_asymmetric():
    op = make_op(asym_kernel(), h=1 / 16)
    rep = balance_check(op, random_density(op, seed=5), rng=6)
    assert rep.antisymmetry == 0.0
    assert rep.max_relative <= 1e-12


def dense_balance_reference(op, u, rng=None, trials=16):
    """The balance-law check on the densified rate matrix, kept as the
    reference for the sparse ``balance_check``: same formulas, same RNG
    order."""
    rng = np.random.default_rng(rng)
    gamma = op.values.toarray()
    w = op.widths
    psi = u[np.newaxis, :] * gamma.T - u[:, np.newaxis] * gamma
    scale = float(np.sum(np.abs(psi) * w[:, np.newaxis] * w[np.newaxis, :]))
    antisym = float(np.max(np.abs(psi + psi.T)))
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
    return BalanceReport(antisym, self_int, action, additive, scale)


@pytest.fixture(params=["analytic_64", "asymmetric_16"])
def balance_case(request):
    if request.param == "analytic_64":
        op = request.getfixturevalue("analytic_op_64")
        u = random_density(op, seed=3, domain_only=False)
        u[op.absorbing] = 0.3
        return op, u
    op = make_op(asym_kernel(), h=1 / 16)
    return op, random_density(op, seed=5)


def test_sparse_balance_check_matches_dense_reference(balance_case):
    op, u = balance_case
    rep = balance_check(op, u, rng=11)
    ref = dense_balance_reference(op, u, rng=11)
    assert rep.antisymmetry == 0.0 and ref.antisymmetry == 0.0
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
    op, u = balance_case
    with pytest.raises(AssertionError, match="densified"):
        op.values.toarray()
    assert balance_check(op, u, rng=11).antisymmetry == 0.0


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
