"""Configuration loading, subcommand orchestration, artifact formats,
exit codes, and byte-level reproducibility."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import jumpexit
from jumpexit import montecarlo as mc
from jumpexit import operators, solver
from jumpexit.cli import INT, _write_csv, main
from jumpexit.config import FLOAT, load_config
from jumpexit.errors import ConfigurationError, NumericalError

BASE_CONFIG = """\
[kernel]
family = compound_poisson_uniform
lambda = 1.0
rate = 0.2

[domain]
omega = [[0.0, 1.0]]
omega_d = full

[grid]
h = 0.015625

[solver]
scheme = implicit_euler
dt = 0.02
t_end = 50.0
k_max = 2

[mc]
n_paths = 5000
seed = 1234
t_max = 500.0

[output]
dir = {out}
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text=None, **replacements):
        body = (text or BASE_CONFIG).format(out=tmp_path / "out")
        for old, new in replacements.items():
            needle = old.replace("__", " = ")
            assert needle.split(" = ")[0] in body
            lines = []
            for line in body.splitlines():
                key = needle.split(" = ")[0]
                lines.append(f"{key} = {new}" if line.startswith(key + " ") else line)
            body = "\n".join(lines) + "\n"
        path = tmp_path / "run.ini"
        path.write_text(body)
        return str(path)
    return write


def test_load_config_resolves_defaults(config_file):
    cfg = load_config(config_file())
    assert cfg.kernel.rate == 0.2
    assert cfg.partition.absorbing.bounds == ((-1.0, 0.0), (1.0, 2.0))  # the whole collar
    assert cfg.checkpoints == [1.0, 5.0, 10.0, 25.0, 50.0]
    assert len(cfg.config_hash) == 16


def test_missing_compare_and_paths_sections_resolve_to_defaults(config_file):
    # BASE_CONFIG has neither section; the hash was recorded when load_config
    # still special-cased their absence, and must not move
    cfg = load_config(config_file())
    assert cfg.resolved["compare"] == {"checkpoints": [1.0, 5.0, 10.0, 25.0, 50.0]}
    assert cfg.resolved["paths"] == {"n_paths": 5, "free_space": True,
                                     "brownian": False, "n_steps": 2000}
    assert (cfg.paths_n, cfg.paths_free_space, cfg.paths_brownian, cfg.paths_n_steps) \
        == (5, True, False, 2000)
    assert cfg.config_hash == "9fc25f67034e89fd"


def test_default_checkpoints_fit_a_short_run(config_file, tmp_path):
    # without [compare], the defaults past t_end or off the dt grid give way
    path = config_file(t_end__="5.0")
    assert load_config(path).checkpoints == [1.0, 5.0]
    assert main(["solve", "--config", path]) == 0
    assert (tmp_path / "out" / "survival.csv").exists()
    assert load_config(config_file(t_end__="0.5")).checkpoints == [0.5]
    # explicit checkpoints are kept as given, and rejected past t_end
    explicit = config_file(text=BASE_CONFIG.replace("t_end = 50.0", "t_end = 5.0")
                           + "\n[compare]\ncheckpoints = [1.0, 10.0]\n")
    assert main(["solve", "--config", explicit, "--out", str(tmp_path / "e")]) == 2
    assert "[0, t_end]" in json.loads((tmp_path / "e" / "error.json").read_text())["message"]


def test_seed_override_changes_hash(config_file):
    path = config_file()
    assert load_config(path).config_hash != load_config(path, seed=77).config_hash
    assert load_config(path, seed=77).seed == 77


def test_validation_names_offending_interval(config_file):
    path = config_file(omega_d__="[[3.0, 4.0]]")
    with pytest.raises(ConfigurationError, match=r"\(3.0, 4.0\)"):
        load_config(path)


@pytest.mark.parametrize("key, value, match", [
    ("h__", "0.3", "lambda/4"),
    ("rate__", "-0.5", "positive"),
    ("n_paths__", "0", "n_paths"),
    ("scheme__", "magic", "scheme"),
    ("family__", "levy_flight", "family"),
])
def test_validation_errors(config_file, key, value, match):
    with pytest.raises(ConfigurationError, match=match):
        load_config(config_file(**{key: value}))


def test_solve_writes_survival(config_file, tmp_path):
    assert main(["solve", "--config", config_file()]) == 0
    lines = (tmp_path / "out" / "survival.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,S,F"
    first = lines[2].split(",")
    assert float(first[1]) == 1.0
    assert (tmp_path / "out" / "resolved.ini").exists()


def test_resolved_ini_reloads_without_mc_section(config_file, tmp_path):
    # no [mc] section, as in perfbench's fine_grid.ini: t_max stays unset
    path = config_file(BASE_CONFIG.replace("[mc]\nn_paths = 5000\nseed = 1234\nt_max = 500.0\n\n", ""))
    cfg = load_config(path)
    assert cfg.t_max is None
    assert main(["solve", "--config", path]) == 0
    resolved = tmp_path / "out" / "resolved.ini"
    assert "t_max" not in resolved.read_text()
    assert load_config(resolved).config_hash == cfg.config_hash


def test_moments_and_exit_time(config_file, tmp_path):
    assert main(["exit-time", "--config", config_file()]) == 0
    met = (tmp_path / "out" / "met.csv").read_text().splitlines()
    assert met[1] == "x,m_1"
    assert main(["moments", "--config", config_file()]) == 0
    met = (tmp_path / "out" / "met.csv").read_text().splitlines()
    assert met[1] == "x,m_1,m_2"
    m1 = np.array([float(r.split(",")[1]) for r in met[2:]])
    assert np.max(np.abs(m1 - 10.0)) <= 0.2


POWER_LAW = (BASE_CONFIG
             .replace("family = compound_poisson_uniform", "family = truncated_stable")
             .replace("rate = 0.2", "alpha = 0.5\nm = 1.0\nepsilon = 0.001")
             .replace("t_max = 500.0", "t_max = 20.0"))


def test_simulate_outputs_and_threads_identical(config_file, tmp_path):
    # the power-law walks take about 60 jumps each, so every worker's
    # chunk of at least 75 paths leaves more than mc._TAIL live after its
    # first steps and hands the last ones to the scalar walk
    for text, n_paths in ((BASE_CONFIG, 800), (POWER_LAW, 300)):
        path = config_file(text=text, n_paths__=str(n_paths))
        runs = [tmp_path / f"{n_paths}-{threads}" for threads in (1, 2, 3, 4)]
        for threads, out in enumerate(runs, start=1):
            assert main(["simulate", "--config", path, "--out", str(out),
                         "--threads", str(threads)]) == 0
            for name in ("ensemble.csv", "mc_survival.csv"):
                assert (out / name).read_bytes() == (runs[0] / name).read_bytes()
        header = (runs[0] / "ensemble.csv").read_text().splitlines()[1]
        assert header == "path_id,x0,T,y_exit,N,censored"


def test_rerun_is_byte_identical(config_file, tmp_path):
    path = config_file()
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "survival.csv").read_bytes() == \
        (tmp_path / "r2" / "survival.csv").read_bytes()


def test_verify_passes_and_writes_report(config_file, tmp_path):
    assert main(["verify", "--config", config_file(), "--dump-operator"]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"]
    names = set(report["checks"])
    assert {"adjoint_identity", "balance_laws", "divergence_flux",
            "conservation_S_plus_F", "generator_annihilates_constants",
            "symmetric_matrix", "coercivity_positive"} <= names
    sigma_lines = (tmp_path / "out" / "sigma.txt").read_text().splitlines()
    assert sigma_lines[1].startswith("sigma = ")
    assert float(sigma_lines[1].split("=")[1]) == pytest.approx(0.1, rel=0.05)
    assert (tmp_path / "out" / "operator.csv").exists()


def test_verify_checks_symmetry_when_only_collar_widths_differ(config_file, tmp_path):
    # lambda = 0.3 does not fit whole cells of the domain's width 1/15 (the
    # widest at most h), and no cell tiles the collar: the domain cells
    # share one width
    path = config_file(lambda__="0.3", h__="0.07")
    cfg = load_config(path)
    op = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)
    assert np.ptp(op.widths) == 0.0 and op.widths[0] == 1 / 15
    assert main(["verify", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"]
    assert report["checks"]["symmetric_matrix"]["value"] == 0.0


def test_solve_grids_a_component_that_is_not_a_whole_number_of_h(config_file, tmp_path):
    # h = lambda/4 passes load_config; the 0.37 component must not get a
    # cell wider than h
    path = config_file(omega__="[[0.0, 1.0], [1.5, 1.87]]", h__="0.25")
    assert main(["solve", "--config", path]) == 0
    assert not (tmp_path / "out" / "error.json").exists()


def test_verify_exits_4_on_corrupted_operator(config_file, tmp_path, monkeypatch, capsys):
    assemble = operators.assemble

    def corrupted(*args):
        op = assemble(*args)
        return dataclasses.replace(op, a_star=op.a_star * (1 + 1e-8))

    monkeypatch.setattr(operators, "assemble", corrupted)
    assert main(["verify", "--config", config_file()]) == 4
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"] is False
    assert report["checks"]["balance_laws"]["pass"] is False
    assert report["checks"]["balance_laws"]["value"] > 1e-10
    assert "FAIL balance_laws" in capsys.readouterr().out
    assert (tmp_path / "out" / "sigma.txt").read_text().splitlines()[1].startswith("sigma = ")


def test_compare_cross_validates(config_file, tmp_path):
    assert main(["compare", "--config", config_file()]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert rows[1] == "t,S_solver,S_mc,stderr,z"
    zs = [abs(float(r.split(",")[4])) for r in rows[2:]]
    assert max(zs) <= 3.0


def test_paths_free_space_and_brownian(config_file, tmp_path):
    extra = BASE_CONFIG + "\n[paths]\nn_paths = 3\nfree_space = true\n"
    assert main(["paths", "--config", config_file(text=extra)]) == 0
    rows = (tmp_path / "out" / "paths.csv").read_text().splitlines()[2:]
    ids = {int(r.split(",")[0]) for r in rows}
    assert ids == {0, 1, 2}
    extra = BASE_CONFIG + "\n[paths]\nn_paths = 2\nbrownian = true\nn_steps = 50\n"
    assert main(["paths", "--config", config_file(text=extra),
                 "--out", str(tmp_path / "bm")]) == 0
    rows = (tmp_path / "bm" / "paths.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 * 51


@pytest.mark.parametrize("text", [
    BASE_CONFIG + "\n[paths]\nn_paths = 5\nfree_space = true\n",
    POWER_LAW + "\n[paths]\nn_paths = 5\nfree_space = false\n",
    BASE_CONFIG + "\n[paths]\nn_paths = 5\nbrownian = true\nn_steps = 50\n",
    POWER_LAW + "\n[paths]\nn_paths = 1\nfree_space = true\n",
    BASE_CONFIG + "\n[paths]\nn_paths = 100\nfree_space = true\n",
    POWER_LAW + "\n[paths]\nn_paths = 100\nfree_space = false\n",
], ids=["free_space", "confined", "brownian", "one_path", "free_space_lockstep",
        "confined_lockstep"])
def test_paths_outputs_identical_at_any_thread_count(config_file, tmp_path, text):
    # at most 5 paths per chunk walk the scalar tail alone; 100 paths split
    # into chunks of at least 25 (one per worker, the CPUs allowing) walk
    # lockstep steps first
    path = config_file(text=text)
    runs = [tmp_path / str(threads) for threads in (1, 2, 3, 4)]
    for threads, out in enumerate(runs, start=1):
        assert main(["paths", "--config", path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        assert (out / "paths.csv").read_bytes() == (runs[0] / "paths.csv").read_bytes()


def test_paths_raises_the_first_failing_path_at_any_thread_count(config_file, tmp_path):
    # paths 11, 14, 20 and 21 start where the table cannot jump; two
    # workers split the 24 paths at 12, so both chunks fail, the second
    # one sooner
    path = _write_stranded_table(tmp_path, config_file)
    with open(path, "a") as fh:
        fh.write("\n[paths]\nn_paths = 24\nfree_space = false\n")
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["paths", "--config", path, "--out", str(out), "--threads", threads]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigurationError"
        assert "zero jump rate at x=0.4674105075080861" in err["message"]


def test_exit_codes(config_file, tmp_path):
    bad = config_file(omega_d__="[[5.0, 6.0]]")
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    # a kernel with no jumps anywhere: no cell has a way out, so the exit
    # time is infinite, a configuration error that names the first cell
    table = tmp_path / "zero.csv"
    table.write_text("-1.0,0.0\n0.0,0.0\n1.0,0.0\n")
    cfg = config_file(family__="custom_tabulated")
    text = (tmp_path / "run.ini").read_text().replace(
        "rate = 0.2", f"table_path = {table}")
    (tmp_path / "run.ini").write_text(text)
    assert main(["exit-time", "--config", str(tmp_path / "run.ini")]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert "domain cell at x=0.0078125 " in err["message"]


def _write_stranded_table(tmp_path, config_file):
    """A config whose displacement table has no mass for 0.6 > |d| > 0.5999,
    on the unit domain absorbed on (1.5, 2) only: the cells near x = 0.4
    cannot jump at all."""
    table = tmp_path / "gap.csv"
    table.write_text("-1,1\n-0.6,1\n-0.5999,0\n0.5999,0\n0.6,1\n1,1\n")
    path = config_file(family__="custom_tabulated", omega_d__="[[1.5, 2.0]]", h__="0.0625")
    text = Path(path).read_text().replace("rate = 0.2", f"table_path = {table}")
    Path(path).write_text(text)
    return path


def test_verify_fails_coercivity_on_a_generator_singular_to_rounding(config_file, tmp_path):
    # sigma comes out near 1e-47 here, positive only by rounding: held to
    # the max|A| scale of the other checks, it fails
    path = _write_stranded_table(tmp_path, config_file)
    assert main(["verify", "--config", path]) == 4
    check = json.loads((tmp_path / "out" / "verify_report.json").read_text())[
        "checks"]["coercivity_positive"]
    assert not check["pass"] and check["value"] < check["threshold"]


def test_a_cell_that_cannot_jump_exits_2_and_is_named(config_file, tmp_path):
    path = _write_stranded_table(tmp_path, config_file)
    assert main(["moments", "--config", path]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert "domain cell at x=0.40625 " in err["message"]


@pytest.mark.parametrize("omega_d", ["[[-0.37, 0.0], [1.0, 2.0]]", "[[-1.0, -0.37]]"])
def test_absorbing_intervals_of_any_length_solve(config_file, tmp_path, omega_d):
    # no cell tiles the absorbing set, so an interval 0.37 long cannot
    # break the h <= lambda/4 rule, which reads the domain cells alone
    path = config_file(omega_d__=omega_d, h__="0.25", t_end__="1.0")
    assert main(["solve", "--config", path]) == 0
    lines = (tmp_path / "out" / "survival.csv").read_text().splitlines()
    assert len(lines) == 2 + 51 and float(lines[-1].split(",")[1]) < 1.0


@pytest.mark.parametrize("edit, match", [
    (lambda body: body.replace("n_paths = 5000", "n_path = 10"), r"unknown key \[mc\] n_path"),
    (lambda body: body + "\n[solvr]\ndt = 0.1\n", r"unknown config section \[solvr\]"),
    (lambda body: body.replace("rate = 0.2", "rate = 0.2\nalpha = 0.5"),
     r"unknown key \[kernel\] alpha"),
], ids=["misspelt_key", "misspelt_section", "other_family_key"])
def test_unknown_sections_and_keys_exit_2(config_file, tmp_path, edit, match):
    path = Path(config_file())
    path.write_text(edit(path.read_text()))
    with pytest.raises(ConfigurationError, match=match):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"


def test_eigensolver_failure_exits_3_with_error_json(config_file, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                  np.zeros((0, 0)))

    monkeypatch.setattr(solver, "eigsh", fail)
    path = config_file()
    cfg = load_config(path)
    op = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)
    with pytest.raises(NumericalError, match="coercivity eigensolve failed"):
        solver.coercivity_sigma(op)
    assert main(["verify", "--config", path]) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "NumericalError" and "No convergence" in err["message"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, module, name", [
    ("solve", operators, "assemble"), ("simulate", mc, "simulate_ensemble")])
def test_out_of_memory_exits_2_with_error_json(config_file, tmp_path, monkeypatch, capsys,
                                               command, module, name):
    # a configured grid or ensemble too large for memory is the config's
    # fault, not a traceback; stand-ins raise as numpy does, allocating nothing
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 12.0 GiB for an array")

    monkeypatch.setattr(module, name, fail)
    assert main([command, "--config", config_file()]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err == {"error": "MemoryError", "message": "Unable to allocate 12.0 GiB for an array"}
    stderr = capsys.readouterr().err
    assert stderr.startswith("out of memory: ") and stderr.count("\n") == 1


def test_banded_block_verifies_without_densifying(config_file, tmp_path, monkeypatch):
    # horizon 1/16 at h = 1/256: each domain row couples about 32 of 256 cells
    path = config_file(lambda__="0.0625", h__="0.00390625")
    cfg = load_config(path)
    op = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)
    assert 4 * op.a_gen.nnz < op.n_cells ** 2
    sw = np.sqrt(op.widths)
    c = sw[:, None] * -op.a_gen.toarray() / sw[None, :]
    dense = float(np.linalg.eigvalsh(0.5 * (c + c.T))[0])

    def refuse(self, *args, **kwargs):
        raise AssertionError("a banded block was densified")

    classes = {cls for kind in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix,
                                sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array)
               for cls in kind.__mro__}
    for cls in classes:
        for name in ("toarray", "todense"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(AssertionError, match="densified"):
        op.a_gen.toarray()
    assert solver.coercivity_sigma(op).value == pytest.approx(dense, rel=1e-10)
    assert main(["verify", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"]


@pytest.mark.parametrize("key, value, match", [
    ("scheme__", "crank_nicolson", "removed"),
    ("dt__", "0.03", "t_end"),
    (None, "[1.0, 1.01]", "checkpoints"),
])
def test_rejected_config_exits_2_with_error_json(config_file, tmp_path, key, value, match):
    if key is None:
        path = config_file(text=BASE_CONFIG + f"\n[compare]\ncheckpoints = {value}\n")
    else:
        path = config_file(**{key: value})
    assert main(["compare", "--config", path, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert match in err["message"]


@pytest.mark.parametrize("command, change, match", [
    ("paths", {"t_max__": "nan"}, "t_max"),
    ("simulate", {"t_max__": "0"}, "t_max"),
    ("compare", {"t_max__": "-5.0"}, "t_max"),
    ("paths", {"t_max__": "inf"}, "finite"),
    ("compare", "[compare]\ncheckpoints = []", "checkpoints"),
    ("compare", "[compare]\ncheckpoints = 5.0", "checkpoints"),
    ("compare", '[compare]\ncheckpoints = [1.0, "a"]', "checkpoints"),
    ("paths", "[paths]\nbrownian = true\nn_steps = 0", "n_steps"),
    ("paths", "[paths]\nn_paths = -3", "n_paths"),
    # float() reads JSON's true as 1 and "2.5" as 2.5: neither is a number
    ("solve", {"omega__": "[[false, true]]"}, "[domain] omega endpoints must be numbers"),
    ("solve", {"omega_d__": "[[-1.0, false]]"}, "[domain] omega_d endpoints must be numbers"),
    ("compare", '[compare]\ncheckpoints = [true, "2.5"]', "[compare] checkpoints must be numbers"),
], ids=["t_max_nan", "t_max_zero", "t_max_negative", "paths_t_max_inf", "checkpoints_empty",
        "checkpoints_not_list", "checkpoints_not_numbers", "brownian_zero_steps",
        "negative_paths", "omega_booleans", "omega_d_boolean", "checkpoints_boolean_and_string"])
def test_rejected_run_input_exits_2_with_error_json(config_file, tmp_path, command, change, match):
    if isinstance(change, dict):
        path = config_file(**change)
    else:
        path = config_file(text=BASE_CONFIG + "\n" + change + "\n")
    assert main([command, "--config", path, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert match in err["message"]


@pytest.mark.parametrize("command, stable, key, value", [
    ("solve", False, "rate", "nan"),
    ("moments", False, "rate", "nan"),
    ("simulate", False, "rate", "nan"),
    ("verify", False, "rate", "nan"),
    ("paths", False, "rate", "nan"),
    ("paths", True, "m", "nan"),
    ("verify", True, "epsilon", "nan"),
    ("solve", False, "h", "nan"),
    ("solve", False, "t_end", "inf"),
    ("solve", False, "lambda", "inf"),
    ("compare", False, "dt", "-inf"),
])
def test_non_finite_number_exits_2_naming_its_key(config_file, tmp_path, command, stable,
                                                  key, value):
    # each of these once ran to a traceback, wrote NaN with exit 0, or
    # walked forever; load_config must reject it before any command runs
    path = config_file(text=STABLE_CONFIG if stable else None, **{f"{key}__": value})
    with pytest.raises(ConfigurationError, match=rf"\] {key}: '{value}' \(not a finite"):
        load_config(path)
    assert main([command, "--config", path, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError" and f"] {key}:" in err["message"]


@pytest.mark.parametrize("omega, match", [
    ("[[0.0, Infinity]]", "not finite"),
    ("[[0.0, NaN]]", "not finite"),
    ("[[-Infinity, 1.0]]", "not finite"),
    ('[["a", 1.0]]', "must be numbers"),
])
def test_non_finite_domain_endpoint_exits_2(config_file, tmp_path, omega, match):
    path = config_file(omega__=omega)
    with pytest.raises(ConfigurationError, match=match):
        load_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "e")]) == 2
    assert match in json.loads((tmp_path / "e" / "error.json").read_text())["message"]


@pytest.mark.parametrize("command", ["verify", "paths"])
def test_non_finite_table_value_exits_2(config_file, tmp_path, command):
    table = tmp_path / "nan.csv"
    table.write_text("-1.0,0.1\n0.0,nan\n1.0,0.1\n")
    path = _tabulated_config(config_file, tmp_path, table)
    with pytest.raises(ConfigurationError, match="finite"):
        load_config(path)
    assert main([command, "--config", path, "--out", str(tmp_path / "e")]) == 2
    assert "finite" in json.loads((tmp_path / "e" / "error.json").read_text())["message"]


@pytest.mark.parametrize("text, match", [
    ("0.0,0.5,0.1\n1.0,0.5,0.2\n", "at least two y nodes"),
    ("0.5,-1.0,0.1\n0.5,0.0,0.2\n0.5,2.0,0.1\n", "at least two x nodes"),
], ids=["one_y", "one_x"])
@pytest.mark.parametrize("command", ["moments", "simulate"])
def test_degenerate_bivariate_table_exits_2(config_file, tmp_path, command, text, match):
    # one y value once ended moments in an IndexError; one x value gave NaN
    # rates, which moments wrote with exit 0 and simulate walked on forever
    table = tmp_path / "grid.csv"
    table.write_text(text)
    path = _tabulated_config(config_file, tmp_path, table)
    with pytest.raises(ConfigurationError, match=match):
        load_config(path)
    assert main([command, "--config", path, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError" and match in err["message"]


@pytest.mark.parametrize("t_max", ["", "t_max = inf\n"], ids=["t_max_unset", "t_max_inf"])
def test_a_domain_part_nothing_absorbs_exits_2(config_file, tmp_path, t_max):
    # (5, 6) lies farther than the horizon from the absorbing set and from
    # (0, 1): moments once wrote m_1 near 4e16 with exit 0, and simulate
    # walked to a t_max of fifty times that, or forever at t_max = inf
    text = (BASE_CONFIG.replace("t_max = 500.0\n", t_max)
            .replace("omega = [[0.0, 1.0]]", "omega = [[0.0, 1.0], [5.0, 6.0]]")
            .replace("omega_d = full", "omega_d = [[-1.0, 0.0], [1.0, 2.0]]")
            .replace("rate = 0.2", "rate = 1.0").replace("h = 0.015625", "h = 0.125"))
    cfg = load_config(config_file(text=text))
    if t_max:
        with pytest.raises(ConfigurationError, match="nothing absorbs needs a finite t_max"):
            mc._check_ends(cfg.kernel, cfg.partition, cfg.t_max)
    op = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)
    with pytest.raises(ConfigurationError, match=r"x=5\.0625 reaches the absorbing set"):
        solver.exit_moments(op, 1)
    for command in ("moments", "simulate", "compare"):
        out = tmp_path / command
        assert main([command, "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigurationError"
        assert ("5.0625" if command == "moments" or not t_max else "(5.0, 6.0)") in err["message"]


def test_a_part_the_kernel_support_cannot_leave_exits_2(config_file, tmp_path):
    # the table's jumps are shorter than 0.3, so the gap of 0.5 from
    # (1.5, 2.5) to (0, 1) cannot be crossed, though the horizon of 1 spans
    # it: simulate once walked forever at t_max = inf while moments named
    # the cell at x = 1.5625
    table = tmp_path / "short.csv"
    table.write_text("-0.3,1.0\n0.0,1.0\n0.3,1.0\n")
    text = (BASE_CONFIG.replace("t_max = 500.0", "t_max = inf")
            .replace("compound_poisson_uniform", "custom_tabulated")
            .replace("rate = 0.2", f"table_path = {table}")
            .replace("omega = [[0.0, 1.0]]", "omega = [[0.0, 1.0], [1.5, 2.5]]")
            .replace("omega_d = full", "omega_d = [[-1.0, 0.0]]")
            .replace("h = 0.015625", "h = 0.125"))
    cfg = load_config(config_file(text=text))
    with pytest.raises(ConfigurationError, match=r"nothing absorbs needs a finite t_max"
                                                 r".*domain part \(1\.5, 2\.5\)"):
        mc._check_ends(cfg.kernel, cfg.partition, cfg.t_max)  # fails fast where it would hang
    for command in ("simulate", "compare", "moments"):
        out = tmp_path / command
        assert main([command, "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigurationError"
        assert ("x=1.5625" if command == "moments" else "(1.5, 2.5)") in err["message"]


def test_a_bivariate_table_at_infinite_t_max_exits_2(config_file, tmp_path):
    # every jump from (3, 4) lands in (3.1, 3.8], so no walk from there is
    # absorbed; the widest support over the x nodes, (-0.9, 0.6), once let
    # (3, 4) "reach" the absorbing [2.5, 3], and simulate walked forever
    y = [-0.5, 0.5, 0.6, 3.1, 3.2, 3.8]
    rows = {0.0: [1, 1, 0, 0, 0, 0], 4.0: [0, 0, 0, 0, 1, 1]}
    table = tmp_path / "bivariate.csv"
    table.write_text("".join(f"{x},{yj},{v}\n" for x, row in rows.items()
                             for yj, v in zip(y, row)))
    path = _tabulated_config(config_file, tmp_path, table)
    text = (Path(path).read_text().replace("t_max = 500.0", "t_max = inf")
            .replace("omega = [[0.0, 1.0]]", "omega = [[0.0, 1.0], [3.0, 4.0]]")
            .replace("omega_d = full", "omega_d = [[-1.0, 0.0], [2.5, 3.0]]")
            .replace("h = 0.015625", "h = 0.125").replace("n_paths = 5000", "n_paths = 50"))
    Path(path).write_text(text)
    cfg = load_config(path)
    with pytest.raises(ConfigurationError, match=r"needs a finite t_max.*bivariate kernel table"
                                                 r".*set a finite \[mc\] t_max, or leave it unset"):
        mc._check_ends(cfg.kernel, cfg.partition, cfg.t_max)  # fails fast where it would hang
    for command in ("simulate", "compare"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigurationError" and "finite t_max" in err["message"]


def test_infinite_t_max_simulates_on_absorbing_domain(config_file, tmp_path):
    # every walk is absorbed, so no censoring horizon is needed
    path = config_file(t_max__="inf", n_paths__="200")
    assert main(["simulate", "--config", path]) == 0
    rows = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[2:]
    assert len(rows) == 200
    assert not any(int(r.split(",")[5]) for r in rows)


def _tabulated_config(config_file, tmp_path, table):
    config_file(family__="custom_tabulated")
    path = tmp_path / "run.ini"
    path.write_text(path.read_text().replace("rate = 0.2", f"table_path = {table}"))
    return str(path)


@pytest.mark.parametrize("case, match", [
    ("no_section_header", "cannot parse config file"),
    ("missing_table", "cannot load kernel table"),
    ("non_numeric_table", "cannot load kernel table"),
])
def test_unreadable_config_or_table_exits_2(config_file, tmp_path, case, match):
    if case == "no_section_header":
        path = tmp_path / "bad.ini"
        path.write_text("h = 1\n")
    elif case == "missing_table":
        path = _tabulated_config(config_file, tmp_path, tmp_path / "absent.csv")
    else:
        table = tmp_path / "bad.csv"
        table.write_text("-1.0,0.1\n0.0,abc\n1.0,0.1\n")
        path = _tabulated_config(config_file, tmp_path, table)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert match in err["message"]


@pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
def test_unwritable_output_directory_exits_2(config_file, tmp_path, capsys, where):
    # --out names a file, or a directory beneath one: neither can be made
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "existing_file" else blocker / "sub"
    assert main(["solve", "--config", config_file(), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


def _reference_fmt(x) -> str:
    """Cell rendering the CSV files have always used."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def test_csv_cells_render_as_before(tmp_path):
    # each column declares its kind once; cells of any type a column may
    # hold render as the reference renders them by type
    columns = {
        "a": (INT, [7, 0, 2**70]),
        "b": (INT, [np.int64(-3), np.int64(2**40), np.int32(5)]),
        "c": (FLOAT, [0.1, -2.5e-300, 1e22]),
        "d": (FLOAT, [np.float64(1 / 3), np.float64(-np.inf), np.float32(0.1)]),
        "e": (FLOAT, [np.nan, np.float64(np.nan), float("inf")]),
        "f": (INT, [True, False, np.True_]),
        "g": (INT, [np.bool_(False), np.bool_(True), 3]),
    }
    cells = [c for _, c in columns.values()]
    _write_csv(tmp_path / "t.csv", "abc", {k: kind for k, (kind, _) in columns.items()}, *cells)
    expected = "# config_hash=abc\na,b,c,d,e,f,g\n" + "".join(
        ",".join(_reference_fmt(c) for c in row) + "\n" for row in zip(*cells))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


# The CLI files no host's libm or LAPACK reaches: a uniform kernel walks on
# uniform draws and exponential waits, a Brownian path is normal draws times
# a square root, the operator is sums and products of the kernel's constant
# density, and [mc] t_max is set, so no solve picks the censoring time. The
# solver's files, sigma.txt and any power-law file are left out. Each case
# is (command, config text appended, file).
BYTE_PIN_RUNS = {
    "ensemble": ("simulate", "", "ensemble.csv"),
    "mc_survival": ("simulate", "", "mc_survival.csv"),
    "free_space_paths": ("paths", "\n[paths]\nn_paths = 40\nfree_space = true\n", "paths.csv"),
    "confined_paths": ("paths", "\n[paths]\nn_paths = 40\nfree_space = false\n", "paths.csv"),
    "brownian_paths": ("paths", "\n[paths]\nn_paths = 3\nbrownian = true\nn_steps = 50\n",
                       "paths.csv"),
    "operator": ("verify", "", "operator.csv"),
}

# sha256 of each file, recorded before each CSV declared its line format:
# the writer must not move a byte.
BYTE_PINS = {
    "brownian_paths": "cf4e565cec20d8ae766301b0cc9b93664900705774fe886cfbb9ae56a251de95",
    "confined_paths": "78004df72d1de0d3909c8de364eb7e4818bc573d4782ecd6afd3e5657217f6cf",
    "ensemble": "5e4455320d1c17b59a6148062fe58e2a0889408868b4b967befab5f665d12f48",
    "free_space_paths": "a13fe54069f44bcf1eb784f73ec14b4a2a6298bd82cd49db4193e2d8a3847c9e",
    "mc_survival": "e40d5e2e5d37fb53f665835c0224d9b0d6a32d1a19bd8e99b1a223d54c171ab6",
    "operator": "5f902ddfd0daa0a39771f6953b249e11c52c25761da3d56df51a2e26899c30e2",
}


@pytest.mark.parametrize("case", sorted(BYTE_PIN_RUNS))
def test_host_independent_files_are_pinned(config_file, tmp_path, case):
    command, extra, name = BYTE_PIN_RUNS[case]
    out = tmp_path / case
    argv = [command, "--config", config_file(text=BASE_CONFIG + extra), "--out", str(out)]
    assert main(argv + (["--dump-operator"] if command == "verify" else [])) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == BYTE_PINS[case]


def test_rejected_config_reports_to_its_own_output_dir(config_file, tmp_path, monkeypatch):
    # without --out, error.json goes to the file's [output] dir
    path = config_file(scheme__="crank_nicolson")
    assert main(["solve", "--config", path]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    # and to ./out when the file names none
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    no_dir = cwd / "no_dir.ini"
    no_dir.write_text(Path(path).read_text().split("[output]")[0])
    assert main(["solve", "--config", str(no_dir)]) == 2
    assert (cwd / "out" / "error.json").exists()


def test_compare_checkpoint_at_zero(config_file, tmp_path):
    # S(0) = 1 on both routes: the null-hypothesis variance is 0 there
    path = config_file(text=BASE_CONFIG + "\n[compare]\ncheckpoints = [0.0, 5.0]\n",
                       n_paths__="1000")
    assert main(["compare", "--config", path]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()[2:]
    t0, s_solver, s_mc, stderr, z = (float(v) for v in rows[0].split(","))
    assert (t0, s_mc, z) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2_with_error_json(config_file, tmp_path, monkeypatch, threads):
    # only the Monte Carlo subcommands (simulate, compare and paths) use
    # the flag; solve ignores it, and compare stops before it solves
    path = config_file(n_paths__="100")
    assert main(["solve", "--config", path, "--threads", threads]) == 0
    monkeypatch.setattr(solver, "evolve", lambda *a, **k: pytest.fail("solved with no workers"))
    for command in ("simulate", "compare", "paths"):
        assert main([command, "--config", path, "--threads", threads]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "ConfigurationError"
        assert f"--threads must be at least 1, got {threads}" in err["message"]
        (tmp_path / "out" / "error.json").unlink()


@pytest.mark.parametrize("t_max, rate, late", [
    ("t_max = 5.0\n", "0.2", "[10.0, 25.0, 50.0]"),
    ("", "100.0", "[5.0, 10.0, 25.0, 50.0]"),  # derived: 50 mean exit times, about 1
], ids=["explicit", "derived"])
def test_compare_rejects_checkpoints_past_t_max(config_file, tmp_path, monkeypatch,
                                                t_max, rate, late):
    # the Monte Carlo survival past the censoring time is unknown: compare
    # stops before it walks
    monkeypatch.setattr(mc, "simulate_ensemble",
                        lambda *a, **k: pytest.fail("walked past a rejected checkpoint"))
    path = config_file(text=BASE_CONFIG.replace("t_max = 500.0\n", t_max), rate__=rate)
    assert main(["compare", "--config", path]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert late in err["message"] and "t_max = " in err["message"]


def test_compare_counts_censored_paths_alive_at_t_max(config_file, tmp_path):
    # checkpoint 50 = t_max: the censored paths are the survivors there
    path = config_file(t_max__="50.0", n_paths__="2000")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
    rows = (tmp_path / "sim" / "ensemble.csv").read_text().splitlines()[2:]
    censored = sum(int(r.split(",")[5]) for r in rows)
    assert censored > 0
    assert main(["compare", "--config", path]) == 0
    last = (tmp_path / "out" / "compare.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 50.0
    assert float(last[2]) == censored / 2000


def test_simulate_says_how_many_survival_rows_are_unknown(config_file, tmp_path, capsys):
    # t_max = 5 < t_end = 50: the paths censored at t_max leave S unknown
    # past it, and those rows of mc_survival.csv read NaN
    path = config_file(t_max__="5.0", n_paths__="200")
    assert main(["simulate", "--config", path]) == 0
    rows = (tmp_path / "out" / "mc_survival.csv").read_text().splitlines()[2:]
    nan = sum(r.split(",")[1] == "nan" for r in rows)
    censored = sum(int(r.split(",")[5]) for r in
                   (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[2:])
    assert nan == 180 and censored > 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {nan} of 201 rows of mc_survival.csv are NaN: they lie past "
                   f"t_max = 5.0, where {censored} censored paths leave the survival unknown"]
    # no line when no path was censored
    assert main(["simulate", "--config", config_file(n_paths__="200")]) == 0
    assert capsys.readouterr().err == ""


def test_compare_assembles_one_operator(config_file, monkeypatch):
    # with t_max unset, the censoring horizon reuses the solver's operator
    calls = []
    original = operators.assemble

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "assemble", counting)
    path = config_file(text=BASE_CONFIG.replace("t_max = 500.0\n", ""), n_paths__="500")
    assert main(["compare", "--config", path]) == 0
    assert len(calls) == 1


def test_verify_evaluates_domain_rows_only(config_file, monkeypatch):
    # the density verify checks vanishes on the absorbing set, so no stage
    # needs a kernel row out of an absorbing cell: on this grid of one
    # dyadic width the run evaluates the kernel twice, each time at the
    # offsets from a source at 0, once to assemble the operator and once
    # to rebuild its rates for the balance check
    from jumpexit.kernels import CompoundPoissonUniform
    calls, ops = [], []
    quadrature, assemble = CompoundPoissonUniform.quadrature_values, operators.assemble

    def counting(self, x, *args):
        calls.append(x)
        return quadrature(self, x, *args)

    def keeping(*args):
        ops.append(assemble(*args))
        return ops[-1]

    monkeypatch.setattr(CompoundPoissonUniform, "quadrature_values", counting)
    monkeypatch.setattr(operators, "assemble", keeping)
    assert main(["verify", "--config", config_file()]) == 0
    (op,) = ops
    assert op.exit_weights.min() > 0.0  # every cell jumps into the absorbing set
    assert calls == [0.0, 0.0]


def test_verify_leaves_the_shared_matrix_unchanged(config_file, tmp_path, monkeypatch):
    # the symmetric kernel's one matrix serves as A_fwd and A_bwd through
    # every check, the symmetric_matrix one and the operator dump included
    assemble, kept = operators.assemble, []

    def keeping(*args):
        op = assemble(*args)
        kept.append((op, [a.copy() for a in (op.a_gen.data, op.a_gen.indices, op.a_gen.indptr)]))
        return op

    monkeypatch.setattr(operators, "assemble", keeping)
    assert main(["verify", "--config", config_file(), "--dump-operator"]) == 0
    ((op, before),) = kept
    assert op.a_star is op.a_gen
    for a, b in zip((op.a_gen.data, op.a_gen.indices, op.a_gen.indptr), before):
        assert np.array_equal(a, b)
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["checks"]["symmetric_matrix"]["value"] == 0.0


def test_benchmark_tracer_reads_solver_counts(config_file, tmp_path):
    # the benchmark's layer wrappers read op.a_star.nnz, the generator LU
    # factors, the sigma iteration count and the ensemble and sample-path
    # counts; keep them readable. The paths subcommand records on the
    # lockstep walk, so the sample-path count comes from simulate_path,
    # as scripts/fluctuation_regimes.py calls it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    path = config_file(n_paths__="500")
    cfg = load_config(path)
    try:
        for command in ("solve", "moments", "verify", "simulate", "paths"):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        mc.simulate_path(cfg.kernel, 0.0, mc.path_rng(cfg.seed, 0), 50.0)
    finally:
        tracer.uninstall()
    counts = {}
    for span in tracer.spans:
        counts.update(span["counts"])
    assert counts["nnz"] > 0
    assert counts["lu_fill"] > 0
    a_gen = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition).a_gen
    n_int = a_gen.shape[0]
    assert operators._is_dense(a_gen)
    assert counts["lu_fill"] == n_int * (n_int + 1)  # LAPACK's triangles, L with its unit diagonal
    assert counts["sigma_iterations"] > 0
    assert counts["paths"] == 500
    assert counts["jumps"] > 0
    assert counts["path_jumps"] > 0


STABLE_CONFIG = """\
[kernel]
family = truncated_stable
lambda = 1.0
alpha = 0.5
m = 1.0
epsilon = 0.001

[domain]
omega = [[0.0, 1.0]]
omega_d = full

[grid]
h = 0.0078125

[solver]
scheme = implicit_euler
dt = 0.002
t_end = 2.0
k_max = 2

[mc]
n_paths = 5000
seed = 1234
t_max = 20.0

[compare]
checkpoints = [0.1, 0.5, 1.0, 2.0]

[output]
dir = {out}
"""


def test_compare_gate_fires_on_underresolved_grid(config_file, tmp_path):
    # at h = lambda/4 the capped power law's exit rate, collocated at the
    # cell centres where it varies fastest near the boundary, is far too
    # low: S(0.5) reads 0.262 against 0.222 converged. The cross-validation
    # must flag the mismatch with the (unbiased) Monte Carlo arm
    path = config_file(text=STABLE_CONFIG, h__="0.25")
    assert main(["compare", "--config", path]) == 4
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()[2:]
    assert max(abs(float(r.split(",")[4])) for r in rows) > 3.0


def test_tabulated_kernel_through_config(config_file, tmp_path):
    table = tmp_path / "step.csv"
    zs = np.linspace(-1, 1, 41)
    vs = np.where(zs > 0, 0.3, 0.1)
    table.write_text("\n".join(f"{z},{v}" for z, v in zip(zs, vs)) + "\n")
    cfg = config_file(family__="custom_tabulated")
    text = (tmp_path / "run.ini").read_text().replace(
        "rate = 0.2", f"table_path = {table}")
    (tmp_path / "run.ini").write_text(text)
    # asymmetric kernel: verify runs the weighted-transpose identity route
    assert main(["verify", "--config", str(tmp_path / "run.ini")]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"]
    assert "symmetric_matrix" not in report["checks"]


def test_verify_skips_the_symmetry_check_on_a_symmetric_bivariate_table(config_file, tmp_path):
    # gamma(x, y) = gamma(y, x) on the table, yet the cell average of row i
    # over cell j is not that of row j over cell i: the matrix is symmetric
    # only to O(h^2), so verify holds it to the weighted-transpose identity
    # and the other checks, not to symmetric_matrix
    nodes = np.linspace(-1.0, 2.0, 31)
    table = tmp_path / "symmetric.csv"
    table.write_text("".join(
        f"{x:.17g},{y:.17g},{0.2 + 0.05 * (np.sin(3 * x) + np.sin(3 * y)) ** 2:.17g}\n"
        for x in nodes for y in nodes))
    path = config_file(family__="custom_tabulated")
    (tmp_path / "run.ini").write_text(
        (tmp_path / "run.ini").read_text().replace("rate = 0.2", f"table_path = {table}"))
    cfg = load_config(path)
    assert not cfg.kernel.symmetric
    op = operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)
    asym = abs(op.a_gen - op.a_gen.T).max() / abs(op.a_gen).max()
    assert 1e-12 < asym < 1e-4
    assert main(["verify", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_pass"]
    assert report["checks"]["adjoint_identity"]["pass"]
    assert "symmetric_matrix" not in report["checks"]


def test_console_entry_point(config_file, tmp_path):
    # the child imports the same jumpexit as this process, even when only
    # pytest's pythonpath setting put it on sys.path
    src = str(Path(jumpexit.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "jumpexit.cli", "solve", "--config", config_file()],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
