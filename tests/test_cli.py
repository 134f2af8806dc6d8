"""Configuration loading, subcommand orchestration, artifact formats,
exit codes, and byte-level reproducibility."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import jumpexit
from jumpexit import operators, solver
from jumpexit.cli import _write_csv, main
from jumpexit.config import load_config
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
    assert cfg.partition.collar.bounds == ((-1.0, 0.0), (1.0, 2.0))
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


def test_simulate_outputs_and_threads_identical(config_file, tmp_path):
    path = config_file(n_paths__="800")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "b"),
                 "--threads", "4"]) == 0
    a = (tmp_path / "a" / "ensemble.csv").read_bytes()
    b = (tmp_path / "b" / "ensemble.csv").read_bytes()
    assert a == b
    header = (tmp_path / "a" / "ensemble.csv").read_text().splitlines()[1]
    assert header == "path_id,x0,T,y_exit,N,censored"
    assert (tmp_path / "a" / "mc_survival.csv").exists()


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


def test_exit_codes(config_file, tmp_path):
    bad = config_file(omega_d__="[[5.0, 6.0]]")
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    # singular generator (kernel with no jumps anywhere) -> numerical failure
    table = tmp_path / "zero.csv"
    table.write_text("-1.0,0.0\n0.0,0.0\n1.0,0.0\n")
    cfg = config_file(family__="custom_tabulated")
    text = (tmp_path / "run.ini").read_text().replace(
        "rate = 0.2", f"table_path = {table}")
    (tmp_path / "run.ini").write_text(text)
    assert main(["exit-time", "--config", str(tmp_path / "run.ini")]) == 3


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
], ids=["t_max_nan", "t_max_zero", "t_max_negative", "paths_t_max_inf", "checkpoints_empty",
        "checkpoints_not_list", "checkpoints_not_numbers", "brownian_zero_steps",
        "negative_paths"])
def test_rejected_run_input_exits_2_with_error_json(config_file, tmp_path, command, change, match):
    if isinstance(change, dict):
        path = config_file(**change)
    else:
        path = config_file(text=BASE_CONFIG + "\n" + change + "\n")
    assert main([command, "--config", path, "--out", str(tmp_path / "e")]) == 2
    err = json.loads((tmp_path / "e" / "error.json").read_text())
    assert err["error"] == "ConfigurationError"
    assert match in err["message"]


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


def _reference_fmt(x) -> str:
    """Cell rendering the CSV files have always used."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def test_csv_cells_render_as_before(tmp_path):
    rows = [
        [7, np.int64(-3), 0.1, np.float64(1 / 3), np.nan, True, np.bool_(False)],
        [0, np.int64(2**40), -2.5e-300, np.float64(-np.inf), np.float64(np.nan),
         False, np.bool_(True)],
        [2**70, np.int32(5), 1e22, np.float32(0.1), float("inf"), np.True_, 3],
    ]
    _write_csv(tmp_path / "t.csv", "abc", ["a", "b"], iter(rows))
    expected = "# config_hash=abc\na,b\n" + "".join(
        ",".join(_reference_fmt(c) for c in row) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


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
    # needs a kernel row out of an absorbing cell
    from jumpexit.kernels import CompoundPoissonUniform
    calls, ops = [], []
    quadrature, assemble = CompoundPoissonUniform.quadrature_values, operators.assemble

    def counting(self, *args):
        calls.append(1)
        return quadrature(self, *args)

    def keeping(*args):
        ops.append(assemble(*args))
        return ops[-1]

    monkeypatch.setattr(CompoundPoissonUniform, "quadrature_values", counting)
    monkeypatch.setattr(operators, "assemble", keeping)
    assert main(["verify", "--config", config_file()]) == 0
    (op,) = ops
    assert op.absorbing.size > 0
    assert len(calls) == op.interior.size


def test_benchmark_tracer_reads_solver_counts(config_file, tmp_path):
    # the benchmark's layer wrappers read op.a_star.nnz, the generator LU
    # factors and the sigma iteration count; keep them readable
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        for command in ("solve", "moments", "verify"):
            assert main([command, "--config", config_file(),
                         "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    counts = {}
    for span in tracer.spans:
        counts.update(span["counts"])
    assert counts["nnz"] > 0
    assert counts["lu_fill"] > 0
    assert counts["sigma_iterations"] > 0


def test_compare_gate_fires_on_underresolved_grid(config_file, tmp_path):
    # at h = lambda/4 the discrete exit rate is 25% low; the cross-validation
    # must flag the mismatch with the (unbiased) Monte Carlo arm
    path = config_file(h__="0.25", n_paths__="20000")
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
