"""The example scripts run end to end on small inputs, against the library
in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpexit

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> str:
    src = str(Path(jumpexit.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_analytic_exit_case(tmp_path):
    out = _run("analytic_exit_case.py", "--h", "0.03125", "--n-paths", "200", cwd=tmp_path)
    line = next(line for line in out.splitlines() if line.startswith("mean exit time"))
    solver_mean = float(line.split()[4])
    assert abs(solver_mean - 10.0) <= 1e-4  # exact at any h, to the printed digits


def test_fluctuation_regimes(tmp_path):
    _run("fluctuation_regimes.py", "--n-paths", "1", "--t-max", "1", "--out", "tmp",
         cwd=tmp_path)
    written = sorted(p.name for p in (tmp_path / "tmp").iterdir())
    assert written == ["brownian.csv", "compound_poisson.csv",
                       "stable_alpha05.csv", "stable_alpha15.csv"]
    rows = (tmp_path / "tmp" / "brownian.csv").read_text().splitlines()
    assert rows[0] == "path_id,t,x" and len(rows) == 1 + 2001


SMALL_CONFIG = """\
[kernel]
family = compound_poisson_uniform
lambda = 1.0
rate = 0.2

[domain]
omega = [[0.0, 1.0]]

[grid]
h = 0.0625

[solver]
dt = 0.05
t_end = 5.0
k_max = 2

[mc]
n_paths = 300
t_max = 100.0

[compare]
checkpoints = [1.0, 5.0]
"""


# a translation-invariant table, skewed to the right, whose walks are
# absorbed on part of the collar only
TABLE_CONFIG = (SMALL_CONFIG
                .replace("family = compound_poisson_uniform", "family = custom_tabulated")
                .replace("rate = 0.2", "table_path = table.csv")
                .replace("omega = [[0.0, 1.0]]",
                         "omega = [[0.0, 1.0]]\nomega_d = [[-1.0, -0.5], [1.0, 2.0]]"))
TABLE = "-1.0,0.05\n-0.5,0.1\n0.0,0.2\n0.5,0.3\n1.0,0.1\n"


@pytest.mark.parametrize("case", ["uniform", "table"])
def test_output_digests_repeat_and_do_not_depend_on_threads(tmp_path, case):
    (tmp_path / "small.ini").write_text(SMALL_CONFIG if case == "uniform" else TABLE_CONFIG)
    (tmp_path / "table.csv").write_text(TABLE)
    args = ("small.ini", "--seeds", "0", "3", "--threads", "1", "2")
    first = _run("output_digests.py", *args, cwd=tmp_path)
    assert _run("output_digests.py", *args, cwd=tmp_path) == first
    by_threads = {}
    for line in first.splitlines():
        config, command, seed, threads, code, name, digest = line.split()
        assert (config, code) == ("small.ini", "0") and len(digest) == 64
        by_threads.setdefault(threads, {})[command, seed, name] = digest
    one, two = by_threads["1"], by_threads["2"]
    assert one.keys() == two.keys()
    assert {name for command, _, name in one if command == "simulate"} == {
        "ensemble.csv", "mc_survival.csv", "resolved.ini"}
    assert {name for command, _, name in one if command == "verify"} == {
        "operator.csv", "operator_meta.json", "resolved.ini", "sigma.txt", "verify_report.json"}
    for key in one:
        if key[0] in ("simulate", "compare"):
            assert one[key] == two[key], key
