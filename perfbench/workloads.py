"""Benchmark workloads and the reference checks on their outputs.

Every workload runs the same six CLI subcommands. Its own subcommands run
on its main config, which decides the layer that does most of the work;
the others run on a lighter extras config of the same problem, so that
they report their times without crowding out the main work. Each
subcommand is one operation, and it fails on a nonzero exit code or on a
failed check of the files it wrote.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

COMMANDS = ("solve", "moments", "verify", "simulate", "compare", "paths")


@dataclass(frozen=True)
class Workload:
    name: str
    own: tuple[str, ...]  # the subcommands that run on the main config
    threads: int
    why: str
    exit_rate: float | None = None  # set when the exit law is Exponential(rate) from every start

    @property
    def config(self) -> Path:
        return HERE / "workloads" / f"{self.name.replace('-', '_')}.ini"

    @property
    def extras(self) -> Path:
        return HERE / "workloads" / f"{self.name.replace('-', '_')}_extras.ini"

    def config_for(self, command: str) -> Path:
        return self.config if command in self.own else self.extras


WORKLOADS = {w.name: w for w in (
    Workload(
        "fine-grid", ("solve", "moments", "verify"), threads=1, exit_rate=0.1,
        why="analytic compound-Poisson exit law on 3072 cells: Python row-loop assembly, "
            "sparse-LU stepping and dense verify work dominate; Monte Carlo is light"),
    Workload(
        "stable-mc", ("compare", "paths"), threads=2,
        why="capped power law alpha=1/2, about 61 jumps per path on two workers: "
            "per-jump kernel work dominates; the solver is small"),
)}

# m_k = k! / rate^k for an Exponential(rate) exit time; the first two
# tolerances are the acceptance gates of the analytic case
MOMENT_TOLERANCE = {1: 0.02, 2: 0.03, 3: 0.05, 4: 0.08}
SURVIVAL_TOLERANCE = 1e-2
CONSERVATION_TOLERANCE = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CLI CSV (the leading hash comment skipped)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def check(workload: Workload, command: str, out: Path, resolved: dict) -> list[str]:
    """Problems found in the files ``command`` wrote to ``out``; empty when
    every reference check passes."""
    try:
        return CHECKS[command](workload, out, resolved)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_solve(w: Workload, out: Path, r: dict) -> list[str]:
    header, rows = read_csv(out / "survival.csv")
    problems = []
    steps = round(r["solver"]["t_end"] / r["solver"]["dt"])
    if header != ["t", "S", "F"] or len(rows) != steps + 1:
        problems.append(f"survival.csv has {len(rows)} rows, expected {steps + 1}")
    if any(abs(s + f - 1.0) > CONSERVATION_TOLERANCE for _, s, f in rows):
        problems.append("S + F drifts from 1")
    if any(b[1] > a[1] for a, b in zip(rows, rows[1:])):
        problems.append("survival increases")
    if w.exit_rate is not None:
        sup = max(abs(s - math.exp(-w.exit_rate * t)) for t, s, _ in rows)
        if sup > SURVIVAL_TOLERANCE:
            problems.append(f"sup|S - exp(-rate t)| = {sup:.3e} > {SURVIVAL_TOLERANCE}")
    return problems


def _check_moments(w: Workload, out: Path, r: dict) -> list[str]:
    header, rows = read_csv(out / "met.csv")
    k_max = r["solver"]["k_max"]
    problems = []
    if header != ["x"] + [f"m_{k}" for k in range(1, k_max + 1)] or not rows:
        return [f"met.csv header {header} with {len(rows)} rows"]
    for row in rows:
        m = row[1:]
        if min(m) <= 0.0 or m[1] < m[0] ** 2 * (1 - 1e-12):  # Jensen: E[T^2] >= E[T]^2
            problems.append(f"moments at x={row[0]} are not a positive moment sequence")
            break
    if w.exit_rate is not None:
        for k in range(1, k_max + 1):
            ref = math.factorial(k) / w.exit_rate ** k
            err = max(abs(row[k] / ref - 1.0) for row in rows)
            if err > MOMENT_TOLERANCE[k]:
                problems.append(f"m_{k} off by {err:.2%} from {ref:g} (tolerance {MOMENT_TOLERANCE[k]:.0%})")
    return problems


def _check_verify(w: Workload, out: Path, r: dict) -> list[str]:
    with open(out / "verify_report.json") as fh:
        report = json.load(fh)
    if report.get("all_pass") is not True:
        failed = [k for k, c in report.get("checks", {}).items() if not c.get("pass")]
        return [f"verify_report.json fails {failed}"]
    return []


def _check_simulate(w: Workload, out: Path, r: dict) -> list[str]:
    header, rows = read_csv(out / "ensemble.csv")
    n_paths, t_max = r["mc"]["n_paths"], r["mc"]["t_max"]
    problems = []
    if header != ["path_id", "x0", "T", "y_exit", "N", "censored"]:
        problems.append(f"ensemble.csv header {header}")
    if [int(row[0]) for row in rows] != list(range(n_paths)):
        problems.append(f"ensemble.csv has {len(rows)} rows, expected one per path ({n_paths})")
    domain = r["domain"]["omega"]
    for pid, _, t, y, n, censored in rows:
        if censored:
            ok = t == t_max
        else:
            ok = (math.isfinite(t) and 0.0 < t <= t_max and n >= 1
                  and not any(lo <= y <= hi for lo, hi in domain))
        if not ok:
            problems.append(f"path {int(pid)}: bad exit record T={t} y={y} N={n}")
            break
    _, surv = read_csv(out / "mc_survival.csv")
    if len(surv) != 201:
        problems.append(f"mc_survival.csv has {len(surv)} rows, expected 201")
    return problems


def _check_compare(w: Workload, out: Path, r: dict) -> list[str]:
    _, rows = read_csv(out / "compare.csv")
    checkpoints = r["compare"]["checkpoints"]
    if [row[0] for row in rows] != checkpoints:
        return [f"compare.csv rows {len(rows)} do not match checkpoints {checkpoints}"]
    return []


def _check_paths(w: Workload, out: Path, r: dict) -> list[str]:
    _, rows = read_csv(out / "paths.csv")
    t_max = r["mc"]["t_max"] if r["mc"]["t_max"] is not None else r["solver"]["t_end"]
    by_path: dict[int, list[float]] = {}
    for pid, t, _ in rows:
        by_path.setdefault(int(pid), []).append(t)
    if sorted(by_path) != list(range(r["paths"]["n_paths"])):
        return [f"paths.csv holds paths {sorted(by_path)[:5]}..., expected {r['paths']['n_paths']}"]
    for pid, times in by_path.items():
        if times[0] != 0.0 or times[-1] != t_max or any(b < a for a, b in zip(times, times[1:])):
            return [f"path {pid} times do not run from 0 to {t_max} in order"]
    return []


CHECKS = {"solve": _check_solve, "moments": _check_moments, "verify": _check_verify,
          "simulate": _check_simulate, "compare": _check_compare, "paths": _check_paths}
