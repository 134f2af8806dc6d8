"""Command-line entry point: run orchestration and artifact emission.

Subcommands::

    solve      evolve the density; write survival.csv (t, S, F)
    exit-time  mean exit time field; write met.csv (x, m_1)
    moments    exit-time moments up to k_max; write met.csv (x, m_1..m_k)
    simulate   Monte Carlo ensemble; write ensemble.csv + mc_survival.csv
    paths      sample paths for plotting; write paths.csv (path_id, t, x)
    verify     operator identity checks + coercivity; write
               verify_report.json + sigma.txt, exit 4 on any failure
    compare    deterministic vs Monte Carlo survival; write compare.csv
               with per-checkpoint z-scores, exit 4 when any |z| > 3

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure, 4 verification-check failure. Failures also leave a
machine-readable ``error.json`` in the output directory when possible.

Everything a run writes is deterministic for a fixed config and seed, and
every file starts with a comment echoing the resolved-config hash.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import montecarlo as mc
from . import operators, solver
from .config import RunConfig, configured_output_dir, load_config, write_resolved
from .errors import ConfigurationError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_F = "%.17g"


def _row_format(types) -> str:
    """printf format of one CSV line with these cell types: integers and
    booleans as whole numbers (booleans as 1/0), everything else as a
    float to 17 significant digits."""
    return ",".join("%d" if issubclass(t, (int, np.integer, np.bool_)) else _F
                    for t in types) + "\n"


def _write_csv(path: Path, cfg_hash: str, header: list[str], rows) -> None:
    formats = {}  # cell types -> line format; a file's rows share a few
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = _row_format(types)
            fh.write(fmt % row)


def _prepare_out(cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, cfg.out_dir / "resolved.ini")
    return cfg.out_dir


def _operator(cfg: RunConfig):
    return operators.assemble(cfg.kernel, cfg.build_grid(), cfg.partition)


def _solve_survival(cfg: RunConfig):
    op = _operator(cfg)
    u0 = solver.uniform_density(op)
    return op, solver.evolve(op, u0, dt=cfg.dt, t_end=cfg.t_end)


def cmd_solve(cfg: RunConfig) -> int:
    out = _prepare_out(cfg)
    _, traj = _solve_survival(cfg)
    rows = zip(traj.times, traj.survival, traj.absorbed_cdf)
    _write_csv(out / "survival.csv", cfg.config_hash, ["t", "S", "F"], rows)
    return EXIT_OK


def cmd_moments(cfg: RunConfig, k_max: int) -> int:
    if cfg.partition.absorbing.empty:
        raise ConfigurationError(
            "exit-time moments need omega_d nonempty; this configuration is "
            "purely confined"
        )
    out = _prepare_out(cfg)
    op = _operator(cfg)
    moments = solver.exit_moments(op, k_max)
    header = ["x"] + [f"m_{m.order}" for m in moments]
    idx = op.interior
    rows = ([op.centers[i]] + [m.values[i] for m in moments] for i in idx)
    _write_csv(out / "met.csv", cfg.config_hash, header, rows)
    return EXIT_OK


def _default_t_max(cfg: RunConfig, op=None) -> float:
    """Censoring horizon: fifty times the largest mean exit time, so the
    censoring bias on moments sits below Monte Carlo noise. Uses ``op``
    when the caller has already assembled the operator."""
    if cfg.t_max is not None:
        return cfg.t_max
    if cfg.partition.absorbing.empty:
        raise ConfigurationError(
            "[mc] t_max is required when omega_d is empty (the walk never exits)"
        )
    if op is None:
        op = _operator(cfg)
    met = solver.mean_exit_time(op)
    return 50.0 * float(np.max(met.interior_values))


def _ensemble(cfg: RunConfig, workers: int, op=None):
    t_max = _default_t_max(cfg, op)
    return mc.simulate_ensemble(cfg.kernel, cfg.partition, n_paths=cfg.n_paths,
                                seed=cfg.seed, t_max=t_max, workers=workers), t_max


def cmd_simulate(cfg: RunConfig, workers: int) -> int:
    out = _prepare_out(cfg)
    ens, _ = _ensemble(cfg, workers)
    rows = (
        [i, ens.x0[i], ens.exit_time[i], ens.exit_location[i], ens.jumps[i], ens.censored[i]]
        for i in range(ens.n_paths)
    )
    _write_csv(out / "ensemble.csv", cfg.config_hash,
               ["path_id", "x0", "T", "y_exit", "N", "censored"], rows)
    times = np.linspace(0.0, cfg.t_end, 201)
    s_hat, stderr = mc.empirical_survival(ens, times)
    _write_csv(out / "mc_survival.csv", cfg.config_hash, ["t", "S_hat", "stderr"],
               zip(times, s_hat, stderr))
    return EXIT_OK


def cmd_paths(cfg: RunConfig) -> int:
    t_max = cfg.t_max if cfg.t_max is not None else cfg.t_end
    if not np.isfinite(t_max):
        raise ConfigurationError(f"[mc] t_max must be finite to record sample paths, got {t_max}")
    out = _prepare_out(cfg)
    rows = []
    for i in range(cfg.paths_n):
        rng = mc.path_rng(cfg.seed, i)
        if cfg.paths_brownian:
            path = mc.brownian_path(0.0, rng, t_max, n_steps=cfg.paths_n_steps)
        else:
            x0 = 0.0 if cfg.paths_free_space else cfg.partition.domain.sample_uniform(rng)
            path = mc.simulate_path(cfg.kernel, x0, rng, t_max,
                                    free_space=cfg.paths_free_space,
                                    partition=None if cfg.paths_free_space else cfg.partition)
        rows.extend([i, t, x] for t, x in zip(path.times, path.positions))
    _write_csv(out / "paths.csv", cfg.config_hash, ["path_id", "t", "x"], rows)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, dump_operator: bool = False) -> int:
    out = _prepare_out(cfg)
    op = _operator(cfg)
    rng = np.random.default_rng(cfg.seed)
    checks: dict[str, dict] = {}

    def record(name, value, threshold):
        checks[name] = {"value": float(value), "threshold": float(threshold),
                        "pass": bool(value <= threshold)}

    norm = float(abs(op.a_gen).max()) or 1.0
    ones = np.ones(op.interior.size)
    record("generator_annihilates_constants",
           float(np.max(np.abs(op.a_gen @ ones + op.killing_rate))) / norm, 1e-10)
    record("adjoint_identity", operators.adjoint_check(op, trials=64, rng=rng) / norm, 1e-10)

    u = np.zeros(op.n_cells)
    u[op.interior] = rng.random(op.interior.size) + 0.5
    rep = operators.balance_check(op, u, rng=rng)
    record("balance_laws", rep.max_relative, 1e-10)
    record("divergence_flux",
           operators.divergence_theorem_check(op, u) / max(float(np.sum(np.abs(u) * op.widths)), 1e-300),
           1e-10)

    u0 = solver.uniform_density(op)
    steps = max(10, min(200, int(round(cfg.t_end / cfg.dt))))
    traj = solver.evolve(op, u0, dt=cfg.dt, t_end=steps * cfg.dt)
    record("conservation_S_plus_F",
           float(np.max(np.abs(traj.survival + traj.absorbed_cdf - traj.survival[0]))), 1e-10)
    if op.absorbing.size == 0:
        record("censored_mass_constant",
               float(np.max(np.abs(traj.survival - traj.survival[0]))), 1e-12)

    if cfg.kernel.symmetric and np.ptp(op.widths) == 0.0:
        asym = abs(op.a_gen - op.a_gen.T).max()
        record("symmetric_matrix", float(asym) / norm, 1e-12)

    sig = solver.coercivity_sigma(op)
    if op.absorbing.size:
        checks["coercivity_positive"] = {
            "value": sig.value, "threshold": 0.0, "pass": bool(sig.value > 0.0)}
    else:
        record("coercivity_zero_when_confined", abs(sig.value), 1e-10)
    with open(out / "sigma.txt", "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write(f"sigma = {_F % sig.value}\n")
        fh.write(f"residual = {_F % sig.residual}\n")
        fh.write(f"iterations = {sig.iterations}\n")  # eigensolver calls: 1

    if dump_operator:
        operators.dump_operator(op, out / "operator.csv", out / "operator_meta.json")

    ok = all(c["pass"] for c in checks.values())
    report = {"config_hash": cfg.config_hash, "all_pass": ok, "checks": checks}
    with open(out / "verify_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, c in checks.items():
        print(f"{'PASS' if c['pass'] else 'FAIL'} {name}: {c['value']:.3e} "
              f"(threshold {c['threshold']:.3e})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_compare(cfg: RunConfig, workers: int) -> int:
    out = _prepare_out(cfg)
    op, traj = _solve_survival(cfg)
    ens, _ = _ensemble(cfg, workers, op)
    times = np.array(cfg.checkpoints)
    s_solver = np.array([traj.survival_at(t) for t in times])
    s_hat, _ = mc.empirical_survival(ens, times)
    z, stderr = mc.survival_z_scores(ens, times, s_solver)
    _write_csv(out / "compare.csv", cfg.config_hash,
               ["t", "S_solver", "S_mc", "stderr", "z"],
               zip(times, s_solver, s_hat, stderr, z))
    worst = float(np.max(np.abs(z)))
    for t, zs in zip(times, z):
        print(f"t={t:g}: z={zs:+.2f}")
    print(f"max |z| = {worst:.2f} (gate 3.0)")
    return EXIT_OK if worst <= 3.0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpexit",
        description="Exit-time statistics for finite-range jump processes: "
                    "volume-constrained solver and Monte Carlo, cross-validated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("solve", "evolve the density and write survival.csv"),
        ("exit-time", "solve the mean exit time field (met.csv)"),
        ("moments", "solve exit-time moments up to k_max (met.csv)"),
        ("simulate", "run the Monte Carlo ensemble (ensemble.csv, mc_survival.csv)"),
        ("paths", "emit sample paths for plotting (paths.csv)"),
        ("verify", "run the operator identity checks (verify_report.json, sigma.txt)"),
        ("compare", "cross-validate solver vs Monte Carlo survival (compare.csv)"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        p.add_argument("--threads", type=int, default=1, help="Monte Carlo worker processes")
        if name == "verify":
            p.add_argument("--dump-operator", action="store_true",
                           help="also write the assembled matrix as CSV triplets")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        out_dir = args.out if args.out is not None else configured_output_dir(args.config)
        _report_error(out_dir, "ConfigurationError", exc)
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "exit-time":
            return cmd_moments(cfg, k_max=1)
        if args.command == "moments":
            return cmd_moments(cfg, k_max=cfg.k_max)
        if args.command == "simulate":
            return cmd_simulate(cfg, workers=args.threads)
        if args.command == "paths":
            return cmd_paths(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, dump_operator=args.dump_operator)
        if args.command == "compare":
            return cmd_compare(cfg, workers=args.threads)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _report_error(cfg.out_dir, "ConfigurationError", exc)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _report_error(cfg.out_dir, "NumericalError", exc)
        return EXIT_NUMERICAL


def _report_error(out_dir, kind: str, exc: Exception) -> None:
    if out_dir is None:
        return
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w") as fh:
            json.dump({"error": kind, "message": str(exc)}, fh, indent=1)
            fh.write("\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
