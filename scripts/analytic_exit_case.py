#!/usr/bin/env python3
"""Cross-validate the two routes on the analytic exponential configuration.

Unit domain, uniform-jump kernel with total rate 0.2 and unit range, fully
absorbing collar. From any interior point a jump leaves the domain with
probability exactly 1/2, so the exit time is Exponential(0.1): survival
exp(-0.1 t), mean exit time 10, second moment 200. The script solves the
density equation, solves the moment systems, runs the Monte Carlo arm, and
prints all three against the closed form.
"""

import argparse

import numpy as np

from jumpexit import (CompoundPoissonUniform, DomainPartition, assemble,
                      build_grid, coercivity_sigma, empirical_survival,
                      evolve, exit_moments, simulate_ensemble,
                      survival_z_scores, uniform_density)

CHECKPOINTS = [1.0, 5.0, 10.0, 25.0, 50.0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h", type=float, default=1 / 256)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1234)
    args = ap.parse_args()

    kernel = CompoundPoissonUniform(rate=0.2, horizon=1.0)
    partition = DomainPartition.build([(0.0, 1.0)], horizon=1.0, absorbing="full")
    op = assemble(kernel, build_grid(partition, args.h), partition)

    traj = evolve(op, uniform_density(op), dt=args.dt, t_end=50.0)
    m1, m2 = exit_moments(op, 2)
    sigma = coercivity_sigma(op)
    ens = simulate_ensemble(kernel, partition, n_paths=args.n_paths,
                            seed=args.seed, t_max=500.0)

    print(f"grid h = {args.h:g}  cells = {op.n_cells}  paths = {ens.n_paths}")
    print(f"mean exit time   solver {m1.values.mean():8.4f}   "
          f"mc {ens.mean_exit_time():8.4f}   exact 10")
    print(f"second moment    solver {m2.values.mean():8.3f}   exact 200")
    print(f"coercivity sigma {sigma.value:8.5f}   exact thinned rate 0.1")
    print()
    print(f"{'t':>5} {'S solver':>10} {'S mc':>10} {'exp(-t/10)':>11} {'z(mc|solver)':>13}")
    s_solver = [traj.survival_at(t) for t in CHECKPOINTS]
    s_hat, _ = empirical_survival(ens, CHECKPOINTS)
    z, _ = survival_z_scores(ens, CHECKPOINTS, s_solver)
    for t, ss, sh, zs in zip(CHECKPOINTS, s_solver, s_hat, z):
        print(f"{t:5.0f} {ss:10.5f} {sh:10.5f} {np.exp(-0.1 * t):11.5f} {zs:+13.2f}")


if __name__ == "__main__":
    main()
