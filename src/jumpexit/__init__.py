"""Exit-time statistics for finite-range Markov jump processes.

Two routes to the same quantities, built to cross-validate each other:
a volume-constrained nonlocal solver (survival density, exit-time
distribution and moments, coercivity constant) and a continuous-time
random walk Monte Carlo arm (exit ensembles, empirical survival, sample
paths).
"""

from .errors import ConfigurationError, NumericalError
from .geometry import DomainPartition, Grid, Intervals, build_grid, interaction_domain
from .kernels import (CompoundPoissonUniform, JumpKernel, TabulatedKernel,
                      TruncatedStable, load_tabulated_csv)
from .montecarlo import (ExitEnsemble, SamplePath, brownian_path,
                         empirical_survival, path_rng, simulate_ensemble,
                         simulate_path, survival_z_scores)
from .operators import (DiscreteOperator, adjoint_check, assemble,
                        balance_check, divergence_theorem_check, dump_operator)
from .solver import (DensityTrajectory, ExitMoments, SigmaEstimate,
                     coercivity_sigma, evolve, exit_moments, mean_exit_time,
                     uniform_density)

__all__ = [
    "CompoundPoissonUniform", "ConfigurationError",
    "DensityTrajectory", "DiscreteOperator", "DomainPartition",
    "ExitEnsemble", "ExitMoments", "Grid", "Intervals", "JumpKernel",
    "NumericalError", "SamplePath", "SigmaEstimate",
    "TabulatedKernel", "TruncatedStable", "adjoint_check", "assemble",
    "balance_check", "brownian_path", "build_grid", "coercivity_sigma",
    "divergence_theorem_check", "dump_operator", "empirical_survival",
    "evolve", "exit_moments", "interaction_domain", "load_tabulated_csv",
    "mean_exit_time", "path_rng", "simulate_ensemble", "simulate_path",
    "survival_z_scores", "uniform_density",
]

__version__ = "0.1.0"
