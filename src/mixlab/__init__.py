"""mixlab: mixing-time analysis of complete-graph particle swap dynamics.

The package revolves around one Markov chain: k particles on n sites,
a uniformly random ordered pair of sites swapping contents each step.
Modules:

- exclusion: the configuration-level chain, labeled and unlabeled, with
  small-instance brute-force oracles.
- lumped: the exact birth-and-death projection of the block statistic,
  its stationary law, moments, and distance-to-stationarity curves.
- coupling: monotone two-replica couplings, meeting times, and the
  dominating-walk construction behind the upper bounds.
- bounds: coupon-collector lower bounds, simulated and certified.
- walk: the lazy random walk killed at zero, by reflection, brute force,
  simulation, and its Gaussian limit.
- config / records / experiments / cli: the reproducible experiment
  layer behind the ``mixlab`` command.
"""

from ._version import __version__
from .exclusion import (
    LABELED,
    UNLABELED,
    Configuration,
    ModelParams,
    PairSelection,
    brute_force_tv,
    fixed_points,
    initial_configuration,
    step,
    w_statistic,
)
from .lumped import (
    BirthDeathKernel,
    MixingProfile,
    build_kernel,
    d_curve,
    equilibrium,
    eigenfunction_check,
    evolve,
    mean_w_closed_form,
    mixing_times,
    second_moment_closed_form,
    t_mix,
    tv_distance,
    tv_lower_bound_second_moment,
    variance_bound_check,
)
from .coupling import (
    CoupledKernel,
    build_coupled_kernel,
    coupling_tv_upper_bound,
    merge_time_samples,
)
from .bounds import (
    CollectorSpec,
    collection_time_samples,
    collector_moments,
    labeled_tv_lower_bound,
    unlabeled_tv_lower_bound,
)
from .walk import (
    WalkParams,
    gaussian_limit,
    survival_bruteforce,
    survival_exact,
)
from .rng import replica_stream

__all__ = [
    "__version__",
    "LABELED",
    "UNLABELED",
    "Configuration",
    "ModelParams",
    "PairSelection",
    "BirthDeathKernel",
    "MixingProfile",
    "CoupledKernel",
    "CollectorSpec",
    "WalkParams",
    "brute_force_tv",
    "build_coupled_kernel",
    "build_kernel",
    "collection_time_samples",
    "collector_moments",
    "coupling_tv_upper_bound",
    "d_curve",
    "equilibrium",
    "eigenfunction_check",
    "evolve",
    "fixed_points",
    "gaussian_limit",
    "initial_configuration",
    "labeled_tv_lower_bound",
    "mean_w_closed_form",
    "merge_time_samples",
    "mixing_times",
    "replica_stream",
    "second_moment_closed_form",
    "step",
    "survival_bruteforce",
    "survival_exact",
    "t_mix",
    "tv_distance",
    "tv_lower_bound_second_moment",
    "unlabeled_tv_lower_bound",
    "variance_bound_check",
    "w_statistic",
]
