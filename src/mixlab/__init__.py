"""mixlab: mixing-time analysis of complete-graph particle swap dynamics.

The package revolves around one Markov chain: k particles on n sites,
a uniformly random ordered pair of sites swapping contents each step.
Modules:

- exclusion: the instance parameters and, on small instances, the exact
  configuration-level chain and its brute-force distance curve.
- lumped: the exact birth-and-death projection of the block statistic,
  its stationary law, moments, and distance-to-stationarity curves.
- coupling: monotone two-replica couplings, meeting times, and the
  jump-chain invariants behind the upper bounds.
- bounds: coupon-collector lower bounds, simulated and certified.
- walk: the lazy random walk killed at zero, by reflection, brute force,
  simulation, and its Gaussian limit.
- config / records / experiments / cli: the reproducible experiment
  layer behind the ``mixlab`` command.

The package namespace holds only the names shared by every layer;
everything else is reached through its module, as in
``from mixlab import lumped``.
"""

from ._version import __version__
from .exclusion import LABELED, UNLABELED, ModelParams
from .rng import replica_stream

__all__ = ["__version__", "ModelParams", "LABELED", "UNLABELED", "replica_stream"]
