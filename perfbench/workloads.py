"""The benchmark's workloads: fixed lists of mixlab CLI operations.

Each operation is one ``mixlab <kind> --config <file> --seed <seed>``
call.  The sizes put each workload at about 6 to 13 s per pass on a
2-core Xeon.  ``SMALL`` holds shrunken copies of the same operations for
the self-test.
"""

from __future__ import annotations

from typing import NamedTuple


class Op(NamedTuple):
    """One CLI operation: metric name, CLI kind and config mapping."""

    name: str
    kind: str
    config: dict


WORKLOADS: dict[str, list[Op]] = {
    # lumped.evolve dominates; sweep (k = n/5) is bound by vector
    # arithmetic, tv-curve (k ~ 2 sqrt(n)) by per-call overhead.
    "exact": [
        Op("sweep", "sweep", {
            "n_grid": [4000, 6000, 8000, 10000],
            "k_rule": {"kind": "fraction", "value": 0.2},
            "eps": [0.1],
        }),
        Op("tv_curve", "tv-curve", {
            "n": 20000, "k": 283, "t_max": 80000, "stride": 1, "eps": [0.25, 0.1],
        }),
        Op("oracle_check", "oracle-check", {
            "n_max": 8, "t_max": 200, "pair_n_max": 30,
            "walk_steps_max": 100, "walk_m_max": 8,
        }),
    ],
    # the jump-chain samplers: merge_time_samples and hitting_time_samples
    "montecarlo": [
        Op("coupling", "coupling", {
            "n": 2000, "k": 400, "t_values": [4000, 5000, 6000], "replicas": 20000,
        }),
        Op("hitting", "hitting", {
            "m": 50, "q": 0.04, "steps_values": [10000, 20000, 40000], "replicas": 20000,
        }),
    ],
    # the collector sampler: draw generation (sparse) and dedup (dense)
    "collector": [
        Op("bounds_sparse", "bounds", {
            "n": 10000, "k": 100, "threshold": 10, "t_values": [12000, 18000],
            "replicas": 2500,
        }),
        Op("bounds_dense", "bounds", {
            "n": 1000, "k": 200, "threshold": 20, "t_values": [1500, 2500],
            "replicas": 5000,
        }),
    ],
}

SMALL: dict[str, list[Op]] = {
    "exact": [
        Op("sweep", "sweep", {
            "n_grid": [40, 60, 80], "k_rule": {"kind": "fraction", "value": 0.2},
            "eps": [0.1],
        }),
        Op("tv_curve", "tv-curve", {
            "n": 200, "k": 29, "t_max": 800, "stride": 1, "eps": [0.25, 0.1],
        }),
        Op("oracle_check", "oracle-check", {
            "n_max": 5, "t_max": 20, "pair_n_max": 8,
            "walk_steps_max": 20, "walk_m_max": 4,
        }),
    ],
    "montecarlo": [
        Op("coupling", "coupling", {
            "n": 60, "k": 12, "t_values": [60, 90], "replicas": 400,
        }),
        Op("hitting", "hitting", {
            "m": 5, "q": 0.2, "steps_values": [50, 100], "replicas": 400,
        }),
    ],
    "collector": [
        Op("bounds_sparse", "bounds", {
            "n": 400, "k": 8, "threshold": 2, "t_values": [300, 600], "replicas": 200,
        }),
        Op("bounds_dense", "bounds", {
            "n": 100, "k": 20, "threshold": 4, "t_values": [100, 200], "replicas": 200,
        }),
    ],
}
