"""Reproducible random streams for replica-parallel simulation."""

from __future__ import annotations

import numpy as np


def replica_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent SFC64 generator for a (seed, path...) address.

    The state comes from a ``SeedSequence`` whose spawn key is the path,
    so streams derived from the same master seed but different paths are
    statistically independent, and grid points and replica batches can
    be simulated in any order, or concurrently, and still produce
    identical results.

    Args:
        seed: master seed, any nonnegative integer.
        path: zero or more nonnegative integers addressing a sub-stream
            (replica index, grid index, ...).

    Returns:
        A ``numpy.random.Generator`` backed by the SFC64 engine.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.SFC64(ss))
