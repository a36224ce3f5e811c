"""Particle-swap dynamics on the complete graph.

A state places k particles on n sites, at most one per site.  Particles
are either indistinguishable (cells hold 0/1) or carry labels 1..k (cells
hold 0 or the label).  One step draws an ordered pair of sites uniformly
from the n^2 possibilities and swaps their contents; drawing x = y, or two
sites with equal contents, leaves the state unchanged, so the chain is
lazy and aperiodic.

The block statistic W counts the particles sitting on the first k sites.
Projected onto W the dynamics is a birth-and-death chain (see
:mod:`mixlab.lumped`); this module provides the configuration-level
process itself plus small-instance oracles that evolve the full
distribution exactly, which is what every lumping claim is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy import sparse

UNLABELED = "unlabeled"
LABELED = "labeled"
_MODES = (UNLABELED, LABELED)

#: Largest full state space the brute-force oracles will enumerate.
STATE_CAP = 1_000_000


@dataclass(frozen=True)
class ModelParams:
    """Instance size: n sites, k particles, with 1 <= k <= n/2."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got n={self.n}")
        if not 1 <= self.k <= self.n // 2:
            raise ValueError(
                f"particle count must satisfy 1 <= k <= n/2, got k={self.k} for n={self.n}"
            )


@dataclass(frozen=True)
class PairSelection:
    """An ordered pair of sites, 1-based; x == y is allowed (no-op swap)."""

    x: int
    y: int


@dataclass(frozen=True)
class Configuration:
    """Immutable site assignment.

    ``cells[i]`` is 0 for an empty site.  In unlabeled mode an occupied
    site holds 1; in labeled mode it holds the particle's label, and each
    label 1..k appears exactly once.
    """

    mode: str
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        n = len(self.cells)
        if n < 2:
            raise ValueError("configuration needs at least 2 sites")
        occupied = [v for v in self.cells if v != 0]
        if not occupied:
            raise ValueError("configuration must contain at least one particle")
        if self.mode == UNLABELED:
            if any(v not in (0, 1) for v in self.cells):
                raise ValueError("unlabeled cells must be 0 or 1")
        else:
            if sorted(occupied) != list(range(1, len(occupied) + 1)):
                raise ValueError("labeled cells must use each label 1..k exactly once")
        if len(occupied) > n // 2:
            raise ValueError("particle count exceeds n/2")

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return sum(1 for v in self.cells if v != 0)


def initial_configuration(params: ModelParams, mode: str = UNLABELED) -> Configuration:
    """All particles packed on the first k sites (labeled: label i on site i)."""
    if mode == UNLABELED:
        cells = (1,) * params.k + (0,) * (params.n - params.k)
    elif mode == LABELED:
        cells = tuple(range(1, params.k + 1)) + (0,) * (params.n - params.k)
    else:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return Configuration(mode, cells)


def draw_pairs(n: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform ordered site pairs out of the n^2 possibilities.

    Returns two int arrays of 1-based site indices.
    """
    x = rng.integers(1, n + 1, size=count)
    y = rng.integers(1, n + 1, size=count)
    return x, y


def step(config: Configuration, selection: PairSelection) -> Configuration:
    """Swap the contents of the two selected sites."""
    n = config.n
    for v in (selection.x, selection.y):
        if not 1 <= v <= n:
            raise ValueError(f"site index {v} out of range 1..{n}")
    if selection.x == selection.y:
        return config
    cells = list(config.cells)
    i, j = selection.x - 1, selection.y - 1
    cells[i], cells[j] = cells[j], cells[i]
    return Configuration(config.mode, tuple(cells))


def w_statistic(config: Configuration) -> int:
    """Number of particles on the block of the first k sites."""
    k = config.k
    return sum(1 for v in config.cells[:k] if v != 0)


def fixed_points(config: Configuration) -> int:
    """Labeled only: number of labels i <= k sitting exactly on site i."""
    if config.mode != LABELED:
        raise ValueError("fixed points are defined for labeled configurations only")
    return sum(1 for i, v in enumerate(config.cells[: config.k], start=1) if v == i)


def simulate_w_trajectories(
    params: ModelParams,
    t_max: int,
    replicas: int,
    rng: np.random.Generator,
    initial: Configuration | None = None,
) -> np.ndarray:
    """Sampled paths of the block statistic W, one row per replica.

    Returns an int array of shape (replicas, t_max + 1).  Each step swaps
    two cells and adjusts W incrementally: the increment is
    (occupied(y) - occupied(x)) * (x in block) - (same) * (y in block),
    which is nonzero only when a particle crosses the block boundary.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    config = initial if initial is not None else initial_configuration(params)
    if config.n != params.n or config.k != params.k:
        raise ValueError("initial configuration does not match params")
    n, k = params.n, params.k
    cells = np.tile(np.array(config.cells, dtype=np.int32), (replicas, 1))
    rows = np.arange(replicas)
    w = np.full(replicas, sum(1 for v in config.cells[:k] if v != 0), dtype=np.int64)
    out = np.empty((replicas, t_max + 1), dtype=np.int64)
    out[:, 0] = w
    for t in range(1, t_max + 1):
        x = rng.integers(0, n, size=replicas)
        y = rng.integers(0, n, size=replicas)
        vx = cells[rows, x]
        vy = cells[rows, y]
        cells[rows, x] = vy
        cells[rows, y] = vx
        dw = ((vy != 0).astype(np.int64) - (vx != 0)) * ((x < k).astype(np.int64) - (y < k))
        w += dw
        out[:, t] = w
    return out


# ---------------------------------------------------------------------------
# Full-distribution oracles (small instances only)
# ---------------------------------------------------------------------------


def state_space_size(params: ModelParams, mode: str) -> int:
    if mode == UNLABELED:
        return math.comb(params.n, params.k)
    if mode == LABELED:
        return math.comb(params.n, params.k) * math.factorial(params.k)
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def enumerate_states(params: ModelParams, mode: str) -> list[tuple[int, ...]]:
    """All configurations as cell tuples; errors out beyond STATE_CAP states."""
    size = state_space_size(params, mode)
    if size > STATE_CAP:
        raise ValueError(
            f"state space has {size} configurations, beyond the enumeration cap {STATE_CAP}"
        )
    n, k = params.n, params.k
    states: list[tuple[int, ...]] = []
    if mode == UNLABELED:
        for occ in combinations(range(n), k):
            cells = [0] * n
            for site in occ:
                cells[site] = 1
            states.append(tuple(cells))
    else:
        for pos in permutations(range(n), k):
            cells = [0] * n
            for label, site in enumerate(pos, start=1):
                cells[site] = label
            states.append(tuple(cells))
    return states


def transition_matrix(params: ModelParams, mode: str) -> tuple[list[tuple[int, ...]], sparse.csr_matrix]:
    """Exact one-step matrix of the swap chain over the full state space."""
    states = enumerate_states(params, mode)
    index = {s: i for i, s in enumerate(states)}
    n = params.n
    p_swap = 2.0 / n**2
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for s_idx, cells in enumerate(states):
        diag = 1.0 / n  # the n draws with x == y
        for x in range(n):
            cx = cells[x]
            for y in range(x + 1, n):
                if cx == cells[y]:
                    diag += p_swap
                else:
                    swapped = list(cells)
                    swapped[x], swapped[y] = swapped[y], swapped[x]
                    rows.append(s_idx)
                    cols.append(index[tuple(swapped)])
                    vals.append(p_swap)
        rows.append(s_idx)
        cols.append(s_idx)
        vals.append(diag)
    size = len(states)
    matrix = sparse.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(size, size)
    )
    return states, matrix


def brute_force_distribution(
    params: ModelParams, mode: str, t: int
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Exact distribution after t steps from the packed initial state."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    states, matrix = transition_matrix(params, mode)
    start = initial_configuration(params, mode).cells
    mu = np.zeros(len(states))
    mu[states.index(start)] = 1.0
    step_t = matrix.transpose().tocsr()
    for _ in range(t):
        mu = step_t @ mu
    return states, mu


def brute_force_tv_curve(params: ModelParams, mode: str, t_max: int) -> np.ndarray:
    """TV distance to the uniform stationary law at t = 0..t_max, exactly."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    states, matrix = transition_matrix(params, mode)
    start = initial_configuration(params, mode).cells
    size = len(states)
    mu = np.zeros(size)
    mu[states.index(start)] = 1.0
    uniform = 1.0 / size
    step_t = matrix.transpose().tocsr()
    curve = np.empty(t_max + 1)
    for t in range(t_max + 1):
        curve[t] = 0.5 * np.abs(mu - uniform).sum()
        if t < t_max:
            mu = step_t @ mu
    return curve


def brute_force_tv(params: ModelParams, mode: str, t: int) -> float:
    """TV distance to stationarity after exactly t steps (exact, small n)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    _, mu = brute_force_distribution(params, mode, t)
    return float(0.5 * np.abs(mu - 1.0 / mu.size).sum())
