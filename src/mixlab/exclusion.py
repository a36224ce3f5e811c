"""Particle-swap dynamics on the complete graph.

A state places k particles on n sites, at most one per site.  Particles
are either indistinguishable (cells hold 0/1) or carry labels 1..k (cells
hold 0 or the label).  One step draws an ordered pair of sites uniformly
from the n^2 possibilities and swaps their contents; drawing x = y, or two
sites with equal contents, leaves the state unchanged, so the chain is
lazy and aperiodic.

The block statistic W counts the particles sitting on the first k sites.
Projected onto W the dynamics is a birth-and-death chain (see
:mod:`mixlab.lumped`).  This module holds the chain itself on small
instances: the exact one-step matrix over the full state space, and the
distance curve it gives from the packed start, which is what every
lumping claim is checked against.
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


def _initial_cells(params: ModelParams, mode: str) -> tuple[int, ...]:
    """All particles packed on the first k sites (labeled: label i on site i)."""
    if mode == UNLABELED:
        return (1,) * params.k + (0,) * (params.n - params.k)
    if mode == LABELED:
        return tuple(range(1, params.k + 1)) + (0,) * (params.n - params.k)
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


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


def brute_force_tv_curve(params: ModelParams, mode: str, t_max: int) -> np.ndarray:
    """TV distance to the uniform stationary law at t = 0..t_max, exactly."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    states, matrix = transition_matrix(params, mode)
    start = _initial_cells(params, mode)
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

