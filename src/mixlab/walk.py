"""Lazy simple random walk killed at zero, via the reflection principle.

The walk moves +1 or -1 with probability q/2 each and holds with
probability 1 - q.  Starting from m >= 1, the survival probability
P[no visit to 0 during the first ``steps`` steps] equals the probability
that the same walk started at 0 and run *without* killing sits inside
the window [-m+1, m] at time ``steps``: reflecting a killed path at its
first zero visit pairs it with a free path that exits the window, and
the lazy steps make the correspondence exact at every finite time.

The free-walk window mass is an exact binomial mixture over the number
of moves; an independent absorbing-boundary dynamic program over the
positive half-line provides the cross-check, and a Gaussian evaluator
covers the diffusive limit where m ~ alpha * s and steps ~ beta * s^2 / q.

Simulation goes through the jump chain: a fair +1/-1 move per jump and
a geometric holding time before it.  The hitting sampler draws the signs
in blocks from random bits and each block's holds as one
negative-binomial sum; the coupled pair of :mod:`mixlab.coupling` runs
on its own per-jump engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

#: Brute-force dynamic program is quadratic in steps; keep it honest.
_BRUTEFORCE_STEP_CAP = 10_000

#: Jumps drawn per running replica and round of the hitting sampler:
#: eight random bytes of fair signs.
_BLOCK = 64

#: Partial sums of the eight signs in each byte value, read as
#: np.unpackbits reads it (most significant bit first, 1 is +1 and 0 is
#: -1), and the net step and the lowest partial sum of each byte.
_BYTE_PATHS = np.cumsum(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1).astype(np.int8) * 2 - 1,
    axis=1,
    dtype=np.int8,
)
_BYTE_END = _BYTE_PATHS[:, -1]
_BYTE_LOW = _BYTE_PATHS.min(axis=1)


@dataclass(frozen=True)
class WalkParams:
    """Lazy walk: move probability q in (0, 1], start position >= 1."""

    q: float
    start: int

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"move probability must lie in (0, 1], got {self.q}")
        if self.start < 1:
            raise ValueError(f"start must be at least 1, got {self.start}")


def _validate(m: int, steps: int, q: float) -> None:
    WalkParams(q, m)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")


def _binom_cdf(k: np.ndarray, n: np.ndarray | int, p: float) -> np.ndarray:
    """P[Bin(n, p) <= k] elementwise (0 for k < 0, 1 for k >= n), accurate
    to a few ulps through the regularized incomplete beta function."""
    inner = betainc(np.maximum(n - k, 1), np.maximum(k, 0) + 1, 1.0 - p)
    return np.where(k < 0, 0.0, np.where(k >= n, 1.0, inner))


def survival_exact(m: int, steps: int, q: float) -> float:
    """P[walk from m stays positive for ``steps`` steps], by reflection.

    The free walk from 0 makes M ~ Bin(steps, q) moves and then sits at
    2 Bin(M, 1/2) - M; the result is its mass inside [-m+1, m], summed
    over the move counts whose binomial weight is not zero in double
    precision.
    """
    _validate(m, steps, q)
    weights = np.diff(_binom_cdf(np.arange(-1, steps + 1), steps, q))
    moves = np.flatnonzero(weights)
    inside = _binom_cdf((moves + m) // 2, moves, 0.5) - _binom_cdf((moves - m) // 2, moves, 0.5)
    return float(weights[moves] @ inside)


def survival_bruteforce(m: int, steps: int, q: float) -> np.ndarray:
    """Survival after each of 0..``steps`` steps, by absorbing-boundary evolution.

    Dynamic program over positions 1..m+steps with an absorbing wall at
    0; shares no code path with :func:`survival_exact`.  Quadratic in
    ``steps`` and capped accordingly.  Entry s sums positions 1..m+s, the
    ones that can hold mass by then, bit for bit as a run stopped at s.
    """
    _validate(m, steps, q)
    if steps > _BRUTEFORCE_STEP_CAP:
        raise ValueError(f"steps={steps} beyond the brute-force cap {_BRUTEFORCE_STEP_CAP}")
    width = m + steps + 1  # index = position, 0 is the absorbing wall
    p = np.zeros(width)
    p[m] = 1.0
    curve = np.ones(steps + 1)
    for s in range(1, steps + 1):
        new = (1.0 - q) * p
        new[:-1] += (q / 2.0) * p[1:]
        new[2:] += (q / 2.0) * p[1:-1]
        # mass moving from position 1 down to 0 is absorbed (dropped)
        new[0] = 0.0
        p = new
        curve[s] = p[1 : m + s + 1].sum()
    return curve


def _check_batch(t_cap: int, replicas: int) -> None:
    """Reject a negative time cap or an empty replica batch."""
    if t_cap < 0:
        raise ValueError("t_cap must be nonnegative")
    if replicas < 1:
        raise ValueError("replicas must be positive")


def hitting_time_samples(
    params: WalkParams,
    t_cap: int,
    replicas: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-hitting times for a replica batch, capped at t_cap.

    The walk's jump chain makes a fair +1/-1 jump after each hold, and
    the holds are iid Geom(q) on {1, 2, ...}, independent of the signs.
    Each round draws ``_BLOCK`` signs per running replica as random bits
    and finds the lowest partial sum of the block from per-byte tables;
    only a replica whose minimum reaches -position has its bits unpacked
    to find its first jump to 0.  The holds of the r jumps used
    (r = ``_BLOCK``, or the index of the hitting jump) sum to
    r + NB(r, q), drawn as one number.  A hit after t_cap, or a block
    without a hit that ends after t_cap, leaves the sentinel t_cap + 1:
    any later hit is later still.  Returns (times, hit).  Raises
    ValueError when q is too small for numpy's negative-binomial
    sampler (below about 1e-17).
    """
    _check_batch(t_cap, replicas)
    times = np.full(replicas, t_cap + 1, dtype=np.int64)
    hit = np.zeros(replicas, dtype=bool)
    # the running replicas: their indices, positions and clocks
    gid = np.arange(replicas)
    pos = np.full(replicas, params.start, dtype=np.int64)
    clock = np.zeros(replicas, dtype=np.int64)
    while gid.size:
        bits = rng.integers(0, 256, (_BLOCK // 8, gid.size), dtype=np.uint8)
        # position after each byte and lowest partial sum within it; the
        # partial sums stay within +-_BLOCK, so int8 holds them
        end = _BYTE_END[bits]
        np.cumsum(end, axis=0, out=end)
        low = _BYTE_LOW[bits]
        low[1:] += end[:-1]
        near = np.flatnonzero(pos <= -low.min(axis=0))
        path = np.unpackbits(bits[:, near], axis=0).view(np.int8)
        path <<= 1
        path -= 1
        np.cumsum(path, axis=0, out=path)
        # a hitting replica starts within _BLOCK of 0, so -pos fits int8
        first = np.argmax(path == -pos[near].astype(np.int8), axis=0)
        pos += end[-1]
        del bits, end, low, path  # freed before the holds' draw
        used = np.full(gid.size, _BLOCK)
        used[near] = first + 1
        # used >= 1, so a ValueError is numpy's range check on used(1-q)/q,
        # which overflows on the way for a subnormal q
        try:
            with np.errstate(over="ignore"):
                holds = rng.negative_binomial(used, params.q)
        except ValueError:
            raise ValueError(
                f"move probability q={params.q} is too small for the negative-binomial holds"
            ) from None
        clock += used
        late = holds > t_cap - clock
        clock += holds  # can wrap only in late replicas, which leave
        ended = near[~late[near]]
        times[gid[ended]] = clock[ended]
        hit[gid[ended]] = True
        still = ~late
        still[near] = False
        gid, pos, clock = gid[still], pos[still], clock[still]
    return times, hit


def tail_estimate(samples: np.ndarray, t: int) -> tuple[float, float]:
    """P[T > t] from samples of T: the share above t and its binomial standard error."""
    share = float(np.mean(samples > t))
    return share, math.sqrt(max(share * (1.0 - share), 0.0) / samples.size)


def gaussian_limit(alpha: float, beta: float) -> float:
    """Diffusive limit of the survival probability: P[|N(0,1)| <= alpha/sqrt(beta)].

    This is the limit of :func:`survival_exact` with start ~ alpha * s and
    steps ~ beta * s^2/q as the scale s grows.  The value never exceeds
    the convenient majorant alpha/sqrt(beta) (density of N at most
    1/sqrt(2 pi) < 1/2).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    value = math.erf(alpha / math.sqrt(2.0 * beta))
    majorant = diffusion_majorant(alpha, beta)
    if value > majorant + 1e-12:
        raise AssertionError("gaussian limit exceeded its closed-form majorant")
    return value


def diffusion_majorant(alpha: float, beta: float) -> float:
    """The elementary cap alpha/sqrt(beta) on :func:`gaussian_limit`."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return alpha / math.sqrt(beta)
