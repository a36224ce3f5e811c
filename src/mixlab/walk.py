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
a geometric holding time before it, both drawn from uniforms.  The same
jump-chain engine also runs the coupled pair of :mod:`mixlab.coupling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

#: Brute-force dynamic program is quadratic in steps; keep it honest.
_BRUTEFORCE_STEP_CAP = 10_000


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


def _geometric_from_uniform(u: np.ndarray, log1m_q: np.ndarray | float) -> np.ndarray:
    """Inverse-CDF geometric on {1, 2, ...}: floor(log(1-u)/log(1-q)) + 1.

    Monotone in the success probability for a fixed uniform: a smaller q
    (flatter log) gives a pathwise larger value, which is what makes the
    shared-uniform clock comparison work.  q = 1 (log1m_q = -inf) gives 1.
    """
    return np.floor(np.log1p(-u) / log1m_q).astype(np.int64) + 1


def _check_batch(t_cap: int, replicas: int) -> None:
    """Reject a negative time cap or an empty replica batch."""
    if t_cap < 0:
        raise ValueError("t_cap must be nonnegative")
    if replicas < 1:
        raise ValueError("replicas must be positive")


def _jump_chain(process: tuple, t_cap: int, rng: np.random.Generator) -> tuple:
    """Run a batch of replicas of one process through its jump chain.

    The process is a triple (state, jump, absorbed): ``state`` is an int
    array of shape (dims, replicas) holding the start; ``jump(state,
    u_move, u_clock)`` returns the state after one jump and the holding
    time spent before it; ``absorbed(state)`` marks absorbing states, and
    a replica that starts in one is absorbed at time 0.  Every round
    draws one move and one clock uniform per running replica.  Returns
    (times, hit); times carry t_cap + 1 where the cap came first.
    ``state`` is overwritten with the state at absorption, or at t_cap: a
    jump that lands after t_cap is discarded.
    """
    state, jump, absorbed = process
    hit = absorbed(state)
    times = np.where(hit, 0, t_cap + 1)
    # working columns of the running replicas, whose indices are in gid
    gid = np.flatnonzero(~hit)
    cur = state[:, gid]
    clock = np.zeros(gid.size, dtype=np.int64)
    while gid.size:
        # move, then clock uniforms: like the holds, freed before the next draws
        nxt, hold = jump(cur, rng.random(gid.size), rng.random(gid.size))
        clock += hold
        del hold
        late = clock > t_cap
        done = absorbed(nxt) & ~late
        still = ~(late | done)
        if not still.all():
            late, done = np.flatnonzero(late), np.flatnonzero(done)
            times[gid[done]] = clock[done]
            hit[gid[done]] = True
            state[:, gid[late]] = cur[:, late]
            state[:, gid[done]] = nxt[:, done]
            gid, nxt, clock = gid[still], nxt[:, still], clock[still]
        cur = nxt
    return times, hit


def _walk_process(start: np.ndarray, q: float) -> tuple:
    """The lazy walk from positions ``start`` as a :func:`_jump_chain` process.

    A jump moves +1 when u_move < 1/2, else -1, after a geometric hold
    with success probability q; the walk is absorbed at 0.
    """
    log1m_q = math.log1p(-q) if q < 1.0 else -math.inf

    def jump(pos, u_move, u_clock):
        return pos + np.where(u_move < 0.5, 1, -1), _geometric_from_uniform(u_clock, log1m_q)

    return start[np.newaxis], jump, lambda pos: pos[0] == 0


def hitting_time_samples(
    params: WalkParams,
    t_cap: int,
    replicas: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-hitting times for a replica batch, capped at t_cap.

    Simulates the jump chain, which reproduces the lazy walk's law
    without stepping through individual hold steps.  Returns (times,
    hit); times carry the sentinel t_cap + 1 where the cap was reached.
    """
    _check_batch(t_cap, replicas)
    start = np.full(replicas, params.start, dtype=np.int64)
    return _jump_chain(_walk_process(start, params.q), t_cap, rng)


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
