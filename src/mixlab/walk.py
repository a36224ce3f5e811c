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
jump-chain engine also runs the coupled pair of :mod:`mixlab.coupling`,
and it can run the pair and this walk side by side on shared uniforms,
which is how the tests check that the walk dominates the meeting time.
"""

from __future__ import annotations

import functools
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


def survival_bruteforce(m: int, steps: int, q: float) -> float:
    """Same survival probability by direct absorbing-boundary evolution.

    Dynamic program over positions 1..m+steps with an absorbing wall at
    0; shares no code path with :func:`survival_exact`.  Quadratic in
    ``steps`` and capped accordingly.
    """
    _validate(m, steps, q)
    if steps > _BRUTEFORCE_STEP_CAP:
        raise ValueError(f"steps={steps} beyond the brute-force cap {_BRUTEFORCE_STEP_CAP}")
    width = m + steps + 1  # index = position, 0 is the absorbing wall
    p = np.zeros(width)
    p[m] = 1.0
    for _ in range(steps):
        new = (1.0 - q) * p
        new[:-1] += (q / 2.0) * p[1:]
        new[2:] += (q / 2.0) * p[1:-1]
        # mass moving from position 1 down to 0 is absorbed (dropped)
        new[0] = 0.0
        p = new
    return float(p[1:].sum())


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


def _jump_chain(processes: list, t_cap: int, rng: np.random.Generator) -> list:
    """Run processes side by side through their jump chains on shared uniforms.

    Each process is a triple (state, jump, absorbed): ``state`` is an int
    array of shape (dims, replicas) holding the start, with the same
    replicas for every process; ``jump(state, u_move, u_clock)`` returns
    the state after one jump and the holding time spent before it;
    ``absorbed(state)`` marks absorbing states, and a replica that starts
    in one is absorbed at time 0.  Every round draws one move and one
    clock uniform per replica that some process still runs, and each
    process takes the uniforms of its own running replicas.  Returns
    (times, hit) per process; times carry t_cap + 1 where the cap came
    first.  ``state`` is overwritten with the state at absorption, or at
    t_cap: a jump that lands after t_cap is discarded.
    """
    at_start = [absorbed(state) for state, _, absorbed in processes]
    results = [(np.where(hit, 0, t_cap + 1), hit) for hit in at_start]
    # working columns of the replicas in gid: state, clock and running flag
    cur = [state.copy() for state, _, _ in processes]
    clocks = [np.zeros(hit.size, dtype=np.int64) for hit in at_start]
    running = [~hit for hit in at_start]
    gid = np.arange(at_start[0].size)
    while True:
        keep = functools.reduce(np.logical_or, running)
        if not keep.all():
            gid = gid[keep]
            cur = [c[:, keep] for c in cur]
            clocks = [c[keep] for c in clocks]
            running = [r[keep] for r in running]
        if not gid.size:
            return results
        u_move = rng.random(gid.size)
        u_clock = rng.random(gid.size)
        for p, ((state, jump, absorbed), (times, hit)) in enumerate(zip(processes, results)):
            run = running[p]
            if not run.any():
                continue
            sel = slice(None) if run.all() else run
            before = cur[p][:, sel]
            nxt, hold = jump(before, u_move[sel], u_clock[sel])
            when = clocks[p][sel] + hold
            late = when > t_cap
            done = absorbed(nxt) & ~late
            still = ~(late | done)
            if not still.all():
                ids = gid[sel]
                late, done = np.flatnonzero(late), np.flatnonzero(done)
                times[ids[done]] = when[done]
                hit[ids[done]] = True
                state[:, ids[late]] = before[:, late]
                state[:, ids[done]] = nxt[:, done]
            if sel is run:
                cur[p][:, sel], clocks[p][sel], run[sel] = nxt, when, still
            else:  # every replica ran: take the new arrays as they are
                cur[p], clocks[p], running[p] = nxt, when, still
            del before, nxt, hold, when  # not held through the next draws


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
    [(times, hit)] = _jump_chain([_walk_process(start, params.q)], t_cap, rng)
    return times, hit


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
