"""Lazy simple random walk killed at zero, via the reflection principle.

The walk moves +1 or -1 with probability q/2 each and holds with
probability 1 - q.  Starting from m >= 1, the survival probability
P[no visit to 0 during the first ``steps`` steps] equals the probability
that the same walk started at 0 and run *without* killing sits inside
the window [-m+1, m] at time ``steps``: reflecting a killed path at its
first zero visit pairs it with a free path that exits the window, and
the lazy steps make the correspondence exact at every finite time.

The free-walk window mass is an exact binomial mixture over the number
of moves, taken from ratio recurrences of binomial coefficients in
numpy alone: the move-count weights outward from their mode, and each
window as running products outward from its central term.  Two tail
bounds cut both sums in closed form.  Bernstein's inequality for
Bin(steps, q) gives the window of move counts outside which at most
2^-64 of the mass lies, and Hoeffding's for Bin(M, 1/2) gives the start
m from which every window [-m+1, m] misses less than 2^-55 of its mass,
so that the survival rounds to 1 without a sum.  An independent
absorbing-boundary dynamic program over the positive half-line provides
the cross-check, and a Gaussian evaluator covers the diffusive limit
where m ~ alpha * s and steps ~ beta * s^2 / q.

Simulation goes through the jump chain: a fair +1/-1 move per jump and
a geometric holding time before it.  The hitting sampler draws the signs
in blocks from random bits and each block's holds as one
negative-binomial sum; the coupled pair of :mod:`mixlab.coupling` is
run one jump per round.  The inverse-CDF geometric here turns uniforms
into the pair's holds and into the waits of :mod:`mixlab.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lumped import _refuse_stepping

#: Brute-force dynamic program is quadratic in steps; keep it honest.
_BRUTEFORCE_STEP_CAP = 10_000

#: L of the move-count window of :func:`_bernstein_window`, which leaves
#: out at most 2 exp(-L) = 2^-64 of the Bin(steps, q) mass.
_TAIL_LOG = 65.0 * math.log(2.0)

#: Entries per block of the window sums of :func:`survival_exact` (a
#: block has at least 16 move counts), and move counts per block of their
#: weights: 512 KiB, so that a window of at most that many is summed as
#: one array.
_SPREAD_ENTRIES = 1 << 12
_WEIGHT_ROWS = 1 << 16

#: :func:`survival_exact` is estimated at _MOVE_NS per move count of its
#: window plus _ENTRY_NS per window entry (a move count times (m + 1) // 2
#: offsets), and refused beyond lumped's stepping cap of 300 s: an upper
#: envelope of 70-76 ns per move count at m = 1, 217-305 at 11, 948-1076
#: at 101 and 6907-7790 at 1001 (q 0.5, best and worst of 3, 2-core Xeon),
#: estimated 230, 380, 1730 and 15230.
_MOVE_NS = 200
_ENTRY_NS = 30

#: Cap on the float hold of :func:`_geometric_from_uniform` before its
#: int64 cast.
_HOLD_SATURATION = 2.0**62

#: Jumps drawn per running replica and round of the hitting sampler:
#: eight random bytes of fair signs.
_BLOCK = 64

#: :func:`hitting_time_samples` is estimated at _ROUND_NS per round plus
#: _REPLICA_ROUND_NS per running replica and round, over the bounds of
#: :func:`_sampling_ns`, and refused beyond lumped's stepping cap of 300 s:
#: an upper envelope of 57-63 us per round (one replica, q 1) and 98-156 ns
#: per replica-round (20 000 replicas, q from 1 to 1e-6), best and worst of
#: 3 on a 2-core Xeon.
_ROUND_NS = 100_000
_REPLICA_ROUND_NS = 250

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


def _bernstein_window(steps: int, q: float) -> tuple[int, int, int]:
    """(lo, mode, hi): the move counts lo..hi, which hold the mode of
    Bin(steps, q) and all but 2 exp(-L) of its mass, L = ``_TAIL_LOG``.

    With mean mu = steps q and variance v = mu (1 - q), Bernstein's
    inequality puts Bin(steps, q) at least w from mu with probability at
    most 2 exp(-w^2 / (2 (v + w/3))), and w = L/3 + sqrt(L^2/9 + 2 L v)
    makes that 2 exp(-L).  The window is [floor(mu - w), ceil(mu + w)]
    within 0..steps, widened to hold the mode floor((steps + 1) q), so
    it has O(sqrt(steps q) + L) move counts.
    """
    if q == 1.0:  # every step moves
        return steps, steps, steps
    mode = min(int((steps + 1) * q), steps)
    mean = steps * q
    reach = _TAIL_LOG / 3.0 + math.sqrt(_TAIL_LOG**2 / 9.0 + 2.0 * _TAIL_LOG * mean * (1 - q))
    lo = max(min(math.floor(mean - reach), mode), 0)
    hi = min(max(math.ceil(mean + reach), mode), steps)
    return lo, mode, hi


def _binomial_weights(steps: int, q: float, window: tuple[int, int, int]):
    """Yield (start, w): the Bin(steps, q) weights of the move counts start,
    start + 1, ... of ``window`` (see :func:`_bernstein_window`), scaled so
    that the mode's is 1, in blocks of ``_WEIGHT_ROWS`` from its low end:
    the block with the mode first, then those above it upward and those
    below it downward.  Each log-weight is the running sum of the log-ratios
    log w(j + 1) - log w(j) = log((steps - j) / (j + 1)) + log(q / (1 - q)),
    taken outward from the mode, so the sum is small wherever the weight is
    not; each block carries it on from the last, one addition at a time.
    """
    lo, mode, hi = window
    rows = _WEIGHT_ROWS
    # at q = 1 the window is one move count, and no ratio is taken
    log_odds = math.log(q) - math.log1p(-q) if q < 1.0 else 0.0

    def log_ratios(first: int, last: int) -> np.ndarray:
        """log w(j + 1) - log w(j) for j = first .. last - 1."""
        ratio = np.arange(first + 1.0, last + 1.0)  # j + 1
        np.divide(steps + 1.0 - ratio, ratio, out=ratio)
        np.log(ratio, out=ratio)
        ratio += log_odds
        return ratio

    first = lo + (mode - lo) // rows * rows
    ratio = log_ratios(first, min(first + rows, hi + 1) - 1)
    below = ratio[: mode - first]
    np.negative(below, out=below)
    logw = np.concatenate((np.cumsum(below[::-1])[::-1], [0.0], np.cumsum(ratio[mode - first :])))
    low, high = logw[0], logw[-1]
    yield first, np.exp(logw, out=logw)
    for start in range(first + rows, hi + 1, rows):
        logw = log_ratios(start - 1, min(start + rows, hi + 1) - 1)
        logw[0] += high
        np.cumsum(logw, out=logw)
        high = logw[-1]
        yield start, np.exp(logw, out=logw)
    for start in range(first - rows, lo - 1, -rows):
        logw = log_ratios(start, start + rows)
        np.negative(logw, out=logw)
        logw[-1] += low
        np.cumsum(logw[::-1], out=logw[::-1])
        low = logw[0]
        yield start, np.exp(logw, out=logw)


def _capped_sum(scale: float, rounds: int) -> float:
    """An upper bound, in closed form, on the sum over b < ``rounds`` of
    min(1, scale / sqrt(_BLOCK b - 1)), its b = 0 term 1.

    The terms are 1 up to b = floor((scale^2 + 1) / _BLOCK).  Past them they
    decrease, so their sum from the first one below 1, at b = a, is at most
    the term at a plus the integral of scale / sqrt(_BLOCK x - 1) from a to
    rounds - 1, which is 2 scale sqrt(_BLOCK x - 1) / _BLOCK.
    """
    ones = min(rounds, math.floor((scale * scale + 1.0) / _BLOCK) + 1)
    if ones >= rounds:
        return float(rounds)
    first = math.sqrt(_BLOCK * ones - 1.0)
    last = math.sqrt(_BLOCK * (rounds - 1.0) - 1.0)
    return ones + scale * (1.0 / first + 2.0 * (last - first) / _BLOCK)


def _sampling_ns(params: WalkParams, t_cap: int, replicas: int) -> int:
    """The estimated nanoseconds of :func:`hitting_time_samples`.

    A replica still running after b rounds has made _BLOCK b jumps without
    a hit, and the walk from 0 sits in (-m, m] after j jumps with
    probability at most m C(j, j // 2) / 2^j <= m sqrt(2 / (pi (j - 1))).
    Past B = ceil(hi / _BLOCK) rounds, hi the top of
    :func:`_bernstein_window` (t_cap, q), a replica has made more jumps
    than t_cap steps hold, but with probability at most 2^-64.  So the
    expected rounds are at most the sum over b < B of
    min(1, replicas m sqrt(2 / (pi (_BLOCK b - 1)))), and the expected
    replica-rounds replicas times that sum without the factor replicas;
    :func:`_capped_sum` gives both.
    """
    rounds = -(-_bernstein_window(t_cap, params.q)[2] // _BLOCK)
    per_replica = params.start * math.sqrt(2.0 / math.pi)
    estimate = _ROUND_NS * _capped_sum(replicas * per_replica, rounds)
    estimate += _REPLICA_ROUND_NS * replicas * _capped_sum(per_replica, rounds)
    return math.ceil(estimate)


def _central_table(size: int) -> np.ndarray:
    """C(M, M // 2) / 2^M for M < size, each an exact integer quotient,
    correctly rounded."""
    terms, comb = [], 1
    for moves in range(size):
        terms.append(comb / (1 << moves))
        comb = comb * (moves + 1) // (moves // 2 + 1) if moves % 2 == 0 else 2 * comb
    return np.array(terms)


_CENTRAL = _central_table(1024)


def _central(moves: np.ndarray) -> np.ndarray:
    """C(M, M // 2) / 2^M elementwise, to about an ulp.

    From the table below 1024; above, from the asymptotic series of
    Gamma(h + 1/2) / Gamma(h + 1) with h = M // 2, whose first omitted
    term is below 1e-27 there:
    C(2h, h) / 4^h = exp(-1/(8h) + 1/(192h^3) - 1/(640h^5) + 17/(14336h^7)) / sqrt(pi h),
    and C(2h + 1, h) / 2^(2h + 1) is that times (2h + 1) / (2h + 2).
    """
    if moves[-1] < _CENTRAL.size:
        return _CENTRAL[moves]
    central = np.empty(moves.size)
    small = moves < _CENTRAL.size
    central[small] = _CENTRAL[moves[small]]
    large = moves[~small]
    half = large // 2
    x = 1.0 / half
    x2 = x * x
    series = x * (-1.0 / 8.0 + x2 * (1.0 / 192.0 + x2 * (-1.0 / 640.0 + x2 * (17.0 / 14336.0))))
    value = np.exp(series) / np.sqrt(np.pi * half)
    odd = large % 2 == 1
    value[odd] *= large[odd] / (large[odd] + 1.0)
    central[~small] = value
    return central


def survival_exact(m: int, steps: int, q: float) -> float:
    """P[walk from m stays positive for ``steps`` steps], by reflection.

    The free walk from 0 makes M ~ Bin(steps, q) moves and then sits at
    2 Bin(M, 1/2) - M; the result is its mass inside [-m+1, m], summed
    over the Bernstein window of move counts of :func:`_bernstein_window`,
    which moves it by at most 2^-64.  For each M the window mass is the
    central term C(M, h) / 2^M, h = M // 2, times the sum of
    C(M, h + j) / C(M, h) over the offsets j the window holds, each a
    running product of C(M, b + 1) / C(M, b) = (M - b) / (b + 1).  The
    weights go a block of 2^16 at a time, so the cost is
    O(m sqrt(steps q)) and the memory O(m + 2^16).  By Hoeffding's
    inequality the window misses at most 2 exp(-m^2 / (2 M)) of
    Bin(M, 1/2), so m^2 > 112 log(2) M for the largest M of the Bernstein
    window makes every miss less than 2^-55, and gives 1 at once.  Otherwise
    a sum estimated beyond the cap (see ``_MOVE_NS``) raises ValueError
    before anything is allocated.
    """
    _validate(m, steps, q)
    window = _bernstein_window(steps, q)
    if m * m > 112.0 * math.log(2.0) * window[2]:
        # every window misses less than 2^-55 of its mass: 1 - 2^-55 rounds to 1
        return 1.0
    width = (m + 1) // 2
    estimate = (window[2] - window[0] + 1) * (_MOVE_NS + _ENTRY_NS * width)
    what = f"the exact survival with m={m}, steps={steps} and q={q}"
    _refuse_stepping(estimate, what, ValueError, "summing")
    offsets = np.arange(1, width + 1)
    rows = max(16, _SPREAD_ENTRIES // width)
    total = mass = 0.0
    for first, weights in _binomial_weights(steps, q, window):
        end = first + weights.size
        for start in range(first, end, rows):
            stop = min(start + rows, end)
            moves = np.arange(start, stop)
            half = moves >> 1
            # C(M, h + j) / C(M, h) for j = 1..width, 0 past h + j = M
            terms = np.subtract.outer(moves - half + 1, offsets) / np.add.outer(half, offsets)
            np.cumprod(terms, axis=1, out=terms)
            # C(M, h + j) / 2^M is the mass at x = 2j - M % 2 and at -x.  Both
            # lie in [-m+1, m] for j < width; at j = width, x = m + 1 - M % 2
            # when m is odd, and x = m - M % 2 when m is even, so the window
            # drops one copy if m is odd and one more if M is even.  Offset 0
            # is x = 0 at even M; at odd M it is the mirror of offset 1.
            last = terms[:, -1]
            inside = terms.sum(axis=1)
            inside *= 2.0
            if m % 2:
                inside -= last
            even = slice(start % 2, None, 2)
            inside[even] += 1.0 - last[even]
            inside *= _central(moves)
            total += weights[start - first : stop - first] @ inside
        mass += weights.sum()
    return float(total / mass)


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


def _geometric_from_uniform(
    u: np.ndarray, log1m_q: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse-CDF geometric on {0, 1, ...}: floor(log(1-u)/log(1-q)).

    The failures before the first success, whose wait is this plus one:
    the steps held before a jump of the merge sampler, and a collector
    wait less one.  Monotone in the success probability for a fixed
    uniform: a smaller q (flatter log) gives a pathwise larger value,
    which is what makes the shared-uniform clock comparison work.  q = 1
    (log1m_q = -inf) gives 0.  A tiny q can give values past int64: they
    saturate at 2**62, which ends any merge replica with t_cap below 2**62
    as late and keeps a clock plus a hold inside int64; smaller values
    keep their bits.  The quotient is nonnegative, so the int64 cast
    truncates it as floor would.  The float work runs in ``out`` (which
    may be ``u`` itself) or in a new array.
    """
    held = np.negative(u, out=out)
    np.log1p(held, out=held)
    held /= log1m_q
    return np.minimum(held, _HOLD_SATURATION, out=held).astype(np.int64)


def _check_batch(t_cap: int, replicas: int) -> None:
    """Reject a time cap outside [0, 2**62), so that the sentinel t_cap + 1
    and a clock plus a saturated hold fit int64, or an empty replica batch."""
    if not 0 <= t_cap < 2**62:
        raise ValueError(f"t_cap must lie in [0, 2**62), got {t_cap}")
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
    any later hit is later still.  Each jump takes at least one step, so
    a start beyond t_cap returns the sentinels without a draw.  Returns
    (times, hit).  Raises ValueError when q is too small for numpy's
    negative-binomial sampler (below about 1e-17), or, before any draw,
    when the run is estimated beyond the cap of 300 s (see
    :func:`_sampling_ns`).
    """
    _check_batch(t_cap, replicas)
    times = np.full(replicas, t_cap + 1, dtype=np.int64)
    hit = np.zeros(replicas, dtype=bool)
    if params.start > t_cap:
        return times, hit
    what = f"the hitting sampler with m={params.start}, q={params.q}, t_cap={t_cap}"
    what += f" and replicas={replicas}"
    _refuse_stepping(_sampling_ns(params, t_cap, replicas), what, ValueError, "sampling")
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
    steps ~ beta * s^2/q as the scale s grows.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return math.erf(alpha / math.sqrt(2.0 * beta))
