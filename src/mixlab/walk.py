"""Lazy simple random walk killed at zero, via the reflection principle.

The walk moves +1 or -1 with probability q/2 each and holds with
probability 1 - q.  Starting from m >= 1, the survival probability
P[no visit to 0 during the first ``steps`` steps] equals the probability
that the same walk started at 0 and run *without* killing sits inside
the window [-m+1, m] at time ``steps``: reflecting a killed path at its
first zero visit pairs it with a free path that exits the window, and
the lazy steps make the correspondence exact at every finite time.

The survival is an exact binomial mixture, over the number of moves M,
of P[tau_m > M] for tau_m the fair moves that reach 0 from m, from ratio
recurrences in numpy alone: the move-count weights outward from their
mode, and below one window mass per block of them the first-passage law
P[tau_m = j] = (m / j) C(j, (j + m) / 2) / 2^j.  Two tail bounds cut the
sums in closed form.  Bernstein's inequality for Bin(steps, q) gives the
window of move counts outside which at most 2^-64 of the mass lies, and
Hoeffding's for Bin(M, 1/2) gives the start m from which every window
[-m+1, m] misses less than 2^-55 of its mass, so that the survival
rounds to 1 without a sum.  An independent absorbing-boundary dynamic
program over the positive half-line provides the cross-check, and a
Gaussian evaluator covers the diffusive limit where m ~ alpha * s and
steps ~ beta * s^2 / q.

Simulation goes through the jump chain: a fair +1/-1 move per jump and
a geometric holding time before it.  The hitting sampler draws the
number of jumps to reach 0 from its first-passage law, as a sum of
independent excursions, and all their holds as one negative-binomial
draw; the coupled pair of :mod:`mixlab.coupling` is run one jump per
round.  The inverse-CDF geometric here turns uniforms into the
excursions' lengths, the pair's holds and the waits of
:mod:`mixlab.bounds`.
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

#: Move counts per block of the weights of :func:`survival_exact`, and
#: offsets per block of the ratio products of :func:`_anchor`: 512 KiB,
#: so that a window of at most that many is summed as one array.
_WEIGHT_ROWS = 1 << 16

#: :func:`survival_exact` is estimated at _MOVE_NS per move count of its
#: window plus _OFFSET_NS per offset of each block's :func:`_anchor`
#: ((m + 1) // 2 of them), and refused beyond lumped's stepping cap of
#: 300 s: an upper envelope of 21-40 ns per move count (m from 1 to 10^4,
#: 3*10^5 and 3*10^6 move counts at q 0.5) and 6-16 ns per offset (m from
#: 10^5 to 10^7 at q 1), best and worst of 3 on a 2-core Xeon.
_MOVE_NS = 50
_OFFSET_NS = 20

#: Cap on the float hold of :func:`_geometric_from_uniform` before its
#: int64 cast.
_HOLD_SATURATION = 2.0**62

#: :func:`hitting_time_samples` is estimated at _EXCURSION_NS per replica
#: and excursion plus _PASS_NS per pass over the batch (one excursion of
#: each replica), and refused beyond lumped's stepping cap of 300 s: an
#: upper envelope of 22-38 ns per replica and excursion (m from 20 to 1000,
#: 1000 to 10^6 replicas) and 12 us per pass (one replica), best and worst
#: of 3 on a 2-core Xeon.  The holds' draw, 70-190 ns per replica, is left
#: out: it would pass the cap only beyond 10^9 replicas.
_EXCURSION_NS = 40
_PASS_NS = 15_000

#: numpy's Poisson sampler takes means up to about 2^63 - 3e10 only.  A
#: mean above this cap is more than 2^62 - 2^36 beyond any t_cap, so its
#: Poisson is at most t_cap with chance below exp(-2^59), and the hitting
#: sampler leaves the replica unhit without the draw.
_POISSON_MEAN_CAP = 2.0**63 - 2.0**36


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
    if not 0 <= steps < 2**62:
        raise ValueError(f"steps must lie in [0, 2**62), got {steps}")


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


def _central(moves: int) -> float:
    """C(M, M // 2) / 2^M, to about an ulp.

    Below 1024 the exact integer quotient, correctly rounded; above, the
    asymptotic series of Gamma(h + 1/2) / Gamma(h + 1) with h = M // 2,
    whose first omitted term is below 1e-27 there:
    C(2h, h) / 4^h = exp(-1/(8h) + 1/(192h^3) - 1/(640h^5) + 17/(14336h^7)) / sqrt(pi h),
    and C(2h + 1, h) / 2^(2h + 1) is that times (2h + 1) / (2h + 2).
    """
    if moves < 1024:
        return math.comb(moves, moves // 2) / (1 << moves)
    half = moves // 2
    x = 1.0 / half
    x2 = x * x
    series = x * (-1.0 / 8.0 + x2 * (1.0 / 192.0 + x2 * (-1.0 / 640.0 + x2 * (17.0 / 14336.0))))
    value = math.exp(series) / math.sqrt(math.pi * half)
    return value * (moves / (moves + 1.0)) if moves % 2 else value


def _anchor(moves: int, m: int) -> tuple[float, float]:
    """(P[tau_m > A], P[tau_m = A]) for A = ``moves`` >= m of m's parity.

    By reflection, the free walk's mass inside [-m+1, m] after A fair
    moves, and m / A times its mass at m.  The mass at x = 2j - A % 2 and
    at -x is C(A, h + j) / 2^A, h = A // 2: the central term times running
    products of (A - b) / (b + 1) over b = h..h + j - 1, for j up to
    (m + 1) // 2, taken ``_WEIGHT_ROWS`` at a time so that memory stays bounded.
    """
    half, width = moves // 2, (m + 1) // 2
    inside, last = 0.0, 1.0
    for start in range(1, width + 1, _WEIGHT_ROWS):
        offsets = np.arange(start, min(start + _WEIGHT_ROWS, width + 1))
        # C(A, h + j) / C(A, h), 0 past h + j = A
        terms = (moves - half + 1 - offsets) / (half + offsets)
        terms[0] *= last
        np.multiply.accumulate(terms, out=terms)
        inside += terms.sum()
        last = terms[-1]
    # offsets 1..w at x and -x, less x = -m, and offset 0 at x = 0 for even
    # A; at odd A offset 0 is x = -1, the mirror of offset 1
    inside = 2.0 * inside - last + (1 - moves % 2)
    central = _central(moves)
    return central * inside, m / moves * central * last


def survival_exact(m: int, steps: int, q: float) -> float:
    """P[walk from m stays positive for ``steps`` steps], by reflection.

    The sum of P[tau_m > M], tau_m the fair moves that reach 0 from m, over
    the M ~ Bin(steps, q) moves of the window of :func:`_bernstein_window`,
    which moves it by at most 2^-64, with the weights a block of 2^16 at a
    time.  :func:`_anchor` gives P[tau_m > A] and h_A = P[tau_m = A] at the
    block's last A of m's parity; below, h_(j-2) = h_j (j + m)(j - m) /
    ((j - 1)(j - 2)), and P[tau_m > M] is P[tau_m > A] plus the h_j with
    M < j <= A: positive terms, so nothing cancels.  The cost is
    O(sqrt(steps q) + m) per block, the memory O(2^16).  By Hoeffding's
    inequality the window misses at most 2 exp(-m^2 / (2 M)) of
    Bin(M, 1/2), so m^2 > 112 log(2) M for the largest M of the Bernstein
    window makes every miss less than 2^-55, and gives 1 at once.
    Otherwise a sum estimated beyond the cap (see ``_MOVE_NS``) raises
    ValueError before anything is allocated.
    """
    _validate(m, steps, q)
    window = _bernstein_window(steps, q)
    lo, _, hi = window
    if m * m > 112.0 * math.log(2.0) * hi:
        # every window misses less than 2^-55 of its mass: 1 - 2^-55 rounds to 1
        return 1.0
    blocks = (hi - lo) // _WEIGHT_ROWS + 1
    estimate = (hi - lo + 1) * _MOVE_NS + blocks * ((m + 1) // 2) * _OFFSET_NS
    what = f"the exact survival with m={m}, steps={steps} and q={q}"
    _refuse_stepping(estimate, what, ValueError, "summing")
    total = mass = 0.0
    for first, weights in _binomial_weights(steps, q, window):
        mass += weights.sum()
        top = first + weights.size - 1
        anchor = int(top - (top - m) % 2)
        if anchor < m:  # fewer than m moves never reach 0 from m
            total += weights.sum()
            continue
        inside, hit = _anchor(anchor, m)
        # above[c] is P[tau_m > anchor] plus h_j over the c largest j of m's
        # parity in first < j <= anchor; P[tau_m > M] is above[(anchor + 1 - M) // 2]
        j = np.arange(anchor, first + 2, -2, dtype=float)  # the j with j - 2 > first
        above = np.zeros(j.size + 2)
        above[1] = hit
        above[2:] = (j + m) * (j - m) / ((j - 1.0) * (j - 2.0))
        np.multiply.accumulate(above[1:], out=above[1:])
        np.add.accumulate(above, out=above)  # the h_j alone: each sum rounds at their scale
        above += inside
        # a pairwise sum of the products, not a dot, which may thread
        total += (weights * above[np.arange(anchor + 1 - first, anchor - top, -1) >> 1]).sum()
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
    the steps held before a jump of the merge sampler, the N = (tau_1 - 1) / 2
    of an excursion of the hitting sampler, and a collector wait less one.
    Monotone in the success probability for a fixed uniform: a smaller q
    (flatter log) gives a pathwise larger value, which is what makes the
    shared-uniform clock comparison work.  q = 1 (log1m_q = -inf) gives
    0.  A tiny q can give values past int64: they saturate at 2**62, which
    ends any merge replica with t_cap below 2**62 as late and keeps a
    clock plus a hold inside int64; smaller values keep their bits.  The quotient is nonnegative, so the int64 cast
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
    The jumps to reach 0 from m are tau_m, the sum of m iid excursion
    lengths tau_1 = 2N + 1, with P[N >= n] = C(2n, n) / 4^n (Feller vol. 1,
    ch. III).  That is E[X^n] for X ~ Beta(1/2, 1/2), so N given X is
    Geom(1 - X) on {0, 1, ...}: each excursion takes 1 - X = sin^2(pi U / 2)
    and log X = log1p(-(1 - X)), so that a long excursion (X near 1) keeps
    its relative precision, and N by inverse CDF.  The sum of the N is
    kept exactly in int64 and saturated where tau_m passes t_cap.  The
    holds beyond one per jump are NB(tau_m, q), drawn as
    Poisson(Gamma(tau_m, (1 - q) / q)).  A gamma above 2 t_cap + 1024 leaves
    the replica unhit without a Poisson draw: such a Poisson is at most
    t_cap with chance below exp(-(1 - log 2) / 2 * 1024) < e^-128.  A time
    beyond t_cap leaves the sentinel t_cap + 1.  Each jump takes at least
    one step, so a start beyond t_cap returns the sentinels without a draw.
    Memory is a few arrays of ``replicas`` entries.  Returns (times, hit).
    Raises ValueError, before anything is allocated, when the run is
    estimated beyond the cap of 300 s (see ``_EXCURSION_NS``).
    """
    _check_batch(t_cap, replicas)
    m, q = params.start, params.q
    what = f"the hitting sampler with m={m}, q={q}, t_cap={t_cap} and replicas={replicas}"
    passes = min(m, t_cap + 1)
    _refuse_stepping(passes * (_PASS_NS + replicas * _EXCURSION_NS), what, ValueError, "sampling")
    times = np.full(replicas, t_cap + 1, dtype=np.int64)
    hit = np.zeros(replicas, dtype=bool)
    if m > t_cap:
        return times, hit
    # tau_m = m + 2 S for S the sum of the N, and S >= cap means tau_m > t_cap;
    # S < cap <= 2^61 and N <= 2^62 before the saturation, so S + N fits int64
    cap = (t_cap - m) // 2 + 1
    half = np.zeros(replicas, dtype=np.int64)
    uniforms = np.empty((2, replicas))
    log_x, wait = uniforms
    # U in (0, 1], so that 1 - X > 0 and the quotient is never 0 / 0; at
    # U = 1, X rounds to 0 and log X = -inf gives N = 0
    with np.errstate(divide="ignore"):
        for _ in range(m):
            rng.random(out=uniforms)
            np.subtract(1.0, log_x, out=log_x)
            log_x *= np.pi / 2.0
            np.sin(log_x, out=log_x)
            np.square(log_x, out=log_x)
            np.negative(log_x, out=log_x)
            np.log1p(log_x, out=log_x)
            half += _geometric_from_uniform(wait, log_x, out=wait)
            np.minimum(half, cap, out=half)
    ran = np.flatnonzero(half < cap)
    jumps = 2 * half[ran] + m
    # q = 1 gives scale 0 and no holds; a tiny q can give inf: the replica is unhit
    mean = rng.standard_gamma(jumps.astype(np.float64))
    with np.errstate(over="ignore"):
        mean *= (1.0 - q) / q
    drawn = np.flatnonzero(mean <= min(2.0 * t_cap + 1024.0, _POISSON_MEAN_CAP))
    ran, jumps = ran[drawn], jumps[drawn]
    holds = rng.poisson(mean[drawn])
    ended = holds <= t_cap - jumps
    times[ran[ended]] = jumps[ended] + holds[ended]
    hit[ran[ended]] = True
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
