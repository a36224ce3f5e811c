"""Collector-style lower bounds on the distance to stationarity.

Started from the packed configuration, a particle on the block {1..k}
moves only when one of the n^2 ordered site pairs touches its site, so
the set of *selected* block sites grows exactly like a coupon collection:
while ``j`` of the k block sites are still unselected, each single site
draw hits a fresh one with probability j/n.  Two site draws happen per
chain step, so the chain needs ceil(tau'/2) steps to select what tau'
single draws select.

Until all but K block sites are selected, at least K + 1 particles (or,
unlabeled, at least one) still sit exactly where they started, an event
that is very unlikely in equilibrium.  Subtracting the exact stationary
probability of that event from the survival probability of the
collection time turns the tail into a certified lower bound on total
variation, either simulated (with its standard error) or bounded in
closed form through Chebyshev's inequality.  One body serves both
bounds; its tail estimate is :func:`mixlab.walk.tail_estimate`, which
the coupling and hitting estimates use too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exclusion import ModelParams
from .lumped import equilibrium
from .walk import tail_estimate


@dataclass(frozen=True)
class CollectorSpec:
    """Collect k coupons out of n site draws, stopping K short of all."""

    n: int
    k: int
    residual: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.residual < self.k <= self.n:
            raise ValueError(
                f"need 0 <= residual < k <= n, got residual={self.residual}, k={self.k}, n={self.n}"
            )


def collector_moments(spec: CollectorSpec) -> tuple[float, float]:
    """Exact mean and variance of the single-draw collection time tau'.

    tau' is a sum of independent geometrics with success probabilities
    j/n for j = residual+1, ..., k (counting unselected block sites).
    """
    j = np.arange(spec.residual + 1, spec.k + 1, dtype=float)
    p = j / float(spec.n)
    mean = float((1.0 / p).sum())
    variance = float(((1.0 - p) / (p * p)).sum())
    return mean, variance


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` that differ from their predecessor."""
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def single_draw_collection_samples(
    spec: CollectorSpec,
    replicas: int,
    rng: np.random.Generator,
    block: int = 256,
) -> np.ndarray:
    """Sample tau' by running the raw draw process itself.

    Draws uniform sites in blocks of ``block`` per replica.  The block's
    block-site hits are deduplicated per replica by sorting their
    ``row * k + site`` keys and keeping each key where it differs from
    its predecessor; the keys not already seen count as the replica's
    gain.  Only the replicas whose target count is crossed inside the
    block are searched for the exact crossing draw, all at once: a
    stable sort of the same keys marks each hit that is the first
    occurrence of its site in the row, hits on sites seen before the
    block are masked out, and the first column where the running sum of
    the rest plus the replica's count reaches the target is the
    crossing draw.  The cost per draw stays vectorized and the recorded
    draw is exact.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    n, k = spec.n, spec.k
    need = k - spec.residual
    tau = np.zeros(replicas, dtype=np.int64)
    gid = np.arange(replicas)
    seen = np.zeros((replicas, k), dtype=bool)
    count = np.zeros(replicas, dtype=np.int64)
    drawn = 0
    while gid.size:
        active = gid.size
        draws = rng.integers(0, n, size=(active, block))
        hits = np.flatnonzero(draws < k)
        # one entry per distinct (replica, site) pair in this block
        uniq = hits // block * k + draws.ravel()[hits]
        uniq.sort()
        uniq = uniq[_run_starts(uniq)]
        urow, usite = np.divmod(uniq, k)
        fresh = ~seen[gid[urow], usite]
        gain = np.bincount(urow[fresh], minlength=active)
        crossed = count + gain >= need
        if crossed.any():
            rows = np.nonzero(crossed)[0]
            row_draws = draws[rows]
            r, c = np.nonzero(row_draws < k)
            key = r * k + row_draws[r, c]
            order = np.argsort(key, kind="stable")
            first = order[_run_starts(key[order])]
            r, c = r[first], c[first]
            new = ~seen[gid[rows[r]], row_draws[r, c]]
            counted = np.zeros(row_draws.shape, dtype=np.int64)
            counted[r[new], c[new]] = 1
            total = np.cumsum(counted, axis=1) + count[rows, None]
            tau[gid[rows]] = drawn + np.argmax(total >= need, axis=1) + 1
        alive = ~crossed
        rows_alive = alive[urow] & fresh
        seen[gid[urow[rows_alive]], usite[rows_alive]] = True
        count += gain
        drawn += block
        gid = gid[alive]
        count = count[alive]
    return tau


@dataclass(frozen=True)
class TvLowerBound:
    """A certified lower bound on distance to stationarity at one time.

    ``value`` is the simulated bound max(0, survival - correction) with
    the binomial standard error of the survival estimate; ``chebyshev``
    replaces the simulated survival with its closed-form Chebyshev lower
    bound, giving a fully deterministic (if weaker) certificate.
    """

    t: int
    survival: float
    stderr: float
    correction: float
    value: float
    chebyshev: float


def _chebyshev_survival(spec: CollectorSpec, t: int) -> float:
    """Closed-form lower bound on P[collection needs more than t steps]."""
    mean, variance = collector_moments(spec)
    draws = 2.0 * t
    if draws >= mean:
        return 0.0
    shortfall = mean - draws
    return max(0.0, 1.0 - variance / (shortfall * shortfall))


def _lower_bound(
    spec: CollectorSpec, t: int, correction: float, replicas: int, rng: np.random.Generator
) -> TvLowerBound:
    """max(0, P[collection needs more than t chain steps] - correction).

    Two draws per chain step: before ceil((k - residual)/2) steps the
    survival is exactly 1, and nothing is sampled.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t < (spec.k - spec.residual + 1) // 2:
        survival, stderr = 1.0, 0.0
    else:
        steps = (single_draw_collection_samples(spec, replicas, rng) + 1) // 2
        survival, stderr = tail_estimate(steps, t)
    value = max(0.0, survival - correction)
    chebyshev = max(0.0, _chebyshev_survival(spec, t) - correction)
    return TvLowerBound(t, survival, stderr, correction, value, chebyshev)


def unlabeled_tv_lower_bound(
    params: ModelParams,
    t: int,
    *,
    replicas: int,
    rng: np.random.Generator,
) -> TvLowerBound:
    """Lower bound on d(t) from the event "some particle never selected".

    While the collection of all k block sites is unfinished, the block
    holds at least one particle, so W_t >= 1; under the stationary law
    that event has probability exactly 1 - pi(0) with hypergeometric pi.
    Hence d(t) >= P[collection time > t] - (1 - pi(0)).
    """
    correction = 1.0 - float(equilibrium(params)[0])
    return _lower_bound(CollectorSpec(params.n, params.k, 0), t, correction, replicas, rng)


def labeled_tv_lower_bound(
    params: ModelParams,
    t: int,
    threshold: int,
    *,
    replicas: int,
    rng: np.random.Generator,
) -> TvLowerBound:
    """Lower bound on labeled-chain distance via unmoved labeled particles.

    While more than ``threshold`` block sites are unselected, more than
    ``threshold`` labels still sit on their initial sites; a uniform
    random labeled configuration has that many self-matches with
    probability at most 1/threshold (Markov: the expected number of
    self-matches among any set of slots is at most 1).  Hence the labeled
    distance is at least P[collection with residual=threshold > t] -
    1/threshold.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if threshold >= params.k:
        raise ValueError(f"threshold must be below k={params.k}, got {threshold}")
    spec = CollectorSpec(params.n, params.k, threshold)
    return _lower_bound(spec, t, 1.0 / threshold, replicas, rng)
