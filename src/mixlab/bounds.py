"""Collector-style lower bounds on the distance to stationarity.

Started from the packed configuration, a particle on the block {1..k}
moves only when one of the n^2 ordered site pairs touches its site, so
the set of *selected* block sites grows exactly like a coupon collection:
while ``j`` of the k block sites are still unselected, each single site
draw hits a fresh one with probability j/n.  Two site draws happen per
chain step, so the chain needs ceil(tau'/2) steps to select what tau'
single draws select.  Stopping K short of all k, tau' is the (k - K)-th
smallest of the block sites' first-hit times, counted in draws.

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


def single_draw_collection_samples(
    spec: CollectorSpec,
    replicas: int,
    rng: np.random.Generator,
    block: int = 256,
) -> np.ndarray:
    """Sample tau' by running the raw draw process itself.

    Draws uniform sites in blocks of ``block`` per replica and keeps, per
    replica and block site, the index of the draw that first hit it
    (int32 max while unhit).  Each hit that holds its site's first-hit
    index selects the site; once k - residual sites are selected, tau' is
    one more than the (k - residual)-th smallest first-hit index.  The
    indices are int32, so tau' must stay below 2^31 draws: a run whose
    next block would pass 2^31 - 1 draws raises ``RuntimeError`` first.
    """
    if replicas < 1 or block < 1:
        raise ValueError(f"replicas and block must be positive, got {replicas} and {block}")
    n, k = spec.n, spec.k
    need = k - spec.residual
    unhit = np.iinfo(np.int32).max
    tau = np.zeros(replicas, dtype=np.int64)
    gid = np.arange(replicas)
    first = np.full((replicas, k), unhit, dtype=np.int32)
    count = np.zeros(replicas, dtype=np.int64)
    drawn = 0
    while gid.size:
        if drawn + block > unhit:
            raise RuntimeError(f"draw index {drawn + block} would pass the int32 range")
        draws = rng.integers(0, n, size=(gid.size, block))
        hits = np.flatnonzero(draws < k)
        row, col = np.divmod(hits, block)
        key = row * k + draws.ravel()[hits]
        index = (drawn + col).astype(np.int32)
        flat = first.reshape(-1)  # a view: ``first`` is contiguous
        np.minimum.at(flat, key, index)
        count += np.bincount(row[flat[key] == index], minlength=gid.size)
        del draws, hits, row, col, key, index  # freed before the next block is drawn
        done = count >= need
        if done.any():
            tau[gid[done]] = 1 + np.partition(first[done], need - 1, axis=1)[:, need - 1]
            gid, first, count = gid[~done], first[~done], count[~done]
        drawn += block
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
