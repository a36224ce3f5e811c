"""Collector-style lower bounds on the distance to stationarity.

Started from the packed configuration, a particle on the block {1..k}
moves only when one of the n^2 ordered site pairs touches its site, so
the set of *selected* block sites grows exactly like a coupon collection:
while ``j`` of the k block sites are still unselected, each single site
draw hits a fresh one with probability j/n.  Two site draws happen per
chain step, so the chain needs ceil(tau'/2) steps to select what tau'
single draws select.  Stopping K short of all k, tau' is therefore the
sum of independent geometric waits with success probabilities j/n for
j = K+1, ..., k.

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
from .walk import _geometric_from_uniform, tail_estimate

#: A bounds report draws at most this many geometric waits in all: about
#: 300 s, lumped's stepping cap, at the worst of 5.4 to 8.4 ns a wait took
#: on a 2-core Xeon (best and worst of 3 at (n, k) = (10^4, 100) with 2500
#: and 10^5 replicas, (1000, 200) with 5000 and (10^6, 5*10^4) with 200).
_DRAW_CAP = 35 * 10**9


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
    block: int = 16,
) -> np.ndarray:
    """Sample tau' as its sum of independent geometric waits (int64).

    The wait for the next fresh block site while j are unselected is
    Geom(j/n) on {1, 2, ...}, for j = residual+1, ..., k.  Each round
    fills a buffer made once per call with a row of one uniform per
    replica for each of ``block`` stages, and turns the rows into waits
    by inverse CDF in place, so the temporaries hold at most replicas x
    block waits.
    """
    if replicas < 1 or block < 1:
        raise ValueError(f"replicas and block must be positive, got {replicas} and {block}")
    with np.errstate(divide="ignore"):
        log1m_p = np.log1p(-np.arange(spec.residual + 1, spec.k + 1) / spec.n)  # -inf at j == n
    # each wait is its failures plus one
    tau = np.full(replicas, log1m_p.size, dtype=np.int64)
    work = np.empty(replicas * min(block, log1m_p.size))
    for start in range(0, log1m_p.size, block):
        stages = log1m_p[start : start + block]
        u = rng.random(out=work[: stages.size * replicas].reshape(stages.size, replicas))
        tau += _geometric_from_uniform(u, stages[:, np.newaxis], out=u).sum(axis=0)
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


def _waits(spec: CollectorSpec, t: int) -> int:
    """Geometric waits one replica of the bound at t draws: k - residual, or
    none before ceil((k - residual)/2) steps, where two draws per step leave
    the survival exactly 1."""
    stages = spec.k - spec.residual
    return stages if t >= (stages + 1) // 2 else 0


def refuse_draws(params: ModelParams, t_values, threshold: int, replicas: int) -> None:
    """Raise ValueError, before any draw, when the unlabeled and labeled
    bounds at each t of ``t_values`` would draw more than ``_DRAW_CAP``
    geometric waits in all."""
    specs = (CollectorSpec(params.n, params.k, 0), CollectorSpec(params.n, params.k, threshold))
    waits = replicas * sum(_waits(spec, t) for spec in specs for t in t_values)
    if waits > _DRAW_CAP:
        raise ValueError(
            f"the collector bounds with replicas={replicas} would draw {waits} geometric waits, "
            f"beyond the cap of {_DRAW_CAP}"
        )


def _lower_bound(
    spec: CollectorSpec, t: int, correction: float, replicas: int, rng: np.random.Generator
) -> TvLowerBound:
    """max(0, P[collection needs more than t chain steps] - correction).

    Where the bound draws no waits (see :func:`_waits`) the survival is
    exactly 1, and nothing is sampled.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not _waits(spec, t):
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
