"""Coupon-collection samplers and the certified lower bounds they feed."""

import math

import numpy as np
import pytest
from scipy import stats

from mixlab import LABELED, ModelParams, bounds, replica_stream
from mixlab.bounds import (
    CollectorSpec,
    collector_moments,
    labeled_tv_lower_bound,
    refuse_draws,
    single_draw_collection_samples,
    unlabeled_tv_lower_bound,
)
from mixlab.exclusion import brute_force_tv_curve
from mixlab.lumped import d_curve, equilibrium
from reference import collection_time_cdf


def test_collector_moments_frozen():
    mean, var = collector_moments(CollectorSpec(4, 2))
    assert mean == 6.0
    assert var == pytest.approx(14.0, abs=1e-12)
    # straight from the geometric decomposition, recomputed by hand
    assert mean == sum(4.0 / j for j in (1, 2))
    assert var == pytest.approx(sum((1 - j / 4) / (j / 4) ** 2 for j in (1, 2)), abs=1e-12)


def test_collector_spec_validation():
    with pytest.raises(ValueError):
        CollectorSpec(4, 0)
    with pytest.raises(ValueError):
        CollectorSpec(4, 5)
    with pytest.raises(ValueError):
        CollectorSpec(4, 2, 2)
    with pytest.raises(ValueError):
        CollectorSpec(4, 2, -1)
    CollectorSpec(4, 2, 1)


def _sequential_collection_samples(spec, replicas, rng, block):
    """tau' from the raw draw process: uniform sites drawn in blocks of
    ``block`` per replica, scanned one draw at a time."""
    need = spec.k - spec.residual
    tau = np.zeros(replicas, dtype=np.int64)
    seen = [set() for _ in range(replicas)]
    active = list(range(replicas))
    drawn = 0
    while active:
        draws = rng.integers(0, spec.n, size=(len(active), block))
        for replica, row in zip(active, draws):
            for col, site in enumerate(row):
                if site < spec.k and site not in seen[replica]:
                    seen[replica].add(site)
                    if len(seen[replica]) == need:
                        tau[replica] = drawn + col + 1
                        break
        active = [replica for replica in active if tau[replica] == 0]
        drawn += block
    return tau


def _cdf_gap(samples, spec):
    """Largest gap between the empirical and the exact CDF of tau'."""
    exact = collection_time_cdf(spec, int(samples.max()))
    return np.abs(np.cumsum(np.bincount(samples)) / samples.size - exact).max()


def _dkw_bound(replicas):
    """The gap an exact law exceeds with probability at most 0.01 (DKW)."""
    return math.sqrt(math.log(2.0 / 0.01) / (2.0 * replicas))


def test_raw_draws_and_sampler_follow_the_exact_law():
    """The raw draw process, scanned one draw at a time, and the sampler
    both match the pure-death chain's CDF within the DKW bound."""
    for sub, spec in enumerate((CollectorSpec(50, 10), CollectorSpec(50, 10, 3))):
        raw = _sequential_collection_samples(spec, 3000, replica_stream(41, 0, sub), 64)
        fast = single_draw_collection_samples(spec, 20_000, replica_stream(41, 1, sub))
        assert _cdf_gap(raw, spec) < _dkw_bound(raw.size), spec
        assert _cdf_gap(fast, spec) < _dkw_bound(fast.size), spec
        mean, var = collector_moments(spec)
        assert abs(fast.mean() - mean) < 4.0 * math.sqrt(var / fast.size), spec
        assert fast.min() >= spec.k - spec.residual


def test_residual_shortens_collection():
    full = collector_moments(CollectorSpec(50, 10))[0]
    short = collector_moments(CollectorSpec(50, 10, 4))[0]
    assert short < full


def test_chain_steps_halve_the_draw_count():
    """The bound's survival is P[tau' > 2t], two draws per chain step: at
    (8, 4) taking floor(tau'/2) steps instead of ceil moves it by 0.016 to
    0.058 at these t >= 2, and 5 standard errors are at most 0.018."""
    params, replicas = ModelParams(8, 4), 20_000
    rng = replica_stream(41, 2)
    for t in (1, 2, 4, 6, 10):
        exact = 1.0 - collection_time_cdf(CollectorSpec(params.n, params.k), 2 * t)[-1]
        survival = unlabeled_tv_lower_bound(params, t, replicas=replicas, rng=rng).survival
        assert abs(survival - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / replicas), t
    steps = (single_draw_collection_samples(CollectorSpec(30, 6), 10_000, rng) + 1) // 2
    assert steps.min() >= (6 + 1) // 2  # at most two fresh sites per chain step


def test_block_size_does_not_change_the_law():
    spec = CollectorSpec(12, 6)
    a = single_draw_collection_samples(spec, 4000, replica_stream(41, 4), block=3)
    b = single_draw_collection_samples(spec, 4000, replica_stream(41, 5), block=512)
    assert stats.ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize(
    "spec, replicas, block",
    [
        (CollectorSpec(12, 6), 2000, 3),
        (CollectorSpec(12, 6, 2), 2000, 3),
        (CollectorSpec(200, 40), 300, 256),
        (CollectorSpec(200, 40, 5), 300, 256),
        (CollectorSpec(12, 6), 500, 1),
        (CollectorSpec(5, 1), 500, 7),
        (CollectorSpec(30, 6, 5), 500, 2),  # one site needed
        (CollectorSpec(40, 4), 300, 2048),  # every replica ends in the first block
        (CollectorSpec(50, 10, 3), 1000, 7),  # about a hundred replicas end per block
        (CollectorSpec(4, 4), 500, 3),  # the last stage succeeds with probability 1
        (CollectorSpec(4, 4, 2), 500, 3),
    ],
)
def test_sampler_matches_sequential_scan(spec, replicas, block):
    """The geometric waits and the raw draw process have one law."""
    fast = single_draw_collection_samples(spec, replicas, replica_stream(41, 16), block=block)
    slow = _sequential_collection_samples(spec, replicas, replica_stream(41, 17), block)
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


def test_sampler_determinism_and_single_draw():
    spec = CollectorSpec(20, 5)
    a = single_draw_collection_samples(spec, 300, replica_stream(41, 6))
    b = single_draw_collection_samples(spec, 300, replica_stream(41, 6))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64
    assert a.min() >= spec.k - spec.residual
    value = (single_draw_collection_samples(spec, 1, replica_stream(41, 7))[0] + 1) // 2
    assert value >= 3
    # k = n: every stage succeeds at its first draw
    ones = single_draw_collection_samples(CollectorSpec(1, 1), 50, replica_stream(41, 9))
    np.testing.assert_array_equal(ones, np.ones(50, dtype=np.int64))
    with pytest.raises(ValueError):
        single_draw_collection_samples(spec, 0, replica_stream(41, 8))
    with pytest.raises(ValueError):
        single_draw_collection_samples(spec, 1, replica_stream(41, 8), block=0)


def test_unlabeled_bound_fields():
    params = ModelParams(30, 6)
    pi0 = float(equilibrium(params)[0])
    bound = unlabeled_tv_lower_bound(params, 3, replicas=500, rng=replica_stream(41, 10))
    assert bound.t == 3
    assert bound.correction == pytest.approx(1.0 - pi0, abs=1e-15)
    assert 0.0 <= bound.survival <= 1.0
    assert 0.0 <= bound.value <= 1.0
    assert 0.0 <= bound.chebyshev <= 1.0
    with pytest.raises(ValueError):
        unlabeled_tv_lower_bound(params, -1, replicas=10, rng=replica_stream(41, 11))


def test_unlabeled_bound_below_exact_distance():
    """Simulated and Chebyshev certificates both stay under the true curve."""
    params = ModelParams(30, 6)
    curve = d_curve(params, 130).tv
    for t in (1, 5, 15, 40, 120):
        bound = unlabeled_tv_lower_bound(
            params, t, replicas=20_000, rng=replica_stream(41, 100 + t)
        )
        assert bound.value <= curve[t] + 1e-12
        assert bound.chebyshev <= curve[t] + 1e-12


def test_labeled_bound_fields_and_early_out():
    params = ModelParams(100, 20)
    # 5 steps cannot select the 15 needed block sites: survival is exactly 1
    bound = labeled_tv_lower_bound(params, 5, 5, replicas=100, rng=replica_stream(41, 12))
    assert bound.survival == 1.0 and bound.stderr == 0.0
    assert bound.correction == pytest.approx(0.2, abs=1e-15)
    assert bound.value == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        labeled_tv_lower_bound(params, 5, 0, replicas=100, rng=replica_stream(41, 13))
    with pytest.raises(ValueError):
        labeled_tv_lower_bound(params, 5, 20, replicas=100, rng=replica_stream(41, 14))
    with pytest.raises(ValueError):
        labeled_tv_lower_bound(params, -1, 5, replicas=100, rng=replica_stream(41, 15))


def test_labeled_bound_below_brute_force_distance():
    params = ModelParams(6, 3)
    curve = brute_force_tv_curve(params, LABELED, 25)
    for t in (0, 1, 2, 5, 10, 20):
        bound = labeled_tv_lower_bound(
            params, t, 2, replicas=20_000, rng=replica_stream(41, 200 + t)
        )
        assert bound.value <= curve[t] + 1e-12
        assert bound.chebyshev <= curve[t] + 1e-12


def test_chebyshev_certificate_is_conservative():
    """The closed-form survival floor never exceeds the simulated survival."""
    params = ModelParams(200, 40)
    for t in (5, 20, 60):
        bound = unlabeled_tv_lower_bound(
            params, t, replicas=40_000, rng=replica_stream(41, 300 + t)
        )
        cheb_survival = bound.chebyshev + bound.correction if bound.chebyshev > 0 else 0.0
        assert cheb_survival <= bound.survival + 4.0 * max(bound.stderr, 1e-4)


def test_draw_cap_counts_the_waits_the_bounds_draw(monkeypatch):
    """At (40, 12) with threshold 3, each replica draws 12 waits for the
    unlabeled bound from t = 6 and 9 for the labeled one from t = 5, as the
    samplers do; a cap of exactly that many waits passes, one below it raises."""
    params, t_values, replicas = ModelParams(40, 12), [0, 4, 5, 6, 30], 7
    waits = replicas * (9 * 3 + 12 * 2)
    monkeypatch.setattr(bounds, "_DRAW_CAP", waits)
    refuse_draws(params, t_values, 3, replicas)
    monkeypatch.setattr(bounds, "_DRAW_CAP", waits - 1)
    with pytest.raises(ValueError, match=rf"^the collector bounds with replicas=7 would draw "
                                         rf"{waits} geometric waits, beyond the cap of {waits - 1}$"):
        refuse_draws(params, t_values, 3, replicas)
    calls = []
    monkeypatch.setattr(bounds, "single_draw_collection_samples",
                        lambda spec, *args: calls.append(spec.k - spec.residual) or np.zeros(1, int))
    for t in t_values:
        unlabeled_tv_lower_bound(params, t, replicas=replicas, rng=replica_stream(0, 0))
        labeled_tv_lower_bound(params, t, 3, replicas=replicas, rng=replica_stream(0, 0))
    assert replicas * sum(calls) == waits
