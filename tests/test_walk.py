"""Reflection-principle survival and the lazy walk hitting time."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from mixlab import ModelParams, lumped, replica_stream, walk
from mixlab.coupling import build_coupled_kernel, merge_time_samples
from mixlab.walk import (
    WalkParams,
    _geometric_from_uniform,
    gaussian_limit,
    hitting_time_samples,
    survival_bruteforce,
    survival_exact,
    tail_estimate,
)
from reference import (
    _pair_process,
    _side_by_side,
    _walk_process,
    survival_betainc,
    survival_decimal,
)


def test_survival_frozen_examples():
    assert survival_exact(1, 1, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert survival_exact(1, 2, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert survival_exact(2, 2, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert survival_exact(3, 0, 0.7) == 1.0
    assert survival_bruteforce(1, 1, 0.5)[1] == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
def test_exact_matches_bruteforce(q):
    """Reflection identity against the absorbing-wall evolution, no shared code."""
    for m in range(1, 5):
        brute = survival_bruteforce(m, 25, q)
        for steps in range(26):
            assert survival_exact(m, steps, q) == pytest.approx(brute[steps], abs=1e-13)


@pytest.mark.parametrize("m,q", [(1, 0.5), (4, 0.1), (7, 1.0)])
def test_bruteforce_curve_keeps_the_bits_of_each_stopped_run(m, q):
    curve = survival_bruteforce(m, 40, q)
    assert curve.shape == (41,)
    for steps in range(41):
        assert curve[steps] == survival_bruteforce(m, steps, q)[-1]


def test_exact_matches_bruteforce_long_horizon():
    # a long horizon puts a thousand move counts into the binomial mixture
    assert survival_exact(10, 3000, 0.3) == pytest.approx(
        survival_bruteforce(10, 3000, 0.3)[-1], abs=1e-12
    )


@pytest.mark.parametrize("q", [1e-3, 0.04, 0.1, 0.3, 0.5, 1.0])
def test_exact_matches_the_betainc_reference(q):
    """The ratio recurrences agree with the binomial CDFs through betainc."""
    for m in (1, 2, 5, 50, 63, 200):
        for steps in (0, 1, 2, 3, 10, 99, 100, 1000, 40000):
            assert survival_exact(m, steps, q) == pytest.approx(
                survival_betainc(m, steps, q), abs=1e-14
            ), (m, steps)


def test_exact_across_the_edge_of_the_central_table():
    """Move counts from 0 to past 1024 in one block: the central terms
    come from the exact table below 1024 and from the series above."""
    for m in (1, 2, 3):
        assert survival_exact(m, 10**5, 0.005) == pytest.approx(
            survival_betainc(m, 10**5, 0.005), abs=1e-14
        )


@pytest.mark.parametrize("m,steps,q", [(5000, 10**6, 0.25), (300, 10**4, 0.5), (1000, 10**6, 0.5)])
def test_exact_matches_the_betainc_reference_at_wide_windows(m, steps, q):
    """Many move counts with a wide window each: the Bernstein cut of the
    weights, and at (5000, 10^6, 0.25) the Hoeffding shortcut."""
    assert survival_exact(m, steps, q) == pytest.approx(survival_betainc(m, steps, q), abs=1e-14)


def test_exact_keeps_only_the_weights_inside_the_bernstein_window(monkeypatch):
    """At a million steps only the move counts of the Bernstein window are
    built: well under 0.5 MB, and the value of a run over every move count."""
    tracemalloc.start()
    try:
        cut = survival_exact(50, 10**6, 0.04)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    monkeypatch.setattr(walk, "_TAIL_LOG", 1e9)  # a window wider than 0..steps
    lo, _, hi = walk._bernstein_window(10**6, 0.04)
    assert (lo, hi) == (0, 10**6)
    assert cut == pytest.approx(survival_exact(50, 10**6, 0.04), abs=1e-15)


@pytest.mark.parametrize("steps, q", [(10**6, 0.04), (12_345_678, 0.3), (10**10, 0.001), (5000, 0.9)])
def test_weight_blocks_carry_one_running_sum(monkeypatch, steps, q):
    """Block by block, from the mode outward, the weights are bit for bit
    those of one block over the whole window, whatever the block size."""
    window = walk._bernstein_window(steps, q)
    lo, hi = window[0], window[2]
    monkeypatch.setattr(walk, "_WEIGHT_ROWS", hi - lo + 1)
    [(start, whole)] = walk._binomial_weights(steps, q, window)
    assert start == lo
    for rows in (16, 100, 4096):
        monkeypatch.setattr(walk, "_WEIGHT_ROWS", rows)
        parts = np.full(whole.size, np.nan)
        starts = []
        for start, part in walk._binomial_weights(steps, q, window):
            starts.append(start)
            parts[start - lo : start - lo + part.size] = part
        assert sorted(starts) == list(range(lo, hi + 1, rows))
        np.testing.assert_array_equal(parts, whole)


@pytest.mark.parametrize("m, steps, q, weight_rows", [
    (1, 10**8, 0.5, walk._WEIGHT_ROWS), (11, 10**8, 0.5, walk._WEIGHT_ROWS),
    (50, 10**6, 0.04, 100), (3, 10**6, 0.5, 1000),
])
def test_exact_in_weight_blocks_matches_one_block(monkeypatch, m, steps, q, weight_rows):
    """Summed a block of weights at a time, the survival is within 1e-14 of
    one pass over the whole window."""
    monkeypatch.setattr(walk, "_WEIGHT_ROWS", weight_rows)
    blocks = survival_exact(m, steps, q)
    monkeypatch.setattr(walk, "_WEIGHT_ROWS", 1 << 40)
    assert blocks == pytest.approx(survival_exact(m, steps, q), rel=1e-14, abs=0.0)


def test_exact_memory_is_bounded_by_a_block():
    """At 10^11 steps the Bernstein window spans about three million move
    counts, but the traced peak stays under 8 MB; from 1 the walk survives
    about sqrt(2 / (pi q steps)), up to O(1 / steps)."""
    tracemalloc.start()
    try:
        value = survival_exact(1, 10**11, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert value == pytest.approx(math.sqrt(2.0 / (math.pi * 0.5e11)), rel=1e-9)


def test_exact_runs_at_the_cap_and_is_refused_below_it(monkeypatch):
    """A survival sum is given when the cap is exactly its estimate, and
    refused in one line before any sum when the cap is one nanosecond
    below it; the shortcut to 1 is never refused."""
    m, steps, q = 11, 10**6, 0.5
    lo, _, hi = walk._bernstein_window(steps, q)
    estimate = (hi - lo + 1) * (walk._MOVE_NS + walk._ENTRY_NS * ((m + 1) // 2))
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate)
    assert survival_exact(m, steps, q) == pytest.approx(survival_betainc(m, steps, q), abs=1e-14)
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate - 1)
    monkeypatch.setattr(walk, "_binomial_weights", None)  # so that any sum fails
    with pytest.raises(ValueError, match=r"^the exact survival with m=11, steps=1000000 and "
                                         r"q=0.5 is beyond the cap of \d+ s of summing, "
                                         r"at an estimated \d+ s$"):
        survival_exact(m, steps, q)
    assert survival_exact(10**12, 10**6, 0.5) == 1.0


def test_exact_across_the_full_window_shortcut(monkeypatch):
    """A window that holds every term of note gives 1 without a pass over it."""
    passes, central = [], walk._central

    def counted(moves):
        passes.append(moves)
        return central(moves)

    monkeypatch.setattr(walk, "_central", counted)
    shortcut = []
    for m in range(380, 470, 9):  # the shortcut returns 1 from m = 425 on
        before = len(passes)
        assert survival_exact(m, 4000, 0.5) == pytest.approx(
            survival_betainc(m, 4000, 0.5), abs=1e-14
        )
        shortcut.append(len(passes) == before)
    assert any(shortcut) and not all(shortcut)
    assert survival_exact(10**12, 10**6, 0.5) == 1.0


@pytest.mark.parametrize("q", [5e-324, 1e-300, 1e-19, 1e-9, 1.0 - 2.0**-53, 0.999999])
def test_exact_at_extreme_move_probabilities(q):
    """Log-odds near +-745 and 37, and a window at 0 or at steps: no
    overflow or underflow warning, and the values of independent routes.
    At 10^6 steps the small q are held to the decimal sum, because the
    betainc route loses digits to cancellation next to 1 there (1.4e-11
    at (1, 10^6, 1e-9)); next to q = 1 it keeps them."""
    reference = survival_decimal if q <= 1e-9 else survival_betainc
    for m in (1, 2, 50):
        brute = survival_bruteforce(m, 1000, q)
        for steps in (0, 1, 7, 1000):
            assert survival_exact(m, steps, q) == pytest.approx(brute[steps], abs=1e-13)
        assert survival_exact(m, 10**6, q) == pytest.approx(reference(m, 10**6, q), abs=1e-14)


@pytest.mark.parametrize("m,steps,q", [(5, 10**6, 1e-4), (3, 300, 0.3), (20, 300, 0.01)])
def test_exact_matches_the_decimal_reference(m, steps, q):
    """Where betainc is 2e-14 off, and at two points where the decimal sum
    runs over many move counts, it agrees with survival_exact to 1e-15."""
    assert survival_exact(m, steps, q) == pytest.approx(survival_decimal(m, steps, q), abs=1e-15)


def test_survival_monotonicity():
    in_start = [survival_exact(m, 40, 0.4) for m in range(1, 8)]
    assert all(a < b for a, b in zip(in_start, in_start[1:]))
    in_steps = [survival_exact(3, s, 0.4) for s in range(0, 80, 5)]
    assert all(a >= b for a, b in zip(in_steps, in_steps[1:]))


def test_parity_when_always_moving():
    # from start 1 with q = 1 the wall is only reachable at odd times
    for t in range(1, 20):
        odd = survival_exact(1, 2 * t - 1, 1.0)
        assert survival_exact(1, 2 * t, 1.0) == pytest.approx(odd, abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        survival_exact(0, 5, 0.5)
    with pytest.raises(ValueError):
        survival_exact(1, -1, 0.5)
    with pytest.raises(ValueError):
        survival_exact(1, 5, 0.0)
    with pytest.raises(ValueError):
        survival_exact(1, 5, 1.2)
    with pytest.raises(ValueError):
        survival_bruteforce(1, 20_000, 0.5)
    with pytest.raises(ValueError):
        WalkParams(0.5, 0)
    with pytest.raises(ValueError):
        WalkParams(-0.1, 2)
    WalkParams(1.0, 1)


def test_hitting_times_match_exact_survival():
    """The geometric-holding simulation reproduces the lazy walk's law."""
    params = WalkParams(0.25, 2)
    replicas = 30_000
    times, hit = hitting_time_samples(params, 400, replicas, replica_stream(31, 0))
    assert times.shape == (replicas,) and hit.shape == (replicas,)
    assert (times[~hit] == 401).all()
    assert (times[hit] >= 2).all()  # two moves are needed from start 2
    for t in (10, 60, 250):
        emp = float(np.mean(times > t))
        ref = survival_exact(2, t, 0.25)
        sigma = math.sqrt(ref * (1.0 - ref) / replicas)
        assert abs(emp - ref) < 4.0 * sigma


def test_hit_landing_on_the_cap_counts():
    """With q = 1 every step moves, so from 1 half the paths hit 0 at time 1."""
    times, hit = hitting_time_samples(WalkParams(1.0, 1), 1, 2000, replica_stream(31, 4))
    assert hit.any() and not hit.all()
    assert (times[hit] == 1).all() and (times[~hit] == 2).all()


def test_hitting_validation_and_single_path():
    params = WalkParams(0.5, 1)
    with pytest.raises(ValueError):
        hitting_time_samples(params, -1, 10, replica_stream(31, 1))
    with pytest.raises(ValueError):
        hitting_time_samples(params, 10, 0, replica_stream(31, 2))
    times, hit = hitting_time_samples(params, 1000, 1, replica_stream(31, 3))
    assert not hit[0] or 1 <= times[0] <= 1000


@pytest.mark.parametrize("t_cap", [2**62, 2**63 - 1])
def test_samplers_refuse_a_time_cap_outside_int64_room(t_cap):
    """t_cap + 1 and a clock plus a saturated hold must fit int64: one-line ValueError."""
    kernel = build_coupled_kernel(ModelParams(20, 5))
    for sample in (
        lambda rng: hitting_time_samples(WalkParams(0.5, 1), t_cap, 10, rng),
        lambda rng: merge_time_samples(kernel, 5, 0, t_cap, 10, rng),
    ):
        with pytest.raises(ValueError, match=rf"^t_cap must lie in \[0, 2\*\*62\), got {t_cap}$"):
            sample(replica_stream(31, 5))
    walk._check_batch(2**62 - 1, 1)


def test_hitting_from_beyond_the_cap_draws_nothing():
    """Each jump takes a step, so a start beyond t_cap cannot hit by then:
    the sentinels come back without a draw, and no position wraps."""
    rng = np.random.default_rng(7)
    times, hit = hitting_time_samples(WalkParams(1.0, 2**63 - 1), 1000, 300, rng)
    assert not hit.any() and (times == 1001).all()
    assert rng.random() == np.random.default_rng(7).random()


def test_hitting_from_the_cap_can_still_hit():
    """At m = t_cap = 3 with q = 1 only the straight descent hits by t_cap: chance 1/8."""
    replicas = 20_000
    times, hit = hitting_time_samples(WalkParams(1.0, 3), 3, replicas, replica_stream(31, 6))
    assert (times[hit] == 3).all() and (times[~hit] == 4).all()
    sigma = math.sqrt(1 / 8 * 7 / 8 / replicas)
    assert abs(hit.mean() - 1 / 8) < 4.0 * sigma


def test_hitting_sampler_runs_at_the_cap_and_is_refused_below_it(monkeypatch):
    """Refused in one line, before any draw, one nanosecond below its estimate:
    three passes of 50 excursions."""
    params = WalkParams(0.5, 3)
    estimate = 3 * (walk._PASS_NS + 50 * walk._EXCURSION_NS)
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate)
    hitting_time_samples(params, 200, 50, replica_stream(37, 0))
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate - 1)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match=r"^the hitting sampler with m=3, q=0.5, t_cap=200 and "
                                         r"replicas=50 is beyond the cap of 0 s of sampling, "
                                         r"at an estimated 0 s$"):
        hitting_time_samples(params, 200, 50, rng)
    assert rng.random() == np.random.default_rng(7).random()


def test_tail_estimate_edges():
    samples = np.array([3, 5, 5, 9])
    assert tail_estimate(samples, 2) == (1.0, 0.0)  # all above
    assert tail_estimate(samples, 9) == (0.0, 0.0)  # none above
    assert tail_estimate(samples, 5) == (0.25, math.sqrt(0.25 * 0.75 / 4))
    assert tail_estimate(np.array([7]), 6) == (1.0, 0.0)  # a single sample
    assert tail_estimate(np.array([7]), 7) == (0.0, 0.0)


def test_gaussian_limit_against_quadrature():
    """erf route cross-checked by direct normal-density quadrature."""
    assert gaussian_limit(1.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
    for alpha, beta in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
        half = alpha / math.sqrt(beta)
        ref, err = integrate.quad(
            lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), -half, half
        )
        assert err < 1e-12
        assert gaussian_limit(alpha, beta) == pytest.approx(ref, abs=1e-11)


def test_gaussian_limit_shape():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    in_alpha = [gaussian_limit(a, 1.0) for a in grid]
    assert all(x < y for x, y in zip(in_alpha, in_alpha[1:]))
    in_beta = [gaussian_limit(1.0, b) for b in grid]
    assert all(x > y for x, y in zip(in_beta, in_beta[1:]))
    for alpha in grid:
        for beta in grid:
            assert gaussian_limit(alpha, beta) <= alpha / math.sqrt(beta) + 1e-12


def test_survival_approaches_gaussian_limit():
    # coarse size here; the acceptance suite checks 0.01 at n = 100_000
    n, q = 20_000, 0.01
    scale = math.sqrt(q * n)
    for alpha, beta in [(1.0, 1.0), (0.5, 2.0)]:
        exact = survival_exact(math.ceil(alpha * scale), int(beta * n), q)
        assert abs(exact - gaussian_limit(alpha, beta)) < 0.04


def _assert_same_run(got, ref, got_rng, ref_rng):
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got_rng.random() == ref_rng.random()  # the same number of uniforms drawn


def _merge_against_the_reference_driver(n, k, x, y, t_cap, replicas):
    """The inline loop is the side-by-side driver run with the per-jump pair alone."""
    kernel = build_coupled_kernel(ModelParams(n, k))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = merge_time_samples(kernel, x, y, t_cap, replicas, rng)
    state, jump, met = _pair_process(kernel, x, y, replicas)
    [(tau, merged)] = _side_by_side([(state, jump, met)], t_cap, ref_rng)
    _assert_same_run((got.tau, got.merged, got.w1, got.w2), (tau, merged, state[0], state[1]),
                     rng, ref_rng)
    return got


@pytest.mark.parametrize("n,k,x,y,t_cap,replicas", [
    pytest.param(20, 5, 5, 0, 300, 500, id="5-0-300"),
    pytest.param(20, 5, 4, 1, 25, 500, id="4-1-25"),
    pytest.param(20, 5, 5, 0, 0, 500, id="5-0-0"),
    pytest.param(20, 5, 3, 3, 40, 500, id="3-3-40"),
    # the benchmark's shape: about 1400 rounds, about 200 of which shrink the batch
    pytest.param(2000, 400, 400, 0, 6000, 300, id="2000-400-400-0-6000"),
])
def test_merge_sampler_equals_reference_driver(n, k, x, y, t_cap, replicas):
    _merge_against_the_reference_driver(n, k, x, y, t_cap, replicas)


def test_merge_at_the_cap_is_done_not_late():
    """A jump that lands on the diagonal at exactly t_cap merges there."""
    got = _merge_against_the_reference_driver(20, 5, 1, 0, 3, 500)
    assert (got.merged & (got.tau == 3)).any()


@pytest.mark.parametrize("q,m,t_cap", [(0.3, 2, 500), (1.0, 1, 60), (0.04, 50, 4000)])
def test_hitting_sampler_follows_the_per_jump_law(q, m, t_cap):
    """First-passage excursions with Poisson-gamma holds against the per-jump walk."""
    got, got_hit = hitting_time_samples(WalkParams(q, m), t_cap, 5000, np.random.default_rng(6))
    start = np.full(5000, m, dtype=np.int64)
    [(ref, _)] = _side_by_side([_walk_process(start, q)], t_cap, np.random.default_rng(7))
    assert (got[~got_hit] == t_cap + 1).all() and (got[got_hit] <= t_cap).all()
    assert stats.ks_2samp(got, ref).pvalue > 0.01


@pytest.mark.parametrize("m, q, t_cap", [(1, 1.0, 200), (2, 0.25, 400), (7, 0.1, 3000),
                                         (65, 0.5, 20_000)])
def test_hitting_times_follow_the_first_passage_law(m, q, t_cap):
    """One-sample KS of the capped times against their exact CDF,
    1 - survival_exact up to t_cap and 1 at the sentinel.  Both CDFs step on
    the integers and the empirical one is flat between sample values, so the
    supremum of the gap is at a sample value or at the integer below it.
    For a discrete law the continuous KS tail overstates the p-value."""
    replicas = 4000
    times, _ = hitting_time_samples(WalkParams(q, m), t_cap, replicas, replica_stream(38, m))

    def cdf(s):
        return 1.0 - survival_exact(m, s, q) if s <= t_cap else 1.0

    values, counts = np.unique(times, return_counts=True)
    at = np.cumsum(counts) / replicas
    below = at - counts / replicas
    gap = max(max(abs(a - cdf(s)), abs(b - cdf(s - 1))) for s, a, b in zip(values, at, below))
    assert stats.kstwo.sf(gap, replicas) > 0.01


class _LongExcursions:
    """A generator whose every second replica draws the longest excursions:
    U = 2^-53, so 1 - X is about 3e-32 and N saturates."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, out):
        self.rng.random(out=out)
        out[0, 1::2] = 1.0 - 2.0**-53

    def standard_gamma(self, shape):
        return self.rng.standard_gamma(shape)

    def poisson(self, lam):
        return self.rng.poisson(lam)


def test_hitting_at_the_largest_time_cap_stays_in_int64():
    """At t_cap = 2^62 - 1 the running sums saturate at the cap without a
    wrap: replicas with saturated excursions miss at exactly 2^62, and the
    others hit by t_cap (a miss of theirs has chance about 1.6e-9)."""
    t_cap = 2**62 - 1
    times, hit = hitting_time_samples(WalkParams(0.5, 3), t_cap, 2000,
                                      _LongExcursions(replica_stream(39, 0)))
    assert (hit == (np.arange(2000) % 2 == 0)).all()
    assert (times[~hit] == 2**62).all()
    assert (times[hit] >= 3).all() and (times[hit] <= t_cap).all()


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65])
def test_hits_without_holds_keep_the_parity_of_the_start(m):
    """With q = 1 a hit takes as many steps as jumps: at least m, of m's parity."""
    times, hit = hitting_time_samples(WalkParams(1.0, m), 4 * m * m, 3000, replica_stream(33, m))
    assert hit.sum() > 1000
    assert (times[hit] >= m).all() and (times[hit] % 2 == m % 2).all()
    assert (times == m).any() == (m <= 2)  # a straight descent has chance 2**-m


def test_hitting_with_no_time_hits_nothing():
    times, hit = hitting_time_samples(WalkParams(1.0, 1), 0, 1000, replica_stream(33, 0))
    assert not hit.any() and (times == 1).all()


@pytest.mark.parametrize("q", [1e-19, 5e-324])
def test_tiny_move_probability_raises_naming_q(q):
    """Far below numpy's negative-binomial range nothing raises and nothing
    wraps: the holds' gamma mean passes 2 t_cap + 1024 (or is inf), so every
    replica keeps the sentinel without a Poisson draw."""
    times, hit = hitting_time_samples(WalkParams(q, 1), 1000, 5, replica_stream(34, 0))
    assert not hit.any() and (times == 1001).all()


def test_geometric_hold_saturates_instead_of_wrapping():
    u = np.array([0.0, 1e-300, 0.5, 1.0 - 2.0**-53])
    holds = _geometric_from_uniform(u, -1e-19)
    assert holds.tolist() == [0, 0, 2**62, 2**62]
    # in range, the bits are those of the plain floor
    u = np.random.default_rng(8).random(1000)
    np.testing.assert_array_equal(
        _geometric_from_uniform(u, math.log1p(-0.01)),
        np.floor(np.log1p(-u) / math.log1p(-0.01)).astype(np.int64),
    )
    # the same bits with the float work in place
    work = u.copy()
    np.testing.assert_array_equal(
        _geometric_from_uniform(work, math.log1p(-0.01), out=work),
        _geometric_from_uniform(u, math.log1p(-0.01)),
    )


def test_hitting_sampler_memory_stays_within_its_buffers():
    """At the benchmark's size no (replicas x m) temporary (8 MB) may
    appear: the sampler works in arrays of the batch's size (160 KB each)."""
    tracemalloc.start()
    try:
        hitting_time_samples(WalkParams(0.04, 50), 4000, 20_000, replica_stream(35, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_merge_sampler_memory_stays_within_its_buffers():
    """At the benchmark's size (20 000 replicas, 160 KB per float or int64
    array) the per-jump arrays sit in buffers made once per call, and the
    traced peak stays within about 22 such arrays."""
    kernel = build_coupled_kernel(ModelParams(2000, 400))
    tracemalloc.start()
    try:
        merge_time_samples(kernel, 400, 0, 6000, 20_000, replica_stream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_600_000


@pytest.mark.parametrize("t_cap", [0, 30])
def test_merge_from_the_diagonal_draws_nothing(t_cap):
    """A pair that starts merged has tau = 0 in every replica, and no uniform is drawn."""
    kernel = build_coupled_kernel(ModelParams(20, 5))
    rng = np.random.default_rng(7)
    got = merge_time_samples(kernel, 2, 2, t_cap, 300, rng)
    assert got.merged.all() and (got.tau == 0).all()
    assert (got.w1 == 2).all() and (got.w2 == 2).all()
    assert rng.random() == np.random.default_rng(7).random()
