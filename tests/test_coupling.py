"""Ordered-pair coupling: marginals, order preservation, merge and domination."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixlab import ModelParams, replica_stream
from mixlab.coupling import (
    _PAIR_MOVES,
    CoupledKernel,
    build_coupled_kernel,
    check_skeleton_invariants,
    coupling_tv_upper_bound,
    merge_time_samples,
)
from mixlab.lumped import BirthDeathKernel, build_kernel, d_curve
from reference import dominated_pair_samples, expected_merge_time_exact


def _marginals(row):
    first: dict[int, float] = {}
    second: dict[int, float] = {}
    for (a, b), p in row:
        first[a] = first.get(a, 0.0) + p
        second[b] = second.get(b, 0.0) + p
    return first, second


def _base_row(base, target):
    expect = {target: float(base.stay[target])}
    if base.up[target]:
        expect[target + 1] = float(base.up[target])
    if base.down[target]:
        expect[target - 1] = float(base.down[target])
    return expect


@pytest.mark.parametrize("n,k", [(4, 2), (10, 3), (50, 25)])
def test_rows_are_distributions_with_exact_marginals(n, k):
    """Both coordinates of the pair chain move by the original kernel."""
    params = ModelParams(n, k)
    coupled = build_coupled_kernel(params)
    base = build_kernel(params)
    for i in range(k + 1):
        for j in range(i + 1):
            row = coupled.transition_row(i, j)
            probs = np.array([p for _, p in row])
            assert probs.min() > 0.0
            np.testing.assert_allclose(probs.sum(), 1.0, rtol=0, atol=1e-14)
            first, second = _marginals(row)
            for target, got in ((i, first), (j, second)):
                expect = _base_row(base, target)
                assert set(got) == set(expect)
                for state, p in expect.items():
                    assert got[state] == pytest.approx(p, abs=1e-15)


def test_transition_row_rejects_unordered_state():
    coupled = build_coupled_kernel(ModelParams(10, 3))
    with pytest.raises(ValueError):
        coupled.transition_row(1, 2)
    with pytest.raises(ValueError):
        coupled.transition_row(4, 0)


def test_move_thresholds_are_cumulative():
    coupled = build_coupled_kernel(ModelParams(10, 3))
    ii, jj = np.tril_indices(4, k=-1)
    a, b, c, q = coupled.skeleton_thresholds(ii, jj)
    assert (a <= b).all() and (b <= c).all() and (c <= 1.0).all()
    assert (a >= 0).all() and (q > 0).all() and (q <= 1.0).all()


def test_thresholds_written_into_buffers_have_the_same_bits():
    coupled = build_coupled_kernel(ModelParams(60, 12))
    ii, jj = np.tril_indices(13, k=-1)
    out = np.full((4, ii.size), np.nan)
    got = coupled.skeleton_thresholds(ii, jj, out=out)
    for row, buffered, new in zip(out, got, coupled.skeleton_thresholds(ii, jj)):
        assert np.shares_memory(buffered, row)
        np.testing.assert_array_equal(row, new)
    with pytest.raises(IndexError):  # without buffers an index past k is refused
        coupled.skeleton_thresholds(np.array([13]), np.array([0]))


@pytest.mark.parametrize("n,k", [(4, 2), (8, 3), (16, 5), (32, 16), (64, 21)])
def test_jump_law_matches_transition_row_exactly(n, k):
    """The sampler's jump rate and move intervals give the joint kernel's row.

    With n a power of two every kernel entry is a dyadic rational, so the
    float rows are exact; the thresholds are then evaluated over the same
    entries as fractions, and every comparison is an equality.
    """
    coupled = build_coupled_kernel(ModelParams(n, k))
    base = coupled.base
    exact = CoupledKernel(BirthDeathKernel(base.params, *(
        np.array([Fraction(v) for v in rates], dtype=object)
        for rates in (base.up, base.down, base.stay)
    )))
    for i in range(k + 1):
        for j in range(i):
            row = dict(coupled.transition_row(i, j))
            a, b, c, q = exact.skeleton_thresholds(i, j)
            assert q == 1 - Fraction(row.pop((i, j), 0.0))
            assert coupled.skeleton_thresholds(i, j)[3] == q
            for (di, dj), width in zip(_PAIR_MOVES.T.tolist(), (a, b - a, c - b, 1 - c)):
                assert width * q == Fraction(row.pop((i + di, j + dj), 0.0))
            assert row == {}


def test_skeleton_invariants_frozen_example():
    worst_b, worst_q = check_skeleton_invariants(build_coupled_kernel(ModelParams(4, 2)))
    assert worst_b == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert worst_q == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n,k", [(10, 3), (60, 12), (200, 100), (999, 51)])
def test_skeleton_invariants_hold(n, k):
    """Downward drift (b <= 1/2) and the jump-rate floor q >= k^2/n^2."""
    worst_b, worst_q = check_skeleton_invariants(build_coupled_kernel(ModelParams(n, k)))
    assert worst_b < 0.5
    assert worst_q >= 1.0 - 1e-12


def test_expected_merge_time_exact_frozen():
    coupled = build_coupled_kernel(ModelParams(4, 2))
    # (I - Q) h = 1 solved by hand for the two transient pair states
    assert expected_merge_time_exact(coupled, 2, 0) == pytest.approx(2.8, abs=1e-12)
    assert expected_merge_time_exact(coupled, 1, 1) == 0.0


def test_merge_samples_match_exact_mean():
    coupled = build_coupled_kernel(ModelParams(4, 2))
    samples = merge_time_samples(coupled, 2, 0, 200, 20_000, replica_stream(21, 0))
    assert samples.merged.all()
    exact = expected_merge_time_exact(coupled, 2, 0)
    stderr = samples.tau.std(ddof=1) / math.sqrt(samples.tau.size)
    assert abs(samples.tau.mean() - exact) < 4.0 * stderr


def _exact_merge_tail(coupled, x, y, ts):
    """P[meeting time > t] by dense evolution over the transient pair states."""
    k = coupled.params.k
    transient = [(i, j) for i in range(k + 1) for j in range(i)]
    index = {state: idx for idx, state in enumerate(transient)}
    sub = np.zeros((len(transient), len(transient)))
    for (i, j), row_idx in index.items():
        for (i2, j2), p in coupled.transition_row(i, j):
            if i2 != j2:
                sub[row_idx, index[(i2, j2)]] += p
    alive = np.zeros(len(transient))
    alive[index[(x, y)]] = 1.0
    out, t = {}, 0
    for target in sorted(ts):
        for _ in range(target - t):
            alive = alive @ sub
        t = target
        out[target] = float(alive.sum())
    return out


def test_merge_tail_matches_exact_evolution():
    """The jump-chain sampler's P[tau > t] against the exact substochastic evolution."""
    coupled = build_coupled_kernel(ModelParams(20, 5))
    ts = [3, 10, 25, 50, 90]
    exact = _exact_merge_tail(coupled, 5, 0, ts)
    replicas = 40_000
    samples = merge_time_samples(coupled, 5, 0, max(ts), replicas, replica_stream(21, 10))
    for t in ts:
        sigma = math.sqrt(exact[t] * (1.0 - exact[t]) / replicas)
        assert 0.0 < exact[t] < 1.0
        assert abs(float(np.mean(samples.tau > t)) - exact[t]) < 4.0 * sigma
    # the bound reads every time off one batch drawn from the same stream
    bounds = coupling_tv_upper_bound(coupled.params, ts, replicas, replica_stream(21, 10))
    assert [estimate for estimate, _ in bounds] == [float(np.mean(samples.tau > t)) for t in ts]


def test_coupled_pair_stays_ordered():
    coupled = build_coupled_kernel(ModelParams(20, 5))
    samples = merge_time_samples(coupled, 5, 0, 30, 5000, replica_stream(21, 1))
    assert (samples.w1 >= samples.w2).all()
    assert (samples.w1[samples.merged] == samples.w2[samples.merged]).all()
    # unmerged paths carry the sentinel time t_cap + 1
    unmerged = ~samples.merged
    assert unmerged.any()
    assert (samples.tau[unmerged] == 31).all()
    assert (samples.tau[samples.merged] <= 30).all()


def test_merge_from_equal_states_is_immediate():
    coupled = build_coupled_kernel(ModelParams(20, 5))
    samples = merge_time_samples(coupled, 3, 3, 10, 100, replica_stream(21, 2))
    assert samples.merged.all()
    assert (samples.tau == 0).all()


def test_merge_input_validation():
    coupled = build_coupled_kernel(ModelParams(20, 5))
    rng = replica_stream(21, 3)
    with pytest.raises(ValueError):
        merge_time_samples(coupled, 0, 3, 10, 100, rng)
    with pytest.raises(ValueError):
        merge_time_samples(coupled, 6, 0, 10, 100, rng)
    with pytest.raises(ValueError):
        merge_time_samples(coupled, 3, 0, -1, 100, rng)
    with pytest.raises(ValueError):
        merge_time_samples(coupled, 3, 0, 10, 0, rng)


def test_expected_gap_decay():
    """E[W1_t - W2_t] = (x - y)(1 - 2/n)^t under the coupling."""
    n, x, y, t = 60, 12, 5, 100
    coupled = build_coupled_kernel(ModelParams(n, 12))
    samples = merge_time_samples(coupled, x, y, t, 60_000, replica_stream(21, 6))
    gap = samples.w1.astype(float) - samples.w2
    expect = (x - y) * (1.0 - 2.0 / n) ** t
    stderr = gap.std(ddof=1) / math.sqrt(gap.size)
    assert abs(gap.mean() - expect) < 4.0 * stderr


def test_dominated_pair_never_beats_walk():
    """Pathwise domination: the pair merges no later than the walk hits zero."""
    coupled = build_coupled_kernel(ModelParams(30, 6))
    samples = dominated_pair_samples(coupled, 6, 0, 3000, 100_000, replica_stream(21, 4))
    # the shared clock makes a walk hit inside the horizon force a merge
    assert not (samples.walk_hit & ~samples.merged).any()
    both = samples.merged & samples.walk_hit
    assert both.any()
    assert (samples.tau[both] <= samples.tau_walk[both]).all()
    # skeleton upward-move fraction never exceeds the fair-walk rate
    assert samples.d_up_moves <= samples.pair_moves / 2


def test_single_path_helpers():
    coupled = build_coupled_kernel(ModelParams(10, 3))
    merge = merge_time_samples(coupled, 3, 0, 500, 1, replica_stream(21, 5))
    assert not merge.merged[0] or 0 <= merge.tau[0] <= 500
    pair = dominated_pair_samples(coupled, 3, 0, 500, 1, replica_stream(21, 7))
    if pair.walk_hit[0]:
        assert pair.merged[0] and pair.tau[0] <= pair.tau_walk[0]


def test_coupling_bound_is_trivial_at_time_zero():
    (bound,) = coupling_tv_upper_bound(ModelParams(30, 6), [0], 100, replica_stream(21, 8))
    assert bound == (1.0, 0.0)


def test_coupling_bound_dominates_exact_distance():
    params = ModelParams(30, 6)
    t = 60
    ((estimate, stderr),) = coupling_tv_upper_bound(params, [t], 40_000, replica_stream(21, 9))
    exact = d_curve(params, t).tv[-1]
    assert 0.0 <= estimate <= 1.0
    assert exact <= estimate + 4.0 * stderr
