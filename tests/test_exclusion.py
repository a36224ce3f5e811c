"""Configuration-level swap dynamics and the exact small-instance oracles."""

import math

import numpy as np
import pytest

from mixlab import (
    LABELED,
    UNLABELED,
    Configuration,
    ModelParams,
    PairSelection,
    replica_stream,
)
from mixlab import exclusion
from mixlab.lumped import build_kernel, d_curve


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 1)
    with pytest.raises(ValueError):
        ModelParams(4, 0)
    with pytest.raises(ValueError):
        ModelParams(4, 3)
    # the boundary k = n // 2 is allowed, including odd n
    ModelParams(4, 2)
    ModelParams(5, 2)


def test_initial_configuration():
    unlab = exclusion.initial_configuration(ModelParams(5, 2))
    assert unlab.cells == (1, 1, 0, 0, 0)
    lab = exclusion.initial_configuration(ModelParams(5, 2), LABELED)
    assert lab.cells == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        exclusion.initial_configuration(ModelParams(5, 2), "half-labeled")


@pytest.mark.parametrize(
    "mode,cells",
    [
        (UNLABELED, (1, 2, 0, 0)),  # unlabeled cells must be 0/1
        (LABELED, (1, 1, 0, 0)),  # duplicate label
        (LABELED, (1, 3, 0, 0)),  # label 2 missing
        (UNLABELED, (1, 1, 1, 0)),  # more than n/2 particles
        (UNLABELED, (0, 0, 0, 0)),  # no particle at all
        (UNLABELED, (1,)),  # single site
        ("mixed", (1, 0, 0, 0)),  # unknown mode
    ],
)
def test_configuration_rejects(mode, cells):
    with pytest.raises(ValueError):
        Configuration(mode, cells)


def test_step_swaps_and_noop():
    config = Configuration(LABELED, (1, 2, 0, 0, 0))
    after = exclusion.step(config, PairSelection(1, 4))
    assert after.cells == (0, 2, 0, 1, 0)
    assert exclusion.step(config, PairSelection(3, 3)) is config
    # swapping the same pair again restores the state
    assert exclusion.step(after, PairSelection(1, 4)).cells == config.cells
    with pytest.raises(ValueError):
        exclusion.step(config, PairSelection(0, 2))
    with pytest.raises(ValueError):
        exclusion.step(config, PairSelection(1, 6))


def test_step_conserves_particles():
    rng = replica_stream(7, 0)
    config = exclusion.initial_configuration(ModelParams(8, 3), LABELED)
    for x, y in zip(*exclusion.draw_pairs(8, 200, rng)):
        config = exclusion.step(config, PairSelection(int(x), int(y)))
    assert sorted(v for v in config.cells if v) == [1, 2, 3]
    assert config.n == 8 and config.k == 3


def test_w_statistic_and_fixed_points():
    config = Configuration(LABELED, (2, 0, 1, 0, 3, 0, 0, 0))
    assert exclusion.w_statistic(config) == 2
    assert exclusion.fixed_points(config) == 0
    packed = exclusion.initial_configuration(ModelParams(8, 3), LABELED)
    assert exclusion.w_statistic(packed) == 3
    assert exclusion.fixed_points(packed) == 3
    with pytest.raises(ValueError):
        exclusion.fixed_points(exclusion.initial_configuration(ModelParams(8, 3)))


def test_draw_pairs_range_and_determinism():
    x1, y1 = exclusion.draw_pairs(9, 500, replica_stream(3, 1))
    x2, y2 = exclusion.draw_pairs(9, 500, replica_stream(3, 1))
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert x1.min() >= 1 and x1.max() <= 9
    assert y1.min() >= 1 and y1.max() <= 9
    (x,), (y,) = exclusion.draw_pairs(9, 1, replica_stream(3, 2))
    assert 1 <= x <= 9 and 1 <= y <= 9


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_state_space_sizes(n, k):
    params = ModelParams(n, k)
    assert exclusion.state_space_size(params, UNLABELED) == math.comb(n, k)
    assert exclusion.state_space_size(params, LABELED) == math.comb(n, k) * math.factorial(k)
    for mode in (UNLABELED, LABELED):
        states = exclusion.enumerate_states(params, mode)
        assert len(states) == exclusion.state_space_size(params, mode)
        assert len(set(states)) == len(states)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        exclusion.enumerate_states(ModelParams(40, 20), UNLABELED)


@pytest.mark.parametrize("mode", [UNLABELED, LABELED])
def test_transition_matrix_invariants(mode):
    """Swaps are involutions, so the chain is symmetric and doubly stochastic."""
    params = ModelParams(6, 2)
    states, matrix = exclusion.transition_matrix(params, mode)
    dense = matrix.toarray()
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (dense >= 0).all()
    np.testing.assert_array_equal(dense, dense.T)
    # every actual move has the same probability: 2 ordered draws out of n^2
    off = dense[~np.eye(len(states), dtype=bool)]
    np.testing.assert_array_equal(np.unique(off), [0.0, 2.0 / params.n**2])
    # laziness: x == y is drawn with probability 1/n
    assert dense.diagonal().min() >= 1.0 / params.n - 1e-15


def test_brute_force_distribution_start_and_mass():
    params = ModelParams(5, 2)
    states, mu0 = exclusion.brute_force_distribution(params, UNLABELED, 0)
    start = exclusion.initial_configuration(params, UNLABELED).cells
    assert mu0[states.index(start)] == 1.0
    assert mu0.sum() == 1.0
    _, mu = exclusion.brute_force_distribution(params, UNLABELED, 12)
    np.testing.assert_allclose(mu.sum(), 1.0, rtol=0, atol=1e-12)
    assert (mu > 0).all()
    with pytest.raises(ValueError):
        exclusion.brute_force_distribution(params, UNLABELED, -1)


def test_tv_at_time_zero():
    params = ModelParams(4, 2)
    assert exclusion.brute_force_tv(params, UNLABELED, 0) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert exclusion.brute_force_tv(params, LABELED, 0) == pytest.approx(11.0 / 12.0, abs=1e-15)


def test_tv_curve_monotone_and_vanishing():
    params = ModelParams(6, 3)
    curve = exclusion.brute_force_tv_curve(params, UNLABELED, 60)
    assert curve[0] == pytest.approx(1.0 - 1.0 / math.comb(6, 3), abs=1e-15)
    assert (np.diff(curve) <= 1e-12).all()
    assert curve[-1] < 1e-3


def test_lumping_matches_brute_force():
    """Projecting onto W preserves the whole TV curve (one mid-size instance)."""
    params = ModelParams(5, 2)
    brute = exclusion.brute_force_tv_curve(params, UNLABELED, 40)
    profile = d_curve(params, 40)
    np.testing.assert_allclose(profile.tv, brute, rtol=0, atol=1e-13)


def test_conditional_uniformity_given_block_count():
    """From the packed start, the law at any time is uniform on each W level set.

    This is the symmetry that makes the projection Markovian, checked on
    the exact full-space distribution rather than on samples.
    """
    params = ModelParams(6, 2)
    for t in (1, 3, 17):
        states, mu = exclusion.brute_force_distribution(params, UNLABELED, t)
        w = np.array([sum(1 for v in s[:2] if v) for s in states])
        for level in range(3):
            probs = mu[w == level]
            assert float(probs.max() - probs.min()) < 1e-14


def test_w_trajectory_steps_and_bounds():
    params = ModelParams(10, 3)
    arr = exclusion.simulate_w_trajectories(params, 400, 1, replica_stream(11, 0))[0]
    assert arr.shape == (401,)
    assert arr[0] == 3
    assert arr.min() >= 0 and arr.max() <= 3
    assert np.isin(np.diff(arr), (-1, 0, 1)).all()
    with pytest.raises(ValueError):
        exclusion.simulate_w_trajectories(params, -1, 1, replica_stream(11, 9))


def test_w_trajectories_batch_shape_and_increments():
    params = ModelParams(10, 3)
    out = exclusion.simulate_w_trajectories(params, 50, 64, replica_stream(11, 1))
    assert out.shape == (64, 51) and out.dtype == np.int64
    assert (out[:, 0] == 3).all()
    assert np.isin(np.diff(out, axis=1), (-1, 0, 1)).all()
    with pytest.raises(ValueError):
        exclusion.simulate_w_trajectories(params, -1, 4, replica_stream(11, 2))
    with pytest.raises(ValueError):
        exclusion.simulate_w_trajectories(params, 5, 0, replica_stream(11, 3))


def test_mismatched_initial_rejected():
    params = ModelParams(10, 3)
    other = exclusion.initial_configuration(ModelParams(10, 4))
    with pytest.raises(ValueError):
        exclusion.simulate_w_trajectories(params, 5, 1, replica_stream(0, 0), initial=other)
    with pytest.raises(ValueError):
        exclusion.simulate_w_trajectories(params, 5, 3, replica_stream(0, 0), initial=other)


def test_one_step_law_matches_lumped_kernel():
    """Empirical one-step W frequencies sit within 4 binomial sigma of the kernel row."""
    params = ModelParams(10, 3)
    kernel = build_kernel(params)
    start = Configuration(UNLABELED, (1, 1, 0, 1, 0, 0, 0, 0, 0, 0))  # W = 2
    replicas = 40_000
    out = exclusion.simulate_w_trajectories(
        params, 1, replicas, replica_stream(11, 4), initial=start
    )
    w1 = out[:, 1]
    for level, prob in [(1, kernel.down[2]), (2, kernel.stay[2]), (3, kernel.up[2])]:
        freq = float(np.mean(w1 == level))
        sigma = math.sqrt(prob * (1.0 - prob) / replicas)
        assert abs(freq - prob) < 4.0 * sigma
