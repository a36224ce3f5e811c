"""The configuration-level swap chain: its exact matrix and distance curve."""

import math

import numpy as np
import pytest

from mixlab import LABELED, UNLABELED, ModelParams
from mixlab import exclusion
from mixlab.lumped import build_kernel, d_curve
from reference import transition_csr, tv_curve_csr


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
    assert exclusion._initial_cells(ModelParams(5, 2), UNLABELED) == (1, 1, 0, 0, 0)
    assert exclusion._initial_cells(ModelParams(5, 2), LABELED) == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        exclusion._initial_cells(ModelParams(5, 2), "half-labeled")


def test_step_swaps_and_noop():
    """One step, read off the exact matrix: a draw of sites x != y swaps
    their contents, x = y and equal contents leave the state alone, and
    the same swap undoes itself."""
    params = ModelParams(5, 2)
    states, matrix = transition_csr(params, LABELED)
    index = {s: i for i, s in enumerate(states)}
    start, swapped = index[(1, 2, 0, 0, 0)], index[(0, 2, 0, 1, 0)]
    # sites 1 and 4 are drawn in either order
    assert matrix[start, swapped] == 2.0 / 25.0
    assert matrix[swapped, start] == 2.0 / 25.0
    # the 5 draws x = y, plus both orders of the 3 pairs of empty sites
    assert matrix[start, start] == pytest.approx(5.0 / 25.0 + 6.0 / 25.0, abs=1e-15)


def test_step_conserves_particles():
    """Every move of the chain exchanges the contents of exactly two sites."""
    states, matrix = transition_csr(ModelParams(8, 3), LABELED)
    coo = matrix.tocoo()
    for i, j in zip(coo.row, coo.col):
        if i == j:
            continue
        a, b = np.array(states[i]), np.array(states[j])
        (moved,) = np.nonzero(a != b)
        assert moved.size == 2
        assert a[moved[0]] == b[moved[1]] and a[moved[1]] == b[moved[0]]


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
    states, matrix = transition_csr(params, mode)
    dense = matrix.toarray()
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (dense >= 0).all()
    np.testing.assert_array_equal(dense, dense.T)
    # every actual move has the same probability: 2 ordered draws out of n^2
    off = dense[~np.eye(len(states), dtype=bool)]
    np.testing.assert_array_equal(np.unique(off), [0.0, 2.0 / params.n**2])
    # laziness: x == y is drawn with probability 1/n
    assert dense.diagonal().min() >= 1.0 / params.n - 1e-15


def _law(params, mode, t):
    """Exact law after t steps from the packed start, by the full matrix."""
    states, matrix = transition_csr(params, mode)
    mu = np.zeros(len(states))
    mu[states.index(exclusion._initial_cells(params, mode))] = 1.0
    for _ in range(t):
        mu = matrix.T @ mu
    return states, mu


def test_brute_force_distribution_start_and_mass():
    params = ModelParams(5, 2)
    states, mu0 = _law(params, UNLABELED, 0)
    assert mu0[states.index((1, 1, 0, 0, 0))] == 1.0
    assert mu0.sum() == 1.0
    _, mu = _law(params, UNLABELED, 12)
    np.testing.assert_allclose(mu.sum(), 1.0, rtol=0, atol=1e-12)
    assert (mu > 0).all()
    with pytest.raises(ValueError):
        exclusion.brute_force_tv_curve(params, UNLABELED, -1)


def test_tv_at_time_zero():
    params = ModelParams(4, 2)
    (unlabeled,) = exclusion.brute_force_tv_curve(params, UNLABELED, 0)
    (labeled,) = exclusion.brute_force_tv_curve(params, LABELED, 0)
    assert unlabeled == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert labeled == pytest.approx(11.0 / 12.0, abs=1e-15)


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
        states, mu = _law(params, UNLABELED, t)
        w = np.array([sum(1 for v in s[:2] if v) for s in states])
        for level in range(3):
            probs = mu[w == level]
            assert float(probs.max() - probs.min()) < 1e-14


@pytest.mark.parametrize("mode", [UNLABELED, LABELED])
@pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (10, 3)])
def test_kernel_is_exact_projection_of_swap_matrix(n, k, mode):
    """Markov lumpability: from every configuration, the one-step mass on
    each W level set is the lumped kernel's row at that configuration's W."""
    params = ModelParams(n, k)
    states, matrix = transition_csr(params, mode)
    w = np.array([sum(1 for v in s[:k] if v) for s in states])
    projected = matrix @ (w[:, None] == np.arange(k + 1)).astype(float)
    kernel = build_kernel(params)
    rows = np.diag(kernel.stay) + np.diag(kernel.up[:-1], 1) + np.diag(kernel.down[1:], -1)
    assert np.abs(projected - rows[w]).max() <= 1e-15


@pytest.mark.parametrize("mode", [UNLABELED, LABELED])
@pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (8, 3)])
def test_tv_curve_matches_sparse_stepping(n, k, mode):
    """Stepping the law by index arrays agrees with sparse products P^T mu."""
    params = ModelParams(n, k)
    curve = exclusion.brute_force_tv_curve(params, mode, 40)
    np.testing.assert_allclose(curve, tv_curve_csr(params, mode, 40), rtol=0, atol=1e-15)
