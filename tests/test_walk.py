"""Reflection-principle survival and the lazy walk hitting time."""

import math

import numpy as np
import pytest
from scipy import integrate

from mixlab import replica_stream
from mixlab.walk import (
    WalkParams,
    diffusion_majorant,
    gaussian_limit,
    hitting_time_samples,
    survival_bruteforce,
    survival_exact,
)


def test_survival_frozen_examples():
    assert survival_exact(1, 1, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert survival_exact(1, 2, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert survival_exact(2, 2, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert survival_exact(3, 0, 0.7) == 1.0
    assert survival_bruteforce(1, 1, 0.5) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
def test_exact_matches_bruteforce(q):
    """Reflection identity against the absorbing-wall evolution, no shared code."""
    for m in range(1, 5):
        for steps in range(26):
            assert survival_exact(m, steps, q) == pytest.approx(
                survival_bruteforce(m, steps, q), abs=1e-13
            )


def test_exact_matches_bruteforce_long_horizon():
    # a long horizon puts a thousand move counts into the binomial mixture
    assert survival_exact(10, 3000, 0.3) == pytest.approx(
        survival_bruteforce(10, 3000, 0.3), abs=1e-12
    )


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
            assert gaussian_limit(alpha, beta) <= diffusion_majorant(alpha, beta) + 1e-12


def test_survival_approaches_gaussian_limit():
    # coarse size here; the acceptance suite checks 0.01 at n = 100_000
    n, q = 20_000, 0.01
    scale = math.sqrt(q * n)
    for alpha, beta in [(1.0, 1.0), (0.5, 2.0)]:
        exact = survival_exact(math.ceil(alpha * scale), int(beta * n), q)
        assert abs(exact - gaussian_limit(alpha, beta)) < 0.04
