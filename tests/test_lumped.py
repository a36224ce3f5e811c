"""Lumped birth-death kernel: equilibrium, moments, mixing curves."""

import importlib.util
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from mixlab import ModelParams, lumped
from mixlab.config import parse_config
from mixlab.experiments import run_oracle_check
from mixlab.lumped import (
    BirthDeathKernel,
    build_kernel,
    check_distribution,
    d_curve,
    delta_at,
    distances_at,
    eigenfunction_check,
    equilibrium,
    evolve,
    mean_gap_bound,
    mixing_times,
    moments_at,
    t_mix,
    tv_distance,
)
from reference import mean_gap_bound_of_law


def test_kernel_frozen_example():
    kernel = build_kernel(ModelParams(4, 2))
    np.testing.assert_array_equal(kernel.up, [0.5, 0.125, 0.0])
    np.testing.assert_array_equal(kernel.down, [0.0, 0.125, 0.5])
    np.testing.assert_array_equal(kernel.stay, [0.5, 0.75, 0.5])
    assert kernel.size == 3


def test_kernel_arrays_are_locked():
    kernel = build_kernel(ModelParams(6, 2))
    with pytest.raises(ValueError):
        kernel.up[0] = 0.0


@pytest.mark.parametrize("n,k", [(4, 2), (10, 5), (100, 7), (1000, 200), (12345, 617)])
def test_kernel_rows_and_laziness(n, k):
    kernel = build_kernel(ModelParams(n, k))
    rows = kernel.up + kernel.down + kernel.stay
    np.testing.assert_allclose(rows, 1.0, rtol=0, atol=1e-15)
    assert kernel.stay.min() >= 0.5 - 1e-15
    assert kernel.up[-1] == 0.0 and kernel.down[0] == 0.0
    assert kernel.up.min() >= 0.0 and kernel.down.min() >= 0.0


def test_kernel_size_cap():
    with pytest.raises(ValueError):
        build_kernel(ModelParams(20_000_001, 100))


def test_equilibrium_frozen_example():
    np.testing.assert_allclose(
        equilibrium(ModelParams(4, 2)), [1 / 6, 2 / 3, 1 / 6], rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("n,k", [(4, 2), (30, 6), (1000, 31), (1000, 500)])
def test_equilibrium_matches_hypergeometric(n, k):
    """The ratio recurrence against scipy's hypergeometric pmf."""
    pi = equilibrium(ModelParams(n, k))
    ref = stats.hypergeom(n, k, k).pmf(np.arange(k + 1))
    np.testing.assert_allclose(pi, ref, rtol=1e-11, atol=1e-300)
    np.testing.assert_allclose(pi.sum(), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(1000, 200), (20000, 283), (100_000, 633)])
def test_equilibrium_matches_the_exact_integer_law(n, k):
    """Against C(k, m) C(n - k, k - m) / C(n, k) in integers, each entry
    correctly rounded, pi is within TV 1e-13."""
    total = math.comb(n, k)
    exact = np.array([math.comb(k, m) * math.comb(n - k, k - m) / total for m in range(k + 1)])
    assert tv_distance(equilibrium(ModelParams(n, k)), exact) <= 1e-13


def test_multiplicities_match_exact_integers():
    """log d_i = log(C(n, i) - C(n, i - 1)) within 1e-12 for i <= 200 at n = 10^6."""
    n = 10**6
    spectrum = lumped._Spectrum(ModelParams(n, 2000), equilibrium(ModelParams(n, 2000)))
    exact = [math.log(math.comb(n, i) - math.comb(n, i - 1)) for i in range(1, 201)]
    np.testing.assert_allclose(spectrum.log_d[:200], exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(4, 2), (10, 5), (200, 40), (1000, 500)])
def test_detailed_balance(n, k):
    kernel = build_kernel(ModelParams(n, k))
    pi = equilibrium(ModelParams(n, k))
    flow_up = pi[:-1] * kernel.up[:-1]
    flow_down = pi[1:] * kernel.down[1:]
    np.testing.assert_allclose(flow_up, flow_down, rtol=0, atol=1e-13)


def test_stationarity_under_evolution():
    params = ModelParams(200, 40)
    pi = equilibrium(params)
    after = evolve(pi, build_kernel(params), 1)
    np.testing.assert_allclose(after, pi, rtol=0, atol=1e-14)


def test_evolve_frozen_one_step():
    out = evolve(delta_at(2, 3), build_kernel(ModelParams(4, 2)), 1)
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.5])


def test_evolve_long_run_reaches_equilibrium():
    params = ModelParams(300, 60)
    p = evolve(delta_at(60, 61), build_kernel(params), 4000)
    np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-12)
    assert p.min() >= 0.0
    np.testing.assert_allclose(p, equilibrium(params), rtol=0, atol=1e-10)


def test_evolve_validation():
    kernel = build_kernel(ModelParams(4, 2))
    with pytest.raises(ValueError):
        evolve(delta_at(2, 3), kernel, -1)
    with pytest.raises(ValueError):
        evolve(delta_at(2, 4), kernel, 1)  # wrong length
    with pytest.raises(ValueError):
        evolve(np.array([0.5, 0.5, 0.5]), kernel, 1)  # mass 1.5


def test_check_distribution_rejects():
    with pytest.raises(ValueError):
        check_distribution(np.array([0.7, -0.2, 0.5]))
    with pytest.raises(ValueError):
        check_distribution(np.array([0.7, 0.2]))
    check_distribution(np.array([0.25, 0.75]))


def test_tv_distance_properties():
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.5, 0.25, 0.25])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.3, abs=1e-15)
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(delta_at(2, 3), equilibrium(ModelParams(4, 2))) == pytest.approx(
        5.0 / 6.0, abs=1e-15
    )
    with pytest.raises(ValueError):
        tv_distance(a, np.array([1.0, 0.0]))


def test_moment_closed_forms_frozen():
    params = ModelParams(4, 2)
    assert moments_at(params, 0, 2) == (2.0, 0.0)
    assert moments_at(params, 1, 2)[0] == pytest.approx(1.5, abs=1e-15)
    # the corrected-constant witness: E[W_1^2] from W_0 = 2 is 2.5
    mean, var = moments_at(params, 1)
    assert var + mean * mean == pytest.approx(2.5, abs=1e-14)
    # the t -> infinity limits are the stationary moments
    pi = equilibrium(params)
    mean, var = moments_at(params, 10_000, 2)
    assert mean == pytest.approx(float(np.arange(3) @ pi), abs=1e-12)
    assert var + mean * mean == pytest.approx(float((np.arange(3) ** 2) @ pi), abs=1e-12)


@pytest.mark.parametrize("n,k", [(10, 4), (100, 31)])
@pytest.mark.parametrize("w0", [0, 2])
def test_moment_closed_forms_match_evolution(n, k, w0):
    params = ModelParams(n, k)
    kernel = build_kernel(params)
    p = delta_at(w0, k + 1)
    values = np.arange(k + 1, dtype=float)
    mean, var = moments_at(params, np.arange(40), w0)
    for t in range(40):
        assert p @ values == pytest.approx(mean[t], rel=1e-12, abs=1e-12)
        assert p @ values**2 == pytest.approx(var[t] + mean[t] ** 2, rel=1e-12, abs=1e-12)
        p = evolve(p, kernel, 1)


def _exact_moments(n, k, w0, t_max):
    """(E[W_t], Var(W_t)) for t = 0..t_max as fractions, from the law
    stepped in integers: entry i of ``law`` is n^(2t) P[W_t = i]."""
    nsq = n * n
    up = [2 * (k - i) ** 2 for i in range(k + 1)]
    down = [2 * i * (n - 2 * k + i) for i in range(k + 1)]
    law = [0] * (k + 1)
    law[w0] = 1
    out = []
    for t in range(t_max + 1):
        scale = nsq**t
        mean = Fraction(sum(i * x for i, x in enumerate(law)), scale)
        second = Fraction(sum(i * i * x for i, x in enumerate(law)), scale)
        out.append((mean, second - mean * mean))
        law = [
            x * (nsq - up[i] - down[i])
            + (law[i - 1] * up[i - 1] if i else 0)
            + (law[i + 1] * down[i + 1] if i < k else 0)
            for i, x in enumerate(law)
        ]
    return out


def test_moments_at_match_exact_rational_stepping():
    """Every (n, k) with n <= 30, n = 2 included, from three starts: the
    closed forms are within 2e-15 of E[W_t^2] of the exact moments."""
    worst = 0.0
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            for w0 in {0, k // 2, k}:
                mean, var = moments_at(ModelParams(n, k), np.arange(61), w0)
                for t, (exact_mean, exact_var) in enumerate(_exact_moments(n, k, w0, 60)):
                    scale = max(1.0, float(exact_var + exact_mean**2))
                    worst = max(
                        worst,
                        abs(mean[t] - float(exact_mean)) / scale,
                        abs(var[t] - float(exact_var)) / scale,
                    )
    assert worst <= 2e-15


@pytest.mark.parametrize("n,k", [(4, 2), (10, 4), (100, 31), (1000, 200)])
def test_moment_curves_keep_the_bits_of_the_per_t_forms(n, k):
    """A curve over t = 0..10 000 holds, at each t, the bits of moments_at at that t alone."""
    params = ModelParams(n, k)
    for w0 in (0, k):
        mean, var = moments_at(params, np.arange(10_001), w0)
        assert mean.shape == var.shape == (10_001,)
        for t in (0, 1, 37, 10_000):
            assert (mean[t], var[t]) == moments_at(params, t, w0)


@pytest.mark.parametrize("n,k,times", [
    (2000, 400, (1, 10, 100, 1000, 4000, 6000)),
    (20_000, 283, (1, 100, 30_000, 60_000)),
    (100_000, 20_000, (1, 10, 1000, 5000)),
], ids=["2000-400", "20000-283", "100000-20000"])
def test_moments_at_match_the_stepped_law_at_scale(n, k, times):
    """Against the moments of the stepped law, relative to E[W_t^2]: the
    stepped variance E[W^2] - E[W]^2 cancels there, the closed form does not."""
    params = ModelParams(n, k)
    kernel = build_kernel(params)
    p, done = delta_at(k, k + 1), 0
    values = np.arange(k + 1, dtype=float)
    for t in times:
        p, done = evolve(p, kernel, t - done), t
        second = p @ values**2
        mean, var = moments_at(params, t)
        assert abs(mean - p @ values) <= 1e-12 * second
        assert abs(var + mean * mean - second) <= 1e-12 * second


def test_moments_at_validation():
    params = ModelParams(10, 4)
    assert moments_at(params, 0) == (4.0, 0.0)
    mean, var = moments_at(params, [0, 3])
    assert mean.shape == var.shape == (2,)
    for args in ((-1,), ([3, -1],), (3, -1), (3, 5)):
        with pytest.raises(ValueError):
            moments_at(params, *args)


def test_mean_decays_monotonically_from_packed_start():
    params = ModelParams(50, 10)
    target = 10 * 10 / 50.0
    means = moments_at(params, np.arange(60), 10)[0]
    assert (np.diff(means) < 0).all()
    assert (means > target).all()


@pytest.mark.parametrize("n,k", [(4, 2), (1000, 200), (100_000, 50_000)])
def test_eigenfunction_residual(n, k):
    assert eigenfunction_check(build_kernel(ModelParams(n, k))) < 1e-13


def test_d_curve_monotone_and_bounded():
    params = ModelParams(60, 12)
    profile = d_curve(params, 500)
    assert profile.times[0] == 0 and profile.times[-1] == 500
    assert (np.diff(profile.tv) <= 1e-12).all()
    assert profile.tv.min() >= 0.0 and profile.tv.max() <= 1.0
    # d(0) is the distance from the point mass at k
    assert profile.tv[0] == pytest.approx(1.0 - equilibrium(params)[-1], abs=1e-12)


def test_d_curve_stride_subsamples():
    params = ModelParams(40, 8)
    full = d_curve(params, 60)
    coarse = d_curve(params, 60, stride=5)
    np.testing.assert_array_equal(coarse.times, full.times[::5])
    np.testing.assert_allclose(coarse.tv, full.tv[::5], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        d_curve(params, -1)
    with pytest.raises(ValueError):
        d_curve(params, 10, stride=0)


def test_distances_at_match_one_call_evolution():
    """One pass over sorted times gives the bits of evolving each t afresh."""
    params = ModelParams(60, 12)
    kernel, pi = build_kernel(params), equilibrium(params)
    distances = distances_at(params, [40, 0, 7, 40, 150])
    assert sorted(distances) == [0, 7, 40, 150]
    for t, d in distances.items():
        assert d == tv_distance(evolve(delta_at(12, 13), kernel, t), pi)
    with pytest.raises(ValueError):
        distances_at(params, [-1])


def _decimal_distance(params, t):
    """d(t) from W_0 = k in 40-digit decimal arithmetic: the kernel's t-th
    power from the top bit of t down (square, then one step more where the
    bit is set), against pi from exact binomials."""
    n, k = params.n, params.k
    size = k + 1
    with localcontext() as ctx:
        ctx.prec = 40
        up = [Decimal(2 * (k - i) ** 2) / (n * n) for i in range(size)]
        down = [Decimal(2 * i * (n - 2 * k + i)) / (n * n) for i in range(size)]
        stay = [1 - u - d for u, d in zip(up, down)]
        power = [[Decimal(int(i == j)) for j in range(size)] for i in range(size)]
        for bit in bin(t)[2:]:
            cols = list(zip(*power))
            power = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in power]
            if bit == "1":
                power = [
                    [
                        row[j] * stay[j]
                        + (row[j - 1] * up[j - 1] if j else 0)
                        + (row[j + 1] * down[j + 1] if j < k else 0)
                        for j in range(size)
                    ]
                    for row in power
                ]
        total = math.comb(n, k)
        pi = [Decimal(math.comb(k, y) * math.comb(n - k, k - y)) / total for y in range(size)]
        return float(sum(abs(a - b) for a, b in zip(power[k], pi)) / 2)


def _admission_limit(k):
    """The largest t with e(t) <= 1e-9, from e(t) ~ 1/2 t (k + 1) 2^-53."""
    t = int(2e-9 / ((k + 1) * 2.0**-53))
    while lumped._power_error(t, k) > 1e-9:
        t -= 1
    return t


@pytest.mark.parametrize("n, k", [(10**6, 1), (10**6, 2), (10**6, 8), (10**6, 31), (10**5, 100)])
def test_powered_distances_lie_within_their_bound(n, k):
    """Up to the admission limit, where e(t) reaches 1e-9 at t (k + 1) near
    2e-9 * 2^53 = 1.8*10^7, the powered d(t) lies within e(t) of a 40-digit reference for
    k <= 31 and of the stepped d(t) at k = 100."""
    limit = _admission_limit(k)
    assert 0.999 * 2e-9 * 2**53 < limit * (k + 1) <= 2e-9 * 2**53
    assert lumped._power_error(limit + 1, k) > 1e-9
    # powering would pay on either side; the error bound alone stops it
    assert lumped._powering_pays(limit, k, 3) and not lumped._powering_pays(limit + 1, k, 3)
    params = ModelParams(n, k)
    kernel, pi = build_kernel(params), equilibrium(params)
    times = [1, limit // 3, limit]
    powered = lumped._powered_distances(kernel, pi, times)
    if k < 100:
        reference = [_decimal_distance(params, t) for t in times]
    else:
        stepped = lumped._Stepper(kernel, delta_at(k, k + 1))
        reference = []
        for t, last in zip(times, [0, *times]):
            stepped.advance(t - last)
            reference.append(tv_distance(stepped.law(), pi))
    for t, d, ref in zip(times, powered, reference):
        assert abs(d - ref) <= lumped._power_error(t, k), (t, d, ref)
    assert reference[-1] > 1e-9  # the chain has not mixed at the limit


def _perfbench_small_ops():
    """The benchmark's self-test ops (perfbench/workloads.py SMALL)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [op.config for ops in module.SMALL.values() for op in ops]


def _exact_distance_configs():
    """(n, k, t_values) of every perfbench SMALL op and MINIMAL config that
    takes exact distances (the coupling and bounds kinds)."""
    from test_config_records import MINIMAL

    configs = [*_perfbench_small_ops(), *MINIMAL.values()]
    return [(c["n"], c["k"], c["t_values"]) for c in configs if "t_values" in c]


@pytest.mark.parametrize("n, k, times, powers", [
    (10**4, 100, [12000, 18000], True),
    (1000, 200, [1500, 2500], False),
    (2000, 400, [4000, 5000, 6000], False),
    *((n, k, times, False) for n, k, times in _exact_distance_configs()),
])
def test_distances_at_powers_only_where_it_pays(monkeypatch, n, k, times, powers):
    """The collector's sparse size powers; its dense size, the montecarlo
    coupling and every small config step, with the bits of one-call
    evolution.  The powered d(t) lies within e(t) of the stepped one."""
    params = ModelParams(n, k)
    kernel, pi = build_kernel(params), equilibrium(params)
    stepped = {t: tv_distance(evolve(delta_at(k, k + 1), kernel, t), pi) for t in times}
    real, calls = lumped._powered_distances, []
    monkeypatch.setattr(lumped, "_powered_distances",
                        lambda *args: calls.append(args) or real(*args))
    distances = distances_at(params, times)
    assert len(calls) == int(powers)
    assert distances_at(params, np.array(times)) == distances
    for t in times:
        if powers:
            assert abs(distances[t] - stepped[t]) <= lumped._power_error(t, k)
        else:
            assert distances[t] == stepped[t]


def test_powered_mass_drift_is_an_error_not_rescaled(monkeypatch):
    """A powered law may drift by 1e-10 plus 2 e(t): at (10^4, 100) and
    t = 18000 that is 3.0e-10.  Stays raised by 1e-14 (drift 1.8e-10) pass;
    by 2e-14 (drift 3.6e-10) or 1e-9 they raise."""
    params = ModelParams(10**4, 100)
    assert 1e-10 + 2 * lumped._power_error(18000, 100) == pytest.approx(3.02e-10, rel=1e-3)
    monkeypatch.setattr(lumped, "build_kernel", lambda params: _leaky_kernel(params, 1e-14))
    distances_at(params, [12000, 18000])
    for leak in (2e-14, 1e-9):
        monkeypatch.setattr(lumped, "build_kernel", lambda params: _leaky_kernel(params, leak))
        with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
            distances_at(params, [12000, 18000])


def _stepping_estimate(steps, k):
    """The stepping cost estimate, in ns, of ``steps`` steps of a law on 0..k."""
    return steps * (lumped._STEP_NS + lumped._STATE_STEP_NS * (k + 1))


@pytest.mark.parametrize("call, prefix", [
    (lambda params: d_curve(params, 150, stride=7), "t_max=150 with k=12 "),
    (lambda params: distances_at(params, [150, 7]), "t=150 with k=12 "),
], ids=["d_curve", "distances_at"])
def test_stepping_runs_at_the_cap_and_is_refused_below_it(monkeypatch, call, prefix):
    """A curve or distances to t = 150 are given when the cap is exactly the
    estimate of 150 steps, and refused in one line, before any step or
    allocation, when the cap is one nanosecond below it."""
    params = ModelParams(60, 12)
    estimate = _stepping_estimate(150, 12)
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate)
    call(params)
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate - 1)
    monkeypatch.setattr(lumped, "build_kernel", None)  # so that any step or allocation fails
    monkeypatch.setattr(lumped, "_Stepper", None)
    with pytest.raises(ValueError, match=rf"^{prefix}is beyond the cap of \d+ s of stepping, "
                                         rf"at an estimated \d+ s$"):
        call(params)


def test_stepping_cap_refuses_what_the_state_step_cap_did():
    """At 3 ns an entry, every run beyond 10^11 state-steps is refused, at every k."""
    for k in (10, 283, 2000, 20_000, 200_000):
        steps = 10**11 // (k + 1) + 1
        with pytest.raises(ValueError, match=rf"^t={steps} with k={k} is beyond the cap of 300 s "):
            distances_at(ModelParams(10 * k, k), [steps])


TINY = np.finfo(float).tiny


def _dense_evolve(p, kernel, steps):
    """The plain stepwise update over all k + 1 entries, without any flush."""
    for _ in range(steps):
        new = p * kernel.stay
        new[1:] += p[:-1] * kernel.up[:-1]
        new[:-1] += p[1:] * kernel.down[1:]
        mass = new.sum()
        if abs(mass - 1.0) > 1e-12:
            new /= mass
        p = new
    return p


def _dense_curve(params, t_max, stride=1):
    """d(t) at t = 0, stride, ... by the dense update, one tv_distance per law."""
    kernel, pi = build_kernel(params), equilibrium(params)
    p = delta_at(params.k, params.k + 1)
    tv = [tv_distance(p, pi)]
    for _ in range(t_max // stride):
        p = _dense_evolve(p, kernel, stride)
        tv.append(tv_distance(p, pi))
    return np.minimum.accumulate(np.array(tv)), p


def _has_subnormal(p):
    return bool(((p > 0.0) & (p < TINY)).any())


@pytest.mark.parametrize("n,k,t_max", [(2000, 400, 5000), (500, 10, 1500)])
@pytest.mark.parametrize("stride", [1, 7])
def test_d_curve_bits_match_dense_stepping(n, k, t_max, stride):
    """The windowed engine and the block distances give the dense curve's bits."""
    params = ModelParams(n, k)
    ref, last = _dense_curve(params, t_max, stride)
    if k == 400:
        assert _has_subnormal(last)  # the dense tail went subnormal: the flush was exercised
    np.testing.assert_array_equal(d_curve(params, t_max, stride).tv, ref)


@pytest.mark.parametrize("start", ["point", "equilibrium"])
def test_evolve_matches_dense_stepping_above_the_flush(start):
    """Laws agree bit for bit except where the dense law is near the double range's
    bottom, and differ by at most the flush bound (k + 1) * steps * tiny."""
    params, steps = ModelParams(2000, 400), 5000
    kernel = build_kernel(params)
    p0 = delta_at(400, 401) if start == "point" else equilibrium(params)
    got, ref = evolve(p0, kernel, steps), _dense_evolve(p0, kernel, steps)
    normal = ref >= 1e-290
    np.testing.assert_array_equal(got[normal], ref[normal])
    assert np.abs(got - ref).sum() <= 401 * steps * TINY
    small = ModelParams(500, 10)
    for p0 in (delta_at(10, 11), equilibrium(small)):
        np.testing.assert_array_equal(
            evolve(p0, build_kernel(small), 700), _dense_evolve(p0, build_kernel(small), 700)
        )


def test_evolve_returns_no_subnormal_entries():
    params = ModelParams(2000, 400)
    kernel = build_kernel(params)
    pi = equilibrium(params)
    assert _has_subnormal(pi)
    for p0, steps in ((delta_at(400, 401), 5000), (pi, 0), (pi, 3)):
        law = evolve(p0, kernel, steps)
        assert not _has_subnormal(law)
        assert law.min() >= 0.0
    assert not _has_subnormal(evolve(evolve(delta_at(400, 401), kernel, 4000), kernel, 2000))
    # between two far modes the law holds subnormals that no window edge reaches
    far = ModelParams(10**6, 400)
    p0 = np.zeros(401)
    p0[0] = p0[400] = 0.5
    ref, law = _dense_evolve(p0, build_kernel(far), 200), evolve(p0, build_kernel(far), 200)
    assert _has_subnormal(ref) and not _has_subnormal(law)
    normal = ref >= 1e-290
    np.testing.assert_array_equal(law[normal], ref[normal])


def test_window_shrinks_past_the_flushed_tail():
    """The engine stops stepping the entries the dense law holds as subnormals."""
    params = ModelParams(2000, 400)
    kernel = build_kernel(params)
    stepper = lumped._Stepper(kernel, delta_at(400, 401))
    stepper.advance(5000)
    ref = _dense_evolve(delta_at(400, 401), kernel, 5000)
    tail = np.flatnonzero((ref > 0.0) & (ref < TINY))
    assert tail.size and (tail > stepper.hi).all()
    law = stepper.laws[stepper.cur]
    assert law[stepper.lo] >= TINY and law[stepper.hi] >= TINY


@pytest.mark.parametrize("edge", [0, 10])
def test_evolve_clears_a_tail_flushed_in_one_step(edge):
    """A far edge entry that drops below the normal range takes the zeros
    between it and the bulk with it, and no later law holds it again."""
    kernel = build_kernel(ModelParams(20, 10))  # stay = 1/2 at both ends
    p0 = delta_at(10 - edge, 11)
    p0[edge] = 2.5e-308
    for steps in (1, 2, 3):
        ref, law = _dense_evolve(p0, kernel, steps), evolve(p0, kernel, steps)
        np.testing.assert_array_equal(law[ref >= TINY], ref[ref >= TINY])
        assert (law[ref < TINY] == 0.0).all()


def _fix_horizon(monkeypatch, t):
    """Make mixing_times stop at t in place of its proven horizon."""
    monkeypatch.setattr(lumped, "default_horizon", lambda params, eps_min: t)


def test_mixing_times_crossing_on_block_boundaries(monkeypatch):
    """Crossings at the last and first laws of a block of 64, and a horizon equal
    to the crossing time, give the dense scan's answers."""
    params = ModelParams(60, 12)
    ref, _ = _dense_curve(params, 200)
    eps_at = {t: float(ref[t]) for t in (63, 64, 65)}
    assert ref[62] > ref[63] > ref[64] > ref[65] > ref[66]
    times = mixing_times(params, tuple(eps_at.values()))
    assert times == {eps: t for t, eps in eps_at.items()}
    for t, eps in eps_at.items():
        _fix_horizon(monkeypatch, t)
        assert mixing_times(params, (eps,)) == {eps: t}
        _fix_horizon(monkeypatch, t - 1)
        with pytest.raises(RuntimeError):
            mixing_times(params, (eps,))


def test_d_curve_rejects_a_rise_beyond_wobble(monkeypatch):
    """Rises up to 1e-12 are clamped; a 1e-9 rise is an error, not clamped away."""
    params = ModelParams(40, 8)

    def fake(values):
        return lambda stepper, pi, stride, count: iter([np.array(values)])

    monkeypatch.setattr(lumped, "_distances", fake([0.9, 0.5, 0.5 + 1e-13, 0.1]))
    np.testing.assert_array_equal(d_curve(params, 3).tv, [0.9, 0.5, 0.5, 0.1])
    monkeypatch.setattr(lumped, "_distances", fake([0.9, 0.5, 0.5 + 1e-9, 0.1]))
    with pytest.raises(RuntimeError, match="rose by"):
        d_curve(params, 3)


def _leaky_kernel(params, leak=1e-9):
    """The exact kernel with every stay raised by ``leak``, so mass grows each step."""
    kernel = build_kernel(params)
    return BirthDeathKernel(params, kernel.up, kernel.down, kernel.stay + leak)


def test_mass_drift_is_an_error_not_rescaled(monkeypatch):
    """A law that gains mass raises where it leaves the engine: evolve's
    result, and the laws behind d_curve, mixing_times and oracle-check."""
    params = ModelParams(40, 8)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        evolve(delta_at(8, 9), _leaky_kernel(params), 200)
    monkeypatch.setattr(lumped, "build_kernel", _leaky_kernel)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        d_curve(params, 200)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        mixing_times(params, (0.1,))
    # a leak that one step of evolve, oracle-check's stationarity identity, lets through
    monkeypatch.setattr(lumped, "build_kernel", lambda params: _leaky_kernel(params, 2e-11))
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        run_oracle_check(parse_config({"kind": "oracle-check", "n_max": 4, "t_max": 30}))


def test_mass_check_allows_the_rounding_of_the_steps_taken(monkeypatch):
    """Stepping rounds the mass by about 3e-12 over 10^5 steps at (10^7, 2).
    With the constant part of the check cut to 1e-13, the 8u allowed per
    step taken lets that law through; the steps are counted per advance."""
    monkeypatch.setattr(lumped, "_MASS_HARD", 1e-13)
    law = evolve(delta_at(2, 3), build_kernel(ModelParams(10**7, 2)), 10**5)
    assert 1e-13 < abs(law.sum() - 1.0) <= 1e-13 + 8 * np.finfo(float).eps * 10**5
    stepper = lumped._Stepper(build_kernel(ModelParams(10, 2)), delta_at(2, 3))
    stepper.advance(7, np.empty((4, 3)))
    stepper.advance(5)
    assert stepper.steps == 33


def test_rise_of_the_true_curve_is_an_error(monkeypatch):
    """Against a point mass at k - 1, d(t) falls and then rises: both scans say so."""
    params = ModelParams(40, 8)
    monkeypatch.setattr(lumped, "equilibrium", lambda p: delta_at(p.k - 1, p.k + 1))
    with pytest.raises(RuntimeError, match="rose by"):
        d_curve(params, 400)
    # eps = 0.01 is never reached; the rise is found long before the horizon
    with pytest.raises(RuntimeError, match="rose by"):
        mixing_times(params, (0.01,))


def test_t_mix_and_mixing_times_agree():
    params = ModelParams(200, 40)
    profile = d_curve(params, 2000)
    eps_grid = (0.5, 0.25, 0.1)
    via_profile = {eps: t_mix(profile, eps) for eps in eps_grid}
    via_scan = mixing_times(params, eps_grid)
    assert via_profile == via_scan
    # threshold property: d(T) <= eps < d(T - 1)
    for eps, threshold in via_scan.items():
        assert profile.tv[threshold] <= eps < profile.tv[threshold - 1]


def _count_stepped_blocks(monkeypatch):
    """Patch _distances to count the blocks of laws the stepper yields."""
    blocks = []
    distances = lumped._distances

    def counted(*args):
        for tv in distances(*args):
            blocks.append(tv.size)
            yield tv

    monkeypatch.setattr(lumped, "_distances", counted)
    return blocks


@pytest.mark.parametrize("n", [500, 2000, 5000])
def test_spectral_thresholds_match_the_stepped_curve(n, monkeypatch):
    """Past the first block every threshold is bisected on the expansion, and
    each equals the first t of the stepped curve with d(t) <= eps."""
    eps_grid = (0.9, 0.75, 0.5, 0.25, 0.1)
    for k in (n // 5, n // 20, math.ceil(2 * math.sqrt(n))):
        params = ModelParams(n, k)
        blocks = _count_stepped_blocks(monkeypatch)
        times = mixing_times(params, eps_grid)
        assert blocks == [64]
        monkeypatch.undo()
        profile = d_curve(params, max(times.values()))
        assert times == {eps: t_mix(profile, eps) for eps in eps_grid}
        assert min(times.values()) > 64


def test_eps_at_a_stepped_distance_is_decided_by_stepping():
    """An eps equal to the stepper's own d(t) lies within the expansion's
    error, so stepping decides it, and the answer is that t."""
    params = ModelParams(2000, 400)
    profile = d_curve(params, 5000)
    for t in (2600, 2801, 3002, 3203, 3404, 3605, 3806, 4007):
        eps = float(profile.tv[t])
        assert profile.tv[t - 1] > eps
        assert mixing_times(params, (eps,)) == {eps: t}


def test_stepping_on_runs_at_the_cap_and_is_refused_below_it(monkeypatch):
    """An eps left to stepping after the first block of 64 laws is stepped
    when the cap is exactly the estimate of the horizon - 64 steps on, and
    refused with eps, t and the horizon in one line, before any step beyond
    the first block, when the cap is one nanosecond below it."""
    params = ModelParams(2000, 400)
    eps = float(d_curve(params, 2600).tv[2600])
    horizon = lumped.default_horizon(params, eps)
    estimate = _stepping_estimate(horizon - 64, 400)
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate)
    assert mixing_times(params, (eps,)) == {eps: 2600}
    monkeypatch.setattr(lumped, "_STEPPING_CAP_NS", estimate - 1)
    taken, advance = [], lumped._Stepper.advance

    def counted(stepper, steps, rows=(None,)):
        taken.append(steps * len(rows))
        advance(stepper, steps, rows)

    monkeypatch.setattr(lumped._Stepper, "advance", counted)
    with pytest.raises(RuntimeError, match=rf"^eps={eps} is not decided .* from t=64, .* "
                                           rf"horizon {horizon} is beyond the cap [^\n]*$"):
        mixing_times(params, (eps,))
    assert sum(taken) == 63


@pytest.mark.parametrize("n,k,terms", [(2000, 400, None), (2000, 400, 40), (500, 25, 10),
                                        (5000, 142, None), (5000, 142, 30), (10**5, 100, None)])
def test_spectral_error_bounds_the_stepped_distance(n, k, terms):
    """e(t) >= |d_spec(t) - d_step(t)| at every sampled t; with the expansion
    cut short, also at t where the truncation term is still above 1e-13.
    A call over an array of times agrees with one call per t within e(t).
    At (10^5, 100) the expansion itself stops at 86 of its 91 kept states,
    so its truncation and left-out states are in play unpatched."""
    params = ModelParams(n, k)
    spectrum = lumped._Spectrum(params, equilibrium(params))
    assert spectrum.terms == (86 if n == 10**5 else min(k, 200))
    if terms is not None:
        spectrum.terms, spectrum.basis = terms, spectrum.basis[:terms]
    profile = d_curve(params, 3 * n)
    times = np.arange(0, 3 * n + 1, 7 * max(1, n // 5000))  # at most about 2100 times
    d_all, err_all = spectrum.at(times)
    informative = truncated = 0
    for t, d, err in zip(times, d_all, err_all):
        d_one, err_one = spectrum.at(t)
        assert abs(d - d_one) <= err and err == pytest.approx(err_one, rel=1e-12)
        assert abs(d - profile.tv[t]) <= err
        tail = spectrum.log_d[spectrum.terms :] + 2 * t * spectrum.log_lam[spectrum.terms :]
        informative += err < 1e-6
        truncated += tail.size > 0 and err < 1 and 0.5 * math.exp(0.5 * logsumexp(tail)) > 1e-13
    assert informative > 50
    if terms is not None:
        assert truncated > 20


def test_small_k_at_a_million_sites_is_bisected():
    """At (10^6, 2000) the expansion keeps its terms and decides both eps."""
    params = ModelParams(10**6, 2000)
    assert lumped._Spectrum(params, equilibrium(params)).terms >= 100
    assert mixing_times(params, (0.75, 0.25)) == {0.75: 2917378, 0.25: 3644942}


@pytest.mark.parametrize("n,k", [(200, 40), (1000, 10)] + [
    (n, k) for n in (500, 2000, 5000) for k in (n // 5, n // 20, math.ceil(2 * math.sqrt(n)))
])
def test_horizon_is_proven(n, k, monkeypatch):
    """At T = default_horizon(eps), 1/2 sqrt(chi2(T)) <= eps/2 from the full
    sum of d_i lambda_i^{2T}, and no threshold lies beyond T even when
    mixing_times may look four times further."""
    params = ModelParams(n, k)
    spectrum = lumped._Spectrum(params, equilibrium(params))
    eps_grid = (0.9, 0.75, 0.5, 0.25, 0.1, 1e-6)
    horizon = {eps: lumped.default_horizon(params, eps) for eps in eps_grid}
    for eps, t in horizon.items():
        assert 0.5 * math.exp(0.5 * logsumexp(spectrum.log_d + 2 * t * spectrum.log_lam)) <= eps / 2
    _fix_horizon(monkeypatch, 4 * horizon[0.1])
    for eps, t in mixing_times(params, eps_grid[:-1]).items():
        assert t <= horizon[eps]


def test_horizon_below_a_spectral_crossing_raises(monkeypatch):
    params = ModelParams(2000, 400)
    blocks = _count_stepped_blocks(monkeypatch)
    _fix_horizon(monkeypatch, 5175)
    assert mixing_times(params, (0.1,)) == {0.1: 5175}
    _fix_horizon(monkeypatch, 5174)
    with pytest.raises(RuntimeError, match="within the horizon 5174"):
        mixing_times(params, (0.1,))
    assert blocks == [64, 64]


def test_t_mix_edge_cases():
    profile = d_curve(ModelParams(200, 40), 3)
    assert t_mix(profile, 0.01) is None
    with pytest.raises(ValueError):
        t_mix(profile, 1.5)
    with pytest.raises(ValueError):
        t_mix(profile, 0.0)


def test_mixing_times_frozen_point():
    assert mixing_times(ModelParams(1000, 10), (0.25,))[0.25] == 1727


def test_mixing_times_validation(monkeypatch):
    _fix_horizon(monkeypatch, 5)
    with pytest.raises(RuntimeError):
        mixing_times(ModelParams(200, 40), (0.01,))
    with pytest.raises(ValueError):
        mixing_times(ModelParams(200, 40), ())
    with pytest.raises(ValueError):
        mixing_times(ModelParams(200, 40), (0.0,))


def test_variance_bound_report():
    """Var(W_t) <= C k^2/n + e^gamma k/sqrt(n) at t = floor(n log n / 4 - gamma n / 2),
    with C = 10 and gamma = 0, on the closed-form variance of W_t from W = k."""
    n, k, gamma = 1000, 200, 0.0
    t = math.floor(0.25 * n * math.log(n) - 0.5 * gamma * n)
    assert t == 1726
    variance = moments_at(ModelParams(n, k), t)[1]
    assert variance < 10.0 * k * k / n + math.exp(gamma) * k / math.sqrt(n)


def test_second_moment_lower_bound_dominated_by_tv():
    params = ModelParams(50, 10)
    distances = distances_at(params, range(120))
    for t, d in distances.items():
        bound = mean_gap_bound(params, t)
        assert 0.0 <= bound < 1.0
        assert bound <= d + 1e-12


def test_mean_gap_bound_matches_the_law_based_bound():
    """The closed-form bound is within 1e-12 of the bound from the stepped
    law's moments, at the benchmark's bounds sizes and acceptance's grid."""
    for n, k, times in (
        (10_000, 100, (12_000, 18_000)),
        (1000, 200, (1500, 2500)),
        (30, 6, (1, 5, 15, 40, 120)),
        (100, 20, (5, 25, 60, 150)),
        (1000, 31, (300, 900, 1700, 3000)),
        (1000, 10, (200, 800, 1600)),
    ):
        params = ModelParams(n, k)
        kernel, pi = build_kernel(params), equilibrium(params)
        for t in times:
            law = evolve(delta_at(k, k + 1), kernel, t)
            assert abs(mean_gap_bound(params, t) - mean_gap_bound_of_law(law, pi)) <= 1e-12


def test_delta_at():
    d = delta_at(3, 5)
    np.testing.assert_array_equal(d, [0, 0, 0, 1, 0])
    with pytest.raises(ValueError):
        delta_at(5, 5)
    with pytest.raises(ValueError):
        delta_at(-1, 5)
