"""Lumped birth-death kernel: equilibrium, moments, mixing curves."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from mixlab import ModelParams, lumped
from mixlab.lumped import (
    BirthDeathKernel,
    build_kernel,
    check_distribution,
    d_curve,
    delta_at,
    dist_mean,
    dist_second_moment,
    dist_variance,
    eigenfunction_check,
    equilibrium,
    evolve,
    laws_at,
    mixing_times,
    moment_curves,
    t_mix,
    tv_distance,
    tv_lower_bound_second_moment,
)


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
    assert moment_curves(params, 0, 2)[0][0] == 2.0
    assert moment_curves(params, 1, 2)[0][1] == pytest.approx(1.5, abs=1e-15)
    # the corrected-constant witness: E[W_1^2] from W_0 = 2 is 2.5
    assert moment_curves(params, 1)[1][1] == pytest.approx(2.5, abs=1e-14)
    # the t -> infinity limits are the stationary moments
    pi = equilibrium(params)
    assert moment_curves(params, 10_000, 2)[0][10_000] == pytest.approx(
        float(np.arange(3) @ pi), abs=1e-12
    )
    assert moment_curves(params, 10_000)[1][10_000] == pytest.approx(
        float((np.arange(3) ** 2) @ pi), abs=1e-12
    )


@pytest.mark.parametrize("n,k", [(10, 4), (100, 31)])
@pytest.mark.parametrize("w0", [0, 2])
def test_moment_closed_forms_match_evolution(n, k, w0):
    params = ModelParams(n, k)
    kernel = build_kernel(params)
    p = delta_at(w0, k + 1)
    mean, second = moment_curves(params, 39, w0)
    for t in range(40):
        assert dist_mean(p) == pytest.approx(mean[t], rel=1e-12, abs=1e-12)
        assert dist_second_moment(p) == pytest.approx(second[t], rel=1e-12, abs=1e-12)
        p = evolve(p, kernel, 1)


def _mean_per_t(params, w0, t):
    """E[W_t] as computed before the one-pass curves: a closed form per t."""
    n, k = params.n, params.k
    fixed = k * k / n
    return (w0 - fixed) * (1.0 - 2.0 / n) ** t + fixed


def _second_per_t(params, t, w0):
    """E[W_t^2] as computed before the one-pass curves: the recursion rerun from 0."""
    n, k = params.n, params.k
    nf = float(n)
    factor = (1.0 - 2.0 / nf) ** 2
    lin = 4.0 * k * k / nf**2 - 8.0 * k / nf**2 + 2.0 / nf
    const = 2.0 * k * k / nf**2
    m2 = float(w0 * w0)
    m1 = float(w0)
    decay = 1.0 - 2.0 / nf
    fixed = k * k / nf
    for _ in range(t):
        m2 = factor * m2 + lin * m1 + const
        m1 = decay * (m1 - fixed) + fixed
    return m2


@pytest.mark.parametrize("n,k", [(4, 2), (10, 4), (100, 31), (1000, 200)])
def test_moment_curves_keep_the_bits_of_the_per_t_forms(n, k):
    params = ModelParams(n, k)
    for w0 in (0, k):
        mean, second = moment_curves(params, 10_000, w0)
        assert len(mean) == len(second) == 10_001
        for t in (0, 1, 37, 10_000):
            assert mean[t] == _mean_per_t(params, w0, t)
            assert second[t] == _second_per_t(params, t, w0)


def test_moment_curves_validation():
    params = ModelParams(10, 4)
    assert moment_curves(params, 0) == ([4.0], [16.0])
    for args in ((-1,), (3, -1), (3, 5)):
        with pytest.raises(ValueError):
            moment_curves(params, *args)


def test_mean_decays_monotonically_from_packed_start():
    params = ModelParams(50, 10)
    target = 10 * 10 / 50.0
    means = moment_curves(params, 59, 10)[0]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert all(m > target for m in means)


def test_dist_variance_consistency():
    pi = equilibrium(ModelParams(30, 6))
    var = dist_variance(pi)
    assert var == pytest.approx(dist_second_moment(pi) - dist_mean(pi) ** 2, abs=1e-12)
    assert var > 0


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


def test_laws_at_matches_one_call_evolution():
    """One pass over sorted times gives the bits of evolving each t afresh."""
    params = ModelParams(60, 12)
    kernel = build_kernel(params)
    laws = laws_at(params, [40, 0, 7, 40, 150])
    assert sorted(laws) == [0, 7, 40, 150]
    for t, law in laws.items():
        np.testing.assert_array_equal(law, evolve(delta_at(12, 13), kernel, t))
    with pytest.raises(ValueError):
        laws_at(params, [-1])


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
    for law in laws_at(params, [0, 4000, 6000]).values():
        assert not _has_subnormal(law)
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


def _leaky_kernel(params):
    """The exact kernel with every stay raised by 1e-9, so mass grows each step."""
    kernel = build_kernel(params)
    return BirthDeathKernel(params, kernel.up, kernel.down, kernel.stay + 1e-9)


def test_mass_drift_is_an_error_not_rescaled(monkeypatch):
    """A law that gains mass raises where it leaves the engine: evolve's
    result, and the laws behind d_curve and mixing_times."""
    params = ModelParams(40, 8)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        evolve(delta_at(8, 9), _leaky_kernel(params), 200)
    monkeypatch.setattr(lumped, "build_kernel", _leaky_kernel)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        d_curve(params, 200)
    with pytest.raises(RuntimeError, match="mass drifted from 1 by"):
        mixing_times(params, (0.1,))


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


@pytest.mark.parametrize("n,k,terms", [(2000, 400, None), (2000, 400, 40), (500, 25, 10),
                                        (5000, 142, None), (5000, 142, 30)])
def test_spectral_error_bounds_the_stepped_distance(n, k, terms):
    """e(t) >= |d_spec(t) - d_step(t)| at every sampled t; with the expansion
    cut short, also at t where the truncation term is still above 1e-13.
    A call over an array of times agrees with one call per t within e(t)."""
    params = ModelParams(n, k)
    spectrum = lumped._Spectrum(params, equilibrium(params))
    assert spectrum.terms == min(k, 200)
    if terms is not None:
        spectrum.terms, spectrum.basis = terms, spectrum.basis[:terms]
    profile = d_curve(params, 3 * n)
    times = np.arange(0, 3 * n + 1, 7)
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
    with C = 10 and gamma = 0, on the exactly evolved law from W = k."""
    n, k, gamma = 1000, 200, 0.0
    t = math.floor(0.25 * n * math.log(n) - 0.5 * gamma * n)
    assert t == 1726
    variance = dist_variance(evolve(delta_at(k, k + 1), build_kernel(ModelParams(n, k)), t))
    assert variance < 10.0 * k * k / n + math.exp(gamma) * k / math.sqrt(n)


def test_second_moment_lower_bound_dominated_by_tv():
    params = ModelParams(50, 10)
    kernel = build_kernel(params)
    pi = equilibrium(params)
    p = delta_at(10, 11)
    for _ in range(120):
        bound = tv_lower_bound_second_moment(p, pi)
        assert 0.0 <= bound < 1.0
        assert bound <= tv_distance(p, pi) + 1e-12
        p = evolve(p, kernel, 1)


def test_delta_at():
    d = delta_at(3, 5)
    np.testing.assert_array_equal(d, [0, 0, 0, 1, 0])
    with pytest.raises(ValueError):
        delta_at(5, 5)
    with pytest.raises(ValueError):
        delta_at(-1, 5)
