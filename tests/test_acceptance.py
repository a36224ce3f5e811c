"""Acceptance suite: one test per shipping criterion.

Each test prints one ``[acceptance] name: PASS/FAIL (detail)`` line
(visible under ``pytest -s``) and asserts the criterion, including its
runtime budget.  Tolerances are stated inline next to each check.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

from mixlab import LABELED, UNLABELED, ModelParams, replica_stream
from mixlab import bounds as bounds_mod
from mixlab import coupling as coupling_mod
from mixlab import exclusion, lumped, walk
from mixlab.experiments import center_large_k, center_small_k
from reference import collection_time_cdf, dominated_pair_samples

SEED = 20260819


def _report(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_lumping_identity():
    """Brute-force TV equals the lumped curve on every instance with n <= 8."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            params = ModelParams(n, k)
            brute = exclusion.brute_force_tv_curve(params, UNLABELED, 50)
            profile = lumped.d_curve(params, 50)
            worst = max(worst, float(np.abs(brute - profile.tv).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10
    _report("01 lumping identity", ok, f"max residual {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s")


def test_02_moment_identities():
    """Closed-form moments match exact evolution over the full grid.

    The comparison is relative: at the largest grid point the second
    moment is about 2.5e5, where 1e-10 absolute would be under four
    float ulps of the quantity itself.
    """
    start = time.perf_counter()
    worst = 0.0
    witness_mean, witness_var = lumped.moments_at(ModelParams(4, 2), 1)
    witness = witness_var + witness_mean**2
    for n in (4, 10, 100, 1000):
        for k in range(1, n // 2 + 1):
            params = ModelParams(n, k)
            kernel = lumped.build_kernel(params)
            values = np.arange(k + 1, dtype=float)
            for w0 in {0, k // 2, k}:
                p = lumped.delta_at(w0, k + 1)
                mean_t, var_t = lumped.moments_at(params, np.arange(101), w0)
                second_t = var_t + mean_t**2
                prev = 0
                for t in (0, 1, 2, 5, 10, 100):
                    p = lumped.evolve(p, kernel, t - prev)
                    prev = t
                    mean = p @ values
                    second = p @ values**2
                    worst = max(
                        worst,
                        abs(mean - mean_t[t]) / max(1.0, abs(mean)),
                        abs(second - second_t[t]) / max(1.0, abs(second)),
                    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and witness == 2.5 and elapsed < 5
    _report(
        "02 moment identities",
        ok,
        f"max relative dev {worst:.2e} <= 1e-10, witness {witness} == 2.5, {elapsed:.1f}s < 5s",
    )


def test_03_kernel_structure():
    start = time.perf_counter()
    worst_row = worst_balance = worst_eig = 0.0
    min_stay = 1.0
    for n in (10, 100, 1000, 10_000, 100_000):
        for k in sorted({1, math.isqrt(n), n // 5, n // 2}):
            if not 1 <= k <= n // 2:
                continue
            params = ModelParams(n, k)
            kernel = lumped.build_kernel(params)
            pi = lumped.equilibrium(params)
            worst_row = max(
                worst_row, float(np.abs(kernel.up + kernel.down + kernel.stay - 1.0).max())
            )
            worst_balance = max(
                worst_balance,
                float(np.abs(pi[:-1] * kernel.up[:-1] - pi[1:] * kernel.down[1:]).max()),
            )
            worst_eig = max(worst_eig, lumped.eigenfunction_check(kernel))
            min_stay = min(min_stay, float(kernel.stay.min()))
    elapsed = time.perf_counter() - start
    ok = (
        worst_row <= 1e-12
        and worst_balance <= 1e-10
        and worst_eig <= 1e-12
        and min_stay >= 0.5 - 1e-15
        and elapsed < 30
    )
    _report(
        "03 kernel structure",
        ok,
        f"rows {worst_row:.1e} <= 1e-12, balance {worst_balance:.1e} <= 1e-10, "
        f"eigen {worst_eig:.1e} <= 1e-12, stay >= {min_stay}, {elapsed:.1f}s < 30s",
    )


N_GRID = (500, 1000, 2000, 4000)


def test_04_cutoff_location_large_k():
    start = time.perf_counter()
    ratios = []
    for n in N_GRID:
        t = lumped.mixing_times(ModelParams(n, n // 5), (0.5,))[0.5]
        ratios.append(t / center_large_k(n))
    gaps = [abs(r - 1.0) for r in ratios]
    elapsed = time.perf_counter() - start
    ok = (
        0.9 <= ratios[-1] <= 1.1
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and elapsed < 120
    )
    detail = ", ".join(f"{r:.4f}" for r in ratios)
    _report(
        "04 cutoff location large k",
        ok,
        f"T/(n log n / 4) = [{detail}], last in [0.9, 1.1], gap to 1 shrinking, "
        f"{elapsed:.1f}s < 120s",
    )


def test_05_cutoff_location_small_k():
    start = time.perf_counter()
    ratios = []
    for n in N_GRID:
        k = math.ceil(n**0.3)
        t = lumped.mixing_times(ModelParams(n, k), (0.5,))[0.5]
        ratios.append(t / center_small_k(n, k))
    elapsed = time.perf_counter() - start
    ok = 0.85 <= ratios[-1] <= 1.15 and elapsed < 60
    detail = ", ".join(f"{r:.4f}" for r in ratios)
    _report(
        "05 cutoff location small k",
        ok,
        f"T/(n log k / 2) = [{detail}], last in [0.85, 1.15], {elapsed:.1f}s < 60s",
    )


def test_06_window_scaling():
    start = time.perf_counter()
    spans = {}
    for regime, k_of in (("large", lambda n: n // 5), ("small", lambda n: math.ceil(n**0.3))):
        windows = []
        for n in N_GRID:
            times = lumped.mixing_times(ModelParams(n, k_of(n)), (0.1, 0.9))
            windows.append((times[0.1] - times[0.9]) / n)
        spans[regime] = max(windows) / min(windows)
    # shrinking eps widens the window at fixed n, in both regimes
    eps_grid = (0.2, 0.1, 0.05, 0.02)
    thresholds = tuple(eps_grid) + tuple(1.0 - e for e in eps_grid)
    increasing = []
    for k in (400, 10):
        times = lumped.mixing_times(ModelParams(2000, k), thresholds)
        seq = [times[e] - times[1.0 - e] for e in eps_grid]
        increasing.append(all(a < b for a, b in zip(seq, seq[1:])))
    elapsed = time.perf_counter() - start
    ok = (
        spans["large"] <= 2.0
        and spans["small"] <= 2.0
        and all(increasing)
        and elapsed < 120
    )
    _report(
        "06 window scaling",
        ok,
        f"window/n spread: large {spans['large']:.3f} <= 2, small {spans['small']:.3f} <= 2, "
        f"strict growth in eps at n=2000: {increasing}, {elapsed:.1f}s < 120s",
    )


def test_07_boundary_regime():
    start = time.perf_counter()
    n = 4000
    worst_center_gap = worst_t_gap = 0.0
    for ell in (0.5, 1.0, 2.0):
        k = math.ceil(ell * math.sqrt(n))
        t = lumped.mixing_times(ModelParams(n, k), (0.5,))[0.5]
        large, small = center_large_k(n), center_small_k(n, k)
        worst_center_gap = max(worst_center_gap, abs(large - small) / n)
        worst_t_gap = max(worst_t_gap, abs(t - large) / n, abs(t - small) / n)
    elapsed = time.perf_counter() - start
    ok = worst_center_gap <= 3.0 and worst_t_gap <= 3.0 and elapsed < 60
    _report(
        "07 boundary regime",
        ok,
        f"center gap/n {worst_center_gap:.3f} <= 3, T gap/n {worst_t_gap:.3f} <= 3, "
        f"{elapsed:.1f}s < 60s",
    )


def test_08_coupling_suite():
    start = time.perf_counter()
    # (a) marginal identity for every instance with n <= 50 (machine exact:
    # the only freedom is one float addition reorder, under 1e-15)
    worst_marginal = 0.0
    for n in range(2, 51):
        for k in range(1, n // 2 + 1):
            params = ModelParams(n, k)
            kernel = lumped.build_kernel(params)
            pair = coupling_mod.CoupledKernel(kernel)
            for i in range(k + 1):
                for j in range(i + 1):
                    row = pair.transition_row(i, j)
                    total = up1 = down1 = up2 = down2 = 0.0
                    for (a, b), p in row:
                        total += p
                        up1 += p * (a == i + 1)
                        down1 += p * (a == i - 1)
                        up2 += p * (b == j + 1)
                        down2 += p * (b == j - 1)
                    worst_marginal = max(
                        worst_marginal,
                        abs(total - 1.0),
                        abs(up1 - kernel.up[i]),
                        abs(down1 - kernel.down[i]),
                        abs(up2 - kernel.up[j]),
                        abs(down2 - kernel.down[j]),
                    )
    # (b) skeleton invariants, exhaustive over pair states, n up to 2000
    worst_b = 0.0
    worst_q = math.inf
    instances = [(n, k) for n in range(2, 65) for k in range(1, n // 2 + 1)]
    for n in (100, 200, 500, 1000, 2000):
        ks = {1, 2, math.isqrt(n), n // 5, n // 4, n // 2 - 1, n // 2}
        instances.extend((n, k) for k in ks if 1 <= k <= n // 2)
    for n, k in instances:
        b_max, q_min = coupling_mod.check_skeleton_invariants(
            coupling_mod.build_coupled_kernel(ModelParams(n, k))
        )
        worst_b = max(worst_b, b_max)
        worst_q = min(worst_q, q_min)
    # (c) pathwise domination on 10^6 sampled paths
    coupled = coupling_mod.build_coupled_kernel(ModelParams(60, 12))
    samples = dominated_pair_samples(
        coupled, 12, 0, 1200, 1_000_000, replica_stream(SEED, 8, 0)
    )
    miss = int((samples.walk_hit & ~samples.merged).sum())
    both = samples.merged & samples.walk_hit
    late = int((samples.tau[both] > samples.tau_walk[both]).sum())
    # (d) expected gap decay at t = 100
    t = 100
    merged = coupling_mod.merge_time_samples(
        coupled, 12, 5, t, 60_000, replica_stream(SEED, 8, 1)
    )
    gap = merged.w1.astype(float) - merged.w2
    expect = 7.0 * (1.0 - 2.0 / 60.0) ** t
    sigma = gap.std(ddof=1) / math.sqrt(gap.size)
    gap_dev = abs(gap.mean() - expect)
    elapsed = time.perf_counter() - start
    ok = (
        worst_marginal <= 1e-15
        and worst_b <= 0.5
        and worst_q >= 1.0 - 1e-12
        and miss == 0
        and late == 0
        and gap_dev < 4.0 * sigma
        and elapsed < 180
    )
    _report(
        "08 coupling suite",
        ok,
        f"marginal {worst_marginal:.1e} <= 1e-15, max b {worst_b:.4f} <= 1/2, "
        f"min q n^2/k^2 {worst_q:.3f} >= 1, domination violations {miss}+{late} == 0, "
        f"gap dev {gap_dev:.4f} < 4 sigma = {4 * sigma:.4f}, {elapsed:.1f}s < 180s",
    )


def test_09_coupling_bounds_exact_d():
    start = time.perf_counter()
    params = ModelParams(1000, 200)
    t_c = math.floor(center_large_k(1000))
    # t_c - 2n is negative at this size; clamp to 0 where d(0) = 1 trivially
    ts = [max(0, t_c - 2000), t_c, t_c + 2000]
    d_exact = lumped.distances_at(params, ts)
    estimates = coupling_mod.coupling_tv_upper_bound(
        params, ts, 100_000, replica_stream(SEED, 9, 0)
    )
    results = []
    ok = True
    for t, (estimate, stderr) in zip(ts, estimates):
        good = d_exact[t] <= estimate + 4.0 * stderr
        ok = ok and good
        results.append(f"t={t}: {d_exact[t]:.4f} <= {estimate:.4f}+4*{stderr:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _report("09 coupling bounds exact d", ok, "; ".join(results) + f", {elapsed:.1f}s < 120s")


def test_10_reflection_principle():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.1, 0.5, 1.0):
        for m in range(1, 6):
            brute = walk.survival_bruteforce(m, 30, q)
            for steps in range(31):
                worst = max(worst, abs(walk.survival_exact(m, steps, q) - brute[steps]))
    n, q = 100_000, 0.01
    scale = math.sqrt(q * n)
    worst_gauss = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            exact = walk.survival_exact(math.ceil(alpha * scale), int(beta * n), q)
            worst_gauss = max(worst_gauss, abs(exact - walk.gaussian_limit(alpha, beta)))
    ref, quad_err = integrate.quad(
        lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), -1.0, 1.0
    )
    gauss_point = walk.gaussian_limit(1.0, 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-12
        and worst_gauss <= 0.01
        and quad_err < 1e-10
        and abs(gauss_point - ref) <= 1e-4
        and abs(gauss_point - 0.6827) <= 1e-4
        and elapsed < 60
    )
    _report(
        "10 reflection principle",
        ok,
        f"dual-route residual {worst:.1e} <= 1e-12, gaussian gap {worst_gauss:.4f} <= 0.01, "
        f"limit {gauss_point:.6f} vs quadrature {ref:.6f} within 1e-4, {elapsed:.1f}s < 60s",
    )


def test_11_coupon_collector():
    start = time.perf_counter()
    results = []
    ok = True
    replicas = 100_000
    # DKW: an exact law's empirical CDF strays further with probability <= 0.01
    dkw = math.sqrt(math.log(2.0 / 0.01) / (2.0 * replicas))
    for idx, k in enumerate((10, 31, 200)):
        spec = bounds_mod.CollectorSpec(1000, k)
        mean, var = bounds_mod.collector_moments(spec)
        raw = bounds_mod.single_draw_collection_samples(
            spec, replicas, replica_stream(2026, 11, idx)
        )
        mean_err = abs(raw.mean() / mean - 1.0)
        var_err = abs(raw.var(ddof=1) / var - 1.0)
        exact = collection_time_cdf(spec, int(raw.max()))
        gap = np.abs(np.cumsum(np.bincount(raw)) / replicas - exact).max()
        good = mean_err <= 0.02 and var_err <= 0.05 and gap < dkw
        ok = ok and good
        results.append(f"k={k}: mean {mean_err:.3%}, var {var_err:.3%}, CDF gap {gap:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    detail = "; ".join(results) + f" (< {dkw:.5f}), {elapsed:.1f}s < 120s"
    _report("11 coupon collector", ok, detail)


def test_12_lower_bound_dominance():
    start = time.perf_counter()
    violations = []
    # coupon and mean-gap bounds against the exact unlabeled distance
    sub = 0
    for n, k, ts in (
        (30, 6, (1, 5, 15, 40, 120)),
        (100, 20, (5, 25, 60, 150)),
        (1000, 31, (300, 900, 1700, 3000)),
        (1000, 10, (200, 800, 1600)),
    ):
        params = ModelParams(n, k)
        distances = lumped.distances_at(params, ts)
        for t in sorted(ts):
            coupon = bounds_mod.unlabeled_tv_lower_bound(
                params, t, replicas=20_000, rng=replica_stream(SEED, 12, sub)
            )
            sub += 1
            mean_gap = lumped.mean_gap_bound(params, t)
            d_exact = distances[t]
            for name, value in (
                ("coupon", coupon.value),
                ("coupon-chebyshev", coupon.chebyshev),
                ("mean-gap", mean_gap),
            ):
                if value > d_exact + 1e-12:
                    violations.append(f"{name} at n={n},k={k},t={t}")
    # labeled bound against the brute-force labeled distance
    for n, k in ((6, 2), (6, 3)):
        params = ModelParams(n, k)
        curve = exclusion.brute_force_tv_curve(params, LABELED, 25)
        for threshold in range(1, k):
            for t in (0, 1, 2, 5, 10, 20):
                labeled = bounds_mod.labeled_tv_lower_bound(
                    params, t, threshold, replicas=20_000, rng=replica_stream(SEED, 12, sub)
                )
                sub += 1
                if labeled.value > curve[t] + 1e-12:
                    violations.append(f"labeled at n={n},k={k},K={threshold},t={t}")
                if labeled.chebyshev > curve[t] + 1e-12:
                    violations.append(f"labeled-chebyshev at n={n},k={k},K={threshold},t={t}")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120
    _report(
        "12 lower bound dominance",
        ok,
        f"{sub} bound evaluations, violations: {violations or 'none'}, {elapsed:.1f}s < 120s",
    )


def test_13_labeled_process():
    start = time.perf_counter()
    worst = 0.0  # most negative labeled-minus-unlabeled gap
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            params = ModelParams(n, k)
            labeled = exclusion.brute_force_tv_curve(params, LABELED, 50)
            unlabeled = exclusion.brute_force_tv_curve(params, UNLABELED, 50)
            worst = min(worst, float((labeled - unlabeled).min()))
    n, k, threshold = 10_000, 100, 10
    t = math.floor(center_small_k(n, k) - n * math.log(threshold))
    bound = bounds_mod.labeled_tv_lower_bound(
        ModelParams(n, k), t, threshold, replicas=100_000, rng=replica_stream(SEED, 13, 0)
    )
    target = 1.0 - 2.0 / threshold - 0.05
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and bound.value >= target and elapsed < 120
    _report(
        "13 labeled process",
        ok,
        f"min(labeled - unlabeled) = {worst:.1e} >= -1e-12, "
        f"bound at t={t}: {bound.value:.3f} >= {target}, {elapsed:.1f}s < 120s",
    )


def test_14_cli_determinism(tmp_path):
    start = time.perf_counter()
    configs = {
        "tv-curve": {"kind": "tv-curve", "n": 40, "k": 8, "t_max": 30},
        "sweep": {
            "kind": "sweep",
            "n_grid": [60, 120, 240],
            "k_rule": {"kind": "fraction", "value": 0.2},
        },
        "coupling": {"kind": "coupling", "n": 40, "k": 8, "t_values": [10, 40], "replicas": 2000},
        "bounds": {
            "kind": "bounds",
            "n": 60,
            "k": 12,
            "t_values": [5, 30],
            "threshold": 3,
            "replicas": 4000,
        },
        "hitting": {"kind": "hitting", "m": 2, "q": 0.5, "steps_values": [5, 25], "replicas": 3000},
        "oracle-check": {"kind": "oracle-check", "n_max": 5, "t_max": 15, "pair_n_max": 8},
    }
    mismatched = []
    for kind, payload in configs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        fmt = "json" if kind == "hitting" else "csv"
        args = [sys.executable, "-m", "mixlab", kind, "--config", str(path),
                "--seed", "7", "--format", fmt]
        first = subprocess.run(args, capture_output=True, text=True, timeout=60)
        second = subprocess.run(args, capture_output=True, text=True, timeout=60)
        if first.returncode != 0 or second.returncode != 0:
            mismatched.append(f"{kind}: exit {first.returncode}/{second.returncode}")
        elif first.stdout != second.stdout:
            mismatched.append(f"{kind}: output differs")
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 60
    _report(
        "14 cli determinism",
        ok,
        f"6 experiment kinds rerun byte-identical ({mismatched or 'no mismatches'}), "
        f"{elapsed:.1f}s < 60s",
    )
