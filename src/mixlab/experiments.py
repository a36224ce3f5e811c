"""Experiment runners behind the command-line interface.

Each runner maps a validated :class:`~mixlab.config.ExperimentConfig` to
a :class:`~mixlab.records.ResultRecord`.  All randomness flows through
per-task streams derived from the config seed, so results are
reproducible regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from ._version import __version__
from . import bounds as bounds_mod
from . import coupling as coupling_mod
from . import exclusion, lumped, walk
from .config import ExperimentConfig, k_from_rule
from .records import ResultRecord, config_hash
from .rng import replica_stream


class OracleFailure(Exception):
    """Raised when an oracle-check run finds a violated identity."""

    def __init__(self, failures: list[str], record: ResultRecord):
        self.failures = failures
        self.record = record
        super().__init__("violated identities: " + ", ".join(failures))


def _base_meta(config: ExperimentConfig) -> dict:
    return {
        "experiment": config.kind,
        "version": __version__,
        "seed": config.seed,
        "config": config_hash(config.normalized),
    }


def _label(x: float) -> str:
    """``format(x, "g")`` when it reads back as x, else ``repr(x)``."""
    short = format(x, "g")
    return short if float(short) == x else repr(x)


def center_large_k(n: int) -> float:
    """Cutoff center n log(n) / 4 (block comparable to sqrt(n) or larger)."""
    return 0.25 * n * math.log(n)


def center_small_k(n: int, k: int) -> float:
    """Cutoff center n log(k) / 2 (block far below sqrt(n))."""
    return 0.5 * n * math.log(k)


class _CurveRows(Sequence):
    """The rows (t, d(t), warning) of a tv-curve record, built from the
    profile's arrays only when indexed, so that a long curve never holds
    a tuple per step.  Only the last row carries the warning."""

    def __init__(self, profile: lumped.MixingProfile, warning: str):
        self._times = profile.times
        self._tv = profile.tv
        self._warning = warning

    def __len__(self) -> int:
        return self._times.size

    def __getitem__(self, index):
        last = len(self) - 1
        if isinstance(index, slice):
            positions = range(len(self))[index]
            rows = list(zip(self._times[index].tolist(), self._tv[index].tolist(), repeat("")))
            if last in positions:
                at = positions.index(last)
                rows[at] = rows[at][:2] + (self._warning,)
            return rows
        i = range(len(self))[index]
        return (self._times[i].item(), self._tv[i].item(), self._warning if i == last else "")


def run_tv_curve(config: ExperimentConfig) -> ResultRecord:
    params = exclusion.ModelParams(config.n, config.k)
    profile = lumped.d_curve(params, config.t_max, config.stride)
    meta = _base_meta(config)
    meta.update(
        n=params.n,
        k=params.k,
        stride=config.stride,
        t_max=config.t_max,
    )
    meta["center_large_k"] = center_large_k(params.n)
    meta["center_small_k"] = center_small_k(params.n, params.k)
    unreached = []
    for eps in config.eps:
        t = lumped.t_mix(profile, eps)
        meta[f"t_mix[{_label(eps)}]"] = t
        if t is None:
            unreached.append(eps)
    warning = "eps_not_reached" if unreached else ""
    return ResultRecord("tv-curve", meta, ["t", "d", "warning"], _CurveRows(profile, warning))


def _sweep_point(config: ExperimentConfig, n: int) -> list[tuple]:
    k = k_from_rule(config.k_rule, n)
    params = exclusion.ModelParams(n, k)
    thresholds = sorted(set(config.eps) | {1.0 - e for e in config.eps}, reverse=True)
    times = lumped.mixing_times(params, thresholds)
    rows = []
    for eps in config.eps:
        t_hi = times[eps]
        t_lo = times[1.0 - eps]
        window = t_hi - t_lo
        rows.append((n, k, eps, t_lo, t_hi, window, window / n))
    return rows


def run_sweep(config: ExperimentConfig) -> ResultRecord:
    meta = _base_meta(config)
    meta["k_rule"] = f"{config.k_rule[0]}:{_label(config.k_rule[1])}"
    meta["n_grid"] = ",".join(str(n) for n in config.n_grid)
    if config.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only when used

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(lambda n: _sweep_point(config, n), config.n_grid))
    else:
        chunks = [_sweep_point(config, n) for n in config.n_grid]
    rows = [row for chunk in chunks for row in chunk]
    # t_enter is the first time d(t) <= 1 - eps, t_mix the first with d(t) <= eps
    columns = ["n", "k", "eps", "t_enter", "t_mix", "window", "window_over_n"]
    return ResultRecord("sweep", meta, columns, rows)


def run_coupling_experiment(config: ExperimentConfig) -> ResultRecord:
    params = exclusion.ModelParams(config.n, config.k)
    d_exact = lumped.distances_at(params, config.t_values)
    n, k = params.n, params.k
    q_walk = (k / n) ** 2
    meta = _base_meta(config)
    meta.update(n=n, k=k, replicas=config.replicas)
    meta["center_large_k"] = center_large_k(n)
    estimates = coupling_mod.coupling_tv_upper_bound(
        params, config.t_values, config.replicas, replica_stream(config.seed, 0)
    )
    rows = []
    for t, (estimate, stderr) in zip(config.t_values, estimates):
        alpha = (t - center_large_k(n)) / n - 1.0
        first_moment = math.exp(-alpha)
        walk_start = max(1, math.ceil(k * first_moment / math.sqrt(n)))
        walk_survival = walk.survival_exact(walk_start, n, q_walk)
        rows.append(
            (
                t,
                alpha,
                d_exact[t],
                estimate,
                stderr,
                walk_start,
                walk_survival,
                first_moment,
            )
        )
    columns = [
        "t",
        "alpha",
        "d_exact",
        "estimate",
        "stderr",
        "walk_start",
        "walk_survival",
        "first_moment_term",
    ]
    return ResultRecord("coupling", meta, columns, rows)


def run_bounds_report(config: ExperimentConfig) -> ResultRecord:
    params = exclusion.ModelParams(config.n, config.k)
    bounds_mod.refuse_draws(params, config.t_values, config.threshold, config.replicas)
    d_exact = lumped.distances_at(params, config.t_values)
    meta = _base_meta(config)
    meta.update(n=params.n, k=params.k, threshold=config.threshold, replicas=config.replicas)
    meta["center_small_k"] = center_small_k(params.n, params.k)
    rows = []
    for idx, t in enumerate(config.t_values):
        coupon = bounds_mod.unlabeled_tv_lower_bound(
            params, t, replicas=config.replicas, rng=replica_stream(config.seed, 2 * idx)
        )
        labeled = bounds_mod.labeled_tv_lower_bound(
            params,
            t,
            config.threshold,
            replicas=config.replicas,
            rng=replica_stream(config.seed, 2 * idx + 1),
        )
        rows.append(
            (
                t,
                d_exact[t],
                coupon.value,
                coupon.stderr,
                coupon.chebyshev,
                labeled.value,
                labeled.stderr,
                labeled.chebyshev,
                lumped.mean_gap_bound(params, t),
            )
        )
    columns = [
        "t",
        "d_exact",
        "coupon_value",
        "coupon_stderr",
        "coupon_chebyshev",
        "labeled_value",
        "labeled_stderr",
        "labeled_chebyshev",
        "mean_gap_bound",
    ]
    return ResultRecord("bounds", meta, columns, rows)


def run_hitting(config: ExperimentConfig) -> ResultRecord:
    params = walk.WalkParams(config.q, config.m)
    # the exact column draws nothing, so a sum refused there samples nothing
    exact = [walk.survival_exact(config.m, steps, config.q) for steps in config.steps_values]
    t_cap = max(config.steps_values)
    times, _ = walk.hitting_time_samples(
        params, t_cap, config.replicas, replica_stream(config.seed, 0)
    )
    meta = _base_meta(config)
    meta.update(m=config.m, q=config.q, replicas=config.replicas)
    rows = []
    for steps, survival in zip(config.steps_values, exact):
        simulated, stderr = walk.tail_estimate(times, steps)
        rows.append((steps, survival, simulated, stderr))
    return ResultRecord("hitting", meta, ["steps", "exact", "simulated", "stderr"], rows)


# ---------------------------------------------------------------------------
# Oracle check
# ---------------------------------------------------------------------------


def _instances(n_max: int):
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            yield exclusion.ModelParams(n, k)


def run_oracle_check(config: ExperimentConfig, kernel_factory=None) -> ResultRecord:
    """Re-derive the package's exact identities on small instances.

    Each instance's laws at t = 0..t_max are stepped once into one array;
    the lumping, spectral and moment residuals are reductions of it.  The
    powering residual re-derives d(t) at t = 1, t_max // 2 and t_max by
    binary powering of the kernel, against the brute-force curve.
    ``kernel_factory`` (tests only) substitutes the birth-death kernel
    construction, so a deliberately corrupted kernel makes exactly the
    identities that depend on it fail, by name.  Raises
    :class:`OracleFailure` carrying the full record when any identity's
    residual exceeds the configured tolerance.
    """
    factory = kernel_factory if kernel_factory is not None else lumped.build_kernel
    tol = config.tol
    rows: list[tuple] = []

    def add(identity: str, instance: str, residual: float) -> None:
        rows.append((identity, instance, residual, tol, "pass" if residual <= tol else "fail"))

    times = np.arange(config.t_max + 1)
    powered_times = sorted({min(1, config.t_max), config.t_max // 2, config.t_max})
    for params in _instances(config.n_max):
        label = f"n={params.n},k={params.k}"
        kernel = factory(params)
        pi = lumped.equilibrium(params)
        values = np.arange(params.k + 1, dtype=float)

        laws = np.empty((times.size, params.k + 1))
        laws[0] = lumped.delta_at(params.k, params.k + 1)
        stepper = lumped._Stepper(kernel, laws[0])
        stepper.advance(1, laws[1:])
        stepper.check_mass(laws[-1])
        d = 0.5 * np.abs(laws - pi).sum(axis=1)
        brute = exclusion.brute_force_tv_curve(params, exclusion.UNLABELED, config.t_max)
        mean, var = lumped.moments_at(params, times)
        spectrum = lumped._Spectrum(params, pi)
        spectrum._extend(lumped._SPECTRAL_TERMS)
        spectral = spectrum.at(times)[0]
        add("lumping", label, float(np.abs(brute - d).max()))
        powered = lumped._powered_distances(kernel, pi, powered_times)
        add("powering", label, float(np.abs(brute[powered_times] - powered).max()))
        add("moment-mean", label, float(np.abs(mean - np.einsum("ij,j->i", laws, values)).max()))
        second = np.einsum("ij,j->i", laws, values**2)
        add("moment-second", label, float(np.abs(var + mean * mean - second).max()))

        stat_resid = lumped.tv_distance(lumped.evolve(pi, kernel, 1), pi)
        add("stationarity", label, stat_resid)

        balance = np.abs(pi[:-1] * kernel.up[:-1] - pi[1:] * kernel.down[1:])
        add("detailed-balance", label, float(balance.max()))
        add("eigenfunction", label, lumped.eigenfunction_check(kernel))
        add("spectral", label, max(float(np.abs(spectral - d).max()), spectrum.residual(kernel)))

    for n in range(2, config.pair_n_max + 1):
        worst = 0.0
        b_max, ratio_min = 0.0, math.inf
        for k in range(1, n // 2 + 1):
            params = exclusion.ModelParams(n, k)
            kernel = factory(params)
            pair = coupling_mod.CoupledKernel(kernel)
            b, ratio = coupling_mod.check_skeleton_invariants(pair)
            b_max, ratio_min = max(b_max, b), min(ratio_min, ratio)
            for i in range(k + 1):
                for j in range(i + 1):
                    row = pair.transition_row(i, j)
                    total = sum(p for _, p in row)
                    up1 = sum(p for (i2, _), p in row if i2 == i + 1)
                    down1 = sum(p for (i2, _), p in row if i2 == i - 1)
                    up2 = sum(p for (_, j2), p in row if j2 == j + 1)
                    down2 = sum(p for (_, j2), p in row if j2 == j - 1)
                    worst = max(
                        worst,
                        abs(total - 1.0),
                        abs(up1 - kernel.up[i]),
                        abs(down1 - kernel.down[i]),
                        abs(up2 - kernel.up[j]),
                        abs(down2 - kernel.down[j]),
                    )
        add("pair-marginal", f"n={n}", worst)
        # the dominating walk needs b <= 1/2 and q >= k^2/n^2 at every pair state
        add("skeleton", f"n={n}", max(0.0, b_max - 0.5, 1.0 - ratio_min))

    for q in config.walk_q:
        worst = 0.0
        for m in range(1, config.walk_m_max + 1):
            brute = walk.survival_bruteforce(m, config.walk_steps_max, q)
            for steps in range(0, config.walk_steps_max + 1):
                worst = max(worst, abs(walk.survival_exact(m, steps, q) - brute[steps]))
        add("reflection", f"q={_label(q)}", worst)

    meta = _base_meta(config)
    meta.update(
        n_max=config.n_max,
        t_max=config.t_max,
        walk_m_max=config.walk_m_max,
        walk_steps_max=config.walk_steps_max,
        pair_n_max=config.pair_n_max,
        tol=tol,
    )
    record = ResultRecord(
        "oracle-check", meta, ["identity", "instance", "residual", "tol", "status"], rows
    )
    failures = sorted({identity for identity, _, _, _, status in rows if status == "fail"})
    if failures:
        raise OracleFailure(failures, record)
    return record


_RUNNERS = {
    "tv-curve": run_tv_curve,
    "sweep": run_sweep,
    "coupling": run_coupling_experiment,
    "bounds": run_bounds_report,
    "hitting": run_hitting,
    "oracle-check": run_oracle_check,
}


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Dispatch a validated config to its runner."""
    return _RUNNERS[config.kind](config)
