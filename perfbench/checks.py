"""Output checks: each CLI record against an independent derivation.

Nothing here imports mixlab.  Exact columns are compared with a
reference computed in this file (a flux-form evolution of the
birth-death chain built from its swap counts, the binomial mixture for
the lazy walk, the occupancy chain of the coupon collector), within a
tolerance rather than against frozen digits, so a change that reorders
float sums still passes.  Monte Carlo columns must lie within
``Z_LIMIT`` standard errors of their exact counterpart; the standard
error used is the larger of the reported one and the one implied by the
exact value, so an estimate of exactly 0 or 1 (reported error 0) is
judged by the binomial error of the truth.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import stats

EXACT_TOL = 1e-9
Z_LIMIT = 5.0


def parse_csv_record(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a CSV record into its ``# key=value`` metadata and its rows."""
    lines = text.splitlines()
    meta = {}
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, _, value = lines[body][2:].partition("=")
        meta[key] = value
        body += 1
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[body:]))))
    return meta, rows


class Chain:
    """The block-occupancy chain from W = k, evolved step by step.

    Transition counts come from the swap dynamics directly: of the n^2
    ordered site pairs, 2 (k - i)^2 move a particle into the block and
    2 i (n - 2k + i) move one out.  Each step moves those two fluxes
    between neighbouring states (no renormalization).
    """

    def __init__(self, n: int, k: int):
        i = np.arange(k + 1, dtype=float)
        nsq = float(n) * float(n)
        self.into = 2.0 * (k - i) ** 2 / nsq
        self.out = 2.0 * i * (n - 2 * k + i) / nsq
        self.pi = stats.hypergeom.pmf(np.arange(k + 1), n, k, k)
        self.p = np.zeros(k + 1)
        self.p[k] = 1.0
        self.t = 0

    def advance(self, t: int) -> np.ndarray:
        if t < self.t:
            self.p = np.zeros_like(self.p)
            self.p[-1] = 1.0
            self.t = 0
        p = self.p
        up = np.empty_like(p)
        down = np.empty_like(p)
        for _ in range(t - self.t):
            np.multiply(p, self.into, out=up)
            np.multiply(p, self.out, out=down)
            p -= up
            p -= down
            p[1:] += up[:-1]
            p[:-1] += down[1:]
        self.t = max(self.t, t)
        return p

    def d(self, t: int) -> float:
        return 0.5 * float(np.abs(self.advance(t) - self.pi).sum())


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol


def _first_crossing_ok(chain: Chain, t: int, eps: float) -> bool:
    """t is the first time with d(t) <= eps, up to EXACT_TOL."""
    before = chain.d(t - 1) > eps - EXACT_TOL if t > 0 else True
    return before and chain.d(t) <= eps + EXACT_TOL


def _mc_ok(estimate: float, stderr: float, exact: float, replicas: int,
           p: float | None = None) -> bool:
    """|estimate - exact| within Z_LIMIT standard errors; ``p`` is the
    exact success probability behind the estimate (default ``exact``)."""
    p = exact if p is None else p
    spread = max(stderr, math.sqrt(max(p * (1.0 - p), 0.0) / replicas))
    return abs(estimate - exact) <= Z_LIMIT * spread + 1e-12


def walk_survival(m: int, steps: int, q: float) -> float:
    """P[lazy walk from m stays positive for ``steps`` steps].

    The number of moves is Bin(steps, q); after M fair moves the free
    walk sits at 2 Bin(M, 1/2) - M, and by reflection the walk survives
    exactly when that position lies in (-m, m].
    """
    moves = np.arange(steps + 1)
    weights = stats.binom.pmf(moves, steps, q)
    inside = stats.binom.cdf((moves + m) // 2, moves, 0.5) - stats.binom.cdf(
        (moves - m) // 2, moves, 0.5
    )
    return float(weights @ inside)


def collection_survival(n: int, k: int, residual: int, draws: int) -> float:
    """P[fewer than k - residual distinct block sites after ``draws`` draws]."""
    h = np.arange(k + 1)
    fresh = (k - h) / n
    step = np.diag(1.0 - fresh) + np.diag(fresh[:-1], 1)
    dist = np.linalg.matrix_power(step, draws)[0]
    return float(dist[: k - residual].sum())


def _chebyshev(n: int, k: int, residual: int, t: int) -> float:
    """Chebyshev lower bound on P[tau' > 2t], tau' a sum of geometrics."""
    p = np.arange(residual + 1, k + 1) / n
    mean, variance = float((1.0 / p).sum()), float(((1.0 - p) / p**2).sum())
    if 2.0 * t >= mean:
        return 0.0
    return max(0.0, 1.0 - variance / (mean - 2.0 * t) ** 2)


def check_sweep(config: dict, text: str) -> list[str]:
    _, rows = parse_csv_record(text)
    problems = []
    grid = config["n_grid"]
    if len(rows) != len(grid) * len(config["eps"]):
        return [f"sweep: {len(rows)} rows for {len(grid)} sizes"]
    for row in rows:
        n, k, eps = int(row["n"]), int(row["k"]), float(row["eps"])
        t_enter, t_mix = int(row["t_enter"]), int(row["t_mix"])
        if k != round(config["k_rule"]["value"] * n):
            problems.append(f"sweep n={n}: k={k}")
            continue
        chain = Chain(n, k)
        if not _first_crossing_ok(chain, t_enter, 1.0 - eps):
            problems.append(f"sweep n={n}: t_enter={t_enter} is not the first d <= {1 - eps:g}")
        if not _first_crossing_ok(chain, t_mix, eps):
            problems.append(f"sweep n={n}: t_mix={t_mix} is not the first d <= {eps:g}")
        if int(row["window"]) != t_mix - t_enter or not math.isclose(
            float(row["window_over_n"]), (t_mix - t_enter) / n, rel_tol=1e-12
        ):
            problems.append(f"sweep n={n}: window columns")
    return problems


def check_tv_curve(config: dict, text: str) -> list[str]:
    meta, rows = parse_csv_record(text)
    n, k, stride = config["n"], config["k"], config.get("stride", 1)
    times = [int(r["t"]) for r in rows]
    if times != list(range(0, config["t_max"] + 1, stride)):
        return ["tv-curve: unexpected time grid"]
    chain = Chain(n, k)
    curve = np.array([chain.d(t) for t in times])
    got = np.array([float(r["d"]) for r in rows])
    problems = []
    worst = float(np.abs(curve - got).max())
    if worst > EXACT_TOL:
        problems.append(f"tv-curve: d off by {worst:.3g}")
    for eps in config["eps"]:
        claimed = meta.get(f"t_mix[{eps:g}]")
        if claimed == "":
            ok = curve[-1] > eps - EXACT_TOL
        elif claimed is None or int(claimed) not in times:
            ok = False
        else:
            idx = times.index(int(claimed))
            ok = curve[idx] <= eps + EXACT_TOL and (idx == 0 or curve[idx - 1] > eps - EXACT_TOL)
        if not ok:
            problems.append(f"tv-curve: t_mix[{eps:g}]={claimed!r} is not the first crossing")
    return problems


def check_oracle(config: dict, text: str) -> list[str]:
    _, rows = parse_csv_record(text)
    failing = [f"{r['identity']}[{r['instance']}]" for r in rows if r["status"] != "pass"]
    if not rows:
        return ["oracle-check: no rows"]
    return [f"oracle-check: {name} failed" for name in failing]


def check_coupling(config: dict, text: str) -> list[str]:
    _, rows = parse_csv_record(text)
    n, k, replicas = config["n"], config["k"], config["replicas"]
    if [int(r["t"]) for r in rows] != list(config["t_values"]):
        return ["coupling: unexpected t column"]
    chain = Chain(n, k)
    d_ref = {t: chain.d(t) for t in sorted(config["t_values"])}
    problems = []
    for row in rows:
        t = int(row["t"])
        alpha = (t - 0.25 * n * math.log(n)) / n - 1.0
        first = math.exp(-alpha)
        start = max(1, math.ceil(k * first / math.sqrt(n)))
        if not (math.isclose(float(row["alpha"]), alpha, rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(float(row["first_moment_term"]), first, rel_tol=1e-12)
                and int(row["walk_start"]) == start):
            problems.append(f"coupling t={t}: closed-form columns")
        if not _close(float(row["d_exact"]), d_ref[t]):
            problems.append(f"coupling t={t}: d_exact={row['d_exact']} vs {d_ref[t]!r}")
        survival = walk_survival(start, n, (k / n) ** 2)
        if not _close(float(row["walk_survival"]), survival):
            problems.append(f"coupling t={t}: walk_survival vs {survival!r}")
        est, err = float(row["estimate"]), float(row["stderr"])
        # P[merge time > t] bounds d(t) from above
        spread = max(err, math.sqrt(d_ref[t] * (1.0 - d_ref[t]) / replicas))
        if not (0.0 <= est <= 1.0 and est >= d_ref[t] - Z_LIMIT * spread):
            problems.append(f"coupling t={t}: estimate {est} below d(t)={d_ref[t]:.6g}")
        if not _close(err, math.sqrt(est * (1.0 - est) / replicas), 1e-12):
            problems.append(f"coupling t={t}: stderr does not match the estimate")
    return problems


def check_hitting(config: dict, text: str) -> list[str]:
    _, rows = parse_csv_record(text)
    if [int(r["steps"]) for r in rows] != list(config["steps_values"]):
        return ["hitting: unexpected steps column"]
    problems = []
    for row in rows:
        steps = int(row["steps"])
        exact = walk_survival(config["m"], steps, config["q"])
        if not _close(float(row["exact"]), exact):
            problems.append(f"hitting steps={steps}: exact={row['exact']} vs {exact!r}")
        if not _mc_ok(float(row["simulated"]), float(row["stderr"]), exact, config["replicas"]):
            problems.append(f"hitting steps={steps}: simulated={row['simulated']} vs {exact:.6g}")
    return problems


def check_bounds(config: dict, text: str) -> list[str]:
    _, rows = parse_csv_record(text)
    n, k, threshold = config["n"], config["k"], config["threshold"]
    replicas = config["replicas"]
    if [int(r["t"]) for r in rows] != list(config["t_values"]):
        return ["bounds: unexpected t column"]
    chain = Chain(n, k)
    mean_pi = float(np.arange(k + 1) @ chain.pi)
    var_pi = float(np.arange(k + 1) ** 2 @ chain.pi) - mean_pi**2
    problems = []
    for row in rows:
        t = int(row["t"])
        d = chain.d(t)
        if not _close(float(row["d_exact"]), d):
            problems.append(f"bounds t={t}: d_exact={row['d_exact']} vs {d!r}")
        mu = chain.p
        gap = float(np.arange(k + 1) @ mu) - mean_pi
        var_mu = float(np.arange(k + 1) ** 2 @ mu) - (gap + mean_pi) ** 2
        gap_bound = min(1.0, gap * gap / (gap * gap + 2.0 * (var_mu + var_pi))) if gap else 0.0
        if not _close(float(row["mean_gap_bound"]), gap_bound):
            problems.append(f"bounds t={t}: mean_gap_bound vs {gap_bound!r}")
        for label, residual, correction in (
            ("coupon", 0, 1.0 - float(chain.pi[0])),
            ("labeled", threshold, 1.0 / threshold),
        ):
            survival = collection_survival(n, k, residual, 2 * t)
            value = max(0.0, survival - correction)
            if not _mc_ok(float(row[f"{label}_value"]), float(row[f"{label}_stderr"]),
                          value, replicas, survival):
                problems.append(f"bounds t={t}: {label}_value={row[f'{label}_value']} vs {value:.6g}")
            cheb = max(0.0, _chebyshev(n, k, residual, t) - correction)
            if not _close(float(row[f"{label}_chebyshev"]), cheb):
                problems.append(f"bounds t={t}: {label}_chebyshev vs {cheb!r}")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "tv-curve": check_tv_curve,
    "oracle-check": check_oracle,
    "coupling": check_coupling,
    "hitting": check_hitting,
    "bounds": check_bounds,
}


def check_output(kind: str, config: dict, text: str) -> list[str]:
    """Problems found in one record; empty when the record is correct."""
    try:
        return CHECKS[kind](config, text)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{kind}: unreadable record ({type(exc).__name__}: {exc})"]
