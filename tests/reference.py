"""Reference computations that tests compare the package against.

Each one derives a quantity the package samples by a route that shares
no sampling code with it: an exact linear solve for the mean merge
time, the pure-death chain for the law of the collection time, the
per-jump walk for the law of the first-passage hitting sampler, the per-jump
pair for the merge sampler's run, and that walk run next to the pair
from the same uniforms as its dominating walk.  Two more keep scipy
routes to exact quantities: the walk's survival through the regularized
incomplete beta function, and the swap chain's one-step matrix as a
``scipy.sparse`` matrix with the law stepped by sparse products.  The
walk's survival at small move probabilities, where the beta-function
route cancels, is also summed in 50-digit decimals.  The mean-gap bound
on d(t) is also taken from the moments of a stepped law rather than
from their closed forms.  Last, a record's
csv and json texts are written whole, cell by cell through
``csv.writer`` and in one ``json.dumps``, and a tv-curve record's rows
are built as one list.
"""

from __future__ import annotations

import csv
import decimal
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import betainc

from mixlab import exclusion
from mixlab.bounds import CollectorSpec
from mixlab.coupling import _PAIR_MOVES, CoupledKernel
from mixlab.lumped import MixingProfile
from mixlab.records import ResultRecord, format_cell
from mixlab.walk import _check_batch, _geometric_from_uniform, _validate

#: Largest number of transient pair states the exact linear-system solver
#: will handle (dense solve).
_PAIR_STATE_CAP = 2_000


def expected_merge_time_exact(kernel: CoupledKernel, x: int, y: int) -> float:
    """Exact E[meeting time] from (x, y) by solving the hitting-time system.

    Independent of any sampling: sets up (I - Q) h = 1 over the transient
    pair states i > j and solves densely, so it is limited to small k.
    """
    k = kernel.params.k
    if not (0 <= y <= x <= k):
        raise ValueError(f"start must satisfy 0 <= y <= x <= k, got ({x}, {y})")
    if x == y:
        return 0.0
    transient = [(i, j) for i in range(k + 1) for j in range(i)]
    if len(transient) > _PAIR_STATE_CAP:
        raise ValueError("pair state space too large for the dense hitting-time solve")
    index = {s: idx for idx, s in enumerate(transient)}
    size = len(transient)
    system = np.eye(size)
    for (i, j), row_idx in index.items():
        for (i2, j2), p in kernel.transition_row(i, j):
            if i2 != j2:
                system[row_idx, index[(i2, j2)]] -= p
    hitting = np.linalg.solve(system, np.ones(size))
    return float(hitting[index[(x, y)]])


def _pair_process(kernel: CoupledKernel, x: int, y: int, replicas: int) -> tuple:
    """The pair from (x, y) as a jump-chain process, absorbed on the diagonal.

    From an off-diagonal state (i, j) a jump makes one of the four moves
    split by :meth:`CoupledKernel.skeleton_thresholds`, after a geometric
    hold with success probability q(i, j).  This is the per-jump pair
    that :func:`dominated_pair_samples` runs, and the reference run of
    :func:`mixlab.coupling.merge_time_samples`.
    """
    if not (0 <= y <= x <= kernel.params.k):
        raise ValueError(f"start must satisfy 0 <= y <= x <= k, got ({x}, {y})")

    def jump(state, u_move, u_clock):
        a, b, c, q = kernel.skeleton_thresholds(state[0], state[1])
        move = (u_move >= a).astype(np.int8) + (u_move >= b) + (u_move >= c)
        with np.errstate(divide="ignore"):
            log1m_q = np.log1p(-q)  # -inf when q == 1 (single forced move)
        return state + _PAIR_MOVES[:, move], _geometric_from_uniform(u_clock, log1m_q) + 1

    state = np.repeat(np.array([[x], [y]], dtype=np.int64), replicas, axis=1)
    return state, jump, lambda pair: pair[0] == pair[1]


def _side_by_side(processes: list, t_cap: int, rng: np.random.Generator) -> list:
    """Run processes side by side through their jump chains on shared uniforms.

    Kept for :func:`dominated_pair_samples`; run with the pair alone it
    draws the same uniforms and returns the same samples as
    :func:`mixlab.coupling.merge_time_samples`.

    Each process is a triple (state, jump, absorbed): ``state`` is an int
    array of shape (dims, replicas) holding the start, with the same
    replicas for every process; ``jump(state, u_move, u_clock)`` returns
    the state after one jump and the holding time spent before it;
    ``absorbed(state)`` marks absorbing states, and a replica that starts
    in one is absorbed at time 0.  Every round draws one move and one
    clock uniform per replica that some process still runs, and each
    process takes the uniforms of its own running replicas.  Returns
    (times, hit) per process; times carry t_cap + 1 where the cap came
    first.  ``state`` is overwritten with the state at absorption, or at
    t_cap: a jump that lands after t_cap is discarded.
    """
    at_start = [absorbed(state) for state, _, absorbed in processes]
    results = [(np.where(hit, 0, t_cap + 1), hit) for hit in at_start]
    # working columns of the replicas in gid: state, clock and running flag
    cur = [state.copy() for state, _, _ in processes]
    clocks = [np.zeros(hit.size, dtype=np.int64) for hit in at_start]
    running = [~hit for hit in at_start]
    gid = np.arange(at_start[0].size)
    while True:
        keep = functools.reduce(np.logical_or, running)
        if not keep.all():
            gid = gid[keep]
            cur = [c[:, keep] for c in cur]
            clocks = [c[keep] for c in clocks]
            running = [r[keep] for r in running]
        if not gid.size:
            return results
        u_move = rng.random(gid.size)
        u_clock = rng.random(gid.size)
        for p, ((state, jump, absorbed), (times, hit)) in enumerate(zip(processes, results)):
            run = running[p]
            if not run.any():
                continue
            sel = slice(None) if run.all() else run
            before = cur[p][:, sel]
            nxt, hold = jump(before, u_move[sel], u_clock[sel])
            when = clocks[p][sel] + hold
            late = when > t_cap
            done = absorbed(nxt) & ~late
            still = ~(late | done)
            if not still.all():
                ids = gid[sel]
                late, done = np.flatnonzero(late), np.flatnonzero(done)
                times[ids[done]] = when[done]
                hit[ids[done]] = True
                state[:, ids[late]] = before[:, late]
                state[:, ids[done]] = nxt[:, done]
            if sel is run:
                cur[p][:, sel], clocks[p][sel], run[sel] = nxt, when, still
            else:  # every replica ran: take the new arrays as they are
                cur[p], clocks[p], running[p] = nxt, when, still
            del before, nxt, hold, when  # not held through the next draws


def _walk_process(start: np.ndarray, q: float) -> tuple:
    """The lazy walk from positions ``start`` as a jump-chain process.

    A jump moves +1 when u_move < 1/2, else -1, after a geometric hold
    with success probability q; the walk is absorbed at 0.  This is the
    per-jump walk that :func:`dominated_pair_samples` runs beside the
    pair, and the reference law of :func:`mixlab.walk.hitting_time_samples`.
    """
    log1m_q = math.log1p(-q) if q < 1.0 else -math.inf

    def jump(pos, u_move, u_clock):
        return pos + np.where(u_move < 0.5, 1, -1), _geometric_from_uniform(u_clock, log1m_q) + 1

    return start[np.newaxis], jump, lambda pos: pos[0] == 0


@dataclass
class DominatedPairSamples:
    """Replica batch of the joint chain with its dominating free walk.

    tau / merged describe the pair meeting time as in MergeSamples;
    tau_walk / walk_hit describe the zero-hitting time of the dominating
    walk driven by the same uniforms.  Whenever both events resolve under
    the cap, tau_walk >= tau holds pathwise by construction.
    d_up_moves / pair_moves tally how often the pair difference increased
    over all jump-chain moves (the fraction stays below 1/2).
    """

    t_cap: int
    tau: np.ndarray
    merged: np.ndarray
    tau_walk: np.ndarray
    walk_hit: np.ndarray
    d_up_moves: int
    pair_moves: int


def dominated_pair_samples(
    kernel: CoupledKernel,
    x: int,
    y: int,
    t_cap: int,
    replicas: int,
    rng: np.random.Generator,
) -> DominatedPairSamples:
    """Joint chain and dominating walk from shared uniforms, vectorized.

    Both processes are simulated through their jump chains: one uniform
    per jump index picks the move for whichever process is still running,
    and a second uniform stretches into each process's geometric holding
    time (success probability q(i, j) for the pair, k^2/n^2 for the
    walk).  Because q(i, j) >= k^2/n^2 everywhere and a D-increasing move
    forces a walk-increasing move (b <= 1/2), the walk's zero-hitting
    clock time can never precede the pair's meeting time.
    """
    _check_batch(t_cap, replicas)
    state, jump, met = _pair_process(kernel, x, y, replicas)
    tally = [0, 0]  # D-increasing pair jumps, all pair jumps

    def counted_jump(pair, u_move, u_clock):
        nxt, hold = jump(pair, u_move, u_clock)
        tally[0] += int((nxt[0] - nxt[1] > pair[0] - pair[1]).sum())
        tally[1] += u_move.size
        return nxt, hold

    k, n = kernel.params.k, kernel.params.n
    walk = _walk_process(np.full(replicas, x - y, dtype=np.int64), (float(k) / float(n)) ** 2)
    (tau, merged), (tau_walk, walk_hit) = _side_by_side(
        [(state, counted_jump, met), walk], t_cap, rng
    )
    return DominatedPairSamples(t_cap, tau, merged, tau_walk, walk_hit, *tally)


def collection_time_cdf(spec: CollectorSpec, draws: int) -> np.ndarray:
    """P[tau' <= d] for d = 0, ..., draws, exactly.

    Evolves the pure-death chain on the number j of unselected block
    sites, which starts at k and loses one with probability j/n per
    single site draw; tau' is the draw at which it reaches
    ``spec.residual``, so the CDF is the mass absorbed there.
    """
    j = np.arange(spec.residual, spec.k + 1)
    law = np.zeros(j.size)
    law[-1] = 1.0
    cdf = np.zeros(draws + 1)
    for d in range(1, draws + 1):
        fresh = law[1:] * j[1:] / spec.n
        law[1:] -= fresh
        law[:-1] += fresh
        cdf[d] = law[0]
    return cdf


def _binom_cdf(k: np.ndarray, n: np.ndarray | int, p: float) -> np.ndarray:
    """P[Bin(n, p) <= k] elementwise (0 for k < 0, 1 for k >= n), accurate
    to a few ulps through the regularized incomplete beta function."""
    inner = betainc(np.maximum(n - k, 1), np.maximum(k, 0) + 1, 1.0 - p)
    return np.where(k < 0, 0.0, np.where(k >= n, 1.0, inner))


def survival_betainc(m: int, steps: int, q: float) -> float:
    """:func:`mixlab.walk.survival_exact` through binomial CDFs.

    The same reflection identity, with the Bin(steps, q) weights as
    differences of CDF values over all steps + 1 move counts and each
    window mass P[2 Bin(M, 1/2) - M in [-m+1, m]] as a difference of two
    CDF values.
    """
    _validate(m, steps, q)
    weights = np.diff(_binom_cdf(np.arange(-1, steps + 1), steps, q))
    moves = np.flatnonzero(weights)
    inside = _binom_cdf((moves + m) // 2, moves, 0.5) - _binom_cdf((moves - m) // 2, moves, 0.5)
    return float(weights[moves] @ inside)


def survival_decimal(m: int, steps: int, q: float) -> float:
    """:func:`mixlab.walk.survival_exact` summed in 50-digit decimals.

    The sum over move counts M of C(steps, M) q^M (1 - q)^(steps - M)
    times the window mass sum_j C(M, j) / 2^M over 2j - M in [-m+1, m],
    with the float q taken exactly and each window mass an exact integer
    sum.  It runs up from M = 0 and stops past the mean steps q at the
    first weight below 1e-40; past the mean each weight is a falling
    ratio below 1 times the one before, so what is left is far below
    double precision.  It takes more than steps q terms, so it is meant
    for small steps q.
    """
    _validate(m, steps, q)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        q_exact = decimal.Decimal(q)
        odds = q_exact / (1 - q_exact)
        weight = (1 - q_exact) ** steps
        total = decimal.Decimal(0)
        for moves in range(steps + 1):
            window = range(max(0, (moves - m + 2) // 2), min(moves, (moves + m) // 2) + 1)
            total += weight * sum(math.comb(moves, j) for j in window) / 2**moves
            if moves > steps * q and weight < decimal.Decimal("1e-40"):
                break
            weight *= odds * (steps - moves) / (moves + 1)
        return float(total)


def mean_gap_bound_of_law(mu: np.ndarray, pi: np.ndarray) -> float:
    """The mean-separation lower bound on TV(mu, pi) from the two laws'
    moments: gap^2 / (gap^2 + 2 Var_mu + 2 Var_pi), 0 when the means
    coincide (see :func:`mixlab.lumped.mean_gap_bound`)."""
    values = np.arange(mu.size, dtype=float)
    means = [float(law @ values) for law in (mu, pi)]
    variances = [float(law @ (values * values)) - m * m for law, m in zip((mu, pi), means)]
    gap = means[0] - means[1]
    if gap == 0.0:
        return 0.0
    return min(1.0, gap * gap / (gap * gap + 2.0 * sum(variances)))


def transition_csr(params, mode: str) -> tuple[list, sparse.csr_matrix]:
    """The swap chain's one-step matrix P as a CSR matrix, with its states.

    Built from :func:`mixlab.exclusion.transition_matrix`: the swap
    probability 2/n^2 at every off-diagonal pair, and the diagonal.
    """
    states, (rows, cols), diag = exclusion.transition_matrix(params, mode)
    size = len(states)
    entries = np.concatenate((np.full(rows.size, 2.0 / params.n**2), diag))
    at = (np.concatenate((rows, np.arange(size))), np.concatenate((cols, np.arange(size))))
    return states, sparse.csr_matrix((entries, at), shape=(size, size))


def tv_curve_csr(params, mode: str, t_max: int) -> np.ndarray:
    """:func:`mixlab.exclusion.brute_force_tv_curve` by sparse products:
    the law steps as P^T mu with P^T in CSR form."""
    states, matrix = transition_csr(params, mode)
    mu = np.zeros(len(states))
    mu[states.index(exclusion._initial_cells(params, mode))] = 1.0
    step_t = matrix.transpose().tocsr()
    curve = np.empty(t_max + 1)
    for t in range(t_max + 1):
        curve[t] = 0.5 * np.abs(mu - 1.0 / len(states)).sum()
        if t < t_max:
            mu = step_t @ mu
    return curve


def csv_reference(record: ResultRecord) -> str:
    """The record's csv text cell by cell through csv.writer."""
    buf = io.StringIO()
    for key in sorted(record.meta):
        buf.write(f"# {key}={format_cell(record.meta[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def json_reference(record: ResultRecord) -> str:
    """The record's json text as one dump of the whole payload."""
    payload = {
        "experiment": record.experiment,
        "meta": record.meta,
        "columns": record.columns,
        "rows": [list(row) for row in record.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def tv_curve_rows(profile: MixingProfile, warning: str) -> list[tuple]:
    """A tv-curve record's rows (t, d, warning) as one list, with the
    warning on the last row only."""
    rows = [(t, d, "") for t, d in zip(profile.times.tolist(), profile.tv.tolist())]
    rows[-1] = rows[-1][:2] + (warning,)
    return rows
