"""Monotone couplings of two block-occupancy chains.

Two replicas W1 >= W2 of the birth-and-death chain from
:mod:`mixlab.lumped` are run jointly so that at most one replica moves
per step.  Off the diagonal the joint kernel assigns

    (i, j) -> (i+1, j)  with probability up(i)
    (i, j) -> (i, j-1)  with probability down(j)
    (i, j) -> (i-1, j)  with probability down(i)
    (i, j) -> (i, j+1)  with probability up(j)
    (i, j) -> (i, j)    with the remaining stay(i) + stay(j) - 1 >= 0,

so each coordinate alone moves exactly by the marginal kernel, the order
W1 >= W2 is preserved, and once the replicas meet they move together
forever.  The meeting time tau therefore dominates the distance to
stationarity: TV(law from x at time t, law from y) <= P[tau > t].

For analysis the difference D = W1 - W2 is compared against a dominating
lazy simple random walk.  Viewed at its jump times, D moves up with
conditional probability at most 1/2 while its jump clock runs at rate
q(i, j) >= k^2/n^2 (:func:`check_skeleton_invariants` scans both, and
``oracle-check`` runs it).  Coupling the jump directions through one
shared uniform per jump and both holding times through another
(inverse-CDF geometric, where the smaller success probability always
yields the longer holding time) produces, pathwise, a reflecting-free
walk whose zero-hitting time tau' is never smaller than tau.

The merge sampler runs the pair through its jump chain, one move and
one clock uniform per jump; the walk's hitting sampler in
:mod:`mixlab.walk` draws its jumps from their first-passage law and
their holds as one negative-binomial draw instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exclusion import ModelParams
from .lumped import BirthDeathKernel, build_kernel
from .walk import _check_batch, _geometric_from_uniform, tail_estimate

#: (W1, W2) steps of the four off-diagonal moves, in the order the
#: skeleton thresholds split them: W1 up, W2 down, W1 down, W2 up.
_PAIR_MOVES = np.array([[1, 0, -1, 0], [0, -1, 0, 1]], dtype=np.int64)

@dataclass(frozen=True)
class CoupledKernel:
    """Joint kernel of the ordered pair (W1, W2); see the module docstring."""

    base: BirthDeathKernel

    @property
    def params(self) -> ModelParams:
        return self.base.params

    def transition_row(self, i: int, j: int) -> list[tuple[tuple[int, int], float]]:
        """Explicit outcome list from pair state (i, j), zero entries dropped."""
        k = self.params.k
        if not (0 <= j <= i <= k):
            raise ValueError(f"pair state must satisfy 0 <= j <= i <= k, got ({i}, {j})")
        up, down, stay = self.base.up, self.base.down, self.base.stay
        if i == j:
            row = [
                ((i + 1, j + 1), float(up[i])),
                ((i - 1, j - 1), float(down[i])),
                ((i, j), float(stay[i])),
            ]
        else:
            row = [
                ((i + 1, j), float(up[i])),
                ((i, j - 1), float(down[j])),
                ((i - 1, j), float(down[i])),
                ((i, j + 1), float(up[j])),
                ((i, j), float(stay[i]) + float(stay[j]) - 1.0),
            ]
        return [(state, p) for state, p in row if p != 0.0]

    def skeleton_thresholds(
        self, i: np.ndarray, j: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Jump-chain splitting (a, b, c, q) for off-diagonal pair states.

        q is the total move probability; a, b, c are the cumulative
        fractions of the four moves in the order of ``_PAIR_MOVES``.
        D = W1 - W2 increases exactly on the first two intervals, so
        b <= 1/2 always.  Given ``out``, four float rows shaped like i,
        the four are written there instead of into new arrays.
        """
        up, down = self.base.up, self.base.down
        a, b, c, q = (None,) * 4 if out is None else out
        # a gather into ``out`` clips its indices rather than checking them,
        # as under "raise" numpy first copies ``out``; the sampler's states
        # stay inside 0..k, since up(k) = down(0) = 0
        mode = "raise" if out is None else "clip"
        # cumulative sums, then fractions, each in its gather's array
        a = up.take(i, out=a, mode=mode)
        b = down.take(j, out=b, mode=mode)
        b += a
        c = down.take(i, out=c, mode=mode)
        c += b
        q = up.take(j, out=q, mode=mode)
        q += c
        a /= q
        b /= q
        c /= q
        return a, b, c, q


def build_coupled_kernel(params: ModelParams) -> CoupledKernel:
    """Build and validate the joint kernel for an instance.

    Aborts when any joint probability would be negative; since the hold
    probability of pair (i, j) is stay(i) + stay(j) - 1 and every stay is
    at least 1/2, validation amounts to checking the worst diagonal pair.
    """
    base = build_kernel(params)
    worst_hold = 2.0 * float(base.stay.min()) - 1.0
    if worst_hold < -1e-12:
        raise ValueError("joint kernel would have a negative hold probability")
    return CoupledKernel(base)


def check_skeleton_invariants(kernel: CoupledKernel) -> tuple[float, float]:
    """Exhaustively scan all off-diagonal pair states.

    Returns (max b, min q * n^2/k^2); validity requires the first to be
    at most 1/2 and the second at least 1.
    """
    k = kernel.params.k
    n = kernel.params.n
    ii, jj = np.tril_indices(k + 1, k=-1)  # i > j
    _, b, _, q = kernel.skeleton_thresholds(ii, jj)
    q_floor = (float(k) / float(n)) ** 2
    return float(b.max()), float(q.min() / q_floor)


@dataclass
class MergeSamples:
    """Replica batch of joint-chain runs up to a time cap.

    ``tau[r]`` is the meeting time when ``merged[r]`` is True, otherwise
    the sentinel t_cap + 1.  ``w1``/``w2`` hold the pair state at the
    meeting time (equal values) or at t_cap for unmerged replicas.
    """

    t_cap: int
    tau: np.ndarray
    merged: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def merge_time_samples(
    kernel: CoupledKernel,
    x: int,
    y: int,
    t_cap: int,
    replicas: int,
    rng: np.random.Generator,
) -> MergeSamples:
    """Vectorized joint-chain simulation from pair state (x, y).

    Runs the pair through its jump chain: each round draws, per running
    replica, one move uniform and then one clock uniform, which pick the
    jump and stretch into its geometric hold, so hold steps cost nothing.
    A replica leaves the batch when it meets the diagonal, or with the
    state it held at t_cap when its next jump lands after t_cap.  A start
    on the diagonal merges at 0 without a draw.  Each round's float work
    runs in place in buffers made once per call.
    """
    _check_batch(t_cap, replicas)
    if not (0 <= y <= x <= kernel.params.k):
        raise ValueError(f"start must satisfy 0 <= y <= x <= k, got ({x}, {y})")
    w1 = np.full(replicas, x, dtype=np.int64)
    w2 = np.full(replicas, y, dtype=np.int64)
    if x == y:
        tau = np.zeros(replicas, dtype=np.int64)
        return MergeSamples(t_cap, tau, np.ones(replicas, dtype=bool), w1, w2)
    tau = np.full(replicas, t_cap + 1, dtype=np.int64)
    merged = np.zeros(replicas, dtype=bool)
    di, dj = _PAIR_MOVES
    # the running replicas: their indices, pair states and held steps;
    # every one has made the same number of jumps, so clock = waited + jumps
    gid = np.arange(replicas)
    i, j = w1.copy(), w2.copy()
    waited = np.zeros(replicas, dtype=np.int64)
    jumps = 0
    # the uniforms, thresholds and move steps sit in the head of buffers
    # made once per call: made and freed each round, at 20 000 replicas
    # they took 4*10^4 minor page faults per call (2*10^5 when freed in one
    # del before the exit test), as the allocator gave their pages back
    # and took them again; the buffers take a few hundred on a first call
    work = np.empty((6, replicas))
    step = np.empty(replicas, dtype=np.int64)
    while gid.size:
        size = gid.size
        u_move, u_clock = rng.random(out=work[0, :size]), rng.random(out=work[1, :size])
        a, b, c, q = kernel.skeleton_thresholds(i, j, out=work[2:, :size])
        move = (u_move >= a).view(np.int8)
        move += u_move >= b
        move += u_move >= c
        with np.errstate(divide="ignore"):
            log1m_q = np.log1p(np.negative(q, out=q), out=q)  # -inf when q == 1
        waited += _geometric_from_uniform(u_clock, log1m_q, out=u_clock)
        jumps += 1
        i += di.take(move, out=step[:size], mode="clip")  # move is 0..3
        j += dj.take(move, out=step[:size], mode="clip")
        exit_ = waited > t_cap - jumps  # late: the jump lands after t_cap
        exit_ |= i == j
        if exit_.any():
            out = np.flatnonzero(exit_)
            is_late = waited[out] > t_cap - jumps
            late, done = out[is_late], out[~is_late]
            tau[gid[done]] = waited[done] + jumps
            merged[gid[done]] = True
            # a late replica holds, at t_cap, the state before its jump
            w1[gid[late]] = i[late] - di.take(move[late])
            w2[gid[late]] = j[late] - dj.take(move[late])
            w1[gid[done]] = i[done]
            w2[gid[done]] = j[done]
            keep = ~exit_
            gid = gid[keep]
            i = i[keep]
            j = j[keep]
            waited = waited[keep]
    return MergeSamples(t_cap, tau, merged, w1, w2)


def coupling_tv_upper_bound(
    params: ModelParams,
    t_values: Sequence[int],
    replicas: int,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Estimate P[meeting time > t] at each t for the worst pair (k, 0).

    Every start is a relabelling of the packed one, and the monotone
    coupling of (k, 0) sandwiches every other pair, so its meeting-time
    tail bounds the distance curve d(t) from above.  Every estimate is
    read from one batch of merge times run to max(t_values) and comes as
    (estimate, binomial standard error).
    """
    kernel = build_coupled_kernel(params)
    samples = merge_time_samples(kernel, params.k, 0, max(t_values), replicas, rng)
    return [tail_estimate(samples.tau, t) for t in t_values]
