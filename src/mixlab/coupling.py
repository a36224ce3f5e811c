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

The merge sampler runs the pair as one jump-chain process on the engine
of :mod:`mixlab.walk`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exclusion import ModelParams
from .lumped import BirthDeathKernel, build_kernel
from .walk import _check_batch, _geometric_from_uniform, _jump_chain

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
        self, i: np.ndarray, j: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Jump-chain splitting (a, b, c, q) for off-diagonal pair states.

        q is the total move probability; a, b, c are the cumulative
        fractions of the four moves in the order of ``_PAIR_MOVES``.
        D = W1 - W2 increases exactly on the first two intervals, so
        b <= 1/2 always.
        """
        up, down = self.base.up, self.base.down
        c1 = up[i]
        c2 = c1 + down[j]
        c3 = c2 + down[i]
        q = c3 + up[j]
        return c1 / q, c2 / q, c3 / q, q


def _pair_process(kernel: CoupledKernel, x: int, y: int, replicas: int) -> tuple:
    """The pair from (x, y) as a jump-chain process, absorbed on the diagonal.

    From an off-diagonal state (i, j) a jump makes one of the four moves
    split by :meth:`CoupledKernel.skeleton_thresholds`, after a geometric
    hold with success probability q(i, j).
    """
    if not (0 <= y <= x <= kernel.params.k):
        raise ValueError(f"start must satisfy 0 <= y <= x <= k, got ({x}, {y})")

    def jump(state, u_move, u_clock):
        a, b, c, q = kernel.skeleton_thresholds(state[0], state[1])
        move = (u_move >= a).astype(np.int8) + (u_move >= b) + (u_move >= c)
        with np.errstate(divide="ignore"):
            log1m_q = np.log1p(-q)  # -inf when q == 1 (single forced move)
        return state + _PAIR_MOVES[:, move], _geometric_from_uniform(u_clock, log1m_q)

    state = np.repeat(np.array([[x], [y]], dtype=np.int64), replicas, axis=1)
    return state, jump, lambda pair: pair[0] == pair[1]


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

    Runs the pair through its jump chain: each jump draws its move and
    its geometric holding time from two uniforms, so hold steps cost
    nothing.
    """
    _check_batch(t_cap, replicas)
    state, jump, met = _pair_process(kernel, x, y, replicas)
    [(tau, merged)] = _jump_chain([(state, jump, met)], t_cap, rng)
    return MergeSamples(t_cap, tau, merged, state[0], state[1])


@dataclass
class CouplingBound:
    """Monte Carlo upper bound on distance to stationarity at one time."""

    params: ModelParams
    t: int
    replicas: int
    estimate: float
    stderr: float


def coupling_tv_upper_bound(
    params: ModelParams,
    t_values: Sequence[int],
    replicas: int,
    rng: np.random.Generator,
    x: int | None = None,
    y: int = 0,
) -> list[CouplingBound]:
    """Estimate P[meeting time > t] at each t from the worst pair (default (k, 0)).

    The meeting-time tail bounds TV(time-t law from x, time-t law from y)
    from above, and with y at stationarity-reachable 0 and x = k it bounds
    the distance curve d(t).  Every estimate is read from one batch of
    merge times run to max(t_values) and comes with its binomial
    standard error.
    """
    kernel = build_coupled_kernel(params)
    if x is None:
        x = params.k
    samples = merge_time_samples(kernel, x, y, max(t_values), replicas, rng)
    out = []
    for t in t_values:
        survive = float(np.mean(samples.tau > t))
        stderr = math.sqrt(max(survive * (1.0 - survive), 0.0) / replicas)
        out.append(CouplingBound(params, t, replicas, survive, stderr))
    return out
