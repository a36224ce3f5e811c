"""Reference computations that tests compare the package against.

Each one derives a quantity the package samples by a route that shares
no sampling code with it: an exact linear solve for the mean merge
time, the sum of independent geometrics for the collection time, and
the dominating walk run next to the coupled pair from the same uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mixlab.bounds import CollectorSpec
from mixlab.coupling import CoupledKernel, _pair_process
from mixlab.walk import _check_batch, _jump_chain, _walk_process

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
    (tau, merged), (tau_walk, walk_hit) = _jump_chain(
        [(state, counted_jump, met), walk], t_cap, rng
    )
    return DominatedPairSamples(t_cap, tau, merged, tau_walk, walk_hit, *tally)


def geometric_sum_samples(
    spec: CollectorSpec,
    replicas: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """tau' in law, resampled as the sum of its independent geometrics.

    Shares no code with :func:`mixlab.bounds.single_draw_collection_samples`;
    used to test that the raw draw process has the right distribution.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    total = np.zeros(replicas, dtype=np.int64)
    for j in range(spec.residual + 1, spec.k + 1):
        total += rng.geometric(j / spec.n, size=replicas)
    return total
