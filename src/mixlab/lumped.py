"""Exact analysis of the block-occupancy birth-and-death chain.

Projecting the complete-graph swap dynamics onto W = number of particles
among the first k sites gives a Markov chain on {0, ..., k} with the
tridiagonal kernel

    up(i)   = 2 (k - i)^2 / n^2
    down(i) = 2 i (n - 2k + i) / n^2
    stay(i) = 1 - up(i) - down(i)

and hypergeometric stationary law.  The holding probability never drops
below 1/2, so the chain is lazy.  Everything in this module is exact
double-precision linear algebra on vectors of length k + 1; the only
approximations anywhere are float rounding and the subnormal flush: an
evolved entry that falls below the smallest normal double (2.2e-308) is
set to zero, so at most (k + 1) * steps * 2.2e-308 of mass is dropped.

Two closed forms drive the moment machinery: the conditional mean of a
step is affine in W, so E[W_t] relaxes geometrically with factor 1 - 2/n
toward k^2/n, and the second moment obeys a linear recursion with factor
(1 - 2/n)^2 whose coefficients follow from the kernel above.  The
``oracle-check`` experiment checks both against direct distribution
evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .exclusion import ModelParams

#: n beyond which n^2 (and the integer numerators of the kernel) would no
#: longer be exactly representable in double precision.
_N_EXACT_CAP = 10_000_000

#: Distribution vectors are renormalized whenever their mass drifts by
#: more than this; a drift beyond _MASS_HARD is treated as corruption.
_MASS_DRIFT = 1e-12
_MASS_HARD = 1e-10

#: Evolved entries below the smallest normal double are flushed to zero.
#: A subnormal times stay(i) >= 1/2 rounds back to itself, so without the
#: flush a tail far below the double range sits near 5e-324 forever, and
#: arithmetic on subnormals is several times slower than on normal data.
_TINY = float(np.finfo(float).tiny)

#: Upward steps of d(t) up to this size are float wobble and are clamped;
#: a larger one is an error.
_TV_WOBBLE = 1e-12

#: Distances are computed for blocks of up to this many laws at once,
#: fewer when k is large so that a block stays near _BLOCK_BYTES.
_BLOCK_ROWS = 64
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class BirthDeathKernel:
    """Tridiagonal transition kernel of the block-occupancy chain."""

    params: ModelParams
    up: np.ndarray
    down: np.ndarray
    stay: np.ndarray

    @property
    def size(self) -> int:
        return self.params.k + 1

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """Rows up(j - 1), stay(j), down(j + 1): the weights of the left,
        middle and right neighbour in entry j of a step, zero where there
        is no such neighbour."""
        coef = np.zeros((3, self.size))
        coef[0, 1:] = self.up[:-1]
        coef[1] = self.stay
        coef[2, :-1] = self.down[1:]
        coef.setflags(write=False)
        return coef


@dataclass(frozen=True)
class MixingProfile:
    """Sampled distance-to-stationarity curve d(t) from the W = k start."""

    params: ModelParams
    times: np.ndarray
    tv: np.ndarray
    stride: int = 1

    def __post_init__(self) -> None:
        if self.times.shape != self.tv.shape:
            raise ValueError("times and tv must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.tv.size and (self.tv.min() < -1e-12 or self.tv.max() > 1 + 1e-12):
            raise ValueError("tv values must lie in [0, 1]")
        if np.any(np.diff(self.tv) > 1e-12):
            raise ValueError("tv values must be nonincreasing along the curve")


def build_kernel(params: ModelParams) -> BirthDeathKernel:
    """Construct the exact kernel; all entries are validated to lie in [0, 1]."""
    n, k = params.n, params.k
    if n > _N_EXACT_CAP:
        raise ValueError(f"n={n} exceeds the exact double-precision range (n <= {_N_EXACT_CAP})")
    i = np.arange(k + 1, dtype=float)
    nsq = float(n) * float(n)
    up = 2.0 * (k - i) ** 2 / nsq
    down = 2.0 * i * (n - 2 * k + i) / nsq
    stay = 1.0 - up - down
    for name, arr in (("up", up), ("down", down), ("stay", stay)):
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError(f"kernel entry out of [0, 1] in {name}")
    for arr in (up, down, stay):
        arr.setflags(write=False)
    return BirthDeathKernel(params, up, down, stay)


def _log_comb(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    return gammaln(np.asarray(a) + 1) - gammaln(np.asarray(b) + 1) - gammaln(np.asarray(a) - np.asarray(b) + 1)


def equilibrium(params: ModelParams) -> np.ndarray:
    """Stationary law of W: hypergeometric(n, k, k), computed in log space.

    Log-space binomials keep the computation finite for n up to millions;
    the final vector is renormalized so it sums to one exactly up to float
    addition.
    """
    n, k = params.n, params.k
    m = np.arange(k + 1, dtype=float)
    logp = _log_comb(float(k), m) + _log_comb(float(n - k), float(k) - m) - _log_comb(float(n), float(k))
    p = np.exp(logp)
    p /= p.sum()
    p.setflags(write=False)
    return p


def check_distribution(dist: np.ndarray) -> None:
    """Reject vectors that are not probability distributions."""
    dist = np.asarray(dist)
    if dist.ndim != 1:
        raise ValueError("distribution must be one-dimensional")
    if dist.size == 0:
        raise ValueError("distribution must be nonempty")
    if dist.min() < 0:
        raise ValueError("distribution has a negative entry")
    if abs(float(dist.sum()) - 1.0) > _MASS_HARD:
        raise ValueError("distribution mass deviates from 1 beyond tolerance")


def delta_at(index: int, size: int) -> np.ndarray:
    """Point mass at ``index`` on {0, ..., size-1}."""
    if not 0 <= index < size:
        raise ValueError("index out of range")
    d = np.zeros(size)
    d[index] = 1.0
    return d


class _Stepper:
    """One law of the chain, stepped in place over its normal-range window.

    Two buffers of length k + 3 hold the current and the next law between
    zero pads.  Outside the window [lo, hi] the current law is exactly
    zero, so a step only computes the entries lo - 1 .. hi + 1; new edge
    entries below the smallest normal double are flushed and the window
    shrinks past them.  Inside the window a step is the dense update's
    float arithmetic entry for entry: ``p*stay``, plus the up term, plus
    the down term, then the mass check.  The three products come from one
    multiply of a (3, w) view of the left, middle and right neighbours by
    the matching kernel rows.
    """

    def __init__(self, kernel: BirthDeathKernel, dist: np.ndarray):
        size = kernel.size
        self.k = size - 1
        self.coef = kernel._coefficients
        self.terms = np.empty((3, size))
        self.buf = np.zeros((2, size + 2))
        self.laws = self.buf[:, 1:-1]
        self.edges = (memoryview(self.buf[0]), memoryview(self.buf[1]))
        # neighbours[b][:, j] holds the entries j - 1, j, j + 1 of buffer b's law
        item = self.buf.itemsize
        self.neighbours = np.ndarray(
            (2, 3, size), float, self.buf, 0, (item * (size + 2), item, item)
        )
        self.neighbours.setflags(write=False)
        self.views: list[tuple | None] = [None, None]
        support = (dist >= _TINY).nonzero()[0]
        self.lo, self.hi = int(support[0]), int(support[-1])
        self.laws[0, self.lo : self.hi + 1] = dist[self.lo : self.hi + 1]
        self.cur = 0

    def law(self) -> np.ndarray:
        """A copy of the current law, with any subnormal entry flushed."""
        out = self.laws[self.cur].copy()
        out[out < _TINY] = 0.0
        return out

    def advance(self, steps: int, rows=(None,)) -> None:
        """For each entry of ``rows``, take ``steps`` steps, then copy the
        law into that row unless it is None."""
        k, lo, hi, cur = self.k, self.lo, self.hi, self.cur
        laws, edges, views = self.laws, self.edges, self.views
        multiply, add, add_reduce = np.multiply, np.add, np.add.reduce
        for row in rows:
            for _ in range(steps):
                dst = 1 - cur
                nlo = lo - 1 if lo else 0
                nhi = hi + 1 if hi < k else k
                view = views[cur]
                if view is None or view[0] != nlo or view[1] != nhi:
                    terms = self.terms[:, : nhi - nlo + 1]
                    view = views[cur] = (
                        nlo,
                        nhi,
                        self.neighbours[cur][:, nlo : nhi + 1],
                        self.coef[:, nlo : nhi + 1],
                        terms,
                        *terms,
                        laws[dst][nlo : nhi + 1],
                    )
                _, _, near, coef, terms, up_term, stay_term, down_term, new = view
                multiply(near, coef, out=terms)
                add(stay_term, up_term, out=new)
                add(new, down_term, out=new)
                mass = add_reduce(new)
                if abs(mass - 1.0) > _MASS_DRIFT:
                    new /= mass
                edge = edges[dst]
                if edge[nlo + 1] < _TINY or edge[nhi + 1] < _TINY:
                    while edge[nlo + 1] < _TINY and nlo < nhi:
                        edge[nlo + 1] = 0.0
                        nlo += 1
                    while edge[nhi + 1] < _TINY and nlo < nhi:
                        edge[nhi + 1] = 0.0
                        nhi -= 1
                    # the source is the next step's target: clear it beyond that step's reach
                    if lo < nlo - 1:
                        laws[cur][lo : nlo - 1] = 0.0
                    if hi > nhi + 1:
                        laws[cur][nhi + 2 : hi + 1] = 0.0
                lo, hi, cur = nlo, nhi, dst
            if row is not None:
                row[...] = laws[cur]
        self.lo, self.hi, self.cur = lo, hi, cur


def _distances(stepper: _Stepper, pi: np.ndarray, stride: int, count: int):
    """Yield d at ``count`` laws ``stride`` steps apart, starting with the
    stepper's current law, one block of laws at a time.

    A block's distances come from one ``0.5*abs(block - pi).sum(axis=1)``,
    which sums each row exactly as :func:`tv_distance` sums one law.
    """
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * pi.size)))
    block = np.empty((rows, pi.size))
    done = 0
    while done < count:
        part = block[: min(rows, count - done)]
        if done == 0:
            part[0] = stepper.laws[stepper.cur]
            stepper.advance(stride, part[1:])
        else:
            stepper.advance(stride, part)
        np.subtract(part, pi, out=part)
        np.abs(part, out=part)
        yield 0.5 * part.sum(axis=1)
        done += part.shape[0]


def evolve(dist: np.ndarray, kernel: BirthDeathKernel, steps: int) -> np.ndarray:
    """Push a distribution forward ``steps`` steps, O(k) work per step.

    Mass is renormalized whenever float drift exceeds 1e-12, so long
    evolutions cannot accumulate leakage.  Entries below the smallest
    normal double are flushed to zero, so the result has none.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    p = np.asarray(dist, dtype=float)
    if p.shape != (kernel.size,):
        raise ValueError(f"distribution has length {p.size}, kernel needs {kernel.size}")
    check_distribution(p)
    stepper = _Stepper(kernel, p)
    stepper.advance(steps)
    return stepper.law()


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance, half the L1 difference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("distributions must have equal length")
    return float(0.5 * np.abs(a - b).sum())


def dist_mean(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=float)
    return float(dist @ np.arange(dist.size))


def dist_second_moment(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=float)
    values = np.arange(dist.size, dtype=float)
    return float(dist @ (values * values))


def dist_variance(dist: np.ndarray) -> float:
    m = dist_mean(dist)
    return dist_second_moment(dist) - m * m


def mean_w_closed_form(params: ModelParams, w0: int, t: int) -> float:
    """E[W_t] from W_0 = w0: geometric relaxation toward k^2/n."""
    n, k = params.n, params.k
    if not 0 <= w0 <= k:
        raise ValueError("w0 out of range")
    if t < 0:
        raise ValueError("t must be nonnegative")
    fixed = k * k / n
    return (w0 - fixed) * (1.0 - 2.0 / n) ** t + fixed


def second_moment_closed_form(params: ModelParams, t: int, w0: int | None = None) -> float:
    """E[W_t^2] from W_0 = w0 (default k), by the exact linear recursion.

    One step of the chain satisfies

        E[W_{t+1}^2] = (1 - 2/n)^2 E[W_t^2]
                       + (4k^2/n^2 - 8k/n^2 + 2/n) E[W_t] + 2k^2/n^2,

    which follows from the kernel's conditional increment moments
    E[dW | W=i] = 2k^2/n^2 - 2i/n and E[dW^2 | W=i] = up(i) + down(i).
    """
    n, k = params.n, params.k
    if w0 is None:
        w0 = k
    if not 0 <= w0 <= k:
        raise ValueError("w0 out of range")
    if t < 0:
        raise ValueError("t must be nonnegative")
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


def tv_lower_bound_second_moment(mu: np.ndarray, pi: np.ndarray) -> float:
    """Mean-separation lower bound on total variation.

    If two laws on {0..k} have means gap apart, any coupling (X, Y) of
    them has P[X != Y] >= gap^2 / (gap^2 + 2 Var_mu + 2 Var_pi) by
    Cauchy-Schwarz applied to E[X - Y]; the minimum over couplings is the
    TV distance.  Returns 0 when the means coincide.
    """
    mu = np.asarray(mu, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if mu.shape != pi.shape:
        raise ValueError("distributions must have equal length")
    check_distribution(mu)
    check_distribution(pi)
    gap = dist_mean(mu) - dist_mean(pi)
    if gap == 0.0:
        return 0.0
    denom = gap * gap + 2.0 * (dist_variance(mu) + dist_variance(pi))
    return min(1.0, gap * gap / denom)


def eigenfunction_check(kernel: BirthDeathKernel) -> float:
    """Max residual of P f - (1 - 2/n) f for f(i) = i - k^2/n.

    The centered identity is an exact eigenvector relation of the kernel;
    the residual measures only float rounding and should sit at machine
    scale for every instance.  The eigenvector is normalized to unit sup
    norm first, since any fixed tolerance is meaningless for a vector
    whose entries grow with n.
    """
    n, k = kernel.params.n, kernel.params.k
    f = np.arange(k + 1, dtype=float) - k * k / float(n)
    f /= np.abs(f).max()
    pf = kernel.stay * f
    pf[:-1] += kernel.up[:-1] * f[1:]
    pf[1:] += kernel.down[1:] * f[:-1]
    return float(np.abs(pf - (1.0 - 2.0 / n) * f).max())


def d_curve(params: ModelParams, t_max: int, stride: int = 1) -> MixingProfile:
    """Exact distance curve d(t) = TV(law of W_t from W_0 = k, stationary).

    Samples t = 0, stride, 2*stride, ... up to t_max.  Float wobble can
    lift d by up to 1e-12 from one sample to the next; such steps are
    clamped, and a larger rise raises RuntimeError.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be positive")
    kernel = build_kernel(params)
    pi = equilibrium(params)
    stepper = _Stepper(kernel, delta_at(params.k, params.k + 1))
    times = np.arange(0, t_max + 1, stride)
    tv = np.empty(times.size)
    done = 0
    for block in _distances(stepper, pi, stride, times.size):
        tv[done : done + block.size] = block
        done += block.size
    # clamp float wobble in the tail of the curve; anything larger is an error
    if tv.size > 1:
        rise = float(np.diff(tv).max())
        if rise > _TV_WOBBLE:
            raise RuntimeError(f"d(t) rose by {rise:.3g} between samples, beyond float wobble")
    np.minimum.accumulate(tv, out=tv)
    times.setflags(write=False)
    tv.setflags(write=False)
    return MixingProfile(params, times, tv, stride)


def laws_at(params: ModelParams, times) -> dict[int, np.ndarray]:
    """Exact law of W_t from W_0 = k at each requested t, in one pass.

    One stride-1 evolution visits the times in increasing order, so each
    law is bit-identical to evolving the point mass t steps in one call.
    """
    kernel = build_kernel(params)
    p = delta_at(params.k, params.k + 1)
    out: dict[int, np.ndarray] = {}
    t = 0
    for target in sorted(set(times)):
        p = evolve(p, kernel, target - t)
        t = target
        out[target] = p
    return out


def t_mix(profile: MixingProfile, eps: float) -> int | None:
    """Smallest sampled t with d(t) <= eps, or None when never reached.

    Exact when the profile was sampled with stride 1; with stride s the
    true threshold lies in (t - s, t] for the returned t.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    hits = np.nonzero(profile.tv <= eps)[0]
    if hits.size == 0:
        return None
    return int(profile.times[hits[0]])


def default_horizon(params: ModelParams, eps_min: float) -> int:
    """Generous upper bound on any threshold time this package evaluates."""
    n, k = params.n, params.k
    spread = max(1.0, math.log(1.0 / eps_min))
    return int(0.25 * n * math.log(n) + 0.5 * n * math.log(max(k, 2)) + 8.0 * n * spread) + 200


def mixing_times(
    params: ModelParams,
    eps_values: tuple[float, ...] | list[float],
    t_limit: int | None = None,
) -> dict[float, int]:
    """Exact threshold times inf{t : d(t) <= eps} for each requested eps.

    A single stride-1 evolution serves all thresholds.  Raises if any
    threshold is not reached by the (generous) horizon.
    """
    eps_list = sorted(set(float(e) for e in eps_values), reverse=True)
    if not eps_list:
        raise ValueError("need at least one eps")
    if not all(0 < e < 1 for e in eps_list):
        raise ValueError("every eps must lie in (0, 1)")
    horizon = t_limit if t_limit is not None else default_horizon(params, eps_list[-1])
    kernel = build_kernel(params)
    pi = equilibrium(params)
    stepper = _Stepper(kernel, delta_at(params.k, params.k + 1))
    out: dict[float, int] = {}
    pending = list(eps_list)
    t = 0
    for tv in _distances(stepper, pi, 1, max(horizon, 0) + 1):
        while pending:
            hits = np.flatnonzero(tv <= pending[0])
            if hits.size == 0:
                break
            out[pending.pop(0)] = t + int(hits[0])
        if not pending:
            return out
        t += tv.size
    raise RuntimeError(f"d(t) did not reach eps={pending[0]} within the horizon {horizon}")
