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
That flush is the only mass ever dropped, and an evolved law is never
rescaled: where a law leaves the stepping engine its mass is checked,
and a drift from 1 beyond 1e-10 plus 8u (u = 2.2e-16) for each step taken
raises RuntimeError.  Where stepping to a time would be slow,
:func:`distances_at` takes the law by binary powering of the dense
kernel instead.  All factors are nonnegative, so the powered d(t) lies
within e(t) = 1/2 gamma_((k+1)t) + 1/2 (k+1) t 1.5e-154 of the exact one,
about 1/2 t (k+1) 1.1e-16 (Higham 2002, section 3.5; the second term is
the mass flushed below 1.5e-154); it is used only where e(t) <= 1e-9, and
its mass is checked against 1e-10 plus 2 e(t).

Threshold times come from the chain's spectrum rather than from stepping
out to n log n: :func:`mixing_times` steps only its first block of laws,
then bisects each threshold on the eigen-expansion of d(t) (Bernoulli-
Laplace eigenvalues, Hahn-polynomial eigenfunctions) with a certified
error.  The expansion's approximation never reaches a result: a time is
taken from it only where that error cannot change it, and exact stepping
decides the rest, so the times are the stepper's own integers.

The mean and variance of W_t have closed forms (:func:`moments_at`):
E[W_t] relaxes geometrically with factor 1 - 2/n toward k^2/n, and
Var(W_t) is a sum of the powers (1 - 2/n)^t and (1 - 2/n)^(2t) whose
coefficients follow from the kernel above.  They give the mean-gap lower
bound on d(t) (:func:`mean_gap_bound`) without a law.  The
``oracle-check`` experiment checks both against stepped laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exclusion import ModelParams

#: n beyond which n^2 (and the integer numerators of the kernel) would no
#: longer be exactly representable in double precision.
_N_EXACT_CAP = 10_000_000

#: A law whose mass is further than this from 1 is corrupt.
_MASS_HARD = 1e-10

#: Evolved entries below the smallest normal double are flushed to zero.
#: A subnormal times stay(i) >= 1/2 rounds back to itself, so without the
#: flush a tail far below the double range sits near 5e-324 forever, and
#: arithmetic on subnormals is several times slower than on normal data.
_TINY = float(np.finfo(float).tiny)

#: Upward steps of d(t) up to this size are float wobble and are clamped;
#: a larger one is an error.
_TV_WOBBLE = 1e-12

#: Stepping a law on 0..k is estimated at _STEP_NS per step plus
#: _STATE_STEP_NS per entry and refused beyond _STEPPING_CAP_NS, before its
#: first step: an upper envelope of d_curve (a step and a distance over all
#: k + 1 entries), which took 3.5-5.2 us per step at k = 10, 4.3-7.3 at 283,
#: 10.7-14.3 at 2000, 31-45 at 20 000 and 397-571 at 2*10^5 on a 2-core Xeon
#: (estimated 10, 10.9, 16, 70 and 610).  At 3 ns an entry, no run beyond
#: 10^11 state-steps t (k + 1) passes.  d_curve also refuses more rows than
#: _CURVE_ROWS: 70 MB of profile, and an output file of 130 to 270 MB of csv
#: or json text, which is written a chunk at a time and never held whole.
_STEPPING_CAP_NS = 300 * 10**9
_STEP_NS = 10_000
_STATE_STEP_NS = 3
_CURVE_ROWS = 1 << 22

#: Distances are computed for blocks of up to this many laws at once,
#: fewer when k is large so that a block stays near _BLOCK_BYTES.
_BLOCK_ROWS = 64
_BLOCK_BYTES = 1 << 20

#: The eigen-expansion behind threshold times keeps at most this many terms.
_SPECTRAL_TERMS = 200

#: States below this stationary mass are left out of the expansion; the
#: share of d(t) they carry is bounded instead.
_SPECTRAL_FLOOR = 1e-290

#: The expansion stops at the first recurrence coefficient of pi restricted
#: to the kept states that departs from the closed-form one of pi by more
#: than this, relative to the coefficients' size: from there on the kept
#: states no longer carry the eigenfunctions.
_HAHN_AGREE = 1e-10

#: Float error allowed for on top of the certified terms: a constant, about
#: 4 * 2.2e-16 per step for the stepper's rounding in total variation (five
#: roundings per entry per step, halved), and 1e-12 of the sum of the
#: expansion's coefficients sqrt(d_i) lambda_i^t for its rounding.  Against
#: the stepper, for n <= 20000, the expansion's error where that sum is at
#: least 100 was at most 1.1e-13 of it.
_SPECTRAL_SLACK = 1e-9
_STEP_ROUNDING = 4 * float(np.finfo(float).eps)
_TERM_ROUNDING = 1e-12

#: Powered d(t) is charged gamma_n = n u / (1 - n u) with this u (Higham
#: 2002, section 3.5); see :func:`_power_error`.
_UNIT_ROUNDOFF = 2.0**-53

#: Powered entries below sqrt(2.2e-308) = 2^-511 are flushed to zero, so that
#: no product of two kept entries is subnormal: an einsum square at k = 100
#: with products falling below 2.2e-308 took twice as long (8.6 against
#: 4.5 ms for the 14 squares to t = 18000).  Without underflow every product
#: keeps the relative error of :func:`_power_error`.
_POWER_FLOOR = 2.0**-511

#: distances_at powers the dense kernel instead of stepping where the
#: powered error bound (:func:`_power_error`) is at most _SPECTRAL_SLACK and
#: typical costs say powering saves more than _POWER_GAIN_NS: a step at
#: _TYPICAL_STEP_NS plus _STATE_STEP_NS per entry (distances_at took
#: 1.72 us a step at k = 100, 2.04 at 200 and 2.66 at 400), an einsum product
#: at _PRODUCT_NS plus _MULTIPLY_ADD_NS per multiply-add (a square took
#: 0.30 ms at k + 1 = 101, 2.16 at 201 and 17.0 at 401; best of 7 on a 2-core
#: Xeon).  Every product is np.einsum: BLAS sums depend on the BLAS build,
#: and a threaded BLAS took 16 ms for one 101 x 101 product on that host.
_POWER_GAIN_NS = 10**7
_TYPICAL_STEP_NS = 1500
_PRODUCT_NS = 5000
_MULTIPLY_ADD_NS = 0.3


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


def equilibrium(params: ModelParams) -> np.ndarray:
    """Stationary law of W: hypergeometric(n, k, k), from the recurrence
    pi(m + 1) / pi(m) = (k - m)^2 / ((m + 1) (n - 2k + m + 1)).  Each ratio is
    a quotient of integers exact in double precision; the cumulative sum of
    their logs, shifted by its maximum, is exponentiated and normalised.
    """
    n, k = params.n, params.k
    m = np.arange(k, dtype=float)
    ratio = (k - m) ** 2 / ((m + 1) * (n - 2.0 * k + m + 1))
    logp = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    p = np.exp(logp - logp.max())
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


def _check_mass(law: np.ndarray, rounding: float) -> None:
    """Raise RuntimeError when ``law``'s mass has drifted from 1 beyond
    1e-10 plus ``rounding``."""
    drift = abs(float(law.sum()) - 1.0)
    allowed = _MASS_HARD + rounding
    if drift > allowed:
        raise RuntimeError(f"law mass drifted from 1 by {drift:.3g}, beyond {allowed:.3g}")


class _Stepper:
    """One law of the chain, stepped in place over its normal-range window.

    Two buffers of length k + 3 hold the current and the next law between
    zero pads.  Outside the window [lo, hi] the current law is exactly
    zero, so a step only computes the entries lo - 1 .. hi + 1; new edge
    entries below the smallest normal double are flushed and the window
    shrinks past them.  Inside the window a step is the dense update's
    float arithmetic entry for entry: ``p*stay``, plus the up term, plus
    the down term, and nothing rescales it.  The three products come from
    one multiply of a (3, w) view of the left, middle and right neighbours
    by the matching kernel rows.
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
        self.steps = 0

    def law(self) -> np.ndarray:
        """A copy of the current law, with any subnormal entry flushed."""
        out = self.laws[self.cur].copy()
        out[out < _TINY] = 0.0
        self.check_mass(out)
        return out

    def check_mass(self, law: np.ndarray) -> None:
        """Raise RuntimeError when ``law``'s mass has drifted from 1 beyond
        1e-10 plus the rounding of the steps taken so far: in L1, twice the
        _STEP_ROUNDING that d(t) is charged per step."""
        _check_mass(law, 2 * _STEP_ROUNDING * self.steps)

    def advance(self, steps: int, rows=(None,)) -> None:
        """For each entry of ``rows``, take ``steps`` steps, then copy the
        law into that row unless it is None."""
        k, lo, hi, cur = self.k, self.lo, self.hi, self.cur
        laws, edges, views = self.laws, self.edges, self.views
        multiply, add = np.multiply, np.add
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
        self.steps += steps * len(rows)


def _stepping_ns(steps: int, k: int) -> int:
    """The estimated nanoseconds of ``steps`` steps of a law on 0..k."""
    return steps * (_STEP_NS + _STATE_STEP_NS * (k + 1))


def _refuse_stepping(estimate_ns: int, what: str, error: type, work: str = "stepping") -> None:
    """Raise ``error``, its message opened by ``what``, for an integer
    estimate of ``work`` beyond the cap of ``_STEPPING_CAP_NS``."""
    if estimate_ns > _STEPPING_CAP_NS:
        cap, took = _STEPPING_CAP_NS // 10**9, estimate_ns // 10**9
        raise error(f"{what} is beyond the cap of {cap} s of {work}, at an estimated {took} s")


def _distances(stepper: _Stepper, pi: np.ndarray, stride: int, count: int):
    """Yield d at ``count`` laws ``stride`` steps apart, starting with the
    stepper's current law, one block of laws at a time.  The mass of each
    block's last law is checked before pi is subtracted.

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
        stepper.check_mass(part[-1])
        np.subtract(part, pi, out=part)
        np.abs(part, out=part)
        yield 0.5 * part.sum(axis=1)
        done += part.shape[0]


def _no_rise(blocks):
    """Pass blocks of d through; a rise above 1e-12 between two values raises."""
    last = math.inf
    for tv in blocks:
        rise = float(np.diff(tv, prepend=last).max())
        if rise > _TV_WOBBLE:
            raise RuntimeError(f"d(t) rose by {rise:.3g} between samples, beyond float wobble")
        last = tv[-1]
        yield tv


def evolve(dist: np.ndarray, kernel: BirthDeathKernel, steps: int) -> np.ndarray:
    """Push a distribution forward ``steps`` steps, O(k) work per step.

    Mass is never rescaled.  Entries below the smallest normal double are
    flushed to zero, so the result has none, and that flush is the only
    mass dropped.  A result whose mass has drifted from 1 by more than
    1e-10 plus 8u (u = 2.2e-16) per step raises RuntimeError.
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


def moments_at(params: ModelParams, t, w0: int | None = None):
    """(E[W_t], Var(W_t)) from W_0 = w0 (default k), elementwise for an int
    or an integer array t >= 0, in closed form.

    Given W = i, the increment has mean 2k^2/n^2 - 2i/n and variance
    c0 + c1 i, with c0 = 2k^2/n^2 - 4k^4/n^4 and
    c1 = 2(n - 4k)/n^2 + 8k^2/n^3 = 2(n - 2k)^2/n^3: the i^2 terms cancel.
    With f = 1 - 2/n, mu = k^2/n and delta = w0 - mu, the mean is
    mu + delta f^t, and Var(W_(t+1)) = f^2 Var(W_t) + c0 + c1 E[W_t] sums to

        Var(W_t) = C (1 - f^(2t)) + c1 delta f^(t-1) (1 - f^t) / (1 - f),

    where C = (c0 + c1 mu) / (1 - f^2).  Each 1 - f^s is taken from expm1,
    so nothing cancels; at n = 2, f = 0.
    """
    n, k = params.n, params.k
    if w0 is None:
        w0 = k
    if not 0 <= w0 <= k:
        raise ValueError("w0 out of range")
    t = np.asarray(t)
    if (t < 0).any():
        raise ValueError("t must be nonnegative")
    nf = float(n)
    f = 1.0 - 2.0 / nf
    mu = k * k / nf
    delta = w0 - mu
    c0 = 2.0 * k * k / nf**2 - 4.0 * k**4 / nf**4
    c1 = 2.0 * (n - 2 * k) ** 2 / nf**3
    # at t = 0 the powers below are nan or inf (log f = -inf when n = 2); t = 0 gives (w0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log1p(-2.0 / nf)
        var = (c0 + c1 * mu) / -np.expm1(2.0 * log_f) * -np.expm1(2.0 * t * log_f)
        var += c1 * delta * np.power(f, t - 1) * -np.expm1(t * log_f) / (2.0 / nf)
    mean = delta * np.power(f, t) + mu
    return mean[()], np.where(t > 0, var, 0.0)[()]


def mean_gap_bound(params: ModelParams, t: int) -> float:
    """Mean-separation lower bound on d(t), from W_0 = k.

    If two laws on {0..k} have means gap apart, any coupling (X, Y) of
    them has P[X != Y] >= gap^2 / (gap^2 + 2 Var_mu + 2 Var_pi) by
    Cauchy-Schwarz applied to E[X - Y]; the minimum over couplings is the
    TV distance.  The moments of W_t are :func:`moments_at`'s, and pi's
    are its closed forms, mean k^2/n and variance k^2 (n - k)^2 / (n^2 (n - 1)).
    Returns 0 when the means coincide.
    """
    n, k = params.n, params.k
    mean, var = moments_at(params, t)
    gap = float(mean) - k * k / n
    if gap == 0.0:
        return 0.0
    var_pi = (k * (n - k)) ** 2 / (n * n * (n - 1))
    return min(1.0, gap * gap / (gap * gap + 2.0 * (float(var) + var_pi)))


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
    return float(np.abs(_apply(kernel, f) - (1.0 - 2.0 / n) * f).max())


def _apply(kernel: BirthDeathKernel, f: np.ndarray) -> np.ndarray:
    """P f: the expectation of f one step ahead, from each state."""
    pf = kernel.stay * f
    pf[:-1] += kernel.up[:-1] * f[1:]
    pf[1:] += kernel.down[1:] * f[:-1]
    return pf


def d_curve(params: ModelParams, t_max: int, stride: int = 1) -> MixingProfile:
    """Exact distance curve d(t) = TV(law of W_t from W_0 = k, stationary).

    Samples t = 0, stride, 2*stride, ... up to t_max.  Float wobble can
    lift d by up to 1e-12 from one sample to the next; such steps are
    clamped, and a larger rise raises RuntimeError.  A curve beyond
    ``_CURVE_ROWS`` rows or the stepping cap (``_STEPPING_CAP_NS``) raises
    ValueError before anything is allocated.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be positive")
    what = f"t_max={t_max} with k={params.k}"
    if t_max // stride + 1 > _CURVE_ROWS:
        raise ValueError(f"{what} and stride={stride} is beyond the cap of {_CURVE_ROWS} rows")
    _refuse_stepping(_stepping_ns(t_max, params.k), what, ValueError)
    kernel = build_kernel(params)
    pi = equilibrium(params)
    stepper = _Stepper(kernel, delta_at(params.k, params.k + 1))
    times = np.arange(0, t_max + 1, stride)
    tv = np.empty(times.size)
    done = 0
    for block in _no_rise(_distances(stepper, pi, stride, times.size)):
        tv[done : done + block.size] = block
        done += block.size
    # clamp the float wobble that _no_rise lets through
    np.minimum.accumulate(tv, out=tv)
    times.setflags(write=False)
    tv.setflags(write=False)
    return MixingProfile(params, times, tv, stride)


def _power_error(t: int, k: int) -> float:
    """e(t): how far d(t) from :func:`_powered_distances` may lie from the
    exact d(t) of a law on 0..k.

    A product of nonnegative matrices with inner dimension k + 1 is exact up
    to a componentwise relative error of gamma_(k+1) = (k+1)u / (1 - (k+1)u),
    u = 2^-53 (Higham 2002, section 3.5), and these errors compound over the
    t - 1 products behind a law into gamma_((k+1)t), so the law is within
    gamma_((k+1)t) of the exact one in L1.  Each product also flushes at most
    (k + 1) _POWER_FLOOR of a row's mass, at most (k + 1) t _POWER_FLOOR in
    all.  d(t) takes half of the L1 error; inf where gamma is not defined.
    """
    rounds = (k + 1) * t * _UNIT_ROUNDOFF
    if rounds >= 1.0:
        return math.inf
    return 0.5 * (rounds / (1.0 - rounds) + (k + 1) * t * _POWER_FLOOR)


def _powering_pays(t: int, k: int, count: int) -> bool:
    """Whether :func:`distances_at` takes ``count`` times up to ``t`` on
    0..k by powering: its error bound e(t) is at most _SPECTRAL_SLACK and
    typical costs (see _POWER_GAIN_NS) say it saves more than 10 ms."""
    if _power_error(t, k) > _SPECTRAL_SLACK:
        return False
    size, bits = k + 1, int(t).bit_length()
    stepping = t * (_TYPICAL_STEP_NS + _STATE_STEP_NS * size)
    squares = max(bits - 1, 0) * (_PRODUCT_NS + _MULTIPLY_ADD_NS * size**3)
    pushes = bits * (_PRODUCT_NS + _MULTIPLY_ADD_NS * count * size**2)
    return stepping - squares - pushes > _POWER_GAIN_NS


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with its entries below _POWER_FLOOR set to zero."""
    a[a < _POWER_FLOOR] = 0.0
    return a


def _powered_distances(kernel: BirthDeathKernel, pi: np.ndarray, targets: list[int]) -> list[float]:
    """d(t) from W_0 = k at each of the distinct nonnegative ``targets``, by
    binary powering of the dense kernel.

    The kernel is squared up to P^(2^J), 2^J <= max(t), and each target's
    law is the point mass at k pushed through the squares of its set bits,
    as they are made, so the squares are shared.  Every product is one
    np.einsum call, with entries below _POWER_FLOOR flushed after it.  Each
    law lies within 2 e(t) of the exact one in L1 (see :func:`_power_error`);
    a mass drift from 1 beyond 1e-10 plus that raises RuntimeError, and no
    law is rescaled.
    """
    size = kernel.size
    square = np.diag(kernel.stay) + np.diag(kernel.up[:-1], 1) + np.diag(kernel.down[1:], -1)
    laws = np.zeros((len(targets), size))
    laws[:, -1] = 1.0
    for bit in range(int(max(targets)).bit_length()):
        if bit:
            square = _flushed(np.einsum("ij,jk->ik", square, square))
        use = [row for row, t in enumerate(targets) if t >> bit & 1]
        if use:
            laws[use] = _flushed(np.einsum("ij,jk->ik", laws[use], square))
    out = []
    for t, law in zip(targets, laws):
        _check_mass(law, 2 * _power_error(t, size - 1))
        out.append(tv_distance(law, pi))
    return out


def distances_at(params: ModelParams, times) -> dict[int, float]:
    """Exact d(t) from W_0 = k at each requested t, in one pass.

    Times whose max(t) steps are estimated beyond the stepping cap
    (``_STEPPING_CAP_NS``) raise ValueError before any step.  Where the
    powered error bound e(t) = 1/2 gamma_((k+1)t) plus the flushed mass
    (:func:`_power_error`, about 1/2 t (k+1) 1.1e-16) is at most 1e-9 at
    max(t), and powering is estimated to save more than 10 ms, each d(t)
    comes from :func:`_powered_distances` and lies within e(t) of the
    exact value.  Otherwise one stride-1 evolution visits the times in
    increasing order, so each law is bit-identical to evolving the point
    mass t steps in one call, and d(t) is its :func:`tv_distance` to
    :func:`equilibrium`.
    """
    targets = sorted(set(times))
    last = max(targets, default=0)
    _refuse_stepping(_stepping_ns(last, params.k), f"t={last} with k={params.k}", ValueError)
    if targets and targets[0] < 0:
        raise ValueError("t must be nonnegative")
    kernel = build_kernel(params)
    pi = equilibrium(params)
    if _powering_pays(last, params.k, len(targets)):
        return dict(zip(targets, _powered_distances(kernel, pi, targets)))
    p = delta_at(params.k, params.k + 1)
    out: dict[int, float] = {}
    t = 0
    for target in targets:
        p = evolve(p, kernel, target - t)
        t = target
        out[target] = tv_distance(p, pi)
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
    """T = ceil(n/2 (log n - 2 log eps + log1p(eps^2))), where d(T) <= eps/2:
    no threshold this package evaluates lies beyond it.

    Proof: d(t) <= 1/2 sqrt(chi2(t)), chi2(t) = sum_i d_i lambda_i^{2t} (see
    :class:`_Spectrum`).  As d_i <= n^i / i! and 0 <= lambda_i <= e^{-i/n} for
    i <= k <= n/2, chi2(t) <= exp(n e^{-2t/n}) - 1, which is at most eps^2 at T
    since log1p(x) >= x / (1 + x).  The other half of eps covers float error.
    """
    n = params.n
    return math.ceil(0.5 * n * (math.log(n) - 2.0 * math.log(eps_min) + math.log1p(eps_min**2)))


class _Spectrum:
    """d(t) from W_0 = k by the chain's eigen-expansion, with a certified error.

    The eigenvalues are lambda_i = 1 - 2 i (n - i + 1) / n^2 and the
    eigenfunctions the orthonormal polynomials p_i of pi, the Hahn
    polynomials (Karlin and McGregor 1961), so that

        mu_t(y) / pi(y) - 1 = sum_{i >= 1} lambda_i^t p_i(k) p_i(y)

    with p_i(k)^2 = d_i = C(n, i) - C(n, i - 1), the Bernoulli-Laplace
    multiplicities (Diaconis and Shahshahani 1987), kept as logs.  On the
    states S = {y : pi(y) >= 1e-290} the values sqrt(pi(y)) p_i(y) come
    from a Stieltjes (Lanczos) recurrence with full reorthogonalisation.
    The expansion keeps I terms: at most 200, and only as many as the
    recurrence on S reproduces the closed-form Hahn recurrence
    coefficients of pi.  By Cauchy-Schwarz in L2(pi), d(t) then lies
    within

        e(t) = 1/2 sqrt(sum_{i > I} d_i lambda_i^{2t})     (truncation)
             + 1/2 sqrt(pi(S^c) chi2(t))                  (states outside S)
             + float slack (see _SPECTRAL_SLACK)

    of the expansion's value, where chi2(t) = sum_{i >= 1} d_i lambda_i^{2t};
    both sums are taken in log space.
    """

    def __init__(self, params: ModelParams, pi: np.ndarray):
        n, k = params.n, params.k
        i = np.arange(1, k + 1, dtype=float)
        with np.errstate(divide="ignore"):  # lambda_1 = 0 when n = 2
            self.log_lam = np.log(1.0 - 2.0 * i * (n - i + 1) / (float(n) * n))
        # log C(n, i) as the cumulative sum of log C(n, i) / C(n, i - 1)
        self.log_d = np.cumsum(np.log((n - i + 1) / i)) + np.log((n - 2.0 * i + 1) / (n - i + 1))
        inside = pi >= _SPECTRAL_FLOOR
        self.states = np.flatnonzero(inside)
        self.weight = np.sqrt(pi[inside])
        outside = float(pi[~inside].sum())
        self.log_outside = math.log(outside) if outside else -math.inf
        # closed-form recurrence y p_j = b_j p_{j+1} + a_j p_j + b_{j-1} p_{j-1} of
        # the hypergeometric law (Hahn parameters alpha = -k-1, beta = k-n-1, N = k)
        j = np.arange(min(k, _SPECTRAL_TERMS, self.states.size - 1), dtype=float)
        ahead = (n + 1 - j) * (k - j) ** 2 / ((n + 1 - 2 * j) * (n - 2 * j))
        behind = j * (n - k + 1 - j) ** 2 / ((n + 2 - 2 * j) * (n + 1 - 2 * j))
        after = (j + 1) * (n - k - j) ** 2 / ((n - 2 * j) * (n - 1 - 2 * j))
        a, b = ahead + behind, np.sqrt(ahead * after)
        y = self.states.astype(float)
        basis = np.empty((j.size + 1, y.size))
        basis[0] = self.weight
        terms = 0
        while terms < j.size:
            done = basis[: terms + 1]
            v = y * basis[terms]
            a_num = float(v @ basis[terms])
            for _ in range(2):
                v -= done.T @ (done @ v)
            b_num = float(np.linalg.norm(v))
            scale = _HAHN_AGREE * (a[terms] + b[terms])
            if abs(a_num - a[terms]) > scale or abs(b_num - b[terms]) > scale:
                break
            terms += 1
            basis[terms] = v / b_num
        self.terms = terms
        self.basis = basis[1 : terms + 1]

    def residual(self, kernel: BirthDeathKernel) -> float:
        """Largest of |P p_i - lambda_i p_i|, with p_i scaled to unit sup
        norm, and |log p_i(k)^2 - log d_i| over the kept terms; meaningful
        where every state is kept."""
        lam = np.exp(self.log_lam)
        worst = 0.0
        for i, row in enumerate(self.basis):
            p = np.zeros(kernel.size)
            p[self.states] = row / self.weight
            gap = abs(2.0 * math.log(p[-1]) - self.log_d[i]) if p[-1] > 0 else math.inf
            p /= np.abs(p).max()
            worst = max(worst, gap, float(np.abs(_apply(kernel, p) - lam[i] * p).max()))
        return worst

    def at(self, t):
        """The expansion's d(t) and its certified error e(t), elementwise for
        an int or an integer array t; (1, inf) where e(t) >= 1, where the
        expansion says nothing."""
        t = np.asarray(t)
        # at t = 0 skip the powers: 0 * log(lambda_1) is nan when n = 2
        with np.errstate(invalid="ignore"):
            powers = 2.0 * t[..., None] * self.log_lam
        log_w = self.log_d + np.where(t[..., None] > 0, powers, 0.0)
        head = 0.5 * log_w[..., : self.terms]
        log_tail = _log_sum_exp(log_w[..., self.terms :])
        log_chi2 = np.logaddexp(_log_sum_exp(log_w[..., : self.terms]), log_tail)
        float_part = _SPECTRAL_SLACK + _STEP_ROUNDING * t
        log_err = np.logaddexp.reduce([
            math.log(0.5) + 0.5 * log_tail,
            math.log(0.5) + 0.5 * (self.log_outside + log_chi2),
            math.log(_TERM_ROUNDING) + _log_sum_exp(head),
        ])
        says = (log_err < 0.0) & (float_part < 1.0)
        coef = np.exp(np.where(says[..., None], head, -math.inf))
        d = np.where(says, 0.5 * np.abs(coef @ self.basis) @ self.weight, 1.0)
        return d, float_part + np.exp(np.where(says, log_err, math.inf))

    def crossing(self, eps: float, lo: int, hi: int) -> int | None:
        """The first t in [lo, hi] with d(t) <= eps, or hi + 1 when d(hi) > eps,
        given that d(lo - 1) > eps; None when the certified error cannot decide.

        Bisection is valid because d(t) is non-increasing.  The answer t is
        taken only when d(t) and d(t - 1) clear eps by more than their errors.
        """
        if lo > hi:
            return hi + 1
        d, err = self.at(hi)
        if d > eps:
            return hi + 1 if d - eps > err else None
        below, above = (d, err), None
        left, right = lo - 1, hi
        while right - left > 1:
            mid = (left + right) // 2
            d, err = self.at(mid)
            if d <= eps:
                right, below = mid, (d, err)
            else:
                left, above = mid, (d, err)
        if eps - below[0] > below[1] and (above is None or above[0] - eps > above[1]):
            return right
        return None


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis; -inf for an empty or all -inf row."""
    return np.logaddexp.reduce(x, axis=-1, initial=-math.inf)


def mixing_times(params: ModelParams, eps_values: tuple[float, ...] | list[float]) -> dict[float, int]:
    """Exact threshold times inf{t : d(t) <= eps} for each requested eps.

    The chain is stepped exactly through its first block of laws (64 of
    them unless k is large).  Each eps not reached there is bisected on
    the eigen-expansion of d(t) (:class:`_Spectrum`) over the rest of the
    horizon, and a bisected t is taken only when d(t) and d(t - 1) clear
    eps by more than the expansion's certified error.  Where they do not,
    exact stepping resumes and decides that eps, and the smaller ones are
    bisected from there.  Every time is thus the stepper's own.  Raises
    if a stepped d(t) rises beyond float wobble, if a threshold is not
    reached by the proven horizon (:func:`default_horizon`), or, before
    stepping, if the horizon - t steps on from t are estimated beyond the
    stepping cap (``_STEPPING_CAP_NS``).
    """
    eps_list = sorted(set(float(e) for e in eps_values), reverse=True)
    if not eps_list:
        raise ValueError("need at least one eps")
    if not all(0 < e < 1 for e in eps_list):
        raise ValueError("every eps must lie in (0, 1)")
    horizon = default_horizon(params, eps_list[-1])
    kernel = build_kernel(params)
    pi = equilibrium(params)
    stepper = _Stepper(kernel, delta_at(params.k, params.k + 1))
    out: dict[float, int] = {}
    spectrum = None
    stepped = None  # the eps that exact stepping decides, once bisection could not
    t = 0
    for tv in _no_rise(_distances(stepper, pi, 1, horizon + 1)):
        while eps_list:
            hits = np.flatnonzero(tv <= eps_list[0])
            if hits.size == 0:
                break
            out[eps_list.pop(0)] = t + int(hits[0])
        t += tv.size
        while eps_list and eps_list[0] != stepped and t <= horizon:
            if spectrum is None:
                spectrum = _Spectrum(params, pi)
            found = spectrum.crossing(eps_list[0], t, horizon)
            if found is None:
                what = f"eps={eps_list[0]} is not decided by the eigen-expansion from t={t}"
                what += f", and stepping on to the horizon {horizon}"
                _refuse_stepping(_stepping_ns(horizon - t, params.k), what, RuntimeError)
                stepped = eps_list[0]
            elif found > horizon:
                break
            else:
                out[eps_list.pop(0)] = found
        if not eps_list:
            return out
        if eps_list[0] != stepped:
            break
    raise RuntimeError(f"d(t) did not reach eps={eps_list[0]} within the horizon {horizon}")
