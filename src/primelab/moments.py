"""Moments of psi_R- and psi-increments over short intervals.

For f in {psi_R, psi} and a window length h >= 1 the k-th moment is

    M_k(N, h, f) = sum_{n=1}^{N} (f(n+h) - f(n))^k ,

optionally over the shifted range n in [N+1, 2N] (``primed=True``) and
optionally centered at h (``centered=True``, psi only).  Because

    psi_R(n+h) - psi_R(n) = sum_{j=1}^{h} lambda_R(n+j),

expanding the k-th power and grouping equal shifts turns M_k(N, h, psi_R)
into an exact finite rearrangement over correlation sums:

    M_k = sum_{r=1}^{k} sum_{1<=j_1<...<j_r<=h} sum_{a_1+...+a_r=k, a_i>=1}
          k!/(a_1!...a_r!) * S_k(N, (j_1..j_r), (a_1..a_r)).

``moment_psiR`` evaluates the left side directly, ``expand_via_correlations``
the right side; in exact rational mode the two agree identically, in float
mode to rounding error.  Mixed moments

    Mtilde_k = sum_n (psi_R(n+h)-psi_R(n))^{k-1} (psi(n+h)-psi(n))

have an analogous expansion whose diagonal terms are replaced by
L_1(R)-multiples of lower correlations; that replacement drops prime-power
and small-prime terms of size O(R N^eps), so for mixed moments the
expansion-vs-direct gap is *reported*, never asserted to vanish.

``omega_experiment`` computes the centered quantities

    M'_k = sum_{n=N+1}^{2N} (psi_R-inc - h - C*A)^{k-1} (psi-inc - h - rho*A),
    A = (h log N)^{1/2},

both directly and through the binomial rearrangement into uncentered power
sums, which is an exact array-level identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import tables as _tables
from .approximants import (
    ApproximantWeights,
    build_weights,
    lambda_R_block,
    lambda_R_range,
    script_L_float,
)
from .correlations import _pattern_sum, c_of, finite_float, relative_residual
from .tables import TABLE_MAX, PairwiseSum, cumsum_blocks

__all__ = [
    "MomentReport",
    "FirstMomentReport",
    "OmegaExperiment",
    "moment_psiR",
    "expand_via_correlations",
    "moment_psi",
    "stirling2",
    "gallagher_prediction",
    "ms_prediction",
    "first_moment_identity",
    "mixed_moment",
    "omega_experiment",
    "omega_expansions",
    "h_from_lambda",
    "coupled_C",
]


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class MomentReport:
    """One evaluated moment cell.

    ``computed`` is the direct window sum, ``via_correlations`` the
    shifted-correlation expansion when it was requested (exactly equal in
    rational mode for pure psi_R moments, reported gap for mixed moments),
    ``predicted`` the heuristic main term when one is available for (kind, k),
    and ``lambda_param`` = h / log N records the window in sieve-scaled units.
    """

    kind: str  # "psi_R" | "psi" | "mixed"
    k: int
    N: int
    h: int
    R: int | None
    lambda_param: float
    computed: float | Fraction
    via_correlations: float | Fraction | None = None
    predicted: float | None = None
    expansion_residual: float | Fraction | None = None
    prediction_residual: float | None = None
    centered: bool = False
    primed: bool = False
    exact: bool = False


@dataclass(frozen=True)
class FirstMomentReport:
    """Three evaluations of M_1(N, h, psi) that must coincide.

    * ``direct``       — sum_{n<=N} (psi(n+h) - psi(n)),
    * ``three_piece``  — sum_{m<=h}(m-1)Lambda(m) + h(psi(N)-psi(h))
                          + sum_{N<m<=N+h}(N+h-m+1)Lambda(m),
    * ``psi_form``     — psi(N+h) - psi(N) - psi(h)
                          - sum_{i=2}^{h-1} psi(i) + sum_{i=N}^{N+h-1} psi(i),
      i.e. the partial-summation form with the integrals of the step
      function psi evaluated exactly as unit-step sums.

    All three are exact rearrangements of one another.  ``exact_equal_12``
    and ``exact_equal_13`` compare integer log-coefficient vectors (the
    multiplicity each prime power q receives in sums of Lambda(q)), so they
    certify the identities with no floating point involved.
    """

    N: int
    h: int
    direct: float
    three_piece: float
    psi_form: float
    exact_equal_12: bool
    exact_equal_13: bool
    max_abs_diff: float


@dataclass(frozen=True)
class OmegaExperiment:
    """Centered third-moment experiment over the dyadic range [N+1, 2N].

    With U(n) = psi_R(n+h) - psi_R(n), V(n) = psi(n+h) - psi(n),
    a = h + C*A, b = h + rho*A, A = (h log N)^{1/2}:

        m1 = sum (V - b),   m2 = sum (U - a)(V - b),
        m3 = sum (U - a)^2 (V - b).

    ``expansion_m2``/``expansion_m3`` recompute m2/m3 from the uncentered
    power sums via the binomial identity (an exact rearrangement; float
    agreement to rounding, exact for rational inputs).  The
    ``identity_residual_k`` fields report |expansion_mk - mk| / max(1, |mk|),
    the relative disagreement of the two float evaluations.  ``predicted_m3``
    is the conjectured main term

        -N h^{3/2} (log N)^{1/2} (rho C^2 log N + (2C + rho) log(R/h)),

    attached for reference only: the proven range for it starts around
    h >> log^{14} N, far beyond any feasible table, so observed signs and
    sizes are labeled "outside proven regime".
    """

    N: int
    h: int
    R: int
    rho: float
    C: float
    A: float
    m1: float
    m2: float
    m3: float
    expansion_m2: float
    expansion_m3: float
    identity_residual_2: float
    identity_residual_3: float
    predicted_m3: float


# --------------------------------------------------------------------------
# small combinatorial helpers


def stirling2(k: int, r: int) -> int:
    """Stirling number of the second kind {k, r} for 1 <= r <= k <= 20.

    {k, r} counts partitions of a k-set into r nonempty blocks; recurrence
    {k, r} = r {k-1, r} + {k-1, r-1} with {1, 1} = 1.
    """
    if not (1 <= r <= k <= 20):
        raise ValueError(f"stirling2 requires 1 <= r <= k <= 20, got k={k}, r={r}")
    row = [1]  # row for k=1: {1,1}
    for kk in range(2, k + 1):
        new = [0] * kk
        for rr in range(1, kk + 1):
            prev_same = row[rr - 1] if rr <= kk - 1 else 0
            prev_less = row[rr - 2] if rr >= 2 else 0
            new[rr - 1] = rr * prev_same + prev_less
        row = new
    return row[r - 1]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / (a_1! ... a_r!) for a composition (a_1..a_r) of k."""
    out = math.factorial(k)
    for a in parts:
        out //= math.factorial(a)
    return out


def h_from_lambda(N: int, lam: float) -> int:
    """Window length h = round(lam * log N), at least 1.

    The realized sieve-scaled window is then h / log N, which the reports
    record instead of the requested lam.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    scaled = lam * math.log(N)
    if not math.isfinite(scaled):
        raise ValueError(f"lambda * log N = {scaled} is not finite")
    return max(1, round(scaled))


def coupled_C(theta: float, alpha: float, rho: float) -> float:
    """The coupling C = -(theta - alpha)/rho used by the sign experiment.

    Here R = N^theta and h = N^alpha; the choice makes the conjectured m3
    main term proportional to -rho(theta-alpha)(1 - (theta-alpha)/rho^2),
    positive for 0 < rho < sqrt(theta-alpha) and negative on the mirror
    interval.  Requires rho != 0.
    """
    if rho == 0:
        raise ValueError("rho must be nonzero for the coupled preset")
    return -(theta - alpha) / rho


# --------------------------------------------------------------------------
# prediction main terms


def gallagher_prediction(N: int, h: int, k: int) -> float:
    """Heuristic k-th moment of psi-increments:

    N log^k N * sum_{r=1}^{k} {k, r} (h/log N)^r .
    """
    lam = h / math.log(N)
    return float(
        N
        * math.log(N) ** k
        * math.fsum(stirling2(k, r) * lam**r for r in range(1, k + 1))
    )


def ms_prediction(N: int, h: int, k: int) -> float | None:
    """Gaussian-moments prediction for the centered k-th moment, even k only:

    (k-1)!! * N * (h log(N/h))^{k/2};   None for odd k.
    """
    if k % 2 == 1:
        return None
    dfact = 1
    for m in range(k - 1, 0, -2):
        dfact *= m
    return float(dfact * N * (h * math.log(N / h)) ** (k / 2))


def _window_prediction(
    N: int, h: int, R: int, k: int, *, mixed: bool
) -> float | None:
    """Main term for M_k(N, h, psi_R), or for the mixed moment (k in {2, 3}),
    with theta = log R / log N:

    k=1: lam;  k=2: theta*lam + lam^2;
    k=3: c theta^2 lam + 3 theta lam^2 + lam^3,  all times N log^k N.

    c is the pure-cube constant c_of((3,)) = 3/4 for psi_R, and 1 for the
    mixed moment, whose fully diagonal terms carry
    lambda_R(p)^{k-1} Lambda(p) = L_1(R)^{k-1} log p at primes p > R.
    """
    logN = math.log(N)
    theta = math.log(R) / logN
    lam = h / logN
    if k == 1:
        poly = lam
    elif k == 2:
        poly = theta * lam + lam**2
    elif k == 3:
        cube = 1.0 if mixed else c_of((3,))
        poly = cube * theta**2 * lam + 3 * theta * lam**2 + lam**3
    else:
        return None
    return float(N * logN**k * poly)


# --------------------------------------------------------------------------
# window machinery


def _window_range(N: int, h: int, primed: bool) -> tuple[int, int]:
    """(start, top): the first summation index, 1 or N+1 for the dyadic
    range [N+1, 2N], and the largest n the windows read, start + N - 1 + h.

    A top beyond TABLE_MAX is refused here, before any table, weights or
    lambda_R range is allocated for it.
    """
    start = N + 1 if primed else 1
    top = start + N - 1 + h
    if top > TABLE_MAX:
        raise ValueError(f"the windows read n up to {top}, beyond {TABLE_MAX}")
    return start, top


def _window_span(lo: int, hi: int, h: int, start: int, N: int) -> tuple[int, int]:
    """(a, b): the n in [start, start + N) whose windows (n, n + h] end in
    the block [lo, hi) of running sums."""
    return max(lo - h, start), min(hi - h, start + N)


def _lam_windows(N: int, h: int, weights: ApproximantWeights, start: int):
    """Yield (a, b, w) over consecutive blocks [a, b) of the n in
    [start, start + N), in order: w[i] = sum_{j=1}^{h} lambda_R(a+i+j).

    The windows are the differences of two running sums h apart over
    lambda_R(0), lambda_R(1), ..., whose values come BLOCK_MAX at a time
    (``lambda_R_block``) and are summed through ``cumsum_blocks`` with the
    last h sums carried over: long double for floats, rounded once into the
    float64 windows, so the h-fold sums carry no cancellation noise, and
    Python ints scaled by D (object arrays) for exact weights.  No array
    over the n is built; w is valid until the next block is asked for.
    """
    top = start + N - 1 + h
    step = _tables.BLOCK_MAX
    values = (lambda_R_block(lo, min(lo + step, top + 1), weights)
              for lo in range(0, top + 1, step))
    out = np.empty(min(step, N), dtype=weights.y.dtype)
    for lo, hi, run in cumsum_blocks(values, object if weights.exact else np.longdouble, h):
        a, b = _window_span(lo, hi, h, start, N)
        if a < b:
            i = a - lo + h  # run[h + i] is the running sum to n + h, run[i] to n
            w = out[: b - a]
            np.subtract(run[h + i : h + i + b - a], run[i : i + b - a], casting="same_kind", out=w)
            yield a, b, w


def _psi_blocks(top: int, keep: int):
    """Yield (lo, hi, q, logs, psi) over the blocks of
    ``tables.psi_blocks(top)``, in order: q the prime powers in the block,
    logs = Lambda(q), psi[keep + i] = psi(lo + i) and psi[:keep] the keep
    values before the block (0 before 0).  psi is the dense psi(0..top) a
    block at a time, the steps repeated over the gaps between the prime
    powers, and is valid until the next block is asked for.
    """
    buf = np.zeros(_tables.BLOCK_MAX + keep, dtype=np.float64)
    for lo, hi, _primes, q, logs, steps in _tables.psi_blocks(top):
        psi = buf[: keep + hi - lo]
        psi[keep:] = np.repeat(steps, np.diff(q, prepend=lo, append=hi))
        yield lo, hi, q, logs, psi
        buf[:keep] = psi[psi.size - keep :]


def _psi_window(lo: int, hi: int, psi: np.ndarray, h: int, start: int, N: int):
    """(a, b, w): the n in [start, start + N) whose windows end in the
    block [lo, hi) of ``_psi_blocks`` (keep = h), and w[i] = psi(a+i+h) -
    psi(a+i) for them: the difference of the two float64 psi values."""
    a, b = _window_span(lo, hi, h, start, N)
    i = a - lo + h
    return a, b, psi[h + i : h + i + max(b - a, 0)] - psi[i : i + max(b - a, 0)]


def _psi_windows(N: int, h: int, start: int):
    """Yield (a, b, w) over consecutive blocks [a, b) of the n in
    [start, start + N), in order: w[i] = psi(a+i+h) - psi(a+i)
    (``_psi_window``).  No array over the n is built."""
    for lo, hi, _q, _logs, psi in _psi_blocks(start + N - 1 + h, h):
        a, b, w = _psi_window(lo, hi, psi, h, start, N)
        if a < b:
            yield a, b, w


def _copy_overlap(dst: np.ndarray, at: int, src: np.ndarray, lo: int) -> None:
    """dst[i] holds the value at at + i and src[i] the value at lo + i:
    copy src into dst where the two ranges meet."""
    s, e = max(at, lo), min(at + dst.size, lo + src.size)
    if s < e:
        dst[s - at : e - at] = src[s - lo : e - lo]


def _place(dst: np.ndarray, at: int, q: np.ndarray, values: np.ndarray) -> None:
    """dst[i] holds the value at at + i: set it to values[j] where q[j]
    falls in dst's range."""
    inside = (q >= at) & (q < at + dst.size)
    dst[q[inside] - at] = values[inside]


def _dense_windows(windows, N: int, start: int) -> np.ndarray:
    """The N windows of a window generator as one float64 array, for the
    sums that BLAS dot products take whole."""
    out = np.empty(N, dtype=np.float64)
    for a, b, w in windows:
        out[a - start : b - start] = w
    return out


# --------------------------------------------------------------------------
# pure psi_R moments and the grouping identity


def moment_psiR(
    N: int,
    h: int,
    R: int,
    k: int,
    *,
    exact: bool = False,
    primed: bool = False,
    expand: bool = False,
) -> MomentReport:
    """M_k(N, h, psi_R) = sum_n (psi_R(n+h) - psi_R(n))^k, n over N values.

    With ``expand=True`` the correlation-sum rearrangement is evaluated as
    well and its residual attached (identically zero in exact mode).  In
    exact mode both sides are Fractions with denominator D^k, D the common
    denominator of the sieve weights.
    """
    if N < 2 or h < 1 or k < 1:
        raise ValueError(f"need N >= 2, h >= 1, k >= 1, got N={N}, h={h}, k={k}")
    start, _top = _window_range(N, h, primed)
    weights = build_weights(R, exact=exact)
    acc = PairwiseSum(N)
    for _a, _b, w in _lam_windows(N, h, weights, start):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            w **= k  # in place, the same bits as w**k
            acc.add(w)
    total = acc.total
    computed = Fraction(total, weights.denominator**k) if exact else float(total)
    value = finite_float(computed, f"M_{k}")
    via: float | Fraction | None = None
    resid: float | Fraction | None = None
    if expand:
        via = expand_via_correlations(
            N, h, R, k, exact=exact, primed=primed
        )
        resid = via - computed
    predicted = _window_prediction(N, h, R, k, mixed=False)
    return MomentReport(
        kind="psi_R",
        k=k,
        N=N,
        h=h,
        R=R,
        lambda_param=h / math.log(N),
        computed=computed,
        via_correlations=via,
        predicted=predicted,
        expansion_residual=resid,
        prediction_residual=relative_residual(value, predicted),
        primed=primed,
        exact=exact,
    )


def expand_via_correlations(
    N: int,
    h: int,
    R: int,
    k: int,
    *,
    exact: bool = False,
    primed: bool = False,
) -> float | Fraction:
    """The grouping rearrangement of M_k(N, h, psi_R):

    sum_{r=1}^{min(k, h)} sum_{1<=j_1<...<j_r<=h} sum_{compositions a of k}
        k!/(a_1!...a_r!) * sum_n prod_i lambda_R(n+j_i)^{a_i} .

    No r > h has a shift tuple, so the compositions into r parts are listed
    only for r <= h.

    Every term is a shifted correlation sum S_k(N, j, a), taken by the
    pattern-sum kernel of ``correlations.s_k`` on floats or on exact ints
    (scaled by D^k).  The whole is an exact identity with the direct moment
    (same finite set of products, regrouped), so the exact-mode value
    equals the direct one identically.
    """
    if N < 1 or h < 1 or k < 1:
        raise ValueError(f"need N, h, k >= 1, got N={N}, h={h}, k={k}")
    start, n_top = _window_range(N, h, primed)
    weights = build_weights(R, exact=exact)
    vals = lambda_R_range(n_top, weights)

    def dense(lo: int, hi: int) -> np.ndarray:
        return vals[lo:hi]  # lo >= start + 1 >= 2

    terms = []
    for r in range(1, min(k, h) + 1):
        comps = list(_compositions(k, r))
        for js in combinations(range(1, h + 1), r):
            for a in comps:
                sk = _pattern_sum([dense] * r, js, a, start, start + N - 1)
                terms.append(_multinomial(k, a) * sk)
    if exact:
        return Fraction(sum(terms), weights.denominator**k)
    return math.fsum(terms)


# --------------------------------------------------------------------------
# pure psi moments


def moment_psi(
    N: int,
    h: int,
    k: int,
    *,
    centered: bool = False,
    primed: bool = False,
) -> MomentReport:
    """M_k(N, h, psi) = sum_n (psi(n+h) - psi(n))^k, optionally centered at h.

    Predictions: uncentered k-th moment against the Stirling-polynomial
    main term N log^k N sum_r {k,r} lam^r; centered even moments against
    the Gaussian (k-1)!! N (h log(N/h))^{k/2}.  Odd centered moments carry
    no prediction (their main terms cancel).
    """
    if N < 2 or h < 1 or k < 1:
        raise ValueError(f"need N >= 2, h >= 1, k >= 1, got N={N}, h={h}, k={k}")
    start, _top = _window_range(N, h, primed)
    acc = PairwiseSum(N)
    for _a, _b, w in _psi_windows(N, h, start):
        if centered:
            w -= float(h)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            w **= k
            acc.add(w)
    computed = finite_float(acc.total, f"M_{k}")
    predicted = (
        ms_prediction(N, h, k) if centered else
        (gallagher_prediction(N, h, k) if k <= 20 else None)
    )
    return MomentReport(
        kind="psi",
        k=k,
        N=N,
        h=h,
        R=None,
        lambda_param=h / math.log(N),
        computed=computed,
        predicted=predicted,
        prediction_residual=relative_residual(computed, predicted),
        centered=centered,
        primed=primed,
    )


# --------------------------------------------------------------------------
# first-moment identity


def first_moment_identity(N: int, h: int) -> FirstMomentReport:
    """Evaluate M_1(N, h, psi) three ways and certify their exact equality.

    Each route assigns an integer multiplicity c_q to every prime power q
    (the number of times Lambda(q) is counted); the float values are the
    corresponding weighted sums of log p.  Route 1 accumulates window
    indicators literally, route 2 uses the three-piece split by the
    position of q relative to [h, N], route 3 the partial-summation form
    with step-sum integrals.  The reported booleans compare the integer
    multiplicity vectors, so equality is certified exactly.
    """
    if not 1 <= h <= N:
        raise ValueError(f"need 1 <= h <= N, got h={h}, N={N}")
    _start, top = _window_range(N, h, primed=False)  # top = N + h
    # one pass over psi(0..N+h): the windows summed as they come; psi kept
    # at 0..h and N..N+h, and Lambda at 2..h and N+1..N+h; and the integer
    # log-coefficient vectors of the three routes compared on each block's
    # prime powers q
    acc = PairwiseSum(N)
    low, high = np.empty(h + 1), np.empty(h + 1)  # psi(0..h), psi(N..N+h)
    lam_low, lam_high = np.zeros(h - 1), np.zeros(h)  # Lambda(2..h), Lambda(N+1..N+h)
    equal_12 = equal_13 = True
    for lo, hi, q, logs, psi in _psi_blocks(top, h):
        _copy_overlap(low, 0, psi[h:], lo)
        _copy_overlap(high, N, psi[h:], lo)
        _place(lam_low, 2, q, logs)
        _place(lam_high, N + 1, q, logs)
        acc.add(_psi_window(lo, hi, psi, h, 1, N)[2])
        c1 = np.zeros(q.shape, dtype=np.int64)
        for d in range(1, h + 1):
            c1 += ((q >= 1 + d) & (q <= N + d)).astype(np.int64)
        c2 = np.where(q <= h, q - 1, np.where(q <= N, h, N + h - q + 1)).astype(np.int64)
        c3 = (
            np.ones(q.shape, dtype=np.int64)
            - (q <= N).astype(np.int64)
            - (q <= h).astype(np.int64)
            - np.maximum(h - 1 - np.maximum(q, 2) + 1, 0)
            + np.maximum(N + h - 1 - np.maximum(q, N) + 1, 0)
        )
        equal_12 &= bool(np.array_equal(c1, c2))
        equal_13 &= bool(np.array_equal(c1, c3))

    direct = acc.total
    piece1 = float(np.dot(np.arange(1, h, dtype=np.float64), lam_low)) if h >= 2 else 0.0
    piece2 = h * (float(high[0]) - float(low[h]))
    piece3 = float(np.dot(np.arange(h, 0, -1, dtype=np.float64), lam_high))
    three_piece = piece1 + piece2 + piece3

    mid_lo = float(np.sum(low[2:h])) if h >= 3 else 0.0  # sum_{i=2}^{h-1} psi(i)
    mid_hi = float(np.sum(high[:h]))  # sum_{i=N}^{N+h-1} psi(i)
    psi_form = float(high[h]) - float(high[0]) - float(low[h]) - mid_lo + mid_hi

    vals = [direct, three_piece, psi_form]
    max_diff = max(abs(a - b) for a in vals for b in vals)
    return FirstMomentReport(
        N=N,
        h=h,
        direct=direct,
        three_piece=three_piece,
        psi_form=psi_form,
        exact_equal_12=equal_12,
        exact_equal_13=equal_13,
        max_abs_diff=max_diff,
    )


# --------------------------------------------------------------------------
# mixed moments


def mixed_moment(
    N: int,
    h: int,
    R: int,
    k: int,
    *,
    primed: bool = False,
) -> MomentReport:
    """Mtilde_k = sum_n (psi_R-increment)^{k-1} (psi-increment), k in {2, 3}.

    ``via_correlations`` evaluates the expansion in which diagonal shift
    coincidences are replaced by L_1(R)-multiples of lower mixed
    correlation sums:

      k=2:  L_1 * sum_j Stilde_1(j) + sum_{j1 != j2} Stilde_2,
      k=3:  L_1^2 * sum_j Stilde_1 + sum_{pairs} Stilde_3(a=(2,1))
            + 2 L_1 sum_{pairs} Stilde_2 + sum_{triples} Stilde_3(a=(1,1,1)).

    The replacement is exact except at prime powers and primes <= R, so the
    expansion residual is reported, not asserted; it should be a vanishing
    fraction of the total as N grows with R = N^theta, theta < 1/2.
    """
    if k not in (2, 3):
        raise ValueError(f"mixed moments implemented for k in {{2, 3}}, got k={k}")
    if N < 2 or h < 1:
        raise ValueError(f"need N >= 2 and h >= 1, got N={N}, h={h}")
    start, top = _window_range(N, h, primed)
    weights = build_weights(R)
    U = _dense_windows(_lam_windows(N, h, weights, start), N, start)
    # one pass over psi(0..top): the psi windows, and Lambda at start + 1 ..
    # top, the n + j the windows read, off the prime powers of its blocks
    V = np.empty(N, dtype=np.float64)
    lamv = np.zeros(top - start, dtype=np.float64)
    for lo, hi, q, logs, psi in _psi_blocks(top, h):
        a, b, w = _psi_window(lo, hi, psi, h, start, N)
        if a < b:
            V[a - start : b - start] = w
        _place(lamv, start + 1, q, logs)
    # lambda_R at the same n + j
    lam_vals = lambda_R_block(start + 1, top + 1, weights)
    L1 = script_L_float(R)

    lam_wins = [lam_vals[j - 1 : N + j - 1] for j in range(1, h + 1)]
    von_wins = [lamv[j - 1 : N + j - 1] for j in range(1, h + 1)]

    T1 = float(np.sum(V))
    UVs = float(U @ V)
    Wvec = np.zeros(N, dtype=np.float64)
    for lw, vw in zip(lam_wins, von_wins):
        Wvec += lw * vw
    Ws = float(np.sum(Wvec))

    if k == 2:
        direct = UVs
        via = L1 * T1 + (UVs - Ws)
    else:
        direct = float((U * U) @ V)
        U2vec = np.zeros(N, dtype=np.float64)
        D = 0.0
        for lw, vw in zip(lam_wins, von_wins):
            sq = lw * lw
            U2vec += sq
            D += float(sq @ vw)
        B = float(U2vec @ V)
        Cc = float(Wvec @ U)
        via = (
            L1 * L1 * T1
            + (B - D)
            + 2.0 * L1 * (UVs - Ws)
            + (direct - B - 2.0 * Cc + 2.0 * D)
        )

    predicted = _window_prediction(N, h, R, k, mixed=True)
    return MomentReport(
        kind="mixed",
        k=k,
        N=N,
        h=h,
        R=R,
        lambda_param=h / math.log(N),
        computed=direct,
        via_correlations=via,
        predicted=predicted,
        expansion_residual=via - direct,
        prediction_residual=relative_residual(direct, predicted),
        primed=primed,
    )


# --------------------------------------------------------------------------
# centered third-moment experiment


def omega_expansions(su, sv, su2, suv, su2v, a, b, n_terms):
    """Binomial rearrangements of the centered sums, for any numeric type:

    sum (U-a)(V-b)   = suv - b*su - a*sv + a*b*n,
    sum (U-a)^2(V-b) = su2v - b*su2 - 2a*suv + 2ab*su + a^2*sv - a^2*b*n,

    where su = sum U, sv = sum V, su2 = sum U^2, suv = sum UV,
    su2v = sum U^2 V over n_terms values.  Works identically for floats
    and Fractions, which is how the identity is certified exactly.
    """
    m2 = suv - b * su - a * sv + a * b * n_terms
    m3 = (
        su2v
        - b * su2
        - 2 * a * suv
        + 2 * a * b * su
        + a * a * sv
        - a * a * b * n_terms
    )
    return m2, m3


def omega_experiment(
    N: int,
    h: int,
    R: int,
    rho: float,
    C: float,
) -> OmegaExperiment:
    """Centered moments m1, m2, m3 over n in [N+1, 2N] with A = sqrt(h log N).

    Requires A < h (the centering shifts must be smaller than the window);
    reads Lambda through 2N + h.  The direct sums and the power-sum
    rearrangements are both computed; their residuals certify the identity
    at float precision (exactness is checked separately on rational data).
    """
    if N < 2 or h < 1:
        raise ValueError(f"need N >= 2 and h >= 1, got N={N}, h={h}")
    if not (math.isfinite(rho) and math.isfinite(C)):
        raise ValueError(f"rho and C must be finite, got rho={rho}, C={C}")
    A = math.sqrt(h * math.log(N))
    if not A < h:
        raise ValueError(
            f"precondition A < h violated: A = sqrt(h log N) = {A:.3f}, h = {h}"
        )
    start, _top = _window_range(N, h, primed=True)
    weights = build_weights(R)
    U = _dense_windows(_lam_windows(N, h, weights, start), N, start)
    V = _dense_windows(_psi_windows(N, h, start), N, start)

    su = float(np.sum(U))
    sv = float(np.sum(V))
    su2 = float(U @ U)
    suv = float(U @ V)
    square = U * U
    su2v = float(square @ V)

    # X = U - a and Y = V - b in the buffers of U and V, and X * X in that
    # of U * U: three N-entry arrays at once, not five
    a = h + C * A
    b = h + rho * A
    X = np.subtract(U, a, out=U)
    Y = np.subtract(V, b, out=V)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        m1 = float(np.sum(Y))
        m2 = float(X @ Y)
        m3 = float(np.multiply(X, X, out=square) @ Y)

    exp_m2, exp_m3 = omega_expansions(su, sv, su2, suv, su2v, a, b, N)
    if not all(map(math.isfinite, (m1, m2, m3, exp_m2, exp_m3))):
        raise ValueError(f"the centred sums overflow float64 at rho={rho}, C={C}")

    predicted_m3 = float(
        -N
        * h**1.5
        * math.sqrt(math.log(N))
        * (rho * C * C * math.log(N) + (2.0 * C + rho) * math.log(R / h))
    )
    return OmegaExperiment(
        N=N,
        h=h,
        R=R,
        rho=rho,
        C=C,
        A=A,
        m1=m1,
        m2=m2,
        m3=m3,
        expansion_m2=exp_m2,
        expansion_m3=exp_m3,
        identity_residual_2=abs(exp_m2 - m2) / max(1.0, abs(m2)),
        identity_residual_3=abs(exp_m3 - m3) / max(1.0, abs(m3)),
        predicted_m3=predicted_m3,
    )
