"""Correlation sums of the divisor-sum approximants against shift patterns.

For a pattern of distinct shifts (j_1, ..., j_r) with multiplicities
(a_1, ..., a_r), k = a_1 + ... + a_r, the pure sum is

    S_k(N, j, a) = sum_{n=1}^{N} prod_i lambda_R(n + j_i)^{a_i},

and the mixed sum S~_k replaces the last factor (a_r = 1) by the genuine
von Mangoldt function Lambda(n + j_r).  Out-of-range arguments n + j <= 0
contribute factor 0, matching lambda_R = Lambda = 0 there.  The expected
main terms at level R = N^theta are

    S_k  ~ C_k(a) * S(j) * N * (log R)^(k-r),
    S~_k ~          S(j) * N * (log R)^(k-r),

with C_k(a) = 1 for every multiplicity pattern with k <= 3 except the
pure cube a = (3), where C_3(3) = 3/4.  S(j) is the singular series of
the shift tuple.

The pair sum at k = 2 collapses to an exact rational in R:

    S_2(N, (0, j), (1, 1)) = N * sum_{r <= R} mu(r) mu((j,r)) phi((j,r)) / phi(r)^2
                              + (boundary/rounding error bounded by
                                 (sum_{r<=R} mu^2(r) sigma(r)/phi(r))^2),

via the divisor-pair kernel

    sum_{d | r1, e | r2, (d,e) | j} mu(d) mu(e) (d, e)
        = 0 if r1 != r2, else mu(r1) mu((j, r1)) phi((j, r1))

for squarefree r1, r2 (standard gcd, so (0, r) = r covers j = 0).  The
analogous triple kernel over d, e, f | a is multiplicative over p | a with
local factors -(p-1)(p-2) / (p-2) / (-2) according to whether p divides
all / exactly one / none of {j1 - j2, j1, j2}.  Both kernels exist as
literal divisor sums (brute) and closed forms, plus grid scans used by the
acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import approximants as ap
from . import singular as sg
from . import tables as _tables
from .constants import DEFAULT_P_CUT
from .singular import ShiftPattern
from .tables import (
    TABLE_MAX,
    ArithTables,
    PairwiseSum,
    prime_divisors,
    squarefree_divisors,
    tables_for,
)


def c_of(multiplicities: tuple[int, ...]) -> float | None:
    """Main-term constant C_k(a) of a multiplicity pattern: None for k > 3,
    3/4 for the pure cube a = (3), and 1 for every other pattern."""
    if sum(multiplicities) > 3:
        return None
    return 0.75 if tuple(multiplicities) == (3,) else 1.0


def finite_float(value, what: str) -> float:
    """float(value), refused with ValueError where it is not finite: a sum
    past the float64 range reads inf or nan, and the float of an exact
    Fraction past it raises OverflowError."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{what} overflows float64")
    return out


def relative_residual(computed: float, predicted: float | None) -> float | None:
    """computed / predicted - 1.0, or None without a nonzero prediction."""
    return None if predicted in (None, 0.0) else computed / predicted - 1.0


@dataclass(frozen=True)
class CorrelationResult:
    pattern: ShiftPattern
    N: int
    R: int
    computed: float
    predicted_main: float | None
    residual: float | None
    normalized_residual: float | None
    exact_value: Fraction | None = None
    mixed: bool = False
    primed_range: bool = False


def _check_range(N: int, pattern: ShiftPattern, primed: bool) -> tuple[int, int, int]:
    """(n_lo, n_hi, top): the range of n and the largest index n + j read."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if max(abs(s) for s in pattern.shifts) > N:
        raise ValueError("shifts must satisfy |j| <= N")
    n_lo, n_hi = (N + 1, 2 * N) if primed else (1, N)
    # negative shifts read no entries past n_hi
    top = n_hi + max(max(pattern.shifts), 0)
    if top > TABLE_MAX:
        raise ValueError(f"the sum reads n up to {top}, beyond {TABLE_MAX}")
    return n_lo, n_hi, top


def _shift_runs(shifts) -> dict[int, tuple[int, int]]:
    """Each shift's run (first, last): the distinct shifts, ascending, cut
    where one lies more than BLOCK_MAX past its run's first."""
    runs: list[list[int]] = []
    for j in sorted(set(shifts)):
        if runs and j - runs[-1][0] <= _tables.BLOCK_MAX:
            runs[-1].append(j)
        else:
            runs.append([j])
    return {j: (run[0], run[-1]) for run in runs for j in run}


def _pattern_sum(sources, shifts, mults, n_lo: int, n_hi: int):
    """sum_{n=n_lo}^{n_hi} prod_i f_i(n + shifts[i]) ** mults[i], taken
    BLOCK_MAX values of n at a time.

    sources[i](lo, hi) gives f_i(lo..hi-1), 0 at arguments <= 0, as
    float64 or as an object array of Python ints; a source is asked once
    per block for each run of its shifts (``_shift_runs``), for the
    arguments the run reads: windows of ascending lo and hi that overlap by
    the run's spread, which ``tables.LambdaWindows`` reads off one sieve
    pass, one per run.  The factors multiply in the order given, so the
    products have the same bits on every call, and their float sum is
    np.sum's over all of them, bit for bit, through one ``PairwiseSum``:
    no array over the values of n is built.  Exact ints give an exact
    Python int.
    """
    runs = {f: _shift_runs([j for g, j in zip(sources, shifts) if g == f]) for f in set(sources)}
    reads = [(f, runs[f][j]) for f, j in zip(sources, shifts)]
    acc = PairwiseSum(n_hi - n_lo + 1)
    step = _tables.BLOCK_MAX
    for a in range(n_lo, n_hi + 1, step):
        b = min(a + step, n_hi + 1)
        vals = {(f, run): f(a + run[0], b + run[1]) for f, run in dict.fromkeys(reads)}
        prod = None
        # an overflow leaves inf or nan in the sum, with no warning printed
        with np.errstate(over="ignore", invalid="ignore"):
            for read, j, m in zip(reads, shifts, mults):
                at = j - read[1][0]
                w = vals[read][at : at + b - a]
                if prod is None:
                    prod = w**m  # a new array, so the in-place products write into no source
                else:
                    prod *= w if m == 1 else w**m
            acc.add(prod)
    return acc.total


def _lambda_R_source(weights: ap.ApproximantWeights):
    """lambda_R of the weights over [lo, hi), for ``_pattern_sum``."""
    return lambda lo, hi: ap.lambda_R_block(lo, hi, weights)


def s_k(
    N: int,
    pattern: ShiftPattern,
    R: int,
    exact: bool = False,
    primed_range: bool = False,
    p_cut: int = DEFAULT_P_CUT,
) -> CorrelationResult:
    """Correlation sum of pure lambda_R powers over the given pattern.

    exact=True evaluates the sum as an exact rational instead (requires R
    within the exact-weight guard); ``computed`` is then its float value.
    primed_range=True sums over n in [N+1, 2N] instead of [1, N].
    Predictions are attached for k <= 3; larger k is computed but carries
    no prediction.  A bad R or p_cut is refused before the sum.
    """
    n_lo, n_hi, top = _check_range(N, pattern, primed_range)
    ap._check_R(R)
    sg._check_p_cut(pattern.r, p_cut)
    weights = ap.build_weights(R, exact=exact)
    total = _pattern_sum([_lambda_R_source(weights)] * pattern.r,
                         pattern.shifts, pattern.multiplicities, n_lo, n_hi)
    if exact:
        total = Fraction(total, weights.denominator**pattern.k)
    return _result(
        N, pattern, R, total, mixed=False, primed_range=primed_range, p_cut=p_cut
    )


def s_tilde_k(
    N: int,
    pattern: ShiftPattern,
    R: int,
    primed_range: bool = False,
    p_cut: int = DEFAULT_P_CUT,
) -> CorrelationResult:
    """Mixed correlation sum: lambda_R powers on the leading shifts, Lambda
    on the last shift (whose multiplicity must be 1).

    r = 1 needs no approximant at all: S~_1(N, (j)) = psi(N+j) - psi(j)
    for j >= 0 (window of the prefix sums), which is N + O(|j| log N)
    under the usual error terms.  A bad p_cut is refused before the sum.
    """
    n_lo, n_hi, _top = _check_range(N, pattern, primed_range)
    if pattern.multiplicities[-1] != 1:
        raise ValueError("mixed pattern requires multiplicity 1 on the last shift")
    if pattern.r > 1 and R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    sg._check_p_cut(pattern.r, p_cut)

    sources = [_tables.LambdaWindows(n_hi + pattern.shifts[-1])]
    if pattern.r > 1:
        sources = [_lambda_R_source(ap.build_weights(R))] * (pattern.r - 1) + sources
    total = _pattern_sum(sources, pattern.shifts, pattern.multiplicities, n_lo, n_hi)
    return _result(
        N, pattern, R, total, mixed=True, primed_range=primed_range, p_cut=p_cut
    )


def _result(
    N: int,
    pattern: ShiftPattern,
    R: int,
    value,
    *,
    mixed: bool,
    primed_range: bool,
    p_cut: int,
) -> CorrelationResult:
    """The CorrelationResult of one sum (a Fraction in exact mode), with its
    predicted main term where one is known."""
    k, r = pattern.k, pattern.r
    c = 1.0 if mixed else c_of(pattern.multiplicities)
    predicted = None
    if c is not None:
        sing = sg.singular_vector(pattern.shifts, p_cut=p_cut).value
        predicted = c * sing * N * math.log(R) ** (k - r)
    computed = finite_float(value, f"the sum S_{k}")
    return CorrelationResult(
        pattern=pattern,
        N=N,
        R=R,
        computed=computed,
        predicted_main=predicted,
        residual=None if predicted is None else computed - predicted,
        normalized_residual=relative_residual(computed, predicted),
        exact_value=value if isinstance(value, Fraction) else None,
        mixed=mixed,
        primed_range=primed_range,
    )


def psi_tuple(N: int, shifts: tuple[int, ...]) -> float:
    """psi_j(N) = sum_{n <= N} prod_i Lambda(n + j_i) over distinct shifts."""
    pattern = ShiftPattern(tuple(shifts), (1,) * len(shifts))
    _check_range(N, pattern, primed=False)
    runs = _shift_runs(shifts)
    windows = {run: _tables.LambdaWindows(N + run[1]) for run in runs.values()}
    sources = [windows[runs[j]] for j in shifts]
    total = _pattern_sum(sources, pattern.shifts, pattern.multiplicities, 1, N)
    return finite_float(total, f"psi_j({N})")


# ---------------------------------------------------------------------------
# reduced rational form of the pair sum
# ---------------------------------------------------------------------------


def s2_reduced(N: int, j: int, R: int) -> Fraction:
    """N * sum_{r <= R} mu(r) mu((j,r)) phi((j,r)) / phi(r)^2, exact.

    This is the diagonal collapse of the pair correlation; standard gcd
    makes j = 0 give N * script_L_1(R) with no special-casing.  As R grows
    (even j != 0) it converges to N * S_2(j).
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > ap.EXACT_R_MAX:
        raise ValueError(f"exact reduced sum limited to R <= {ap.EXACT_R_MAX}")
    tb = tables_for(R)
    acc = Fraction(0)
    for r in range(1, R + 1):
        if tb.mu[r] == 0:
            continue
        g = math.gcd(abs(j), r)
        acc += Fraction(int(tb.mu[r]) * int(tb.mu[g]) * int(tb.phi[g]), int(tb.phi[r]) ** 2)
    return N * acc


# ---------------------------------------------------------------------------
# divisor kernels: brute sums, closed forms, and grid scans
# ---------------------------------------------------------------------------


def _require_squarefree(r: int, tb: ArithTables) -> None:
    if r < 1 or tb.mu[r] == 0:
        raise ValueError(f"argument must be squarefree and >= 1, got {r}")


def pair_kernel(r1: int, r2: int, j: int) -> int:
    """Brute divisor sum: sum_{d | r1, e | r2, (d,e) | j} mu(d) mu(e) (d,e).

    Standard gcd conventions: every (d,e) divides j = 0.
    """
    tb = tables_for(max(r1, r2))
    _require_squarefree(r1, tb)
    _require_squarefree(r2, tb)
    total = 0
    for d in squarefree_divisors(r1):
        for e in squarefree_divisors(r2):
            g = math.gcd(d, e)
            if j % g == 0:
                total += int(tb.mu[d]) * int(tb.mu[e]) * g
    return total


def pair_kernel_closed(r1: int, r2: int, j: int) -> int:
    """Closed form: 0 unless r1 = r2 = r, else mu(r) mu((j,r)) phi((j,r))."""
    tb = tables_for(max(r1, r2))
    _require_squarefree(r1, tb)
    _require_squarefree(r2, tb)
    # (j, r1) = (j mod r1, r1), and j mod r1 fits an int64 whatever j is
    return int(_pair_kernel_closed(r1, r2, np.int64(j % r1), tb))


def _pair_kernel_closed(r1: int, r2: int, j: np.ndarray, tb: ArithTables):
    """The closed form elementwise over the int64 j, an array or a scalar."""
    if r1 != r2:
        return np.zeros_like(j)
    g = np.gcd(j, r1)
    return int(tb.mu[r1]) * tb.mu[g].astype(np.int64) * tb.phi[g]


def triple_kernel(a: int, j1: int, j2: int) -> int:
    """Brute sum over d, e, f | a with (d,e) | j1-j2, (d,f) | j1, (e,f) | j2
    of mu(d) mu(e) mu(f) * d*e*f / [d,e,f], for squarefree a."""
    tb = tables_for(a)
    _require_squarefree(a, tb)
    return _triple_kernel(a, j1, j2, tb)


def _triple_kernel(a: int, j1: int, j2: int, tb: ArithTables) -> int:
    divs = squarefree_divisors(a)
    dj = j1 - j2
    total = 0
    for d in divs:
        for e in divs:
            if dj % math.gcd(d, e) != 0:
                continue
            for f in divs:
                if j1 % math.gcd(d, f) != 0 or j2 % math.gcd(e, f) != 0:
                    continue
                lcm = d * e // math.gcd(d, e)
                lcm = lcm * f // math.gcd(lcm, f)
                total += (
                    int(tb.mu[d]) * int(tb.mu[e]) * int(tb.mu[f]) * (d * e * f // lcm)
                )
    return total


def triple_kernel_closed(a: int, j1: int, j2: int) -> int:
    """Closed multiplicative form of triple_kernel: product over p | a of

        -(p-1)(p-2)  if p divides j1, j2 (hence j1 - j2),
        (p-2)        if p divides exactly one of {j1 - j2, j1, j2},
        -2           if p divides none.
    """
    tb = tables_for(a)
    _require_squarefree(a, tb)
    return _triple_kernel_closed(a, j1, j2)


def _triple_kernel_closed(a: int, j1: int, j2: int) -> int:
    total = 1
    dj = j1 - j2
    for p in prime_divisors(a):
        d1, d2, dd = j1 % p == 0, j2 % p == 0, dj % p == 0
        hits = int(d1) + int(d2) + int(dd)
        if hits == 3:
            total *= -(p - 1) * (p - 2)
        elif hits == 1:
            total *= p - 2
        elif hits == 0:
            total *= -2
        else:  # two of the three conditions force the third
            raise AssertionError("p dividing two of {j1-j2, j1, j2} divides all")
    return total


def pair_kernel_scan(r_max: int, j_lo: int, j_hi: int) -> int:
    """Count grid violations of the pair-kernel identity over squarefree
    r1, r2 <= r_max and j in [j_lo, j_hi].  Returns 0 when the closed form
    matches the brute sum everywhere.

    The brute side stays the literal divisor sum: the divisors of each r
    and their mu are listed once, and for each pair (r1, r2) the terms
    mu(d) mu(e) (d,e) with (d,e) | j are summed for every j of the grid in
    one matrix product.
    """
    tb = tables_for(r_max)
    js = np.arange(j_lo, j_hi + 1, dtype=np.int64)
    divs = {}
    for r in range(1, r_max + 1):
        if tb.mu[r] != 0:
            d = np.array(squarefree_divisors(r), dtype=np.int64)
            divs[r] = d, tb.mu[d].astype(np.int64)
    bad = 0
    for r1, (d1, m1) in divs.items():
        for r2, (d2, m2) in divs.items():
            g = np.gcd.outer(d1, d2).ravel()
            coef = np.outer(m1, m2).ravel() * g
            brute = (js[:, None] % g == 0) @ coef
            bad += int(np.count_nonzero(brute != _pair_kernel_closed(r1, r2, js, tb)))
    return bad


def triple_kernel_scan(a_max: int, j_abs: int) -> int:
    """Count grid violations of the triple-kernel identity over squarefree
    a <= a_max and distinct j1, j2 in [-j_abs, j_abs]."""
    tb = tables_for(a_max)
    sf = [r for r in range(1, a_max + 1) if tb.mu[r] != 0]
    bad = 0
    for a in sf:
        for j1 in range(-j_abs, j_abs + 1):
            for j2 in range(-j_abs, j_abs + 1):
                if j1 == j2:
                    continue
                if _triple_kernel(a, j1, j2, tb) != _triple_kernel_closed(a, j1, j2):
                    bad += 1
    return bad
