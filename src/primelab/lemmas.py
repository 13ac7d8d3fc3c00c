"""Finite-sum verification of the five auxiliary multiplicative-sum lemmas.

Every left-hand side here is a sum over squarefree n <= x of a product of
per-prime factors,

    LHS(x) = sum_{n<=x} mu^2(n) prod_{p|n} f(p)        (Moebius signs are
                                                         folded into f),

so a single sieved walk (``_walk``) serves all five: it gives
v[n] = mu^2(n) prod_{p|n} f(p) for n <= x from a factor function, which
maps an array of primes to their factors f(p), with excluded primes
(p | k) encoded as f(p) = 0.  The walk is a segmented sieve of its own,
BLOCK_MAX values at a time, and reads no table: the primes up to isqrt(x)
multiply their factors in at their multiples and mark the multiples of
their squares, the n that are not squarefree, and the one larger prime a
squarefree n may have comes last.  ``multiplicative_values`` keeps all of
v; the lemmas that need only the sums up to each rung take them block by
block as the walk passes (``_LadderWalk``), bit for bit as np.sum would,
and keep no array over n.  When f(2) = 0, as for Lemma 2 and for Lemmas 1
and 4 with k even, every even n has the value +-0.0, and the rung walk
sieves the odd n alone and gives the even n +0.0: only a zero's sign
differs, and no sum sees it.  Each lemma then supplies its factor function
(``_factor``: one formula on the primes, with values overridden at the
primes dividing j or k), its closed-form main term (Euler products and
prime log-sums truncated at a recorded p_cut, streamed over the primes by
``tables.prime_sums`` as the singular series' are; for Lemma 1 built from
the same f = P1/P2 its walk reads, for Lemmas 4 and 5 the product
prod_p (1 + f(p)) of the same factor function, ``_euler_limit``), and the
normalization under which the error is expected to stay bounded:

  1.  sum_{(n,k)=1} mu^2(n) prod P1(p)/P2(p)
        = K1 * K_k * (log x + gamma + S1 + S_k) + O(m(k)/sqrt(x)),
      for monic integer P1, P2 with deg P2 = 1 + deg P1;
  2.  S(x) = sum mu(n) phi_2(n) / (n phi(n)) stays bounded;
  3.  sum mu^2(n) prod (3p-4)/((p-1)(sqrt p - 1))
        = P(1) sqrt(x) log^2 x + lower order,  P(1) = ``euler_P1``;
  4.  sum_{(n,k)=1} mu(n) mu.phi((n,j)) / phi^2(n) -> a closed constant
      built from C_2, with error O(d(j')j'/(x phi(j'))), j' = j*/(j*,k);
      plus the log-weighted variant whose limit involves S_2;
  5.  the twisted divisor-weight sum over even J with k | J -> an exact
      Euler product, error O(x^{-1+eps}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest
from typing import Callable, Sequence

import numpy as np

from . import tables as _tables
from .constants import (
    CONST_P_CUT,
    DEFAULT_P_CUT,
    EULER_GAMMA,
    LOGP_P_PMINUS2_SUM,
)
from .singular import singular_Sn
from .tables import (
    TABLE_MAX,
    PairwiseSum,
    cumsum_blocks,
    prime_divisors,
    prime_sums,
    squarefree_kernel,
)

__all__ = [
    "MonicPolyPair",
    "LemmaReport",
    "HILDEBRAND_POLY_PAIR",
    "CUBIC_POLY_PAIR",
    "m_of",
    "multiplicative_values",
    "lemma1",
    "lemma2",
    "lemma3",
    "euler_P1",
    "lemma4",
    "lemma4_log",
    "lemma5",
    "mult_identity_check",
]


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class MonicPolyPair:
    """Monic integer polynomial pair (P1, P2) with deg P2 = 1 + deg P1.

    Coefficients are ascending-degree tuples; ``lemma1`` checks P2(p) != 0
    and (P1 + P2)(p) != 0 at every prime it reads (these appear as
    denominators in the factors and the main-term constants).
    """

    p1: tuple[int, ...]
    p2: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, c in (("P1", self.p1), ("P2", self.p2)):
            if not c or c[-1] != 1:
                raise ValueError(f"{name} must be monic with integer coefficients")
            if not all(isinstance(v, int) for v in c):
                raise ValueError(f"{name} coefficients must be integers")
        if len(self.p2) != len(self.p1) + 1:
            raise ValueError(
                f"deg P2 must be 1 + deg P1, got {len(self.p2) - 1} and {len(self.p1) - 1}"
            )


# integer polynomial helpers (coefficient tuples, low degree first)


def poly_eval_int(coeffs: tuple[int, ...], x: int) -> int:
    """Exact integer Horner evaluation."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_array(coeffs: tuple[int, ...], xs: np.ndarray) -> np.ndarray:
    """Horner evaluation over a float64 array."""
    acc = np.zeros_like(xs, dtype=np.float64)
    for c in reversed(coeffs):
        acc *= xs
        acc += float(c)
    return acc


def raise_at_zeros(
    name: str, coeffs: tuple[int, ...], ps: np.ndarray, vals: np.ndarray
) -> None:
    """Raise ValueError if the polynomial ``name`` vanishes at a prime of ps.

    vals is its float evaluation at ps; possible float zeros are re-checked
    exactly before raising, the least such prime first.
    """
    if vals.all():
        return
    for p in np.unique(ps[vals == 0.0]).astype(np.int64).tolist():
        if poly_eval_int(coeffs, p) == 0:
            raise ValueError(f"{name} vanishes at p={p}; constants undefined")


#: (P1, P2) = (1, X-1): the summand is mu^2(n)/phi(n), so the sum is
#: script_L_k(x); K1 = 1 and S1 = sum_p log(p)/(p(p-1)).
HILDEBRAND_POLY_PAIR = MonicPolyPair((1,), (-1, 1))

#: (P1, P2) = (X^2 - X - 1, (X-1)^3): the second closed-form special case.
CUBIC_POLY_PAIR = MonicPolyPair((-1, -1, 1), (-1, 3, -3, 1))


@dataclass(frozen=True)
class LemmaReport:
    """Ladder evaluation of one lemma.

    ``lhs[i]`` is the finite sum at ``x_ladder[i]``, ``main[i]`` the
    closed-form main term there, and ``scaled_error[i]`` the difference
    under the lemma's stated normalization (the quantity that should stay
    bounded, or tend to zero, as x climbs).  ``params`` echoes the inputs
    and ``extras`` carries named constants (truncated Euler products,
    running sups, ...) for the reader.
    """

    which: int
    x_ladder: tuple[int, ...]
    lhs: tuple[float, ...]
    main: tuple[float, ...]
    scaled_error: tuple[float, ...]
    params: tuple[tuple[str, str], ...] = ()
    extras: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # the ladder was checked by _check_ladder before any evaluation
        if not all(map(math.isfinite, self.scaled_error)):
            raise ValueError(f"scaled_error must be finite: {self.scaled_error}")


def _check_ladder(x_ladder: Sequence[int]) -> tuple[int, ...]:
    ladder = tuple(int(x) for x in x_ladder)
    if not ladder or any(x < 1 for x in ladder):
        raise ValueError(f"x_ladder must contain integers >= 1: {x_ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"x_ladder must be strictly increasing: {x_ladder}")
    if ladder[-1] > TABLE_MAX:
        raise ValueError(f"x_max={ladder[-1]} is beyond {TABLE_MAX}")
    return ladder


# --------------------------------------------------------------------------
# shared sieved evaluator


#: a factor function: an int array of primes -> their float64 factors
FactorFn = Callable[[np.ndarray], np.ndarray]


#: the wheel's primes: those up to it that sieve a walk, multiplied once
#: into one period of the values (30030 entries at 2*3*5*7*11*13)
_WHEEL_TOP = 13

#: entries per step of a walk's larger primes and of its last factor q: each
#: step's temporaries stay within 64 KiB, under glibc's 128 KiB mmap
#: threshold, so none is mapped, faulted in and unmapped again every block
_STEP = 1 << 13


def _walk(f: FactorFn, x: int, *, signed_zeros: bool = True):
    """Yield (lo, hi, v) over the blocks [lo, hi) of BLOCK_MAX entries
    covering 0..x, in order, with v[i] = mu^2(n) * prod_{p|n} f(p) at
    n = lo + i: a segmented sieve of the values.

    With ``signed_zeros=False``, for callers that only sum v, a walk whose
    f(2), read off the sieving primes' factors (x >= 4), is zero sieves
    the odd n alone (step 2, without the prime 2) in a buffer of half a
    block, and gives every even n +0.0, where the product is f(2) times
    the rest, a zero of either sign when the factors are finite.  The odd
    values keep their bits.  No sum sees the difference: y + (+-0.0) = y
    for y != 0, and a sum of zeros is a zero, which np.sum's 0.0 + root
    makes +0.0.

    A block sieves n = c + step * i, from the first such n >= lo, c.  For
    each, the value starts at 1.0 and an int32 prod at 1, and each sieving
    prime p <= isqrt(x), in ascending order, multiplies f(p) into the
    value and p into prod at its multiples, and marks its multiples of
    p^2, which are not squarefree.  A squarefree n then has at most one
    prime factor q > isqrt(x) left out of prod, q = n / prod, and f(q) is
    multiplied in last where q > 1; the value is 0.0 at the marked n and
    at n = 0.  So it is the left-to-right product
    (((1.0 f(p_1)) f(p_2)) ...) f(q) over the primes p_1 < p_2 < ... < q
    of n, bit for bit.

    The wheel primes p <= min(13, isqrt(BLOCK_MAX)) do this once, into one
    period of the values and prod (30030 entries when all six sieve, and
    15015 at step 2, without 2), and each block starts from that period at
    c's place in it: the same products in the same order.  The other
    primes p <= isqrt(BLOCK_MAX), with many multiples in a block, take
    strided slices; the larger ones one np.multiply.at per group over all
    their multiples in it, ordered by prime and then by position, so each
    n still meets its primes in ascending order, and one step for their
    multiples of p^2, at most one each per block.  Every smaller prime,
    the wheel's too, marks its multiples of p^2 by a strided slice.  A
    group holds at most _STEP multiples a block, and q is taken _STEP
    entries at a time, so no temporary of a block exceeds 64 KiB.

    f is called once on the int32 sieving primes and then, _STEP entries
    at a time, on the q of the squarefree n: it sees every prime <= x and
    nothing else.  v is a view of a buffer reused from block to block,
    valid until the next block is asked for.  The walk reads no table.
    """
    primes = _tables.eratosthenes(math.isqrt(x)).astype(np.int32)
    factors = f(primes)
    step = 1 if signed_zeros or not primes.size or factors[0] != 0.0 else 2
    primes, factors = primes[step - 1 :], factors[step - 1 :]
    block = _tables.BLOCK_MAX
    split = int(np.searchsorted(primes, math.isqrt(block), side="right"))
    wheel = int(np.searchsorted(primes[:split], _WHEEL_TOP, side="right"))
    small = list(zip(primes[:split].tolist(), factors[:split]))
    period = math.prod(primes[:wheel].tolist())
    wheel_v = np.ones(period, dtype=np.float64)
    wheel_prod = np.ones(period, dtype=np.int32)
    for p, fp in small[:wheel]:
        every = slice(_first(step - 1, p, step), None, p)
        np.multiply(wheel_v[every], fp, out=wheel_v[every])
        wheel_prod[every] *= p
    # the larger primes in groups of at most _STEP multiples in a block, where
    # p has at most (block - 1) // p + 1 <= isqrt(block) + 1 of them
    big, big_f = primes[split:], factors[split:]
    most = (block - 1) // big + 1
    groups, a = [], 0
    while a < big.size:
        b = a + int(np.searchsorted(np.cumsum(most[a:]), _STEP, side="right"))
        groups.append((big[a:b], big_f[a:b], big[a:b].astype(np.intp) ** 2))  # p^2 > BLOCK_MAX
        a = b
    # block temporaries, allocated once: a fresh array per block would be
    # mapped, faulted in and unmapped again every time
    size = min(x + 1, block)
    per_block = (size + step - 1) // step  # n sieved in a block
    value = np.empty(size, dtype=np.float64)
    sieved = value if step == 1 else np.empty(per_block, dtype=np.float64)
    prod_buf = np.empty(per_block, dtype=np.int32)
    zero_buf = np.empty(per_block, dtype=bool)
    ramp = np.arange(0, step * min(per_block, _STEP), step, dtype=np.int32)
    n_buf = np.empty_like(ramp)
    for lo in range(0, x + 1, block):
        hi = min(lo + block, x + 1)
        c = lo | (step - 1)  # the first n sieved
        count = (hi - c + step - 1) // step
        v, prod, zero = sieved[:count], prod_buf[:count], zero_buf[:count]
        _tile(v, wheel_v, c // step % period)
        _tile(prod, wheel_prod, c // step % period)
        zero.fill(False)
        zero[:1] = c == 0  # n = 0
        # multiples from n = 1 on: n = 0, which every p divides, is masked,
        # and prod then divides n (or the wheel's period, at n = 0), so the
        # int32 products cannot overflow
        start = max(c, 1)
        skip = start - c
        for p, fp in small[wheel:]:
            every = slice(skip + _first(start, p, step), None, p)
            np.multiply(v[every], fp, out=v[every])
            np.multiply(prod[every], p, out=prod[every])
        for p, _fp in small:
            zero[_first(c, p * p, step) :: p * p] = True
        for big, big_f, big_square in groups:
            first = skip + _first(start, big, step)
            counts = np.maximum((count - 1 - first) // big + 1, 0)
            steps = np.repeat(big, counts)
            at = np.arange(steps.size, dtype=np.intp)
            at -= np.repeat(np.cumsum(counts) - counts, counts)  # i-th multiple
            at *= steps
            at += np.repeat(first, counts)
            np.multiply.at(v, at, np.repeat(big_f, counts))
            np.multiply.at(prod, at, steps)
            at = _first(c, big_square, step)
            zero[at[at < count]] = True
        # q = n // prod in prod's buffer, _STEP entries at a time
        for a in range(0, count, _STEP):
            b = min(a + _STEP, count)
            n = np.add(ramp[: b - a], c + step * a, out=n_buf[: b - a])
            q = np.floor_divide(n, prod[a:b], out=prod[a:b])
            at = np.flatnonzero((q > 1) & ~zero[a:b])
            run = v[a:b]
            run[at] *= f(q[at])
        np.putmask(v, zero, 0.0)
        if step == 2:
            value[lo % 2 : hi - lo : 2] = 0.0
            value[c - lo : hi - lo : 2] = v
        yield lo, hi, value[: hi - lo]


def _first(c, m, step: int):
    """The least i >= 0 with m | c + step * i, for step 1, or step 2 and m
    odd; m an int or an int array.  Nothing it computes reaches 2 m, so
    it cannot overflow m's dtype, as -c (m + 1) / 2 mod m would from
    c ~ 2.56e6 on for int32 primes."""
    d = -c % m
    return d if step == 1 else (d + m * (d & 1)) // 2


def _tile(out: np.ndarray, period: np.ndarray, at: int) -> None:
    """Fill out with period repeated, from its entry at on."""
    done = min(out.size, period.size - at)
    out[:done] = period[at : at + done]
    while done < out.size:
        step = min(out.size - done, period.size)
        out[done : done + step] = period[:step]
        done += step


def multiplicative_values(f: FactorFn, x: int) -> np.ndarray:
    """v[n] = mu^2(n) * prod_{p|n} f(p) for 0 <= n <= x (v[0]=0, v[1]=1).

    ``f`` maps an int32 array of primes to their float64 factors, element
    by element; excluded primes should map to 0.  f sees only primes, every
    prime <= x at least once, and must not raise floating-point warnings
    there.  v is the blocks of ``_walk`` joined, so v[n] is bit for bit
    the left-to-right product over the primes of n in ascending order,
    signed zeros included: this walk sieves every n, whatever f(2) is.
    The lemmas that only need prefix sums take them from the same walk
    (``_LadderWalk``), which may give an even n +0.0 for a zero of the
    other sign, and keep no x-entry array.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    out = np.empty(x + 1, dtype=np.float64)
    for lo, hi, v in _walk(f, x):
        out[lo:hi] = v
    return out


class _LadderWalk:
    """The walk of f up to the top rung x, taking np.sum(v[: r + 1]) for
    each rung r on the way, bit for bit: one ``tables.PairwiseSum`` of
    r + 1 entries per rung, all fed the one pass of blocks.

    Iterating it yields the walk's blocks (lo, hi, v), from n = 0; once
    they are exhausted, ``sums`` holds the rung sums.  It walks with
    ``signed_zeros=False``: when f(2) = 0 only the odd n are sieved and
    every even n is +0.0, where the full product is a zero of either sign,
    which leaves each sum's bits as they are.
    """

    def __init__(self, f: FactorFn, ladder: tuple[int, ...]):
        self.f, self.ladder = f, ladder

    def __iter__(self):
        rungs = [PairwiseSum(r + 1) for r in self.ladder]
        for lo, hi, v in _walk(self.f, self.ladder[-1], signed_zeros=False):
            for rung in rungs:
                rung.add(v)
            yield lo, hi, v
        self.sums = tuple(rung.total for rung in rungs)


def _rung_sums(f: FactorFn, ladder: tuple[int, ...]) -> tuple[float, ...]:
    """np.sum(multiplicative_values(f, x)[: r + 1]) for each rung r of the
    ladder, bit for bit, from one ``_LadderWalk`` with x the top rung."""
    walk = _LadderWalk(f, ladder)
    for _block in walk:
        pass
    return walk.sums


def _factor(
    generic: Callable[[np.ndarray], np.ndarray],
    overrides: Sequence[tuple[int, float]] = (),
) -> FactorFn:
    """The factor function generic(p) on the primes as float64, with the
    value v at each p of ``overrides`` instead (a later pair wins)."""

    def f(ps: np.ndarray) -> np.ndarray:
        out = generic(ps.astype(np.float64))
        for p, v in overrides:
            out[ps == p] = v
        return out

    return f


def _euler_limit(f: FactorFn, p_cut: int, special: Sequence[int]) -> float:
    """prod (1 + f(p)) over the primes p <= p_cut and the primes of the
    integers in ``special`` above p_cut, fed last: the limit of
    sum mu^2(n) prod f(p), truncated at p_cut, as exp of the sum of
    log1p(f(p)) (``tables.prime_sums``).  The factors must be >= 0; a zero
    factor (f(p) = -1 exactly) adds log 0 = -inf to the sum, so the
    product is exactly 0.0.
    """
    def log_factors(ps: np.ndarray) -> tuple[np.ndarray]:
        terms = f(ps)
        with np.errstate(divide="ignore"):
            return (np.log1p(terms),)

    extra = sorted({p for m in special for p in prime_divisors(m) if p > p_cut})
    (logs,) = prime_sums(log_factors, p_cut, extra)
    return float(np.exp(logs))


def _kernel_parts(m: int) -> tuple[int, int, int]:
    """(m*, d(m*), phi(m*)) for m != 0: the squarefree kernel of m, its
    divisor count 2^omega(m) and its totient."""
    ps = prime_divisors(m)
    return math.prod(ps), 2 ** len(ps), math.prod(p - 1 for p in ps)


def m_of(k: int) -> float:
    """m(k) = sum_{d|k} mu^2(d)/sqrt(d) = prod_{p | k} (1 + 1/sqrt(p)), k != 0."""
    if k == 0:
        raise ValueError("m(k) requires k != 0")
    out = 1.0
    for p in prime_divisors(k):
        out *= 1.0 + 1.0 / math.sqrt(p)
    return out


# --------------------------------------------------------------------------
# Lemma 1: generalized Hildebrand sums


def lemma1(
    pair: MonicPolyPair,
    k: int,
    x_ladder: Sequence[int],
    *,
    p_cut: int = CONST_P_CUT,
) -> LemmaReport:
    """sum_{n<=x, (n,k)=1} mu^2(n) prod_{p|n} P1(p)/P2(p) against its main term

        K1 * K_k * (log x + gamma + S1 + S_k),

    with f = P1/P2, the factor function the walk reads,

        K1  = prod_{p <= p_cut} (1 - 1/p) (1 + f(p)),
        S1  = sum_{p <= p_cut} (1/(p-1) - f(p)/(1 + f(p))) log p,
        K_k = prod_{p|k} 1/(1 + f(p)),
        S_k = sum_{p|k} f(p)/(1 + f(p)) log p.

    K1 is accumulated as exp of the pairwise sum of log1p(-1/p) + log1p(f).
    f refuses a prime where P2 or P1 + P2 vanishes, so a pair that does is
    refused at the primes up to p_cut, up to x_max and of k.
    The scaled error (lhs - main) * sqrt(x) / m(k) should stay bounded.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    ladder = _check_ladder(x_ladder)
    # P2 is one degree above P1 and monic, so P1 + P2 keeps its top coefficient
    p12 = tuple(a + b for a, b in zip_longest(pair.p1, pair.p2, fillvalue=0))

    def ratio(ps: np.ndarray) -> np.ndarray:
        v1 = poly_eval_array(pair.p1, ps)
        v2 = poly_eval_array(pair.p2, ps)
        raise_at_zeros("P2", pair.p2, ps, v2)
        # v1 + v2 is (P1+P2)(p), exact while the values stay below 2**53,
        # as Horner's form of P1+P2 is
        raise_at_zeros("P1+P2", p12, ps, v1 + v2)
        return v1 / v2

    def parts(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fp = ratio(ps)
        return (np.log1p(-1.0 / ps) + np.log1p(fp),
                (1.0 / (ps - 1.0) - fp / (1.0 + fp)) * np.log(ps))

    log_k1, s1 = prime_sums(parts, p_cut)
    k1 = float(np.exp(log_k1))
    k_primes = prime_divisors(k)
    pk = np.array(k_primes, dtype=np.float64)
    fk = ratio(pk)
    k2 = float(np.prod(1.0 / (1.0 + fk)))
    s2 = float(np.sum(fk / (1.0 + fk) * np.log(pk)))

    # the walk evaluates f, and its checks, at every prime p <= x_max
    f = _factor(ratio, [(p, 0.0) for p in k_primes])
    lhs = _rung_sums(f, ladder)
    main = tuple(k1 * k2 * (math.log(x) + EULER_GAMMA + s1 + s2) for x in ladder)

    mk = m_of(k)
    scaled = tuple(
        (l - m) * math.sqrt(x) / mk for l, m, x in zip(lhs, main, ladder)
    )
    return LemmaReport(
        which=1,
        x_ladder=ladder,
        lhs=lhs,
        main=main,
        scaled_error=scaled,
        params=(
            ("P1", repr(pair.p1)),
            ("P2", repr(pair.p2)),
            ("k", str(k)),
            ("p_cut", str(p_cut)),
        ),
        extras=(("K1", k1), ("K_k", k2), ("S1", s1), ("S_k", s2), ("m_k", mk)),
    )


# --------------------------------------------------------------------------
# Lemma 2: bounded Moebius average


def lemma2(x_ladder: Sequence[int]) -> LemmaReport:
    """Partial sums S(x) = sum_{n<=x} mu(n) phi_2(n) / (n phi(n)).

    The statement is |S(x)| <= C for all x, so main = 0 and the scaled
    error is S(x) itself.  Extras carry sup_{t <= x_max} |S(t)| over every
    integer prefix and the successive ladder differences |S(x_{i+1})-S(x_i)|,
    which should shrink (the series converges).

    One walk (``_LadderWalk``) gives both, keeping none of the values:
    S at each rung is np.sum of the values, bit for bit, in numpy's
    pairwise order, and the sup is taken over one running sum streamed
    through ``cumsum_blocks``.  f(2) = 0, so the walk sieves the odd n
    only, and the running sum is taken over the odd n only: S at an even
    n is S at the odd n before it (up to the sign of a zero, and
    S(1) = 1.0 keeps the sup away from zero), so the sup is that of
    np.cumsum(values[1:]), bit for bit, without its x-entry output or an
    |S| temporary.
    """
    ladder = _check_ladder(x_ladder)
    # mu(n) folded in: f(p) = -(p-2)/(p(p-1)); the p=2 factor is 0 since
    # phi_2(2) = 0, which the formula produces on its own.
    f = _factor(lambda ps: -(ps - 2.0) / (ps * (ps - 1.0)))
    walk = _LadderWalk(f, ladder)
    top, bottom = -math.inf, math.inf
    blocks = (v[(lo + 1) % 2 :: 2] for lo, _hi, v in walk)  # the odd n, from 1
    for _lo, _hi, run in cumsum_blocks(blocks, np.float64):
        top = max(top, run.max())
        bottom = min(bottom, run.min())
    lhs = walk.sums
    sup_abs = float(max(top, -bottom))
    extras = [("sup_abs", sup_abs)]
    for i, (a, b) in enumerate(zip(lhs, lhs[1:])):
        extras.append((f"cauchy_{i}", abs(b - a)))
    return LemmaReport(
        which=2,
        x_ladder=ladder,
        lhs=lhs,
        main=tuple(0.0 for _ in ladder),
        scaled_error=lhs,
        extras=tuple(extras),
    )


# --------------------------------------------------------------------------
# Lemma 3: the sqrt(x) log^2 x sum and its leading constant


def euler_P1(p_cut: int = DEFAULT_P_CUT) -> float:
    """P(1) = prod_p (1 + c_p/p) (1 - 1/p)^3, c_p = (3p-4) sqrt(p) / ((p-1)(sqrt(p)-1)).

    The factors are 1 + 3 p^{-3/2} + O(p^-2), so the truncation tail is
    about sum_{p > p_cut} 3 p^{-3/2} ~ 6 / (sqrt(p_cut) log p_cut).
    """
    def log_bracket(ps: np.ndarray) -> tuple[np.ndarray]:
        rt = np.sqrt(ps)
        c = (3.0 * ps - 4.0) * rt / ((ps - 1.0) * (rt - 1.0))
        return (np.log((1.0 + c / ps) * (1.0 - 1.0 / ps) ** 3),)

    (logs,) = prime_sums(log_bracket, p_cut)
    return float(np.exp(logs))


def lemma3(
    x_ladder: Sequence[int],
    *,
    p_cut: int = DEFAULT_P_CUT,
) -> LemmaReport:
    """sum_{n<=x} mu^2(n) prod_{p|n} (3p-4)/((p-1)(sqrt(p)-1)).

    main = P(1) sqrt(x) log^2 x; the scaled error is
    lhs/(sqrt(x) log^2 x) - P(1), which decays only like 1/log x (the
    dropped lower-order terms are D sqrt(x) log x + E sqrt(x) with
    constants the closed form does not provide).
    """
    ladder = _check_ladder(x_ladder)
    if ladder[0] < 2:
        raise ValueError("lemma3 normalization needs x >= 2 (log^2 x > 0)")
    p1 = euler_P1(p_cut)
    f = _factor(lambda ps: (3.0 * ps - 4.0) / ((ps - 1.0) * (np.sqrt(ps) - 1.0)))
    lhs = _rung_sums(f, ladder)
    main = tuple(p1 * math.sqrt(x) * math.log(x) ** 2 for x in ladder)
    scaled = tuple(
        l / (math.sqrt(x) * math.log(x) ** 2) - p1 for l, x in zip(lhs, ladder)
    )
    return LemmaReport(
        which=3,
        x_ladder=ladder,
        lhs=lhs,
        main=main,
        scaled_error=scaled,
        params=(("p_cut", str(p_cut)),),
        extras=(("euler_P1", p1),),
    )


# --------------------------------------------------------------------------
# Lemma 4: the C_2-limit sums and the log-weighted variant


def _lemma4_factor(j: int, k: int) -> FactorFn:
    """Per-prime factors of mu(n) mu.phi((n,j)) / phi^2(n) with (n,k)=1:

    p | k -> 0 (excluded);  p | j -> +1/(p-1);  else -> -1/(p-1)^2.
    """
    return _factor(
        lambda ps: -1.0 / (ps - 1.0) ** 2,
        [(p, 1.0 / (p - 1.0)) for p in prime_divisors(j)]
        + [(p, 0.0) for p in prime_divisors(k)],
    )


def lemma4(
    j: int,
    k: int,
    x_ladder: Sequence[int],
    *,
    p_cut: int = CONST_P_CUT,
) -> LemmaReport:
    """sum_{n<=x, (n,k)=1} mu(n) mu.phi((n,j)) / phi^2(n) -> closed constant

        prod_p (1 + f(p)) = {1 - [2 not| k] mu((2,j))} C_2
            prod_{p|k, p>2} (p-1)^2/(p(p-2)) prod_{p|j, p not| k, p>2} (p-1)/(p-2),

    f the factors of ``_lemma4_factor``, over p <= p_cut and the primes of
    j and k above it.  The error is O(d(j') j' / (x phi(j'))) with j' = j*/(j*, k), so the
    scaled error (lhs - main) * x * phi(j') / (j' d(j')) should stay
    bounded along the ladder.
    """
    if j == 0:
        raise ValueError("j must be nonzero")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    ladder = _check_ladder(x_ladder)
    f = _lemma4_factor(j, k)
    main_c = _euler_limit(f, p_cut, (j, k))
    lhs = _rung_sums(f, ladder)
    main = tuple(main_c for _ in ladder)

    j_star = squarefree_kernel(j)
    j_prime, d_jp, phi_jp = _kernel_parts(j_star // math.gcd(j_star, k))
    scaled = tuple(
        (l - main_c) * x * phi_jp / (j_prime * d_jp) for l, x in zip(lhs, ladder)
    )
    return LemmaReport(
        which=4,
        x_ladder=ladder,
        lhs=lhs,
        main=main,
        scaled_error=scaled,
        params=(("j", str(j)), ("k", str(k)), ("p_cut", str(p_cut))),
        extras=(("main_constant", main_c), ("j_prime", float(j_prime))),
    )


def _sum_logp_p_pminus2(p_cut: int) -> float:
    """sum over odd primes p <= p_cut of log p / (p (p-2)); tail O(log p_cut / p_cut).
    At the default CONST_P_CUT it is the pinned literal of the same bits."""
    if p_cut == CONST_P_CUT:
        return LOGP_P_PMINUS2_SUM
    (total,) = prime_sums(lambda ps: (np.log(ps) / (ps * (ps - 2.0)),), p_cut, above=2)
    return total


def lemma4_log(
    j: int,
    x_ladder: Sequence[int],
    *,
    p_cut: int = CONST_P_CUT,
) -> LemmaReport:
    """-sum_{n<=x} mu(n) mu.phi((n,j)) log n / phi^2(n) against its limit:

        2 | j:  S_2(j) [ sum_{p not| j} log p/(p(p-2)) - sum_{p|j} log p/p ],
        2 not| j:  S_2(2j) * (log 2)/2.

    The error is O(j* d(j*) log 2x / (phi(j*) x)); the scaled error divides
    it out and should stay bounded.  p_cut truncates the prime sum only:
    S_2 is truncated at DEFAULT_P_CUT whatever p_cut is (at 10**7, S_2(2)
    would move by 6.2e-8 relative, past the 1e-9 to which the benchmark's
    oracle holds this cell).
    """
    if j == 0:
        raise ValueError("j must be nonzero")
    ladder = _check_ladder(x_ladder)
    x_max = ladder[-1]
    jp = prime_divisors(j)
    if j % 2 == 0:
        s2j = singular_Sn(2, j).value
        base = _sum_logp_p_pminus2(p_cut)
        for p in jp:
            if p > 2:
                base -= math.log(p) / (p * (p - 2.0))
        base -= math.fsum(math.log(p) / p for p in jp)
        main_c = s2j * base
    else:
        main_c = singular_Sn(2, 2 * j).value * (math.log(2.0) / 2.0)
    main = tuple(main_c for _ in ladder)

    vals = multiplicative_values(_lemma4_factor(j, 1), x_max)
    # log n in place in one array; log 1 = 0 stands in at n = 0
    logn = np.arange(x_max + 1, dtype=np.float64)
    logn[0] = 1.0
    np.log(logn, out=logn)
    logn[0] = 0.0
    lhs = tuple(-float(np.dot(vals[: x + 1], logn[: x + 1])) for x in ladder)

    j_star, d_js, phi_js = _kernel_parts(j)
    scaled = tuple(
        (l - main_c) * x * phi_js / (j_star * d_js * math.log(2.0 * x))
        for l, x in zip(lhs, ladder)
    )
    return LemmaReport(
        which=4,
        x_ladder=ladder,
        lhs=lhs,
        main=main,
        scaled_error=scaled,
        params=(("j", str(j)), ("p_cut", str(p_cut)), ("variant", "log")),
        extras=(("main_constant", main_c),),
    )


# --------------------------------------------------------------------------
# Lemma 5: the twisted divisor-weight sum


def _lemma5_generic(ps: np.ndarray) -> np.ndarray:
    # p = 2 divides by zero here; its factor is always overridden
    with np.errstate(divide="ignore"):
        return -2.0 / ((ps - 1.0) * (ps - 2.0))


def _lemma5_factor(J: int, k: int) -> FactorFn:
    """Per-prime factors of the weight

        mu(n) d(n)/(phi(n) phi_2(n/(n,2))) (mu/d)((n,J)) (mu/phi)((n,k))
        phi_2((n/(n,2), J)) :

    p=2 -> +1 if 2 not| k else -1;   p>2, p|k -> -1/(p-1)^2;
    p>2, p|J, p not| k -> +1/(p-1);  p>2, p not| J -> -2/((p-1)(p-2)).
    """
    return _factor(
        _lemma5_generic,
        [(p, 1.0 / (p - 1.0)) for p in prime_divisors(J) if p > 2]
        + [(p, -1.0 / (p - 1.0) ** 2) for p in prime_divisors(k) if p > 2]
        + [(2, 1.0 if k % 2 != 0 else -1.0)],
    )


def lemma5(
    J: int,
    k: int,
    x_ladder: Sequence[int],
    *,
    p_cut: int = DEFAULT_P_CUT,
) -> LemmaReport:
    """The twisted sum of ``_lemma5_factor`` weights against its Euler product

        prod_p (1 + f(p)) = 2 [2 not| k] prod_{p not| J} (1 - 2/((p-1)(p-2)))
            prod_{p|J, p>2, p not| k} (1 + 1/(p-1)) prod_{p|k, p>2} (1 - 1/(p-1)^2),

    over p <= p_cut and the primes of J and k above it; it is 0 when 2 | k
    or 3 not| J.
    Preconditions: J even and nonzero, k a positive divisor of J.  The
    error is O(x^{-1+eps}); the recorded scaled error multiplies by
    x^{0.9} (eps = 0.1) and should stay bounded.
    """
    if J == 0 or J % 2 != 0:
        raise ValueError(f"J must be even and nonzero, got {J}")
    if k < 1 or J % k != 0:
        raise ValueError(f"k must be a positive divisor of J, got k={k}, J={J}")
    ladder = _check_ladder(x_ladder)
    f = _lemma5_factor(J, k)
    main_c = _euler_limit(f, p_cut, (J, k))
    lhs = _rung_sums(f, ladder)
    main = tuple(main_c for _ in ladder)
    scaled = tuple((l - main_c) * x**0.9 for l, x in zip(lhs, ladder))
    return LemmaReport(
        which=5,
        x_ladder=ladder,
        lhs=lhs,
        main=main,
        scaled_error=scaled,
        params=(("J", str(J)), ("k", str(k)), ("p_cut", str(p_cut))),
        extras=(("main_constant", main_c),),
    )


# --------------------------------------------------------------------------
# the multiplicative log-sum identity


def mult_identity_check(n: int, f: Callable[[int], Fraction]) -> Fraction:
    """Max |coefficient difference| for the identity

        sum_{d|n} mu^2(d) f(d) log d
            = ( sum_{p|n} f(p) log p / (1 + f(p)) ) * prod_{p|n} (1 + f(p)),

    with both sides expanded as exact rational coefficient vectors of
    {log p : p | n} (squarefree d only; f multiplicative).  Returns 0 when
    the identity holds, which it must for every n != 0 with 1 + f(p) != 0.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    ps = prime_divisors(n)
    fp = {p: Fraction(f(p)) for p in ps}
    for p, v in fp.items():
        if 1 + v == 0:
            raise ValueError(f"1 + f(p) vanishes at p={p}; identity undefined")
    # LHS coefficient of log p: sum over squarefree d | n with p | d of f(d)
    lhs: dict[int, Fraction] = {p: Fraction(0) for p in ps}
    for r in range(1, len(ps) + 1):
        for sub in combinations(ps, r):
            fd = Fraction(1)
            for p in sub:
                fd *= fp[p]
            for p in sub:
                lhs[p] += fd
    prod = Fraction(1)
    for p in ps:
        prod *= 1 + fp[p]
    worst = Fraction(0)
    for p in ps:
        rhs_p = fp[p] / (1 + fp[p]) * prod
        diff = abs(lhs[p] - rhs_p)
        if diff > worst:
            worst = diff
    return worst
