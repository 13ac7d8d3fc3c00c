"""Pinned literals, the prime list and the Lemma 1 pair machinery.

This module holds:

* pinned literals for Euler's gamma and log(2*pi), and the default
  Euler-product cutoffs;
* a cached prime list (numpy sieve, grow-only);
* evaluators for the Euler products and prime-log sums of Lemma 1, attached
  to a pair of monic integer polynomials (P1, P2) with deg P2 = deg P1 + 1:

      K1(P1, P2)    = prod_p ( 1 + ((p-1)*P1(p) - P2(p)) / (p*P2(p)) )
      S1(P1, P2)    = sum_p  (P2(p) - (p-2)*P1(p)) * log p / ((p-1)*(P1(p)+P2(p)))
      K2(P1, P2; k) = prod_{p|k} P2(p) / (P1(p)+P2(p))
      S2(P1, P2; k) = sum_{p|k}  P1(p) * log p / (P1(p)+P2(p))

All products/sums are truncated at a cutoff ``p_cut`` (default 10**7) and
the truncation tail is recorded by the callers.  Numerator polynomials are
combined at the *coefficient* level first (exact integer arithmetic), so
the leading-term cancellations that make these factors O(1/p^2) happen
exactly and the floating evaluation never subtracts nearly-equal large
numbers.  Products are accumulated as exp(sum(log1p(...))) with numpy's
pairwise summation, which is deterministic for a fixed input array.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

from .tables import _read_only

# Pinned 16-digit literals (checked against math.log/mpmath in the tests).
EULER_GAMMA = 0.5772156649015329
LOG_2PI = 1.8378770664093453

#: default truncation for singular-series Euler products
DEFAULT_P_CUT = 10**6
#: default truncation for the universal prime-indexed constant sums
CONST_P_CUT = 10**7

_prime_cache: dict[str, np.ndarray] = {}


def primes_up_to(n: int) -> np.ndarray:
    """Return all primes <= n as an int64 array (cached, grow-only; a
    read-only view of the cache)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    cached = _prime_cache.get("primes")
    if cached is not None and _prime_cache["limit"] >= n:
        return cached[: np.searchsorted(cached, n, side="right")]
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = _read_only(np.flatnonzero(sieve).astype(np.int64))
    _prime_cache["primes"] = primes
    _prime_cache["limit"] = int(n)
    return primes


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient tuples, low degree first, monic)
# ---------------------------------------------------------------------------


def poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_neg(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in a)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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


def check_nonvanishing(
    p1: tuple[int, ...], p2: tuple[int, ...], p_cut: int
) -> None:
    """Raise ValueError if P2(p) = 0 or (P1+P2)(p) = 0 for some prime p <= p_cut.

    These denominators appear in every factor below, so a zero anywhere in
    range makes the constants undefined.
    """
    ps = primes_up_to(p_cut).astype(np.float64)
    for name, coeffs in (("P2", p2), ("P1+P2", poly_add(p1, p2))):
        raise_at_zeros(name, coeffs, ps, poly_eval_array(coeffs, ps))


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


@lru_cache(maxsize=64)
def poly_pair_parts(
    p1: tuple[int, ...], p2: tuple[int, ...], p_cut: int
) -> tuple[float, float]:
    """Return (K1, S1) for the pair (P1, P2), truncated at p <= p_cut.

    K1 = prod_p (1 + N1(p)/(p*P2(p)))       with N1 = (X-1)*P1 - P2,
    S1 = sum_p  N2(p)*log(p)/((p-1)*(P1(p)+P2(p)))  with N2 = P2 - (X-2)*P1.

    N1 and N2 are formed by exact integer coefficient arithmetic; since
    deg P2 = deg P1 + 1 and both are monic, the leading terms cancel and
    both numerators have degree <= deg P1, making every factor 1 + O(p^-2)
    and every summand O(log p / p^2).
    """
    check_nonvanishing(p1, p2, p_cut)
    n1 = poly_add(poly_mul((-1, 1), p1), poly_neg(p2))
    n2 = poly_add(p2, poly_neg(poly_mul((-2, 1), p1)))
    ps = primes_up_to(p_cut).astype(np.float64)
    v1 = poly_eval_array(p1, ps)
    v2 = poly_eval_array(p2, ps)
    vn1 = poly_eval_array(n1, ps)
    vn2 = poly_eval_array(n2, ps)
    logp = np.log(ps)
    k1 = float(np.exp(np.sum(np.log1p(vn1 / (ps * v2)))))
    s1 = float(np.sum(vn2 * logp / ((ps - 1.0) * (v1 + v2))))
    return k1, s1


def poly_pair_k_parts(
    p1: tuple[int, ...], p2: tuple[int, ...], k_primes: tuple[int, ...]
) -> tuple[float, float]:
    """Return (K2, S2) over the given (distinct, ascending) primes of k.

    K2 is accumulated as an exact Fraction before the final float conversion;
    S2 sums P1(p)*log(p)/(P1(p)+P2(p)) in ascending-prime order.
    """
    k2 = Fraction(1)
    s2 = 0.0
    for p in k_primes:
        a = poly_eval_int(p1, p)
        b = poly_eval_int(p2, p)
        if a + b == 0 or b == 0:
            raise ValueError(f"polynomial pair degenerate at p={p}")
        k2 *= Fraction(b, a + b)
        s2 += a * math.log(p) / (a + b)
    return float(k2), s2
