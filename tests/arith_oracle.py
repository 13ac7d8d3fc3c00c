"""Whole-array references for the streams of ``primelab.tables``.

The library reads Lambda and psi a block at a time and keeps no whole
array of them.  The tests compare those streams with the arrays here,
each built in one piece by a route of its own:

* ``prime_powers(n)``  the prime powers q <= n, ascending (int64), and
                       Lambda(q) (float64): the primes with np.log of each
                       and the higher powers p^e with math.log(p),
                       concatenated and sorted;
* ``psi_steps(n)``     0, then psi at each prime power: one long-double
                       np.cumsum over Lambda(q), rounded to float64;
* ``lam(n)``           the dense float64 Lambda(0..n);
* ``psi_prefix(n)``    the dense float64 psi(0..n): psi_steps repeated over
                       the gaps between the prime powers;
* ``sieved_mu(n)``     the int8 Moebius function of 0..n as the segmented
                       sieve made it when the tables stored it.

None of them reads the prime-power helpers of ``tables`` or its
``cumsum_blocks``.  The primes come from ``constants.primes_up_to``, which
the tests hold to sympy.  prime_powers and psi_steps are cached per n and
read-only, so a test that checks many prefixes builds them once.
"""

from __future__ import annotations

from functools import lru_cache
import math

import numpy as np

from primelab import tables as tables_mod
from primelab.constants import primes_up_to
from primelab.tables import _read_only


@lru_cache(maxsize=8)
def prime_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, Lambda(q)) over the prime powers q <= n, q ascending."""
    n = int(n)
    primes = primes_up_to(n)
    higher = [(p**e, math.log(p)) for p in primes[primes <= math.isqrt(n)].tolist()
              for e in range(2, n.bit_length()) if p**e <= n]
    q = np.concatenate([primes, np.array([q for q, _ in higher], dtype=np.int64)])
    logs = np.concatenate([np.log(primes.astype(np.float64)),
                           np.array([lp for _, lp in higher], dtype=np.float64)])
    order = np.argsort(q, kind="stable")
    return _read_only(q[order]), _read_only(logs[order])


@lru_cache(maxsize=8)
def psi_steps(n: int) -> np.ndarray:
    """psi_steps[i] = psi(q[i - 1]) over the prime powers q <= n, and
    psi_steps[0] = 0: psi(x) is psi_steps[number of prime powers <= x]."""
    steps = np.cumsum(prime_powers(n)[1], dtype=np.longdouble).astype(np.float64)
    return _read_only(np.concatenate([np.zeros(1), steps]))


def lam(n: int) -> np.ndarray:
    """The float64 von Mangoldt Lambda(0..n)."""
    q, logs = prime_powers(n)
    out = np.zeros(n + 1, dtype=np.float64)
    out[q] = logs
    return out


def psi_prefix(n: int) -> np.ndarray:
    """The float64 psi(0..n), psi(x) = sum_{k <= x} Lambda(k)."""
    gaps = np.diff(prime_powers(n)[0], prepend=0, append=n + 1)
    return np.repeat(psi_steps(n), gaps)


def sieved_mu(n: int) -> np.ndarray:
    """The int8 Moebius function of 0..n as the segmented sieve made it
    when the tables stored it, one segment of SIEVE_SEGMENT entries at a
    time: each prime p <= isqrt(n) with p^2 < hi negates mu at its
    multiples in [lo, hi), zeroes it at those of p^2 and multiplies an
    int32 prod by p there; a k < hi has at most one prime factor left out
    of prod, so mu is negated once more where prod != k."""
    primes = tables_mod.eratosthenes(math.isqrt(n)).tolist()
    mu = np.ones(n + 1, dtype=np.int8)
    for lo in range(0, n + 1, tables_mod.SIEVE_SEGMENT):
        hi = min(lo + tables_mod.SIEVE_SEGMENT, n + 1)
        seg = mu[lo:hi]
        prod = np.ones(hi - lo, dtype=np.int32)
        for p in reversed(primes):
            if p * p >= hi:
                continue
            first = -lo % p
            np.negative(seg[first::p], out=seg[first::p])
            np.multiply(prod[first::p], p, out=prod[first::p])
            seg[-lo % (p * p) :: p * p] = 0
        np.negative(seg, out=seg, where=prod != np.arange(lo, hi, dtype=np.int32))
    mu[:2] = (0, 1)
    return mu
