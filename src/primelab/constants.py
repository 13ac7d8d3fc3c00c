"""Pinned literals, the default Euler-product cutoffs and the prime list.

This module holds:

* pinned literals for Euler's gamma, log(2*pi) and one prime sum at the
  default cutoff;
* the default truncations ``DEFAULT_P_CUT`` and ``CONST_P_CUT`` of the
  Euler products and prime sums, whose tails the callers record;
* ``primes_up_to``, the prime list (the sieve of ``tables.eratosthenes``)
  bounded by ``tables.TABLE_MAX``; it keeps nothing between calls, and
  its one large caller, ``singular._generic_bases``, caches its own
  result and takes every r it is asked for (C_n reads r = n and n - 1)
  from one sieve.
"""

from __future__ import annotations

import numpy as np

from .tables import TABLE_MAX, eratosthenes

# Pinned 16-digit literals (checked against math.log/mpmath in the tests).
EULER_GAMMA = 0.5772156649015329
LOG_2PI = 1.8378770664093453

#: default truncation for singular-series Euler products
DEFAULT_P_CUT = 10**6
#: default truncation for the universal prime-indexed constant sums
CONST_P_CUT = 10**7
#: sum over the odd primes p <= CONST_P_CUT of log p / (p (p - 2)), the bits
#: of ``lemmas._sum_logp_p_pminus2``'s sieve sum (equal in the tests), so
#: that the default log variant of Lemma 4 sieves no primes to 10**7
LOGP_P_PMINUS2_SUM = 0.6340925259523582

def primes_up_to(n: int) -> np.ndarray:
    """Return all primes <= n as an int64 array, sieved afresh.  n above
    ``tables.TABLE_MAX`` raises ValueError before the sieve is allocated."""
    if n > TABLE_MAX:
        raise ValueError(f"a prime sieve to {n} is beyond {TABLE_MAX}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return eratosthenes(n)
