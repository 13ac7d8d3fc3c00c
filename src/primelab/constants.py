"""Pinned literals, the default Euler-product cutoffs and the prime list.

This module holds:

* pinned literals for Euler's gamma, log(2*pi) and one prime sum at the
  default cutoff;
* the default truncations ``DEFAULT_P_CUT`` and ``CONST_P_CUT`` of the
  Euler products and prime sums, whose tails the callers record;
* ``primes_up_to``, the prime list (the sieve of ``tables.eratosthenes``)
  bounded by ``tables.TABLE_MAX``; it keeps nothing between calls.  Its
  callers list the primes up to a tuple size r or a shift bound h only:
  the Euler products to p_cut stream their primes (``tables.prime_sums``).
"""

from __future__ import annotations

import numpy as np

from .tables import _check_sieve_bound, eratosthenes

# Pinned 16-digit literals (checked against math.log/mpmath in the tests).
EULER_GAMMA = 0.5772156649015329
LOG_2PI = 1.8378770664093453

#: default truncation for singular-series Euler products
DEFAULT_P_CUT = 10**6
#: default truncation for the universal prime-indexed constant sums
CONST_P_CUT = 10**7
#: sum over the odd primes p <= CONST_P_CUT of log p / (p (p - 2)), the bits
#: of ``lemmas._sum_logp_p_pminus2``'s streamed sum (equal in the tests), so
#: that the default log variant of Lemma 4 streams no primes to 10**7
LOGP_P_PMINUS2_SUM = 0.6340925259523582

def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n (n >= 0) as an int64 array, sieved afresh; n above
    ``tables.TABLE_MAX`` raises ValueError before the sieve is allocated."""
    _check_sieve_bound(n)
    return eratosthenes(n)
