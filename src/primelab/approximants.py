"""Truncated divisor-sum approximants to the von Mangoldt function.

Two families, both parametrized by a level R >= 1:

* ``lambda_R(n) = sum_{r <= R} mu^2(r)/phi(r) * sum_{d | (r,n)} d*mu(d)``
  (0 for n <= 0).  Collecting by d this is sum_{d | n} y_d with weights
  ``y_d = d*mu(d) * sum_{r <= R, d | r} mu^2(r)/phi(r)``, supported on
  squarefree d <= R, which is what the range/prefix evaluators use.

* ``biglambda_R(n) = sum_{d | n, d <= R} mu(d) * log(R/d)`` (0 for n <= 0),
  which equals log p at primes p <= R.

Weights exist in a float64 form for large R and in an exact form where
every y_d is an integer over one common denominator D = lcm of the phi(r)
(Python ints, no overflow); the exact form powers the rational identity
checks.  Both forms tabulate through one divisor scatter: float64 arrays
for the float form, numpy object arrays of Python ints for the exact one,
so exact values run through the same numpy code downstream.
``script_L(R, k) = sum_{r <= R, (r,k)=1} mu^2(r)/phi(r)`` comes
with its truncated main term (via the shared constants machinery, so the
value agrees bit-for-bit with the general lemma evaluator specialized to
the same polynomial pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import constants
from .constants import CONST_P_CUT, EULER_GAMMA, HILDEBRAND_PAIR
from .tables import prime_divisors, squarefree_divisors, tables_for

#: largest R for which the exact (common-denominator) weight mode is offered;
#: D = lcm of totients grows exponentially with R
EXACT_R_MAX = 2000


@dataclass(frozen=True)
class ApproximantWeights:
    """Divisor weights y_d of lambda_R, d running over squarefree d <= R."""

    R: int
    d_values: np.ndarray  # int64, ascending squarefree support
    y_float: np.ndarray  # float64 weights
    denominator: int | None = None  # D with y_d = y_int/D exactly (exact mode)
    y_int: tuple[int, ...] | None = None

    @property
    def exact(self) -> bool:
        return self.y_int is not None


_weights_cache: dict[tuple[int, bool], ApproximantWeights] = {}


def build_weights(R: int, exact: bool = False) -> ApproximantWeights:
    """Construct the divisor weights of lambda_R.

    exact=True also stores integer-scaled weights over the common
    denominator D = lcm{phi(r) : r <= R squarefree} (requires R <= 2000).
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if exact and R > EXACT_R_MAX:
        raise ValueError(
            f"exact weights limited to R <= {EXACT_R_MAX} "
            "(common denominator grows exponentially)"
        )
    key = (R, exact)
    hit = _weights_cache.get(key)
    if hit is not None:
        return hit

    tb = tables_for(R)
    mu = tb.mu[: R + 1].astype(np.int64)
    phi = tb.phi[: R + 1]
    sf = np.flatnonzero(mu != 0)
    sf = sf[sf >= 1]

    # L_d = sum over multiples r of d (non-squarefree r contribute 0)
    u = np.zeros(R + 1, dtype=np.float64)
    u[sf] = 1.0 / phi[sf]
    y_float = np.zeros(sf.size, dtype=np.float64)
    for i, d in enumerate(sf):
        d = int(d)
        y_float[i] = d * mu[d] * math.fsum(u[d::d].tolist())

    denominator = None
    y_int = None
    if exact:
        denominator = math.lcm(*(int(phi[r]) for r in sf))
        # the same sums over multiples, on D * mu^2(r)/phi(r) as Python ints
        u_int = np.zeros(R + 1, dtype=object)
        u_int[sf] = [denominator // int(phi[r]) for r in sf]
        y_int = tuple(int(d) * int(mu[d]) * u_int[d::d].sum() for d in sf)

    w = ApproximantWeights(
        R=R,
        d_values=sf.astype(np.int64),
        y_float=y_float,
        denominator=denominator,
        y_int=y_int,
    )
    _weights_cache[key] = w
    return w


# ---------------------------------------------------------------------------
# pointwise evaluators (exact oracles)
# ---------------------------------------------------------------------------


def lambda_R_direct(n: int, R: int) -> Fraction:
    """lambda_R(n) straight from the double-sum definition, as a Fraction.

    For squarefree r the inner sum over d | gcd(r, n) is prod_{p | gcd}(1-p).
    Returns 0 for n <= 0.  Independent of the weight construction; used as
    the oracle for the range evaluators.
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > EXACT_R_MAX:
        raise ValueError(f"direct evaluation limited to R <= {EXACT_R_MAX}")
    if n <= 0:
        return Fraction(0)
    tb = tables_for(R)
    total = Fraction(0)
    for r in range(1, R + 1):
        if tb.mu[r] == 0:
            continue
        g = math.gcd(r, n)
        inner = 1
        for p in prime_divisors(g):
            inner *= 1 - p
        total += Fraction(inner, int(tb.phi[r]))
    return total


def biglambda_R(n: int, R: int) -> float:
    """biglambda_R(n) = sum_{d | n, d <= R} mu(d) log(R/d); 0 for n <= 0."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if n <= 0:
        return 0.0
    ps = prime_divisors(n)
    logR = math.log(R)
    terms = []
    for d in squarefree_divisors(n):
        if d > R:
            continue
        m = (-1) ** (sum(1 for p in ps if d % p == 0))
        terms.append(m * (logR - math.log(d)))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# range evaluators
# ---------------------------------------------------------------------------


def _divisor_scatter(n_hi: int, ds, ys, dtype) -> np.ndarray:
    """Array out with out[n] = sum_{d | n} y_d for 0 <= n <= n_hi (out[0] = 0).

    One slice update per d, in the order given, so float sums round the same
    way on every call; dtype=object keeps Python ints exact.
    """
    if n_hi < 0:
        raise ValueError(f"n_hi must be >= 0, got {n_hi}")
    out = np.zeros(n_hi + 1, dtype=dtype)
    for d, y in zip(ds, ys):
        if d <= n_hi:
            out[d::d] += y
    return out


def lambda_R_range(n_hi: int, weights: ApproximantWeights) -> np.ndarray:
    """float64 array L with L[n] = lambda_R(n) for 0 <= n <= n_hi (L[0] = 0)."""
    return _divisor_scatter(
        n_hi, weights.d_values.tolist(), weights.y_float.tolist(), np.float64
    )


def lambda_R_range_exact(n_hi: int, weights: ApproximantWeights) -> np.ndarray:
    """Object array V of Python ints with V[n] = D * lambda_R(n) for
    0 <= n <= n_hi, D = weights.denominator."""
    if not weights.exact:
        raise ValueError("exact weights required; build with exact=True")
    return _divisor_scatter(n_hi, weights.d_values.tolist(), weights.y_int, object)


def biglambda_R_range(n_hi: int, R: int) -> np.ndarray:
    """float64 array B with B[n] = biglambda_R(n) for 0 <= n <= n_hi."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    tb = tables_for(min(R, n_hi))
    logR = math.log(R)
    ds, ys = [], []
    for d in range(1, min(R, n_hi) + 1):
        if tb.mu[d] != 0:
            ds.append(d)
            ys.append(int(tb.mu[d]) * (logR - math.log(d)))
    return _divisor_scatter(n_hi, ds, ys, np.float64)


def psi_R(x: int, weights: ApproximantWeights) -> float:
    """psi_R(x) = sum_{n <= x} lambda_R(n) = sum_d y_d * floor(x/d), compensated."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    counts = x // weights.d_values
    return math.fsum((weights.y_float * counts).tolist())


def sigma_phi_bound(R: int) -> Fraction:
    """Exact sum_{r <= R} mu^2(r) sigma(r)/phi(r).

    This quantity bounds the unit-interval error of replacing divisor
    counts by exact multiples in the pair/triple correlation sums (and is
    O(R); the recorded ratio to R is reported by the tests).
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    tb = tables_for(R)
    acc = Fraction(0)
    for r in range(1, R + 1):
        if tb.mu[r] == 0:
            continue
        sigma = 1
        for p in prime_divisors(r):
            sigma *= p + 1
        acc += Fraction(sigma, int(tb.phi[r]))
    return acc


# ---------------------------------------------------------------------------
# script-L sums and their truncated main term
# ---------------------------------------------------------------------------


def script_L(R: int, k: int = 1) -> Fraction:
    """Exact script_L_k(R) = sum_{r <= R, (r,k)=1} mu^2(r)/phi(r)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > EXACT_R_MAX:
        raise ValueError(f"exact script_L limited to R <= {EXACT_R_MAX}")
    if k == 0:
        raise ValueError("k must be nonzero")
    tb = tables_for(R)
    acc = Fraction(0)
    for r in range(1, R + 1):
        if tb.mu[r] != 0 and math.gcd(r, abs(k)) == 1:
            acc += Fraction(1, int(tb.phi[r]))
    return acc


def script_L_float(R: int, k: int = 1) -> float:
    """float script_L_k(R) for large R (array evaluation)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if k == 0:
        raise ValueError("k must be nonzero")
    tb = tables_for(R)
    r = np.arange(R + 1, dtype=np.int64)
    mask = tb.mu[: R + 1] != 0
    mask[0] = False
    if abs(k) > 1:
        mask &= np.gcd(r, abs(k)) == 1
    return float(np.sum(1.0 / tb.phi[: R + 1][mask]))


def hildebrand_main(x: float, k: int, p_cut: int = CONST_P_CUT) -> float:
    """Truncated main term of script_L_k(x):

        (phi(k*)/k*) * ( log x + gamma + sum_p log p/(p(p-1))
                         + sum_{p | k} log p / p ),

    with the prime sum truncated at p_cut (tail O(1/p_cut), recorded by the
    callers).  Evaluated through the generic polynomial-pair machinery with
    (P1, P2) = (1, X-1), so the shared constants agree bit-for-bit with the
    general evaluator.
    """
    if x <= 1:
        raise ValueError(f"x must be > 1, got {x}")
    if k == 0:
        raise ValueError("k must be nonzero")
    k1, s1 = constants.poly_pair_parts(*HILDEBRAND_PAIR, p_cut)
    k2, s2 = constants.poly_pair_k_parts(*HILDEBRAND_PAIR, prime_divisors(k))
    return k1 * k2 * (math.log(x) + EULER_GAMMA + s1 + s2)

