"""Truncated divisor-sum approximants to the von Mangoldt function.

Two families, both parametrized by a level R >= 1 and both of the form
sum_{d | n} y_d with weights y_d supported on squarefree d <= R (0 for n <= 0):

* ``lambda_R(n) = sum_{r <= R} mu^2(r)/phi(r) * sum_{d | (r,n)} d*mu(d)``;
  collecting by d gives ``y_d = d*mu(d) * sum_{r <= R, d | r} mu^2(r)/phi(r)``
  (``build_weights``).

* ``biglambda_R(n) = sum_{d | n, d <= R} mu(d) * log(R/d)``, which equals
  log p at primes p <= R: ``y_d = mu(d) * (log R - log d)``
  (``biglambda_weights``).

``ApproximantWeights`` holds either vector and ``lambda_R_block`` tabulates
any of them over a range of n, in the dtype of the weights
(``lambda_R_range`` from n = 0).  The lambda_R weights also exist
in an exact form, every y_d an integer over one common denominator
D = lcm of the phi(r), as a numpy object array of Python ints (no
overflow), so exact values run through the same numpy code downstream and
power the rational identity checks.
``script_L(R, k) = sum_{r <= R, (r,k)=1} mu^2(r)/phi(r)`` is the sum of
Lemma 1 with the Hildebrand pair; its main term is
``lemmas.lemma1(HILDEBRAND_POLY_PAIR, k, ...).main``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .tables import ArithTables, _read_only, prime_divisors, tables_for

#: largest R for which the exact (common-denominator) weight mode is offered;
#: D = lcm of totients grows exponentially with R
EXACT_R_MAX = 2000

#: largest R of any weights: ``lambda --n 10`` peaked at 103 and 175 MB at
#: R = 10**6 and 2 * 10**6, 72 bytes per R, so ~0.75 GB here
WEIGHTS_R_MAX = 10**7


@dataclass(frozen=True)
class ApproximantWeights:
    """Divisor weights y_d of an approximant, d running over squarefree d <= R.

    ``y`` is float64, or in exact mode (``denominator`` set) an object array
    of Python ints with y_d = y[i] / denominator.  Both arrays are read-only:
    the weights cache hands one object to every caller.
    """

    R: int
    d_values: np.ndarray  # int64, ascending squarefree support
    y: np.ndarray  # float64, or object ints over denominator
    denominator: int | None = None  # D, exact mode only

    def __post_init__(self) -> None:
        _read_only(self.d_values)
        _read_only(self.y)

    @property
    def exact(self) -> bool:
        return self.denominator is not None


_weights_cache: dict[tuple[int, bool], ApproximantWeights] = {}


def _squarefree_support(R: int) -> tuple[ArithTables, np.ndarray, np.ndarray]:
    """(tables, mu[0..R] as int64, the ascending squarefree d <= R as int64);
    R > WEIGHTS_R_MAX is refused first."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > WEIGHTS_R_MAX:
        raise ValueError(f"R={R} is beyond {WEIGHTS_R_MAX}")
    tb = tables_for(R)
    mu = tb.mu[: R + 1].astype(np.int64)
    sf = np.flatnonzero(mu != 0)
    return tb, mu, sf[sf >= 1].astype(np.int64)


def build_weights(R: int, exact: bool = False) -> ApproximantWeights:
    """Construct the divisor weights of lambda_R.

    exact=True stores them instead as integers over the common denominator
    D = lcm{phi(r) : r <= R squarefree} (requires R <= 2000).
    """
    if exact and R > EXACT_R_MAX:
        raise ValueError(
            f"exact weights limited to R <= {EXACT_R_MAX} "
            "(common denominator grows exponentially)"
        )
    key = (R, exact)
    hit = _weights_cache.get(key)
    if hit is not None:
        return hit

    tb, mu, sf = _squarefree_support(R)
    phi = tb.phi[: R + 1]
    # L_d = sum over multiples r of d (non-squarefree r contribute 0)
    if exact:
        denominator = math.lcm(*(int(phi[r]) for r in sf))
        # on D * mu^2(r)/phi(r) as Python ints
        u = np.zeros(R + 1, dtype=object)
        u[sf] = [denominator // int(phi[r]) for r in sf]
        y = np.array([int(d) * int(mu[d]) * u[d::d].sum() for d in sf], dtype=object)
    else:
        denominator = None
        u = np.zeros(R + 1, dtype=np.float64)
        u[sf] = 1.0 / phi[sf]
        y = np.zeros(sf.size, dtype=np.float64)
        for i, d in enumerate(sf):
            d = int(d)
            y[i] = d * mu[d] * math.fsum(u[d::d].tolist())

    w = ApproximantWeights(R, sf, y, denominator)
    _weights_cache[key] = w
    return w


def biglambda_weights(R: int) -> ApproximantWeights:
    """The divisor weights y_d = mu(d) (log R - log d) of biglambda_R, float64."""
    _tb, mu, sf = _squarefree_support(R)
    logR = math.log(R)
    y = np.array([int(mu[d]) * (logR - math.log(d)) for d in sf.tolist()],
                 dtype=np.float64)
    return ApproximantWeights(R, sf, y)


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


# ---------------------------------------------------------------------------
# range evaluators
# ---------------------------------------------------------------------------


def lambda_R_range(n_hi: int, weights: ApproximantWeights) -> np.ndarray:
    """Array L with L[n] = sum_{d | n} y_d for 0 <= n <= n_hi (L[0] = 0), in
    the dtype of ``weights.y``: float64 approximant values, or Python ints
    D * lambda_R(n) for exact weights.  ``lambda_R_block`` over the whole
    range."""
    if n_hi < 0:
        raise ValueError(f"n_hi must be >= 0, got {n_hi}")
    return lambda_R_block(0, n_hi + 1, weights)


def lambda_R_block(lo: int, hi: int, weights: ApproximantWeights) -> np.ndarray:
    """L[i] = sum_{d | n} y_d at n = lo + i for lo <= n < hi, and 0 at
    n <= 0, in the dtype of ``weights.y``.

    One slice update per d, ascending, from 0: every n gets the same
    additions in the same order whatever block holds it, so a range taken
    block by block has the bits of one taken whole.
    """
    out = np.zeros(hi - lo, dtype=weights.y.dtype)
    first = max(lo, 1)  # the first n > 0; the multiples of d from it on
    for d, y in zip(weights.d_values.tolist(), weights.y.tolist()):
        if d >= hi:
            break
        out[first - lo + (-first) % d :: d] += y
    return out


def psi_R(x: int, weights: ApproximantWeights) -> float:
    """psi_R(x) = sum_{n <= x} sum_{d | n} y_d = sum_d y_d * floor(x/d),
    compensated, on float weights."""
    if weights.exact:
        raise ValueError("psi_R takes float weights; build with exact=False")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    counts = x // weights.d_values
    return math.fsum((weights.y * counts).tolist())


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
# script-L sums
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


def script_L_float(R: int) -> float:
    """float script_L(R) = sum_{r <= R} mu^2(r)/phi(r), the k = 1 case of
    ``script_L``, for large R (array evaluation)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    tb = tables_for(R)
    mask = tb.mu[: R + 1] != 0
    mask[0] = False
    return float(np.sum(1.0 / tb.phi[: R + 1][mask]))
