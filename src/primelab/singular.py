"""Hardy-Littlewood singular series and their averages.

For a tuple of distinct shifts j = (j_1, ..., j_r),

    S(j) = prod_p (1 - 1/p)^(-r) * (1 - nu_p(j)/p),

where nu_p(j) counts distinct residues of the shifts mod p.  S(()) = 1,
singletons give exactly 1, and S(j) = 0 exactly iff nu_p(j) = p for some p.

The two-point series has the closed form S_2(j) = 2*C_2 * prod_{p | j, p>2}
(p-1)/(p-2) for even j (0 for odd j), with the twin-prime constant
C_2 = prod_{p>2} (1 - 1/(p-1)^2) ~ 0.6601618158.  The three-point series
factors as

    S((0, j1, j2)) = S_2(gcd(j1,j2)) * S_3(j1*j2*(j2-j1)),

where S_3(m) = 3*C_3 * prod_{p | m, p >= 5} (p-2)/(p-3) when 3 | m (else 0)
and C_3 = prod_{p >= 5} (1 - 2/((p-1)(p-2))).

Values are returned as a float together with the exact rational part over
the "special" primes (p <= r or p dividing a pairwise difference), the
Euler-product cutoff p_cut, and a rigorous relative tail bound
r(r+1)/p_cut for the discarded primes.

Averages: the inclusion-exclusion transform U(j), the remainder sums
R_r(h) = sum over distinct ordered tuples of U, the weighted average
sum_{j<h} (h-j) S_2(j) with its asymptotic main term, and the plain
tuple average sum over distinct ordered tuples of S (~ h^r).  R_1(h) = 0
identically; R_2(h) = -h log h + (2 - gamma - log 2pi) h + smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_P_CUT, EULER_GAMMA, LOG_2PI, primes_up_to
from .tables import prime_divisors

#: linear coefficient in R_2(h) ~ -h log h + A h
R2_LINEAR_COEFF = 2.0 - EULER_GAMMA - LOG_2PI

#: guard for the O(h^2) pair-difference scans at r = 3
R3_H_MAX = 10**4


@dataclass(frozen=True)
class SingularValue:
    """A singular-series value: float total, exact special-prime part, tail info."""

    value: float
    finite_part: Fraction
    p_cut: int
    tail_bound: float  # relative bound on the discarded Euler tail


class WeightedS2(NamedTuple):
    value: float
    main: float


def constant_C(n: int, p_cut: int = DEFAULT_P_CUT) -> SingularValue:
    """C_n = prod_{p not in {n-1, n}} (1 - (n-1)/((p-1)(p-n+1))), truncated.

    Only n = 2 (twin-prime constant) and n = 3 are supported; requires
    p_cut >= 5 so that the excluded primes lie below the cutoff.  The tail
    bound 2(n-1)/p_cut covers |log| of the discarded factors.
    """
    if n not in (2, 3):
        raise ValueError(f"constant_C supports n in {{2, 3}}, got {n}")
    if p_cut < 5:
        raise ValueError(f"p_cut must be >= 5, got {p_cut}")
    return SingularValue(
        value=_constant_C_value(n, p_cut),
        finite_part=Fraction(1),
        p_cut=p_cut,
        tail_bound=2.0 * (n - 1) / p_cut,
    )


@lru_cache(maxsize=32)
def _constant_C_value(n: int, p_cut: int) -> float:
    ps = primes_up_to(p_cut).astype(np.float64)
    ps = ps[ps > n]  # excludes p in {n-1, n} (for n=2 also p=2=n)
    x = -(n - 1.0) / ((ps - 1.0) * (ps - n + 1.0))
    return float(np.exp(np.sum(np.log1p(x))))


@lru_cache(maxsize=64)
def _generic_base(r: int, p_cut: int) -> float:
    """prod_{r < p <= p_cut} (1 - 1/p)^(-r) (1 - r/p)."""
    ps = primes_up_to(p_cut).astype(np.float64)
    ps = ps[ps > r]
    logs = -r * np.log1p(-1.0 / ps) + np.log1p(-r / ps)
    return float(np.exp(np.sum(logs)))


def _generic_factor(r: int, p: int) -> float:
    return (1.0 - 1.0 / p) ** (-r) * (1.0 - r / p)


def singular_vector(
    shifts: tuple[int, ...] | list[int],
    p_cut: int = DEFAULT_P_CUT,
) -> SingularValue:
    """S(j) for a tuple of distinct integer shifts.

    Exact rational factors are used for every prime p <= r and every prime
    dividing a pairwise difference (even beyond p_cut); all other primes
    p <= p_cut contribute the generic factor (1-1/p)^(-r)(1-r/p).  A zero
    (nu_p = p) is detected exactly and returned with tail_bound 0.
    """
    shifts = tuple(int(s) for s in shifts)
    r = len(shifts)
    if r == 0:
        return SingularValue(1.0, Fraction(1), p_cut, 0.0)
    if len(set(shifts)) != r:
        raise ValueError(f"shifts must be distinct, got {shifts}")
    if p_cut <= r:
        raise ValueError(f"p_cut must exceed the tuple size r={r}")
    if r == 1:
        # (1 - 1/p)^(-1) (1 - 1/p) = 1 for every p
        return SingularValue(1.0, Fraction(1), p_cut, 0.0)

    special: set[int] = set(int(p) for p in primes_up_to(r))
    for i in range(r):
        for k in range(i + 1, r):
            special.update(prime_divisors(shifts[i] - shifts[k]))

    finite = Fraction(1)
    correction = 1.0
    for p in sorted(special):
        nu = len({s % p for s in shifts})
        if nu == p:
            return SingularValue(0.0, Fraction(0), p_cut, 0.0)
        # (1 - nu/p) / (1 - 1/p)^r = (p - nu) p^(r-1) / (p-1)^r
        finite *= Fraction((p - nu) * p ** (r - 1), (p - 1) ** r)
        if r < p <= p_cut:
            correction *= _generic_factor(r, p)
    value = float(finite) * _generic_base(r, p_cut) / correction
    return SingularValue(value, finite, p_cut, r * (r + 1) / p_cut)


def singular_Sn(
    n: int,
    j: int,
    p_cut: int = DEFAULT_P_CUT,
) -> SingularValue:
    """S_n(j) = C_n * G_n(j) * H_n(j) when n | j, else 0; j != 0 required.

    G_n multiplies p/(p-1) over p | j with p in {n-1, n}; H_n multiplies
    1 + 1/(p-n) over the remaining primes of j.  The sign of j is ignored.
    """
    if n not in (2, 3):
        raise ValueError(f"singular_Sn supports n in {{2, 3}}, got {n}")
    if j == 0:
        raise ValueError("singular_Sn is undefined at j = 0 (every prime divides 0)")
    c = constant_C(n, p_cut)
    if j % n != 0:
        return SingularValue(0.0, Fraction(0), p_cut, 0.0)
    gh = Fraction(1)
    for p in prime_divisors(j):
        if p in (n - 1, n):
            gh *= Fraction(p, p - 1)
        else:
            gh *= Fraction(p - n + 1, p - n)
    return SingularValue(c.value * float(gh), gh, p_cut, c.tail_bound)


@dataclass(frozen=True)
class ProductIdentityReport:
    """Both sides of S((0,j1,j2)) = S_2(gcd) * S_3(j1 j2 (j2-j1))."""

    lhs: float
    rhs: float
    residual: float
    tail_bound: float


def product_identity_check(
    j1: int, j2: int, p_cut: int = DEFAULT_P_CUT
) -> ProductIdentityReport:
    """Evaluate both sides of the three-point factorization at the same p_cut."""
    if j1 == 0 or j2 == 0 or j1 == j2:
        raise ValueError("need distinct nonzero j1, j2")
    lhs = singular_vector((0, j1, j2), p_cut=p_cut)
    g = math.gcd(j1, j2)
    m = j1 * j2 * (j2 - j1)
    s2 = singular_Sn(2, g, p_cut=p_cut)
    s3 = singular_Sn(3, m, p_cut=p_cut)
    rhs = s2.value * s3.value
    tail = lhs.tail_bound + s2.tail_bound + s3.tail_bound
    return ProductIdentityReport(
        lhs=lhs.value, rhs=rhs, residual=abs(lhs.value - rhs), tail_bound=tail
    )


# ---------------------------------------------------------------------------
# range sieve for S_2 and the h_3 multiplier table
# ---------------------------------------------------------------------------


def singular_S2_range(h: int, p_cut: int = DEFAULT_P_CUT) -> np.ndarray:
    """float64 array S with S[j] = S_2(j) for 1 <= j <= h (S[0] = 0).

    Even entries start at 2*C_2 and odd primes p <= h multiply their
    multiples by (p-1)/(p-2); odd entries are identically zero.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    c2 = _constant_C_value(2, p_cut)
    out = np.zeros(h + 1, dtype=np.float64)
    if h >= 2:
        out[2::2] = 2.0 * c2
    ps = primes_up_to(h)
    ps = ps[ps > 2]
    for p in ps.tolist():
        out[p::p] *= (p - 1.0) / (p - 2.0)
    return out


def _h3_range(h: int) -> np.ndarray:
    """h3[m] = prod_{p | m, p >= 5} (p-2)/(p-3) for 0 <= m <= h (h3[0] = 1)."""
    out = np.ones(h + 1, dtype=np.float64)
    ps = primes_up_to(h)
    ps = ps[ps >= 5]
    for p in ps.tolist():
        out[p::p] *= (p - 2.0) / (p - 3.0)
    return out


# ---------------------------------------------------------------------------
# inclusion-exclusion transform and tuple averages
# ---------------------------------------------------------------------------


def u_transform(
    shifts: tuple[int, ...] | list[int], p_cut: int = DEFAULT_P_CUT
) -> float:
    """U(j) = sum_{subsets J of j} (-1)^(|j| - |J|) S(J), with S(()) = 1.

    Singletons give exactly 0 (S of a singleton is exactly 1).
    """
    shifts = tuple(int(s) for s in shifts)
    r = len(shifts)
    if len(set(shifts)) != r:
        raise ValueError(f"shifts must be distinct, got {shifts}")
    total = 0.0
    for mask in range(1 << r):
        sub = tuple(shifts[i] for i in range(r) if mask >> i & 1)
        sign = -1.0 if (r - len(sub)) % 2 else 1.0
        total += sign * singular_vector(sub, p_cut=p_cut).value
    return total


def weighted_S2_sum(h: int, p_cut: int = DEFAULT_P_CUT) -> WeightedS2:
    """sum_{j=1}^{h-1} (h - j) S_2(j), with its asymptotic main term

        h^2/2 - (h log h)/2 + ((1 - gamma - log 2pi)/2) h.

    The error in the main term is O(h^(1/2+eps)).  h = 2 gives exactly 0.
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    s2 = singular_S2_range(h - 1, p_cut=p_cut)
    j = np.arange(h, dtype=np.float64)
    value = float(np.sum((h - j[: h]) * s2[: h]))
    main = h * h / 2.0 - h * math.log(h) / 2.0 + (1.0 - EULER_GAMMA - LOG_2PI) / 2.0 * h
    return WeightedS2(value=value, main=main)


def _pair_difference_sum(h: int, p_cut: int, subtract_lower: bool) -> float:
    """sum over ordered pairs (a, b) of distinct nonzero differences in
    (-h, h) of cnt(a, b) * W(a, b), where cnt counts the translates fitting
    in [1, h], and W is S((0,a,b)) (subtract_lower=False) or U((0,a,b))
    (subtract_lower=True, i.e. with the pair/singleton terms removed).

    This is the three-tuple average over [1, h]^3 collected by difference
    pattern; with r = 3 every ordered distinct triple (j1, j2, j3)
    contributes through (a, b) = (j2 - j1, j3 - j1).
    """
    threec3 = 3.0 * _constant_C_value(3, p_cut)
    # |a - b| reaches 2(h-1), so the index tables extend that far
    s2 = singular_S2_range(2 * h, p_cut=p_cut)
    h3 = _h3_range(2 * h)
    total = 0.0
    vals = np.arange(-(h - 1), h, dtype=np.int64)
    babs = np.abs(vals)
    chunk = max(1, 2**22 // (2 * h))
    for start in range(0, vals.size, chunk):
        a = vals[start : start + chunk]
        aa = np.abs(a)
        g = np.gcd.outer(aa, babs)
        d = np.abs(a[:, None] - vals[None, :])
        hi = np.maximum(np.maximum(a[:, None], vals[None, :]), 0)
        lo = np.minimum(np.minimum(a[:, None], vals[None, :]), 0)
        cnt = np.maximum(h - (hi - lo), 0).astype(np.float64)
        ok = (a[:, None] != 0) & (vals[None, :] != 0) & (a[:, None] != vals[None, :])
        div3 = (a[:, None] % 3 == 0) | (vals[None, :] % 3 == 0) | (d % 3 == 0)
        f = np.where(
            div3, s2[g] * threec3 * h3[aa][:, None] * h3[babs][None, :] * h3[d] / h3[g] ** 2, 0.0
        )
        w = f - s2[aa][:, None] - s2[babs][None, :] - s2[d] + 2.0 if subtract_lower else f
        total += float(np.sum(np.where(ok, cnt * w, 0.0)))
    return total


def big_R(r: int, h: int, p_cut: int = DEFAULT_P_CUT) -> float:
    """R_r(h) = sum over distinct ordered r-tuples from [1, h] of U(tuple).

    R_1(h) = 0 identically.  R_2(h) = 2 sum_{j<h} (h-j)(S_2(j) - 1) =
    -h log h + (2 - gamma - log 2pi) h + O(h^(1/2+eps)).  r = 3 runs an
    O(h^2) pair-difference scan and is guarded at h <= 10**4; its size is
    conjecturally O(h^(3/2 - 1/21 + eps)).
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    if r == 1:
        return 0.0  # U of a singleton is exactly 0
    if r == 2:
        s2 = singular_S2_range(h - 1, p_cut=p_cut)
        j = np.arange(1, h, dtype=np.float64)
        return float(2.0 * np.sum((h - j) * (s2[1:h] - 1.0)))
    if r == 3:
        if h > R3_H_MAX:
            raise ValueError(f"r=3 remainder sum guarded at h <= {R3_H_MAX}")
        return _pair_difference_sum(h, p_cut, subtract_lower=True)
    raise ValueError(f"big_R supports r <= 3, got {r}")


def gallagher_sum(r: int, h: int, p_cut: int = DEFAULT_P_CUT) -> float:
    """sum over distinct ordered r-tuples from [1, h] of S(tuple) (~ h^r).

    r = 1 returns exactly h (each singleton contributes exactly 1).
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if r == 1:
        return float(h)
    if h < 2:
        return 0.0
    if r == 2:
        s2 = singular_S2_range(h - 1, p_cut=p_cut)
        j = np.arange(1, h, dtype=np.float64)
        return float(2.0 * np.sum((h - j) * s2[1:h]))
    if r == 3:
        if h > R3_H_MAX:
            raise ValueError(f"r=3 tuple average guarded at h <= {R3_H_MAX}")
        return _pair_difference_sum(h, p_cut, subtract_lower=False)
    raise ValueError(f"gallagher_sum supports r <= 3, got {r}")
