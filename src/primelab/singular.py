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

where C_3 = prod_{p >= 5} (1 - 2/((p-1)(p-2))) and S_3(m) = 3*C_3 *
prod_{p | m, p >= 5} (p-2)/(p-3) when 6 | m, which covers every
m = j1*j2*(j2-j1) with 3 | m (one of j1, j2, j2-j1 is even).  For odd m with
3 | m, singular_Sn(3, m) carries (3/2)*C_3 instead, and it is 0 when 3 does
not divide m.

Values are returned as a float together with the exact rational part over
the "special" primes (p <= r or p dividing a pairwise difference), the
Euler-product cutoff p_cut, and a rigorous relative tail bound
r(r+1)/p_cut for the discarded primes.

Averages: the inclusion-exclusion transform U(j) and the remainder sums
R_r(h) = sum over distinct ordered r-tuples from [1, h] of U, r <= 3, are
the one scan.  R_1(h) = 0 identically; R_2(h) = -h log h + (2 - gamma -
log 2pi) h + smaller.  Since S(J) = sum_{K subset J} U(K), the plain tuple
average of S (~ h^r) is a binomial sum of the R_s, and the weighted average
sum_{j<h} (h-j) S_2(j), with its asymptotic main term, is half of it at
r = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_P_CUT, EULER_GAMMA, LOG_2PI, primes_up_to
from .tables import _check_sieve_bound, prime_divisors, prime_sums

#: linear coefficient in R_2(h) ~ -h log h + A h
R2_LINEAR_COEFF = 2.0 - EULER_GAMMA - LOG_2PI

#: guard for the O(h^2) scan of R_3
R3_H_MAX = 10**4


@dataclass(frozen=True)
class SingularValue:
    """A singular-series value: float total, exact special-prime part, tail info."""

    value: float
    finite_part: Fraction
    p_cut: int
    tail_bound: float  # relative bound on the discarded Euler tail


@dataclass(frozen=True)
class ShiftPattern:
    """Distinct integer shifts with positive multiplicities."""

    shifts: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.shifts) != len(self.multiplicities):
            raise ValueError("shifts and multiplicities must have equal length")
        if len(self.shifts) == 0:
            raise ValueError("pattern must contain at least one shift")
        if len(set(self.shifts)) != len(self.shifts):
            raise ValueError(f"shifts must be distinct, got {self.shifts}")
        if any(a < 1 for a in self.multiplicities):
            raise ValueError("multiplicities must be >= 1")

    @property
    def r(self) -> int:
        return len(self.shifts)

    @property
    def k(self) -> int:
        return sum(self.multiplicities)

    @classmethod
    def parse(cls, text: str) -> "ShiftPattern":
        """Parse 'shift:mult,shift:mult,...'; a bare 'shift' means mult 1."""
        shifts, mults = [], []
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if ":" in piece:
                s, m = piece.split(":", 1)
                shifts.append(int(s))
                mults.append(int(m))
            else:
                shifts.append(int(piece))
                mults.append(1)
        return cls(tuple(shifts), tuple(mults))

    def __str__(self) -> str:
        return ",".join(f"{s}:{a}" for s, a in zip(self.shifts, self.multiplicities))


class WeightedS2(NamedTuple):
    value: float
    main: float


def constant_C(n: int, p_cut: int = DEFAULT_P_CUT) -> SingularValue:
    """C_n = prod_{p not in {n-1, n}} (1 - (n-1)/((p-1)(p-n+1))), truncated.

    Only n = 2 (twin-prime constant) and n = 3 are supported; requires
    p_cut >= 5 so that the excluded primes lie below the cutoff.  The tail
    bound 2(n-1)/p_cut covers |log| of the discarded factors.

    The factor at p > n is g_n(p)/g_{n-1}(p), with g_r the generic factor
    of an r-tuple, so C_n = g_{n-1}(n) B_n / B_{n-1} with B_r the generic
    Euler product that ``singular_vector`` reads (``_generic_bases``):
    B_1 = 1 reads no primes, and C_3 takes B_3 and B_2 off one prime
    stream, so C_2 and C_3 each count the primes once and feed them once.
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


def _constant_C_value(n: int, p_cut: int) -> float:
    b_n, b_below = _generic_bases((n, n - 1), p_cut)
    return _generic_factor(n - 1, n) * b_n / b_below


@lru_cache(maxsize=64)
def _generic_bases(rs: tuple[int, ...], p_cut: int) -> tuple[float, ...]:
    """B_r = prod_{r < p <= p_cut} (1 - 1/p)^(-r) (1 - r/p) for each r of
    rs, each the exp of its own prime sum, all read off one prime stream
    (``tables.prime_sums``).  B_1 = 1.0 with no stream: each of its log
    terms, -log1p(-1/p) + log1p(-1/p), is exactly +0.0."""
    streamed = tuple(r for r in rs if r > 1)

    def logs(ps: np.ndarray) -> tuple[np.ndarray, ...]:
        with np.errstate(divide="ignore"):  # log1p(-1) at p = r, which B_r drops
            return tuple(-r * np.log1p(-1.0 / ps) + np.log1p(-r / ps) for r in streamed)

    sums = dict(zip(streamed, prime_sums(logs, p_cut, above=streamed))) if streamed else {}
    return tuple(float(np.exp(sums[r])) if r > 1 else 1.0 for r in rs)


def _check_p_cut(r: int, p_cut: int) -> None:
    """Refuse a p_cut <= r or beyond TABLE_MAX, before anything is summed."""
    if p_cut <= r:
        raise ValueError(f"p_cut must exceed the tuple size r={r}")
    _check_sieve_bound(p_cut)


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
    _check_p_cut(r, p_cut)
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
    (base,) = _generic_bases((r,), p_cut)
    value = float(finite) * base / correction
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
# range sieve of the local factors H_n
# ---------------------------------------------------------------------------


def _local_factor_range(n: int, out: np.ndarray) -> np.ndarray:
    """Multiply out[m] by H_n(m) = prod_{p | m, p > n} (p-n+1)/(p-n) for
    1 <= m < out.size, in place; out[0] is left as it is."""
    ps = primes_up_to(out.size - 1)
    for p in ps[ps > n].tolist():
        out[p::p] *= (p - n + 1.0) / (p - n)
    return out


def singular_S2_range(h: int, p_cut: int = DEFAULT_P_CUT) -> np.ndarray:
    """float64 array S with S[j] = S_2(j) for 1 <= j <= h (S[0] = 0).

    Even entries are 2*C_2 * H_2(j); odd entries are identically zero.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    out = np.zeros(h + 1, dtype=np.float64)
    out[2::2] = 2.0 * _constant_C_value(2, p_cut)
    return _local_factor_range(2, out)


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
    """sum_{j=1}^{h-1} (h - j) S_2(j) = gallagher_sum(2, h) / 2, with its
    asymptotic main term

        h^2/2 - (h log h)/2 + ((1 - gamma - log 2pi)/2) h.

    The error in the main term is O(h^(1/2+eps)).  h = 2 gives exactly 0.
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    main = h * h / 2.0 - h * math.log(h) / 2.0 + (1.0 - EULER_GAMMA - LOG_2PI) / 2.0 * h
    return WeightedS2(value=gallagher_sum(2, h, p_cut) / 2.0, main=main)


def big_R(r: int, h: int, p_cut: int = DEFAULT_P_CUT) -> float:
    """R_r(h) = sum over distinct ordered r-tuples from [1, h] of U(tuple).

    R_1(h) = 0 identically.  R_2(h) = 2 sum_{j<h} (h-j)(S_2(j) - 1) =
    -h log h + (2 - gamma - log 2pi) h + O(h^(1/2+eps)).

    R_3 scans each set x < y < z once by its differences 0 < a < b < h,
    a = y - x and b = z - x: the h - b sets with these differences share

        U((0, a, b)) = S_2(gcd(a, b)) S_3(ab(b-a)) - S_2(a) - S_2(b) - S_2(b-a) + 2,

    and each set counts 3! times, so R_3 = 6 sum (h-b) U((0, a, b)), one
    numpy row of b per a.  U is summed rather than S, as R_3 is
    conjecturally O(h^(3/2 - 1/21 + eps)) against the h^3 of the S sum.
    The scan is O(h^2) and guarded at h <= R3_H_MAX.
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    if r == 1:
        return 0.0  # U of a singleton is exactly 0
    if r not in (2, 3):
        raise ValueError(f"big_R supports r <= 3, got {r}")
    if r == 3 and h > R3_H_MAX:
        raise ValueError(f"r=3 remainder sum guarded at h <= {R3_H_MAX}")
    s2 = singular_S2_range(h - 1, p_cut=p_cut)
    if r == 2:
        j = np.arange(1, h, dtype=np.float64)
        return float(2.0 * np.sum((h - j) * (s2[1:h] - 1.0)))
    h3 = _local_factor_range(3, np.ones(h, dtype=np.float64))
    threec3 = 3.0 * _constant_C_value(3, p_cut)
    total = 0.0
    for a in range(1, h - 1):
        b = np.arange(a + 1, h)
        d = b - a
        g = np.gcd(a, b)
        # the primes of g divide a, b and b - a, so H_3(ab(b-a)) counts them
        # three times; 3 | ab(b-a) implies 6 | ab(b-a), hence the 3 C_3
        s = np.where(
            a * b * d % 3 == 0, s2[g] * threec3 * h3[a] * h3[b] * h3[d] / h3[g] ** 2, 0.0
        )
        u = s - s2[a] - s2[b] - s2[d] + 2.0
        total += float(np.dot(h - b, u))
    return 6.0 * total


def gallagher_sum(r: int, h: int, p_cut: int = DEFAULT_P_CUT) -> float:
    """sum over distinct ordered r-tuples from [1, h] of S(tuple) (~ h^r).

    S(J) = sum_{K subset J} U(K), and an s-set lies in C(r, s) s! (h-s)!/(h-r)!
    of the ordered r-tuples, so this is

        sum_{s <= min(r, h)} C(r, s) (h-s)!/(h-r)! R_s(h),  R_0 = 1, R_1 = 0.

    r = 1 returns exactly h (each singleton contributes exactly 1).
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if r not in (1, 2, 3):
        raise ValueError(f"gallagher_sum supports r in {{1, 2, 3}}, got {r}")
    total = float(math.perm(h, r))
    for s in range(2, min(r, h) + 1):
        total += math.comb(r, s) * math.perm(h - s, r - s) * big_R(s, h, p_cut)
    return total
