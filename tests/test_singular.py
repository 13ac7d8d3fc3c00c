"""Tests for singular-series constants, values, and tuple averages.

Independent oracles: brute-force Euler products over small prime cuts,
subset-sum inclusion-exclusion for the U-transform, and the frozen
twin-prime constant to ten digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
import tracemalloc

import numpy as np
import pytest
import sympy

from primelab import (
    constant_C,
    gallagher_sum,
    singular_S2_range,
    singular_Sn,
    singular_vector,
)
from primelab.singular import (
    R2_LINEAR_COEFF,
    R3_H_MAX,
    big_R,
    product_identity_check,
    u_transform,
    weighted_S2_sum,
)
from primelab.constants import EULER_GAMMA, LOG_2PI

SEED = 20260814
TWIN_PRIME_CONSTANT = 0.6601618158468696


def brute_singular(shifts: tuple[int, ...], p_cut: int) -> float:
    """prod_p (1 - nu_p/p) (1 - 1/p)^(-k) over p <= p_cut, term by term."""
    k = len(shifts)
    product = 1.0
    for p in sympy.primerange(2, p_cut + 1):
        nu = len({s % p for s in shifts})
        product *= (1.0 - nu / p) * (1.0 - 1.0 / p) ** (-k)
    return product


class TestConstantC:
    def test_twin_prime_constant(self):
        """C_2 = prod_p>2 (1 - 1/(p-1)^2) = 0.6601618158... within truncation.

        The Euler product truncated at P carries O(1/(P log P)) error, so the
        digits are verified at p_cut = 10^7 to 4e-9 and the reported
        tail_bound must dominate the actual truncation error at both cuts.
        """
        c2 = constant_C(2)
        assert abs(c2.value - TWIN_PRIME_CONSTANT) <= c2.tail_bound
        tight = constant_C(2, p_cut=10_000_000)
        assert abs(tight.value - TWIN_PRIME_CONSTANT) < 5e-9
        assert abs(tight.value - TWIN_PRIME_CONSTANT) <= tight.tail_bound

    def test_triple_constant_matches_brute(self):
        """C_3 = prod_{p > 3} (1 - 2/((p-1)(p-2))) vs direct evaluation."""
        c3 = constant_C(3, p_cut=100_000)
        brute = 1.0
        for p in sympy.primerange(4, 100_001):
            brute *= 1.0 - 2.0 / ((p - 1.0) * (p - 2.0))
        assert abs(c3.value - brute) < 1e-12

    def test_tail_bound_shrinks(self):
        loose = constant_C(2, p_cut=10_000)
        tight = constant_C(2, p_cut=1_000_000)
        assert tight.tail_bound < loose.tail_bound
        assert abs(loose.value - tight.value) <= loose.tail_bound


    def test_one_sieve_serves_both_euler_products(self, monkeypatch):
        """C_n is a ratio of the generic products at r = n and r = n - 1,
        both taken from one prime list: one sieve per (n, p_cut)."""
        from primelab import singular
        calls = []
        real = singular.primes_up_to
        monkeypatch.setattr(singular, "primes_up_to",
                            lambda n: calls.append(n) or real(n))
        singular._generic_bases.cache_clear()
        constant_C(3, 10**5)
        assert calls == [10**5]

    @pytest.mark.parametrize("p_cut", [10**5, 10**6])
    @pytest.mark.parametrize("n", [2, 3])
    def test_values_are_the_per_r_products(self, n, p_cut):
        """C_n has the bits of g_{n-1}(n) B_n / B_{n-1}, each B_r the
        exp of one np.sum over its own primes r < p <= p_cut, as when every
        r sieved its own primes."""
        primes = np.array(list(sympy.sieve.primerange(2, p_cut + 1)), dtype=np.float64)

        def base(r):
            ps = primes[primes > r]
            return float(np.exp(np.sum(-r * np.log1p(-1.0 / ps) + np.log1p(-r / ps))))

        factor = (1.0 - 1.0 / n) ** (-(n - 1)) * (1.0 - (n - 1) / n)
        assert constant_C(n, p_cut).value == factor * base(n) / base(n - 1)


class TestSingularVector:
    def test_twin_value(self):
        """S((0, 2)) = 2 C_2 with rational finite part 2 (within truncation)."""
        sv = singular_vector((0, 2))
        assert sv.finite_part == 2
        assert abs(sv.value - 2 * TWIN_PRIME_CONSTANT) <= sv.tail_bound
        assert abs(sv.value - 2 * TWIN_PRIME_CONSTANT) < 1e-7

    def test_vanishing_iff_full_residue_class(self):
        """S(j) = 0 exactly (zero tail) iff some p has nu_p(j) = p."""
        sv = singular_vector((0, 1))  # nu_2 = 2
        assert sv.value == 0.0 and sv.tail_bound == 0.0
        sv = singular_vector((0, 1, 2))  # nu_2 = 2 already
        assert sv.value == 0.0 and sv.tail_bound == 0.0
        sv = singular_vector((0, 2, 4))  # nu_3 = 3
        assert sv.value == 0.0 and sv.tail_bound == 0.0
        sv = singular_vector((0, 2, 6))  # misses a class mod every p
        assert sv.value > 0.0

    def test_matches_brute_product(self):
        """Truncated Euler product against a term-by-term evaluation."""
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 20, size=k)}))
            sv = singular_vector(shifts, p_cut=10_000)
            brute = brute_singular(shifts, 10_000)
            assert abs(sv.value - brute) < 1e-9 * max(1.0, abs(brute)), shifts

    def test_translation_invariance(self):
        """S(j + c) = S(j): the product depends on residue classes only."""
        rng = np.random.default_rng(SEED + 1)
        for _ in range(15):
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 15, size=3)}))
            c = int(rng.integers(1, 10))
            a = singular_vector(shifts)
            b = singular_vector(tuple(s + c for s in shifts))
            assert abs(a.value - b.value) < 1e-12

    def test_single_shift_is_one(self):
        """S((j)) = 1 for any single shift (k = 1, nu_p = 1 at every p)."""
        for j in (0, 1, 7):
            sv = singular_vector((j,))
            assert sv.value == 1.0
            assert sv.finite_part == 1


class TestSingularSn:
    def test_two_point_matches_vector(self):
        rng = np.random.default_rng(SEED + 2)
        for j in rng.integers(1, 60, size=20):
            j = int(j) * (1 if j % 3 else -1)
            a = singular_Sn(2, j)
            b = singular_vector((0, abs(j)))
            assert abs(a.value - b.value) < 1e-12, j

    def test_two_point_odd_is_zero(self):
        for j in (1, 3, 5, 99):
            assert singular_Sn(2, j).value == 0.0

    def test_two_point_even_formula(self):
        """S_2(j) = 2 C_2 prod_{p | j, p > 2} (p-1)/(p-2) for even j."""
        for j, odd_primes in ((2, ()), (6, (3,)), (30, (3, 5)), (84, (3, 7))):
            expected = 2 * TWIN_PRIME_CONSTANT
            for p in odd_primes:
                expected *= (p - 1) / (p - 2)
            got = singular_Sn(2, j)
            assert abs(got.value - expected) < 1e-6, j
            assert abs(got.value - expected) <= 2 * got.tail_bound, j

    def test_three_point_factors(self):
        """S_3(j) = C_3 G_3 H_3: p/(p-1) at p in {2,3}, (p-2)/(p-3) else."""
        rng = np.random.default_rng(SEED + 3)
        c3 = constant_C(3).value
        for _ in range(12):
            j = 3 * int(rng.integers(1, 40))
            expected = c3
            for p in sympy.factorint(j):
                expected *= p / (p - 1) if p in (2, 3) else (p - 2) / (p - 3)
            assert abs(singular_Sn(3, j).value - expected) < 1e-10, j

    def test_three_point_vanishes_off_multiples(self):
        """S_3(j) = 0 unless 3 | j."""
        for j in (1, 2, 4, 44):
            assert singular_Sn(3, j).value == 0.0
        assert singular_Sn(3, 6).value > 0.0

    def test_range_matches_pointwise(self):
        vals = singular_S2_range(64)
        assert vals[0] == 0.0
        for j in range(1, 65):
            assert abs(vals[j] - singular_Sn(2, j).value) < 1e-12, j
        assert vals[1] == 0.0 and vals[3] == 0.0

    def test_product_identity(self):
        """The h_3 union-product identity holds within the tail bound."""
        rng = np.random.default_rng(SEED + 4)
        for _ in range(10):
            j1 = int(rng.integers(1, 25))
            j2 = int(rng.integers(25, 50))
            rep = product_identity_check(j1, j2)
            assert abs(rep.residual) <= max(rep.tail_bound, 1e-10), (j1, j2)


class TestUTransform:
    def test_inclusion_exclusion_brute(self):
        """U(j) = sum_{J subset j} (-1)^{|j|-|J|} S(J) against a direct sum."""
        rng = np.random.default_rng(SEED + 5)
        for _ in range(10):
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 12, size=2)}))
            if len(shifts) < 2:
                continue
            brute = 0.0
            for size in range(len(shifts) + 1):
                for sub in combinations(shifts, size):
                    s_val = 1.0 if not sub else singular_vector(sub).value
                    brute += (-1) ** (len(shifts) - size) * s_val
            assert abs(u_transform(shifts) - brute) < 1e-10, shifts

    def test_singleton_is_zero(self):
        """U((j)) = S((j)) - 1 = 0."""
        for j in (1, 4, 9):
            assert abs(u_transform((j,))) < 1e-15


class TestBigR:
    def test_r1_vanishes(self):
        """R_1(h) = sum_{j <= h} U((j)) = 0 exactly."""
        for h in (2, 17, 100):
            assert big_R(1, h) == 0.0

    def test_r2_small_h_brute(self):
        """R_2(h) against the direct double sum over distinct pairs."""
        h = 12
        brute = 0.0
        for j1 in range(1, h + 1):
            for j2 in range(1, h + 1):
                if j1 != j2:
                    brute += u_transform((j1, j2))
        assert abs(big_R(2, h) - brute) < 1e-8

    def test_r2_montgomery_soundararajan_shape(self):
        """R_2(h) ~ -h log h + (2 - gamma - log 2pi) h."""
        assert abs(R2_LINEAR_COEFF - (2 - EULER_GAMMA - LOG_2PI)) < 1e-15
        h = 500
        pred = -h * math.log(h) + R2_LINEAR_COEFF * h
        assert abs(big_R(2, h) / pred - 1) < 0.05


class TestAverages:
    def test_weighted_sum_matches_brute(self):
        """sum_{j < h} (h - j) S_2(j) built from the range evaluator."""
        h = 200
        vals = singular_S2_range(h)
        brute = sum((h - j) * vals[j] for j in range(1, h))
        got = weighted_S2_sum(h)
        assert abs(got.value - brute) < 1e-7

    def test_weighted_sum_main_term(self):
        """Main term h^2/2 - h log h / 2 + (1 - gamma - log 2pi) h / 2."""
        h = 1000
        rep = weighted_S2_sum(h)
        expected = h * h / 2 - h * math.log(h) / 2 + (1 - EULER_GAMMA - LOG_2PI) * h / 2
        assert abs(rep.main - expected) < 1e-6
        assert abs(rep.value - rep.main) <= h ** 0.6

    def test_gallagher_sum_brute(self):
        """sum over distinct ordered pairs of S((j1, j2)) vs a direct loop."""
        h = 10
        brute = 0.0
        for j1 in range(1, h + 1):
            for j2 in range(1, h + 1):
                if j1 != j2:
                    brute += singular_vector((j1, j2)).value
        assert abs(gallagher_sum(2, h) - brute) < 1e-8

    def test_gallagher_growth(self):
        """Gallagher: the r-tuple average is ~ h^r (ratio -> 1 slowly)."""
        for h in (100, 400):
            ratio = gallagher_sum(2, h) / h**2
            assert 0.7 < ratio < 1.05, (h, ratio)


class TestTripleAverages:
    @pytest.mark.parametrize("h", [3, 4, 8, 10])
    def test_r3_against_brute_sums(self, h):
        """gallagher_sum(3, h) and big_R(3, h) against the direct sums of S
        and U over the distinct ordered triples from [1, h].  Every triple in
        [1, 6] covers a full residue class mod 2 or 3, so the S sum is 0
        there and is compared with an absolute tolerance."""
        triples = list(permutations(range(1, h + 1), 3))
        s_brute = math.fsum(singular_vector(t).value for t in triples)
        u_brute = math.fsum(u_transform(t) for t in triples)
        assert gallagher_sum(3, h) == pytest.approx(s_brute, rel=1e-9, abs=1e-9)
        assert big_R(3, h) == pytest.approx(u_brute, rel=1e-9, abs=1e-9)
        if h <= 6:
            assert s_brute == 0.0

    def test_r3_guard(self):
        """h past R3_H_MAX is refused by both averages."""
        for fn in (big_R, gallagher_sum):
            with pytest.raises(ValueError, match="guarded"):
                fn(3, R3_H_MAX + 1)

    def test_r3_scan_peak_memory(self):
        """The r = 3 scan holds O(h) numbers at a time, not an h x h grid:
        its tracemalloc peak at h = 2000 stays under 1 MB once the prime
        list and the Euler products are warm."""
        big_R(3, 50)
        tracemalloc.start()
        try:
            big_R(3, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
