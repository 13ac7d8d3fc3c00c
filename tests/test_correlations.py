"""Tests for correlation sums of the truncated divisor-sum approximants.

The range evaluators are checked against brute-force oracles built from
the exact Fraction-valued lambda_R_direct and the defining LambdaBig sum,
and the kernel identities are verified on random subgrids (the full
criterion grids run in the acceptance suite).
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import arith_oracle

from primelab import (
    ShiftPattern,
    lambda_R_direct,
    psi_tuple,
    s2_reduced,
    s_k,
    s_tilde_k,
    script_L,
)
from primelab.correlations import (
    c_of,
    pair_kernel,
    pair_kernel_closed,
    pair_kernel_scan,
    triple_kernel,
    triple_kernel_closed,
    triple_kernel_scan,
)
from primelab.tables import TABLE_MAX

SEED = 20260814

#: squarefree integers of up to five primes, 2310 = 2*3*5*7*11 among them
SQUAREFREE = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
                      unique=True, max_size=5).map(math.prod)
SHIFTS = st.integers(-40, 40)


def von_mangoldt(n: int) -> float:
    """Lambda(n) = log p when n = p^e, else 0."""
    fac = sympy.factorint(n)
    return math.log(min(fac)) if len(fac) == 1 else 0.0


class TestShiftPattern:
    def test_parse_roundtrip(self):
        """Bare shifts take multiplicity 1 and print in the full form."""
        for text in ("0:1,2:1", "0,2"):
            p = ShiftPattern.parse(text)
            assert str(p) == "0:1,2:1"
            assert p.shifts == (0, 2)
            assert p.multiplicities == (1, 1)
            assert p.k == 2 and p.r == 2

    def test_total_multiplicity(self):
        p = ShiftPattern.parse("0:2,3:1")
        assert p.k == 3 and p.r == 2

    def test_rejects_duplicates_and_garbage(self):
        with pytest.raises(ValueError):
            ShiftPattern.parse("0:1,0:2")
        with pytest.raises(ValueError):
            ShiftPattern.parse("")
        with pytest.raises(ValueError):
            ShiftPattern.parse("1:0")


class TestSk:
    def test_exact_against_direct_oracle(self):
        """S_k(N, j, a) = sum_n prod_i lambda_R(n + j_i)^{a_i}, Fractions."""
        rng = np.random.default_rng(SEED)
        for _ in range(6):
            N = int(rng.integers(50, 200))
            R = int(rng.integers(3, 14))
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 6, size=2)}))
            mults = tuple(int(m) for m in rng.integers(1, 3, size=len(shifts)))
            pattern = ShiftPattern(shifts, mults)
            res = s_k(N, pattern, R, exact=True)
            brute = Fraction(0)
            for n in range(1, N + 1):
                term = Fraction(1)
                for j, a in zip(shifts, mults):
                    term *= lambda_R_direct(n + j, R) ** a
                brute += term
            assert res.exact_value == brute, (N, R, pattern)
            assert abs(res.computed - float(brute)) < 1e-9 * max(1.0, abs(float(brute)))

    def test_primed_range_window(self):
        """primed_range sums over N < n <= 2N instead of n <= N."""
        N, R = 120, 8
        pattern = ShiftPattern.parse("0:1,2:1")
        res = s_k(N, pattern, R, exact=True, primed_range=True)
        brute = Fraction(0)
        for n in range(N + 1, 2 * N + 1):
            brute += (lambda_R_direct(n, R) * lambda_R_direct(n + 2, R))
        assert res.exact_value == brute

    def test_single_power_prediction_normalizes(self):
        """S_1(N, (0), (1)) = psi_R-ish sum ~ N: residual below 15%."""
        N = 10_000
        R = int(round(N ** 0.25))
        res = s_k(N, ShiftPattern((0,), (1,)), R)
        assert abs(res.normalized_residual) < 0.15

    def test_prediction_constants(self):
        """C_k(a) = 1 except the triple diagonal C_3((3)) = 3/4."""
        assert c_of((1,)) == 1.0
        assert c_of((2,)) == 1.0
        assert c_of((1, 1)) == 1.0
        assert c_of((2, 1)) == 1.0
        assert c_of((1, 1, 1)) == 1.0
        assert c_of((3,)) == 0.75
        assert c_of((2, 2)) is None and c_of((1, 1, 1, 1)) is None  # k > 3


class TestOversizeRange:
    def test_refused_before_allocating(self, monkeypatch):
        """A sum reading n beyond tables.TABLE_MAX is refused before any
        lambda_R range or table is allocated and before anything is
        sieved."""
        from primelab import approximants, correlations, tables

        def fail(*args, **kwargs):
            pytest.fail("allocated for an oversize range")

        monkeypatch.setattr(approximants, "lambda_R_range", fail)
        monkeypatch.setattr(correlations, "tables_for", fail)
        for name in ("sieve_segments", "odd_sieve_segments", "eratosthenes", "prime_blocks",
                     "build_tables", "tables_for"):
            monkeypatch.setattr(tables, name, fail)
        pair = ShiftPattern((0, 2), (1, 1))
        for call in (
            lambda: s_k(3 * 10**9, pair, 10),
            lambda: s_k(TABLE_MAX - 1, pair, 10),
            lambda: s_k(TABLE_MAX // 2 + 1, ShiftPattern((0,), (1,)), 10, primed_range=True),
            lambda: s_k(3 * 10**9, pair, 10, exact=True),
            lambda: s_tilde_k(3 * 10**9, pair, 10),
            lambda: s_tilde_k(TABLE_MAX - 1, pair, 10),
            lambda: psi_tuple(3 * 10**9, (0, 2)),
        ):
            with pytest.raises(ValueError, match="beyond"):
                call()

    @pytest.mark.parametrize("p_cut, message", [
        (TABLE_MAX + 1, "beyond"),
        (2, "p_cut must exceed the tuple size"),
    ], ids=["oversize", "tuple-size"])
    def test_bad_p_cut_refused_before_the_sum(self, monkeypatch, p_cut, message):
        """A p_cut the prediction's singular series cannot take is refused
        before the pattern is summed, by the check ``singular_vector``
        makes."""
        from primelab import correlations

        def fail(*args, **kwargs):
            pytest.fail("summed the pattern for a bad p_cut")

        monkeypatch.setattr(correlations, "_pattern_sum", fail)
        pair = ShiftPattern((0, 2), (1, 1))
        for call in (lambda: s_k(10**4, pair, 10, p_cut=p_cut),
                     lambda: s_tilde_k(10**4, pair, 10, p_cut=p_cut)):
            with pytest.raises(ValueError, match=message):
                call()


class TestSTildeK:
    def test_against_direct_oracle(self):
        """S~_k keeps lambda_R on the leading shifts and the true von
        Mangoldt Lambda on the last shift."""
        rng = np.random.default_rng(SEED + 1)
        for _ in range(5):
            N = int(rng.integers(40, 150))
            R = int(rng.integers(4, 12))
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 5, size=2)}))
            mults = (1,) * len(shifts)
            pattern = ShiftPattern(shifts, mults)
            res = s_tilde_k(N, pattern, R)
            brute = 0.0
            for n in range(1, N + 1):
                term = 1.0
                for j in shifts[:-1]:
                    term *= float(lambda_R_direct(n + j, R))
                term *= von_mangoldt(n + shifts[-1])
                brute += term
            assert abs(res.computed - brute) < 1e-7 * max(1.0, abs(brute)), (N, R, pattern)

    def test_r1_is_psi_window(self):
        """S~_1(N, (j)) = psi(N + j) - psi(j)."""
        N = 4000
        psi = arith_oracle.psi_prefix(N + 9)
        for j in (0, 2, 9):
            res = s_tilde_k(N, ShiftPattern((j,), (1,)), 10)
            expected = psi[N + j] - psi[j]
            assert abs(res.computed - expected) < 1e-9

    def test_last_multiplicity_must_be_one(self):
        with pytest.raises(ValueError):
            s_tilde_k(100, ShiftPattern((0, 2), (1, 2)), 8)


class TestLambdaPass:
    """The pattern sums read Lambda off one sieve pass per sum
    (``tables.LambdaWindows``), with the bits of the one-range reader
    ``tables.von_mangoldt`` asked afresh for every block of n."""

    @staticmethod
    def _count_passes(monkeypatch):
        from primelab import tables
        passes = []
        real = tables.odd_sieve_segments
        monkeypatch.setattr(tables, "odd_sieve_segments",
                            lambda n, start=0: passes.append((n, start)) or real(n, start))
        return passes

    @pytest.mark.parametrize("block_max", [None, 64])
    @pytest.mark.parametrize("shifts", [(0, 2), (-3, 0, 4), (-7,), (-5, -1)])
    def test_psi_tuple_sieves_once(self, monkeypatch, block_max, shifts):
        from primelab import correlations, tables
        if block_max is not None:
            monkeypatch.setattr(tables, "BLOCK_MAX", block_max)
            monkeypatch.setattr(tables, "SIEVE_SEGMENT", 96)
        N = 3 * tables.BLOCK_MAX + 11
        pattern = ShiftPattern(shifts, (1,) * len(shifts))
        per_block = correlations._pattern_sum([tables.von_mangoldt] * len(shifts), shifts,
                                              pattern.multiplicities, 1, N)
        passes = self._count_passes(monkeypatch)
        got = psi_tuple(N, shifts)
        assert passes == [(N + max(shifts), max(1 + min(shifts), 0))]
        assert np.float64(got).tobytes() == np.float64(per_block).tobytes()

    def test_far_apart_shifts_read_block_sized_windows(self, monkeypatch):
        """Shifts 10**6 apart are two runs, each read off its own sieve pass
        in windows of a block of n: psi_tuple(10**6, (0, 10**6)) allocates
        less than one float64 array over the spread (8 MB), which one window
        over both shifts took in every block, and keeps that window's bits
        (the pinned value)."""
        passes = self._count_passes(monkeypatch)
        tracemalloc.start()
        try:
            got = psi_tuple(10**6, (0, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6
        assert got.hex() == "0x1.af0aa31006bb0p+20"
        assert passes == [(10**6, 1), (2 * 10**6, 10**6 + 1)]

    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("shifts", [(0, 2), (3, -4)])
    def test_s_tilde_k_sieves_once(self, monkeypatch, primed, shifts):
        from primelab import approximants, correlations, tables
        monkeypatch.setattr(tables, "BLOCK_MAX", 64)
        N, R = 1000, 30
        pattern = ShiftPattern(shifts, (1, 1))
        lam_R = correlations._lambda_R_source(approximants.build_weights(R))
        n_lo, n_hi = (N + 1, 2 * N) if primed else (1, N)
        per_block = correlations._pattern_sum([lam_R, tables.von_mangoldt], shifts,
                                              (1, 1), n_lo, n_hi)
        passes = self._count_passes(monkeypatch)
        got = s_tilde_k(N, pattern, R, primed_range=primed).computed
        assert passes == [(n_hi + shifts[-1], max(n_lo + shifts[-1], 0))]
        assert np.float64(got).tobytes() == np.float64(per_block).tobytes()


class TestS2Reduced:
    def test_exact_formula(self):
        """N sum_{r <= R} mu(r) mu((j,r)) phi((j,r))/phi(r)^2 term by term."""
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            N = int(rng.integers(10, 1000))
            j = int(rng.integers(0, 30))
            R = int(rng.integers(2, 40))
            brute = Fraction(0)
            for r in range(1, R + 1):
                if any(e > 1 for e in sympy.factorint(r).values()):
                    continue
                g = math.gcd(j, r) if j else r
                brute += Fraction(
                    int(sympy.mobius(r)) * int(sympy.mobius(g)) * int(sympy.totient(g)),
                    int(sympy.totient(r)) ** 2,
                )
            assert s2_reduced(N, j, R) == N * brute, (N, j, R)

    def test_diagonal_is_script_L(self):
        """j = 0 collapses to N * L_1(R) via gcd(0, r) = r."""
        for N, R in ((100, 10), (999, 25)):
            assert s2_reduced(N, 0, R) == N * script_L(R)


class TestKernels:
    def test_pair_kernel_brute_matches_closed(self):
        rng = np.random.default_rng(SEED + 3)
        squarefree = [r for r in range(1, 100)
                      if all(e == 1 for e in sympy.factorint(r).values())]
        for _ in range(150):
            r1 = int(rng.choice(squarefree))
            r2 = int(rng.choice(squarefree))
            j = int(rng.integers(-12, 13))
            assert pair_kernel(r1, r2, j) == pair_kernel_closed(r1, r2, j), (r1, r2, j)

    @settings(max_examples=60, deadline=None)
    @given(r1=SQUAREFREE, r2=SQUAREFREE, same=st.booleans(), j=SHIFTS)
    @example(r1=2310, r2=1, same=True, j=0)
    @example(r1=2310, r2=1, same=True, j=-30)
    @example(r1=2310, r2=210, same=False, j=21)
    def test_property_pair_kernel_closed_is_the_divisor_sum(self, r1, r2, same, j):
        """mu(r) mu((j,r)) phi((j,r)) on the diagonal r1 = r2 = r and 0 off
        it are the literal divisor sum, for r of up to five primes."""
        r2 = r1 if same else r2
        assert pair_kernel(r1, r2, j) == pair_kernel_closed(r1, r2, j)

    def test_pair_scan_counts_no_violations(self):
        assert pair_kernel_scan(60, -6, 6) == 0

    @pytest.mark.parametrize("wrong", [
        lambda real, r1, r2, j, tb: real(r1, r1, j, tb),  # nonzero off the diagonal
        lambda real, r1, r2, j, tb: -real(r1, r2, j, tb),  # sign flipped
        lambda real, r1, r2, j, tb: real(r1, r2, j, tb) * tb.mu[np.gcd(j, r1)],  # mu((j,r))^2
    ], ids=["off-diagonal", "sign", "mu-squared"])
    def test_pair_scan_sees_a_wrong_closed_form(self, monkeypatch, wrong):
        """The scan sums the divisors literally, so a wrong closed form is
        counted as violations rather than compared with itself."""
        from primelab import correlations
        real = correlations._pair_kernel_closed
        monkeypatch.setattr(correlations, "_pair_kernel_closed",
                            lambda *args: wrong(real, *args))
        assert pair_kernel_scan(30, -4, 4) > 0

    def test_triple_kernel_brute_matches_closed(self):
        rng = np.random.default_rng(SEED + 4)
        squarefree = [a for a in range(1, 60)
                      if all(e == 1 for e in sympy.factorint(a).values())]
        for _ in range(150):
            a = int(rng.choice(squarefree))
            j1 = int(rng.integers(-6, 7))
            j2 = int(rng.integers(-6, 7))
            if j1 == j2:
                continue
            assert triple_kernel(a, j1, j2) == triple_kernel_closed(a, j1, j2), (a, j1, j2)

    @settings(max_examples=60, deadline=None)
    @given(a=SQUAREFREE, j1=SHIFTS, j2=SHIFTS, equal=st.booleans())
    @example(a=2310, j1=0, j2=0, equal=True)
    @example(a=2310, j1=35, j2=35, equal=True)
    @example(a=2310, j1=6, j2=-4, equal=False)
    def test_property_triple_kernel_closed_is_the_divisor_sum(self, a, j1, j2, equal):
        """The product over p | a of the closed factors is the literal sum
        over d, e, f | a, for a of up to five primes and shifts in
        [-40, 40], j1 = j2 included (then p | j1 - j2 always)."""
        j2 = j1 if equal else j2
        assert triple_kernel(a, j1, j2) == triple_kernel_closed(a, j1, j2)

    def test_triple_scan_counts_no_violations(self):
        assert triple_kernel_scan(40, 4) == 0

    def test_triple_scan_fetches_tables_once(self, monkeypatch):
        """The scan reads one set of tables for the whole grid, not one per
        kernel evaluation (each fetch may list and map the cache dir)."""
        from primelab import correlations
        calls = []
        real = correlations.tables_for
        monkeypatch.setattr(correlations, "tables_for",
                            lambda n: calls.append(n) or real(n))
        assert triple_kernel_scan(10, 2) == 0
        assert calls == [10]


class TestPsiTuple:
    def test_brute_force(self):
        """psi_j(N) = sum_n prod Lambda(n + j_i) against a python loop."""
        lam = arith_oracle.lam(2000 + 8)
        rng = np.random.default_rng(SEED + 5)
        for _ in range(10):
            N = int(rng.integers(50, 2000))
            shifts = tuple(sorted({int(s) for s in rng.integers(0, 8, size=2)}))
            brute = sum(float(np.prod([lam[n + j] for j in shifts]))
                        for n in range(1, N + 1))
            assert abs(psi_tuple(N, shifts) - brute) < 1e-9

    def test_single_shift_is_psi(self):
        """psi_(0)(N) = psi(N)."""
        N = 5000
        got = psi_tuple(N, (0,))
        assert abs(got - arith_oracle.psi_prefix(N)[N]) < 1e-9
