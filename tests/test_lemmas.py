"""Tests for the five mean-value lemmas and the sieved multiplicative
evaluator they share.

The evaluator is checked bit-for-bit against a naive per-n factorization
oracle; the lemma main terms are anchored to independent constants
(Hildebrand sum, twin constant, 3 C_3) and their scaled errors to frozen
desk-scale magnitudes.
"""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from primelab import (
    MonicPolyPair,
    constant_C,
    lemma1,
    lemma2,
    lemma3,
    lemma4,
    lemma4_log,
    lemma5,
    multiplicative_values,
    script_L_float,
    singular_Sn,
)
from primelab import cli
from primelab import tables as tables_mod
from primelab.constants import primes_up_to
from primelab.lemmas import (
    CUBIC_POLY_PAIR,
    HILDEBRAND_POLY_PAIR,
    _kernel_parts,
    _lemma4_factor,
    _rung_sums,
    euler_P1,
    m_of,
    mult_identity_check,
)

SEED = 20260814

#: a BLOCK_MAX that splits no block of the walks below (x <= 30_000), as
#: the default does not either; the other case, 64, splits them all
UNSPLIT = 1 << 18


def naive_mult_values(fvals: np.ndarray, x: int) -> np.ndarray:
    """v[n] = mu^2(n) prod_{p | n} fvals[p] via per-n sympy factorization."""
    out = np.zeros(x + 1)
    out[1] = 1.0
    for n in range(2, x + 1):
        fac = sympy.factorint(n)
        if any(e > 1 for e in fac.values()):
            continue
        v = 1.0
        for p in fac:
            v *= fvals[p]
        out[n] = v
    return out


def slice_sieve_mult_values(fvals: np.ndarray, x: int) -> np.ndarray:
    """The same values by slices: each prime, in ascending order, multiplies
    its multiples by fvals[p]; multiples of p^2 are then set to 0.0."""
    out = np.ones(x + 1)
    out[0] = 0.0
    primes = list(sympy.primerange(2, x + 1))
    for p in primes:
        out[p::p] *= fvals[p]
    for p in primes:
        out[p * p :: p * p] = 0.0
    return out


class TestMultiplicativeValues:
    def test_matches_naive_oracle_exactly(self):
        """The sieved evaluation is bit-for-bit equal to the per-n product
        (both multiply the same factors in ascending prime order)."""
        rng = np.random.default_rng(SEED)
        x = 3000
        for _ in range(5):
            fvals = np.zeros(x + 1)
            primes = [p for p in sympy.primerange(2, x + 1)]
            fvals[primes] = rng.normal(size=len(primes))
            got = multiplicative_values(fvals.__getitem__, x)
            expected = naive_mult_values(fvals, x)
            assert np.array_equal(got, expected)

    def test_byte_equal_to_slice_sieve(self, monkeypatch):
        """Byte-for-byte equal to the slice-sieve evaluation, signed zeros
        included: factors may be negative, +0.0 or -0.0 (excluded primes).
        Also at smaller x and with small recurrence blocks."""
        rng = np.random.default_rng(SEED + 1)
        x = 20_100
        primes = np.array(list(sympy.primerange(2, x + 1)))
        for trial in range(4):
            fvals = np.zeros(x + 1)
            fvals[primes] = rng.normal(size=primes.size)
            excluded = primes[rng.random(primes.size) < 0.2]
            fvals[excluded] = -0.0 if trial % 2 else 0.0
            fvals[2] = -0.0  # as in Lemma 2, where -(p-2)/(p(p-1)) at p = 2
            want = slice_sieve_mult_values(fvals, x)
            f = fvals.__getitem__
            got = multiplicative_values(f, x)
            assert got.tobytes() == want.tobytes()
            for top in (1, 2, 3, 1023, 1024, 1025):
                got = multiplicative_values(f, top)
                assert got.tobytes() == want[: top + 1].tobytes(), top
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        got = multiplicative_values(f, x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_max", [UNSPLIT, 64])
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        excluded_share=st.floats(0.0, 0.5),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_property_left_to_right_product(
        self, block_max, x, seed, excluded_share, zero
    ):
        """Bit for bit the pure-Python product 1.0 * f(p_1) * f(p_2) * ...
        over the primes p_1 < p_2 < ... of squarefree n (0.0 otherwise), for
        factors of either sign and excluded primes at +0.0 or -0.0."""
        rng = np.random.default_rng(seed)
        primes = list(sympy.primerange(2, x + 1))
        factors = dict(zip(primes, rng.normal(size=len(primes)).tolist()))
        for p in primes:
            if rng.random() < excluded_share:
                factors[p] = zero
        fvals = np.zeros(x + 1)
        fvals[primes] = [factors[p] for p in primes]
        want = [0.0, 1.0]
        for n in range(2, x + 1):
            v, m, p = 1.0, n, 2
            while m > 1:
                if p * p > m:
                    p = m
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        v = 0.0
                        break
                    v *= factors[p]
                p += 1
            want.append(v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", block_max)
            got = multiplicative_values(fvals.__getitem__, x)
        assert got.tobytes() == np.array(want).tobytes()

    def test_lemma2_peak_memory(self):
        """lemma2's walk and its sup of |S(t)| allocate at most 10 bytes
        per entry plus block temporaries: no x-entry factor array or
        cumsum.  The walk keeps no array over n at all, so the bound is
        loose; ``test_lemma2_allocation_slope`` holds its growth to 0.1."""
        x = 2_000_000
        tracemalloc.start()
        try:
            lemma2((1000, x))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * (x + 1) + 64 * tables_mod.BLOCK_MAX

    def test_lemma2_memory_slope(self):
        """lemma2's allocations grow by at most 7 bytes per entry between
        x = 10**6 and 4 * 10**6, where a full value array made it 10.  The
        bound dates from values and an int32 largest-prime-factor array
        kept densely up to x/2 (6 bytes per entry);
        ``test_lemma2_allocation_slope`` holds the present walk to 0.1."""
        xs = (1_000_000, 4_000_000)
        peaks = []
        for x in xs:
            tracemalloc.start()
            try:
                lemma2((10, x))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (xs[1] - xs[0]) <= 7

    def test_lemma2_allocation_slope(self):
        """lemma2's allocations grow by at most 0.1 byte per entry between
        x = 10**6 and 4 * 10**6: the walk sieves each block of BLOCK_MAX
        values on its own, reads no table and keeps none of the values, so
        only its list of sieving primes (isqrt(x) of them) and the few
        multiples of the larger ones in a block grow with x."""
        xs = (1_000_000, 4_000_000)
        peaks = []
        for x in xs:
            tracemalloc.start()
            try:
                lemma2((10, x))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (xs[1] - xs[0]) <= 0.1

    @pytest.mark.parametrize("block_max", [UNSPLIT, 64])
    def test_walk_blocks_equal_the_slice_sieve(self, monkeypatch, block_max):
        """The walk's blocks, joined, are the slice-sieve values byte for
        byte, at x on either side of the square of a sieving prime and of
        block edges.  With BLOCK_MAX = 64 the primes up to 7 take strided
        slices and the larger ones np.multiply.at; with UNSPLIT the split
        is at 512, so 521**2 +- 1 reaches the second phase there too."""
        from primelab import lemmas

        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        xs = {p * p + d for p in (2, 7, 11, 13, 521) for d in (-1, 0, 1)}
        xs |= {m * block_max + d for m in (1, 2) for d in (-1, 0, 1)}
        rng = np.random.default_rng(SEED + 2)
        top = max(xs)
        fvals = rng.normal(size=top + 1)
        fvals[rng.random(top + 1) < 0.2] = -0.0
        want = slice_sieve_mult_values(fvals, top)
        for x in sorted(xs):
            edges, blocks = [0], []
            for lo, hi, v in lemmas._walk(fvals.__getitem__, x):
                assert lo == edges[-1] and 0 < hi - lo <= block_max, (x, lo, hi)
                edges.append(hi)
                blocks.append(v.copy())
            assert edges[-1] == x + 1, x
            got = np.concatenate(blocks)
            assert got.tobytes() == want[: x + 1].tobytes(), x

    def test_walk_block_temporaries_stay_small(self):
        """A walk's block work is bounded: beyond its fixed buffers (13
        bytes per block entry, for v, prod and the p^2 marks) and its wheel
        period (12 bytes per entry of 30030), a walk over four blocks holds
        at most eight 64 KiB temporaries at once, where temporaries over
        whole blocks (256-512 KiB each) took more."""
        f = _lemma4_factor(6, 35)
        block = tables_mod.BLOCK_MAX
        tracemalloc.start()
        try:
            _rung_sums(f, (4 * block,))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 13 * block - 12 * 30030 <= 8 * 64 * 1024

    @pytest.mark.parametrize("block_max", [64, 30029, 30031, 1 << 16])
    def test_wheel_blocks_equal_the_slice_sieve(self, monkeypatch, block_max):
        """Each block starts from the wheel's period at lo mod its length,
        and the blocks are the per-prime slice values byte for byte (as
        int64, so the sign of a zero counts): blocks of 30029 and 30031
        entries start on either side of the multiples of 30030, x < 169
        sieves with fewer than the six wheel primes, and with BLOCK_MAX = 64
        the wheel stops at 7."""
        from primelab import lemmas

        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        rng = np.random.default_rng(SEED + 3)
        top = 3 * 30030 + 7
        fvals = rng.normal(size=top + 1)
        fvals[rng.random(top + 1) < 0.2] = -0.0
        want = slice_sieve_mult_values(fvals, top).view(np.int64)
        for x in (*range(1, 13), 168, 169, 170, 30029, 30030, 30031, 60061, top):
            got = np.concatenate([v.copy() for _lo, _hi, v in lemmas._walk(fvals.__getitem__, x)])
            assert np.array_equal(got.view(np.int64), want[: x + 1]), (block_max, x)

    @pytest.mark.parametrize("block_max", [UNSPLIT, 64])
    def test_factor_function_sees_every_prime_and_only_primes(
        self, monkeypatch, block_max
    ):
        """A spy factor function receives only primes <= x, and every prime
        <= x at least once, on both sides of squares and block edges."""
        from primelab import lemmas

        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        for x in (1, 2, 3, 48, 49, 50, 127, 128, 129, 20_000):
            seen = []

            def spy(ps):
                seen.append(np.asarray(ps).copy())
                return np.ones(len(ps))

            for _block in lemmas._walk(spy, x):
                pass
            got = np.concatenate(seen).astype(np.int64)
            assert set(got.tolist()) == set(sympy.primerange(2, x + 1)), x

    def test_walk_reads_no_tables(self, monkeypatch):
        """The walk marks the n that are not squarefree itself: with the
        table provider and both its sources failing, every lemma still
        runs."""

        def fail(*args, **kwargs):
            pytest.fail("a lemma asked for tables")

        for name in ("tables_for", "load_tables", "build_tables"):
            monkeypatch.setattr(tables_mod, name, fail)
        ladder = (10, 1000, 20_000)
        for call in (
            lambda: lemma1(HILDEBRAND_POLY_PAIR, 6, ladder, p_cut=10**4),
            lambda: lemma2(ladder),
            lambda: lemma3(ladder, p_cut=10**4),
            lambda: lemma4(6, 35, ladder, p_cut=10**4),
            lambda: lemma4_log(2, ladder, p_cut=10**4),
            lambda: lemma5(30, 10, ladder, p_cut=10**4),
        ):
            assert call().x_ladder == ladder

    @pytest.mark.parametrize("block_max", [UNSPLIT, 64])
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.one_of(st.integers(1, 300), st.integers(1, 30_000)),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 2**31), max_size=8),
    )
    def test_property_rung_sums_are_np_sum(self, block_max, x, seed, picks):
        """The rung sums taken during the walk, which keeps the values only
        up to x/2, are np.sum(values[: r + 1]) byte for byte, for rungs at
        x//2 and x//2 + 1, on block edges and either side of them, and at
        random; small x gives rungs of under 8 and of at most 128 entries
        across an edge.  This holds while numpy's pairwise summation keeps
        its rule (split after n//2 - (n//2) % 8 entries, leaves of at most
        128)."""
        rng = np.random.default_rng(seed)
        fvals = rng.normal(size=x + 1)
        fvals[rng.random(x + 1) < 0.2] = -0.0
        f = fvals.__getitem__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", block_max)
            edges = [lo for lo, _hi in tables_mod.dyadic_blocks(x)] or [2]
            rungs = {x, x // 2, x // 2 + 1}
            for pick in picks:
                edge = edges[pick % len(edges)]
                rungs |= {edge - 1, edge, edge + 1, 1 + pick % x}
            ladder = tuple(sorted(r for r in rungs if 1 <= r <= x))
            got = _rung_sums(f, ladder)
            values = multiplicative_values(f, x)
        want = [np.sum(values[: r + 1]) for r in ladder]
        assert np.array(got).tobytes() == np.array(want).tobytes(), ladder

    @pytest.mark.parametrize("block_max", [UNSPLIT, 64])
    @pytest.mark.parametrize("call", [
        lambda ladder: lemma1(HILDEBRAND_POLY_PAIR, 6, ladder, p_cut=10**4),
        lambda ladder: lemma1(CUBIC_POLY_PAIR, 1, ladder, p_cut=10**4),
        lemma2,
        lambda ladder: lemma3(ladder, p_cut=10**4),
        lambda ladder: lemma4(6, 35, ladder, p_cut=10**4),
        lambda ladder: lemma5(30, 10, ladder, p_cut=10**4),
    ], ids=["1-hildebrand", "1-cubic", "2", "3", "4", "5"])
    def test_reports_match_the_full_array(self, monkeypatch, call, block_max):
        """Each lemma's lhs is bit for bit np.sum of each rung's prefix of
        the full value array of the factor function its walk reads, and
        Lemma 2's sup_abs and cauchy_i are max |np.cumsum(values[1:])| and
        the rung differences of those sums."""
        from primelab import lemmas

        walked = []
        real = lemmas._walk

        def spy(f, x):
            walked.append(f)
            return real(f, x)

        monkeypatch.setattr(lemmas, "_walk", spy)
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        ladder = (10, 128, 129, 1000, 10_001, 20_000)
        rep = call(ladder)
        values = multiplicative_values(walked[0], ladder[-1])
        want = [float(np.sum(values[: x + 1])) for x in ladder]
        assert np.array(rep.lhs).tobytes() == np.array(want).tobytes()
        if rep.which == 2:
            extras = dict(rep.extras)
            assert extras["sup_abs"] == np.max(np.abs(np.cumsum(values[1:])))
            for i, (a, b) in enumerate(zip(want, want[1:])):
                assert extras[f"cauchy_{i}"] == abs(b - a)

    @pytest.mark.parametrize("argv", [
        ["--which", "1", "--params", "k=30"],
        ["--which", "2"],
        ["--which", "3"],
        ["--which", "4", "--params", "j=6,k=35"],
        ["--which", "4", "--params", "j=15,variant=log"],
        ["--which", "5"],
        ["--which", "5", "--params", "J=30,k=10"],
        ["--which", "4", "--params", "j=3,k=5"],
    ])
    def test_factor_functions_raise_no_warnings(self, argv, capsys):
        """The factor functions see only primes, p = 2 among them; none of
        them divides by zero or warns there."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["lemma", "--ladder", "1e3,1e4", *argv]) == 0
        capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_m_of(self):
        """m(k) = prod_{p | k} (1 + 1/sqrt(p)); m(6) = 2.6927..."""
        assert m_of(1) == 1.0
        assert abs(m_of(6) - (1 + 1 / math.sqrt(2)) * (1 + 1 / math.sqrt(3))) < 1e-15
        assert abs(m_of(6) - 2.69270526) < 1e-7

    def test_kernel_parts(self):
        """(m*, d(m*), phi(m*)), the sign of m ignored."""
        for m in (1, 2, -12, 30, 97, 360, -1001, 2 * 10007):
            star = math.prod(sympy.primefactors(m))
            assert _kernel_parts(m) == (
                star, sympy.divisor_count(star), sympy.totient(star)), m


class TestOversizeLadder:
    def test_refused_before_allocating(self, monkeypatch):
        """A top rung beyond tables.TABLE_MAX is refused before any prime
        list, sieve, prime stream or table is allocated."""
        from primelab import constants

        def fail(*args, **kwargs):
            pytest.fail("allocated for an oversize ladder")

        monkeypatch.setattr(constants, "primes_up_to", fail)
        for name in ("eratosthenes", "sieve_segments", "odd_sieve_segments", "prime_blocks",
                     "tables_for"):
            monkeypatch.setattr(tables_mod, name, fail)
        ladder = (10, tables_mod.TABLE_MAX + 1)
        for call in (
            lambda: lemma1(HILDEBRAND_POLY_PAIR, 1, ladder),
            lambda: lemma2(ladder),
            lambda: lemma3(ladder),
            lambda: lemma4(2, 1, ladder),
            lambda: lemma4_log(2, ladder),
            lambda: lemma5(6, 1, ladder),
        ):
            with pytest.raises(ValueError, match="beyond"):
                call()

    def test_oversize_p_cut_refused_before_the_walk(self, monkeypatch):
        """Each lemma evaluates its Euler-product constant before its walk,
        so a p_cut beyond tables.TABLE_MAX is refused by the prime sieve
        before the ladder is summed."""
        from primelab import lemmas

        def fail(*args, **kwargs):
            pytest.fail("walked the ladder for an oversize p_cut")

        monkeypatch.setattr(lemmas, "_walk", fail)
        ladder = (1000, 10_000)
        p_cut = tables_mod.TABLE_MAX + 1
        for call in (
            lambda: lemma1(HILDEBRAND_POLY_PAIR, 1, ladder, p_cut=p_cut),
            lambda: lemma3(ladder, p_cut=p_cut),
            lambda: lemma4(2, 1, ladder, p_cut=p_cut),
            lambda: lemma4_log(2, ladder, p_cut=p_cut),
            lambda: lemma5(6, 1, ladder, p_cut=p_cut),
        ):
            with pytest.raises(ValueError, match="prime sieve .* is beyond"):
                call()


class TestMonicPolyPair:
    def test_validates_monic(self):
        with pytest.raises(ValueError):
            MonicPolyPair((2,), (-1, 1))  # p1 not monic
        with pytest.raises(ValueError):
            MonicPolyPair((1,), (-1, 2))  # p2 not monic

    def test_nonvanishing_guard(self):
        """P2(p) = 0 at a small prime must be rejected."""
        bad = MonicPolyPair((1,), (-2, 1))  # P2(x) = x - 2 vanishes at p = 2
        with pytest.raises(ValueError, match="P2 vanishes at p=2"):
            lemma1(bad, 1, (100,), p_cut=100)
        with pytest.raises(ValueError):
            lemma1(bad, 1, (100,))
        for pair in (HILDEBRAND_POLY_PAIR, CUBIC_POLY_PAIR):
            lemma1(pair, 1, (100,), p_cut=100)


class TestLemma1:
    def test_hildebrand_lhs_is_script_L(self):
        """With P1 = 1, P2 = x - 1, k = 1 the LHS is the Hildebrand sum."""
        rep = lemma1(HILDEBRAND_POLY_PAIR, 1, (100, 2000, 10_000))
        for x, lhs in zip(rep.x_ladder, rep.lhs):
            assert abs(lhs - script_L_float(x)) < 1e-9, x

    def test_scaled_errors_bounded(self):
        """(lhs - main) sqrt(x) / m(k) stays O(1) on the ladder."""
        for k in (1, 6, 30):
            rep = lemma1(HILDEBRAND_POLY_PAIR, k, (1000, 10_000))
            for sc in rep.scaled_error:
                assert abs(sc) < 5.0, (k, rep.scaled_error)

    def test_cubic_pair_runs(self):
        rep = lemma1(CUBIC_POLY_PAIR, 1, (1000, 10_000))
        assert all(math.isfinite(v) for v in rep.lhs)
        assert all(math.isfinite(v) for v in rep.scaled_error)

    @pytest.mark.parametrize("pair, message", [
        (MonicPolyPair((1,), (-5, 1)), "P2 vanishes at p=5; constants undefined"),
        (MonicPolyPair((1,), (-6, 1)), "P1+P2 vanishes at p=5; constants undefined"),
    ], ids=["P2", "P1+P2"])
    @pytest.mark.parametrize("p_cut", [3, 10**4])
    def test_vanishing_pair_refused(self, monkeypatch, pair, message, p_cut):
        """A pair vanishing at a prime is refused, with no prime stream past
        p_cut: below p_cut by the Euler-product parts, above it by the walk."""
        limits = []
        real = tables_mod.prime_blocks
        monkeypatch.setattr(tables_mod, "prime_blocks",
                            lambda n: limits.append(n) or real(n))
        with pytest.raises(ValueError, match=re.escape(message)):
            lemma1(pair, 1, (100, 10_000), p_cut=p_cut)
        assert limits and max(limits) <= p_cut

    @pytest.mark.parametrize("p2, message", [
        ("-101:1", "P2 vanishes at p=101"),
        ("-102:1", "P1+P2 vanishes at p=101"),
    ], ids=["P2", "P1+P2"])
    def test_vanishing_at_prime_of_k_exits_3(self, p2, message, capsys):
        """A zero at a prime of k above both p_cut and the top rung is
        refused by the K_k and S_k constants, which read f there."""
        code = cli.main(["lemma", "--which", "1", "--ladder", "50",
                         "--params", f"p1=1,p2={p2},k=101", "--p-cut", "100"])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_vanishing_pair_exits_3(self, capsys):
        """The CLI maps the refusal to the precondition exit code."""
        for extra in ([], ["--p-cut", "3"]):
            code = cli.main(["lemma", "--which", "1", "--ladder", "1e2,1e3",
                             "--params", "p1=1,p2=-5:1", *extra])
            assert code == 3
            assert "P2 vanishes at p=5" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [
        HILDEBRAND_POLY_PAIR,
        CUBIC_POLY_PAIR,
        MonicPolyPair((3, 1), (5, -2, 1)),
        MonicPolyPair((1, 2, 1), (7, 0, 0, 1)),
    ], ids=["hildebrand", "cubic", "X+3", "X^2+2X+1"])
    def test_constants_match_fraction_references(self, pair):
        """K1, K_k, S1 and S_k at p_cut = 1e3 against references built from
        exact Fractions of f = P1/P2: each product is rounded once, and each
        sum is the fsum of its rounded rational coefficients times log p.
        k has primes below p_cut and one (1009) above it."""
        p_cut, k = 10**3, 2 * 3 * 5 * 7 * 1009

        def f(p):
            value = lambda coeffs: sum(c * p**i for i, c in enumerate(coeffs))
            return Fraction(value(pair.p1), value(pair.p2))

        k1, s1 = Fraction(1), []
        for p in sympy.primerange(2, p_cut + 1):
            fp = f(p)
            k1 *= (1 - Fraction(1, p)) * (1 + fp)
            s1.append(float(Fraction(1, p - 1) - fp / (1 + fp)) * math.log(p))
        kk, sk = Fraction(1), []
        for p in sympy.primefactors(k):
            fp = f(p)
            kk /= 1 + fp
            sk.append(float(fp / (1 + fp)) * math.log(p))

        got = dict(lemma1(pair, k, (100,), p_cut=p_cut).extras)
        assert abs(got["K1"] / float(k1) - 1) <= 1e-14
        assert abs(got["K_k"] / float(kk) - 1) <= 1e-14
        assert abs(got["S1"] - math.fsum(s1)) <= 1e-14
        assert abs(got["S_k"] - math.fsum(sk)) <= 1e-14

    def test_coprimality_drops_terms(self):
        """k = 6 kills every n sharing a factor with 6: lhs(k=6) < lhs(k=1)."""
        r1 = lemma1(HILDEBRAND_POLY_PAIR, 1, (10_000,))
        r6 = lemma1(HILDEBRAND_POLY_PAIR, 6, (10_000,))
        assert r6.lhs[0] < r1.lhs[0]


class TestLemma2:
    def test_anchors_and_sup(self):
        """S(1) = S(2) = 1 are the extreme prefix values; sup |S| = 1."""
        rep = lemma2((1000, 10_000))
        extras = dict(rep.extras)
        assert extras["sup_abs"] == 1.0

    def test_partial_sums_shrink(self):
        """S(x) -> 0: |S| decreases along a decade-spaced ladder."""
        rep = lemma2((100, 1000, 10_000))
        mags = [abs(v) for v in rep.lhs]
        assert mags[2] < mags[1] < mags[0]

    def test_weights_definition(self):
        """S(x) = sum_{n <= x} mu^2(n) f(n), f(p) = -(p-2)/(p(p-1)), which
        auto-vanishes at p = 2; brute force at x = 200."""
        brute = 1.0  # n = 1 term
        for n in range(2, 201):
            fac = sympy.factorint(n)
            if any(e > 1 for e in fac.values()):
                continue
            term = 1.0
            for p in fac:
                term *= -(p - 2) / (p * (p - 1))
            brute += term
        rep = lemma2((200,))
        assert abs(rep.lhs[0] - brute) < 1e-12


class TestLemma3:
    def test_exact_small_anchor(self):
        """At x = 3 only n in {1, 2, 3} contribute; frozen exact value."""
        rep = lemma3((3,))
        assert abs(rep.lhs[0] - 9.243490634207287) < 1e-12

    def test_euler_product_constant(self):
        """P(1) = prod_p (1 + c_p/p)(1 - 1/p)^3 with the sqrt-weighted c_p;
        frozen value at the default cut."""
        assert abs(euler_P1(10**6) - 0.7048964292158758) < 1e-12

    def test_fit_predict_next_rung(self):
        """The scaled sum L(x)/(sqrt(x) log^2 x) approaches P(1) like
        P1 (1 + D/log x + E/log^2 x): fitting D, E on rungs (1e4, 1e5)
        predicts the 1e6 ratio to a few parts in 1e3."""
        rep = lemma3((10**4, 10**5, 10**6))
        p1 = dict(rep.extras)["euler_P1"]
        ratios = [sc + p1 for sc in rep.scaled_error]
        logs = [math.log(x) for x in rep.x_ladder]
        # solve ratios[i] = p1 (1 + D/li + E/li^2) for D, E on first two rungs
        a1, a2 = (ratios[0] / p1 - 1), (ratios[1] / p1 - 1)
        l1, l2 = logs[0], logs[1]
        E = (a1 * l1 - a2 * l2) / (1 / l1 - 1 / l2)
        D = a1 * l1 - E / l1
        predicted = p1 * (1 + D / logs[2] + E / logs[2] ** 2)
        assert abs(predicted / ratios[2] - 1) < 5e-3
        # and the approach is from above, shrinking
        assert ratios[0] > ratios[1] > ratios[2] > p1 > 0


class TestLemma4:
    def test_even_main_is_twin_series(self):
        """j = 2, k = 1: the main constant is S_2(2) = 2 C_2 up to the
        p_cut truncation of the dedicated evaluator."""
        rep = lemma4(2, 1, (10_000,))
        main_const = dict(rep.extras)["main_constant"]
        assert abs(main_const - singular_Sn(2, 2).value) < 1e-6

    def test_vanishing_when_j_shares_k(self):
        """gcd interplay: j = 3, k = 5 makes the main term vanish and the
        sum itself nearly zero."""
        rep = lemma4(3, 5, (10_000,))
        assert rep.main[0] == 0.0
        assert abs(rep.lhs[0]) < 1e-4

    def test_scaled_errors_bounded(self):
        rep = lemma4(2, 1, (1000, 10_000))
        for sc in rep.scaled_error:
            assert abs(sc) < 1.0

    def test_log_variant_even(self):
        """2 | j: lhs -> S_2(j) [sum_{p not | j} log p/(p(p-2))
        - sum_{p | j} log p / p]; at j = 6 the first sum drops p = 3 too.
        Observed agreement ~1e-7 (j = 2) and ~3e-7 (j = 6) at x = 1e6."""
        for j in (2, 6):
            rep = lemma4_log(j, (10**6,))
            assert abs(rep.lhs[0] - rep.main[0]) < 1e-6, j

    def test_log_weights(self):
        """The in-place log weights are np.log(n) for n >= 1 and 0 at n = 0,
        bit for bit: the lhs is the dot product with those weights."""
        x = 10_007
        vals = multiplicative_values(_lemma4_factor(2, 1), x)
        logn = np.zeros(x + 1)
        logn[1:] = np.log(np.arange(1, x + 1, dtype=np.float64))
        rep = lemma4_log(2, (1000, x))
        assert rep.lhs == tuple(-float(np.dot(vals[: t + 1], logn[: t + 1]))
                                for t in (1000, x))

    def test_pinned_prime_sum_is_the_sieve_sum(self, monkeypatch):
        """The literal that stands in for the prime sum at the default
        CONST_P_CUT has the bits of the sieve sum, with zero tolerance, and
        the default log variant streams no primes past DEFAULT_P_CUT."""
        from primelab import constants, lemmas

        stream = tables_mod.prime_blocks

        def capped(n):
            assert n <= constants.DEFAULT_P_CUT, n
            return stream(n)

        monkeypatch.setattr(tables_mod, "prime_blocks", capped)
        rep = lemma4_log(2, (10,))
        assert dict(rep.params)["p_cut"] == str(constants.CONST_P_CUT)
        monkeypatch.undo()
        monkeypatch.setattr(lemmas, "CONST_P_CUT", None)  # always sieve
        sieved = lemmas._sum_logp_p_pminus2(constants.CONST_P_CUT)
        assert sieved == constants.LOGP_P_PMINUS2_SUM

    def test_log_variant_odd(self):
        """2 not | j: lhs -> S_2(2j) log 2 / 2."""
        rep = lemma4_log(1, (10**6,))
        assert abs(rep.lhs[0] - rep.main[0]) < 1e-6
        expected = singular_Sn(2, 2).value * math.log(2) / 2
        assert abs(rep.main[0] - expected) < 1e-12


class TestLemma5:
    def test_main_is_three_C3(self):
        """J = 6, k = 1: the main constant equals 3 C_3."""
        rep = lemma5(6, 1, (10_000,))
        main_const = dict(rep.extras)["main_constant"]
        assert abs(main_const - 3 * constant_C(3).value) < 1e-12

    def test_converges_at_scale(self):
        """lhs approaches the main constant: relative gap < 1% at x = 1e6."""
        rep = lemma5(6, 1, (10**6,))
        assert abs(rep.lhs[0] / rep.main[0] - 1) < 0.01

    def test_zero_unless_3_divides_J_and_k_odd(self):
        """Main term vanishes when 2 | k or 3 not | J: a factor 1 + f(p) is
        0, and the constant is 0.0 exactly, with no warning raised."""
        for J, k, p_cut in ((6, 2, None), (2, 1, None), (4, 1, None), (30, 10, None),
                            (10, 5, None), (4 * 10007, 10007, 10**4)):
            kwargs = {} if p_cut is None else {"p_cut": p_cut}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = lemma5(J, k, (10_000,), **kwargs)
            assert rep.main[0] == 0.0, (J, k)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lemma5(5, 1, (1000,))  # J odd
        with pytest.raises(ValueError):
            lemma5(6, 4, (1000,))  # k does not divide J


def lemma4_reference(j: int, k: int, p_cut: int) -> float:
    """Lemma 4's constant in closed form,

        {1 - [2 not| k] mu((2,j))} C_2 prod_{p|k, p>2} (p-1)^2/(p(p-2))
            prod_{p|j, p not| k, p>2} (p-1)/(p-2),

    with C_2 over the odd primes <= p_cut and the primes of j and k above
    it, the set the lemma's Euler product runs over."""
    jp, kp = sympy.primefactors(j), sympy.primefactors(k)
    brace = 1 - (0 if 2 in kp else -1 if 2 in jp else 1)
    corr = Fraction(1)
    for p in set(jp) | set(kp):
        if p > p_cut:
            corr *= 1 - Fraction(1, (p - 1) ** 2)  # C_2's factor at p
    for p in kp:
        if p > 2:
            corr *= Fraction((p - 1) ** 2, p * (p - 2))
    for p in jp:
        if p > 2 and p not in kp:
            corr *= Fraction(p - 1, p - 2)
    return brace * constant_C(2, p_cut).value * float(corr)


def lemma5_reference(J: int, k: int, p_cut: int) -> float:
    """Lemma 5's constant in closed form,

        2 [2 not| k] prod_{p not| J} (1 - 2/((p-1)(p-2)))
            prod_{p|J, p>2, p not| k} (1 + 1/(p-1)) prod_{p|k, p>2} (1 - 1/(p-1)^2),

    over the primes <= p_cut and the primes of J and k above it."""
    Jp, kp = set(sympy.primefactors(J)), set(sympy.primefactors(k))
    if k % 2 == 0 or 3 not in Jp:
        return 0.0
    ps = np.array([p for p in sympy.primerange(3, p_cut + 1) if p not in Jp | kp],
                  dtype=np.float64)
    generic = float(np.prod(1.0 - 2.0 / ((ps - 1.0) * (ps - 2.0))))
    corr = Fraction(1)
    for p in Jp | kp:
        if p in kp and p > 2:
            corr *= 1 - Fraction(1, (p - 1) ** 2)
        elif p > 2:
            corr *= 1 + Fraction(1, p - 1)
    return 2.0 * generic * float(corr)


class TestMainConstants:
    """Lemmas 4 and 5 take their constants from the Euler product of their
    own factor functions; these check it against the closed forms."""

    P_CUT = 10**4

    @pytest.mark.parametrize("j", [1, 2, 3, 4, -6, 6, 12, 15, 30, -35, 210,
                                   10007, 2 * 10007, -6 * 20011])
    def test_lemma4_matches_closed_form(self, j):
        """Equal within 1e-12; 0.0 exactly when j and k are both odd."""
        for k in (1, 2, 3, 5, 7, 30, 10007):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = lemma4(j, k, (10,), p_cut=self.P_CUT)
            main = dict(rep.extras)["main_constant"]
            expected = lemma4_reference(j, k, self.P_CUT)
            if j % 2 != 0 and k % 2 != 0:
                assert main == 0.0 == expected, k
            else:
                assert abs(main / expected - 1) < 1e-12, (k, main, expected)

    @pytest.mark.parametrize("J, k", [
        (6, 1), (6, 3), (-6, 1), (12, 1), (30, 5), (30, 15), (66, 11),
        (210, 7), (210, 105), (606, 1), (606, 101), (6 * 10007, 10007),
        (-6 * 10007, 3 * 10007), (2 * 3 * 20011, 1),
    ])
    def test_lemma5_matches_closed_form(self, J, k):
        rep = lemma5(J, k, (10,), p_cut=self.P_CUT)
        expected = lemma5_reference(J, k, self.P_CUT)
        assert expected != 0.0
        assert abs(rep.main[0] / expected - 1) < 1e-12, (rep.main[0], expected)

    @pytest.mark.parametrize("j", [6, 30])
    def test_lemma4_log_matches_closed_form(self, j):
        """Even j with odd primes: S_2(j) [sum_{p not | j} log p/(p(p-2))
        - sum_{p | j} log p/p], the first sum over the odd primes up to
        p_cut, equal within 1e-12."""
        rep = lemma4_log(j, (10,), p_cut=self.P_CUT)
        jp = sympy.primefactors(j)
        bracket = (math.fsum(math.log(p) / (p * (p - 2))
                             for p in map(int, primes_up_to(self.P_CUT))
                             if p not in jp)
                   - math.fsum(math.log(p) / p for p in jp))
        expected = singular_Sn(2, j).value * bracket
        main = dict(rep.extras)["main_constant"]
        assert abs(main / expected - 1) < 1e-12, (main, expected)

    def test_zero_factor_at_a_special_prime(self):
        """A prime of ``special`` above p_cut enters the product after the
        streamed primes: with 1 + f = 2 there the product doubles, and with
        1 + f = 0 it is 0.0 exactly, with no warning raised."""
        from primelab.lemmas import _euler_limit, _factor
        base = _euler_limit(_factor(lambda ps: 1.0 / ps**2), 100, ())
        for value, want in ((1.0, 2 * base), (-1.0, 0.0)):
            f = _factor(lambda ps: 1.0 / ps**2, [(10007, value)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _euler_limit(f, 100, (3 * 10007,))
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), value

    def test_lemma5_keeps_the_primes_of_J_above_p_cut(self):
        """101 | 606 lies above p_cut = 100; its factor 1 + 1/100 stays in
        the product, as it does for Lemma 4 and the singular series."""
        rep = lemma5(606, 1, (10**4,), p_cut=100)
        expected = lemma5_reference(606, 1, 100)
        assert abs(rep.main[0] / expected - 1) < 1e-12
        without = lemma5(6, 1, (10**4,), p_cut=100).main[0]
        assert abs(rep.main[0] / without - 101 / 100) < 1e-12


class TestMultIdentity:
    def test_zero_for_multiplicative_f(self):
        """sum_{d | n} mu^2(d) f(d) log d equals its closed form: the
        discrepancy vector of log-p coefficients is identically zero."""
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            n = int(rng.integers(2, 2000))

            def f(p: int) -> Fraction:
                return Fraction(1, p + 1)

            assert mult_identity_check(n, f) == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            mult_identity_check(0, lambda p: Fraction(1))
        with pytest.raises(ValueError):
            # 1 + f(3) = 0 makes the closed form's denominator vanish
            mult_identity_check(15, lambda p: Fraction(-1))
