"""Tests for the sieved arithmetic tables.

Every array is checked against an independent per-n oracle built from
sympy factorizations on a seeded random sample, plus exact closed-form
anchors (pi(10^4), M(10^4), psi(10^4), ...).
"""

from __future__ import annotations

import gc
import inspect
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import arith_oracle
from arith_oracle import sieved_mu
from primelab import ArithTables, build_tables, load_tables, save_tables
from primelab import tables as tables_mod
from primelab.constants import primes_up_to
from primelab.tables import (
    FACTOR_MAX,
    PairwiseSum,
    factorize,
    prime_divisors,
    squarefree_divisors,
    squarefree_kernel,
)

SEED = 20260814
N_TRIALS = 200


def naive_mu(n: int) -> int:
    fac = sympy.factorint(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def naive_lambda(n: int) -> float:
    fac = sympy.factorint(n)
    if len(fac) == 1:
        (p, _e), = fac.items()
        return math.log(p)
    return 0.0


def streamed_psi(n: int) -> np.ndarray:
    """The dense float64 psi(0..n) read off ``psi_blocks(n)``: each block's
    steps repeated over the gaps between its prime powers."""
    return np.concatenate([np.repeat(steps, np.diff(q, prepend=lo, append=hi))
                           for lo, hi, _primes, q, _logs, steps in tables_mod.psi_blocks(n)])


def in_blocks(values: np.ndarray) -> list[np.ndarray]:
    """values cut into the slices of BLOCK_MAX entries ``cumsum_blocks`` takes."""
    step = tables_mod.BLOCK_MAX
    return [values[lo : lo + step] for lo in range(0, values.size, step)]


def _flip(raw: bytes, at: int) -> bytes:
    """raw with the lowest bit of byte ``at`` flipped."""
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]


def assert_same_tables(small: ArithTables, big: ArithTables) -> None:
    """Every array of ``small`` is byte-equal to the same prefix of ``big``."""
    n = small.n_max
    for name in ("spf", "mu", "phi"):
        a, b = getattr(small, name), getattr(big, name)[: n + 1]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name)


class TestBuildTables:
    def test_smallest_prime_factor(self, tables_small):
        """spf[n] is the least prime dividing a composite n and 0 at a prime
        n, stored as uint16 with spf[0] = 0 and spf[1] = 1."""
        spf = tables_small.spf
        assert spf.dtype == np.uint16 and spf[0] == 0 and spf[1] == 1
        rng = np.random.default_rng(SEED)
        sample = [int(n) for n in rng.integers(2, tables_small.n_max, size=N_TRIALS)]
        sample += [2, 3, 4, 20011, 139 * 139, 2 * 10007, tables_small.n_max]
        for n in sample:
            expected = 0 if sympy.isprime(n) else min(sympy.factorint(n))
            assert spf[n] == expected, (n, spf[n], expected)

    def test_table_max_factors_fit_uint16(self):
        """Every composite n <= TABLE_MAX has a prime factor <= isqrt(n),
        which uint16 spf holds."""
        assert math.isqrt(tables_mod.TABLE_MAX) < 2**16

    @pytest.mark.parametrize("segment", [7, 64, None])
    def test_segmented_sieve_is_trial_division(self, monkeypatch, segment):
        """spf and mu from segments of 7, 64 and the default 2**18 entries
        are, at every n <= 5000, the least prime factor (0 at a prime) and
        the Moebius function read off ``factorize``; and every build up to
        99 entries is a prefix of the build to 5000."""
        if segment is not None:
            monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", segment)
        n = 5000
        tb = build_tables(n)
        assert tb.spf.dtype == np.uint16 and tb.mu.dtype == np.int8
        assert (tb.spf[0], tb.spf[1], tb.mu[0], tb.mu[1]) == (0, 1, 0, 1)
        for k in range(2, n + 1):
            fac = factorize(k)
            spf = 0 if fac == [(k, 1)] else fac[0][0]
            mu = 0 if any(e > 1 for _p, e in fac) else (-1) ** len(fac)
            assert (tb.spf[k], tb.mu[k]) == (spf, mu), (segment, k)
        for m in range(2, 100):
            small = build_tables(m)
            assert small.spf.tobytes() == tb.spf[: m + 1].tobytes(), (segment, m)
            assert small.mu.tobytes() == tb.mu[: m + 1].tobytes(), (segment, m)

    @pytest.mark.parametrize("segment, n", [
        (7, 20_000), (64, 200_000), (64, 2**18 + 1), (1000, 2**18 + 1)])
    def test_segment_size_does_not_change_tables(self, monkeypatch, segment, n):
        """Lowered segment sizes, a power of two and not, give the bytes of
        the default size: at 2*10**5 and across the 2**18 edge (segments of
        7 cost one numpy step per base prime every 7 entries, so they are
        checked lower down)."""
        want = build_tables(n)
        monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", segment)
        got = build_tables(n)
        assert got.spf.tobytes() == want.spf.tobytes()
        assert got.mu.tobytes() == want.mu.tobytes()

    def test_factor_blocks_decode_least_prime(self, monkeypatch):
        """factor_blocks yields int32 k = lo..hi-1 and p = the least prime
        factor of each k, primes included (p = k there), over the dyadic
        blocks: blocks of at most 64 entries, and the default size."""
        n = 5000
        spf = build_tables(n).spf
        want = [0, 0] + [min(sympy.factorint(k)) for k in range(2, n + 1)]
        for block_max in (64, tables_mod.BLOCK_MAX):
            monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
            blocks = []
            for lo, hi, k, p in tables_mod.factor_blocks(spf):
                assert k.dtype == p.dtype == np.int32
                assert k.tolist() == list(range(lo, hi))
                assert p.tolist() == want[lo:hi], (block_max, lo)
                blocks.append((lo, hi))
            assert blocks == list(tables_mod.dyadic_blocks(n))
            assert max(hi - lo for lo, hi in blocks) == min(block_max, 2048)

    def test_primes(self, tables_small):
        """The n >= 2 with spf[n] = 0 are exactly the primes <= n_max."""
        n_max = tables_small.n_max
        primes = np.flatnonzero(tables_small.spf[2:] == 0) + 2
        assert primes.tolist() == list(sympy.primerange(2, n_max + 1))

    def test_mobius_against_factorization(self, tables_small):
        rng = np.random.default_rng(SEED + 1)
        assert tables_small.mu[1] == 1
        for n in rng.integers(2, tables_small.n_max, size=N_TRIALS):
            n = int(n)
            assert tables_small.mu[n] == naive_mu(n), n

    @pytest.mark.parametrize("n", [2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5])
    @pytest.mark.parametrize("where", ["memory", "mapped"])
    def test_derived_mu_is_the_sieved_mu(self, tmp_path, n, where):
        """mu derived from spf by the dyadic recurrence is, byte for byte,
        the mu the segmented sieve made when the tables stored it: around
        the segment edge and past three segments, in memory and from a
        saved and loaded file."""
        if where == "memory":
            tb = build_tables(n)
        else:
            save_tables(build_tables(n), tmp_path / "t.bin")
            tb = load_tables(tmp_path / "t.bin")
        assert tb.mu.dtype == np.int8 and not tb.mu.flags.writeable
        assert tb.mu.tobytes() == sieved_mu(n).tobytes()

    def test_totient_against_sympy(self, tables_small):
        rng = np.random.default_rng(SEED + 2)
        assert tables_small.phi[1] == 1
        for n in rng.integers(2, tables_small.n_max, size=N_TRIALS):
            n = int(n)
            assert tables_small.phi[n] == sympy.totient(n), n

    def test_totient_multiplicative(self, tables_small):
        """phi(mn) = phi(m) phi(n) whenever (m, n) = 1."""
        rng = np.random.default_rng(SEED + 3)
        hi = int(math.isqrt(tables_small.n_max)) - 1
        for _ in range(N_TRIALS):
            m = int(rng.integers(2, hi))
            n = int(rng.integers(2, hi))
            if math.gcd(m, n) != 1:
                continue
            assert tables_small.phi[m * n] == tables_small.phi[m] * tables_small.phi[n]

    def test_von_mangoldt(self, tables_small):
        """Lambda(n) = log p when n = p^e, else 0: the streamed range reader
        ``von_mangoldt`` and the oracle's lam both."""
        n_max = tables_small.n_max
        for lam in (tables_mod.von_mangoldt(0, n_max + 1), arith_oracle.lam(n_max)):
            rng = np.random.default_rng(SEED + 4)
            for n in rng.integers(2, n_max, size=N_TRIALS):
                n = int(n)
                assert abs(lam[n] - naive_lambda(n)) < 1e-12, n
            assert lam[1] == 0.0

    def test_psi_prefix_consistency(self, tables_small):
        """The oracle's psi_prefix[n] - psi_prefix[n-1] is the streamed
        Lambda(n), and psi_prefix[0] = 0."""
        n_max = tables_small.n_max
        psi = arith_oracle.psi_prefix(n_max)
        assert psi[0] == 0.0
        assert np.allclose(np.diff(psi), tables_mod.von_mangoldt(1, n_max + 1),
                           rtol=0, atol=1e-9)

    def test_known_anchors(self, tables_small):
        """pi(10^4) = 1229, M(10^4) = -23, Q(10^4) = 6083, psi(10^4) ~ 10013.4."""
        n = 10_000
        primes = int(np.count_nonzero(tables_small.spf[2:n + 1] == 0))
        assert primes == 1229
        assert int(tables_small.mu[1:n + 1].sum()) == -23
        assert int(np.count_nonzero(tables_small.mu[1:n + 1])) == 6083
        assert abs(streamed_psi(n)[n] - 10013.3966932631) < 1e-6

    def test_builds_are_prefixes(self):
        """build_tables(n) is an exact prefix of build_tables(m) for n < m,
        at and around the block boundaries of the recurrence."""
        big = build_tables(2 * tables_mod.BLOCK_MAX + 3)
        sizes = {2, 3}
        for b in (2**4, 2**10, tables_mod.BLOCK_MAX, 2 * tables_mod.BLOCK_MAX):
            sizes.update((b - 1, b, b + 1))
        for n in sorted(sizes):
            assert_same_tables(build_tables(n), big)

    def test_block_size_does_not_change_tables(self, monkeypatch):
        """Splitting the dyadic blocks into many small steps gives the same
        bytes as the default block size."""
        want = build_tables(5000)
        want.mu, want.phi  # derive at the default block size
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        assert_same_tables(build_tables(5000), want)

    def test_psi_prefix_is_one_extended_precision_cumsum(self):
        """psi carried from block to block by ``psi_blocks`` rounds exactly
        like one long-double cumsum over the whole Lambda array."""
        n = 2 * tables_mod.BLOCK_MAX + 3
        want = np.cumsum(arith_oracle.lam(n).astype(np.longdouble)).astype(np.float64)
        assert streamed_psi(n).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(
        st.integers(0, 30_000),
        st.sampled_from(sorted(
            p**e + d for p in sympy.primerange(2, 30_000) for e in range(1, 15)
            if p**e <= 30_000 for d in (0, 1)
        )),
    ))
    def test_property_psi_prefix_is_dense_cumsum(self, n):
        """The streamed psi repeated over the gaps between prime powers is, at
        any n (equal to or just above a prime power included), the bytes of
        one long-double cumsum over the dense streamed Lambda, rounded; and
        that Lambda is the oracle's lam."""
        lam = tables_mod.von_mangoldt(0, n + 1)
        assert lam.tobytes() == arith_oracle.lam(n).tobytes()
        want = np.cumsum(lam.astype(np.longdouble)).astype(np.float64)
        psi = streamed_psi(n)
        assert psi.tobytes() == want.tobytes()
        assert psi.size == n + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 100, 10**5, 10**6 + 3])
    def test_prime_powers_match_concatenate_and_argsort(self, n):
        """Inserting the sorted higher powers among the primes of each block
        (``_prime_power_blocks``) gives the bytes of concatenating all prime
        powers and sorting them (``arith_oracle.prime_powers``): joined over
        the blocks of ``psi_blocks(n)``, and scattered over 0..n by
        ``von_mangoldt``."""
        q, logs = arith_oracle.prime_powers(n)
        streamed = list(tables_mod.psi_blocks(n))
        for i, want in ((3, q), (4, logs)):
            joined = np.concatenate([block[i] for block in streamed])
            assert joined.dtype == want.dtype and joined.tobytes() == want.tobytes()
        lam = tables_mod.von_mangoldt(0, n + 1)
        assert np.flatnonzero(lam).tolist() == q.tolist()
        assert lam[q].tobytes() == logs.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("keep", [0, 1, 5, 100])
    def test_cumsum_blocks_carries_keep_sums(self, monkeypatch, dtype, keep):
        """With keep > 0 each block also carries the keep running sums before
        it (0 before the start), so s[keep:] - s[:-keep] are windows of keep
        terms, also when keep exceeds the block size."""
        rng = np.random.default_rng(SEED)
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        values = rng.normal(size=1000)
        want = np.concatenate([np.zeros(keep, dtype=dtype), np.cumsum(values.astype(dtype))])
        for lo, hi, run in tables_mod.cumsum_blocks(in_blocks(values), dtype, keep):
            assert run.size == keep + hi - lo
            assert np.array_equal(run, want[lo : hi + keep]), (lo, keep)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_cumsum_blocks_is_one_cumsum(self, monkeypatch, dtype):
        """The streamed running sums are np.cumsum's bits, for blocks of the
        default size and of 64 entries, at sizes around a block boundary."""
        rng = np.random.default_rng(SEED)
        for block_max in (tables_mod.BLOCK_MAX, 64):
            monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
            for size in (1, 63, 64, 65, 1000, block_max + 1):
                values = rng.normal(size=size)
                want = np.cumsum(values.astype(dtype))
                got = np.empty(size, dtype=dtype)
                for lo, hi, run in tables_mod.cumsum_blocks(in_blocks(values), dtype):
                    assert hi - lo <= block_max
                    got[lo:hi] = run
                # equal nonzero values are equal bits (long double's padding
                # bytes are not part of the value)
                assert np.array_equal(got, want), (block_max, size)

    def test_psi_steps_match_psi_prefix(self, monkeypatch):
        """psi(n) as ``sieve`` reads it, the last step of ``psi_blocks(n)``,
        is bit for bit the oracle's psi_prefix[n]: around the block
        boundaries, and at every n <= 3000 with blocks of 64 entries."""
        b = tables_mod.BLOCK_MAX
        want = arith_oracle.psi_prefix(3 * b + 7)

        def psi(n):
            for *_rest, steps in tables_mod.psi_blocks(n):
                pass
            return steps[-1]

        rng = np.random.default_rng(SEED)
        ns = {0, 1, 2, 3, 4, b - 1, b, b + 1, 2 * b, 3 * b + 7}
        ns |= {int(n) for n in rng.integers(5, 3 * b + 7, size=200)}
        for n in sorted(ns):
            assert psi(n) == want[n], n
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        for n in range(3001):
            assert psi(n) == want[n], n

    @pytest.mark.parametrize("block_max", [tables_mod.BLOCK_MAX, 64])
    def test_psi_steps_are_one_long_double_cumsum(self, monkeypatch, block_max):
        """psi from ``psi_blocks``, summed block by block, is np.cumsum of
        the oracle's Lambda over the prime powers in long double, rounded
        once to float64, byte for byte, over more prime powers than one
        block holds."""
        n = 1_000_000
        logs = arith_oracle.prime_powers(n)[1]
        assert logs.size > tables_mod.BLOCK_MAX
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        want = np.cumsum(logs, dtype=np.longdouble).astype(np.float64)
        blocks = list(tables_mod.psi_blocks(n))
        assert blocks[0][5][0] == 0.0
        assert np.concatenate([steps[1:] for *_rest, steps in blocks]).tobytes() == want.tobytes()

    def test_rejects_bad_n_max(self):
        import pytest
        with pytest.raises(ValueError):
            build_tables(0)


B = tables_mod.BLOCK_MAX
READER_N_MAX = 3 * B + 5


@pytest.fixture(scope="module")
def reader_tables():
    return build_tables(READER_N_MAX)


class TestBlockReaders:
    """``psi_blocks`` and ``von_mangoldt``, the two readers every command
    takes Lambda and psi from, against the whole-array references of
    ``arith_oracle``: prime_powers, psi_steps and lam."""

    @staticmethod
    def _check_stream(n: int, top: int) -> None:
        """The blocks of the streamed ``psi_blocks(n)`` cover 0..n in order,
        each of at most BLOCK_MAX entries; their primes joined are the
        primes up to n, their q and logs joined are the oracle's prime
        powers up to n, of its arrays to top >= n, their steps[1:] joined
        are the same prefix of its psi_steps, and each steps[0] is the step
        before, byte for byte."""
        blocks = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in block)
                  for block in tables_mod.psi_blocks(n)]
        edges = [0] + [hi for _lo, hi, *_rest in blocks]
        assert [lo for lo, *_rest in blocks] == edges[:-1] and edges[-1] == n + 1
        assert all(hi - lo <= tables_mod.BLOCK_MAX for lo, hi, *_rest in blocks)
        primes, q, logs, steps = (np.concatenate([b[i] for b in blocks]) for i in (2, 3, 4, 5))
        assert primes.tobytes() == primes_up_to(n).tobytes(), n
        ref_q, ref_logs = arith_oracle.prime_powers(top)
        count = int(np.searchsorted(ref_q, n, side="right"))
        for got, want in ((q, ref_q), (logs, ref_logs)):
            assert got.dtype == want.dtype and got.tobytes() == want[:count].tobytes(), n
        assert all(b[5].size == b[3].size + 1 for b in blocks)
        joined = np.concatenate([blocks[0][5][:1]] + [b[5][1:] for b in blocks])
        assert joined.dtype == np.float64
        assert joined.tobytes() == arith_oracle.psi_steps(top)[: count + 1].tobytes(), n
        before = np.array([0.0] + [b[5][-1] for b in blocks[:-1]])
        assert np.array([b[5][0] for b in blocks]).tobytes() == before.tobytes()

    @pytest.mark.parametrize("top", [1, 2, B - 1, B, B + 1, 3 * B + 5])
    def test_psi_step_blocks_are_psi_steps(self, top):
        self._check_stream(top, READER_N_MAX)

    def test_psi_step_blocks_on_small_blocks(self, monkeypatch):
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        for top in (1, 2, 63, 64, 65, 127, 128, 129, 1000, 3000):
            self._check_stream(top, 3000)

    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B + 1, 2**18 - 1, 2**18, 2**18 + 1,
                                   3 * 2**18 + 5])
    def test_streamed_psi_blocks_are_the_tables(self, n):
        self._check_stream(n, n)

    def test_streamed_psi_blocks_on_small_segments(self, monkeypatch):
        """Segments of 96 entries cut into blocks of 64, so that a block
        may end inside a segment or at its end, at every n <= 3000: each n
        is held to the prefix of the oracle's arrays to 3000, built once."""
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", 96)
        for n in range(1, 3001):
            self._check_stream(n, 3000)

    @pytest.mark.parametrize("block_max", [64, 1 << 16])
    def test_prime_blocks_are_the_spf_sieve(self, monkeypatch, block_max):
        """The prime stream's odd-only sieve gives the primes of the spf
        sieve, the n >= 2 where spf is 0, as int64, in blocks of at most
        BLOCK_MAX cut from segments [a, b) from start on: at odd and even
        starts, at n = 0..3 and across the edges of segments of 96
        entries."""
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", 96)
        for n in (0, 1, 2, 3, 4, 95, 96, 97, 191, 192, 193, 293, 1000):
            spf = np.concatenate([s.copy() for _a, _b, s in tables_mod.sieve_segments(n)])
            for start in {0, 1, 2, 3, 4, 5, 95, 96, 97, 190, n, n + 1, max(n - 1, 0)}:
                want = []
                for a in range(start, n + 1, 96):
                    b = min(a + 96, n + 1)
                    for lo in range(a, b, block_max):
                        hi = min(lo + block_max, b)
                        primes = np.flatnonzero(spf[lo:hi] == 0) + lo
                        want.append((lo, hi, primes[primes >= 2].tobytes()))
                got = []
                for lo, hi, primes in tables_mod._prime_blocks(n, start):
                    assert primes.dtype == np.int64
                    got.append((lo, hi, primes.tobytes()))
                assert got == want, (n, start)

    @pytest.mark.parametrize("lo, hi", [
        (-5, 1), (-5, 10), (0, 1), (0, 40), (1, 2), (1, 50), (2, 3), (2, 1000),
        (B - 3, B + 3),             # a block edge, at the prime power 2^16
        (59040, 59060),             # 3^10 = 59049
        (59040, 59049), (59049, 59050),
        (2 * B - 7, 2 * B + 7),     # 2^17
        (16770, 16820),             # 7^5 = 16807, 2^14 = 16384 below
        (0, READER_N_MAX + 1),
    ])
    @pytest.mark.parametrize("where", ["memory", "mapped"])
    def test_von_mangoldt_is_lam(self, reader_tables, tmp_path, monkeypatch, lo, hi, where):
        """Lambda over [lo, hi) is the oracle's lam, 0 at n <= 1, whether or
        not the cache dir holds a table file that reaches hi: the reader
        sieves its range and never asks for a table."""
        if where == "mapped":
            save_tables(reader_tables, tmp_path / f"primelab_tables_{READER_N_MAX}.bin")
            monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        else:
            monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        for name in ("tables_for", "load_tables", "build_tables"):
            monkeypatch.setattr(tables_mod, name, None)
        want = np.zeros(hi - lo)
        want[max(-lo, 0) :] = arith_oracle.lam(READER_N_MAX)[max(lo, 0) : hi]
        got = tables_mod.von_mangoldt(lo, hi)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert tables_mod.von_mangoldt(lo, hi).tobytes() == want.tobytes()  # read again

    @pytest.mark.parametrize("sizes", [None, (64, 128), (64, 96)],
                             ids=["default", "block-64-segment-128", "block-64-segment-96"])
    def test_range_reader_is_lam_across_the_edges(self, monkeypatch, sizes):
        """von_mangoldt(lo, hi) is the bytes of the oracle's lam(n)[lo:hi]
        (0 below 0) for lo from -5 to just below a segment edge and every hi
        from lo to 3 segments and 5 entries up, across the block and
        segment edges; also with blocks and segments patched small."""
        if sizes is not None:
            monkeypatch.setattr(tables_mod, "BLOCK_MAX", sizes[0])
            monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", sizes[1])
        b, seg = tables_mod.BLOCK_MAX, tables_mod.SIEVE_SEGMENT
        los = [-5, 0, 1, 2, b - 3, seg - 1]
        his = [b - 1, b, b + 1, seg - 1, seg, seg + 1, 2 * seg + 1, 3 * seg + 5]
        lam = arith_oracle.lam(max(his))
        for lo in los:
            for hi in sorted({lo, lo + 1, lo + 2, *his} - set(range(lo))):
                want = np.zeros(hi - lo)
                want[max(-lo, 0) :] = lam[max(lo, 0) : max(hi, 0)]
                got = tables_mod.von_mangoldt(lo, hi)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (lo, hi)

    @pytest.mark.parametrize("sizes", [None, (64, 96)], ids=["default", "block-64-segment-96"])
    @pytest.mark.parametrize("spread", [(0, 0), (-7, 5), (3, 200)])
    def test_lambda_windows_are_von_mangoldt(self, monkeypatch, sizes, spread):
        """Ascending windows [a + j0, b + j1) over blocks [a, b) of n, as a
        pattern sum asks for them, each the bytes of von_mangoldt over the
        same range and of the oracle's lam, from one sieve pass."""
        if sizes is not None:
            monkeypatch.setattr(tables_mod, "BLOCK_MAX", sizes[0])
            monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", sizes[1])
        j0, j1 = spread
        step = tables_mod.BLOCK_MAX
        n_hi = 3 * tables_mod.SIEVE_SEGMENT + 5
        windows = [(a + j0, min(a + step, n_hi + 1) + j1) for a in range(-9, n_hi + 1, step)]
        lam = arith_oracle.lam(n_hi + j1)
        wants = []
        for lo, hi in windows:
            want = np.zeros(hi - lo)
            want[max(-lo, 0) :] = lam[max(lo, 0) : max(hi, 0)]
            assert tables_mod.von_mangoldt(lo, hi).tobytes() == want.tobytes(), (lo, hi)
            wants.append(want)
        passes = []
        real = tables_mod.odd_sieve_segments
        monkeypatch.setattr(tables_mod, "odd_sieve_segments",
                            lambda n, start=0: passes.append((n, start)) or real(n, start))
        source = tables_mod.LambdaWindows(n_hi + j1)
        for (lo, hi), want in zip(windows, wants):
            got = source(lo, hi)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (lo, hi)
        assert passes == [(n_hi + j1, 0)]

    def test_lambda_windows_refuse_a_window_back_or_past_the_top(self):
        source = tables_mod.LambdaWindows(100)
        source(10, 50)
        with pytest.raises(ValueError, match="starts before the last one"):
            source(9, 60)
        with pytest.raises(ValueError, match="ends past 100"):
            source(60, 102)
        with pytest.raises(ValueError, match="beyond"):
            tables_mod.LambdaWindows(tables_mod.TABLE_MAX + 1)

    @pytest.mark.parametrize("lo, hi", [(-5, 40), (2**16 - 3, 2**18 + 1),
                                        (2**18 - 1, 3 * 2**18 + 5), (10**6, 10**6 + 7)])
    def test_range_reader_sieves_only_its_range(self, monkeypatch, lo, hi):
        """The reader sieves [max(lo, 0), hi) and nothing below it, with the
        primes up to isqrt(hi - 1): one segmented sieve from the range's
        start, whose segments cover the range exactly."""
        real_segments, real_primes = tables_mod.odd_sieve_segments, tables_mod.eratosthenes
        asked, covered, tops = [], [], []

        def segments(n, start=0):
            asked.append((n, start))
            for seg in real_segments(n, start):
                covered.append(seg[:2])
                yield seg

        monkeypatch.setattr(tables_mod, "odd_sieve_segments", segments)
        monkeypatch.setattr(tables_mod, "eratosthenes",
                            lambda top: tops.append(top) or real_primes(top))
        tables_mod.von_mangoldt(lo, hi)
        assert asked == [(hi - 1, max(lo, 0))]
        edges = [max(lo, 0)] + [b for _a, b in covered]
        assert [a for a, _b in covered] == edges[:-1] and edges[-1] == hi
        assert set(tops) == {math.isqrt(hi - 1)}

    def test_range_reader_refuses_beyond_the_bound(self, monkeypatch):
        """A range that reaches past TABLE_MAX is refused before a segment
        is sieved or a sieving prime is listed."""
        for name in ("sieve_segments", "odd_sieve_segments", "eratosthenes"):
            monkeypatch.setattr(tables_mod, name, lambda *args: pytest.fail("sieved"))
        top = tables_mod.TABLE_MAX
        with pytest.raises(ValueError, match="beyond"):
            tables_mod.von_mangoldt(top - 5, top + 2)
        with pytest.raises(ValueError, match="beyond"):
            next(tables_mod.psi_blocks(top + 1))

    def test_only_tables_names_the_prime_power_helpers(self):
        """No module but tables.py names the prime-power helpers, the one
        prime-power stream ``_prime_power_blocks`` and the prime reader
        ``_prime_blocks`` under it among them: Lambda and psi are read
        through the two readers alone.  And no module names the whole-array
        references, which only the tests' ``arith_oracle`` builds."""
        import pathlib
        import re

        import primelab
        helpers = re.compile(r"\b(_?prime_power_blocks|_?prime_powers_between"
                             r"|_?higher_prime_powers|_prime_blocks)\b")
        references = re.compile(r"\b(psi_prefix|psi_steps|prime_powers|_von_mangoldt)\b")
        sources = {path.name: path.read_text()
                   for path in sorted(pathlib.Path(primelab.__file__).parent.glob("*.py"))}
        assert "tables.py" in sources
        assert [name for name, text in sources.items()
                if name != "tables.py" and helpers.search(text)] == []
        assert [name for name, text in sources.items() if references.search(text)] == []


class TestMertensSquarefree:
    """``mertens_squarefree(n)``, (M(n), Q(n)) from mu up to n^(2/3)."""

    def test_powers_of_ten(self, monkeypatch):
        """M(10^k) (OEIS A084237) and Q(10^k) (OEIS A071172), k = 0..9."""
        monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        mertens = [1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222]
        squarefree = [1, 7, 61, 608, 6083, 60794, 607926, 6079291, 60792694, 607927124]
        for k in range(10):
            assert tables_mod.mertens_squarefree(10**k) == (mertens[k], squarefree[k]), k

    def test_every_n_to_3000_is_the_brute_sum(self, monkeypatch):
        """At every n <= 3000 the pair is the running sum and the nonzero
        count of mu read off ``factorize``."""
        monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        m = q = 0
        assert tables_mod.mertens_squarefree(0) == (0, 0)
        for n in range(1, 3001):
            fac = factorize(n)
            mu = 0 if any(e > 1 for _p, e in fac) else (-1) ** len(fac)
            m, q = m + mu, q + (mu != 0)
            assert tables_mod.mertens_squarefree(n) == (m, q), n

    def test_edges_are_the_sieved_sums(self, monkeypatch):
        """Against the running sums of the sieved mu up to 3 * 2**18 + 5: at
        u = floor(n^(2/3)) and u +- 1 for several n, where floor(n^(2/3))
        steps, at squares and cubes and one either side, at 2**18 +- 1, and
        at a random sample; each n reads mu up to floor(n^(2/3)) alone, of
        tables it builds in memory."""
        monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        top = 3 * 2**18 + 5
        mu = sieved_mu(top)
        mertens = np.cumsum(mu, dtype=np.int64)
        squarefree = np.cumsum(mu != 0, dtype=np.int64)
        ns = {2**18 - 1, 2**18, 2**18 + 1, top}
        for n0 in (10**3, 10**5, 2**18, 10**6, top):
            u = round(n0 ** (2 / 3))
            ns |= {u - 1, u, u + 1}
        for u in (10, 100, 1000, 5000, 8000):
            step = math.isqrt(u**3)  # floor(n^(2/3)) reaches u at step or step + 1
            ns |= {step - 1, step, step + 1, step + 2}
        for m in (2, 3, 10, 31, 64, 91):
            ns |= {m**e + d for e in (2, 3) for d in (-1, 0, 1) if 0 <= m**e + d <= top}
        rng = np.random.default_rng(SEED)
        ns |= {int(n) for n in rng.integers(0, top + 1, size=100)}
        seen = []
        real = tables_mod.build_tables
        monkeypatch.setattr(tables_mod, "build_tables", lambda k: seen.append(k) or real(k))
        for n in sorted(ns):
            assert tables_mod.mertens_squarefree(n) == (mertens[n], squarefree[n]), n
            u = seen.pop()
            assert u**3 <= n * n < (u + 1) ** 3, n
        assert seen == []

    def test_sieve_derives_mu_only_up_to_n_two_thirds(self, tmp_path, monkeypatch, capsys):
        """`sieve --n-max 1e6` derives mu over no more than 10**4 + 1
        entries, with and without a cache dir: never over the 10**6 tables."""
        from primelab import cli
        derived = []
        real = ArithTables.mu.func
        monkeypatch.setattr(ArithTables, "mu", property(
            lambda tb: derived.append(tb.n_max + 1) or real(tb)))
        for cache in (None, tmp_path):
            if cache is None:
                monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
            else:
                monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(cache))
            assert cli.main(["sieve", "--n-max", "1e6"]) == 0
            assert "1000000,78498,999586.597495633,212,607926" in capsys.readouterr().out
        assert derived and max(derived) <= 10**4 + 1


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        tb = build_tables(3000)
        path = tmp_path / "tables_3000.npz"
        save_tables(tb, path)
        back = load_tables(path)
        assert isinstance(back, ArithTables)
        assert back.n_max == tb.n_max
        assert np.array_equal(back.spf, tb.spf)
        assert np.array_equal(back.mu, tb.mu)
        assert np.array_equal(back.phi, tb.phi)
        # against the oracle: mu as the sieve made it, and the primes the
        # loaded spf marks, the prime powers q where Lambda(q) = log q
        assert back.mu.tobytes() == sieved_mu(3000).tobytes()
        q, logs = arith_oracle.prime_powers(3000)
        primes = q[logs == np.log(q.astype(np.float64))]
        assert (np.flatnonzero(back.spf[2:] == 0) + 2).tobytes() == primes.tobytes()
        for name in ("spf", "mu", "phi"):
            assert not getattr(back, name).flags.writeable, name
        for name in ("mu", "phi"):  # derived, also on a build
            assert not getattr(tb, name).flags.writeable, name
        # the header, spf at the 1500 odd n <= 3000 (2 bytes each), then one
        # 4-byte CRC32, as 1500 stored entries make one checked block
        assert path.stat().st_size == 14 + 2 * 1500 + 4

    def test_prefix_load(self, tmp_path):
        """load_tables(path, n) is byte-equal to build_tables(n) for n up to
        the file's n_max, and refuses n above it.  A prefix shorter than the
        check blocks read holds its own entries alone: 1000 entries of a
        file of two blocks and one entry keep no 2**18-entry block."""
        path = tmp_path / "primelab_tables_3000.bin"
        save_tables(build_tables(3000), path)
        for n in (2, 1000, 2999, 3000):
            back = load_tables(path, n)
            assert back.n_max == n
            assert_same_tables(back, build_tables(n))
        with pytest.raises(ValueError, match="outside the file's range"):
            load_tables(path, 3001)
        big = 2 * tables_mod._CHECK_ENTRIES + 1
        path = tmp_path / f"primelab_tables_{big}.bin"
        save_tables(build_tables(big), path)
        back = load_tables(path, 1000)
        assert_same_tables(back, build_tables(1000))
        held = back.spf if back.spf.base is None else back.spf.base
        assert back.spf.nbytes == held.nbytes == 2 * 1001

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 2**19 - 1, 2**19, 2**19 + 1, 2**20 + 2])
    def test_odd_entries_roundtrip_across_check_blocks(self, tmp_path, n):
        """A file stores spf at the floor((n+1)/2) odd n <= n and one CRC32
        per 2**18 of them, so check block b holds the odd n below
        2**19 (b + 1), and the file at n = 1000 takes 1018 bytes.  The
        whole file and every prefix at an odd and an even n on both sides
        of each block edge it reaches load byte-identical to a fresh
        build."""
        tb = build_tables(n)
        path = tmp_path / f"primelab_tables_{n}.bin"
        save_tables(tb, path)
        stored = (n + 1) // 2
        assert path.stat().st_size == 14 + 2 * stored + 4 * -(-stored // 2**18)
        assert_same_tables(load_tables(path), tb)
        edges = range(2**19, n + 3, 2**19)
        prefixes = {m for edge in edges for m in range(edge - 2, edge + 2)} | {2, 3, n - 1}
        for m in sorted(m for m in prefixes if 2 <= m <= n):
            back = load_tables(path, m)
            assert back.n_max == m
            assert back.spf.dtype == tb.spf.dtype, m
            assert back.spf.tobytes() == tb.spf[: m + 1].tobytes(), m
            assert not back.spf.flags.writeable, m

    def test_load_holds_one_check_block_beside_the_tables(self, tmp_path):
        """A load reads the file one check block at a time into one buffer
        of 2**18 entries: its peak is the 2 (n + 1) bytes of spf and at most
        1 MiB more, not a second whole array of the odd n."""
        n = 4 * 10**6
        path = tmp_path / f"primelab_tables_{n}.bin"
        save_tables(build_tables(n), path)
        gc.collect()
        tracemalloc.start()
        try:
            back = load_tables(path)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.spf.nbytes == 2 * (n + 1)
        assert peak <= 2 * (n + 1) + 2**20

    @pytest.mark.parametrize("damage", [
        lambda raw: b"XXXX" + raw[4:],
        lambda raw: raw[:4] + (1).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:4] + (2).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:4] + (3).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:4] + (4).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:-1],
        lambda raw: raw[:10],
        lambda raw: raw + b"\0",
        lambda raw: _flip(raw, 14 + 2 * 37),  # spf[75], the 38th odd n
        lambda raw: _flip(raw, 14 + 2 * 50 - 1),  # the high byte of spf[99], the last odd n
        lambda raw: _flip(raw, len(raw) - 1),  # spf's CRC
    ], ids=["magic", "version", "version-2", "version-3", "version-4", "truncated",
            "short-header", "trailing", "spf-byte", "spf-last-byte", "crc-byte"])
    def test_damaged_file_is_refused(self, tmp_path, damage):
        path = tmp_path / "primelab_tables_100.bin"
        save_tables(build_tables(100), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_tables(path)

    def test_checksums_cover_the_mapped_prefix_once(self, tmp_path, monkeypatch):
        """Every load checks each block that holds an odd n of the
        requested prefix once, a repeated load of the same prefix included,
        and no block beyond it: damage past the prefix is found once a
        request reaches it.  A block stores 2**18 odd n, so block b covers
        the integers below 2**19 (b + 1)."""
        block = tables_mod._CHECK_ENTRIES
        n = 4 * block + 5
        path = tmp_path / f"primelab_tables_{n}.bin"
        save_tables(build_tables(n), path)
        path.write_bytes(_flip(path.read_bytes(), 14 + 2 * (2 * block) + 3))
        crcs = []
        real = tables_mod.zlib.crc32
        monkeypatch.setattr(tables_mod.zlib, "crc32", lambda data: crcs.append(1) or real(data))
        assert_same_tables(load_tables(path, 1000), build_tables(1000))
        assert len(crcs) == 1  # block 0 of spf
        load_tables(path, 1000)
        assert len(crcs) == 2  # the same block, checked again
        load_tables(path, 2 * block - 1)
        assert len(crcs) == 3
        assert_same_tables(load_tables(path, 2 * block), build_tables(2 * block))
        assert len(crcs) == 4  # 2**19 is even: its odd n all lie in block 0
        assert_same_tables(load_tables(path, 2 * block + 1), build_tables(2 * block + 1))
        assert len(crcs) == 6  # blocks 0 and 1 of spf
        with pytest.raises(ValueError, match="fails its checksum in spf block 2"):
            load_tables(path)

    def test_check_blocks_do_not_follow_block_max(self, tmp_path):
        """The check block is fixed at 2**18 stored entries, part of the
        file format: a file saved with BLOCK_MAX at 64 stores the
        floor((n+1)/2) odd n, carries ceil(floor((n+1)/2)/2**18) CRCs and
        loads at the default block size."""
        n = 2**19 + 5
        tb = build_tables(n)
        path = tmp_path / f"primelab_tables_{n}.bin"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", 64)
            save_tables(tb, path)
        assert tables_mod.BLOCK_MAX != 64
        stored = (n + 1) // 2
        crcs = -(-stored // 2**18)
        assert crcs == 2
        assert path.stat().st_size == 14 + 2 * stored + 4 * crcs
        back = load_tables(path)
        assert back.spf.tobytes() == tb.spf.tobytes()
        assert back.mu.tobytes() == tb.mu.tobytes()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A write that fails part-way leaves neither the target nor a temp
        file, and the partial bytes are never visible at the target."""
        tb = build_tables(3000)
        path = tmp_path / "primelab_tables_3000.bin"
        real = np.copyto
        seen_at_failure = []

        def fail_at_spf(dst, src, *args, **kwargs):  # the first data block, after the header
            if getattr(src, "base", None) is tb.spf:
                seen_at_failure.append(path.exists())
                raise OSError("disk full")
            return real(dst, src, *args, **kwargs)

        monkeypatch.setattr(tables_mod.np, "copyto", fail_at_spf)
        with pytest.raises(OSError, match="disk full"):
            save_tables(tb, path)
        assert seen_at_failure == [False]
        assert list(tmp_path.iterdir()) == []


class TestProvider:
    def test_larger_cache_file_serves_smaller_request(self, tmp_path, monkeypatch):
        """A cached file with a larger n_max serves every smaller request
        byte-identically, and nothing new is written."""
        save_tables(build_tables(5000), tmp_path / "primelab_tables_5000.bin")
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        for n in (2, 1234, 4999):
            tb = tables_mod.tables_for(n)
            assert tb.n_max == n
            assert_same_tables(tb, build_tables(n))
        assert [p.name for p in tmp_path.iterdir()] == ["primelab_tables_5000.bin"]

    def test_no_build_outlives_its_result(self, monkeypatch):
        """Without a cache dir each request sieves afresh and the process
        keeps no build: once the result of tables_for(10**6) is dropped,
        under 1 MiB of the 2.9 MiB it took stays on the heap."""
        monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        gc.collect()
        tracemalloc.start()
        try:
            tb = tables_mod.tables_for(10**6)
            assert tb.spf.nbytes + tb.mu.nbytes > 2 * 2**20
            del tb
            gc.collect()
            left, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 2**20

    @pytest.mark.parametrize("order", [(1000, 3000, 2000), (3000, 1000, 2000)])
    def test_cache_keeps_one_file_whatever_the_order(self, tmp_path, monkeypatch, order):
        """A larger build replaces the smaller files it serves, so the same
        requests in any order leave the same single file."""
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        (tmp_path / "other.bin").write_bytes(b"kept")
        for n in order:
            tables_mod.tables_for(n)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "other.bin", "primelab_tables_3000.bin"]
        assert_same_tables(tables_mod.tables_for(1000), build_tables(1000))

    def test_cache_miss_writes_through_save_tables(self, tmp_path, monkeypatch):
        """A request no file serves is sieved in memory and written by one
        save_tables call: the file is the bytes save_tables writes from a
        fresh build, and the request it then serves writes nothing."""
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()
        saves = []
        real = tables_mod.save_tables
        monkeypatch.setattr(tables_mod, "save_tables",
                            lambda tb, path: saves.append(path) or real(tb, path))
        n = 2**18 + 1
        tb = tables_mod.tables_for(n)
        path = tmp_path / "cache" / f"primelab_tables_{n}.bin"
        assert saves == [str(path)]
        real(build_tables(n), tmp_path / "saved.bin")
        assert path.read_bytes() == (tmp_path / "saved.bin").read_bytes()
        assert_same_tables(tb, build_tables(n))
        assert_same_tables(tables_mod.tables_for(n), tb)
        assert saves == [str(path)]

    def test_truncated_file_does_not_reach_loaded_tables(self, tmp_path):
        """Tables served from a cache file hold their entries in memory: in
        a fresh interpreter, truncating the file to 0 bytes after the load
        leaves spf and mu readable, with the values of a fresh build."""
        n = 3000
        script = textwrap.dedent(f"""
            import os
            from primelab import tables
            tables.tables_for({n})
            loads = []
            real = tables.load_tables
            tables.load_tables = lambda *args: loads.append(args) or real(*args)
            tb = tables.tables_for({n})
            assert len(loads) == 1
            os.truncate(os.path.join(os.environ[tables.CACHE_DIR_ENV],
                                     "primelab_tables_{n}.bin"), 0)
            print(int(tb.spf[-1]))
            print(tb.spf.tobytes().hex())
            print(tb.mu.tobytes().hex())
        """)
        env = dict(os.environ, **{tables_mod.CACHE_DIR_ENV: str(tmp_path)})
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (done.returncode, done.stderr)
        want = build_tables(n)
        assert done.stdout.split() == [str(int(want.spf[-1])), want.spf.tobytes().hex(),
                                       want.mu.tobytes().hex()]

    def test_failed_build_keeps_the_smaller_file(self, tmp_path, monkeypatch):
        """A build into the cache dir that raises part-way leaves neither its
        file nor a temp file, and the smaller file it would have replaced
        stays and still serves."""
        small = tmp_path / "primelab_tables_1000.bin"
        save_tables(build_tables(1000), small)
        before, want = small.read_bytes(), build_tables(500)
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        real = tables_mod.sieve_segments
        written = []

        def fail_after_one(n):
            for segment in real(n):
                if written:
                    raise OSError("disk full")
                written.append(segment[0])
                yield segment

        monkeypatch.setattr(tables_mod, "sieve_segments", fail_after_one)
        n = 2 * tables_mod.SIEVE_SEGMENT + 1
        with pytest.raises(OSError, match="disk full"):
            tables_mod.tables_for(n)
        assert written == [0]
        assert [p.name for p in tmp_path.iterdir()] == ["primelab_tables_1000.bin"]
        assert small.read_bytes() == before
        assert_same_tables(tables_mod.tables_for(500), want)

    def test_library_functions_take_no_tables(self):
        """Every module fetches its own tables: no public function of any
        primelab module has a parameter annotated ArithTables, except
        save_tables, whose job is to write them."""
        import importlib
        import pkgutil

        import primelab
        modules = [importlib.import_module(f"primelab.{info.name}")
                   for info in pkgutil.iter_modules(primelab.__path__)]
        takers = [
            f"{mod.__name__}.{name}({param.name})"
            for mod in modules
            for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if fn.__module__ == mod.__name__ and not name.startswith("_")
            for param in inspect.signature(fn).parameters.values()
            if "ArithTables" in str(param.annotation)
        ]
        assert len(modules) >= 9
        assert takers == ["primelab.tables.save_tables(tables)"]

    def test_file_removed_after_listing_is_looked_up_again(self, tmp_path, monkeypatch):
        """Another process may replace the file chosen between the listing
        and the open; the lookup then finds the larger file, with no build."""
        save_tables(build_tables(3000), tmp_path / "primelab_tables_3000.bin")
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        real = tables_mod.load_tables

        def replaced_first(path, n_max=None):
            if not (tmp_path / "primelab_tables_5000.bin").exists():
                save_tables(build_tables(5000), tmp_path / "primelab_tables_5000.bin")
                (tmp_path / "primelab_tables_3000.bin").unlink()
            return real(path, n_max)

        monkeypatch.setattr(tables_mod, "load_tables", replaced_first)
        monkeypatch.setattr(tables_mod, "build_tables", None)
        assert_same_tables(tables_mod.tables_for(2500), build_tables(2500))


class TestFactorize:
    def test_against_sympy_factorint(self, tables_small):
        """Ascending [(p, e)] equal to sympy's, below and past 2*10^4."""
        rng = np.random.default_rng(SEED + 9)
        n_max = tables_small.n_max
        sample = [1, 2, 3, 4, n_max, n_max + 1]
        sample += [p * p for p in (2, 3, 97, 20011, 999_979)]
        sample += [int(n) for n in rng.integers(2, n_max + 1, size=N_TRIALS)]
        sample += [int(n) for n in rng.integers(n_max + 1, 10**9, size=N_TRIALS)]
        sample += [int(n) for n in rng.integers(10**9, FACTOR_MAX + 1, size=20)]
        for n in sample:
            expected = sorted(sympy.factorint(n).items())
            assert factorize(n) == expected, n

    def test_zero_and_negative_are_refused(self, tables_small):
        """sympy reports 0 as {0: 1}; 0 has no prime factorization."""
        for n in (0, -1, -6):
            with pytest.raises(ValueError):
                factorize(n)
        with pytest.raises(ValueError):
            prime_divisors(0)

    def test_bound_beyond_the_tables(self):
        """Trial division stops at FACTOR_MAX; a prime just below it is
        factored, anything larger is refused."""
        assert factorize(999_999_999_989) == [(999_999_999_989, 1)]
        assert factorize(FACTOR_MAX) == [(2, 12), (5, 12)]
        with pytest.raises(ValueError, match="trial-division bound"):
            factorize(FACTOR_MAX + 1)

    def test_prime_and_squarefree_divisors(self, tables_small):
        """Distinct primes of |n| and the squarefree divisors, both ascending."""
        rng = np.random.default_rng(SEED + 10)
        for n in [1, 2, 12, 30030, 2 * 999_983] + [
            int(n) for n in rng.integers(2, 3 * tables_small.n_max, size=60)
        ]:
            fac = sympy.factorint(n)
            assert prime_divisors(-n) == tuple(sorted(fac)), n
            expected = sorted(d for d in sympy.divisors(n)
                              if all(e == 1 for e in sympy.factorint(d).values()))
            assert squarefree_divisors(n) == expected, n


class TestHelpers:
    def test_squarefree_kernel(self, tables_small):
        """j* is the product of distinct primes dividing j, sign ignored."""
        rng = np.random.default_rng(SEED + 6)
        for j in rng.integers(1, tables_small.n_max, size=N_TRIALS):
            j = int(j) * (1 if j % 2 else -1)
            kern = squarefree_kernel(j)
            expected = 1
            for p in sympy.factorint(abs(j)):
                expected *= p
            assert kern == expected, j


#: the block size the pairwise-sum lengths are drawn around
BLOCK = tables_mod.BLOCK_MAX

#: lengths up to 5 BLOCK_MAX: single leaves (n <= 128), n = 8m +- 1, the
#: block size +- 1 and its multiples +- 1, and any
PAIRWISE_LENGTHS = st.one_of(
    st.integers(1, 128),
    st.builds(lambda m, d: max(8 * m + d, 1), st.integers(0, 5 * BLOCK // 8), st.sampled_from([-1, 1])),
    st.builds(lambda k, d: k * BLOCK + d, st.integers(1, 4), st.sampled_from([-1, 0, 1])),
    st.integers(1, 5 * BLOCK),
)


def _entries(n: int, seed: int) -> np.ndarray:
    """Floats of mixed scales and signs, with runs of +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    x[rng.random(n) < 0.1] = 0.0
    x[rng.random(n) < 0.1] = -0.0
    if seed % 5 == 0:
        x[:] = -0.0
    return x


def _ragged(n: int, cuts: list[int]) -> list[tuple[int, int]]:
    """The blocks [lo, hi) that the cut points (taken mod n + 1) split 0..n into."""
    edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(edges, edges[1:]))


class TestPairwiseSum:
    @settings(max_examples=80, deadline=None)
    @given(n=PAIRWISE_LENGTHS, seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 2**31), max_size=12))
    def test_property_equals_np_sum_on_ragged_blocks(self, n, seed, cuts):
        """Fed in ragged blocks, some of one entry and some across many
        nodes, the sum is np.sum's byte for byte; total refuses to answer
        before the last entry, and blocks past it change nothing."""
        x = _entries(n, seed)
        acc = PairwiseSum(n)
        for lo, hi in _ragged(n, cuts):
            with pytest.raises(ValueError):
                acc.total
            acc.add(x[lo:hi].copy())
        acc.add(np.ones(3))
        assert np.float64(acc.total).tobytes() == np.sum(x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=PAIRWISE_LENGTHS, seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 1000, BLOCK - 1, BLOCK, BLOCK + 1]))
    def test_property_equals_np_sum_on_equal_blocks(self, n, seed, size):
        """Blocks of one size, the last shorter, as the streamed routes
        feed them; one entry at a time only up to 3000 entries."""
        n = min(n, 3000) if size == 1 else n
        x = _entries(n, seed)
        acc = PairwiseSum(n)
        buf = np.empty(size)
        for lo in range(0, n, size):
            block = buf[: min(size, n - lo)]
            block[:] = x[lo : lo + size]  # one reused buffer
            acc.add(block)
        assert np.float64(acc.total).tobytes() == np.sum(x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=PAIRWISE_LENGTHS, seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 2**31), min_size=1, max_size=6),
           cuts=st.lists(st.integers(0, 2**31), max_size=12))
    def test_property_one_pass_feeds_sums_of_several_lengths(self, n, seed, picks, cuts):
        """Sums of different lengths fed one pass of blocks, as the lemma
        rungs are: each is np.sum of its prefix, byte for byte."""
        x = _entries(n, seed)
        lengths = sorted({1 + pick % n for pick in picks} | {n})
        sums = [PairwiseSum(m) for m in lengths]
        for lo, hi in _ragged(n, cuts):
            for acc in sums:
                acc.add(x[lo:hi])
        got = np.array([acc.total for acc in sums])
        want = np.array([np.sum(x[:m]) for m in lengths])
        assert got.tobytes() == want.tobytes(), lengths

    def test_exact_ints_and_empty(self):
        """Object blocks of Python ints sum exactly, and an empty sum is 0.0."""
        big = [3**80, -(3**80), 7, 2**70]
        acc = PairwiseSum(len(big))
        acc.add(np.array(big[:1], dtype=object))
        acc.add(np.array(big[1:], dtype=object))
        assert acc.total == sum(big) and isinstance(acc.total, int)
        assert PairwiseSum(0).total == 0.0

    @pytest.mark.parametrize("above", [0, 2, (2, 3), (3, 2, 0, 101)])
    def test_prime_sums_take_each_sum_above_its_bound(self, monkeypatch, above):
        """``prime_sums`` over a stream of 64-entry blocks: each sum is
        np.sum of its terms at the primes above its own bound (one bound
        for all of them, or one each), then those of extra, byte for byte,
        and the stream is read twice whatever the bounds."""
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        reads = []
        stream = tables_mod.prime_blocks
        monkeypatch.setattr(tables_mod, "prime_blocks",
                            lambda n: reads.append(n) or stream(n))
        bounds = above if isinstance(above, tuple) else (above,) * 3
        extra = (3011, 3001)
        terms = lambda ps: tuple(np.log(ps) / ps ** (k + 0.5) for k in range(len(bounds)))
        got = tables_mod.prime_sums(terms, 3000, extra, above=above)
        ps = np.concatenate([primes_up_to(3000), extra]).astype(np.float64)
        want = [np.sum(t[ps > b]) for t, b in zip(terms(ps), bounds)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert reads == [3000, 3000]
