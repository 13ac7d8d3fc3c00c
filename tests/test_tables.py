"""Tests for the sieved arithmetic tables.

Every array is checked against an independent per-n oracle built from
sympy factorizations on a seeded random sample, plus exact closed-form
anchors (pi(10^4), M(10^4), psi(10^4), ...).
"""

from __future__ import annotations

import gc
import inspect
import math
import mmap
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

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


def sieved_mu(n: int) -> np.ndarray:
    """The int8 Moebius function of 0..n as the segmented sieve made it
    when the tables stored it, one segment of SIEVE_SEGMENT entries at a
    time: each prime p <= isqrt(n) with p^2 < hi negates mu at its
    multiples in [lo, hi), zeroes it at those of p^2 and multiplies an
    int32 prod by p there; a k < hi has at most one prime factor left out
    of prod, so mu is negated once more where prod != k."""
    primes = tables_mod.eratosthenes(math.isqrt(n)).tolist()
    mu = np.ones(n + 1, dtype=np.int8)
    for lo in range(0, n + 1, tables_mod.SIEVE_SEGMENT):
        hi = min(lo + tables_mod.SIEVE_SEGMENT, n + 1)
        seg = mu[lo:hi]
        prod = np.ones(hi - lo, dtype=np.int32)
        for p in reversed(primes):
            if p * p >= hi:
                continue
            first = -lo % p
            np.negative(seg[first::p], out=seg[first::p])
            np.multiply(prod[first::p], p, out=prod[first::p])
            seg[-lo % (p * p) :: p * p] = 0
        np.negative(seg, out=seg, where=prod != np.arange(lo, hi, dtype=np.int32))
    mu[:2] = (0, 1)
    return mu


def _flip(raw: bytes, at: int) -> bytes:
    """raw with the lowest bit of byte ``at`` flipped."""
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]


def assert_same_tables(small: ArithTables, big: ArithTables) -> None:
    """Every array of ``small`` is byte-equal to the same prefix of ``big``."""
    n = small.n_max
    for name in ("spf", "mu", "phi", "lam", "psi_prefix"):
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
        mapped file."""
        tb = build_tables(n) if where == "memory" else build_tables(n, tmp_path / "t.bin")
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
        """lam[n] = log p when n = p^e, else 0."""
        rng = np.random.default_rng(SEED + 4)
        for n in rng.integers(2, tables_small.n_max, size=N_TRIALS):
            n = int(n)
            assert abs(tables_small.lam[n] - naive_lambda(n)) < 1e-12, n
        assert tables_small.lam[1] == 0.0

    def test_psi_prefix_consistency(self, tables_small):
        """psi_prefix[n] - psi_prefix[n-1] = lam[n] and psi_prefix[0] = 0."""
        diffs = np.diff(tables_small.psi_prefix)
        assert tables_small.psi_prefix[0] == 0.0
        assert np.allclose(diffs, tables_small.lam[1:], rtol=0, atol=1e-9)

    def test_known_anchors(self, tables_small):
        """pi(10^4) = 1229, M(10^4) = -23, Q(10^4) = 6083, psi(10^4) ~ 10013.4."""
        n = 10_000
        primes = int(np.count_nonzero(tables_small.spf[2:n + 1] == 0))
        assert primes == 1229
        assert int(tables_small.mu[1:n + 1].sum()) == -23
        assert int(np.count_nonzero(tables_small.mu[1:n + 1])) == 6083
        assert abs(tables_small.psi_prefix[n] - 10013.3966932631) < 1e-6

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
        """Splitting the dyadic blocks (and the psi prefix sum) into many
        small steps gives the same bytes as the default block size."""
        want = build_tables(5000)
        want.phi, want.psi_prefix  # derive at the default block size
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        assert_same_tables(build_tables(5000), want)

    def test_psi_prefix_is_one_extended_precision_cumsum(self):
        """The block-carried prefix sum rounds exactly like one long-double
        cumsum over the whole lam array."""
        tb = build_tables(2 * tables_mod.BLOCK_MAX + 3)
        want = np.cumsum(tb.lam.astype(np.longdouble)).astype(np.float64)
        assert tb.psi_prefix.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(
        st.integers(0, 30_000),
        st.sampled_from(sorted(
            p**e + d for p in sympy.primerange(2, 30_000) for e in range(1, 15)
            if p**e <= 30_000 for d in (0, 1)
        )),
    ))
    def test_property_psi_prefix_is_dense_cumsum(self, n):
        """psi_prefix repeated over the gaps between prime powers is, at any
        n_max (equal to or just above a prime power included), the bytes of
        one long-double cumsum over the dense Lambda array, rounded."""
        tb = tables_mod.tables_for(n)
        lam = np.zeros(tb.n_max + 1)
        lam[tb.prime_powers[0]] = tb.prime_powers[1]
        assert lam.tobytes() == tb.lam.tobytes()
        want = np.cumsum(lam.astype(np.longdouble)).astype(np.float64)
        assert tb.psi_prefix.tobytes() == want.tobytes()
        assert tb.psi_prefix.size == tb.n_max + 1 == max(n, 2) + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 100, 10**5, 10**6 + 3])
    def test_prime_powers_match_concatenate_and_argsort(self, n):
        """Inserting the sorted higher powers among the primes of each block
        of spf and joining the blocks (``ArithTables.prime_powers``) gives
        the bytes of concatenating all prime powers and sorting them, and so
        does joining the q of the streamed ``psi_blocks(n)``."""
        primes = primes_up_to(n)
        higher = [(p**e, math.log(p)) for p in primes[primes <= math.isqrt(n)].tolist()
                  for e in range(2, n.bit_length()) if p**e <= n]
        q = np.concatenate([primes, np.array([q for q, _ in higher], dtype=np.int64)])
        logs = np.concatenate([np.log(primes.astype(np.float64)),
                               np.array([lp for _, lp in higher])])
        order = np.argsort(q, kind="stable")
        got_q, got_logs = build_tables(n).prime_powers
        assert got_q.dtype == q.dtype and got_q.tobytes() == q[order].tobytes()
        assert got_logs.dtype == logs.dtype and got_logs.tobytes() == logs[order].tobytes()
        streamed = np.concatenate([q for _lo, _hi, _p, q, _s in tables_mod.psi_blocks(n)])
        assert streamed.dtype == q.dtype and streamed.tobytes() == q[order].tobytes()

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
        for lo, hi, run in tables_mod.cumsum_blocks(values, dtype, keep):
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
                for lo, hi, run in tables_mod.cumsum_blocks(values, dtype):
                    assert hi - lo <= block_max
                    got[lo:hi] = run
                # equal nonzero values are equal bits (long double's padding
                # bytes are not part of the value)
                assert np.array_equal(got, want), (block_max, size)

    def test_psi_steps_match_psi_prefix(self, monkeypatch):
        """psi(n) read off psi_steps at the last prime power <= n, on tables
        up to max(n, 2) as ``sieve`` reads them, is bit for bit
        psi_prefix[n]: around the block boundaries of the prefix sum, and at
        every n <= 3000 with blocks of 64 entries."""
        b = tables_mod.BLOCK_MAX
        tb = build_tables(3 * b + 7)

        def psi(n):
            top = max(n, 2)
            own = ArithTables(n_max=top, spf=tb.spf[: top + 1])
            return own.psi_steps[np.searchsorted(own.prime_powers[0], n, side="right")]

        rng = np.random.default_rng(SEED)
        ns = {0, 1, 2, 3, 4, b - 1, b, b + 1, 2 * b, 3 * b + 7}
        ns |= {int(n) for n in rng.integers(5, 3 * b + 7, size=200)}
        for n in sorted(ns):
            assert psi(n) == tb.psi_prefix[n], n
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        small = build_tables(3000)
        for n in range(3001):
            assert psi(n) == small.psi_prefix[n], n

    @pytest.mark.parametrize("block_max", [tables_mod.BLOCK_MAX, 64])
    def test_psi_steps_are_one_long_double_cumsum(self, monkeypatch, block_max):
        """psi_steps, summed block by block, is np.cumsum of Lambda over the
        prime powers in long double, rounded once to float64, byte for
        byte, over more prime powers than one block holds."""
        tb = build_tables(1_000_000)
        logs = tb.prime_powers[1]
        assert logs.size > tables_mod.BLOCK_MAX
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", block_max)
        want = np.cumsum(logs, dtype=np.longdouble).astype(np.float64)
        assert tb.psi_steps[0] == 0.0
        assert tb.psi_steps[1:].tobytes() == want.tobytes()

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
    """``ArithTables.psi_step_blocks`` and ``von_mangoldt``, the two readers
    every command takes Lambda and psi from, against the whole-array
    references psi_steps and lam."""

    @staticmethod
    def _check_steps(tb: ArithTables, top: int, ref: ArithTables) -> None:
        """The blocks cover 0..top in order, their prime powers joined are
        ref's up to top, their steps[1:] joined are the same prefix of
        ref.psi_steps, and each steps[0] is the step before."""
        blocks = [(lo, hi, q.copy(), steps.copy())
                  for lo, hi, q, steps in tb.psi_step_blocks(top)]
        edges = [0] + [hi for _lo, hi, *_rest in blocks]
        assert [lo for lo, *_rest in blocks] == edges[:-1] and edges[-1] == top + 1
        q_ref = ref.prime_powers[0]
        count = int(np.searchsorted(q_ref, top, side="right"))
        q = np.concatenate([b[2] for b in blocks])
        assert q.tobytes() == q_ref[:count].tobytes()
        steps = np.concatenate([b[3][1:] for b in blocks])
        assert steps.dtype == np.float64
        assert steps.tobytes() == ref.psi_steps[1 : count + 1].tobytes()
        before = np.array([0.0] + [b[3][-1] for b in blocks[:-1]])
        assert np.array([b[3][0] for b in blocks]).tobytes() == before.tobytes()
        assert all(b[3].size == b[2].size + 1 for b in blocks)

    @pytest.mark.parametrize("top", [1, 2, B - 1, B, B + 1, 3 * B + 5])
    def test_psi_step_blocks_are_psi_steps(self, reader_tables, top):
        self._check_steps(reader_tables, top, reader_tables)

    def test_psi_step_blocks_on_small_blocks(self, monkeypatch):
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        tb = build_tables(3000)
        for top in (1, 2, 63, 64, 65, 127, 128, 129, 1000, 3000):
            self._check_steps(tb, top, tb)

    @staticmethod
    def _joined(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
        """q and steps of psi blocks (lo, hi, q, steps) joined, steps[0]
        of the first block in front, once the blocks are checked to cover
        0..n in order, each of at most BLOCK_MAX entries."""
        blocks = [(lo, hi, q.copy(), steps.copy()) for lo, hi, q, steps in blocks]
        edges = [0] + [hi for _lo, hi, _q, _steps in blocks]
        assert [lo for lo, *_rest in blocks] == edges[:-1] and edges[-1] == n + 1
        assert all(hi - lo <= tables_mod.BLOCK_MAX for lo, hi, *_rest in blocks)
        return (np.concatenate([q for *_edges, q, _steps in blocks]),
                np.concatenate([blocks[0][3][:1]] + [s[1:] for *_rest, s in blocks]))

    def _check_stream(self, n: int, want_q: np.ndarray, want_steps: np.ndarray) -> None:
        """The streamed ``psi_blocks(n)`` gives the q and steps of
        ``psi_step_blocks(n)`` over the tables, byte for byte, and the
        primes up to n: psi has one route, whether the primes come from the
        sieve's segments or from a table's spf."""
        primes = []

        def stream():
            for lo, hi, block_primes, q, steps in tables_mod.psi_blocks(n):
                primes.append(block_primes.copy())
                yield lo, hi, q, steps

        for got, want in zip(self._joined(stream(), n), (want_q, want_steps)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n
        assert np.concatenate(primes).tobytes() == primes_up_to(n).tobytes(), n

    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B + 1, 2**18 - 1, 2**18, 2**18 + 1,
                                   3 * 2**18 + 5])
    def test_streamed_psi_blocks_are_the_tables(self, n):
        tb = build_tables(max(n, 2))
        self._check_stream(n, *self._joined(tb.psi_step_blocks(n), n))

    def test_streamed_psi_blocks_on_small_segments(self, monkeypatch):
        """Segments of 96 entries cut into blocks of 64, so that a block
        may end inside a segment or at its end, at every n <= 3000.  The
        blocks of the tables to n are, joined, a prefix of those of the
        tables to 3000 (``_check_steps`` above), so each n is held to
        that prefix."""
        monkeypatch.setattr(tables_mod, "BLOCK_MAX", 64)
        monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", 96)
        q, steps = self._joined(build_tables(3000).psi_step_blocks(3000), 3000)
        for n in range(1, 3001):
            count = int(np.searchsorted(q, n, side="right"))
            self._check_stream(n, q[:count], steps[: count + 1])

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
    def test_von_mangoldt_is_lam(self, reader_tables, tmp_path, lo, hi, where):
        """Lambda over [lo, hi) is lam's, 0 at n <= 1, whether the tables
        are in memory or mapped from a file whose pages it then drops."""
        tb = reader_tables
        if where == "mapped":
            path = tmp_path / "tables.bin"
            save_tables(reader_tables, path)
            tb = load_tables(path)
        want = np.zeros(hi - lo)
        want[max(-lo, 0) :] = reader_tables.lam[max(lo, 0) : hi]
        got = tb.von_mangoldt(lo, hi)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert tb.von_mangoldt(lo, hi).tobytes() == want.tobytes()  # read again

    def test_readers_drop_every_page_below_their_range(self, reader_tables, tmp_path,
                                                       mapped_rss):
        """A read fault may map a whole page-cache folio, pages below the
        range read included, so both readers drop every mapped page below
        the end of what they read, not only their own range's: with all of
        spf mapped in first, a short read near the end leaves a few pages."""
        path = tmp_path / "tables.bin"
        save_tables(reader_tables, path)
        tb = load_tables(path)
        top = tb.n_max
        for read in (lambda: tb.von_mangoldt(top - 100, top + 1),
                     lambda: list(tb.psi_step_blocks(top))):
            np.count_nonzero(tb.spf)  # map every page of spf in
            assert mapped_rss(path) >= tb.spf.nbytes
            read()
            assert mapped_rss(path) <= 4 * mmap.PAGESIZE

    def test_only_the_readers_release_pages(self):
        """No module but tables.py drops table pages (the lemmas' walk
        reads no table) or names the prime-power helpers: Lambda and psi
        are read through the two readers alone."""
        import ast
        import pathlib
        import re

        import primelab
        helpers = re.compile(r"\b_?(prime_power_blocks|prime_powers_between"
                             r"|higher_prime_powers)\b")
        releases, named = [], []
        for path in sorted(pathlib.Path(primelab.__file__).parent.glob("*.py")):
            if path.name == "tables.py":
                continue
            text = path.read_text()
            named += [path.name] if helpers.search(text) else []
            for fn in ast.walk(ast.parse(text)):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    releases += [
                        f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                    ]
        assert releases == []
        assert named == []


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
        assert np.array_equal(back.lam.view(np.int64), tb.lam.view(np.int64))
        assert np.array_equal(back.psi_prefix.view(np.int64),
                              tb.psi_prefix.view(np.int64))
        for name in ("spf", "mu", "phi", "lam", "psi_prefix"):
            assert not getattr(back, name).flags.writeable, name
        for name in ("phi", "lam", "psi_prefix"):  # derived, also on a build
            assert not getattr(tb, name).flags.writeable, name
        # the header, spf (2 bytes per entry), then one 4-byte CRC32, as
        # 3001 entries make one checked block
        assert path.stat().st_size == 14 + 2 * (3000 + 1) + 4

    def test_prefix_load(self, tmp_path):
        """load_tables(path, n) is byte-equal to build_tables(n) for n up to
        the file's n_max, and refuses n above it."""
        path = tmp_path / "primelab_tables_3000.bin"
        save_tables(build_tables(3000), path)
        for n in (2, 1000, 2999, 3000):
            back = load_tables(path, n)
            assert back.n_max == n
            assert_same_tables(back, build_tables(n))
        with pytest.raises(ValueError, match="outside the file's range"):
            load_tables(path, 3001)

    @pytest.mark.parametrize("damage", [
        lambda raw: b"XXXX" + raw[4:],
        lambda raw: raw[:4] + (1).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:4] + (2).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:4] + (3).to_bytes(2, "little") + raw[6:],
        lambda raw: raw[:-1],
        lambda raw: raw[:10],
        lambda raw: raw + b"\0",
        lambda raw: _flip(raw, 14 + 2 * 37),  # spf[37]
        lambda raw: _flip(raw, 14 + 2 * 101 - 1),  # the high byte of spf[100]
        lambda raw: _flip(raw, len(raw) - 1),  # spf's CRC
    ], ids=["magic", "version", "version-2", "version-3", "truncated",
            "short-header", "trailing", "spf-byte", "spf-last-byte", "crc-byte"])
    def test_damaged_file_is_refused(self, tmp_path, damage):
        path = tmp_path / "primelab_tables_100.bin"
        save_tables(build_tables(100), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_tables(path)

    def test_checksums_cover_the_mapped_prefix_once(self, tmp_path, monkeypatch):
        """Every load checks each block that holds the requested prefix of
        each array once, a repeated load of the same prefix included, and
        no block beyond it: damage past the prefix is found once a request
        reaches it."""
        block = tables_mod._CHECK_ENTRIES
        n = 2 * block + 5
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
        load_tables(path, block - 1)
        assert len(crcs) == 3
        assert_same_tables(load_tables(path, block), build_tables(block))
        assert len(crcs) == 5  # blocks 0 and 1 of spf
        with pytest.raises(ValueError, match="fails its checksum in spf block 2"):
            load_tables(path)

    def test_checked_load_leaves_the_mapping_unread(self, tmp_path, monkeypatch,
                                                     mapped_rss):
        """The checksum pass reads the file, not the mapping: after a
        checked load of a file of several check blocks, its mapping holds a
        few pages at most, and reading an array maps that array in."""
        n = 2 * tables_mod._CHECK_ENTRIES + 5
        path = tmp_path / f"primelab_tables_{n}.bin"
        save_tables(build_tables(n), path)
        crcs = []
        real = tables_mod.zlib.crc32
        monkeypatch.setattr(tables_mod.zlib, "crc32", lambda data: crcs.append(1) or real(data))
        tb = load_tables(path)
        assert len(crcs) == 3  # every block of spf checked
        assert mapped_rss(path) <= 4 * mmap.PAGESIZE
        np.count_nonzero(tb.spf)  # read spf through the mapping
        assert mapped_rss(path) >= tb.spf.nbytes

    def test_check_blocks_do_not_follow_block_max(self, tmp_path):
        """The check block is fixed at 2**18 entries, part of the file
        format: a file saved with BLOCK_MAX at 64 carries ceil((n+1)/2**18)
        CRCs and loads at the default block size."""
        n = 2**18 + 5
        tb = build_tables(n)
        path = tmp_path / f"primelab_tables_{n}.bin"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", 64)
            save_tables(tb, path)
        assert tables_mod.BLOCK_MAX != 64
        crcs = -(-(n + 1) // 2**18)
        assert crcs == 2
        assert path.stat().st_size == 14 + 2 * (n + 1) + 4 * crcs
        back = load_tables(path)
        assert back.spf.tobytes() == tb.spf.tobytes()
        assert back.mu.tobytes() == tb.mu.tobytes()

    @pytest.mark.parametrize("segment", [None, 1000])
    def test_path_build_writes_the_saved_bytes(self, tmp_path, monkeypatch, segment):
        """build_tables(n, path) writes, segment by segment, the bytes that
        save_tables writes from the whole arrays, around the check-block
        edges (also from segments of 1000 entries, which straddle them), and
        returns the file mapped read-only."""
        if segment is not None:
            monkeypatch.setattr(tables_mod, "SIEVE_SEGMENT", segment)
        block = tables_mod._CHECK_ENTRIES
        for n in (2, 3, 4, block - 1, block, block + 1, 2 * block + 1):
            saved, built = tmp_path / f"saved_{n}.bin", tmp_path / f"built_{n}.bin"
            save_tables(build_tables(n), saved)
            tb = build_tables(n, built)
            assert built.read_bytes() == saved.read_bytes(), n
            assert tb.n_max == n and not tb.spf.flags.writeable
            assert_same_tables(tb, load_tables(saved))
        assert not list(tmp_path.glob("*.tmp"))

    def test_path_build_memory_does_not_grow_with_n(self, tmp_path):
        """A build into a file holds one segment, not the tables: its traced
        allocations grow by at most 0.1 byte per entry between 10**6 and
        4 * 10**6 entries, where an in-memory build takes 2."""
        ns = (1_000_000, 4_000_000)
        peaks = []
        for n in ns:
            tracemalloc.start()
            try:
                build_tables(n, tmp_path / f"primelab_tables_{n}.bin")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (ns[1] - ns[0]) <= 0.1

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A write that fails part-way leaves neither the target nor a temp
        file, and the partial bytes are never visible at the target."""
        tb = build_tables(3000)
        path = tmp_path / "primelab_tables_3000.bin"
        real = np.ascontiguousarray
        seen_at_failure = []

        def fail_at_spf(arr, dtype=None):  # once the header is written
            if arr is tb.spf:
                seen_at_failure.append(path.exists())
                raise OSError("disk full")
            return real(arr, dtype=dtype)

        monkeypatch.setattr(tables_mod.np, "ascontiguousarray", fail_at_spf)
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

    def test_cache_dir_build_is_the_mapped_file(self, tmp_path, monkeypatch, mapped_rss):
        """With a cache dir and no file that serves the request, the tables
        are sieved into the file and mapped from it, and the smaller file is
        removed."""
        save_tables(build_tables(1000), tmp_path / "primelab_tables_1000.bin")
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(tmp_path))
        tb = tables_mod.tables_for(3000)
        assert [p.name for p in tmp_path.iterdir()] == ["primelab_tables_3000.bin"]
        assert not tb.spf.flags.writeable and not tb.mu.flags.writeable
        np.count_nonzero(tb.spf)  # read spf through the mapping
        assert mapped_rss(tmp_path / "primelab_tables_3000.bin") >= tb.spf.nbytes
        assert_same_tables(tb, build_tables(3000))

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
