"""Sieved arithmetic tables: spf stored; mu and phi derived; primes,
Lambda and psi streamed.

For all n <= n_max the tables store ``spf``, the least prime factor of a
composite n and 0 at a prime (uint16; spf[0] = 0, spf[1] = 1), and derive
from it on first read ``mu`` (Moebius, int8) and ``phi`` (totient,
int64).  The least prime factor of a composite n <= TABLE_MAX is below
2**16, so spf fits in 16 bits; ``factor_blocks`` decodes it a block at a
time for the recurrences of mu and phi: for n in [2^i, 2^(i+1)) with
p = spf(n) and m = n/p < 2^i, mu = 0 and phi = phi(m) p where p divides
m, and mu = -mu(m) and phi = phi(m) (p-1) otherwise, one vectorised step
per ``dyadic_blocks`` block of at most BLOCK_MAX = 2**16 entries.  The
commands read mu only up to R, for the lambda_R weights, and up to
n^(2/3) for ``sieve``'s Mertens and squarefree counts
(``mertens_squarefree``).  spf takes 2 bytes per entry, mu 1 and phi 8.

Two segmented sieves run over segments of SIEVE_SEGMENT = 2**18 entries,
with the sieving primes p <= isqrt(n) of ``eratosthenes``, the one plain
sieve (``constants.primes_up_to`` returns it too), and hold one segment
whatever n.  ``sieve_segments`` makes spf for ``build_tables``: in each
segment every p with p^2 < hi writes p at its multiples >= p^2, the
largest p first.  ``odd_sieve_segments`` is the prime stream's: one bool
per odd n, cleared at the odd multiples >= p^2 of the odd p, over any
range [start, n] alone.  ``_prime_blocks`` reads it in blocks of
BLOCK_MAX entries, never stored (``prime_blocks``); Lambda has one
stream on it, ``_prime_power_blocks``, each block's prime powers and
Lambda at them.  ``psi_blocks`` sums that into psi, which ``sieve`` and
the psi moments read; ``LambdaWindows`` scatters it over ascending
windows, sieving from the first window's start once, so a pattern sum of
the mixed correlations reads Lambda off one pass; ``von_mangoldt(lo,
hi)`` is one such window.  No command reads Lambda or psi from a table.

The lemmas' walk is a segmented sieve of its own (``lemmas._walk``).
``cumsum_blocks`` streams a running sum over blocks, carrying as many
earlier sums as a window difference needs, and ``PairwiseSum`` is the one
sum over streamed blocks: np.sum of all their entries, bit for bit,
holding O(log n) partial sums.

``tables_for`` is the one provider every table reader goes through.  It
reads the prefix of the largest cache file in PRIMELAB_CACHE_DIR that
reaches n_max, or sieves afresh in memory and, with a cache dir, saves the
build there, replacing the smaller files; the process keeps no build.  A
cache file (format 5) is a small versioned header, spf at the odd n alone
(2 at every even n > 2), then a CRC32 of every block of _CHECK_ENTRIES =
2**18 stored entries, little-endian: ~10 MB at n_max = 10**7.
``load_tables`` reads only the blocks that cover the odd n of the prefix,
checks each before using it and fills in the even n, so damaged bytes are
never used.  ``build_tables`` refuses n_max above TABLE_MAX, the limit of
the int32 arithmetic in the recurrences.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
import math
import os
import re
import struct
import zlib

import numpy as np

_MAGIC = b"PRLB"
_FORMAT_VERSION = 5

#: environment variable naming the directory for cached table files
CACHE_DIR_ENV = "PRIMELAB_CACHE_DIR"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class ArithTables:
    """The sieved spf up to n_max and the two arrays the commands derive
    from it, mu and phi, on first read; index n is the integer n itself.
    Lambda and psi are not table arrays: they stream (``psi_blocks``,
    ``von_mangoldt``)."""

    n_max: int
    spf: np.ndarray  # uint16 least prime factor of a composite, 0 at a prime; spf[1]=1

    @cached_property
    def mu(self) -> np.ndarray:
        """int8 Moebius, mu[0] = 0: mu(n) = 0 if p divides m and -mu(m)
        otherwise, where p = spf(n) and m = n/p, one dyadic block at a time
        (``_cofactor_blocks``)."""
        mu = np.zeros(self.n_max + 1, dtype=np.int8)
        mu[1] = 1
        for lo, hi, _p, m, again in _cofactor_blocks(self.spf):
            mu[lo:hi] = np.where(again, 0, -mu[m])
        return _read_only(mu)

    @cached_property
    def phi(self) -> np.ndarray:
        """int64 totient, phi[0] = 0: phi(n) = phi(m) p if p divides m and
        phi(m) (p-1) otherwise, where p = spf(n) and m = n/p, one dyadic
        block at a time (``_cofactor_blocks``)."""
        phi = np.zeros(self.n_max + 1, dtype=np.int64)
        phi[1] = 1
        for lo, hi, p, m, again in _cofactor_blocks(self.spf):
            phi[lo:hi] = phi[m] * np.where(again, p, p - 1)
        return _read_only(phi)


# ---------------------------------------------------------------------------
# sieve: spf by segments; the dyadic blocks of the recurrences
# ---------------------------------------------------------------------------

#: most entries one recurrence step handles; bounds its temporary arrays
BLOCK_MAX = 1 << 16

#: entries per segment of the sieve, the one buffer it holds whatever n; the
#: cache file's check block (_CHECK_ENTRIES) is fixed apart from it
SIEVE_SEGMENT = 1 << 18

#: largest n_max the tables hold: the recurrences index with int32, and
#: the least prime factor of a composite up to it is below 2**16
#: (uint16 spf)
TABLE_MAX = 2**31 - 2


def dyadic_blocks(n: int):
    """Yield half-open blocks [lo, hi) covering 2..n, in order, with hi <= 2*lo.

    For k in a block and any divisor d >= 2 of k, k/d <= (hi-1)/2 < lo: a
    recurrence from k/d to k reads only entries of earlier blocks.
    """
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + BLOCK_MAX, n + 1)
        yield lo, hi
        lo = hi


def eratosthenes(top: int) -> np.ndarray:
    """The primes up to top, ascending, as int64: a plain sieve of
    Eratosthenes over top + 1 bytes.  The segmented sieve takes its
    sieving primes from it, and ``constants.primes_up_to`` its prime
    list."""
    is_prime = np.ones(top + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(top) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def sieve_segments(n: int):
    """Yield (lo, hi, spf) over the segments [lo, hi) of SIEVE_SEGMENT
    entries covering 0..n, in order: spf (uint16) of lo..hi-1, as the
    tables store it, for ``build_tables``.  Each prime p with p^2 < hi
    sets spf = p at its multiples >= p^2, largest p first, so the least
    prime factor is written last.  spf is a view of a buffer reused from
    segment to segment, valid until the next segment is asked for.
    """
    primes = eratosthenes(math.isqrt(n)).tolist()
    buf = np.empty(min(SIEVE_SEGMENT, n + 1), dtype=np.uint16)
    for lo in range(0, n + 1, SIEVE_SEGMENT):
        hi = min(lo + SIEVE_SEGMENT, n + 1)
        spf = buf[: hi - lo]
        spf.fill(0)
        for p in reversed(primes):
            if p * p < hi:
                spf[max(p * p - lo, -lo % p) :: p] = p
        if lo <= 1 < hi:
            spf[1 - lo] = 1
        yield lo, hi, spf


def factor_blocks(spf: np.ndarray):
    """Yield (lo, hi, k, p) over dyadic_blocks(spf.size - 1): k holds
    lo..hi-1 and p the least prime factor of each, both int32, p decoded
    from spf (k itself where spf[k] = 0, at a prime).

    k and p are views of buffers reused from block to block, so they are
    only valid until the next block is asked for.
    """
    n = spf.size - 1
    size = min((n + 1) // 2, BLOCK_MAX)  # the largest of dyadic_blocks(n)
    ramp = np.arange(size, dtype=np.int32)
    k_buf = np.empty(size, dtype=np.int32)
    p_buf = np.empty(size, dtype=np.int32)
    prime_buf = np.empty(size, dtype=bool)
    for lo, hi in dyadic_blocks(n):
        k, p, prime = k_buf[: hi - lo], p_buf[: hi - lo], prime_buf[: hi - lo]
        np.add(ramp[: hi - lo], lo, out=k)
        np.equal(spf[lo:hi], 0, out=prime)
        np.copyto(p, spf[lo:hi])
        np.copyto(p, k, where=prime)
        yield lo, hi, k, p


def _cofactor_blocks(spf: np.ndarray):
    """Yield (lo, hi, p, m, again) over ``factor_blocks(spf)``: p the least
    prime factor of each k in [lo, hi), m = k/p and again = (p divides m),
    which holds where spf[m] = p or, at a prime m, where m = p.  Every m is
    below lo, so a recurrence from m to k reads only finished entries."""
    for lo, hi, k, p in factor_blocks(spf):
        m = k // p
        yield lo, hi, p, m, (spf[m] == p) | (m == p)


def prime_blocks(n: int):
    """Yield (lo, hi, primes) over blocks [lo, hi) of at most BLOCK_MAX
    entries covering 0..n, n >= 0, in order: primes the ascending primes
    in the block (int64), read off ``odd_sieve_segments(n)``.
    The one prime stream: it holds one segment and one block's primes, no
    list of all the primes up to n.  n above TABLE_MAX raises ValueError
    here, before anything is sieved.
    """
    _check_sieve_bound(n)
    return _prime_blocks(n)


def _check_sieve_bound(n: int) -> None:
    """Refuse a sieve to n above TABLE_MAX, before anything is sieved."""
    if n > TABLE_MAX:
        raise ValueError(f"a prime sieve to {n} is beyond {TABLE_MAX}")


def odd_sieve_segments(n: int, start: int = 0):
    """Yield (lo, hi, odd) over the segments [lo, hi) of SIEVE_SEGMENT
    entries covering start..n, 0 <= start, in order: odd[i] is True where
    lo | 1 + 2 i is 1 or an odd prime.  Only that range is sieved, so a
    range high up costs its own entries, a byte per odd n, and the primes
    up to isqrt(n).  odd is a view of a buffer reused from segment to
    segment."""
    primes = eratosthenes(math.isqrt(n))[1:].tolist()
    buf = np.empty((min(SIEVE_SEGMENT, max(n + 1 - start, 0)) + 1) // 2, dtype=bool)
    for lo in range(start, n + 1, SIEVE_SEGMENT):
        hi = min(lo + SIEVE_SEGMENT, n + 1)
        odd = buf[: (hi - (lo | 1) + 1) // 2]
        odd.fill(True)
        for p in primes:
            if p * p >= hi:
                break
            m = max(p * p, lo + -lo % p)
            m += p * (m % 2 == 0)  # the first odd multiple
            odd[(m - (lo | 1)) // 2 :: p] = False
        yield lo, hi, odd


def _prime_blocks(n: int, start: int = 0):
    """Yield (lo, hi, primes) over the blocks [lo, hi) of at most BLOCK_MAX
    entries covering start..n, 0 <= start, in order, cut from the segments
    of ``odd_sieve_segments(n, start)``: primes the primes in the block,
    ascending (int64).  The one place primes are read off a sieve."""
    for a, b, odd in odd_sieve_segments(n, start):
        for lo in range(a, b, BLOCK_MAX):
            hi = min(lo + BLOCK_MAX, b)
            first = max(lo, 2) | 1  # from 3: 1 is no prime
            primes = np.flatnonzero(odd[(first - (a | 1)) // 2 : ((hi | 1) - (a | 1)) // 2])
            primes *= 2
            primes += first
            if lo <= 2 < hi:
                primes = np.concatenate(([2], primes))
            yield lo, hi, primes


def _prime_power_blocks(n: int, start: int = 0):
    """Yield (lo, hi, primes, q, logs) over the blocks of
    ``_prime_blocks(n, start)``: q the prime powers in [lo, hi), ascending
    (int64), and logs = Lambda(q), np.log at the primes and math.log of p
    at the higher powers p^e (``_prime_powers_between``).  The one stream
    of Lambda: ``psi_blocks`` sums it and ``LambdaWindows`` scatters it."""
    higher = _higher_prime_powers(start, n + 1)
    for lo, hi, primes in _prime_blocks(n, start):
        yield lo, hi, primes, *_prime_powers_between(primes, lo, hi, higher)


def psi_blocks(n: int):
    """Yield (lo, hi, primes, q, logs, steps) over the blocks [lo, hi) of
    ``_prime_power_blocks(n)``, which keeps no table, covering 0..n in
    order: q the prime powers in the block, ascending (int64), logs =
    Lambda(q), steps[0] psi before the block and steps[1 + i] = psi(q[i]),
    so psi(x) for x in [lo, hi) is steps[number of q <= x].

    psi is one long-double running sum over Lambda in ascending q, carried
    unrounded from block to block and rounded to float64 once per entry:
    the additions of one long-double np.cumsum over all of Lambda, whatever
    the blocks.  n above TABLE_MAX raises ValueError before anything is
    sieved.
    """
    _check_sieve_bound(n)
    run = np.zeros(1, dtype=np.longdouble)
    for lo, hi, primes, q, logs in _prime_power_blocks(n):
        run = np.concatenate((run[-1:], logs))
        np.cumsum(run, out=run)
        yield lo, hi, primes, q, logs, run.astype(np.float64)


def von_mangoldt(lo: int, hi: int) -> np.ndarray:
    """float64 Lambda(lo..hi-1), 0 at n <= 1: lo may be negative.  One
    window of ``LambdaWindows(hi - 1)``, so the range [max(lo, 0), hi)
    alone is sieved, with the primes up to isqrt(hi - 1): a range high up
    costs its own entries, and no table is read.  The values are those of
    ``psi_blocks``, bit for bit.  hi - 1 above TABLE_MAX raises ValueError
    before anything is sieved.
    """
    return LambdaWindows(hi - 1)(lo, hi)


class LambdaWindows:
    """Lambda over windows [lo, hi) with ascending lo and hi - 1 <= top,
    from one pass of ``_prime_power_blocks(top, start)``: the one source of
    Lambda over ranges, which ``von_mangoldt`` and the pattern sums of
    ``correlations`` read.

    The pass starts at the first window's max(lo, 0), when that window is
    asked for, so only the integers from there up to the last window's end
    are sieved, once, however much the windows overlap.  The prime-power
    blocks a later window may still reach are carried between calls; each
    call returns a new float64 array, 0 at n <= 1, with the bits of
    ``psi_blocks``' Lambda.  top above TABLE_MAX raises ValueError here,
    before anything is sieved.
    """

    def __init__(self, top: int):
        _check_sieve_bound(top)
        self.top = top
        self._blocks = None  # the pass, opened at the first window that reads n >= 0
        self._held: list[tuple[int, np.ndarray, np.ndarray]] = []  # (hi, q, logs) per block
        self._read_to = self._lo = None

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if hi - 1 > self.top or (self._lo is not None and lo < self._lo):
            raise ValueError(f"window [{lo}, {hi}) starts before the last one or ends past {self.top}")
        self._lo = lo
        out = np.zeros(hi - lo, dtype=np.float64)
        if hi <= max(lo, 0):
            return out
        if self._blocks is None:
            self._blocks = _prime_power_blocks(self.top, max(lo, 0))
            self._read_to = max(lo, 0)
        self._held = [block for block in self._held if block[0] > lo]
        while self._read_to < hi:
            _a, self._read_to, _primes, q, logs = next(self._blocks)
            self._held.append((self._read_to, q, logs))
        for _b, q, logs in self._held:
            i, k = np.searchsorted(q, (lo, hi))
            out[q[i:k] - lo] = logs[i:k]
        return out


def _higher_prime_powers(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, logs) over the prime powers lo <= q = p^e < hi with e >= 2, q
    ascending (int64), and logs = math.log(p): 555 of them below 10^7,
    from the primes up to isqrt(hi - 1) (``eratosthenes``)."""
    higher = []
    for p in eratosthenes(math.isqrt(max(hi - 1, 0))).tolist():
        q = p * p
        while q < hi:
            if q >= lo:
                higher.append((q, math.log(p)))
            q *= p
    higher.sort()
    return (np.array([q for q, _ in higher], dtype=np.int64),
            np.array([lp for _, lp in higher], dtype=np.float64))


def _prime_powers_between(primes: np.ndarray, lo: int, hi: int, higher) -> tuple[np.ndarray, np.ndarray]:
    """(q, logs) over the prime powers lo <= q < hi, ascending: the primes
    in [lo, hi), ascending (int64), with np.log of each, and the higher
    powers of ``_higher_prime_powers`` in the range placed among them.
    Where the range holds no higher power, q is primes itself."""
    higher_q, higher_logs = higher
    logs = primes.astype(np.float64)
    np.log(logs, out=logs)
    a, b = np.searchsorted(higher_q, (lo, hi))
    if a == b:
        return primes, logs
    # where each higher power goes in the joined arrays; the primes fill the rest
    at = np.searchsorted(primes, higher_q[a:b])
    at += np.arange(b - a)
    rest = np.ones(primes.size + b - a, dtype=bool)
    rest[at] = False
    q = np.empty(rest.size, dtype=np.int64)
    q[at], q[rest] = higher_q[a:b], primes
    joined = np.empty(rest.size, dtype=np.float64)
    joined[at], joined[rest] = higher_logs[a:b], logs
    return q, joined


def cumsum_blocks(values, dtype, keep: int = 0):
    """Yield (lo, hi, s) over the blocks of ``values``, an iterable of
    arrays of at most BLOCK_MAX entries each (a walk's blocks, say), read
    in turn as one array: s[keep + i] is the running sum of the entries before index lo + i + 1,
    accumulated in dtype, and s[:keep] holds the keep running sums before
    the block (0 before the first entry), so s[keep:] - s[:-keep] are the
    block's keep-term windows.

    The running sums are carried from block to block in the head of one
    buffer of BLOCK_MAX + max(keep, 1) entries, so the additions are exactly
    those of one long np.cumsum, without its n-entry output; s is only
    valid until the next block is asked for.
    """
    head = max(keep, 1)
    buf = np.empty(BLOCK_MAX + head, dtype=dtype)
    buf[:head] = 0
    lo = 0
    for block in values:
        hi = lo + block.size
        acc = buf[: hi - lo + head]
        acc[head:] = block
        run = acc[head - 1 :]
        np.cumsum(run, out=run)
        yield lo, hi, acc[head - keep :]
        buf[:head] = acc[-head:]
        lo = hi


#: numpy sums a float64 run of at most this many entries unsplit
#: (PW_BLOCKSIZE of its pairwise summation)
_PAIRWISE_LEAF = 128


class PairwiseSum:
    """np.sum of n float64 entries fed in order, block by block, bit for bit.

    np.sum of a float64 run is 0.0 plus numpy's pairwise sum: a node [a, b)
    of more than 128 entries is the sum of its two nodes either side of
    a + m - m % 8, m = (b - a) // 2, and a node of at most 128 entries is
    added unsplit.  So np.sum of a node's entries is that node's sum (up to
    the sign of a zero, which no later addition but 0.0 + 0.0 can see).
    Each block cuts the tree along its edges into whole nodes: a node
    inside the block is summed as the block passes, and a node of at most
    128 entries across an edge from a copy of its entries once its last
    entry has come.  The node sums are added up the tree as numpy adds
    them, and a finished node's sum is kept only until its sibling's is
    known, so the accumulator holds O(log n) sums and one 128-entry copy,
    whatever n and the block sizes.

    ``add`` takes the next entries; those past the n-th are ignored, so one
    pass of blocks can feed sums of different lengths.  ``total`` is the
    sum once all n entries have come (0.0 for n = 0).  The blocks need not
    outlive the call: a reused buffer may be passed.  Object blocks of
    Python ints, as exact modes make, are summed exactly, in any order,
    and ``total`` is then their Python int sum, np.sum's too.
    """

    def __init__(self, n: int):
        self.n, self.fed = n, 0
        self._done: dict[tuple[int, int], float] = {}  # left nodes awaiting a sibling
        self._leaf = np.empty(min(n, _PAIRWISE_LEAF), dtype=np.float64)
        self._total = 0.0 if n == 0 else None

    def add(self, block: np.ndarray) -> None:
        lo = self.fed
        block = block[: self.n - lo]
        if not block.size:
            return
        self.fed += block.size
        if block.dtype == object:
            self._total = np.sum(block) + (self._total or 0)
            return
        root = self._node(0, self.n, block, lo)
        if root is not None:
            self._total = 0.0 + root

    @property
    def total(self):
        if self.fed < self.n:
            raise ValueError(f"{self.fed} of {self.n} entries summed")
        return self._total

    def _node(self, a: int, b: int, block: np.ndarray, lo: int) -> float | None:
        """The sum of node [a, b), which the block [lo, lo + block.size)
        meets, if its last entry has now come; None otherwise."""
        hi = lo + block.size
        if lo <= a and b <= hi:
            return float(np.sum(block[a - lo : b - lo]))
        if b - a <= _PAIRWISE_LEAF:
            s, e = max(a, lo), min(b, hi)
            self._leaf[s - a : e - a] = block[s - lo : e - lo]
            return float(np.sum(self._leaf[: b - a])) if b <= hi else None
        m = (b - a) // 2
        mid = a + m - m % 8
        left = self._done.pop((a, mid), None)
        if left is None:
            left = self._node(a, mid, block, lo)
        right = None if left is None or mid >= hi else self._node(mid, b, block, lo)
        if right is None:
            if left is not None:
                self._done[a, mid] = left
            return None
        return left + right


def build_tables(n_max: int) -> ArithTables:
    """Sieve spf up to n_max (inclusive) in memory, 2 bytes/entry (uint16
    spf), from the segments of ``sieve_segments``; the derived arrays, mu
    among them, follow on first read.  Requires n_max >= 2; n_max above
    TABLE_MAX is refused.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > TABLE_MAX:
        raise ValueError(f"n_max={n_max} exceeds the table bound {TABLE_MAX}")
    spf = np.empty(n_max + 1, dtype=np.uint16)
    for lo, hi, segment in sieve_segments(n_max):
        spf[lo:hi] = segment
    return ArithTables(n_max=n_max, spf=spf)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHQ")  # magic, format version, n_max
_SPF = np.dtype("<u2")

#: stored entries (odd n, so 2**19 integers) per checksummed block of spf:
#: part of the cache format, so fixed, whatever BLOCK_MAX is
_CHECK_ENTRIES = 1 << 18
_CRC = np.dtype("<u4")


def save_tables(tables: ArithTables, path: str | os.PathLike) -> None:
    """Write tables to a little-endian binary file: magic, version, n_max,
    spf at the odd n <= n_max, then the CRC32 of each block of
    _CHECK_ENTRIES of those stored entries.  The even n need no bytes: spf
    is 2 at every even n > 2 and 0 at n = 0 and 2.

    The odd entries are copied and written one check block at a time,
    through one buffer of a block.  The bytes go to a temporary file in the
    same directory, which is renamed onto ``path`` only when complete: an
    interrupted or concurrent write never leaves a partial file at ``path``
    for a later run to load.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    odd = tables.spf[1::2]
    buf = np.empty(min(odd.size, _CHECK_ENTRIES), dtype=_SPF)
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, tables.n_max))
            crcs = []
            for lo in range(0, odd.size, _CHECK_ENTRIES):
                block = buf[: min(odd.size - lo, _CHECK_ENTRIES)]
                np.copyto(block, odd[lo : lo + block.size])
                fh.write(block.data)
                crcs.append(zlib.crc32(block))
            fh.write(np.array(crcs, dtype=_CRC).data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_tables(path: str | os.PathLike, n_max: int | None = None) -> ArithTables:
    """Read a file written by save_tables as tables up to n_max.

    n_max defaults to the file's own and may not exceed it.  The magic, the
    version and the exact file size are checked, and so is the checksum of
    every block that holds one of the odd n <= n_max, on every load; any
    failure raises ValueError and no data is used.  Only those blocks are
    read, one at a time into one buffer of a block, each checked before its
    entries are copied into the odd entries of a new (n_max + 1)-entry spf,
    beside the even entries, 2 but 0 at n = 0 and 2: each pair of entries
    is written as one uint32.  spf is read-only, and
    what happens to the file afterwards does not reach the tables: they
    hold their own n_max + 1 entries and nothing else of the file.
    """
    name = os.fspath(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"truncated table file {name!r}")
        magic, version, file_max = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"not a primelab table file (magic {magic!r})")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported table format version {version} in {name!r} "
                f"(this release reads version {_FORMAT_VERSION}); delete the file"
            )
        stored = (file_max + 1) // 2
        blocks = -(-stored // _CHECK_ENTRIES)
        expected = _HEADER.size + stored * _SPF.itemsize + blocks * _CRC.itemsize
        if size != expected:
            raise ValueError(
                f"table file {name!r} has {size} bytes, "
                f"expected {expected} for n_max={file_max}"
            )
        n_max = file_max if n_max is None else n_max
        if not 0 <= n_max <= file_max:
            raise ValueError(f"n_max={n_max} outside the file's range [0, {file_max}]")
        spf = np.empty(n_max + 1, dtype=_SPF)
        # (spf[2k], spf[2k + 1]) as one little-endian uint32: 2 | odd << 16
        pairs = spf[: (n_max + 1) // 2 * 2].view("<u4")
        need = -(-pairs.size // _CHECK_ENTRIES)
        fh.seek(_HEADER.size + stored * _SPF.itemsize)
        crcs = np.frombuffer(fh.read(need * _CRC.itemsize), dtype=_CRC)
        if crcs.size != need:
            raise ValueError(f"truncated table file {name!r}")
        fh.seek(_HEADER.size)
        buf = np.empty(min(stored, _CHECK_ENTRIES), dtype=_SPF)
        for b, crc in enumerate(crcs):
            lo = b * _CHECK_ENTRIES
            block = buf[: min(stored - lo, _CHECK_ENTRIES)]
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"truncated table file {name!r}")
            if zlib.crc32(block) != crc:
                raise ValueError(
                    f"table file {name!r} fails its checksum in spf block {b}; delete the file"
                )
            out = pairs[lo : lo + _CHECK_ENTRIES]
            np.left_shift(block[: out.size], 16, out=out, dtype=out.dtype)
            out |= 2
    spf[2 * pairs.size :] = 2
    spf[0:3:2] = 0  # n = 0 and the prime 2
    return ArithTables(n_max=n_max, spf=_read_only(spf))


# ---------------------------------------------------------------------------
# the table provider
# ---------------------------------------------------------------------------

_CACHE_FILE = re.compile(r"primelab_tables_(\d+)\.bin")


def _cache_files(cache_dir: str) -> dict[int, str]:
    """The table files in cache_dir, keyed on their n_max."""
    files = {}
    for name in os.listdir(cache_dir):
        match = _CACHE_FILE.fullmatch(name)
        if match:
            files[int(match[1])] = os.path.join(cache_dir, name)
    return files


def tables_for(n_max: int) -> ArithTables:
    """Tables up to max(n_max, 2): the one way the CLI and the library get them.

    If PRIMELAB_CACHE_DIR names a directory holding some
    ``primelab_tables_<m>.bin`` with m >= n_max, the prefix of the largest
    such file is read and checked (``load_tables``).  Otherwise the tables
    are sieved afresh in memory (``build_tables``), and with a cache dir
    they are saved there (``save_tables``) and the smaller files the new
    one serves are removed: the dir ends with one file, the largest
    request's, whatever order the requests came in.  The process keeps no
    build between calls, so a cache dir is what serves repeated requests.
    A cache dir that is not an existing directory raises ValueError; it is
    never created.
    """
    n_max = max(n_max, 2)
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if not cache_dir:
        return build_tables(n_max)
    if not os.path.isdir(cache_dir):
        raise ValueError(f"{CACHE_DIR_ENV}={cache_dir!r} is not a directory")
    while True:
        files = _cache_files(cache_dir)
        served = [m for m in files if m >= n_max]
        if not served:
            break
        try:
            return load_tables(files[max(served)], n_max)
        except FileNotFoundError:
            continue  # a larger file replaced it since the listing
    tables = build_tables(n_max)
    save_tables(tables, _cache_path(cache_dir, n_max))
    for m, path in _cache_files(cache_dir).items():
        if m < n_max:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return tables


def _cache_path(cache_dir: str, n_max: int) -> str:
    return os.path.join(cache_dir, f"primelab_tables_{n_max}.bin")


# ---------------------------------------------------------------------------
# scalar number theory on top of the tables
# ---------------------------------------------------------------------------

def mertens_squarefree(n: int) -> tuple[int, int]:
    """(M(n), Q(n)) for 0 <= n <= TABLE_MAX, exactly: the Mertens function
    M(n) = sum_{k<=n} mu(k) and the count Q(n) of squarefree k in 1..n,
    from mu up to u = floor(n^(2/3)) alone, of tables built in memory
    (``build_tables``): no cache file is read or written.

    Q(n) = sum_{d<=sqrt(n)} mu(d) floor(n/d^2), and sqrt(n) <= u.  M is a
    running sum of mu up to u; above u it takes the values M(n//k), k from
    n//(u + 1) down to 1, by M(x) = 1 - sum_{2<=d<=x} M(x//d) (as in
    Deleglise and Rivat, "Computing the summation of the Moebius
    function"): with r = isqrt(x), the d <= r read M(n//(kd)), from this
    list where kd <= n//(u + 1) and from the running sum otherwise, and the
    d > r fall on the values v = x//d <= x//(r + 1) <= r, each M(v) counted
    for its x//v - x//(v + 1) values of d (x//r > x//(r + 1), so no d <= r
    falls on such a v).
    """
    u = round(n ** (2 / 3))
    u += (u + 1) ** 3 <= n * n
    u -= u**3 > n * n
    mu = build_tables(max(u, 2)).mu[: u + 1]
    d = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
    squarefree = int(np.dot(mu[1 : d.size + 1].astype(np.int64), n // (d * d)))
    small = np.cumsum(mu, dtype=np.int64)
    top = n // (u + 1)
    big = np.zeros(top + 1, dtype=np.int64)  # big[k] = M(n // k)
    for k in range(top, 0, -1):
        x, r = n // k, math.isqrt(n // k)
        split = min(r, top // k)
        d = np.arange(split + 1, r + 1, dtype=np.int64)
        v = np.arange(1, x // (r + 1) + 1, dtype=np.int64)
        counts = x // v - x // (v + 1)
        big[k] = 1 - (big[2 * k : split * k + 1 : k].sum() + small[x // d].sum()
                      + np.dot(small[v], counts))
    return int(big[1] if top else small[n]), squarefree


#: largest n that factorize accepts; a prime just below the bound takes
#: about 0.1 s of trial division
FACTOR_MAX = 10**12


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1 in ascending p ([] for n = 1).

    Trial-divides by 2 and the odd numbers up to isqrt(n); refuses
    n > FACTOR_MAX.
    """
    if n < 1:
        raise ValueError(f"factorization requires n >= 1, got {n}")
    if n > FACTOR_MAX:
        raise ValueError(f"n={n} lies beyond the trial-division bound {FACTOR_MAX}")
    out: list[tuple[int, int]] = []
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        elif n % p:
            p += 1 if p == 2 else 2
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    """Ascending distinct primes dividing n != 0; the sign of n is ignored."""
    if n == 0:
        raise ValueError("every prime divides 0")
    return tuple(p for p, _e in factorize(abs(n)))


def squarefree_divisors(n: int) -> list[int]:
    """Ascending squarefree divisors of n != 0 (the divisors of its kernel)."""
    divs = [1]
    for p in prime_divisors(n):
        divs += [d * p for d in divs]
    return sorted(divs)


def squarefree_kernel(j: int) -> int:
    """j* = prod_{p | j} p for j != 0; the sign of j is ignored.

    Raises ValueError at j = 0 (every prime divides 0, so j* is undefined).
    """
    if j == 0:
        raise ValueError("squarefree kernel undefined at j = 0")
    return math.prod(prime_divisors(j))
