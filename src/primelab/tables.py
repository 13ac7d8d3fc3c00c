"""Sieved arithmetic tables: spf stored; mu, phi, Lambda and psi derived.

For all n <= n_max the tables store

* ``spf``       smallest prime factor of a composite n, 0 at a prime
                (uint16; spf[0] = 0, spf[1] = 1),

and derive from it, on first read,

* ``mu``            Moebius function (int8),
* ``phi``           Euler totient (int64),
* ``prime_powers``  the prime powers q <= n_max and Lambda(q) = log p,
* ``psi_steps``     psi at 0 and at each prime power: one long-double
                    running sum over Lambda(q), rounded once per entry,
* ``lam``           von Mangoldt function (float64; log p at prime powers),
* ``psi_prefix``    psi_prefix[x] = psi(x), psi_steps repeated over the gaps.

The least prime factor of a composite n <= TABLE_MAX is at most
isqrt(TABLE_MAX) < 2**16, and at a prime it is n itself, which the index
already gives: so spf fits in 16 bits, and ``factor_blocks`` decodes it
(k where spf[k] = 0) a block at a time for the recurrences of mu and phi
below.

One segmented sieve makes spf (``sieve_segments``): segments of
SIEVE_SEGMENT = 2**18 entries, one check block of the cache file, sieved in
turn by the primes p <= isqrt(n_max) of ``eratosthenes``, the one plain
sieve of Eratosthenes, which ``constants.primes_up_to`` caches too.  In a
segment [lo, hi) every p with p^2 < hi writes spf = p at its multiples
>= p^2, the largest p first so the least prime factor stays.  The same
segments, read as they come and never stored, are the one prime stream
(``prime_blocks``): the primes of each block of BLOCK_MAX entries, with
one segment held whatever n.  mu and phi come from a dyadic-block
recurrence: for n in [2^i, 2^(i+1)) write p = spf(n) and m = n/p.  Then m < 2^i, so every n of the block reads only
finished entries and the block is one vectorised numpy step: mu = 0 and
phi = phi(m) p where p = spf(m), and mu = -mu(m) and phi = phi(m) (p-1)
otherwise.  The commands read mu only up to R, for the lambda_R weights,
and up to n^(2/3) for ``sieve``'s Mertens and squarefree counts
(``mertens_squarefree``).

``dyadic_blocks`` yields the blocks, split further so that no step's
temporaries exceed BLOCK_MAX = 2**16 entries.  The lemmas' walk is a
segmented sieve of its own, in blocks of BLOCK_MAX values: the primes up
to isqrt(x) from ``eratosthenes`` multiply their factors into a block at
their multiples and mark their multiples of p^2, and the one larger prime
a squarefree n may have comes last (``lemmas._walk``).  It reads no table
and keeps no array over n, and a walk that needs only prefix sums takes
them as the blocks pass (``lemmas._LadderWalk``).  ``cumsum_blocks`` streams a running sum over an
array or over such blocks, carrying as many earlier sums as a window
difference needs.  ``PairwiseSum`` is the one sum over streamed blocks:
fed them in order, it returns np.sum of all their entries bit for bit, in
numpy's pairwise order, holding O(log n) partial sums; it serves the lemma
rungs and every sum over n of ``correlations`` and ``moments``.

``psi_blocks`` is the one route to psi: each block's primes, its prime
powers and psi at each of them.  Fed the prime stream it is what ``sieve``
reads, so ``sieve`` keeps no table and neither reads nor writes the cache;
the lemmas' Euler products read the same stream.  Two readers of
``ArithTables`` hand Lambda and psi out by block, and every command that
reads tables reads them through these alone: ``von_mangoldt(lo, hi)``
gives Lambda over any one range, and ``psi_step_blocks(top)`` is
``psi_blocks`` fed the table's own spf, which the psi moments repeat over
the gaps.

The stored array takes 2 bytes per entry, so n_max = 10**7 costs ~20 MB.
mu adds 1 byte and phi 8 bytes per entry once read.  lam and psi_prefix
would add 8 bytes per entry, and prime_powers and psi_steps 8 to 16 bytes
per prime power (about 8% of the entries at 10**6), but no command reads
them: the two readers hold O(BLOCK_MAX) entries whatever n.  They stay,
read-only, as the references the tests compare those readers with;
psi_steps is taken from prime_powers alone, so psi_prefix derives no lam.
A build in memory holds the 2 bytes per entry and one segment's buffer
(512 KiB at 2**18 entries); a build into a file (``build_tables`` with a
path) writes each segment where it belongs in the file as it is sieved and
then maps the file, so it holds only the segment's buffer, whatever n_max.
``build_tables`` refuses n_max above TABLE_MAX, the limit of the int32
arithmetic in the recurrences.

``tables_for`` is the one provider every table reader goes through, and it
does one of three things: it maps a prefix of the largest cache file in
PRIMELAB_CACHE_DIR that reaches n_max; with a cache dir but no such file it
sieves into a new file there, which replaces the smaller files; with no
cache dir it sieves afresh in memory.  The process keeps no build, so
repeated requests in one process are what the cache dir is for.  A cache
file is a small versioned header, spf, then a CRC32 of every block of
_CHECK_ENTRIES = 2**18 entries, all little-endian; that block is part of
the file format and does not follow BLOCK_MAX.
``load_tables`` maps the file read-only and checks the blocks that cover
the requested prefix on every load, reading them with ``os.preadv`` into
one reused buffer rather than through the mapping: the mapping then holds
only the pages a command reads, pages it never touches are never loaded,
and damaged bytes are never used.  A reader that passes through the tables
once drops the pages behind it (``ArithTables.release``), so a pass over a
mapped file holds only the pages around its current block, not all it has
passed: the two readers above do so for every command.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
import math
import mmap
import os
import re
import struct
import zlib

import numpy as np

_MAGIC = b"PRLB"
_FORMAT_VERSION = 4

#: environment variable naming the directory for cached table files
CACHE_DIR_ENV = "PRIMELAB_CACHE_DIR"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class ArithTables:
    """Container for the sieved array; index n is the integer n itself."""

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

    @cached_property
    def prime_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """(q, Lambda(q)) over the prime powers q <= n_max, q ascending: those
        of each block of spf (``_prime_powers_between``) joined."""
        blocks = [_prime_powers_between(primes, lo, hi, self._higher_powers)
                  for lo, hi, primes in _prime_blocks([(0, self.n_max + 1, self.spf)])]
        return tuple(_read_only(np.concatenate(parts)) for parts in zip(*blocks))

    @cached_property
    def psi_steps(self) -> np.ndarray:
        """float64, psi_steps[i] = psi(q[i - 1]) over the prime powers q, and
        psi_steps[0] = 0: psi(x) is psi_steps[number of prime powers <= x].

        One long-double running sum over Lambda(q) in ascending q (not
        np.sum, which sums pairwise), taken block by block through
        ``cumsum_blocks`` and rounded to float64 once per entry: the
        additions of one np.cumsum, without its long-double output.  Lambda
        is +0.0 off the prime powers and adding +0.0 never changes a sum, so
        the bits are those of one long-double cumsum over all of lam.  The
        reference the tests hold ``psi_blocks`` to.
        """
        logs = self.prime_powers[1]
        steps = np.zeros(logs.size + 1, dtype=np.float64)
        for lo, hi, run in cumsum_blocks(logs, np.longdouble):
            steps[lo + 1 : hi + 1] = run
        return _read_only(steps)

    @cached_property
    def lam(self) -> np.ndarray:
        """float64 von Mangoldt Lambda(n)."""
        return _read_only(_von_mangoldt(*self.prime_powers, self.n_max))

    @cached_property
    def psi_prefix(self) -> np.ndarray:
        """float64, psi_prefix[x] = sum_{n<=x} Lambda(n): psi_steps
        repeated over the gaps between the prime powers."""
        gaps = np.diff(self.prime_powers[0], prepend=0, append=self.n_max + 1)
        return _read_only(np.repeat(self.psi_steps, gaps))

    @cached_property
    def _higher_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """The prime powers p^e <= n_max with e >= 2 and their log p."""
        return _higher_prime_powers(self.n_max)

    def von_mangoldt(self, lo: int, hi: int) -> np.ndarray:
        """float64 Lambda(lo..hi-1), hi <= n_max + 1, 0 at n <= 1: lo may
        be negative.  The values come from the prime powers in the range
        alone, so no dense lam is derived, and the table pages below hi
        are dropped once read (``release``): a reader of ascending ranges
        holds only the pages around its current one."""
        out = np.zeros(hi - lo, dtype=np.float64)
        start = max(lo, 0)
        primes = _primes_in(self.spf[start : max(hi, start)], start)
        q, logs = _prime_powers_between(primes, lo, hi, self._higher_powers)
        out[q - lo] = logs
        self.release(hi)
        return out

    def psi_step_blocks(self, top: int):
        """Yield (lo, hi, q, steps) over the blocks [lo, hi) of BLOCK_MAX
        entries covering 0..top, top <= n_max, in order: the blocks of
        ``psi_blocks`` fed the primes of this table's spf, read a block at a
        time, so the steps are those the streamed sieve gives, bit for bit.
        The table pages up to a block's end are dropped when the next block
        is asked for.
        """
        blocks = _prime_blocks([(0, top + 1, self.spf)])
        for lo, hi, _primes, q, steps in psi_blocks(top, blocks):
            yield lo, hi, q, steps
            self.release(hi)

    def release(self, hi: int) -> None:
        """Drop the mapped file pages of spf up to, not including, the one
        that holds entry hi: for a reader that has passed them and will not
        read them again.  All of them, not only the last block's: a read
        fault may map a whole page-cache folio, pages below the read
        included, and those would stay mapped.  A later read maps them in
        from the file once more; tables in memory, and the derived arrays,
        are left as they are."""
        view = self.spf
        while isinstance(view, np.ndarray):
            view = view.base
        if not (isinstance(view, memoryview) and isinstance(view.obj, mmap.mmap)
                and hasattr(mmap, "MADV_DONTNEED")):
            return
        at = self.spf.ctypes.data - np.frombuffer(view, np.uint8).ctypes.data
        end = (at + hi * self.spf.itemsize) // mmap.PAGESIZE * mmap.PAGESIZE
        if end > 0:
            view.obj.madvise(mmap.MADV_DONTNEED, 0, end)


# ---------------------------------------------------------------------------
# sieve: spf by segments; the dyadic blocks of the recurrences
# ---------------------------------------------------------------------------

#: most entries one recurrence step handles; bounds its temporary arrays
BLOCK_MAX = 1 << 16

#: entries per segment of the sieve: one check block of the table file, so a
#: build that writes its segments as they come closes one CRC per segment
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
    sieving primes from it, and ``constants.primes_up_to`` its cached
    prime list."""
    is_prime = np.ones(top + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(top) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def sieve_segments(n: int):
    """Yield (lo, hi, spf) over the segments [lo, hi) of SIEVE_SEGMENT
    entries covering 0..n, in order: spf (uint16) of lo..hi-1, as the
    tables store it.

    For each prime p with p^2 < hi, spf is set to p at the multiples >= p^2,
    largest p first, so the least prime factor is written last.  spf is a
    view of a buffer reused from segment to segment, so it is only valid
    until the next segment is asked for.
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
        if lo == 0:
            spf[1:2] = 1  # spf[1] = 1 where n >= 1
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
    in the block (int64), read off the segments of ``sieve_segments(n)``.
    The one prime stream: it holds one segment and one block's primes, no
    list of all the primes up to n.  n above TABLE_MAX raises ValueError
    here, before anything is sieved.
    """
    if n > TABLE_MAX:
        raise ValueError(f"a prime sieve to {n} is beyond {TABLE_MAX}")
    return _prime_blocks(sieve_segments(n))


def _prime_blocks(segments):
    """Yield (lo, hi, primes) over the segments (start, end, spf) of spf
    entries start..end-1, each cut into blocks of BLOCK_MAX entries, and
    read a block at a time: the n >= 2 in [lo, hi) where spf[n] = 0."""
    for start, end, spf in segments:
        for lo in range(start, end, BLOCK_MAX):
            hi = min(lo + BLOCK_MAX, end)
            yield lo, hi, _primes_in(spf[lo - start : hi - start], lo)


def _primes_in(spf: np.ndarray, lo: int) -> np.ndarray:
    """The primes among lo..lo + spf.size - 1, lo >= 0, ascending (int64),
    from spf, the entries of those n: the n >= 2 where it is 0."""
    skip = max(2 - lo, 0)
    primes = np.flatnonzero(spf[skip:] == 0)
    primes += lo + skip
    return primes


def psi_blocks(n: int, blocks=None):
    """Yield (lo, hi, primes, q, steps) over the blocks [lo, hi) of primes
    (lo, hi, primes) that cover 0..n in order: q the prime powers in the
    block, ascending (int64), steps[0] psi before the block and
    steps[1 + i] = psi(q[i]), so psi(x) for x in [lo, hi) is
    steps[number of q <= x].

    The blocks are by default the stream of ``prime_blocks(n)``, which
    keeps no table, and for ``ArithTables.psi_step_blocks`` those of the
    table's own spf.  Lambda is np.log at the primes and math.log of p at
    the higher powers p^e (``_prime_powers_between``), and psi is one
    long-double running sum over it in ascending q, carried unrounded from
    block to block and rounded to float64 once per entry: the additions of
    one long-double np.cumsum over all of Lambda, whatever the blocks.
    """
    if blocks is None:
        blocks = prime_blocks(n)
    higher = _higher_prime_powers(n)
    run = np.zeros(1, dtype=np.longdouble)
    for lo, hi, primes in blocks:
        q, logs = _prime_powers_between(primes, lo, hi, higher)
        run = np.concatenate((run[-1:], logs))
        np.cumsum(run, out=run)
        yield lo, hi, primes, q, run.astype(np.float64)


def _higher_prime_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, logs) over the prime powers q = p^e <= n with e >= 2, q ascending
    (int64), and logs = math.log(p): 555 of them at 10^7, from the primes
    up to the square root (``eratosthenes``)."""
    higher = []
    for p in eratosthenes(math.isqrt(n)).tolist():
        lp = math.log(p)
        q = p * p
        while q <= n:
            higher.append((q, lp))
            q *= p
    higher.sort()
    return (np.array([q for q, _ in higher], dtype=np.int64),
            np.array([lp for _, lp in higher], dtype=np.float64))


def _prime_powers_between(primes: np.ndarray, lo: int, hi: int, higher) -> tuple[np.ndarray, np.ndarray]:
    """(q, logs) over the prime powers lo <= q < hi, ascending: the primes
    in [lo, hi), ascending (int64), with np.log of each, and the higher
    powers of ``_higher_prime_powers`` in the range inserted among them.
    lo may be negative.  Where the range holds no higher power, q is
    primes itself."""
    higher_q, higher_logs = higher
    logs = primes.astype(np.float64)
    np.log(logs, out=logs)
    a, b = np.searchsorted(higher_q, (lo, hi))
    if a == b:
        return primes, logs
    at = np.searchsorted(primes, higher_q[a:b])
    return np.insert(primes, at, higher_q[a:b]), np.insert(logs, at, higher_logs[a:b])


def _von_mangoldt(q: np.ndarray, logs: np.ndarray, n: int) -> np.ndarray:
    """The dense float64 Lambda(0..n) from its values at the prime powers."""
    lam = np.zeros(n + 1, dtype=np.float64)
    lam[q] = logs
    return lam


def cumsum_blocks(values, dtype, keep: int = 0):
    """Yield (lo, hi, s) over the blocks of ``values``, read in turn as one
    array: the slices of BLOCK_MAX entries of an array, or the arrays of an
    iterable, each of at most BLOCK_MAX entries (a walk's blocks, say).
    s[keep + i] is the running sum of the entries before index lo + i + 1,
    accumulated in dtype, and s[:keep] holds the keep running sums before
    the block (0 before the first entry), so s[keep:] - s[:-keep] are the
    block's keep-term windows.

    The running sums are carried from block to block in the head of one
    buffer of BLOCK_MAX + max(keep, 1) entries, so the additions are exactly
    those of one long np.cumsum, without its n-entry output; s is only
    valid until the next block is asked for.
    """
    if isinstance(values, np.ndarray):
        values = [values[lo : lo + BLOCK_MAX] for lo in range(0, values.size, BLOCK_MAX)]
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


def build_tables(n_max: int, path: str | os.PathLike | None = None) -> ArithTables:
    """Sieve spf up to n_max (inclusive); the derived arrays, mu among
    them, follow on first read.

    Without a path the segments of ``sieve_segments`` fill an array in
    memory, 2 bytes/entry (uint16 spf).  With one, each segment is written
    to a table file at path as it is sieved, and the file is mapped
    (``load_tables``): the build holds one segment, not the table.
    Requires n_max >= 2; n_max above TABLE_MAX is refused.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > TABLE_MAX:
        raise ValueError(f"n_max={n_max} exceeds the table bound {TABLE_MAX}")
    if path is not None:
        _write_tables(path, n_max, sieve_segments(n_max))
        return load_tables(path)
    spf = np.empty(n_max + 1, dtype=np.uint16)
    for lo, hi, segment in sieve_segments(n_max):
        spf[lo:hi] = segment
    return ArithTables(n_max=n_max, spf=spf)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

_ARRAY_SPEC = (
    ("spf", "<u2"),
)
_HEADER = struct.Struct("<4sHQ")  # magic, format version, n_max
_ENTRY_BYTES = sum(np.dtype(dt).itemsize for _name, dt in _ARRAY_SPEC)

#: entries per checksummed block of each array: part of the cache format, so
#: fixed, whatever BLOCK_MAX is
_CHECK_ENTRIES = 1 << 18
_CRC = np.dtype("<u4")


def _check_blocks(entries: int) -> int:
    """The checksummed blocks that cover the first ``entries`` entries."""
    return -(-entries // _CHECK_ENTRIES)


def save_tables(tables: ArithTables, path: str | os.PathLike) -> None:
    """Write tables to a little-endian binary file: magic, version, n_max,
    the arrays, then the CRC32 of each block of _CHECK_ENTRIES entries of
    each array in turn."""
    def blocks():
        arrays = [np.ascontiguousarray(getattr(tables, name), dtype=dt)
                  for name, dt in _ARRAY_SPEC]
        for lo in range(0, tables.n_max + 1, _CHECK_ENTRIES):
            hi = min(lo + _CHECK_ENTRIES, tables.n_max + 1)
            yield lo, hi, *(arr[lo:hi] for arr in arrays)

    _write_tables(path, tables.n_max, blocks())


def _write_tables(path: str | os.PathLike, n_max: int, blocks) -> None:
    """Write the table file of ``save_tables`` from blocks (lo, hi, spf)
    that cover 0..n_max in order: each block's arrays are written at their
    offsets as it comes, and its CRC32 is carried into the check blocks it
    overlaps, so no more than one block is held.

    The bytes go to a temporary file in the same directory, which is renamed
    onto ``path`` only when complete: an interrupted or concurrent write never
    leaves a partial file at ``path`` for a later run to load.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    crcs = [[0] * _check_blocks(n_max + 1) for _spec in _ARRAY_SPEC]
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, n_max))
            for lo, hi, *arrays in blocks:
                offset = _HEADER.size
                for (_name, dt), arr, sums in zip(_ARRAY_SPEC, arrays, crcs):
                    data = np.ascontiguousarray(arr, dtype=dt)
                    fh.seek(offset + lo * data.itemsize)
                    fh.write(data.data)
                    for start in range(lo - lo % _CHECK_ENTRIES, hi, _CHECK_ENTRIES):
                        b = start // _CHECK_ENTRIES
                        piece = data[max(start, lo) - lo : min(start + _CHECK_ENTRIES, hi) - lo]
                        sums[b] = zlib.crc32(piece, sums[b])
                    offset += (n_max + 1) * data.itemsize
            fh.seek(_HEADER.size + (n_max + 1) * _ENTRY_BYTES)
            fh.write(np.array(crcs, dtype=_CRC).data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_tables(path: str | os.PathLike, n_max: int | None = None) -> ArithTables:
    """Map a file written by save_tables read-only, as tables up to n_max.

    n_max defaults to the file's own and may not exceed it.  The magic, the
    version and the exact file size are checked, and so is the checksum of
    every block that holds one of the first n_max + 1 entries of an array,
    on every load; any failure raises ValueError and no data is used.  The
    blocks are read for the check with ``os.preadv`` from the file the
    mapping was made from, into one reused buffer, not through the mapping:
    each array is a read-only view of the first n_max + 1 entries of the
    mapping, which holds no page until a command reads it.
    """
    with open(path, "rb") as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        if size < _HEADER.size:
            raise ValueError(f"truncated table file {os.fspath(path)!r}")
        magic, version, file_max = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"not a primelab table file (magic {magic!r})")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported table format version {version} in {os.fspath(path)!r} "
                f"(this release reads version {_FORMAT_VERSION}); delete the file"
            )
        blocks = _check_blocks(file_max + 1)
        expected = (_HEADER.size + (file_max + 1) * _ENTRY_BYTES
                    + len(_ARRAY_SPEC) * blocks * _CRC.itemsize)
        if size != expected:
            raise ValueError(
                f"table file {os.fspath(path)!r} has {size} bytes, "
                f"expected {expected} for n_max={file_max}"
            )
        n_max = file_max if n_max is None else n_max
        if not 0 <= n_max <= file_max:
            raise ValueError(f"n_max={n_max} outside the file's range [0, {file_max}]")
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        _check_crcs(fd, os.fspath(path), file_max, _check_blocks(n_max + 1))
    arrays = {}
    offset = _HEADER.size
    for name, dt in _ARRAY_SPEC:
        arrays[name] = np.frombuffer(mapping, dtype=dt, count=n_max + 1, offset=offset)
        offset += (file_max + 1) * arrays[name].itemsize
    return ArithTables(n_max=n_max, **arrays)


def _check_crcs(fd: int, path: str, file_max: int, need: int) -> None:
    """Check the CRC32 of the first ``need`` blocks of each array of the
    table file open at fd, read with ``os.preadv`` into one block-sized
    buffer."""
    blocks = _check_blocks(file_max + 1)
    raw = os.pread(fd, len(_ARRAY_SPEC) * blocks * _CRC.itemsize,
                   _HEADER.size + (file_max + 1) * _ENTRY_BYTES)
    crcs = np.frombuffer(raw, dtype=_CRC).reshape(len(_ARRAY_SPEC), blocks)
    widths = [np.dtype(dt).itemsize for _name, dt in _ARRAY_SPEC]
    buf = memoryview(bytearray(min(_CHECK_ENTRIES, file_max + 1) * max(widths)))
    offset = _HEADER.size
    for (name, _dt), width, sums in zip(_ARRAY_SPEC, widths, crcs):
        for b in range(need):
            lo = b * _CHECK_ENTRIES
            data = buf[: (min(lo + _CHECK_ENTRIES, file_max + 1) - lo) * width]
            if os.preadv(fd, [data], offset + lo * width) != data.nbytes \
                    or zlib.crc32(data) != sums[b]:
                raise ValueError(
                    f"table file {path!r} fails its checksum in {name} "
                    f"block {b}; delete the file"
                )
        offset += (file_max + 1) * width


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
    ``primelab_tables_<m>.bin`` with m >= n_max, the largest such file is
    mapped read-only (``load_tables``).  With a cache dir but no such file,
    the tables are sieved straight into a file there (``build_tables`` with
    a path) and mapped, and the smaller files it now serves are removed: the
    dir ends with one file, the largest request's, whatever order the
    requests came in.  Without a cache dir the tables are sieved afresh in
    memory (``build_tables``); the process keeps no build between calls, so
    a cache dir is what serves repeated requests.  A cache dir that is not
    an existing directory raises ValueError; it is never created.
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
    tables = build_tables(n_max, _cache_path(cache_dir, n_max))
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
