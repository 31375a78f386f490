"""Bulk verification sweeps over primes.

The KH sweep takes its primes in chunks of CHUNK_PRIMES. batch_residues
computes a chunk's residues with an accumulating remainder tree over exact
integers (Costa, Gerbicz & Harvey, "A search for Wilson primes", 2014;
Andrejić & Tatarević, "Searching for a counterexample to Kurepa's
conjecture", 2016): the recurrence steps below the chunk's first prime are
folded modulo the product of its primes, and the steps between its primes
descend a product tree. The fold runs over a fixed grid of _GRID-step
blocks whose exact maps are memoised per process, so every chunk reuses the
blocks that the chunks below it built. The memo keeps blocks from the
bottom of the grid up while their integers fit in _MEMO_BYTES (8 MiB,
the blocks below about 1.7*10^6; the prefix of a sweep to x takes about
x*log2(x)/4 bytes, 5 MB at 10^6), and the steps above it are folded in
blocks built afresh; kh_sweep empties it when it ends. Each chunk is a pure
function of its primes, so work may be partitioned across processes; chunk
boundaries depend only on the range, so the emitted record stream is
identical for every worker count.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import threading
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Protocol

import numpy as np

from .exact import gcd_pair, iter_left_factorials
from .modular import VerificationRecord, residue_direct
from .primes import PrimeSieve, build_sieve

__all__ = [
    "MAX_SWEEP_PRIME",
    "CHUNK_PRIMES",
    "batch_residues",
    "CheckpointSink",
    "MemorySink",
    "kh_sweep",
    "kh2_scan",
    "a_set_scan",
    "h4_witness_search",
    "residue_summatory",
]

log = logging.getLogger(__name__)

# Largest prime whose square fits below 2^63. The kernel computes in exact
# integers; this bound only keeps the chunk's prime and residue arrays int64.
MAX_SWEEP_PRIME = 3_037_000_499
# chunk = unit of the kernel, checkpoint cadence, and work distribution;
# must stay fixed or old checkpoints land mid-chunk and resumed ledgers
# would interleave differently
CHUNK_PRIMES = 1024

_KERNEL_METHODS = ("forward_v", "forward_t", "backward_s")
# width of the prefix fold's memoised blocks: block k holds steps
# k*_GRID..(k+1)*_GRID-1, whose exact map is at most about half as many bits
# as the product of a full chunk above it
_GRID = 512
# bytes of block integers the memo keeps per process; a memo that grew with
# the range would take 0.66 GB at 10^8 and 7.5 GB at 10^9
_MEMO_BYTES = 8 << 20

# An affine map x -> a + b*x, stored as (a, b).
_Map = tuple[int, int]
_IDENTITY: _Map = (0, 1)


def _step_maps(method: str, lo: int, hi: int) -> list[_Map]:
    """The maps of recurrence steps lo..hi-1, with each two neighbouring
    steps composed into one entry, which halves the Python-level work.

    Step i is (1, -i) for forward_v, ((-1)^i, i) for forward_t and (1, i)
    for backward_s.
    """
    top = hi - (hi - lo) % 2
    if method == "forward_v":
        maps = [(-i, i * (i + 1)) for i in range(lo, top, 2)]
    elif method == "forward_t":
        maps = [(-i if i % 2 else i, i * (i + 1)) for i in range(lo, top, 2)]
    else:
        maps = [(i + 1, i * (i + 1)) for i in range(lo, top, 2)]
    if top < hi:  # an odd count leaves the last step on its own
        i = top
        single = {"forward_v": (1, -i), "forward_t": ((-1) ** i, i), "backward_s": (1, i)}
        maps.append(single[method])
    return maps


def _compose_forward(first: _Map, second: _Map) -> _Map:
    """second after first: the forward recurrences apply later steps outside."""
    (a1, b1), (a2, b2) = first, second
    return a2 + b2 * a1, b2 * b1


def _compose_backward(first: _Map, second: _Map) -> _Map:
    """first after second: the backward recurrence applies later steps inside."""
    (a1, b1), (a2, b2) = first, second
    return a1 + b1 * a2, b1 * b2


def _product_levels(leaves: list, combine, top: int) -> list[list]:
    """Product-tree levels, leaves first. Each level combines neighbouring
    pairs of the one below (an odd tail moves up as is), until a level has
    at most top nodes."""
    levels = [leaves]
    while len(leaves) > top:
        it = iter(leaves)
        paired = [combine(x, y) for x, y in zip(it, it)]
        if len(leaves) % 2:
            paired.append(leaves[-1])
        leaves = paired
        levels.append(leaves)
    return levels


def _exact_map(method: str, compose, lo: int, hi: int) -> _Map:
    """The exact composition of steps lo..hi-1 (identity when empty)."""
    maps = _step_maps(method, lo, hi)
    return _product_levels(maps, compose, 1)[-1][0] if maps else _IDENTITY


class _FoldMemo:
    """Exact maps of the prefix fold's grid blocks, keyed by (method, block
    index), kept from block 0 up while their integers fit in _MEMO_BYTES.

    A fold reads blocks in ascending order and stops at the first one the
    memo neither holds nor has room for, so each method's stored blocks are
    0..n-1. Inserting is idempotent, so threads that share the memo at worst
    build a block twice.
    """

    def __init__(self) -> None:
        self.maps: dict[tuple[str, int], _Map] = {}
        self.nbytes = 0

    def clear(self) -> None:
        self.maps = {}
        self.nbytes = 0

    def block(self, method: str, k: int) -> _Map | None:
        """Block k's exact map, built and kept on a miss while the memo has
        room; None once it is full."""
        got = self.maps.get((method, k))
        if got is None and self.nbytes < _MEMO_BYTES:
            backward = method == "backward_s"
            compose = _compose_backward if backward else _compose_forward
            first = 1 if backward else 2
            got = _exact_map(method, compose, max(first, k * _GRID), (k + 1) * _GRID)
            self.maps[(method, k)] = got
            self.nbytes += (got[0].bit_length() + got[1].bit_length()) // 8
        return got


_FOLD_MEMO = _FoldMemo()


def _reducer(modulus: int):
    """x -> x % modulus by Barrett reduction, exact for every int x.

    The prefix fold reduces one product per block below the chunk by one
    modulus. A reciprocal computed once turns each reduction into two
    multiplications, which CPython does in subquadratic time, where `%` is
    schoolbook long division. The estimated quotient is off by at most 3
    when |x| < 2^(2m), and the loops correct it; larger x falls back to `%`.
    """
    m = modulus.bit_length()
    recip = (1 << (2 * m)) // modulus

    def reduce(x: int) -> int:
        if x.bit_length() >= 2 * m:
            return x % modulus
        r = x - ((x >> (m - 1)) * recip >> (m + 1)) * modulus
        while r < 0:
            r += modulus
        while r >= modulus:
            r -= modulus
        return r

    return reduce


def _then(state: _Map, seg: _Map, reduce, compose) -> _Map:
    """The prefix map state followed by the steps of seg, reduced by reduce."""
    a, b = compose(state, seg)
    return reduce(a), reduce(b)


def batch_residues(primes: np.ndarray, method: str = "forward_v") -> np.ndarray:
    """rest(!q, q) for an ascending array of odd primes, by a remainder tree.

    Each recurrence step is an affine map x -> a + b*x over exact integers
    (_step_maps), and a prime's residue is the constant term a of the
    composition of its steps: i = 2..q-1 for forward_v and forward_t, with
    later steps outermost; i = 1..q-2 for backward_s, with earlier steps
    outermost.
    With M the product of the primes, the steps before the first prime are
    folded modulo M: first over the fixed grid of _GRID-step blocks that
    the per-process memo (_FOLD_MEMO) holds or has room for, then, from the
    first block it has no room for and for the partial block that ends at
    the first prime, in blocks about as wide as M built on the fly. The
    result then descends an accumulating remainder tree (Costa, Gerbicz &
    Harvey, Math. Comp. 83, 2014): a node's prefix, reduced modulo its primes'
    product, passes to its left child as is and to its right child after
    the exact steps that separate the two. Leaves are the primes, so each
    prime sees exactly its own steps. No float is involved.
    """
    if method not in _KERNEL_METHODS:
        raise ValueError(f"method must be one of {_KERNEL_METHODS}, got {method!r}")
    q = np.ascontiguousarray(primes, dtype=np.int64)
    if q.size == 0:
        return np.zeros(0, dtype=np.int64)
    if q[0] < 3 or int(q.max()) > MAX_SWEEP_PRIME:
        raise ValueError(f"primes must lie in [3, {MAX_SWEEP_PRIME}]")
    if np.any(np.diff(q) <= 0):
        raise ValueError("primes must be strictly ascending")
    backward = method == "backward_s"
    compose = _compose_backward if backward else _compose_forward
    ps = q.tolist()
    # prime p takes the steps first..end-1
    first = 1 if backward else 2
    ends = [p - 1 if backward else p for p in ps]

    moduli = _product_levels(ps, operator.mul, 1)
    modulus = moduli.pop()[0]
    # A forward prefix starts as the constant map x -> 0 (v_1 = t_1 = 0), so
    # it stays constant and its scale costs nothing; later backward steps go
    # inside the prefix, which therefore starts as the identity.
    state = _IDENTITY if backward else (0, 0)
    # memoised grid blocks below the first end; a short chunk's M can be
    # narrower than a block, and the reducer takes its `%` path there
    reduce = _reducer(modulus)
    k = 0
    while k < ends[0] // _GRID:
        seg = _FOLD_MEMO.block(method, k)
        if seg is None:
            break
        state = _then(state, seg, reduce, compose)
        k += 1
    # the rest in blocks about as wide as M, kept 64 bits short so that
    # every product stays in the reducer's fast range
    width = max(64, (modulus.bit_length() - 64) // ends[0].bit_length())
    for lo in range(max(first, k * _GRID), ends[0], width):
        seg = _exact_map(method, compose, lo, min(lo + width, ends[0]))
        state = _then(state, seg, reduce, compose)

    gaps = [_exact_map(method, compose, e0, e1) for e0, e1 in zip(ends, ends[1:])]
    # gap k holds the steps between the ends of primes k and k+1, so a
    # node's gap carries a prefix from its first prime to the prime after
    # its last; the root's gap is never needed
    gaps = _product_levels(gaps + [_IDENTITY], compose, 2)
    states = [state]
    while moduli:
        # each level is dropped once the descent has passed it
        level_moduli, level_gaps = moduli.pop(), gaps.pop()
        below = []
        for n, state in enumerate(states):
            # m.__rmod__ is x -> x % m
            left = level_moduli[2 * n].__rmod__
            below.append(_then(state, _IDENTITY, left, compose))
            if 2 * n + 1 < len(level_moduli):
                right = level_moduli[2 * n + 1].__rmod__
                below.append(_then(state, level_gaps[2 * n], right, compose))
        states = below
    return np.array([head for head, _scale in states], dtype=np.int64)


class CheckpointSink(Protocol):
    """Receives completed-prefix notifications from a sweep.

    frontier is the largest prime through which all work is already
    recorded (None for a fresh sweep). advance takes only the new frontier;
    it is called after every completed chunk, in ascending order, and must
    persist before returning if the sink is durable.
    """

    @property
    def frontier(self) -> int | None: ...

    def advance(self, frontier: int) -> None: ...


@dataclass
class MemorySink:
    """In-memory checkpoint sink; handy default and test double."""

    frontier: int | None = None
    advances: int = 0

    def advance(self, frontier: int) -> None:
        if self.frontier is not None and frontier < self.frontier:
            raise ValueError(f"frontier regressed: {frontier} < {self.frontier}")
        self.frontier = frontier
        self.advances += 1


def _kernel_task(chunk: np.ndarray, method: str) -> tuple[np.ndarray, int]:
    t0 = time.perf_counter_ns()
    residues = batch_residues(chunk, method)
    return residues, time.perf_counter_ns() - t0


def _exit_with(sweep: int) -> None:
    """Pool worker initializer: a worker waiting for its next chunk would
    outlive a killed sweep, so a watcher thread ends it once its own parent
    is gone, or the sweep's process. The parent is the sweep's process under
    fork and spawn, and under forkserver the server, which exits with it."""
    parent = os.getppid()

    def watch() -> None:
        try:
            while os.getppid() == parent:
                os.kill(sweep, 0)  # raises once the sweep's process is gone
                time.sleep(0.5)
        finally:
            os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def kh_sweep(
    prime_range: tuple[int, int],
    worker_count: int = 1,
    checkpoint_sink: CheckpointSink | None = None,
    *,
    method: str = "forward_v",
    sieve: PrimeSieve | None = None,
) -> Iterator[VerificationRecord]:
    """Verify p ∤ !p for every odd prime in [lo, hi], streaming records.

    Records come out in ascending prime order whatever the worker count;
    chunking is a pure function of the range, so two sweeps over the same
    range are record-for-record identical (timing fields aside). A zero
    residue is flagged loudly on the log and in the record, and the sweep
    carries on; a violation is a result, not an error. The sink's frontier
    suppresses re-emission of already-recorded primes on resume; the sink
    is advanced after each completed chunk. Closing the stream early, or an
    exception in it, terminates the pool's workers rather than wait for
    their chunks.
    """
    lo, hi = prime_range
    if lo < 3:
        raise ValueError(f"kh_sweep requires lo >= 3, got {lo}")
    if hi > MAX_SWEEP_PRIME:
        raise ValueError(f"hi {hi} exceeds sweep bound {MAX_SWEEP_PRIME}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    if hi < lo:
        return
    if sieve is None:
        sieve = build_sieve(hi)
    primes = sieve.primes_up_to(hi)
    primes = primes[primes >= max(lo, 3)]
    if primes.size == 0:
        return

    frontier = checkpoint_sink.frontier if checkpoint_sink is not None else None
    chunks = [primes[s : s + CHUNK_PRIMES] for s in range(0, primes.size, CHUNK_PRIMES)]
    if frontier is not None:
        chunks = [c for c in chunks if int(c[-1]) > frontier]

    def emit(
        chunk: np.ndarray, residues: np.ndarray, elapsed_ns: int
    ) -> Iterator[VerificationRecord]:
        per_prime_ns = elapsed_ns // max(int(chunk.size), 1)
        for p, r in zip(chunk.tolist(), residues.tolist()):
            if frontier is not None and p <= frontier:
                continue
            violation = r == 0
            if violation:
                log.warning("violation: prime %d divides its left factorial", p)
            yield VerificationRecord(
                prime=p,
                residue=r,
                violates_kh=violation,
                elapsed_ns=per_prime_ns,
                method=method,
            )

    pool = None
    if worker_count > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(worker_count, initializer=_exit_with, initargs=(os.getpid(),))
    try:
        results = (pool.map if pool is not None else map)(_kernel_task, chunks, repeat(method))
        for chunk, (residues, elapsed) in zip(chunks, results):
            yield from emit(chunk, residues, elapsed)
            if checkpoint_sink is not None:
                checkpoint_sink.advance(int(chunk[-1]))
    except BaseException:
        if pool is not None:
            # closed early or failed: end the workers rather than wait for
            # the chunks they hold (what terminate_workers does from 3.14)
            workers = list(pool._processes.values())
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.terminate()
        raise
    finally:
        if pool is not None:
            pool.shutdown()
        # the memo serves the chunks of one sweep; pool workers drop theirs
        # with the pool
        _FOLD_MEMO.clear()


def kh2_scan(
    p_range: tuple[int, int], n_bound: int, sieve: PrimeSieve | None = None
) -> list[tuple[int, int]]:
    """All (p, n) with p in the range, n <= n_bound, and p^2 | !n.

    Odd primes run the mod-p^2 accumulation over every n up to n_bound
    (exhaustively, below p as well, where a hit would contradict nothing).
    p = 2 is handled through residue_direct mod 4 and surfaces the one
    known hit, !3 = 2^2.
    """
    lo, hi = p_range
    if n_bound < 2:
        raise ValueError(f"kh2_scan requires n_bound >= 2, got {n_bound}")
    if lo < 2:
        raise ValueError(f"kh2_scan requires lo >= 2, got {lo}")
    hits: list[tuple[int, int]] = []
    if lo <= 2 <= hi:
        for n in range(2, n_bound + 1):
            if residue_direct(n, 4).residue == 0:
                hits.append((2, n))
    if hi >= 3:
        if sieve is None:
            sieve = build_sieve(hi)
        for p in sieve.primes_up_to(hi).tolist():
            if p < max(lo, 3):
                continue
            m = p * p
            if m > (1 << 63) - 1:
                raise ValueError(f"p^2 overflows machine width at p = {p}")
            fact, kn = 1, 0
            for n in range(1, n_bound + 1):
                kn = (kn + fact) % m
                if kn == 0 and n >= 2:
                    hits.append((p, n))
                fact = fact * n % m
    return hits


def a_set_scan(r: int, n_bound: int, primes_only: bool = False) -> list[int]:
    """Members of A(r) up to n_bound: all n in (r, n_bound] with !n ≡ r (mod n).

    primes_only restricts to odd primes (n > 2), the conjectural domain,
    where r = 0 membership would be a divisibility violation. The full scan
    keeps the whole interval, including the trivial 2 ∈ A(0).
    """
    if r < 0:
        raise ValueError(f"a_set_scan requires r >= 0, got {r}")
    if n_bound < r + 1:
        raise ValueError(f"n_bound must be at least r+1 = {r + 1}, got {n_bound}")
    members = []
    if primes_only:
        sieve = build_sieve(max(n_bound, 3))
        candidates = [int(p) for p in sieve.primes_up_to(n_bound) if p > max(r, 2)]
    else:
        candidates = list(range(max(r + 1, 2), n_bound + 1))
    for n in candidates:
        if residue_direct(n, n).residue == r % n:
            members.append(n)
    return members


def h4_witness_search(n_bound: int, s_bound: int) -> list[tuple[int, int, int]]:
    """All (n, s, g) with 2 <= n < n+s <= n_bound, 1 <= s <= s_bound, and
    g = gcd(K(n), K(n+s)) != 2.

    Any hit falsifies the claim that consecutive-ish left factorials stay
    coprime apart from the shared factor 2.
    """
    if n_bound < 2 or s_bound < 1:
        raise ValueError("h4_witness_search requires n_bound >= 2, s_bound >= 1")
    kvals = {n: kn for n, _fact, kn in iter_left_factorials(n_bound)}
    out = []
    for n in range(2, n_bound):
        for s in range(1, min(s_bound, n_bound - n) + 1):
            g = gcd_pair(kvals[n], kvals[n + s])
            if g != 2:
                out.append((n, s, g))
    return out


def residue_summatory(x: int, sieve: PrimeSieve | None = None) -> tuple[int, float]:
    """(sum of rest(!p, p) over odd primes p <= x, that sum / (x^2/ln x)).

    The ratio is published as an empirical observation; whether it tends to
    a constant is open, and none is asserted.
    """
    if x < 3:
        raise ValueError(f"residue_summatory requires x >= 3, got {x}")
    total = sum(record.residue for record in kh_sweep((3, x), sieve=sieve))
    return total, total / (x * x / math.log(x))
