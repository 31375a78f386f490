"""Bulk verification sweeps over primes.

The KH sweep cuts its primes into chunks of CHUNK_PRIMES, the unit of
records, checkpoints and resume, and hands the kernel spans: runs of whole
chunks of at most SPAN_PRIMES primes, one per worker while there are chunks
enough, cut to even out their estimated work (_spans). The kernel,
batch_residues, computes a span's residues with one accumulating remainder
tree over exact integers (Costa, Gerbicz & Harvey, "A search for Wilson
primes", 2014; Andrejić & Tatarević, "Searching for a counterexample to
Kurepa's conjecture", 2016). It runs two recurrences of one form: the
paper's forward_v (KERNEL_METHOD), whose siblings forward_t and backward_s
stay independent oracles in modular.py and the tests, and the alternating
factorial's, for alternating_divisor_hits. For a sweep to x its work grows
like M(x log x) log x, with M(n) the cost of an n-bit product, where
per-chunk trees that each refold every step below their chunk grow like x^2.
Each span is a pure function of its primes, so work may be partitioned
across processes; chunk boundaries depend only on the range and the prime
the sweep starts above, so the emitted record stream is identical for every
worker count. The sweep is a pure stream of chunks and keeps no checkpoint:
a resumed sweep starts above the checkpoint's frontier, and its consumer
(the `kh` command) writes, counts and checkpoints each chunk.
"""

from __future__ import annotations

import math
import os
import threading
import time
from bisect import bisect_left
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .exact import gcd_pair, iter_left_factorials
from .primes import build_sieve, is_probable_prime

if TYPE_CHECKING:
    import numpy as np

    from .modular import VerificationRecord

__all__ = [
    "MAX_SWEEP_PRIME",
    "CHUNK_PRIMES",
    "SPAN_PRIMES",
    "KERNEL_METHOD",
    "batch_residues",
    "KhChunk",
    "kh_chunks",
    "kh_sweep",
    "sweep_workers",
    "KNOWN_SQUARE_HITS",
    "kh2_scan",
    "a_set_scan",
    "alternating_divisor_hits",
    "h4_witness_search",
    "residue_summatory",
]

# Largest prime whose square fits below 2^63. The kernel computes in exact
# integers; this bound only keeps the span's prime and residue arrays int64.
MAX_SWEEP_PRIME = 3_037_000_499
# chunk = unit of records and checkpoint cadence; must stay fixed or old
# checkpoints land mid-chunk and resumed ledgers would interleave differently
CHUNK_PRIMES = 1024
# span = unit of the kernel and of work distribution: at most this many
# primes, a whole number of chunks, so a sweep to 10^6 (78497 primes) is
# one span
SPAN_PRIMES = 1 << 17

# the recurrence the kernel runs, named in every record, checkpoint and
# summary it feeds
KERNEL_METHOD = "forward_v"
# a leaf of the span tree holds 16 to 32 primes
_LEAF_PRIMES = 32
# Barrett keeps a product in its fast range when each block is this many
# bits narrower than the modulus it is reduced by
_SLACK_BITS = 64
# fewest steps in one block, for moduli too narrow to leave room for any
_MIN_BLOCK_STEPS = 16
# moduli wider than this get their Barrett reciprocal by Newton's iteration
_NEWTON_BITS = 1 << 15
# widest block of a leaf's gap, which the leaf builds one step pair at a time
_LEAF_BITS = 1 << 12

# An affine map x -> a + b*x, stored as (a, b).
_Map = tuple[int, int]
_IDENTITY: _Map = (0, 1)


def _step_maps(lo: int, hi: int, sign: int) -> list[_Map]:
    """The maps of recurrence steps lo..hi-1, step i being v -> 1 + sign*i*v,
    that is (1, sign*i), with each two neighbouring steps composed into one
    entry, (1 + sign*(i+1), i*(i+1)), which halves the Python-level work."""
    top = hi - (hi - lo) % 2
    maps = [(1 + sign * (i + 1), i * (i + 1)) for i in range(lo, top, 2)]
    if top < hi:  # an odd count leaves the last step on its own
        maps.append((1, sign * top))
    return maps


def _compose(first: _Map, second: _Map) -> _Map:
    """second after first: later steps apply outside."""
    (a1, b1), (a2, b2) = first, second
    return a2 + b2 * a1, b2 * b1


def _exact_map(lo: int, hi: int, sign: int) -> _Map:
    """The exact composition of steps lo..hi-1 (identity when empty), by a
    product tree over the step maps."""
    maps = _step_maps(lo, hi, sign)
    if not maps:
        return _IDENTITY
    while len(maps) > 1:
        it = iter(maps)
        paired = [_compose(x, y) for x, y in zip(it, it)]
        if len(maps) % 2:
            paired.append(maps[-1])
        maps = paired
    return maps[0]


def _bits(seg: _Map) -> int:
    return max(seg[0].bit_length(), seg[1].bit_length())


def _blocks(lo: int, hi: int, cap: int, sign: int) -> list[_Map]:
    """The exact maps of steps lo..hi-1 in consecutive blocks of at most
    about cap bits (at least _MIN_BLOCK_STEPS steps each), built on the fly.
    A block's width is even, so every block but the last starts a step pair."""
    width = max(_MIN_BLOCK_STEPS, cap // max(hi - 1, 2).bit_length()) & ~1
    return [_exact_map(s, min(s + width, hi), sign) for s in range(lo, hi, width)]


def _merge(blocks: list[_Map], cap: int) -> list[_Map]:
    """Neighbouring blocks composed while the result stays within cap bits."""
    out = [blocks[0]]
    for seg in blocks[1:]:
        if _bits(out[-1]) + _bits(seg) <= cap:
            out[-1] = _compose(out[-1], seg)
        else:
            out.append(seg)
    return out


def _reciprocal(modulus: int) -> int:
    """floor(2^(2m) / modulus) for an m-bit modulus.

    Above _NEWTON_BITS it takes one Newton step from the reciprocal of the
    modulus's top m/2 + 32 bits, which leaves it off by a unit or two before
    the correction, so it costs a few multiplications where CPython's
    division is schoolbook (at m = 780 kbit, 0.5 s against 1.5 s on a 2-core
    x86-64 host under CPython 3.11).
    """
    m = modulus.bit_length()
    if m <= _NEWTON_BITS:
        return (1 << (2 * m)) // modulus
    shift = m // 2 - 32
    r = _reciprocal(modulus >> shift) << shift
    r += r * ((1 << (2 * m)) - modulus * r) >> (2 * m)
    e = (1 << (2 * m)) - modulus * r
    while e < 0:
        r, e = r - 1, e + modulus
    while e >= modulus:
        r, e = r + 1, e - modulus
    return r


def _reducer(modulus: int):
    """x -> x % modulus by Barrett reduction, exact for every int x.

    A gap's blocks are reduced one after another by the same modulus. A
    reciprocal computed once, on the first x that needs it, turns each
    reduction into two multiplications, which CPython does in subquadratic
    time, where `%` is schoolbook long division. The estimated quotient is
    off by at most 3 when |x| < 2^(2m), and the loops correct it; larger x
    falls back to `%`, and x already in [0, modulus) is returned as is.
    """
    m = modulus.bit_length()
    recip = 0

    def reduce(x: int) -> int:
        nonlocal recip
        if 0 <= x < modulus:
            return x
        if x.bit_length() >= 2 * m:
            return x % modulus
        if not recip:
            recip = _reciprocal(modulus)
        r = x - ((x >> (m - 1)) * recip >> (m + 1)) * modulus
        while r < 0:
            r += modulus
        while r >= modulus:
            r -= modulus
        return r

    return reduce


def _apply(v: int, blocks: list[_Map], modulus: int) -> int:
    """v through the blocks in turn, reduced modulo modulus after each, so
    that no product grows past two moduli."""
    reduce = _reducer(modulus)
    v = reduce(v)
    for c, d in blocks:
        v = reduce(c + d * v)
    return v


class _Span:
    """One kernel call: its primes q, odd and ascending, their leaf groups,
    and the residues v_{p-1} mod p of the recurrence v_1 = start,
    v_i = 1 + sign*i*v_{i-1}, which the descent fills in leaf by leaf."""

    def __init__(self, q: list[int], sign: int, start: int) -> None:
        self.q = q
        self.sign = sign
        groups = -(-len(q) // _LEAF_PRIMES)
        self.bounds = [g * len(q) // groups for g in range(groups + 1)]
        self.residues = [0] * len(q)
        root = self.tree(0, groups)
        cap = root[0].bit_length() - _SLACK_BITS
        self.descend(root, _apply(start, _blocks(2, q[0], cap, sign), root[0]), None)

    def tree(self, g0: int, g1: int) -> list:
        """[modulus, g0, g1, left, right] over leaf groups g0..g1-1; a leaf
        has no children."""
        if g1 - g0 == 1:
            lo, hi = self.bounds[g0], self.bounds[g1]
            return [math.prod(self.q[lo:hi]), g0, g1, None, None]
        mid = (g0 + g1) // 2
        left, right = self.tree(g0, mid), self.tree(mid, g1)
        return [left[0] * right[0], g0, g1, left, right]

    def leaf(self, g: int, modulus: int, v: int, cap: int | None) -> list[_Map] | None:
        """Step the group's recurrence from its first prime to its last,
        modulo the group's product, starting from v, the prefix through the
        first prime, and read each prime's residue off the recurrence at it:
        prime p takes steps 2..p-1. The primes are all odd, so the step pairs
        line up with them.

        Unless cap is None, the same step pairs, on to the next group's
        first prime, are then composed exactly, one after another, into the
        group's gap: blocks of at most cap bits, and of at most _LEAF_BITS,
        so that composing one pair at a time stays cheap.
        """
        lo, hi = self.bounds[g], self.bounds[g + 1]
        ps = self.q[lo:hi]
        maps = _step_maps(ps[0], ps[-1] if cap is None else self.q[hi], self.sign)
        steps = iter(maps)
        out = [v % ps[0]]
        for k in range(1, len(ps)):
            for c, d in islice(steps, (ps[k] - ps[k - 1]) // 2):
                v = (c + d * v) % modulus
            out.append(v % ps[k])
        self.residues[lo:hi] = out
        if cap is None:
            return None
        limit = min(cap, _LEAF_BITS)
        blocks = []
        a, b = _IDENTITY
        for c, d in maps:
            if b.bit_length() + d.bit_length() > limit and b != 1:
                blocks.append((a, b))
                a, b = _IDENTITY
            a, b = c + d * a, d * b
        blocks.append((a, b))
        return blocks

    def descend(self, node: list, v: int, cap: int | None) -> list[_Map] | None:
        """Residues for the node's primes, given v, the prefix through its
        first prime reduced modulo its modulus. Returns the node's gap (the
        steps from its first prime to the first prime after it) as blocks of
        at most cap bits, or None when cap is None: the nodes on the right
        edge of the tree have no prime after them.

        The node is emptied on entry, so that each subtree's moduli are
        freed once the descent has passed it.
        """
        modulus, g0, g1, left, right = node
        node.clear()
        if left is None:
            return self.leaf(g0, modulus, v, cap)
        del modulus
        # a left gap is applied to the right sibling's modulus, a right gap
        # joins its parent's
        left_gap = self.descend(left, _reducer(left[0])(v), right[0].bit_length() - _SLACK_BITS)
        v = _apply(v, left_gap, right[0])
        if cap is None:
            del left_gap
            return self.descend(right, v, None)
        return _merge(left_gap + self.descend(right, v, cap), cap)


def batch_residues(primes: np.ndarray) -> np.ndarray:
    """rest(!q, q) for an ascending array of odd primes, by one remainder
    tree over all of them.

    The kernel runs two recurrences v_i = 1 + s*i*v_{i-1}: here the paper's
    forward_v (KERNEL_METHOD), s = -1, v_1 = 0, rest(!q, q) = v_{q-1} mod q,
    and in alternating_divisor_hits the alternating factorial's. Each step
    is an affine map x -> a + b*x over exact integers (_step_maps), and a
    prime's residue is the composition of its steps i = 2..q-1, later steps
    outermost, applied to v_1. The tests check it against the forward_t and
    backward_s recurrences, computed by independent code, and against the
    exact value of !q.
    The primes are cut into leaf groups of 16 to 32, and a product tree of
    the groups' moduli is built. The steps before the first prime are
    folded once, modulo the root's modulus, in blocks built on the fly. The
    result then descends an accumulating remainder tree (Costa, Gerbicz &
    Harvey, Math. Comp. 83, 2014): a node's prefix, reduced modulo its
    primes' product, passes to its left child as is and to its right child
    after the gap between the two, the exact steps from the left child's
    first prime to the right child's. A gap is held as blocks of about the
    right sibling's modulus, reduced by Barrett after each block, so its
    exact product is never built; a node's gap is its children's blocks
    composed pairwise up to its own sibling's size, and it is freed once
    the descent has applied it. A leaf steps its group's recurrence directly
    modulo the group's product, and composes the same steps exactly into
    the first blocks of the gaps. No float is involved.
    """
    import numpy as np

    q = np.ascontiguousarray(primes, dtype=np.int64)
    if q.size == 0:
        return np.zeros(0, dtype=np.int64)
    if q[0] < 3 or int(q.max()) > MAX_SWEEP_PRIME:
        raise ValueError(f"primes must lie in [3, {MAX_SWEEP_PRIME}]")
    if np.any(np.diff(q) <= 0):
        raise ValueError("primes must be strictly ascending")
    if np.any(q % 2 == 0):
        # a leaf steps in pairs from one end to the next
        raise ValueError("primes must be odd")
    return np.array(_Span(q.tolist(), *_KH).residues, dtype=np.int64)


# the kernel's two recurrences v_i = 1 + s*i*v_{i-1}, as (s, v_1)
_KH = (-1, 0)
_ALTERNATING = (1, 2)


def _work(lo: int, hi: int) -> float:
    """Estimated kernel time of a span of the primes from lo to hi, up to a
    constant factor. Timing batch_residues from 10^5 to 10^6, its descent
    grows like (hi - lo)^1.7 and its prefix fold like lo * (hi - lo)^0.7,
    a prefix step costing 1.0 (at 10^5) to 1.3 (at 10^6) times a descent
    step."""
    return (hi - lo) ** 0.7 * (hi - lo + 1.25 * lo)


def _spans(edges: list[int], worker_count: int) -> list[tuple[int, int]]:
    """Cut chunks 0..n-1, chunk k holding the primes from edges[k] to
    edges[k + 1], into contiguous runs of at most SPAN_PRIMES primes: as
    few as that allows, but one per worker while there are chunks enough.
    The cuts make the most estimated work (_work) on any one run least, so
    that a run which also folds every step below it gets fewer chunks."""
    chunks = len(edges) - 1
    per_span = SPAN_PRIMES // CHUNK_PRIMES
    count = min(chunks, max(-(-chunks // per_span), worker_count))

    def cut(limit: float) -> list[tuple[int, int]]:
        spans, a = [], 0
        while a < chunks:
            # leave a chunk for each run still to come
            last = min(a + per_span, chunks - max(count - len(spans) - 1, 0))
            b = a + 1
            while b < last and _work(edges[a], edges[b + 1]) <= limit:
                b += 1
            spans.append((a, b))
            a = b
        return spans

    # a cut leaves at least count runs; bisect for the least limit that
    # leaves no more
    low, high = 0.0, _work(edges[0], edges[-1])
    for _ in range(50):
        mid = (low + high) / 2
        low, high = (low, mid) if len(cut(mid)) <= count else (mid, high)
    return cut(high)


def _exit_with(sweep: int) -> None:
    """Pool worker initializer: a worker waiting for its next span would
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


class KhChunk(NamedTuple):
    """One chunk of a KH sweep: its primes in ascending order, and
    rest(!p, p) for each."""

    primes: list[int]
    residues: list[int]


def kh_chunks(
    prime_range: tuple[int, int], worker_count: int = 1, after: int | None = None
) -> Iterator[KhChunk]:
    """rest(!p, p) for every odd prime p in [lo, hi] above after, in chunks.

    Chunks come out in ascending prime order whatever the worker count, and
    are cut from the first prime above after (the first of the range when
    after is None), so two sweeps from the same start are chunk-for-chunk
    identical. A resumed sweep passes its checkpoint's frontier, the last
    prime of a chunk, and gets the whole range's chunks above it. The kernel runs once per span (_spans), and a span's chunks
    come out once it is done. A zero residue is a result, not an error: it
    is the consumer's to report. Closing the stream early, or an exception
    in it, terminates the pool's workers rather than wait for their spans.
    A range or worker count out of bounds raises here, at the call, before
    the stream starts; a worker count above os.cpu_count() is cut to it
    (sweep_workers).
    """
    lo, hi = prime_range
    if lo < 3:
        raise ValueError(f"a KH sweep requires lo >= 3, got {lo}")
    if hi > MAX_SWEEP_PRIME:
        raise ValueError(f"hi {hi} exceeds sweep bound {MAX_SWEEP_PRIME}")
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    return _chunk_stream(
        lo if after is None else max(lo, after + 1), hi, sweep_workers(worker_count)
    )


def sweep_workers(worker_count: int) -> int:
    """The workers kh_chunks runs when asked for worker_count: at most
    os.cpu_count(). _spans cuts a span per worker, each folding every step
    below it, so workers beyond the CPUs would only add processes and work."""
    return min(worker_count, os.cpu_count() or 1)


def _chunk_stream(start: int, hi: int, worker_count: int) -> Iterator[KhChunk]:
    """kh_chunks's stream from its first prime candidate start up."""
    # a rerun over a finished sweep, or an empty range, has no prime left:
    # finding that out costs at most one prime gap of tests, where the sieve
    # covers all of [0, hi]
    if not any(map(is_probable_prime, range(start, hi + 1))):
        return
    sieve = build_sieve(hi)
    first = bisect_left(sieve.ints, start)
    ints = sieve.ints[first:]
    ends = [ints[min(s + CHUNK_PRIMES, len(ints)) - 1] for s in range(0, len(ints), CHUNK_PRIMES)]
    spans = _spans([ints[0]] + ends, worker_count)
    # numpy loads only here, for the kernel's int64 arrays
    primes = sieve.primes[first:]

    pool = None
    if worker_count > 1 and len(spans) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a pool under fork starts all its workers at the first submit, so
        # it gets one per span, however many were asked for
        pool = ProcessPoolExecutor(
            min(worker_count, len(spans)), initializer=_exit_with, initargs=(os.getpid(),)
        )
    try:
        arrays = [primes[a * CHUNK_PRIMES : b * CHUNK_PRIMES] for a, b in spans]
        # the module global batch_residues, looked up at the call, so that a
        # rebinding of it (a test's fake kernel, a tracer) runs in its place
        results = (pool.map if pool is not None else map)(batch_residues, arrays)
        for span, residues in zip(arrays, results):
            for s in range(0, span.size, CHUNK_PRIMES):
                yield KhChunk(
                    span[s : s + CHUNK_PRIMES].tolist(), residues[s : s + CHUNK_PRIMES].tolist()
                )
    except BaseException:
        if pool is not None:
            # closed early or failed: end the workers rather than wait for
            # the spans they hold (what terminate_workers does from 3.14)
            workers = list(pool._processes.values())
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.terminate()
        raise
    finally:
        if pool is not None:
            pool.shutdown()


def kh_sweep(
    prime_range: tuple[int, int], worker_count: int = 1, after: int | None = None
) -> Iterator[VerificationRecord]:
    """kh_chunks as one VerificationRecord per prime, method KERNEL_METHOD;
    the stream starts and closes as kh_chunks's does."""
    from .modular import VerificationRecord

    chunks = kh_chunks(prime_range, worker_count, after)
    try:
        for primes, residues in chunks:
            for p, r in zip(primes, residues):
                yield VerificationRecord(p, r, KERNEL_METHOD)
    finally:
        chunks.close()


# The (p, n) with p^2 | !n that kh2 expects: !3 = 2^2 and 54503^2 | !26541.
# It reports any other hit as an anomaly.
KNOWN_SQUARE_HITS = ((2, 3), (54503, 26541))


def kh2_scan(p_range: tuple[int, int], n_bound: int) -> list[tuple[int, int]]:
    """All (p, n) with p in the range, n <= n_bound, and p^2 | !n.

    Every prime runs the same mod-p^2 accumulation of !n over n = 1, 2, ...
    up to n_bound, below p as well, where a hit would contradict nothing.
    A prime stops at n = p when p does not divide !p: every i! with i >= p
    is 0 mod p, so !n ≡ !p (mod p) for all n >= p, and no later n has
    p^2 | !n. p = 2 divides !2 and runs on, surfacing !3 = 2^2, the first
    of KNOWN_SQUARE_HITS; so would any p that divides !p.
    """
    lo, hi = p_range
    if n_bound < 2:
        raise ValueError(f"kh2_scan requires n_bound >= 2, got {n_bound}")
    if lo < 2:
        raise ValueError(f"kh2_scan requires lo >= 2, got {lo}")
    hits: list[tuple[int, int]] = []
    if hi >= 2:
        ints = build_sieve(hi).ints
        for p in ints[bisect_left(ints, lo) :]:
            m = p * p
            if m > (1 << 63) - 1:
                raise ValueError(f"p^2 overflows machine width at p = {p}")
            fact, kn = 1, 0
            for n in range(1, n_bound + 1):
                kn = (kn + fact) % m
                if kn == 0 and n >= 2:
                    hits.append((p, n))
                elif n == p and kn % p:
                    break
                fact = fact * n % m
    return hits


def a_set_scan(r: int, n_bound: int, primes_only: bool = False) -> list[int]:
    """Members of A(r) up to n_bound: all n in (r, n_bound] with !n ≡ r (mod n).

    primes_only restricts to odd primes (n > 2), the conjectural domain,
    where r = 0 membership would be a divisibility violation. The full scan
    keeps the whole interval, including the trivial 2 ∈ A(0). The odd
    primes take rest(!p, p) from kh_chunks, the other n from residue_direct.
    """
    from .modular import residue_direct

    if r < 0:
        raise ValueError(f"a_set_scan requires r >= 0, got {r}")
    if n_bound < r + 1:
        raise ValueError(f"n_bound must be at least r+1 = {r + 1}, got {n_bound}")
    residues = {}
    for chunk in kh_chunks((max(r + 1, 3), n_bound)):
        residues.update(zip(chunk.primes, chunk.residues))
    candidates = residues if primes_only else range(max(r + 1, 2), n_bound + 1)
    return [
        n
        for n in candidates
        if (residues[n] if n in residues else residue_direct(n, n).residue) == r % n
    ]


def alternating_divisor_hits(n_max: int) -> list[int]:
    """All n with 2 <= n <= n_max such that n+1 divides n! - (n-1)! + ... ± 1!.

    The scanned sum is A_{n+1}. For an odd prime p, Wilson's theorem gives
    A_p ≡ a(p-1) - 1 (mod p), where a(1) = 2 and a(i) = 1 + i*a(i-1): the
    kernel's recurrence, run once per SPAN_PRIMES primes as a KH sweep's
    spans are bounded. Composites need no code: by A_{k+1} = k! - A_k, a
    prime q < m divides A_m exactly when it divides A_q, so every prime
    factor of a composite hit is a prime hit. The least prime hit is 3612703
    (Zivkovic, Math. Comp. 68 (1999) 403-409), so a composite one is at
    least 3612703^2, far above MAX_SWEEP_PRIME.
    """
    if not 2 <= n_max < MAX_SWEEP_PRIME:
        raise ValueError(f"alternating_divisor_hits requires 2 <= n_max < {MAX_SWEEP_PRIME}")
    primes = build_sieve(n_max + 1).ints[1:]
    spans = (primes[s : s + SPAN_PRIMES].tolist() for s in range(0, len(primes), SPAN_PRIMES))
    return [p - 1 for q in spans for p, a in zip(q, _Span(q, *_ALTERNATING).residues) if a == 1]


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


def residue_summatory(x: int) -> tuple[int, float]:
    """(sum of rest(!p, p) over odd primes p <= x, that sum / (x^2/ln x)).

    The ratio is published as an empirical observation; whether it tends to
    a constant is open, and none is asserted.
    """
    if x < 3:
        raise ValueError(f"residue_summatory requires x >= 3, got {x}")
    total = sum(sum(chunk.residues) for chunk in kh_chunks((3, x)))
    return total, total / (x * x / math.log(x))
