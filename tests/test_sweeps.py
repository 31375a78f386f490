from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
import tracemalloc
from bisect import bisect_left
from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stepper import stepped_residues

from leftfact import (
    CHUNK_PRIMES,
    MAX_SWEEP_PRIME,
    a_set_scan,
    alternating_divisor_hits,
    alternating_factorial,
    batch_residues,
    h4_witness_search,
    kh2_scan,
    kh_chunks,
    kh_sweep,
    residue_direct,
    residue_mod_p_squared,
    residue_summatory,
    sweeps,
)
from leftfact.primes import build_sieve, is_probable_prime
from leftfact.sweeps import (
    KERNEL_METHOD,
    KNOWN_SQUARE_HITS,
    SPAN_PRIMES,
    _reciprocal,
    _reducer,
)

SIEVE = build_sieve(20000)
# the stepper's recurrences, each an oracle for the kernel's one
METHODS = ("forward_v", "forward_t", "backward_s")


def primes_between(lo, hi):
    p = SIEVE.primes_up_to(hi)
    return p[p >= lo]


def test_batch_residues_matches_direct():
    primes = primes_between(3, 2000)
    residues = batch_residues(primes)
    for p, r in zip(primes.tolist(), residues.tolist()):
        assert r == residue_direct(p, p).residue, p


# the stepper's residues for every odd prime <= 2*10^4, per recurrence; a
# prime's residue does not depend on the other primes of its call, so any
# piece's oracle is a slice of these
ALL_PRIMES = primes_between(3, 20000)
STEPPED = {method: stepped_residues(ALL_PRIMES, method) for method in METHODS}


def test_batch_residues_methods_agree_on_larger_block():
    # the kernel, one span over every odd prime <= 2*10^4, against the
    # stepper's three recurrences
    got = batch_residues(ALL_PRIMES)
    for method in METHODS:
        assert np.array_equal(got, STEPPED[method]), method


def test_batch_residues_matches_stepper_to_1e5_in_chunks():
    # every odd prime <= 10^5, chunked as kh_sweep chunks them
    primes = build_sieve(10**5).primes_up_to(10**5)
    primes = primes[primes >= 3]
    for s in range(0, primes.size, CHUNK_PRIMES):
        chunk = primes[s : s + CHUNK_PRIMES]
        assert np.array_equal(batch_residues(chunk), stepped_residues(chunk)), chunk[0]


@pytest.mark.parametrize("method", ["forward_t", "backward_s"])
def test_batch_residues_matches_stepper_to_2e4(method):
    # chunk by chunk, each folding its own prefix, against the stepper's
    # other two recurrences
    for s in range(0, ALL_PRIMES.size, CHUNK_PRIMES):
        chunk = ALL_PRIMES[s : s + CHUNK_PRIMES]
        assert np.array_equal(batch_residues(chunk), STEPPED[method][s : s + CHUNK_PRIMES]), s


@settings(max_examples=15, deadline=None)
@given(cuts=st.lists(st.integers(min_value=1, max_value=ALL_PRIMES.size - 1), max_size=5))
@example(cuts=[])  # one span from 3 over all of them
@example(cuts=[1, 2, 4])  # 1- and 2-prime spans from 3 on
@example(cuts=[1000, 1001, 1003])  # 1- and 2-prime spans mid-range
@example(cuts=[32, 64, 97])  # whole leaf groups, then a piece of 33
@example(cuts=[2261])  # the last prime on its own
def test_batch_residues_matches_stepper_on_any_cut(cuts):
    bounds = sorted({0, *cuts, ALL_PRIMES.size})
    for lo, hi in zip(bounds, bounds[1:]):
        # against the backward recurrence, the stepper's code furthest from
        # the kernel's
        got = batch_residues(ALL_PRIMES[lo:hi])
        assert np.array_equal(got, STEPPED["backward_s"][lo:hi]), (lo, hi)


# The three test_fold_memo_* names below come from the prefix-fold memo that
# the span kernel replaced; what they check still holds without it. These
# five tests take the kernel's recurrence as a parameter, which names their
# ids and picks the stepper's residues they are checked against.
KERNEL = pytest.mark.parametrize("method", [KERNEL_METHOD])


@KERNEL
def test_fold_memo_chunks_out_of_order(method):
    # a pool worker may take a high span before the ones below it; no state
    # passes from one kernel call to the next
    for lo in (2 * CHUNK_PRIMES, 0, CHUNK_PRIMES):
        hi = lo + CHUNK_PRIMES
        got = batch_residues(ALL_PRIMES[lo:hi])
        assert np.array_equal(got, STEPPED[method][lo:hi]), lo


@KERNEL
def test_fold_memo_short_tail_chunk_takes_plain_mod(method):
    # the modulus of two primes is narrower than one block of its prefix,
    # so every reduction of the prefix fold leaves Barrett's range
    lo = ALL_PRIMES.size - 2
    span = ALL_PRIMES[lo:]
    modulus = int(span[0]) * int(span[1])
    block = list(sweeps._blocks(2, int(span[0]), 0, -1))[-2]
    assert sweeps._bits(block) >= 2 * modulus.bit_length()
    assert np.array_equal(batch_residues(span), STEPPED[method][lo:])


@pytest.fixture
def recorded_blocks(monkeypatch):
    """The (lo, hi) of every exact map the kernel builds, in order."""
    built = []
    exact_map = sweeps._exact_map

    def recording(lo, hi, sign):
        built.append((lo, hi))
        return exact_map(lo, hi, sign)

    monkeypatch.setattr(sweeps, "_exact_map", recording)
    return built


@KERNEL
def test_fold_memo_cold_and_warm_agree(method, recorded_blocks):
    # nothing is kept between calls: a second call on the same span folds
    # its prefix afresh, in the same blocks, to the same residues
    lo = 2 * CHUNK_PRIMES
    span = ALL_PRIMES[lo : lo + CHUNK_PRIMES]
    want = STEPPED[method][lo : lo + CHUNK_PRIMES]
    assert np.array_equal(batch_residues(span), want)
    cold = list(recorded_blocks)
    recorded_blocks.clear()
    assert np.array_equal(batch_residues(span), want)
    assert recorded_blocks == cold and any(b <= int(span[0]) for _a, b in cold)


@KERNEL
def test_prefix_fold_builds_blocks_of_the_root_modulus(method, recorded_blocks):
    # a span that does not start at 3 folds the steps below it once, in
    # consecutive blocks each narrower than the span's modulus
    lo = 2 * CHUNK_PRIMES
    span = ALL_PRIMES[lo : lo + CHUNK_PRIMES]
    assert np.array_equal(batch_residues(span), STEPPED[method][lo : lo + CHUNK_PRIMES])
    end = int(span[0])
    prefix = [(a, b) for a, b in recorded_blocks if b <= end]
    assert prefix[0][0] == 2 and prefix[-1][1] == end
    assert all(b == c for (_a, b), (c, _d) in zip(prefix, prefix[1:]))
    modulus_bits = math.prod(span.tolist()).bit_length()
    width = prefix[0][1] - prefix[0][0]
    assert 1 < len(prefix) and width * end.bit_length() < modulus_bits


def test_prefix_fold_holds_one_block_at_a_time():
    # the steps below a span's first prime are built block by block as the
    # fold takes them, never as one list: that list holds about 2.4 MB of
    # maps from 2*10^5, and ten times that from 2*10^6
    ints = build_sieve(200_200).ints
    q = ints[bisect_left(ints, 200_000) :][:16]
    tracemalloc.start()
    try:
        sweeps._Span(q, *sweeps._KH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000, peak


@KERNEL
def test_gaps_are_applied_in_blocks_narrower_than_their_modulus(method, monkeypatch):
    # a gap about ln(p) times wider than the modulus it meets is never built
    # whole: it arrives in blocks that keep each product in Barrett's range
    applied = []
    apply = sweeps._apply

    def recording(v, blocks, modulus):
        blocks = list(blocks)
        applied.append((modulus.bit_length(), [sweeps._bits(b) for b in blocks]))
        return apply(v, blocks, modulus)

    monkeypatch.setattr(sweeps, "_apply", recording)
    assert np.array_equal(batch_residues(ALL_PRIMES), STEPPED[method])
    wide = [(m, sizes) for m, sizes in applied if m > 1000]
    assert wide and all(size < m - 32 for m, sizes in wide for size in sizes)
    # the root's left gap, met by the widest modulus but the root's own
    top, sizes = max(w for w in wide if len(w[1]) > 1)
    assert len(sizes) > 5 and sum(sizes) > 5 * top


def _chunk_edges(chunks, lo=3, width=10_000):
    # chunk k holds the primes from edges[k] to edges[k + 1]
    return [lo] + [lo + (k + 1) * width for k in range(chunks)]


def test_spans_cover_the_chunks_and_feed_every_worker():
    per_span = SPAN_PRIMES // CHUNK_PRIMES
    assert sweeps._spans([3], 4) == []
    assert sweeps._spans(_chunk_edges(10), 1) == [(0, 10)]
    assert sweeps._spans(_chunk_edges(2), 3) == [(0, 1), (1, 2)]
    for lo in (3, 10**8):
        for chunks in (1, 7, per_span, 3 * per_span + 5):
            for workers in (1, 2, 5):
                spans = sweeps._spans(_chunk_edges(chunks, lo), workers)
                assert spans[0][0] == 0 and spans[-1][1] == chunks
                assert all(b == c for (_a, b), (c, _d) in zip(spans, spans[1:]))
                assert all(0 < b - a <= per_span for a, b in spans)
                assert len(spans) == min(chunks, max(-(-chunks // per_span), workers))


def test_spans_give_the_upper_runs_fewer_chunks():
    # an upper span also folds every step below it: with two workers the
    # cut lies well above the middle, and its estimated work is even
    sieve = build_sieve(10**6)
    primes = sieve.primes_up_to(10**6)[1:]
    edges = [3] + primes[CHUNK_PRIMES - 1 :: CHUNK_PRIMES].tolist() + [int(primes[-1])]
    (a, b), (c, d) = sweeps._spans(edges, 2)
    assert (a, d) == (0, len(edges) - 1) and b == c
    assert b > 0.65 * d
    lower, upper = sweeps._work(edges[a], edges[b]), sweeps._work(edges[c], edges[d])
    assert abs(lower - upper) < sweeps._work(edges[b - 1], edges[b + 1])
    # on the same range one worker keeps one span, and three get three,
    # fewer chunks the higher they lie
    assert sweeps._spans(edges, 1) == [(0, d)]
    sizes = [b - a for a, b in sweeps._spans(edges, 3)]
    assert len(sizes) == 3 and sizes == sorted(sizes, reverse=True)


def test_kh_sweep_calls_the_kernel_once_per_span(monkeypatch):
    calls = []
    kernel = sweeps.batch_residues

    def counting(span):
        calls.append(span.size)
        return kernel(span)

    monkeypatch.setattr(sweeps, "batch_residues", counting)
    records = list(kh_sweep((3, 10**5)))
    assert calls == [len(records)] == [9591]


def test_narrow_high_window_matches_direct():
    # one chunk far above its range's start folds its whole prefix alone
    window = (200_000, 200_400)
    seen = [(rec.prime, rec.residue) for rec in kh_sweep(window)]
    assert [p for p, _r in seen] == build_sieve(200_400).primes_up_to(200_400)[-len(seen):].tolist()
    assert [r for _p, r in seen[:3]] == [residue_direct(p, p).residue for p, _r in seen[:3]]


ODD_PRIMES = primes_between(3, 8000).tolist()
prime_sets = st.lists(st.sampled_from(ODD_PRIMES), min_size=1, max_size=8, unique=True)


@settings(max_examples=100, deadline=None)
@given(primes=st.one_of(prime_sets, prime_sets.map(lambda ps: [3] + ps)).map(
    lambda ps: sorted(set(ps))
))
@example(primes=[3])
@example(primes=[7919])
@example(primes=[3, 5, 7, 11, 13])
@example(primes=[3, 101, 7919])
def test_batch_residues_matches_direct_on_any_prime_set(primes):
    got = batch_residues(np.array(primes, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [residue_direct(p, p).residue for p in primes]


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.integers(min_value=2, max_value=2**300),
    x=st.integers(min_value=-(2**700), max_value=2**700),
)
@example(modulus=337, x=120318)  # quotient estimate 2 short
@example(modulus=27, x=-352)  # quotient estimate 1 over
@example(modulus=3, x=10**50)  # far past 2^(2m): plain %
def test_reducer_is_exact_mod(modulus, x):
    assert _reducer(modulus)(x) == x % modulus


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(min_value=2, max_value=150_000), seed=st.integers(0, 2**32))
@example(bits=sweeps._NEWTON_BITS + 1, seed=0)
@example(bits=100_001, seed=1)
def test_reciprocal_is_exact(bits, seed):
    modulus = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
    for m in (modulus, 1 << (bits - 1), (1 << bits) - 1):
        assert _reciprocal(m) == (1 << (2 * m.bit_length())) // m


def test_batch_residues_validation():
    with pytest.raises(ValueError):
        batch_residues(np.array([2, 3, 5], dtype=np.int64))
    with pytest.raises(ValueError):
        batch_residues(np.array([5, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        batch_residues(np.array([3, 5, 8, 11], dtype=np.int64))
    with pytest.raises(ValueError):
        batch_residues(np.array([3, 5, MAX_SWEEP_PRIME + 2], dtype=np.int64))
    assert batch_residues(np.array([], dtype=np.int64)).size == 0


def test_kh_sweep_streams_every_prime_once():
    records = list(kh_sweep((3, 10000)))
    primes = primes_between(3, 10000)
    assert [r.prime for r in records] == primes.tolist()
    assert all(not r.violates_kh for r in records)
    assert all(r.residue == residue_direct(r.prime, r.prime).residue for r in records[:50])


def test_kh_sweep_empty_and_invalid_ranges():
    assert list(kh_sweep((5000, 4999))) == []
    with pytest.raises(ValueError):
        list(kh_sweep((2, 100)))
    with pytest.raises(ValueError):
        list(kh_sweep((3, MAX_SWEEP_PRIME + 10)))
    with pytest.raises(ValueError):
        list(kh_sweep((3, 100), worker_count=0))


def test_kh_sweep_worker_count_does_not_change_records(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = list(kh_sweep((3, 9000)))
    assert serial == list(kh_sweep((3, 9000), worker_count=3))


def test_kh_chunks_pool_has_one_worker_per_span(monkeypatch):
    # under fork a pool starts every worker it is sized for at its first
    # submit; [3, 10^4] is two chunks, so two spans, and of four workers
    # asked for (on four CPUs) only two start
    import concurrent.futures

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    sizes = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    chunks = list(kh_chunks((3, 10000), worker_count=4))
    assert sizes == [2]
    assert [p for c in chunks for p in c.primes] == primes_between(3, 10000).tolist()


def _slow_past_the_first_chunk(chunk):
    # the kernel on a window whose chunks each take minutes, bar the first
    if int(chunk[0]) > 3:
        time.sleep(120)
    return batch_residues(chunk)


def test_kh_chunks_caps_workers_at_the_cpu_count(monkeypatch):
    # a span per worker would mean a process per chunk for a large
    # --workers; [3, 8000] is one chunk, so no process starts here
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []
    spans = sweeps._spans

    def recorded(edges, worker_count):
        seen.append(worker_count)
        return spans(edges, worker_count)

    monkeypatch.setattr(sweeps, "_spans", recorded)
    chunks = list(kh_chunks((3, 8000), worker_count=10**4))
    assert seen == [2]
    assert [p for c in chunks for p in c.primes] == primes_between(3, 8000).tolist()


def test_kh_sweep_closed_early_stops_its_workers_without_waiting(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweeps, "batch_residues", _slow_past_the_first_chunk)
    stream = kh_sweep((3, 20000), worker_count=2)
    assert next(stream).prime == 3
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    t0 = time.monotonic()
    stream.close()
    pending = [w.sentinel for w in workers]
    while pending and time.monotonic() < t0 + 10:
        for ended in wait(pending, timeout=t0 + 10 - time.monotonic()):
            pending.remove(ended)
    assert pending == [], "a worker outlived the closed stream by 10 s"


def test_kh_sweep_resumes_from_frontier():
    # a resumed sweep passes its checkpoint's frontier, here the last prime
    # of the first chunk: the stream starts at the next prime, none skipped
    full = [r.prime for r in kh_sweep((3, 20000))]
    resumed = [r.prime for r in kh_sweep((3, 20000), after=full[CHUNK_PRIMES - 1])]
    assert resumed[0] == full[CHUNK_PRIMES]
    assert full[:CHUNK_PRIMES] + resumed == full


def test_kh_sweep_resumes_from_a_frontier_inside_a_chunk():
    # a hand-set frontier need not end a chunk: the sweep starts at the next
    # prime, and chunks are cut from there
    full = [(r.prime, r.residue) for r in kh_sweep((3, 20000))]
    chunks = list(kh_chunks((3, 20000), after=full[CHUNK_PRIMES + 9][0]))
    resumed = [(p, r) for c in chunks for p, r in zip(c.primes, c.residues)]
    assert resumed == full[CHUNK_PRIMES + 10 :]
    assert len(chunks) == -(-len(resumed) // CHUNK_PRIMES)
    assert [len(c.primes) for c in chunks[:-1]] == [CHUNK_PRIMES] * (len(chunks) - 1)


def test_kh_sweep_finished_range_yields_nothing():
    last = [r.prime for r in kh_sweep((3, 20000))][-1]
    assert list(kh_sweep((3, 20000), after=last)) == []
    assert list(kh_chunks((3, 20000), after=20000)) == []


def test_kh_sweep_finished_range_builds_no_sieve(monkeypatch):
    # a rerun over a finished sweep tests the numbers above its frontier up
    # to the first prime, not sieve the whole range again
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(sweeps, "build_sieve", no_sieve)
    assert list(kh_chunks((3, 10_000_000), after=9_999_991)) == []
    assert list(kh_chunks((3, 10_000_000), after=10_000_000)) == []
    assert list(kh_chunks((9_999_992, 10_000_000))) == []
    with pytest.raises(AssertionError, match="sieved to 10000000"):
        list(kh_chunks((3, 10_000_000), after=9_999_990))


def _kh2_scan_every_n(p_range, n_bound):
    """kh2_scan's oracle: the mod-p^2 accumulation of !n over every n up to
    n_bound for every prime, without the stop at n = p."""
    lo, hi = p_range
    hits = []
    for p in build_sieve(hi).primes_up_to(hi).tolist():
        if p < lo:
            continue
        m, fact, kn = p * p, 1, 0
        for n in range(1, n_bound + 1):
            kn = (kn + fact) % m
            if kn == 0 and n >= 2:
                hits.append((p, n))
            fact = fact * n % m
    return hits


@pytest.mark.parametrize("p_max,n_bound", [(1227, 1300), (3000, 6000)])
def test_kh2_scan_stopping_at_n_equal_p_matches_the_scan_of_every_n(p_max, n_bound):
    want = _kh2_scan_every_n((2, p_max), n_bound)
    assert kh2_scan((2, p_max), n_bound) == want == [(2, 3)]


def test_kh2_scan_finds_only_the_known_square():
    hits = kh2_scan((2, 50), 100)
    assert hits == [(2, 3)]
    assert kh2_scan((2, 2), 10) == [(2, 3)]


def test_known_square_hits_are_square_divisors():
    assert KNOWN_SQUARE_HITS == ((2, 3), (54503, 26541))
    for p, n in KNOWN_SQUARE_HITS:
        assert residue_direct(n, p * p).residue == 0, (p, n)
    assert residue_mod_p_squared(26541, 54503).residue == 0


def test_kh2_scan_validation():
    with pytest.raises(ValueError):
        kh2_scan((1, 50), 100)
    with pytest.raises(ValueError):
        kh2_scan((2, 50), 1)


def test_kh2_scan_odd_primes_only_range():
    assert kh2_scan((3, 31), 200) == []


def test_a_set_scan_membership():
    # 2 ∈ A(0) trivially: !2 = 2 ≡ 0 (mod 2)
    assert a_set_scan(0, 100) == [2]
    assert a_set_scan(0, 100, primes_only=True) == []
    # !n ≡ 1 (mod n): n = 2 excluded (r < n fails), 3 qualifies: !3 = 4 ≡ 1
    members_1 = a_set_scan(1, 60)
    assert members_1[0] == 3
    for n in members_1:
        assert residue_direct(n, n).residue == 1 % n


def test_a_set_scan_hit_467():
    assert a_set_scan(3, 500) == [467]


def test_a_set_scan_matches_per_n_residues():
    # the odd primes' residues come from kh_sweep; the reference takes every
    # n's from residue_direct
    rest = {n: residue_direct(n, n).residue for n in range(2, 3001)}
    odd_primes = set(build_sieve(3000).primes.tolist()) - {2}
    for r in (0, 1, 2, 3, 5):
        want = [n for n in range(max(r + 1, 2), 3001) if rest[n] == r % n]
        assert a_set_scan(r, 3000) == want, r
        assert a_set_scan(r, 3000, primes_only=True) == [n for n in want if n in odd_primes], r


def test_a_set_scan_validation():
    with pytest.raises(ValueError):
        a_set_scan(-1, 100)
    with pytest.raises(ValueError):
        a_set_scan(10, 10)


def test_alternating_residues_match_exact_to_2000():
    # the kernel on the alternating factorial's recurrence reads a(p-1),
    # and A_p = a(p-1) - 1 (mod p)
    primes = primes_between(3, 2000).tolist()
    residues = sweeps._Span(primes, *sweeps._ALTERNATING).residues
    for p, r in zip(primes, residues):
        assert (r - 1) % p == alternating_factorial(p) % p, p


def _stepped_alternating(window):
    """a(p-1) mod p for each prime p of the window, where a(1) = 2 and
    a(i) = 1 + i*a(i-1): one step at a time, modulo the window's product."""
    modulus = math.prod(window)
    a, done, out = 2, 2, []
    for p in window:
        for i in range(done, p):
            a = (1 + i * a) % modulus
        done = p
        out.append(a % p)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_alternating_residues_match_stepped_windows(seed):
    # 40 consecutive primes between 10^4 and 10^6: the kernel folds every
    # step below them, and two leaf groups meet across a gap
    primes = build_sieve(10**6).primes
    lo, hi = np.searchsorted(primes, [10**4, 10**6])
    start = random.Random(seed).randrange(lo, hi - 40)
    window = primes[start : start + 40].tolist()
    got = sweeps._Span(window, *sweeps._ALTERNATING).residues
    assert got == _stepped_alternating(window)


def test_alternating_residues_find_zivkovics_prime_in_its_window():
    # 3612703 divides A_3612703, and no prime near it divides its own
    below = [n for n in range(3612703 - 500, 3612703) if is_probable_prime(n)]
    above = [n for n in range(3612703, 3612703 + 500) if is_probable_prime(n)]
    window = below[-20:] + above[:20]
    t0 = time.monotonic()
    residues = sweeps._Span(window, *sweeps._ALTERNATING).residues
    dt = time.monotonic() - t0
    assert [p - 1 for p, a in zip(window, residues) if a == 1] == [3612702]
    assert dt < 3.0, dt


def test_alternating_divisor_hits_bounds():
    # the smallest scan, n = 2 alone: A_3 = 2! - 1! = 1
    assert alternating_divisor_hits(2) == []
    with pytest.raises(ValueError):
        alternating_divisor_hits(1)
    # n+1 past the kernel's bound raises before anything is sieved
    with pytest.raises(ValueError):
        alternating_divisor_hits(MAX_SWEEP_PRIME)


def test_h4_witnesses_from_value_table():
    found = h4_witness_search(25, 20)
    as_pairs = {(n, s): g for n, s, g in found}
    assert as_pairs[(7, 5)] == 38
    assert as_pairs[(7, 9)] == 38
    assert as_pairs[(16, 9)] == 82
    for n, s, g in found:
        assert g != 2
        assert 2 <= n < n + s <= 25


def test_h4_search_validation():
    with pytest.raises(ValueError):
        h4_witness_search(1, 5)
    with pytest.raises(ValueError):
        h4_witness_search(10, 0)


def test_residue_summatory_small():
    # sum of rest(!p, p) over p in {3, 5, 7}: 1 + 4 + 6 = 11
    total, ratio = residue_summatory(10)
    assert total == 11
    assert ratio == pytest.approx(11 / (100 / np.log(10)))
    with pytest.raises(ValueError):
        residue_summatory(2)
