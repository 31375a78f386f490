from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stepper import stepped_residues

from leftfact import (
    CHUNK_PRIMES,
    MAX_SWEEP_PRIME,
    MemorySink,
    a_set_scan,
    batch_residues,
    h4_witness_search,
    kh2_scan,
    kh_sweep,
    residue_direct,
    residue_summatory,
    sweeps,
)
from leftfact.primes import build_sieve
from leftfact.sweeps import _FOLD_MEMO, _GRID, _kernel_task, _reducer

SIEVE = build_sieve(20000)
METHODS = ("forward_v", "forward_t", "backward_s")


def primes_between(lo, hi):
    p = SIEVE.primes_up_to(hi)
    return p[p >= lo]


def test_batch_residues_matches_direct():
    primes = primes_between(3, 2000)
    for method in ("forward_v", "forward_t", "backward_s"):
        residues = batch_residues(primes, method)
        for p, r in zip(primes.tolist(), residues.tolist()):
            assert r == residue_direct(p, p).residue, (method, p)


def test_batch_residues_methods_agree_on_larger_block():
    primes = primes_between(3, 20000)
    base = batch_residues(primes, "forward_v")
    assert np.array_equal(base, batch_residues(primes, "forward_t"))
    assert np.array_equal(base, batch_residues(primes, "backward_s"))


def test_batch_residues_matches_stepper_to_1e5_in_chunks():
    # every odd prime <= 10^5, chunked as kh_sweep chunks them
    primes = build_sieve(10**5).primes_up_to(10**5)
    primes = primes[primes >= 3]
    for s in range(0, primes.size, CHUNK_PRIMES):
        chunk = primes[s : s + CHUNK_PRIMES]
        assert np.array_equal(batch_residues(chunk), stepped_residues(chunk)), chunk[0]


@pytest.mark.parametrize("method", ["forward_t", "backward_s"])
def test_batch_residues_matches_stepper_to_2e4(method):
    primes = primes_between(3, 20000)
    for s in range(0, primes.size, CHUNK_PRIMES):
        chunk = primes[s : s + CHUNK_PRIMES]
        want = stepped_residues(chunk, method)
        assert np.array_equal(batch_residues(chunk, method), want), chunk[0]


def chunk_at(p, size=CHUNK_PRIMES):
    """The size primes from p on."""
    return primes_between(p, 20000)[:size]


def memo_blocks(method):
    return sorted(k for m, k in _FOLD_MEMO.maps if m == method)


@pytest.fixture
def recorded_spans(monkeypatch):
    """The (lo, hi) of every exact map the kernel builds, in order."""
    spans = []
    exact_map = sweeps._exact_map

    def recording(method, compose, lo, hi):
        spans.append((lo, hi))
        return exact_map(method, compose, lo, hi)

    monkeypatch.setattr(sweeps, "_exact_map", recording)
    return spans


@pytest.mark.parametrize("method", METHODS)
def test_fold_memo_cold_and_warm_agree(method, recorded_spans):
    chunk = chunk_at(13001)
    want = stepped_residues(chunk, method)
    _FOLD_MEMO.clear()
    assert np.array_equal(batch_residues(chunk, method), want)
    whole = int(chunk[0]) // _GRID
    assert memo_blocks(method) == list(range(whole))
    # warm: the prefix below the last grid line comes from the memo
    recorded_spans.clear()
    assert np.array_equal(batch_residues(chunk, method), want)
    assert all(lo >= whole * _GRID for lo, _hi in recorded_spans)


@pytest.mark.parametrize("method", METHODS)
def test_fold_memo_chunks_out_of_order(method):
    # a pool worker may take a high chunk before the ones below it
    primes = primes_between(3, 20000)
    starts = (2 * CHUNK_PRIMES, 0, CHUNK_PRIMES)
    _FOLD_MEMO.clear()
    for s in starts:
        chunk = primes[s : s + CHUNK_PRIMES]
        assert np.array_equal(batch_residues(chunk, method), stepped_residues(chunk, method))


def test_fold_memo_first_end_on_grid_boundary(recorded_spans):
    # backward_s ends 7681's steps at 7680 = 15 * 512: fifteen whole blocks
    # and no partial one
    chunk = chunk_at(7681)
    assert chunk[0] == 7681 and (int(chunk[0]) - 1) % _GRID == 0
    _FOLD_MEMO.clear()
    got = batch_residues(chunk, "backward_s")
    assert np.array_equal(got, stepped_residues(chunk, "backward_s"))
    assert memo_blocks("backward_s") == list(range(15))
    prefix = [(lo, hi) for lo, hi in recorded_spans if hi <= 7680]
    assert prefix == [(max(1, k * _GRID), (k + 1) * _GRID) for k in range(15)]


@pytest.mark.parametrize("method", METHODS)
def test_fold_memo_short_tail_chunk_takes_plain_mod(method):
    chunk = chunk_at(19991, size=2)
    modulus = int(chunk[0]) * int(chunk[1])
    # a block is at least twice as wide as the modulus, so its products
    # leave the reducer's fast range
    block = _FOLD_MEMO.block(method, int(chunk[0]) // _GRID - 1)
    assert max(x.bit_length() for x in block) >= 2 * modulus.bit_length()
    assert np.array_equal(batch_residues(chunk, method), stepped_residues(chunk, method))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("budget", [0, 6000])
def test_fold_memo_full_folds_the_rest_in_fresh_blocks(method, budget, monkeypatch, recorded_spans):
    # a memo with no room, or room for a few blocks, keeps the blocks that
    # fit and folds the steps above them in blocks as wide as the chunk's M
    monkeypatch.setattr(sweeps, "_MEMO_BYTES", budget)
    primes = primes_between(3, 20000)
    _FOLD_MEMO.clear()
    for s in (2 * CHUNK_PRIMES, CHUNK_PRIMES):
        chunk = primes[s : s + CHUNK_PRIMES]
        assert np.array_equal(batch_residues(chunk, method), stepped_residues(chunk, method))
    kept = memo_blocks(method)
    assert kept == list(range(len(kept)))
    top = int(primes[CHUNK_PRIMES])
    assert len(kept) < top // _GRID
    assert _FOLD_MEMO.nbytes < budget + 4 * _GRID  # the last block kept overshoots
    fresh = [hi - lo for lo, hi in recorded_spans if len(kept) * _GRID <= lo and hi <= top]
    assert fresh and max(fresh) > _GRID


def test_fold_memo_grows_with_range_not_chunk_count_and_ends_with_the_sweep():
    class Sizes(MemorySink):
        def advance(self, frontier):
            super().advance(frontier)
            sizes.append(len(_FOLD_MEMO.maps))

    sizes = []
    _FOLD_MEMO.clear()
    records = list(kh_sweep((3, 10**5), checkpoint_sink=Sizes()))
    last_start = records[(len(records) - 1) // CHUNK_PRIMES * CHUNK_PRIMES].prime
    assert sizes[-1] == last_start // _GRID <= -(-(10**5) // _GRID)
    assert sizes == sorted(sizes)
    assert _FOLD_MEMO.maps == {} and _FOLD_MEMO.nbytes == 0


def test_narrow_high_window_keeps_the_memo_in_its_budget(monkeypatch):
    # one chunk far above its range's start reuses no block: the memo stops
    # at its budget and the residues match a sweep with no memo at all
    monkeypatch.setattr(sweeps, "_MEMO_BYTES", 20000)
    _FOLD_MEMO.clear()
    window = (200_000, 200_400)
    seen = []
    for rec in kh_sweep(window):
        seen.append((rec.prime, rec.residue))
        assert _FOLD_MEMO.nbytes < 20000 + 6 * _GRID
    monkeypatch.setattr(sweeps, "_MEMO_BYTES", 0)
    assert [(r.prime, r.residue) for r in kh_sweep(window)] == seen
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
    want = [residue_direct(p, p).residue for p in primes]
    for method in METHODS:
        got = batch_residues(np.array(primes, dtype=np.int64), method)
        assert got.dtype == np.int64
        assert got.tolist() == want, method


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


def test_batch_residues_validation():
    with pytest.raises(ValueError):
        batch_residues(primes_between(3, 100), "sideways")
    with pytest.raises(ValueError):
        batch_residues(np.array([2, 3, 5], dtype=np.int64))
    with pytest.raises(ValueError):
        batch_residues(np.array([5, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        batch_residues(np.array([3, 5, MAX_SWEEP_PRIME + 2], dtype=np.int64))
    assert batch_residues(np.array([], dtype=np.int64)).size == 0


def test_kh_sweep_streams_every_prime_once():
    records = list(kh_sweep((3, 10000), sieve=SIEVE))
    primes = primes_between(3, 10000)
    assert [r.prime for r in records] == primes.tolist()
    assert all(not r.violates_kh for r in records)
    assert all(r.residue == residue_direct(r.prime, r.prime).residue for r in records[:50])


def test_kh_sweep_empty_and_invalid_ranges():
    assert list(kh_sweep((5000, 4999), sieve=SIEVE)) == []
    with pytest.raises(ValueError):
        list(kh_sweep((2, 100)))
    with pytest.raises(ValueError):
        list(kh_sweep((3, MAX_SWEEP_PRIME + 10)))
    with pytest.raises(ValueError):
        list(kh_sweep((3, 100), worker_count=0))


def test_kh_sweep_worker_count_does_not_change_records():
    serial = [(r.prime, r.residue, r.method) for r in kh_sweep((3, 9000), sieve=SIEVE)]
    pooled = [
        (r.prime, r.residue, r.method)
        for r in kh_sweep((3, 9000), worker_count=3, sieve=SIEVE)
    ]
    assert serial == pooled


def _slow_past_the_first_chunk(chunk, method):
    # the kernel on a window whose chunks each take minutes, bar the first
    if int(chunk[0]) > 3:
        time.sleep(120)
    return _kernel_task(chunk, method)


def test_kh_sweep_closed_early_stops_its_workers_without_waiting(monkeypatch):
    monkeypatch.setattr(sweeps, "_kernel_task", _slow_past_the_first_chunk)
    stream = kh_sweep((3, 20000), worker_count=2, sieve=SIEVE)
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


def test_kh_sweep_advances_sink_per_chunk():
    sink = MemorySink()
    records = list(kh_sweep((3, 20000), checkpoint_sink=sink, sieve=SIEVE))
    n_primes = len(records)
    expected_chunks = -(-n_primes // CHUNK_PRIMES)
    assert sink.advances == expected_chunks
    assert sink.frontier == records[-1].prime


def test_kh_sweep_resumes_from_frontier():
    full = [r.prime for r in kh_sweep((3, 20000), sieve=SIEVE)]
    sink = MemorySink()
    seen = []
    # stop a little into chunk 2; the chunk-1 advance has already fired by
    # then (it runs when the record after the chunk boundary is pulled)
    for record in kh_sweep((3, 20000), checkpoint_sink=sink, sieve=SIEVE):
        seen.append(record.prime)
        if len(seen) == CHUNK_PRIMES + 10:
            break
    assert sink.advances == 1
    assert sink.frontier == full[CHUNK_PRIMES - 1]
    resumed = [r.prime for r in kh_sweep((3, 20000), checkpoint_sink=sink, sieve=SIEVE)]
    # the ten unacknowledged chunk-2 records are re-emitted, none skipped
    assert resumed[0] == full[CHUNK_PRIMES]
    assert seen[:CHUNK_PRIMES] + resumed == full


def test_kh_sweep_finished_range_yields_nothing():
    sink = MemorySink()
    for _ in kh_sweep((3, 20000), checkpoint_sink=sink, sieve=SIEVE):
        pass
    done = list(kh_sweep((3, 20000), checkpoint_sink=sink, sieve=SIEVE))
    assert done == []


def test_kh2_scan_finds_only_the_known_square():
    hits = kh2_scan((2, 50), 100)
    assert hits == [(2, 3)]


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


def test_a_set_scan_validation():
    with pytest.raises(ValueError):
        a_set_scan(-1, 100)
    with pytest.raises(ValueError):
        a_set_scan(10, 10)


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
