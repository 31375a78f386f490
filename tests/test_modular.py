from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftfact import (
    MAX_MODULUS,
    VARIANTS,
    VerificationRecord,
    cost_model,
    derangement_number,
    floor_factorial_over_e,
    kh_equivalent_residue,
    left_factorial,
    residue_backward_s,
    residue_direct,
    residue_forward_t,
    residue_forward_v,
    residue_mod_p_squared,
)
from leftfact import modular
from leftfact.primes import build_sieve, is_probable_prime
from leftfact.sweeps import MAX_SWEEP_PRIME
from variant_oracle import loop_tables, loop_variant

SIEVE_2K = build_sieve(2000)
ODD_PRIMES_2K = [int(p) for p in SIEVE_2K.primes if p >= 3]


def test_residue_direct_matches_bigint():
    for n in range(1, 60):
        for m in (2, 3, 4, 7, 10, 97, 360):
            assert residue_direct(n, m).residue == left_factorial(n) % m, (n, m)


def test_residue_direct_validation():
    with pytest.raises(ValueError):
        residue_direct(0, 7)
    with pytest.raises(ValueError):
        residue_direct(5, 1)
    with pytest.raises(ValueError):
        residue_direct(5, MAX_MODULUS + 1)


def test_recurrences_reject_non_odd_primes():
    for fn in (residue_backward_s, residue_forward_t, residue_forward_v):
        with pytest.raises(ValueError):
            fn(2)
        with pytest.raises(ValueError):
            fn(9)
        with pytest.raises(ValueError):
            fn(1)


def test_three_recurrences_small_hand_values():
    # !3 = 4 -> 1 (mod 3), !5 = 34 -> 4 (mod 5), !7 = 874 -> 6 (mod 7)
    for q, want in ((3, 1), (5, 4), (7, 6)):
        assert residue_backward_s(q).residue == want
        assert residue_forward_t(q).residue == want
        assert residue_forward_v(q).residue == want


def test_three_recurrences_agree_with_direct_to_2000():
    for q in ODD_PRIMES_2K:
        want = residue_direct(q, q).residue
        assert residue_backward_s(q).residue == want, q
        assert residue_forward_t(q).residue == want, q
        assert residue_forward_v(q).residue == want, q


def test_congruence_stability_above_the_prime():
    # !n ≡ !p (mod p) for n >= p, because every term from p! on has the
    # factor p. Checked incrementally for all odd p <= 500, n <= p+100.
    for p in ODD_PRIMES_2K:
        if p > 500:
            break
        kn, fact = 0, 1
        base = None
        for n in range(1, p + 101):
            kn = (kn + fact) % p
            fact = fact * n % p
            if n == p:
                base = kn
            elif n > p:
                assert kn == base, (p, n)
    # spot-check the same fact through the public entry points
    assert residue_direct(467 + 50, 467).residue == residue_direct(467, 467).residue


def test_mod_p_squared_consistency():
    for p in (3, 5, 7, 11, 97):
        for n in range(2, 201):
            r = residue_mod_p_squared(n, p)
            assert r.modulus == p * p
            assert r.residue == residue_direct(n, p * p).residue, (n, p)
            assert r.residue % p == residue_direct(n, p).residue, (n, p)


@settings(deadline=None, max_examples=50)
@given(
    p=st.sampled_from([int(q) for q in build_sieve(100).primes if q >= 3]),
    n=st.integers(min_value=2, max_value=200),
)
def test_mod_p_squared_property(p, n):
    assert residue_mod_p_squared(n, p).residue == left_factorial(n) % (p * p)


def test_variant_names_are_stable():
    assert VARIANTS == ("T21_2", "T21_4", "T21_5", "T21_6", "STANK", "DERANGE")
    with pytest.raises(ValueError):
        kh_equivalent_residue("T21_3", 7)


def test_variant_sign_relations_small():
    for p in (3, 5, 7, 11, 13, 97):
        r = residue_direct(p, p).residue
        assert kh_equivalent_residue("T21_2", p) == r
        assert kh_equivalent_residue("T21_4", p) == r
        assert kh_equivalent_residue("DERANGE", p) == r
        assert kh_equivalent_residue("T21_5", p) == (-r) % p
        assert kh_equivalent_residue("T21_6", p) == (-r) % p
        assert kh_equivalent_residue("STANK", p) == (-r) % p


def test_variants_vanish_together_to_2000():
    # no r_p is 0 below 2000, so each variant is pinned to +r_p or -r_p
    for p in ODD_PRIMES_2K:
        r = residue_direct(p, p).residue
        values = {v: kh_equivalent_residue(v, p) for v in VARIANTS}
        for v in ("T21_2", "T21_4", "DERANGE"):
            assert values[v] == r, (p, v)
        for v in ("T21_5", "T21_6", "STANK"):
            assert values[v] == (-r) % p, (p, v)
        for v, val in values.items():
            assert (val == 0) == (r == 0), (p, v)


def test_variants_match_loop_oracle_to_2000():
    for p in ODD_PRIMES_2K:
        for v in VARIANTS:
            got = kh_equivalent_residue(v, p)
            assert type(got) is int and got == loop_variant(v, p), (p, v)


def test_variants_match_loop_oracle_at_seeded_primes():
    primes = [int(q) for q in build_sieve(10**5).primes if q > 2000]
    for p in random.Random(20261021).sample(primes, 8):
        for v in VARIANTS:
            assert kh_equivalent_residue(v, p) == loop_variant(v, p), (p, v)


def test_tables_are_read_only_int64_and_match_the_loops():
    for p in (3, 5, 7, 1999):
        tables = modular._tables(p)
        for got, want in zip(tables, loop_tables(p)):
            assert got.dtype == np.int64 and not got.flags.writeable, p
            assert got.tolist() == want, p


def test_int64_steps_hold_at_the_largest_prime():
    # every operand at p - 1, where a product reaches (p-1)^2 + (p-1): numpy
    # int64 wraps silently, so the bound is checked against Python ints
    p = MAX_SWEEP_PRIME
    while not is_probable_prime(p):
        p -= 1
    assert p == 3_037_000_493 and p * p + p < 2**63
    top = p - 1
    x = modular._prefix_products(np.full(4, top, dtype=np.int64), p)
    assert x.tolist() == [pow(top, k, p) for k in range(1, 5)]
    full = np.full(4, top, dtype=np.int64)
    a, b = modular._compose_pairs(full, full.copy(), p)
    assert a.tolist() == [top * top % p] * 2
    assert b.tolist() == [(top * top + top) % p] * 2


def test_prime_above_the_int64_bound_is_refused_before_allocating():
    p = MAX_SWEEP_PRIME + 1
    while not is_probable_prime(p):
        p += 1
    assert p == 3_037_000_507
    for v in VARIANTS:
        with pytest.raises(ValueError, match="int64 table bound"):
            kh_equivalent_residue(v, p)


def test_variant_tables_follow_interleaved_primes():
    from leftfact import modular

    primes = (1009, 1013)
    separate = {}
    for p in primes:
        for v in VARIANTS:
            modular._tables.cache_clear()
            separate[p, v] = kh_equivalent_residue(v, p)
    # each call finds the other prime's tables cached
    interleaved = {(p, v): kh_equivalent_residue(v, p) for v in VARIANTS for p in primes}
    assert interleaved == separate


def test_verification_record_flag_must_mirror_residue():
    # only an odd prime with residue 0 violates KH: !2 = 2 is 0 mod 2
    flags = {
        (p, r): VerificationRecord(prime=p, residue=r).violates_kh
        for p, r in ((2, 0), (3, 0), (5, 0), (5, 4))
    }
    assert flags == {(2, 0): False, (3, 0): True, (5, 0): True, (5, 4): False}
    # a KH sweep's record, in sweeps: the method is the files', not the record's
    assert VerificationRecord._fields == ("prime", "residue")
    assert VerificationRecord.__module__ == "leftfact.sweeps"


def test_derangement_numbers():
    assert [derangement_number(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]
    with pytest.raises(ValueError):
        derangement_number(-1)


@given(st.integers(min_value=1, max_value=60))
def test_derangement_alternative_recurrence(n):
    # D_n = n*D_{n-1} + (-1)^n equals the inclusion-exclusion sum
    direct = sum(
        (-1) ** k * math.factorial(n) // math.factorial(k) for k in range(n + 1)
    )
    assert derangement_number(n) == direct


def test_floor_factorial_over_e_is_certified():
    # floor(m!/e) = D_m - 1 for even m >= 2, D_m for odd m
    for m in range(1, 120):
        fl = floor_factorial_over_e(m)
        d = derangement_number(m)
        assert fl == (d - 1 if m % 2 == 0 else d), m
    assert floor_factorial_over_e(0) == 0
    with pytest.raises(ValueError):
        floor_factorial_over_e(-2)


def test_cost_model_exact_counts():
    # A(x) = sum 4p over p <= x: A(2) = 8, A(10) = 4*(2+3+5+7) = 68
    assert cost_model(2).exact_a == 8
    assert cost_model(10).exact_a == 68
    m = cost_model(10, k=2)
    assert m.ratio_a == cost_model(20).exact_a / 68
    assert m.asymptotic_a == pytest.approx(2 * 100 / math.log(10))
    with pytest.raises(ValueError):
        cost_model(1)
    with pytest.raises(ValueError):
        cost_model(10, k=0)
