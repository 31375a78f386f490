from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftfact import (
    IDENTITY_IDS,
    alternating_divisor_hits,
    alternating_factorial,
    evaluate_identity,
    gcd_pair,
    iter_left_factorials,
    left_factorial,
    partial_sum_gcd,
    pole_residue_fraction,
    stirling_table,
    weighted_sum,
)
from leftfact.cli import main
from leftfact.exact import WEIGHTED_SUM_CACHE

KNOWN_VALUES = {
    0: 0,
    1: 1,
    2: 2,
    3: 4,
    4: 10,
    5: 34,
    7: 874,
    12: 43954714,
    16: 1401602636314,
    25: 647478071469567844940314,
}


def test_left_factorial_known_values():
    for n, expected in KNOWN_VALUES.items():
        assert left_factorial(n) == expected


def test_left_factorial_rejects_negative():
    with pytest.raises(ValueError):
        left_factorial(-1)


def test_iter_left_factorials_matches_pointwise():
    rows = list(iter_left_factorials(30))
    assert rows[0] == (0, 1, 0)
    for n, fact_n, kn in rows:
        assert fact_n == math.factorial(n)
        assert kn == left_factorial(n)


@given(st.integers(min_value=0, max_value=300))
def test_left_factorial_recurrence(n):
    assert left_factorial(n + 1) == left_factorial(n) + math.factorial(n)


def test_alternating_factorial_small_values():
    # A_2 = 1!, A_3 = 2! - 1!, A_5 = 4! - 3! + 2! - 1!
    assert alternating_factorial(2) == 1
    assert alternating_factorial(3) == 1
    assert alternating_factorial(4) == 5
    assert alternating_factorial(5) == 19
    assert alternating_factorial(6) == 101


@given(st.integers(min_value=2, max_value=100))
def test_alternating_factorial_recurrence(n):
    assert alternating_factorial(n + 1) == math.factorial(n) - alternating_factorial(n)


def test_alternating_divisor_hits_empty_at_desk_scale():
    assert alternating_divisor_hits(2000) == []


def test_alternating_divisor_persistence_on_synthetic_divisors():
    # d | A_{n+1} and d | (m+1)! for m >= n forces d | A_{m+1} onward, by
    # the recurrence A_{m+1} = m! - A_m. Check with divisors that actually
    # occur, not just the conjectured-empty prime case.
    for n in range(2, 60):
        a = alternating_factorial(n + 1)
        for d in (3, 5, 7, 11):
            if n + 1 >= d and a % d == 0:
                for m in range(n, n + 50):
                    assert alternating_factorial(m + 2) % d == 0


def test_stirling_second_kind_entries():
    table = stirling_table("second", 6)
    assert table.entry(3, 2) == 3
    assert table.entry(4, 2) == 7
    assert table.entry(5, 3) == 25
    assert table.entry(6, 6) == 1
    assert table.entry(6, 0) == 0
    assert table.entry(4, 7) == 0


def test_stirling_first_kind_signed_entries():
    table = stirling_table("first-signed", 5)
    assert table.entry(3, 1) == 2
    assert table.entry(3, 2) == -3
    assert table.entry(5, 1) == 24
    assert table.entry(4, 2) == 11


def test_stirling_tables_are_mutually_inverse():
    m_max = 12
    second = stirling_table("second", m_max)
    first = stirling_table("first-signed", m_max)
    for m in range(m_max + 1):
        for k in range(m_max + 1):
            acc = sum(second.entry(m, j) * first.entry(j, k) for j in range(m_max + 1))
            assert acc == (1 if m == k else 0), (m, k)


def test_stirling_table_rejects_bad_input():
    with pytest.raises(ValueError):
        stirling_table("third", 4)
    with pytest.raises(ValueError):
        stirling_table("second", -1)
    with pytest.raises(ValueError):
        stirling_table("second", 3).entry(9, 1)


def test_weighted_sum_base_cases():
    # Q_0(n) = R_0(n) = sum of K(k), k < n
    for n in range(0, 20):
        direct = sum(left_factorial(k) for k in range(n))
        assert weighted_sum("Q", 0, n) == direct
        assert weighted_sum("R", 0, n) == direct
    # K_0(n) = sum of k!, k < n = K(n)
    for n in range(0, 20):
        assert weighted_sum("K_m", 0, n) == left_factorial(n)


def test_weighted_sum_rejects_bad_input():
    # also once valid sums are cached: errors are not cached
    weighted_sum("Q", 1, 5)
    weighted_sum("K_m", 1, 5)
    for _ in range(2):
        with pytest.raises(ValueError):
            weighted_sum("S", 1, 5)
        with pytest.raises(ValueError):
            weighted_sum("Q", -1, 5)
        with pytest.raises(ValueError):
            weighted_sum("K_m", 1, -1)


def reference_weighted_sums(m_max: int, n_max: int) -> dict[tuple[str, int, int], int]:
    """Every Q_m(n), R_m(n), K_m(n) for m <= m_max, n <= n_max, by prefix
    sums over K(k) and k! taken from math.factorial."""
    ks = [0]
    for k in range(n_max):
        ks.append(ks[-1] + math.factorial(k))
    out = {}
    for m in range(m_max + 1):
        terms = {
            "Q": [k**m * ks[k] for k in range(n_max)],
            "R": [math.comb(k, m) * ks[k] for k in range(n_max)],
            "K_m": [math.comb(k, m) * math.factorial(k) for k in range(n_max)],
        }
        for kind, row in terms.items():
            total = 0
            for n in range(n_max + 1):
                out[kind, m, n] = total
                if n < n_max:
                    total += row[n]
    return out


def test_weighted_sum_memo_matches_the_uncached_loop():
    reference = reference_weighted_sums(9, 80)
    assert len(reference) == 3 * 10 * 81
    for (kind, m, n), want in reference.items():
        assert weighted_sum.__wrapped__(kind, m, n) == want, (kind, m, n)
        # the first call may compute or hit; the second is served by the memo
        assert weighted_sum(kind, m, n) == weighted_sum(kind, m, n) == want, (kind, m, n)


def test_weighted_sum_repeated_call_is_a_cache_hit():
    first = weighted_sum("R", 4, 33)
    before = weighted_sum.cache_info()
    assert weighted_sum("R", 4, 33) == first
    after = weighted_sum.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_weighted_sum_memo_keeps_types_apart():
    # with typed=False, 5.0 would hash to the cached 5 and return its sum
    assert weighted_sum("Q", 1, 5) == 1 * 1 + 2 * 2 + 3 * 4 + 4 * 10
    with pytest.raises(TypeError):
        weighted_sum("Q", 1, 5.0)


def test_weighted_sum_memo_is_bounded_and_holds_criterion_06_grid():
    info = weighted_sum.cache_info()
    assert info.maxsize is not None and info.maxsize == WEIGHTED_SUM_CACHE
    weighted_sum.cache_clear()
    for n in range(1, 61):
        evaluate_identity("I221", n=n)
    for n in range(2, 61):
        evaluate_identity("I222", n=n)
        evaluate_identity("I223", n=n)
    for ident in ("I224", "I225", "I226", "IDUAL"):
        for m in range(9):
            for n in range(61):
                evaluate_identity(ident, m=m, n=n)
    info = weighted_sum.cache_info()
    # 8962 calls, 1709 distinct sums, every one still held at the end
    assert (info.hits, info.misses, info.currsize) == (7253, 1709, 1709)
    assert info.currsize < info.maxsize


def test_identity_all_output_is_pinned(capsys):
    # sha256 of the stdout of `leftfact identity all --m 8 --n 60` before
    # weighted_sum was memoised
    capsys.readouterr()
    assert main(["identity", "all", "--m", "8", "--n", "60"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "ba674a0b52e98314639013de4ba05b49d3d84edbf965724b9b33e797e0e791ca"


def test_identity_sum_of_k_small_cases():
    lhs, rhs = evaluate_identity("I221", n=2)
    assert lhs == rhs == 3
    lhs, rhs = evaluate_identity("I222", n=2)
    assert lhs == rhs == 2
    # with the trivial n=2 case the I223 sides are 6 = 6 by K(0) = 0
    lhs, rhs = evaluate_identity("I223", n=2)
    assert lhs == rhs == 6


def test_identity_weighted_second_moment_hand_values():
    # 6(1*K(1) + 4*K(2)) = 6*9 = 54 and the closed form must produce it
    lhs, rhs = evaluate_identity("I223", n=3)
    assert lhs == rhs == 54
    lhs, rhs = evaluate_identity("I223", n=4)
    assert lhs == rhs == 270


def test_identity_binomial_correction_hand_value():
    # m=2, n=5: R_2(5) = C(3,2)K(3) + C(4,2)K(4) = 12 + 60 ... direct is 72
    direct = sum(math.comb(k, 2) * left_factorial(k) for k in range(5))
    lhs, rhs = evaluate_identity("I225", m=2, n=5)
    assert lhs == direct
    assert lhs == rhs


def test_identities_hold_on_sampled_grid():
    for n in (1, 2, 5, 12, 30):
        lhs, rhs = evaluate_identity("I221", n=n)
        assert lhs == rhs, ("I221", n)
    for n in (2, 3, 12, 30):
        for ident in ("I222", "I223"):
            lhs, rhs = evaluate_identity(ident, n=n)
            assert lhs == rhs, (ident, n)
    for m in (0, 1, 2, 5):
        for n in (0, 1, 7, 25):
            for ident in ("I224", "I225", "I226", "IDUAL"):
                lhs, rhs = evaluate_identity(ident, m=m, n=n)
                assert lhs == rhs, (ident, m, n)


@settings(deadline=None, max_examples=60)
@given(
    ident=st.sampled_from(("I224", "I225", "I226", "IDUAL")),
    m=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=0, max_value=45),
)
def test_identity_property_parametrized(ident, m, n):
    lhs, rhs = evaluate_identity(ident, m=m, n=n)
    assert lhs == rhs


def test_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate_identity("I999", n=4)
    with pytest.raises(ValueError):
        evaluate_identity("I221")
    with pytest.raises(ValueError):
        evaluate_identity("I221", n=0)
    with pytest.raises(ValueError):
        evaluate_identity("I224", n=4)  # missing m
    assert set(IDENTITY_IDS) == {
        "I221", "I222", "I223", "I224", "I225", "I226", "IDUAL",
    }


def test_gcd_pair():
    assert gcd_pair(874, 43954714) == 38
    assert gcd_pair(0, 5) == 5
    with pytest.raises(ValueError):
        gcd_pair(0, 0)


def test_coprimality_direct_instances():
    # gcd(!n, n!) = 2 for 2 <= n <= 2000
    fact = 1
    for n, fac, kn in iter_left_factorials(2000):
        if n >= 2:
            assert math.gcd(kn, fac) == 2, n
        fact = fac


def test_partial_sum_gcd_instances():
    for n in range(3, 201):
        assert partial_sum_gcd(n) == 2, n
    with pytest.raises(ValueError):
        partial_sum_gcd(2)


def test_pole_residue_fractions():
    assert pole_residue_fraction(1) == Fraction(-1)
    assert pole_residue_fraction(3) == Fraction(-1, 2)
    assert pole_residue_fraction(4) == Fraction(-1, 3)
    assert pole_residue_fraction(5) == Fraction(-3, 8)
    with pytest.raises(ValueError):
        pole_residue_fraction(2)
    with pytest.raises(ValueError):
        pole_residue_fraction(0)


def test_pole_residue_fraction_tends_to_inverse_e_tail():
    # residues converge to 1/e - 1 as the pole index grows
    limit = sum(Fraction((-1) ** (k - 1), math.factorial(k)) for k in range(2, 25))
    assert abs(pole_residue_fraction(20) - limit) < Fraction(1, 10**15)
