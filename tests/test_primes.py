from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftfact import (
    build_sieve,
    count_pair_progressions,
    good_prime_check,
    p_set,
    pi_sequence,
    s_sequence,
    sign_statistics,
    sum_inequality_scan,
)
from leftfact.primes import _SEGMENT as ODD_SEGMENT

SIEVE = build_sieve(2_000_000)

FIRST_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
]


def test_sieve_against_hand_list():
    assert SIEVE.primes_up_to(100).tolist() == FIRST_PRIMES
    assert SIEVE.is_prime(2)
    assert not SIEVE.is_prime(1)
    assert not SIEVE.is_prime(0)
    assert SIEVE.is_prime(1299709)  # p_100000


def test_sieve_known_counts():
    assert SIEVE.primes_up_to(10**4).size == 1229
    assert SIEVE.primes_up_to(10**6).size == 78498
    assert len(build_sieve(2)) == 1


def test_sieve_indexing_and_bounds():
    assert SIEVE.prime_at(1) == 2
    assert SIEVE.prime_at(25) == 97
    with pytest.raises(ValueError):
        SIEVE.prime_at(0)
    with pytest.raises(ValueError):
        SIEVE.is_prime(SIEVE.limit + 1)
    with pytest.raises(ValueError):
        SIEVE.primes_up_to(SIEVE.limit + 1)
    with pytest.raises(ValueError):
        build_sieve(1)


def test_sieve_membership_vectorized():
    vals = np.array([0, 1, 2, 3, 4, 97, 98, 1299709])
    got = SIEVE.membership(vals)
    assert got.tolist() == [False, False, True, True, False, True, False, True]


# a sieve over three whole 2^20 segments and a few values of a fourth
SEGMENT = 1 << 20
WIDE = build_sieve(3 * SEGMENT + 5)


def prime_by_trial(v: int) -> bool:
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


def check_against_trial(values: list[int]) -> None:
    want = [prime_by_trial(v) for v in values]
    assert WIDE.membership(np.array(values, dtype=np.int64)).tolist() == want
    assert [WIDE.is_prime(v) for v in values] == want
    for x in values:
        below = WIDE.primes_up_to(x)
        if x < 2:
            assert below.size == 0
        else:
            # the largest prime <= x ends the prefix
            assert int(below[-1]) == next(v for v in range(x, 1, -1) if prime_by_trial(v))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=3 * SEGMENT + 5), min_size=1, max_size=40))
def test_array_sieve_matches_trial_division(values):
    check_against_trial(values)


def test_array_sieve_at_segment_edges():
    edges = [k * SEGMENT + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    check_against_trial(edges + [0, 1, 2, 3, WIDE.limit])
    for edge in edges:
        window = range(edge - 300, edge + 5)
        inside = [v for v in window if prime_by_trial(v)]
        got = WIDE.primes_up_to(edge + 4)
        assert got[-len(inside) :].tolist() == inside
        assert int(got[-len(inside) - 1]) < edge - 300


def test_array_sieve_range_errors():
    for v in (-1, WIDE.limit + 1):
        with pytest.raises(ValueError):
            WIDE.is_prime(v)
        with pytest.raises(ValueError):
            WIDE.membership(np.array([5, v]))
    with pytest.raises(ValueError):
        WIDE.primes_up_to(WIDE.limit + 1)
    assert WIDE.membership(np.array([], dtype=np.int64)).tolist() == []


def test_sieve_small_limits_match_trial_division():
    # odd and even limits; the first odd-only segment starts at 1, no prime
    for limit in range(2, 401):
        sieve = build_sieve(limit)
        want = [v for v in range(limit + 1) if prime_by_trial(v)]
        assert sieve.primes_up_to(limit).tolist() == want, limit
        assert [v for v in range(limit + 1) if sieve.is_prime(v)] == want, limit
        assert len(sieve) == len(want), limit


def test_odd_only_sieve_at_segment_edges():
    # segment k holds the odd numbers from 1 + 2k * _SEGMENT on
    edges = [1 + 2 * k * ODD_SEGMENT for k in (1, 2)]
    sieve = build_sieve(edges[-1] + 2)
    values = [e + d for e in edges for d in (-2, -1, 0, 1, 2)]
    want = [prime_by_trial(v) for v in values]
    assert [sieve.is_prime(v) for v in values] == want
    assert sieve.membership(np.array(values, dtype=np.int64)).tolist() == want
    for edge in edges:
        inside = [v for v in range(edge - 300, edge + 3) if prime_by_trial(v)]
        got = sieve.primes_up_to(edge + 2)
        assert got[-len(inside) :].tolist() == inside
        assert int(got[-len(inside) - 1]) < edge - 300
    # a limit at an edge leaves a last segment of one number
    for limit in (edges[0] + d for d in (-2, -1, 0, 1, 2)):
        assert build_sieve(limit).primes.tolist() == sieve.primes_up_to(limit).tolist()


def test_sieve_primes_are_read_only():
    # they are the sieve's own memory, which is_prime and every sweep read
    sieve = build_sieve(100)
    with pytest.raises(ValueError):
        sieve.primes[0] = 4
    with pytest.raises(ValueError):
        sieve.primes_up_to(50)[-1] = 49
    with pytest.raises(ValueError):
        sieve.primes.flags.writeable = True
    assert sieve.is_prime(2) and not sieve.is_prime(4)


@pytest.mark.parametrize(
    "limit, count, digest",
    [
        (2, 1, "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4"),
        (3, 2, "fe6d3d3bb5dd778af1128cc7b2b33668d51b9a52dfc8f2342be37ddc06a0072d"),
        (1 << 20, 82025, "7f38ca3bca3d3b8448b19b977e1b4f7985d5446991c6bcf4648ed85eb9723f3b"),
        ((1 << 20) + 1, 82025, "7f38ca3bca3d3b8448b19b977e1b4f7985d5446991c6bcf4648ed85eb9723f3b"),
        (10**6, 78498, "9a175956bcc0270ceaaf56af1b9f8fa19762597a1286b5124ca6d86284f60b40"),
    ],
)
def test_sieve_primes_match_pinned_arrays(limit, count, digest):
    # sha256 of the little-endian int64 prime arrays the bitmap sieve built
    primes = build_sieve(limit).primes
    assert primes.dtype == np.int64 and primes.size == count
    assert hashlib.sha256(primes.astype("<i8").tobytes()).hexdigest() == digest


def test_p_set_forced_candidate_cases():
    # n not divisible by 3: the only possible member is 2n+3
    r1 = p_set(1)
    assert r1.members == (5,)
    assert r1.exhaustive
    assert r1.forced_candidate == 5
    r13 = p_set(13)
    assert r13.members == ()
    assert r13.exhaustive
    r4 = p_set(4)
    assert r4.members == (11,)
    # 2n+3 = 41 prime and 41+38=79 prime: P(19) = {41}
    assert p_set(19).members == (41,)


def test_p_set_searched_case_multiple_of_three():
    r = p_set(3, x_bound=1000)
    assert not r.exhaustive
    assert r.x_bound == 1000
    assert 11 in r.members and 13 in r.members
    for x in r.members:
        assert SIEVE.is_prime(x - 6) and SIEVE.is_prime(x) and SIEVE.is_prime(x + 6)


def test_p_set_validation():
    with pytest.raises(ValueError):
        p_set(0)
    with pytest.raises(ValueError):
        p_set(10, x_bound=20)


def test_p_set_classification_soundness():
    # brute force x <= 10^5 finds nothing beyond the forced candidate for
    # any n not divisible by 3
    xs = SIEVE.primes_up_to(100_000)
    for n in range(1, 501):
        if n % 3 == 0:
            continue
        x = xs[xs > 2 * n]
        hits = x[SIEVE.membership(x - 2 * n) & SIEVE.membership(x + 2 * n)]
        assert set(hits.tolist()) <= {2 * n + 3}, n


def test_p_set_union_grows_with_search_bound():
    counts = []
    for bound in (25_000, 50_000, 100_000):
        nonempty = 0
        for n in range(1, 301):
            if p_set(n, x_bound=bound).members:
                nonempty += 1
        counts.append(nonempty)
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > 0


def test_count_pair_progressions_base():
    # k = 0 gives (5, 7); k = 1 gives (11, 19)
    count, ratio = count_pair_progressions(1)
    assert count == 2
    assert ratio > 0
    with pytest.raises(ValueError):
        count_pair_progressions(0)


def test_count_pair_progressions_monotone():
    c1, _ = count_pair_progressions(100)
    c2, _ = count_pair_progressions(1000)
    assert c1 <= c2
    k = np.arange(1001)
    expected = int(
        np.count_nonzero(SIEVE.membership(6 * k + 5) & SIEVE.membership(12 * k + 7))
    )
    assert c2 == expected


def test_s_sequence_hand_values():
    # s_2 = 9-2-5, s_3 = 25-3-7, s_4 = 49-5-11
    assert s_sequence(2, SIEVE) == 2
    assert s_sequence(3, SIEVE) == 15
    assert s_sequence(4, SIEVE) == 33
    with pytest.raises(ValueError):
        s_sequence(1, SIEVE)


def test_s_sequence_positive_through_sieve():
    p = SIEVE.primes
    s = p[1:-1].astype(np.int64) ** 2 - p[:-2] - p[2:]
    assert int(s.min()) > 0
    # and the scalar path agrees with the vector form
    assert s_sequence(100, SIEVE) == int(s[98])


def test_pi_sequence_hand_values_and_signs():
    # pi_2 = 9-10, pi_3 = 25-21, pi_4 = 49-55, pi_5 = 121-91
    assert pi_sequence(2, SIEVE) == -1
    assert pi_sequence(3, SIEVE) == 4
    assert pi_sequence(4, SIEVE) == -6
    assert pi_sequence(5, SIEVE) == 30


def test_pi_sequence_both_signs_common_below_million():
    p = SIEVE.primes
    upto = int(np.searchsorted(p, 1_000_000, side="right"))
    pi = p[1 : upto - 1] ** 2 - p[: upto - 2] * p[2:upto]
    positives = int((pi > 0).sum())
    negatives = int((pi < 0).sum())
    assert int((pi == 0).sum()) == 0
    assert positives > 1000 and negatives > 1000


def test_pi_negative_on_twin_with_wide_right_gap():
    # (p_{n-1}, p_n) twin and p_{n+1} >= p_n + 6 forces
    # p_n^2 < p_{n-1} p_{n+1}
    p = SIEVE.primes
    upto = int(np.searchsorted(p, 100_000, side="right"))
    n_idx = np.arange(1, upto - 1)
    twin = p[n_idx] - p[n_idx - 1] == 2
    wide = p[n_idx + 1] - p[n_idx] >= 6
    sel = n_idx[twin & wide]
    assert sel.size > 0
    pi = p[sel] ** 2 - p[sel - 1] * p[sel + 1]
    assert int(pi.max()) < 0


def test_good_prime_check_small_cases():
    # 5 is good: 25 > 3*7 and 25 > 2*11; 7 is not: 49 < 5*11
    assert good_prime_check(3, SIEVE).is_good
    assert not good_prime_check(4, SIEVE).is_good
    assert good_prime_check(1, SIEVE).vacuous
    with pytest.raises(ValueError):
        good_prime_check(0, SIEVE)


def test_good_prime_check_matches_brute_force():
    p = SIEVE.primes
    for n in range(2, 201):
        square = int(p[n - 1]) ** 2
        brute = all(
            square > int(p[n - 1 - i]) * int(p[n - 1 + i]) for i in range(1, n)
        )
        assert good_prime_check(n, SIEVE).is_good == brute, n


def test_good_prime_least_nonvacuous_is_five():
    firsts = [n for n in range(2, 50) if good_prime_check(n, SIEVE).is_good]
    assert firsts[0] == 3
    assert SIEVE.prime_at(3) == 5


def test_sum_inequality_scan_small():
    # p_1^2 = 4 < 2+3, p_2^2 = 9 < 2+3+5: failures exactly {1, 2}
    n0, failures = sum_inequality_scan(50, SIEVE)
    assert failures == [1, 2]
    assert n0 == 3
    with pytest.raises(ValueError):
        sum_inequality_scan(0, SIEVE)


def test_sign_statistics():
    stats = sign_statistics(np.array([1, -1, -1, 5, 2, -3]))
    assert stats.positives == 3
    assert stats.negatives == 3
    assert stats.runs == 4
    assert stats.longest_positive_run == 2
    assert stats.longest_negative_run == 2
    with pytest.raises(ValueError):
        sign_statistics(np.array([1, 0, -1]))


# the strong Lucas pseudoprimes below 6*10^4 with Selfridge's parameters
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519)


def test_strong_lucas_matches_sympy_on_odd_n_to_2e5():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    from leftfact.primes import _is_strong_lucas_prp

    for n in range(1, 200_001, 2):
        assert _is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n


def test_strong_lucas_pseudoprimes_below_6e4():
    from leftfact.primes import _is_strong_lucas_prp

    passing = [n for n in range(3, 60_000, 2) if _is_strong_lucas_prp(n)]
    assert tuple(n for n in passing if not SIEVE.is_prime(n)) == STRONG_LUCAS_PSEUDOPRIMES


def test_strong_lucas_rules_squares_out_before_searching_for_d(monkeypatch):
    from leftfact import primes

    def no_search(a, n):
        raise AssertionError(f"searched for D on {n}")

    monkeypatch.setattr(primes, "_jacobi", no_search)
    for p in (3, 43, 1000003, 2**61 - 1, 2**89 - 1):
        assert not primes._is_strong_lucas_prp(p * p)


def bpsw_cases():
    """Seeded n from PSI_13 to 10^60: random odd numbers, primes, semiprimes
    of two primes above 10^12, squares of primes, and PSI_13 itself."""
    import random

    import sympy

    from leftfact.primes import PSI_13

    rng = random.Random(27)

    def prime(lo, hi):
        return int(sympy.nextprime(rng.randrange(lo, hi)))

    odd = [rng.randrange(PSI_13, 10**60) | 1 for _ in range(300)]
    primes = [prime(PSI_13, 10**59) for _ in range(60)]
    semiprimes = []
    for _ in range(60):
        p = prime(10**12, 10**30)
        semiprimes.append(p * prime(max(10**12, PSI_13 // p), 10**60 // p))
    squares = [prime(math.isqrt(PSI_13), 10**30) ** 2 for _ in range(30)]
    return [PSI_13, *odd, *primes, *semiprimes, *squares]


def test_is_probable_prime_matches_sympy_from_psi_13_to_1e60():
    import sympy

    from leftfact import is_probable_prime
    from leftfact.primes import PSI_13

    cases = bpsw_cases()
    assert all(PSI_13 <= n < 10**60 for n in cases)
    got = [is_probable_prime(n) for n in cases]
    assert got == [sympy.isprime(n) for n in cases]
    # the prime draws are prime, the semiprimes and squares composite
    assert got[301:361] == [True] * 60 and not any(got[361:])
