from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftfact import Factorization, factorize, is_probable_prime, left_factorial

PUBLISHED_TABLE = {
    7: ((2, 1), (19, 1), (23, 1)),
    12: ((2, 1), (19, 1), (31, 1), (37313, 1)),
    16: ((2, 1), (19, 1), (41, 1), (491, 1), (1832213, 1)),
    25: ((2, 1), (41, 1), (103, 1), (2875688099, 1), (26658285041, 1)),
}


def test_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_probable_prime(n) == (n in primes)
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)
    assert not is_probable_prime(-7)


def test_probable_prime_carmichael_and_mersenne():
    # Fermat pseudoprimes to many bases; Miller-Rabin must reject them
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_probable_prime(carmichael)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)


def test_factorize_reproduces_published_table():
    for n, expected in PUBLISHED_TABLE.items():
        f = factorize(left_factorial(n))
        assert f.complete
        assert f.factors == expected, n


def test_factorize_small_values():
    f = factorize(2**4 * 3**2 * 97)
    assert f.factors == ((2, 4), (3, 2), (97, 1))
    assert f.complete
    assert str(f) == "2^4 * 3^2 * 97"
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(360, limit=0)


def test_factorize_limit_reports_partial():
    # two Mersenne primes, 2^61 - 1 and 2^89 - 1; a limit of 10 stops sympy
    # long before it splits their product
    v = (2**89 - 1) * (2**61 - 1) * 12
    f = factorize(v, limit=10)
    assert not f.complete
    assert f.factors == ((2, 2), (3, 1))
    assert f.composite_remainder is not None
    assert f.composite_remainder > 1
    assert not is_probable_prime(f.composite_remainder)
    assert f.reassemble() == v
    assert "(composite)" in str(f)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=10**7))
def test_factorize_reassembles(v):
    f = factorize(v)
    assert f.complete
    assert f.reassemble() == v
    for p, e in f.factors:
        assert e >= 1
        assert is_probable_prime(p)
    assert [p for p, _ in f.factors] == sorted({p for p, _ in f.factors})


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.sampled_from((2, 3, 5, 101, 1009, 65537, 2147483647)),
        min_size=1,
        max_size=6,
    )
)
def test_factorize_recovers_constructed_products(primes):
    v = 1
    for p in primes:
        v *= p
    f = factorize(v)
    assert f.complete
    assert f.reassemble() == v
    expected = sorted({p: primes.count(p) for p in primes}.items())
    assert list(f.factors) == expected


def test_factorization_dataclass_properties():
    f = Factorization(value=12, factors=((2, 2), (3, 1)))
    assert f.complete
    assert f.reassemble() == 12
    g = Factorization(value=60, factors=((2, 2),), composite_remainder=15)
    assert not g.complete
    assert g.reassemble() == 60
