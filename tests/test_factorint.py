from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leftfact
from leftfact import Factorization, factorize, is_probable_prime, left_factorial
from leftfact.factorint import PSI_13

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


# Sorenson & Webster (2017): the least strong pseudoprimes to the first 12
# and to the first 13 prime bases
PSI_12 = 318665857834031151167461


def sympy_factors(v):
    import sympy

    return tuple(sorted((int(p), int(e)) for p, e in sympy.factorint(v).items()))


def test_own_path_matches_sympy_on_left_factorials():
    for n in range(2, 26):
        v = left_factorial(n)
        assert v < PSI_13
        assert factorize(v).factors == sympy_factors(v), n
    assert left_factorial(26) >= PSI_13


def primes_below(bound):
    import sympy

    return st.integers(min_value=2, max_value=bound).map(lambda x: int(sympy.prevprime(x + 1)))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.one_of(primes_below(1000), primes_below(10**6), primes_below(2 * 10**12)),
        min_size=1,
        max_size=8,
    )
)
def test_own_path_matches_sympy_on_products_of_primes(primes):
    import sympy

    v = 1
    for p in primes:
        if v * p >= PSI_13:
            break
        v *= p
    if v < 2:
        v = primes[0]
    assert factorize(v).factors == sympy_factors(v)
    assert is_probable_prime(v) == sympy.isprime(v)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=-5, max_value=PSI_13 - 1))
def test_own_primality_matches_sympy_below_the_bound(n):
    import sympy

    assert is_probable_prime(n) == sympy.isprime(n)


def test_twelve_bases_pass_psi_12_and_the_thirteenth_rejects_it():
    import sympy

    from leftfact import factorint

    assert not sympy.isprime(PSI_12)
    # a strong probable prime to each of 2..37, so only base 41 exposes it
    d, s = PSI_12 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in factorint._MR_BASES[:12]:
        x = pow(a, d, PSI_12)
        assert x in (1, PSI_12 - 1) or PSI_12 - 1 in [pow(x, 2**r, PSI_12) for r in range(s)]
    assert not is_probable_prime(PSI_12)
    assert factorize(PSI_12).factors == sympy_factors(PSI_12)


def test_psi_13_goes_to_sympy(monkeypatch):
    import sympy

    calls = []
    isprime, factorint = sympy.isprime, sympy.factorint
    monkeypatch.setattr(sympy, "isprime", lambda n: calls.append("isprime") or isprime(n))
    monkeypatch.setattr(
        sympy, "factorint", lambda *a, **k: calls.append("factorint") or factorint(*a, **k)
    )
    assert not is_probable_prime(PSI_13)
    assert calls == ["isprime"]
    f = factorize(PSI_13)
    assert calls[1] == "factorint"
    assert f.complete and f.reassemble() == PSI_13
    assert f.factors == sympy_factors(PSI_13)
    # below the bound nothing reaches sympy
    calls.clear()
    assert is_probable_prime(PSI_13 - 2) == isprime(PSI_13 - 2)
    factorize(PSI_13 - 1)
    assert calls == []


def test_above_psi_13_rho_splits_before_sympy(monkeypatch):
    import sympy

    seen = []
    factorint = sympy.factorint
    monkeypatch.setattr(sympy, "factorint", lambda n, **k: seen.append(n) or factorint(n, **k))
    # K(26): rho splits off 49297 and leaves a cofactor below PSI_13
    assert factorize(left_factorial(26)).factors == (
        (2, 1), (49297, 1), (1348619023, 1), (121525196147, 1)
    )
    assert seen == []
    # rho splits off 10007 within its budget but not the two primes near
    # 2^42, so sympy gets their product and nothing else
    p, q = int(sympy.prevprime(2**42)), int(sympy.nextprime(2**42))
    assert p * q >= PSI_13
    assert factorize(10007 * p * q).factors == ((10007, 1), (p, 1), (q, 1))
    assert seen == [p * q]


def test_residue_direct_never_imports_sympy():
    code = (
        "import sys\n"
        "from leftfact import residue_direct\n"
        "assert residue_direct(7, 7).residue == 6\n"
        "print('sympy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
