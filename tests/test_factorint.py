from __future__ import annotations

import os
import subprocess
import sys
from math import prod

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


def counted_sympy_factorint(monkeypatch):
    """The arguments of every sympy.factorint call from here on."""
    import sympy

    seen = []
    factorint = sympy.factorint
    monkeypatch.setattr(sympy, "factorint", lambda n, **k: seen.append(n) or factorint(n, **k))
    return seen


def test_psi_13_goes_to_sympy(monkeypatch):
    import sympy

    calls = []
    isprime = sympy.isprime
    monkeypatch.setattr(sympy, "isprime", lambda n: calls.append("isprime") or isprime(n))
    seen = counted_sympy_factorint(monkeypatch)
    assert not is_probable_prime(PSI_13)
    assert calls == ["isprime"]
    # it passes the 13 bases and sympy.isprime finds it composite; rho does
    # not split it, and the sieve does
    f = factorize(PSI_13)
    assert calls == ["isprime", "isprime"] and seen == []
    assert f.factors == ((1287836182261, 1), (2575672364521, 1))
    # below the bound nothing reaches sympy
    calls.clear()
    assert is_probable_prime(PSI_13 - 2) == isprime(PSI_13 - 2)
    factorize(PSI_13 - 1)
    assert calls == [] and seen == []


def test_above_psi_13_rho_splits_before_sympy(monkeypatch):
    import sympy

    from leftfact import factorint

    seen, sieved = counted_sympy_factorint(monkeypatch), []
    divisor = factorint._qs_divisor
    monkeypatch.setattr(factorint, "_qs_divisor", lambda n: sieved.append(n) or divisor(n))
    # K(26): rho splits off 49297 and leaves a cofactor below PSI_13
    assert factorize(left_factorial(26)).factors == (
        (2, 1), (49297, 1), (1348619023, 1), (121525196147, 1)
    )
    assert seen == sieved == []
    # rho splits off 10007 within its budget but not the two primes near
    # 2^42; the sieve splits their product, and sympy sees nothing
    p, q = int(sympy.prevprime(2**42)), int(sympy.nextprime(2**42))
    assert p * q >= PSI_13
    got = factorize(10007 * p * q).factors
    assert sieved == [p * q] and seen == []
    assert got == ((10007, 1), (p, 1), (q, 1))


def test_the_sieve_splits_what_sympy_split_by_p_minus_1(monkeypatch):
    import sympy

    seen = counted_sympy_factorint(monkeypatch)
    # p - 1 = 2 * 3^2 * 5 * ... * 53 is smooth, so sympy's p-1 finds p at
    # once; neither rho nor the old ECM curves split p * q
    p, q = 3 * int(sympy.primorial(53, nth=False)) + 1, int(sympy.nextprime(10**20))
    assert p == 97767475431570134191
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert seen == []


def test_above_fifty_digits_sympy_factorint_splits_what_rho_leaves(monkeypatch):
    import sympy

    seen = counted_sympy_factorint(monkeypatch)
    p, q = 3 * int(sympy.primorial(53, nth=False)) + 1, int(sympy.nextprime(10**31))
    assert p * q >= 10**50
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert seen == [p * q]


def seeded_prime(rng, digits):
    import sympy

    return int(sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))


# the digits of the primes of each seeded product: balanced ones from
# PSI_13 up to 50 digits, and ones with a prime of 9-12 digits, which
# rho's budget misses, or of three primes
SIEVE_CASES = (
    (13, 13), (15, 16), (19, 19), (22, 23), (25, 25),
    (9, 20), (10, 25), (11, 30), (12, 26),
    (9, 10, 12), (10, 12, 15), (12, 14, 16),
)


@pytest.mark.parametrize("digits", SIEVE_CASES, ids=lambda d: "-".join(map(str, d)))
def test_the_sieve_splits_seeded_products_of_primes(monkeypatch, digits):
    import random

    rng = random.Random(f"qs{digits}")
    primes = [seeded_prime(rng, d) for d in digits]
    v = prod(primes)
    assert PSI_13 <= v < 10**50
    seen = counted_sympy_factorint(monkeypatch)
    # the primes are sympy's, so by unique factorization this is what
    # sympy.factorint(v) returns, without its seconds per example
    assert factorize(v).factors == tuple((p, 1) for p in sorted(primes))
    assert seen == []


def test_qs_divisor_is_deterministic():
    import random

    from leftfact import factorint

    rng = random.Random(1)
    p, q = seeded_prime(rng, 15), seeded_prime(rng, 16)
    first = factorint._qs_divisor(p * q)
    assert first in (p, q)
    assert [factorint._qs_divisor(p * q) for _ in range(2)] == [first, first]


def test_qs_polynomials_are_distinct_with_a_dividing_them_and_true_roots():
    import random
    from itertools import islice

    import numpy as np
    import sympy
    from sympy.ntheory import sqrt_mod

    from leftfact import factorint

    rng = random.Random(2)
    n = seeded_prime(rng, 19) * seeded_prime(rng, 20)
    size, m = factorint._qs_params(n)
    qrs = (p for p in sympy.primerange(3, 10**5) if pow(n % p, (p - 1) // 2, p) == 1)
    fb = [2, *islice(qrs, size - 1)]
    roots = np.array([0] + [int(sqrt_mod(n % p, p)) for p in fb[1:]], dtype=np.int64)
    polys = list(islice(factorint._qs_polynomials(n, m, fb, roots, random.Random(0)), 64))
    assert len({(a, b) for a, _, b, _, _ in polys}) == 64
    for a, qs, b, x1, x2 in polys:
        assert a == prod(fb[i] for i in qs)
        assert (b * b - n) % a == 0
        # at sieve position x, y = a(x - m) + b
        for i in set(range(1, len(fb))) - set(qs):
            for x in (int(x1[i]), int(x2[i])):
                assert ((a * (x - m) + b) ** 2 - n) % fb[i] == 0


@pytest.mark.parametrize("power", (2, 3))
@pytest.mark.parametrize("digits", (13, 15))
def test_prime_powers_split_without_sympy_factorint(monkeypatch, power, digits):
    import random

    p = seeded_prime(random.Random(digits), digits)
    assert p**power >= PSI_13
    seen = counted_sympy_factorint(monkeypatch)
    assert factorize(p**power).factors == ((p, power),)
    assert factorize(7 * p**power).factors == ((7, 1), (p, power))
    assert seen == []


def test_left_factorials_to_40_never_call_sympy_factorint(monkeypatch):
    seen = counted_sympy_factorint(monkeypatch)
    for n in range(2, 41):
        v = left_factorial(n)
        f = factorize(v)
        assert f.complete and f.reassemble() == v, n
        assert all(is_probable_prime(p) for p, _ in f.factors), n
    # sympy.isprime certifies the primes from PSI_13 up
    assert seen == []


def run_isolated(code):
    """stdout of code run in a fresh interpreter that imports this tree's
    leftfact."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_factoring_below_psi_13_imports_neither_numpy_nor_sympy():
    code = (
        "import sys\n"
        "from leftfact import factorize, left_factorial\n"
        "assert factorize(left_factorial(25)).factors[-1] == (26658285041, 1)\n"
        "assert factorize(PSI := 3317044064679887385961981 - 1).reassemble() == PSI\n"
        "print('numpy' in sys.modules, 'sympy' in sys.modules)\n"
    )
    assert run_isolated(code) == "False False"


def test_residue_direct_never_imports_sympy():
    code = (
        "import sys\n"
        "from leftfact import residue_direct\n"
        "assert residue_direct(7, 7).residue == 6\n"
        "print('sympy' in sys.modules)\n"
    )
    assert run_isolated(code) == "False"


def test_primality_callers_never_import_factorint():
    # is_probable_prime lives in primes, so only factoring loads factorint;
    # a composite from PSI_13 up that fails the 13 bases needs no sympy
    code = (
        "import sys\n"
        "import leftfact.analytic, leftfact.modular, leftfact.primes, leftfact.sweeps\n"
        "from leftfact.primes import PSI_13, is_probable_prime\n"
        "assert (2**61 - 1) * (2**89 - 1) > PSI_13\n"
        "assert not is_probable_prime((2**61 - 1) * (2**89 - 1))\n"
        "print('leftfact.factorint' in sys.modules, 'sympy' in sys.modules)\n"
    )
    assert run_isolated(code) == "False False"
