from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
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
    # it passes the 13 bases, sympy.isprime finds it composite, and neither
    # rho nor the curves split it
    f = factorize(PSI_13)
    assert calls == ["isprime", "isprime", "factorint"]
    assert f.complete and f.reassemble() == PSI_13
    assert f.factors == sympy_factors(PSI_13)
    # below the bound nothing reaches sympy
    calls.clear()
    assert is_probable_prime(PSI_13 - 2) == isprime(PSI_13 - 2)
    factorize(PSI_13 - 1)
    assert calls == []


def test_above_psi_13_rho_splits_before_sympy(monkeypatch):
    import sympy

    from leftfact import factorint

    seen, curves, ecm = [], [], []
    sympy_factorint, curve, divisor = sympy.factorint, factorint._ecm_curve, factorint._ecm_divisor
    monkeypatch.setattr(
        sympy, "factorint", lambda n, **k: seen.append(n) or sympy_factorint(n, **k)
    )
    monkeypatch.setattr(factorint, "_ecm_curve", lambda n, s: curves.append(s) or curve(n, s))
    monkeypatch.setattr(factorint, "_ecm_divisor", lambda n: ecm.append(n) or divisor(n))
    # K(26): rho splits off 49297 and leaves a cofactor below PSI_13
    assert factorize(left_factorial(26)).factors == (
        (2, 1), (49297, 1), (1348619023, 1), (121525196147, 1)
    )
    assert seen == ecm == []
    # rho splits off 10007 within its budget but not the two primes near
    # 2^42; the curves split their product, and sympy sees nothing
    p, q = int(sympy.prevprime(2**42)), int(sympy.nextprime(2**42))
    assert p * q >= PSI_13
    got = factorize(10007 * p * q).factors
    assert ecm == [p * q] and seen == []
    assert got == ((10007, 1), (p, 1), (q, 1)) == sympy_factors(10007 * p * q)
    # p - 1 = 2 * 3^2 * 5 * ... * 53 is smooth, so sympy's p-1 finds p at
    # once, but neither rho nor any of the 8 curves splits p * q
    p, q = 3 * int(sympy.primorial(53, nth=False)) + 1, int(sympy.nextprime(10**20))
    assert p == 97767475431570134191
    for calls in (seen, curves, ecm):
        calls.clear()
    got = factorize(p * q).factors
    assert ecm == [p * q] and curves == list(range(6, 14))
    assert seen == [p * q]
    assert got == ((p, 1), (q, 1)) == sympy_factors(p * q)


def digit_primes(lo_digits, hi_digits):
    """Primes of lo_digits to hi_digits digits, spread over the digit counts."""
    import sympy

    return (
        st.integers(min_value=lo_digits, max_value=hi_digits)
        .flatmap(lambda d: st.integers(min_value=10 ** (d - 1), max_value=10**d - 1))
        .map(lambda x: int(sympy.nextprime(x)))
        .filter(lambda p: p < 10**hi_digits)
    )


@settings(deadline=None, max_examples=15)
@given(st.lists(digit_primes(7, 13), min_size=2, max_size=3))
def test_ecm_path_matches_sympy_on_products_of_primes(primes):
    v = 1
    for p in primes:
        v *= p
    assume(v >= PSI_13)
    # the primes are sympy's, so by unique factorization this is what
    # sympy.factorint(v) returns, without its seconds per example
    assert factorize(v).factors == tuple(sorted((p, primes.count(p)) for p in set(primes)))


def test_ecm_divisor_is_deterministic():
    import sympy

    from leftfact import factorint

    p, q = int(sympy.prevprime(2**42)), int(sympy.nextprime(2**42))
    first = factorint._ecm_divisor(p * q)
    assert first in (p, q)
    assert factorint._ecm_divisor(p * q) == first


def test_ecm_stage_2_covers_exactly_the_primes_between_its_bounds():
    import sympy

    from leftfact import factorint

    k, plan = factorint._ecm_plan()
    d = factorint._ECM_D
    assert k == sympy.lcm(list(range(1, factorint._ECM_B1 + 1)))
    steps, m = [], 2
    for j in plan:
        if j:
            steps.append((m, j))
        else:
            m += 1
    assert len(set(steps)) == len(steps)
    covered = {m * d + s * j for m, j in steps for s in (-1, 1)}
    want = set(sympy.primerange(factorint._ECM_B1 + 1, factorint._ECM_B2 + 1))
    assert want <= covered
    # each (m, j) is there for a prime, and no baby step is out of range
    assert all(m * d - j in want or m * d + j in want for m, j in steps)
    assert all(j % 2 and j <= d // 2 for _, j in steps)


def test_curves_leave_sympy_only_primes_on_the_left_factorials_they_split(monkeypatch):
    import sympy

    seen = []
    factorint = sympy.factorint
    monkeypatch.setattr(sympy, "factorint", lambda n, **k: seen.append(n) or factorint(n, **k))
    for n in (27, 28, 31, 32, 34, 36, 38):
        v = left_factorial(n)
        f = factorize(v)
        assert f.complete and f.reassemble() == v, n
        assert all(is_probable_prime(p) for p, _ in f.factors), n
    # sympy.isprime certifies the primes from PSI_13 up
    assert seen == []


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
