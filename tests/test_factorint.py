from __future__ import annotations

import subprocess
import sys
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fakes import child_env

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


def test_psi_13_is_split_without_sympy_isprime_or_perfect_power(monkeypatch):
    import sympy

    def delegated(*args):
        raise AssertionError("primality and perfect powers have no sympy delegate")

    monkeypatch.setattr(sympy, "isprime", delegated)
    monkeypatch.setattr(sympy, "perfect_power", delegated)
    seen = counted_sympy_factorint(monkeypatch)
    # it passes the 13 bases and the strong Lucas test finds it composite;
    # rho does not split it, it is no perfect power, and the sieve splits it
    assert not is_probable_prime(PSI_13)
    assert factorize(PSI_13).factors == ((1287836182261, 1), (2575672364521, 1))
    assert seen == []


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


def qs_factor_base(n, k, size):
    """2, then the odd primes of k and those modulo which kn is a nonzero
    square, size primes in all, found by sympy."""
    import sympy

    kn, fb = k * n, [2]
    for p in map(int, sympy.primerange(3, 10**6)):
        if k % p == 0 or pow(kn % p, (p - 1) // 2, p) == 1:
            fb.append(p)
            if len(fb) == size:
                return fb
    raise AssertionError("too few primes")


def sympy_roots(kn, fb):
    """A square root of kn mod each odd prime of fb, by sympy, and 0 for 2."""
    import numpy as np
    from sympy.ntheory import sqrt_mod

    return np.array([0] + [int(sqrt_mod(kn % p, p)) for p in fb[1:]], dtype=np.int64)


def test_qs_polynomials_are_distinct_with_a_dividing_them_and_true_roots():
    import random
    from itertools import islice

    from leftfact import factorint

    rng = random.Random(2)
    n = seeded_prime(rng, 19) * seeded_prime(rng, 20)
    size, m = factorint._qs_params(n)
    fb = qs_factor_base(n, 1, size)
    polys = factorint._qs_polynomials(n, m, fb, sympy_roots(n, fb), random.Random(0))
    polys = list(islice(polys, 64))
    assert len({(a, b) for a, _, b, _, _ in polys}) == 64
    for a, qs, b, x1, x2 in polys:
        assert a == prod(fb[i] for i in qs)
        assert (b * b - n) % a == 0
        # at sieve position x, y = a(x - m) + b
        for i in set(range(1, len(fb))) - set(qs):
            for x in (int(x1[i]), int(x2[i])):
                assert ((a * (x - m) + b) ** 2 - n) % fb[i] == 0


def test_sqrt_mod_matches_sympy_on_a_factor_base():
    import random

    import sympy
    from sympy.ntheory import sqrt_mod

    from leftfact import factorint

    rng = random.Random(4)
    n = seeded_prime(rng, 25) * seeded_prime(rng, 25)
    size, _ = factorint._qs_params(n)
    k = factorint._qs_multiplier(n, list(map(int, sympy.primerange(2, 1000))))
    fb = qs_factor_base(n, k, size)
    assert len(fb) == size and any(k % p == 0 for p in fb[1:])
    for p in fb[1:]:
        assert factorint._sqrt_mod(k * n, p) == sqrt_mod(k * n % p, p), p
    # p - 1 = 2^8, 2^9 * 15 and 2^16: Tonelli-Shanks' loop runs longest
    for p, step in ((257, 1), (7681, 1), (65537, 97)):
        for x in range(1, p // 2 + 1, step):
            assert factorint._sqrt_mod(x * x, p) == x, (p, x)


def test_qs_relations_are_squares_mod_n_with_their_exponent_parities():
    import random
    from itertools import islice
    from math import isqrt

    import sympy

    from leftfact import factorint

    rng = random.Random(3)
    n = seeded_prime(rng, 15) * seeded_prime(rng, 15)
    assert len(str(n)) == 30
    size, m = factorint._qs_params(n)
    k = factorint._qs_multiplier(n, list(map(int, sympy.primerange(2, 1000))))
    fb = qs_factor_base(n, k, size)
    relations = list(islice(factorint._qs_relations(n, k * n, m, fb, sympy_roots(k * n, fb)), 64))
    assert len(relations) == 64
    paired = 0
    for y, value, parities in relations:
        assert 0 <= y < n and (y * y - value) % n == 0
        v, want = abs(value), int(value < 0)
        for i, p in enumerate(fb):
            while v % p == 0:
                v, want = v // p, want ^ 2 << i
        assert parities == want
        # what the factor base leaves is 1, or the square of the large
        # prime that two partial relations shared
        r = isqrt(v)
        assert v == 1 or (r * r == v and fb[-1] < r < factorint._QS_LARGE_PRIME * fb[-1])
        paired += v > 1
    assert 0 < paired < 64


@settings(max_examples=300)
@given(
    row=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
    threshold=st.one_of(
        st.floats(min_value=-300, max_value=600),
        st.integers(min_value=-300, max_value=600).map(float),
        st.integers(min_value=-3, max_value=258).map(lambda t: t + 0.5),
    ),
)
@example(row=[0, 1, 254, 255], threshold=-1.0)
@example(row=[0, 1, 254, 255], threshold=-0.5)
@example(row=[0, 1, 254, 255], threshold=254.999)
@example(row=[0, 1, 254, 255], threshold=255.0)
@example(row=[0, 1, 254, 255], threshold=1e9)
def test_sieve_cut_picks_the_positions_the_float_threshold_picks(row, threshold):
    import numpy as np

    from leftfact import factorint

    # the positions b > threshold, compared exactly, in Python
    want = [x for x, b in enumerate(row) if b > threshold]
    for t in (threshold, np.float64(threshold)):
        cut = factorint._sieve_cut(t)
        assert type(cut) is int and -1 <= cut <= 255
        got = np.flatnonzero(np.array(row, dtype=np.uint8) > cut).tolist()
        assert got == want, (t, cut)


def test_no_sieve_byte_can_pass_255():
    import random
    from itertools import islice
    from math import log2

    import sympy

    from leftfact import factorint

    # the largest kn the sieve takes: n below _QS_BELOW, multiplier 73
    n, k = int(sympy.prevprime(factorint._QS_BELOW)), 73
    kn = k * n
    size, m = factorint._qs_params(n)
    fb = qs_factor_base(n, k, size)
    sieved = [p for p in fb if p >= factorint._QS_SKIP]
    polys = factorint._qs_polynomials(kn, m, fb, sympy_roots(kn, fb), random.Random(0))
    for a, _, b, _, _ in islice(polys, 64):
        c, rest = divmod(b * b - kn, a)
        assert rest == 0

        def g(x):
            return a * x * x + 2 * b * x + c

        # a byte at x holds the rounded log2 of the distinct sieved primes
        # that divide g(x), each at most log2 p + 1/2; g is largest in size
        # at the ends of [-m, m] or at its vertex, near -b/a
        vertex = [x for x in (-b // a, -b // a + 1) if -m <= x <= m]
        top = max(abs(g(x)) for x in (-m, m, *vertex))
        count, product = 0, 1
        for p in sieved:
            product *= p
            if product > top:
                break
            count += 1
        # about 112 bits: half of what a byte holds
        assert log2(top) + count / 2 < 128


def test_gf2_dependencies_xor_to_zero():
    import random
    from functools import reduce
    from operator import xor

    from leftfact import factorint

    rng = random.Random(5)
    rows = [rng.getrandbits(40) & rng.getrandbits(40) for _ in range(60)]
    deps = list(factorint._gf2_dependencies(rows))
    # 60 rows of 40 bits leave at least 20 dependencies, each with a row
    # that no earlier one has
    assert len(deps) >= 20 and len({d.bit_length() for d in deps}) == len(deps)
    for used in deps:
        assert used and reduce(xor, (r for i, r in enumerate(rows) if used >> i & 1)) == 0


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


def test_iroot_is_the_floor_at_newton_edges():
    from leftfact.factorint import _iroot

    for e in range(2, 12):
        for k in range(1, 70):
            for r in (2**k - 1, 2**k, 2**k + 1):
                for n in (r**e - 1, r**e, r**e + 1):
                    if n >= 1:
                        root = _iroot(n, e)
                        assert root**e <= n < (root + 1) ** e, (n, e)
                assert _iroot(r**e, e) == r


def perfect_power_cases():
    """Seeded (r, e) with r >= 43, e >= 2 and r^e < 10^60, the Newton
    edges r = 2^k +- 1, and powers of powers."""
    import random

    from leftfact.factorint import _iroot

    rng = random.Random(43)
    # 43^36 < 10^60 < 43^37
    exponents = [rng.randrange(2, 37) for _ in range(300)]
    seeded = [(rng.randrange(43, _iroot(10**60 - 1, e) + 1), e) for e in exponents]
    edges = [(2**k + d, e) for k in (6, 20, 64) for d in (-1, 1) for e in (2, 3)]
    return seeded + edges + [(43**3, 2), (47**2, 15), (2**32 + 1, 4)]


def test_perfect_power_matches_sympy_on_seeded_powers():
    import sympy

    from leftfact.factorint import _perfect_power

    for r, e in perfect_power_cases():
        n = r**e
        assert n < 10**60
        got, want = _perfect_power(n), sympy.perfect_power(n)
        assert got and want, (r, e)
        # ours takes the least prime exponent, sympy the greatest exponent
        (root, prime), (base, top) = got, want
        assert root**prime == n and is_probable_prime(prime)
        assert top % prime == 0 and root == base ** (top // prime), (r, e)


def test_perfect_power_splits_nothing_else():
    import random

    import sympy

    from leftfact.factorint import _perfect_power

    rng = random.Random(5)
    near = [r**e + d for r, e in perfect_power_cases()[:100] for d in (-1, 1)]
    primes = [seeded_prime(rng, d) for d in range(5, 60, 5)]
    semiprimes = [seeded_prime(rng, d) * seeded_prime(rng, d + 1) for d in range(3, 30, 3)]
    for n in near + primes + semiprimes:
        assert _perfect_power(n) is None and not sympy.perfect_power(n), n


def test_the_root_of_a_perfect_power_is_sieved_once(monkeypatch):
    import random

    from leftfact import factorint

    rng = random.Random(3)
    p, q = seeded_prime(rng, 14), seeded_prime(rng, 14)
    sieved = []
    divisor = factorint._qs_divisor
    monkeypatch.setattr(factorint, "_qs_divisor", lambda n: sieved.append(n) or divisor(n))
    assert factorize(11 * (p * q) ** 3).factors == ((11, 1), *sorted([(p, 3), (q, 3)]))
    assert sieved == [p * q]


def test_left_factorials_to_40_never_call_sympy_factorint(monkeypatch):
    seen = counted_sympy_factorint(monkeypatch)
    for n in range(2, 41):
        v = left_factorial(n)
        f = factorize(v)
        assert f.complete and f.reassemble() == v, n
        assert all(is_probable_prime(p) for p, _ in f.factors), n
    # the strong Lucas test certifies the primes from PSI_13 up
    assert seen == []


def run_isolated(code):
    """stdout of code run in a fresh interpreter that imports this tree's
    leftfact."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env()
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
