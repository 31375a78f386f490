"""Integer factorization.

Every prime found is certified by primes.is_probable_prime. Below PSI_13
factorize divides out the primes up to 41 and splits what is left with
Brent's rho (Brent, "An improved Monte Carlo factorization algorithm",
BIT 20, 1980). Such a cofactor, if composite, has a prime factor below
1.9*10^12, so rho needs about 1.7*10^6 steps in expectation at worst.

A composite cofactor from PSI_13 up goes through these stages until one
splits it:

1. rho, for _RHO_BUDGET = 4096 steps: prime factors up to about 10^6;
2. an exact integer e-th root (_perfect_power), which splits r^e into e
   copies of r;
3. below 10^50, the self-initialising quadratic sieve (_qs_divisor),
   whose time depends on the size of the cofactor, not on luck: about
   0.012 s at 26 digits, 0.03 s at 32, 0.13-0.15 s at 38, 0.4-0.6 s at
   43-44 and 2.1 s at 50 on one core of a 2-core x86-64 host under
   CPython 3.11 and numpy 2.4;
4. sympy.factorint, for composites of 50 digits and more, and for the
   cofactors that the sieve leaves unsplit.

Every factorize call with a limit goes to sympy.factorint as it is. Stage
4 and limit= calls are the only ones that import sympy, and the sieve is
the only one that imports numpy; both are imported inside the functions,
and nothing here is computed at import, so that factoring K(n) for n <= 40
loads no sympy, and factoring below PSI_13 no numpy either.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice
from math import floor, gcd, isqrt, log, log2, prod
from typing import TYPE_CHECKING

from .primes import _MR_BASES, PSI_13, is_probable_prime

if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence
    from random import Random

    import numpy as np

__all__ = ["Factorization", "factorize"]

# rho steps spent on a composite from PSI_13 up before the sieve takes it
# over; enough for a prime factor up to about 10^6 (49297 in K(26))
_RHO_BUDGET = 1 << 12
# the quadratic sieve takes composites below _QS_BELOW. _QS_TABLE holds
# (digits, factor-base primes, M) rows: n of those digits sieves 2M
# positions per polynomial (see _qs_params)
_QS_BELOW = 10**50
_QS_TABLE = (
    (25, 120, 8192),
    (30, 200, 16384),
    (35, 350, 16384),
    (40, 650, 32768),
    (45, 1200, 65536),
    (50, 2400, 65536),
)
# the odd squarefree multipliers k tried on n, and how many of the first
# primes score each
_QS_MULTIPLIERS = (1, 3, 5, 7, 11, 13, 15, 17, 19, 21, 23, 29, 31, 33, 35, 37, 39, 41, 43,
                   47, 51, 53, 55, 57, 59, 61, 65, 67, 69, 71, 73)
_QS_MULTIPLIER_PRIMES = 100
# factor-base primes below _QS_SKIP are not sieved: the threshold drops by
# their expected share of a value's log2, and the root test still finds them
_QS_SKIP = 30
# the large-prime bound, in multiples of the largest factor-base prime
_QS_LARGE_PRIME = 100
# the bits a sieve position needs above log2(m sqrt(kn / 2) / large-prime
# bound)
_QS_THRESHOLD = 0.7
# relations gathered beyond the factor base's primes and sign, each adding
# a dependency
_QS_EXTRA = 16
# draws of a's primes that may repeat an a before the sieve gives up
_QS_A_TRIES = 100


def _brent_divisor(n: int, budget: int | None = None) -> int | None:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho: x -> x^2 + c, with the differences multiplied together
    and one gcd taken per 128 of them. A batch that overshoots to n is
    replayed step by step, and a c whose cycles mod every factor coincide
    is replaced by the next. With a budget, None once a round would take
    the steps past it."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if budget is not None and steps > budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"rho found no divisor of {n}")  # unreachable for composite n


def _qs_params(n: int) -> tuple[int, int]:
    """(factor-base size, M) for n: the size interpolated linearly in the
    digits of n between the rows of _QS_TABLE, M from the row at or above."""
    digits = len(str(n))
    below = _QS_TABLE[0]
    for row in _QS_TABLE:
        if digits <= row[0]:
            if digits <= below[0]:
                return row[1], row[2]
            step = (digits - below[0]) * (row[1] - below[1]) // (row[0] - below[0])
            return below[1] + step, row[2]
        below = row
    return below[1], below[2]


def _qs_multiplier(n: int, primes: Sequence[int]) -> int:
    """The Knuth-Schroeppel multiplier: the k of _QS_MULTIPLIERS for which
    the primes up to the _QS_MULTIPLIER_PRIMES-th divide the values sieved
    over kn the most, each weighted by its log and by how often it divides
    one, less half log k for the larger values (Silverman, "The multiple
    polynomial quadratic sieve", Math. Comp. 48, 1987)."""

    def score(k: int) -> float:
        kn = k * n
        f = log(2) * {1: 2.0, 5: 1.0}.get(kn % 8, 0.5) - log(k) / 2
        for p in primes[1:_QS_MULTIPLIER_PRIMES]:
            if k % p == 0:
                f += log(p) / p
            elif pow(kn % p, (p - 1) // 2, p) == 1:
                f += 2 * log(p) / (p - 1)
        return f

    return max(_QS_MULTIPLIERS, key=score)


def _vec_inverse(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^-1 mod p elementwise, for primes p < 2^31, as x^(p - 2) by squaring
    in int64; 0 where p divides x."""
    import numpy as np

    out, e = np.ones_like(x), p - 2
    while e.any():
        out = np.where(e & 1, out * x % p, out)
        x, e = x * x % p, e >> 1
    return out


def _qs_polynomials(
    kn: int, m: int, fb: list[int], roots: np.ndarray, rng: Random
) -> Iterator[tuple[int, list[int], int, np.ndarray, np.ndarray]]:
    """(a, the factor-base indices of a's primes, b, x1, x2) for the sieve's
    polynomials (ax + b)^2 - kn = a(ax^2 + 2bx + c): x1 and x2 are where
    each factor-base prime divides ax^2 + 2bx + c, as sieve positions
    x + m mod p. They are wrong at 2 and at a's primes, which divide every
    value of (ax + b)^2 - kn; both are the caller's to handle.

    a is a product of s factor-base primes near sqrt(2kn) / m, which keeps
    |ax^2 + 2bx + c| below about m sqrt(kn / 2) for |x| <= m. rng draws s - 1
    of them, and the last fits a to the target. An a yields the 2^(s-1) b
    with b^2 = kn mod a, up to sign, in Gray-code order, so that the next b
    and its roots are one addition away (Contini, "Factoring integers with
    the self-initializing quadratic sieve", 1997). The stream ends when
    _QS_A_TRIES draws in a row give no new a."""
    import numpy as np

    p = np.array(fb, dtype=np.int64)

    def mod_p(indices: list[int]) -> np.ndarray:
        """The product of fb[i] over indices, mod every factor-base prime."""
        out = np.ones_like(p)
        for i in indices:
            out = out * (fb[i] % p) % p
        return out

    target = isqrt(2 * kn) // m
    # s primes of about target^(1/s), near the middle of the factor base and
    # in its upper half at most; none divides k, whose primes have no b
    first = max(len(fb) // 8, bisect_right(fb, _QS_MULTIPLIERS[-1]))
    middle = fb[len(fb) // 2]
    s = max(2, round(log(target) / log(middle)))
    if target ** (1 / s) > fb[-1] / 2:
        s += 1
    ideal = target ** (1 / s)
    pool = [i for i in range(first, len(fb)) if ideal / 2.5 <= fb[i] <= ideal * 2.5]
    if len(pool) < s + 2:
        pool = list(range(first, len(fb)))
    used: set[frozenset[int]] = set()
    while True:
        for _ in range(_QS_A_TRIES):
            qs = rng.sample(pool, s - 1)
            want = target / prod(fb[i] for i in qs)
            j = min(max(bisect_left(fb, want), first + 1), len(fb) - 1)
            fits = [i for i in (j - 1, j) if i not in qs]
            if fits:
                qs.append(min(fits, key=lambda i: abs(log(fb[i] / want))))
                if frozenset(qs) not in used:
                    break
        else:
            return
        used.add(frozenset(qs))
        a = prod(fb[i] for i in qs)
        a_inv = _vec_inverse(mod_p(qs), p)
        # B_l = (a / q_l) g_l with g_l = sqrt(kn) (a / q_l)^-1 mod q_l, so that
        # B_l is a root of kn mod q_l and 0 mod a's other primes; b = the sum
        # of +-B_l, and moving it by 2 B_l moves the roots by steps[l]
        terms, steps = [], []
        b_mod = np.zeros_like(p)
        for i in qs:
            q = fb[i]
            g = int(roots[i]) * pow(a // q % q, -1, q) % q
            terms.append(a // q * g)
            term_mod = mod_p([j for j in qs if j != i]) * g % p
            b_mod += term_mod
            steps.append(2 * term_mod * a_inv % p)
        b, b_mod = sum(terms), b_mod % p
        x1 = (a_inv * ((roots - b_mod) % p) + m) % p
        x2 = (a_inv * ((-roots - b_mod) % p) + m) % p
        yield a, qs, b, x1, x2
        for k in range(1, 1 << (s - 1)):
            v = (k & -k).bit_length() - 1
            # bit v of the Gray code flips: cleared adds B_v back, set
            # subtracts it
            sign = 1 if (k >> (v + 1)) & 1 else -1
            b += 2 * sign * terms[v]
            x1, x2 = (x1 - sign * steps[v]) % p, (x2 - sign * steps[v]) % p
            yield a, qs, b, x1, x2


def _sieve_cut(threshold: float) -> int:
    """The int c for which a byte b in 0..255 has b > c exactly when
    b > threshold: floor(threshold), clamped to [-1, 255]. Against a float
    threshold numpy 2 widens a uint8 row to float64, and numpy 1's
    value-based casting compares it in float16, which rounds the threshold;
    a Python int compares exactly under both."""
    return min(max(floor(threshold), -1), 255)


def _qs_relations(
    n: int, kn: int, m: int, fb: list[int], roots: np.ndarray
) -> Iterator[tuple[int, int, int]]:
    """(y mod n, y^2 - kn, the exponent parities of y^2 - kn) for values
    y^2 - kn, y = ax + b, that the factor base splits, or that it splits
    but for one prime below _QS_LARGE_PRIME times its largest prime. Two of
    the latter with the same prime are paired: their product is again one
    relation (the large-prime variation). Parity bit 0 is the sign, bit
    i + 1 that of fb[i].

    Each polynomial is sieved over the 2m positions |x| <= m in one uint8
    row: one numpy.add.at adds the rounded log2 of each factor-base prime
    from _QS_SKIP up at its hits x1 + jp and x2 + jp, j < 2m / p rounded
    up. The last hit may land in the fb[-1] bytes past 2m, which are
    ignored. A byte sums the bits of distinct primes that divide one value,
    at most about 110 for kn below 73 * _QS_BELOW. The primes below
    _QS_SKIP are not sieved (the small-prime variation): the threshold,
    log2(m sqrt(kn / 2) / the large-prime bound) + _QS_THRESHOLD, drops by
    their expected share of a value's bits instead. The positions above it
    are tested against every prime's roots in one candidates-by-primes
    matrix of x mod p, and each is trial divided by the primes it hits.
    The bytes are compared with the integer _sieve_cut of the threshold, so
    the row is never widened to floats."""
    from random import Random

    import numpy as np

    p = np.array(fb, dtype=np.int64)
    bits = np.log2(p)
    width = 2 * m
    large = _QS_LARGE_PRIME * fb[-1]
    skip = bisect_left(fb, _QS_SKIP)
    # a prime of k has one root, and divides a value once in p, not twice
    two = roots != 0
    skipped = np.where(two, 2 * bits / (p - 1), bits / p)[1:skip].sum()
    cut = _sieve_cut(log2(m) + log2(kn / 2) / 2 - log2(large) + _QS_THRESHOLD - skipped)
    # the sieved primes' hits are x1 + jp and x2 + jp for j < counts
    counts = np.tile(-(-width // p[skip:]), 2)
    starts = np.cumsum(counts) - counts
    offsets = (np.arange(counts.sum()) - np.repeat(starts, counts)) * np.repeat(
        np.tile(p[skip:], 2), counts
    )
    row = np.empty(width + fb[-1], dtype=np.uint8)
    rounded = np.rint(bits).astype(np.uint8)
    partials: dict[int, tuple[int, int, int]] = {}
    last_a = 0
    for a, qs, b, x1, x2 in _qs_polynomials(kn, m, fb, roots, Random(n)):
        if a != last_a:
            last_a = a
            divides = np.ones(len(fb), dtype=bool)  # where the roots are right
            divides[[0, *qs]] = False
            weight = np.where(divides, rounded, 0)[skip:]
            weights = np.repeat(np.concatenate((weight, weight * two[skip:])), counts)
        row.fill(0)
        np.add.at(row, np.concatenate((x1[skip:], x2[skip:])).repeat(counts) + offsets, weights)
        candidates = np.flatnonzero(row[:width] > cut)
        r = candidates[:, None] % p
        hits = ((r == x1) | (r == x2)) & divides
        for x, hit in zip(candidates.tolist(), hits):
            y = a * (x - m) + b
            value = y * y - kn
            v, parities = abs(value), int(value < 0)
            for i in chain((0,), qs, np.flatnonzero(hit).tolist()):
                while v % fb[i] == 0:
                    v //= fb[i]
                    parities ^= 2 << i
            if v == 1:
                yield y % n, value, parities
            elif v < large:
                # n has no prime up to fb[-1], and no other prime up to it
                # divides y^2 - kn, so v < fb[-1]^2 is a prime
                other = partials.pop(v, None)
                if other is None:
                    partials[v] = (y % n, value, parities)
                else:
                    yield y * other[0] % n, value * other[1], parities ^ other[2]


def _sqrt_mod(a: int, p: int) -> int:
    """The square root of a mod the odd prime p that is at most p // 2, by
    Tonelli-Shanks; a must be a square mod p, and 0 gives 0."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    # invariant: r^2 = a t mod p, with t of order dividing 2^(s-1) and c a
    # 2^s-th root of unity
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return min(r, p - r)


def _gf2_dependencies(rows: list[int]) -> Iterator[int]:
    """Sets of rows, as bitsets with bit i for rows[i], whose rows XOR to
    0: each row is reduced by the pivot row at its highest set bit until it
    is 0, a dependency, or its highest bit has no pivot yet, which makes it
    the pivot there. The high bits are the factor base's largest primes,
    which few rows share, so pivoting there first keeps the rows sparse."""
    pivots: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(rows):
        used = 1 << i
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = (row, used)
                break
            pivot, pivot_used = pivots[top]
            row, used = row ^ pivot, used ^ pivot_used
        else:
            yield used


def _qs_divisor(n: int) -> int | None:
    """A proper divisor of n by the self-initialising quadratic sieve, or
    None when the polynomials run out or no dependency splits n. n is odd,
    composite, no perfect power, and has no prime factor up to 41.

    The factor base is 2, the primes of the multiplier k, and the primes
    modulo which kn is a nonzero square, as many as _qs_params gives. Once
    _QS_EXTRA relations more than the factor base has primes (and sign) are
    found, every dependency among their parities gives y^2 = x^2 mod n with
    y the product of the relations' y and x the square root of the product
    of their values, and gcd(y - x, n) splits n for about every other one
    (Pomerance, "The quadratic sieve factoring algorithm", EUROCRYPT 1984).
    The polynomials are drawn by a Random seeded with n, so each n gets the
    same divisor every time."""
    import numpy as np

    from .primes import build_sieve

    size, m = _qs_params(n)
    primes = build_sieve(int(4 * size * log(size))).ints
    k = _qs_multiplier(n, primes)
    kn = k * n
    fb = [2]
    for p in primes[1:]:
        if n % p == 0:
            return p
        if k % p == 0 or pow(kn % p, (p - 1) // 2, p) == 1:
            fb.append(p)
            if len(fb) == size:
                break
    roots = np.array([0] + [_sqrt_mod(kn, p) for p in fb[1:]], dtype=np.int64)
    relations = list(islice(_qs_relations(n, kn, m, fb, roots), len(fb) + 1 + _QS_EXTRA))
    for used in _gf2_dependencies([parities for _, _, parities in relations]):
        chosen = [rel for i, rel in enumerate(relations) if used >> i & 1]
        y = prod(rel[0] for rel in chosen) % n
        g = gcd(y - isqrt(prod(rel[1] for rel in chosen)), n)
        if 1 < g < n:
            return g
    return None


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, floor(n^(1/k)), by Newton's
    iteration on ints from 2^ceil(bits / k), which is above it: the
    iterates fall to the root and stop there."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, e) with r^e = n and e prime, or None when n is no perfect power.
    n has no prime factor up to 41, so r >= 43 > 2^5 and e <= bits / 5."""
    for e in range(2, n.bit_length() // 5 + 1):
        if is_probable_prime(e) and (r := _iroot(n, e)) ** e == n:
            return r, e
    return None


def _factor_complete(v: int) -> dict[int, int]:
    """{prime: exponent} of v >= 2, every prime proven by is_probable_prime.
    Cofactors below PSI_13 are split here; from PSI_13 up, a composite that
    rho does not split within _RHO_BUDGET steps is split as a perfect power
    or, below _QS_BELOW, by the sieve, and sympy.factorint gets only what
    is left. pending holds (cofactor, multiplicity) pairs, so the root of
    r^e is factored once, not e times."""
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while v % p == 0:
            out[p] = out.get(p, 0) + 1
            v //= p
    pending = [(v, 1)] if v > 1 else []
    while pending:
        n, m = pending.pop()
        if is_probable_prime(n):
            out[n] = out.get(n, 0) + m
            continue
        # below PSI_13 rho has no budget, and always splits n
        d = _brent_divisor(n, None if n < PSI_13 else _RHO_BUDGET)
        if d is None:
            power = _perfect_power(n)
            if power:
                pending.append((power[0], m * power[1]))
                continue
            d = _qs_divisor(n) if n < _QS_BELOW else None
            if d is None:
                import sympy

                for p, e in sympy.factorint(n).items():
                    out[int(p)] = out.get(int(p), 0) + m * int(e)
                continue
        pending += [(d, m), (n // d, m)]
    return out


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime factorization, possibly partial.

    factors holds (prime, exponent) pairs with strictly increasing primes,
    every prime certified by is_probable_prime. When factorize ran under a
    limit and stopped early, composite_remainder carries the unfactored
    cofactor (> 1, and composite); it is None for a complete factorization.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    composite_remainder: int | None = field(default=None)

    @property
    def complete(self) -> bool:
        return self.composite_remainder is None

    def reassemble(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        if self.composite_remainder is not None:
            out *= self.composite_remainder
        return out

    def __str__(self) -> str:
        parts = [f"{p}" if e == 1 else f"{p}^{e}" for p, e in self.factors]
        if self.composite_remainder is not None:
            parts.append(f"{self.composite_remainder} (composite)")
        return " * ".join(parts)


def factorize(v: int, limit: int | None = None) -> Factorization:
    """Factor v >= 2.

    With limit=None (the default) the factorization is complete: by trial
    division, Brent's rho and, from PSI_13 up, the quadratic sieve, with
    sympy.factorint for what they leave there (_factor_complete). A limit
    >= 1 always goes to sympy.factorint, which then bounds its trial
    division and its rho and p-1 steps; whatever sympy leaves unsplit (the
    keys that fail is_probable_prime) is multiplied into composite_remainder.
    """
    if v < 2:
        raise ValueError(f"factorize requires v >= 2, got {v}")
    if limit is not None and limit < 1:
        # sympy reads limit=0 as "no limit"
        raise ValueError(f"limit must be >= 1 or None, got {limit}")
    factors: list[tuple[int, int]] = []
    remainder: int | None = None
    if limit is None:
        factors = sorted(_factor_complete(v).items())
    else:
        import sympy

        for p, e in sorted(sympy.factorint(v, limit=limit).items()):
            p, e = int(p), int(e)
            if is_probable_prime(p):
                factors.append((p, e))
            else:
                remainder = (remainder or 1) * p**e
    result = Factorization(value=v, factors=tuple(factors), composite_remainder=remainder)
    assert result.reassemble() == v
    return result
