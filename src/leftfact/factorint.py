"""Integer factorization and primality.

Below PSI_13 = 3317044064679887385961981 both are done here, without
sympy: is_probable_prime is Miller-Rabin with the first 13 prime bases,
which no composite below that bound passes (Sorenson & Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so it is a
proof there; factorize divides out the primes up to 41 and splits what
is left with Brent's rho (Brent, "An improved Monte Carlo factorization
algorithm", BIT 20, 1980). Such a cofactor, if composite, has a prime
factor below 1.9*10^12, so rho needs about 1.7*10^6 steps in expectation
at worst.

A cofactor from PSI_13 up that passes the same test goes on to
sympy.isprime (BPSW), which certifies a prime there. One that fails
either test is composite, and goes through three stages until one splits
it:

1. rho, for _RHO_BUDGET = 4096 steps: prime factors up to about 10^6;
2. ECM (_ecm_divisor): the _ECM_CURVES = 8 Montgomery curves of Suyama's
   sigma = 6, ..., 13, each with stage 1 to B1 = 2000 and stage 2 over the
   primes up to B2 = 200000. A curve finds a prime whose group order on
   it is B1-smooth but for one prime up to B2: the 8 found all of 48
   random primes of 10-11 digits, 18 of 24 of 12 digits and 14 of 24 of
   13 digits (each times nextprime(10^24));
3. sympy.factorint, for what the curves leave unsplit.

So a composite that only sympy splits first costs 4096 rho steps and 8
curves, about 0.2 s at 40 digits (20-25 ms a curve on a 2-core x86-64
host under CPython 3.11).
is_probable_prime from PSI_13 up, and every factorize call with a limit,
go to sympy.isprime (BPSW) and sympy.factorint as they are. sympy
is imported inside the functions, not here, so that commands which never
go past the bound (the kh sweep above all) do not pay for importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import groupby
from math import gcd

__all__ = ["PSI_13", "Factorization", "factorize", "is_probable_prime"]

# the least strong pseudoprime to the first 13 prime bases
PSI_13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# rho steps spent on a composite from PSI_13 up before sympy takes it over;
# enough for a prime factor up to about 10^6 (49297 in K(26))
_RHO_BUDGET = 1 << 12
# ECM curves tried on what rho leaves there, before sympy: Suyama's sigma =
# _ECM_SIGMA, _ECM_SIGMA + 1, ..., stage 1 to _ECM_B1, stage 2 over the
# primes up to _ECM_B2 by giant steps of _ECM_D
_ECM_SIGMA, _ECM_CURVES = 6, 8
_ECM_B1 = 2000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 210


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases, for odd n > 41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Whether n is prime: exact below PSI_13 (trial division, then
    Miller-Rabin with the first 13 prime bases); sympy.isprime from there
    (exact below 2^64, so throughout here, and Baillie-PSW above)."""
    if n < PSI_13:
        if n < 2:
            return False
        for p in _MR_BASES:
            if n % p == 0:
                return n == p
        return _strong_probable_prime(n)
    import sympy

    return sympy.isprime(n)


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


_Point = tuple[int, int]  # (X, Z): the x-coordinate X / Z of a curve point


def _xadd(p: _Point, q: _Point, diff: _Point, n: int) -> _Point:
    """P + Q from P, Q and P - Q on a Montgomery curve mod n."""
    da = (p[0] - p[1]) * (q[0] + q[1])
    cb = (p[0] + p[1]) * (q[0] - q[1])
    return diff[1] * (da + cb) ** 2 % n, diff[0] * (da - cb) ** 2 % n


def _xdbl(p: _Point, n: int, a24: int) -> _Point:
    """2P on By^2 = x^3 + Ax^2 + x mod n, with a24 = (A + 2) / 4."""
    s, d = (p[0] + p[1]) ** 2 % n, (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


@cache
def _ecm_plan() -> tuple[int, bytes]:
    """Stage 1's multiplier, the product of every prime power up to _ECM_B1,
    and stage 2's plan. From giant step m = 2 up, the plan lists the baby
    steps j (odd, at most _ECM_D / 2) with m * _ECM_D - j or m * _ECM_D + j
    a prime in (_ECM_B1, _ECM_B2], and a 0 moves on to the next m. x(jQ) =
    x(-jQ), so one j covers both primes."""
    from bisect import bisect_right

    from .primes import build_sieve

    primes = build_sieve(_ECM_B2).ints
    split = bisect_right(primes, _ECM_B1)
    k = 1
    for p in primes[:split]:
        q = p
        while q * p <= _ECM_B1:
            q *= p
        k *= q
    plan, m = bytearray(), 2
    for target, ps in groupby(primes[split:], key=lambda p: (p + _ECM_D // 2) // _ECM_D):
        plan += bytes(target - m) + bytes(sorted({abs(p - target * _ECM_D) for p in ps}))
        m = target
    return k, bytes(plan)


def _ecm_curve(n: int, sigma: int) -> int:
    """gcd(n, Z(kQ) * prod(X(mDQ) Z(jQ) - X(jQ) Z(mDQ))) on Suyama's curve
    sigma, where Q = kP is stage 1's point and (m, j) runs over the plan: a
    prime of n whose group order on the curve is _ECM_B1-smooth but for at
    most one prime up to _ECM_B2 divides it (Lenstra, "Factoring integers
    with elliptic curves", Ann. of Math. 126, 1987; Montgomery, "Speeding
    the Pollard and elliptic curve methods of factorization", Math. Comp.
    48, 1987)."""
    k, plan = _ecm_plan()
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v
    try:
        a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    except ValueError:
        return gcd(den, n)
    start = (u**3 % n, v**3 % n)
    q, r = start, _xdbl(start, n, a24)
    for bit in bin(k)[3:]:  # Montgomery's ladder: r - q = start throughout
        if bit == "1":
            q, r = _xadd(r, q, start, n), _xdbl(r, n, a24)
        else:
            q, r = _xdbl(q, n, a24), _xadd(q, r, start, n)
    acc = q[1]
    q2 = _xdbl(q, n, a24)
    # baby[i] = (2i - 1)Q up to (_ECM_D / 2)Q; baby[0] = Q has the x of -Q
    baby = [q, q, _xadd(q2, q, q, n)]
    for _ in range(3, _ECM_D // 4 + 2):
        baby.append(_xadd(baby[-1], q2, baby[-2], n))
    step = _xdbl(baby[-1], n, a24)  # _ECM_D Q, as _ECM_D / 2 is odd
    g, before = _xdbl(step, n, a24), step  # m = 2
    for j in plan:
        if j:
            x, z = baby[(j + 1) // 2]
            acc = acc * (g[0] * z - x * g[1]) % n
        else:
            g, before = _xadd(g, step, before, n), g
    return gcd(acc, n)


def _ecm_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n from the first of the
    _ECM_CURVES curves that splits it, or None when none does."""
    for sigma in range(_ECM_SIGMA, _ECM_SIGMA + _ECM_CURVES):
        g = _ecm_curve(n, sigma)
        if 1 < g < n:
            return g
    return None


def _factor_complete(v: int) -> dict[int, int]:
    """{prime: exponent} of v >= 2, every prime proven by is_probable_prime.
    Cofactors below PSI_13 are split here; sympy.factorint gets only the
    composites from PSI_13 up that neither rho within _RHO_BUDGET steps nor
    the ECM curves split."""
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while v % p == 0:
            out[p] = out.get(p, 0) + 1
            v //= p
    pending = [v] if v > 1 else []
    while pending:
        n = pending.pop()
        # no factor up to 41 is left, so n below 43^2 is prime
        # from PSI_13 up, sympy.isprime certifies what passes the 13 bases
        if n < 43 * 43 or (_strong_probable_prime(n) and (n < PSI_13 or is_probable_prime(n))):
            out[n] = out.get(n, 0) + 1
            continue
        if n < PSI_13:
            d = _brent_divisor(n)
        else:
            d = _brent_divisor(n, _RHO_BUDGET) or _ecm_divisor(n)
        if d is not None:
            pending += [d, n // d]
            continue
        import sympy

        for p, e in sympy.factorint(n).items():
            out[int(p)] = out.get(int(p), 0) + int(e)
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
    division, Brent's rho and, from PSI_13 up, ECM, with sympy.factorint
    for what they leave there (_factor_complete). A limit >= 1 always goes to
    sympy.factorint, which then bounds its trial division and its rho and
    p-1 steps; whatever sympy leaves unsplit (the keys that fail
    sympy.isprime) is multiplied into composite_remainder.
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
            if sympy.isprime(p):
                factors.append((p, e))
            else:
                remainder = (remainder or 1) * p**e
    result = Factorization(value=v, factors=tuple(factors), composite_remainder=remainder)
    assert result.reassemble() == v
    return result
