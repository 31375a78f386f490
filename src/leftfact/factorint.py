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

From PSI_13 up, and for every factorize call with a limit, the work is
delegated to sympy.factorint and sympy.isprime (BPSW). sympy is imported
inside the functions, not here, so that commands which never go past the
bound (the kh sweep above all) do not pay for importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

__all__ = ["PSI_13", "Factorization", "factorize", "is_probable_prime"]

# the least strong pseudoprime to the first 13 prime bases
PSI_13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


def _brent_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho: x -> x^2 + c, with the differences multiplied together
    and one gcd taken per 128 of them. A batch that overshoots to n is
    replayed step by step, and a c whose cycles mod every factor coincide
    is replaced by the next."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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


def _factor_below_bound(v: int) -> dict[int, int]:
    """{prime: exponent} of 2 <= v < PSI_13, every prime proven by
    is_probable_prime."""
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while v % p == 0:
            out[p] = out.get(p, 0) + 1
            v //= p
    pending = [v] if v > 1 else []
    while pending:
        n = pending.pop()
        # no factor up to 41 is left, so n below 43^2 is prime
        if n < 43 * 43 or _strong_probable_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            d = _brent_divisor(n)
            pending += [d, n // d]
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

    With limit=None (the default) the factorization is complete: below
    PSI_13 by trial division and Brent's rho, from there by
    sympy.factorint. A limit >= 1 always goes to sympy.factorint, which then
    bounds its trial division and its rho and p-1 steps; whatever sympy
    leaves unsplit (the keys that fail sympy.isprime) is multiplied into
    composite_remainder.
    """
    if v < 2:
        raise ValueError(f"factorize requires v >= 2, got {v}")
    if limit is not None and limit < 1:
        # sympy reads limit=0 as "no limit"
        raise ValueError(f"limit must be >= 1 or None, got {limit}")
    factors: list[tuple[int, int]] = []
    remainder: int | None = None
    if limit is None and v < PSI_13:
        factors = sorted(_factor_below_bound(v).items())
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
