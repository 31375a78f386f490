"""Integer factorization and primality, delegated to sympy.

factorize turns sympy.factorint's output into a Factorization, and
is_probable_prime is sympy.isprime (BPSW). sympy is imported inside the
functions, not here, so that commands which never factor (the kh sweep
above all) do not pay for importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Factorization", "factorize", "is_probable_prime"]


def is_probable_prime(n: int) -> bool:
    """sympy.isprime: exact below 2^64, Baillie-PSW (no known counterexample) above."""
    import sympy

    return sympy.isprime(n)


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime factorization, possibly partial.

    factors holds (prime, exponent) pairs with strictly increasing primes,
    every prime certified by sympy.isprime. When factorize ran under a
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
    """Factor v >= 2 with sympy.factorint.

    With limit=None (the default) the factorization is complete. A limit
    >= 1 is passed to sympy.factorint, which then bounds its trial division
    and its rho and p-1 steps; whatever sympy leaves unsplit (the keys that
    fail sympy.isprime) is multiplied into composite_remainder.
    """
    if v < 2:
        raise ValueError(f"factorize requires v >= 2, got {v}")
    if limit is not None and limit < 1:
        # sympy reads limit=0 as "no limit"
        raise ValueError(f"limit must be >= 1 or None, got {limit}")
    import sympy

    factors: list[tuple[int, int]] = []
    remainder: int | None = None
    for p, e in sorted(sympy.factorint(v, limit=limit).items()):
        p, e = int(p), int(e)
        if sympy.isprime(p):
            factors.append((p, e))
        else:
            remainder = (remainder or 1) * p**e
    result = Factorization(value=v, factors=tuple(factors), composite_remainder=remainder)
    assert result.reassemble() == v
    return result
