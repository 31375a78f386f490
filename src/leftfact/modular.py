"""Residues of the left factorial modulo primes, prime squares, and more.

Machine-width contract: scalar operations accept any modulus up to
2^63 - 1 and compute with double-width intermediates (Python integers);
larger moduli are rejected rather than silently promoted, because the
point of this module is the fast path. r_q denotes rest(!q, q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .primes import is_probable_prime

__all__ = [
    "MAX_MODULUS",
    "ResidueResult",
    "VerificationRecord",
    "residue_backward_s",
    "residue_forward_t",
    "residue_forward_v",
    "residue_direct",
    "residue_mod_p_squared",
    "kh_equivalent_residue",
    "VARIANTS",
    "derangement_number",
    "floor_factorial_over_e",
    "cost_model",
    "CostModel",
]

MAX_MODULUS = (1 << 63) - 1


@dataclass(frozen=True, slots=True)
class ResidueResult:
    """A residue of !n with the modulus and the method that produced it."""

    modulus: int
    residue: int
    method: str

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} outside [0, {self.modulus})")


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """Per-prime outcome of a divisibility sweep: does p divide !p?"""

    prime: int
    residue: int
    method: str

    @property
    def violates_kh(self) -> bool:
        """An odd prime dividing its left factorial: a KH counterexample."""
        return self.residue == 0 and self.prime > 2


def _require_odd_prime(q: int) -> None:
    if q == 2:
        raise ValueError("q = 2 is excluded; an odd prime is required")
    if q < 2 or not is_probable_prime(q):
        raise ValueError(f"{q} is not an odd prime")


def _require_machine_width(m: int) -> None:
    if m > MAX_MODULUS:
        raise ValueError(f"modulus {m} exceeds machine width (max {MAX_MODULUS})")


def residue_backward_s(q: int) -> ResidueResult:
    """r_q via the descending recurrence s_{q-1} = 0, s_i = 1 + i*s_{i+1}."""
    _require_odd_prime(q)
    _require_machine_width(q)
    s = 0
    for i in range(q - 2, 0, -1):
        s = (1 + i * s) % q
    return ResidueResult(modulus=q, residue=s, method="backward_s")


def residue_forward_t(q: int) -> ResidueResult:
    """r_q via t_1 = 0, t_i = (-1)^i + i*t_{i-1}, returning t_{q-1}."""
    _require_odd_prime(q)
    _require_machine_width(q)
    t = 0
    sign = 1  # (-1)^i for the upcoming even i=2
    for i in range(2, q):
        t = (sign + i * t) % q
        sign = -sign
    return ResidueResult(modulus=q, residue=t, method="forward_t")


def residue_forward_v(q: int) -> ResidueResult:
    """r_q via v_1 = 0, v_i = 1 - i*v_{i-1}, returning v_{q-1}."""
    _require_odd_prime(q)
    _require_machine_width(q)
    v = 0
    for i in range(2, q):
        v = (1 - i * v) % q
    return ResidueResult(modulus=q, residue=v, method="forward_v")


def residue_direct(n: int, m: int) -> ResidueResult:
    """rest(!n, m) by accumulating i! mod m, short-circuiting on 0.

    Once the running factorial hits 0 mod m every later term vanishes, so
    the loop stops early; that makes this the natural kernel for scanning
    general (composite) moduli.
    """
    if n < 1:
        raise ValueError(f"residue_direct requires n >= 1, got {n}")
    if m < 2:
        raise ValueError(f"residue_direct requires modulus >= 2, got {m}")
    _require_machine_width(m)
    total, fact = 0, 1
    for i in range(1, n + 1):
        total = (total + fact) % m
        if i == n:
            break
        fact = fact * i % m
        if fact == 0:
            break
    return ResidueResult(modulus=m, residue=total, method="direct")


def residue_mod_p_squared(n: int, p: int) -> ResidueResult:
    """rest(!n, p^2) via the descending recurrence seeded s_{n-1} = n.

    s_{n-1} = n, s_i = 1 + i*s_{i+1} (mod p^2) down to s_1 = rest(!n, p^2).
    The nesting telescopes 0! + 1! + ... + (n-1)! exactly, so it must agree
    with residue_direct(n, p^2).
    """
    _require_odd_prime(p)
    if p * p > MAX_MODULUS:
        raise ValueError(f"p^2 = {p * p} exceeds machine width")
    if n < 2:
        raise ValueError(f"residue_mod_p_squared requires n >= 2, got {n}")
    m = p * p
    s = n % m
    for i in range(n - 2, 0, -1):
        s = (1 + i * s) % m
    return ResidueResult(modulus=m, residue=s, method="p_squared")


VARIANTS = ("T21_2", "T21_4", "T21_5", "T21_6", "STANK", "DERANGE")


def kh_equivalent_residue(variant: str, p: int) -> int:
    """One of six sums over GF(p) whose vanishing is equivalent to p | !p.

    T21_2:   sum_{k=0}^{p-1} (-1)^k (k+1)(k+2)...(p-1), equal to r_p exactly
    T21_4:   sum_{k=0}^{p-1} binom(p-1,k) (k+1)...(p-1), equal to r_p in GF(p)
    T21_5:   sum_{k=0}^{p-1} (-1)^k / k!, equal to -r_p in GF(p)
    T21_6:   sum_{k=0}^{p-1} binom(p-1,k) / k!, equal to -r_p in GF(p)
    STANK:   sum_{k=2}^{p} (k-1) k!, telescoping to (p+1)! - K(p+1), which is
             congruent to -K(p) mod p
    DERANGE: D_{p-1} mod p via D_k = k*D_{k-1} + (-1)^k; equals r_p exactly
             through the floor identity [(p-1)!/e] = D_{p-1} - 1 (odd p)

    The sums read the tables of _tables(p). DERANGE stays exact on
    purpose: no floating floor of (p-1)!/e is ever taken.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {VARIANTS}")
    _require_odd_prime(p)
    _require_machine_width(p)

    if variant == "DERANGE":
        d = 1
        sign = -1
        for k in range(1, p):
            d = (k * d + sign) % p
            sign = -sign
        return d

    fact, inv_fact, rising, binom = _tables(p)
    if variant == "STANK":
        return sum((k - 1) * fact[k] for k in range(2, p + 1)) % p
    if variant == "T21_5":
        return (sum(inv_fact[0::2]) - sum(inv_fact[1::2])) % p
    if variant == "T21_2":
        return (sum(rising[0::2]) - sum(rising[1::2])) % p
    if variant == "T21_4":
        return sum(b * r for b, r in zip(binom, rising)) % p
    # T21_6
    return sum(b * inv for b, inv in zip(binom, inv_fact)) % p


@functools.lru_cache(maxsize=1)
def _tables(p: int) -> tuple[tuple[int, ...], ...]:
    """(k! for k <= p, 1/k!, (k+1)...(p-1) and binom(p-1, k) for k < p),
    all mod the odd prime p, through (k+1)...(p-1) = (p-1)!/k! and
    binom(p-1, k) = (p-1)!/(k! (p-1-k)!). The last p's tables are kept,
    since the variants of one p are asked for in a row."""
    fact = [1] * (p + 1)
    for k in range(1, p + 1):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, p)
    for k in range(p - 1, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    rising = [fact[p - 1] * inv % p for inv in inv_fact]
    binom = [r * inv_fact[p - 1 - k] % p for k, r in enumerate(rising)]
    return tuple(fact), tuple(inv_fact), tuple(rising), tuple(binom)


def derangement_number(n: int) -> int:
    """Exact D_n via D_0 = 1, D_k = k*D_{k-1} + (-1)^k."""
    if n < 0:
        raise ValueError(f"derangement_number requires n >= 0, got {n}")
    d = 1
    for k in range(1, n + 1):
        d = k * d + (-1) ** k
    return d


def floor_factorial_over_e(m: int) -> int:
    """Exact floor(m!/e) via rational two-sided bounds on 1/e.

    1/e is bracketed by partial sums of sum (-1)^k/k!; the truncation depth
    grows until both bounds floor to the same integer, so the result is
    certified, never a float.
    """
    if m < 0:
        raise ValueError(f"floor_factorial_over_e requires m >= 0, got {m}")
    fact_m = math.factorial(m)
    terms = m + 10
    while True:
        partial = sum(Fraction((-1) ** k, math.factorial(k)) for k in range(terms + 1))
        err = Fraction(1, math.factorial(terms + 1))
        lo = math.floor(fact_m * (partial - err))
        hi = math.floor(fact_m * (partial + err))
        if lo == hi:
            return lo
        terms += 10


@dataclass(frozen=True, slots=True)
class CostModel:
    """Operation-count model for a sweep up to x: A(x) = sum_{p<=x} 4p."""

    x: int
    k: int
    exact_a: int
    asymptotic_a: float
    ratio_a: float


def cost_model(x: int, k: int = 1) -> CostModel:
    """Exact A(x), the asymptotic 2x^2/ln x, and the exact ratio A(kx)/A(x).

    The ratio tends to k^2 as x grows; consumers report how close the
    exact value sits at finite x.
    """
    if x < 2:
        raise ValueError(f"cost_model requires x >= 2, got {x}")
    if k < 1:
        raise ValueError(f"cost_model requires k >= 1, got {k}")
    from .primes import build_sieve

    sieve = build_sieve(max(x * k, x))
    exact = 4 * int(sieve.primes_up_to(x).sum())
    exact_kx = 4 * int(sieve.primes_up_to(k * x).sum())
    ratio = float(Fraction(exact_kx, exact))
    return CostModel(
        x=x,
        k=k,
        exact_a=exact,
        asymptotic_a=2 * x * x / math.log(x),
        ratio_a=ratio,
    )
