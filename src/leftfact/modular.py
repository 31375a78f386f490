"""Residues of the left factorial modulo primes, prime squares, and more.

Machine-width contract: scalar operations accept any modulus up to
2^63 - 1 and compute with double-width intermediates (Python integers);
larger moduli are rejected rather than silently promoted, because the
point of this module is the fast path. The KH-variant sums work on int64
numpy tables, which hold products of two residues, so they take p only up
to MAX_SWEEP_PRIME (p^2 < 2^63). r_q denotes rest(!q, q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .primes import is_probable_prime

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_MODULUS",
    "ResidueResult",
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

    The five sums are int64 numpy reductions over the tables of _tables(p).
    DERANGE composes its maps x -> k*x + (-1)^k pairwise in int64 until one
    map is left; it stays exact on purpose: no floating floor of (p-1)!/e is
    ever taken. Each variant keeps its own formula: none is rewritten into
    another through Wilson's theorem. Every intermediate stays below
    p^2 < 2^63, so p above MAX_SWEEP_PRIME is refused with ValueError
    before anything is allocated.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {VARIANTS}")
    _require_odd_prime(p)
    from .sweeps import MAX_SWEEP_PRIME

    if p > MAX_SWEEP_PRIME:
        raise ValueError(f"p = {p} exceeds the int64 table bound {MAX_SWEEP_PRIME}")

    if variant == "DERANGE":
        return _derangement_mod(p)

    import numpy as np

    fact, inv_fact, rising, binom = _tables(p)
    if variant == "STANK":
        k_minus_1 = np.arange(1, p, dtype=np.int64)
        total = (k_minus_1 * fact[2:] % p).sum()
    elif variant == "T21_5":
        total = inv_fact[0::2].sum() - inv_fact[1::2].sum()
    elif variant == "T21_2":
        total = rising[0::2].sum() - rising[1::2].sum()
    elif variant == "T21_4":
        total = (binom * rising % p).sum()
    else:  # T21_6
        total = (binom * inv_fact % p).sum()
    return int(total) % p


@functools.lru_cache(maxsize=1)
def _tables(p: int) -> tuple[np.ndarray, ...]:
    """(k! for k <= p, 1/k!, (k+1)...(p-1) and binom(p-1, k) for k < p),
    all mod the odd prime p <= MAX_SWEEP_PRIME, as read-only int64 arrays.

    k! is a prefix-product scan of 1, 1, 2, ..., p and (k+1)...(p-1) the
    same scan over p-1, ..., 1, reversed; 1/k! is (k+1)...(p-1) times the
    one inverse of (p-1)!, and binom(p-1, k) = (k+1)...(p-1) / (p-1-k)!.
    Every product of two residues is below p^2 < 2^63. The last p's tables
    are kept, since the variants of one p are asked for in a row.
    """
    import numpy as np

    fact = np.arange(p + 1, dtype=np.int64)
    fact[0] = 1
    _prefix_products(fact, p)
    down = np.arange(p, 0, -1, dtype=np.int64)
    down[0] = 1
    rising = _prefix_products(down, p)[::-1]
    inv_fact = rising * pow(int(fact[p - 1]), -1, p) % p
    binom = rising * inv_fact[::-1] % p
    tables = fact, inv_fact, rising, binom
    for table in tables:
        table.flags.writeable = False
    return tables


def _prefix_products(x: np.ndarray, p: int) -> np.ndarray:
    """x[k] -> x[0] * ... * x[k] mod p in place, for int64 x below p.

    A doubling scan: after the step of stride s, x[k] is the product of
    the 2s entries ending at k, so log2(len(x)) steps cover every k.
    """
    s = 1
    while s < len(x):
        x[s:] = x[s:] * x[:-s] % p
        s *= 2
    return x


def _compose_pairs(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The maps x -> a[i]*x + b[i] mod p (len(a) even), composed in pairs:
    result i applies map 2i, then map 2i + 1. Each coefficient is at most
    (p-1)^2 + (p-1) before its reduction."""
    a1, b1, a2, b2 = a[0::2], b[0::2], a[1::2], b[1::2]
    return a2 * a1 % p, (a2 * b1 + b2) % p


def _derangement_mod(p: int) -> int:
    """D_{p-1} mod p from D_0 = 1 by the maps x -> k*x + (-1)^k, k < p."""
    import numpy as np

    a = np.arange(1, p, dtype=np.int64)
    b = np.ones(p - 1, dtype=np.int64)
    b[0::2] = p - 1  # (-1)^k for odd k
    while len(a) > 1:
        if len(a) % 2:
            a, b = np.append(a, 1), np.append(b, 0)
        a, b = _compose_pairs(a, b, p)
    return int(a[0] + b[0]) % p


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
