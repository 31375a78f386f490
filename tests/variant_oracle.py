"""The per-element KH-variant sums, kept as a test-side reference.

These are the Python loops `leftfact.modular.kh_equivalent_residue` ran
before its tables became int64 numpy arrays: one list entry per k < p for
k!, 1/k!, (k+1)...(p-1) and binom(p-1, k), each sum a Python sum over
those lists, and DERANGE stepped one k at a time. Its only use is as an
oracle for the numpy tables in the tests.
"""

from __future__ import annotations


def loop_tables(p: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(k! for k <= p, 1/k!, (k+1)...(p-1) and binom(p-1, k) for k < p),
    all mod the odd prime p."""
    fact = [1] * (p + 1)
    for k in range(1, p + 1):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, p)
    for k in range(p - 1, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    rising = [fact[p - 1] * inv % p for inv in inv_fact]
    binom = [r * inv_fact[p - 1 - k] % p for k, r in enumerate(rising)]
    return fact, inv_fact, rising, binom


def loop_variant(variant: str, p: int) -> int:
    """The variant's sum over GF(p), one Python step per k."""
    if variant == "DERANGE":
        d = 1
        sign = -1
        for k in range(1, p):
            d = (k * d + sign) % p
            sign = -sign
        return d
    fact, inv_fact, rising, binom = loop_tables(p)
    if variant == "STANK":
        return sum((k - 1) * fact[k] for k in range(2, p + 1)) % p
    if variant == "T21_5":
        return (sum(inv_fact[0::2]) - sum(inv_fact[1::2])) % p
    if variant == "T21_2":
        return (sum(rising[0::2]) - sum(rising[1::2])) % p
    if variant == "T21_4":
        return sum(b * r for b, r in zip(binom, rising)) % p
    if variant == "T21_6":
        return sum(b * inv for b, inv in zip(binom, inv_fact)) % p
    raise ValueError(f"unknown variant {variant!r}")
