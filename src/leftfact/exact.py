"""Exact integer arithmetic for the left factorial and its identity family.

The left factorial is K(n) = !n = 0! + 1! + ... + (n-1)!, with K(0) = 0.
Everything in this module is computed with exact arbitrary-precision
integers; nothing here rounds.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "left_factorial",
    "iter_left_factorials",
    "alternating_factorial",
    "alternating_divisor_hits",
    "StirlingTable",
    "stirling_table",
    "weighted_sum",
    "evaluate_identity",
    "IDENTITY_IDS",
    "IDENTITIES_WITH_M",
    "gcd_pair",
    "partial_sum_gcd",
]


def left_factorial(n: int) -> int:
    """K(n) = sum of i! for 0 <= i < n; K(0) = 0.

    One incremental pass reusing the running factorial, O(n) multiplications.
    """
    if n < 0:
        raise ValueError(f"left_factorial requires n >= 0, got {n}")
    total, fact = 0, 1
    for i in range(n):
        total += fact
        fact *= i + 1
    return total


def iter_left_factorials(n_max: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, n!, K(n)) for n = 0 .. n_max in one incremental pass.

    Sweeps that need every K(n) in a range use this instead of quadratically
    recomputing left_factorial.
    """
    if n_max < 0:
        raise ValueError(f"iter_left_factorials requires n_max >= 0, got {n_max}")
    fact, kn = 1, 0
    yield 0, 1, 0
    for n in range(1, n_max + 1):
        kn += fact
        fact *= n
        yield n, fact, kn


def alternating_factorial(n: int) -> int:
    """A_n = (n-1)! - (n-2)! + ... + (-1)^n * 1!.

    Computed by the recurrence A_{n+1} = n! - A_n with base A_2 = 1
    (the direct alternating sum has the single term 1! at n = 2).
    """
    if n < 2:
        raise ValueError(f"alternating_factorial requires n >= 2, got {n}")
    a, fact = 1, 2  # A_2 = 1, fact = 2!
    for m in range(2, n):
        a = fact - a
        fact *= m + 1
    return a


def alternating_divisor_hits(n_max: int) -> list[int]:
    """All n with 2 <= n <= n_max such that n+1 divides n! - (n-1)! + ... ± 1!.

    The scanned sum is A_{n+1}. A hit's divisor divides every later A value
    (A_{m+1} = m! - A_m preserves divisibility by n+1 once n+1 <= m+1), and
    so caps the primes among them. Hits exist: 3612703 divides
    3612702! - 3612701! + ... - 1!, and no smaller prime p divides its A_p
    (Zivkovic, Math. Comp. 68 (1999) 403-409). A composite n+1 that divided
    A_{n+1} would make its least prime factor q a hit at q - 1, so the
    first hit is n = 3612702: a scan returns [] below it and [3612702] at
    n_max = 3612702. Each step works on the exact n!, so the scan's cost
    grows about quadratically in n_max, and it does not get that far at
    desk scale.
    """
    if n_max < 2:
        raise ValueError(f"alternating_divisor_hits requires n_max >= 2, got {n_max}")
    hits = []
    a, fact = 1, 2  # A_2 and 2!
    for n in range(2, n_max + 1):
        a = fact - a  # A_{n+1} = n! - A_n
        fact *= n + 1
        if a % (n + 1) == 0:
            hits.append(n)
    return hits


class StirlingTable(NamedTuple):
    """Dense triangular table of Stirling numbers up to max_m.

    kind "second" holds S(m,k); kind "first-signed" holds signed s(m,k).
    rows[m][k] is the entry; entries with k > m are absent (zero).
    """

    kind: str
    max_m: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, m: int, k: int) -> int:
        if not (0 <= m <= self.max_m):
            raise ValueError(f"row {m} outside table (max_m={self.max_m})")
        if k < 0 or k > m:
            return 0
        return self.rows[m][k]


def stirling_table(kind: str, max_m: int) -> StirlingTable:
    """Build the Stirling triangle of the requested kind up to max_m.

    Second kind: S(m,k) = k*S(m-1,k) + S(m-1,k-1).
    First kind (signed): s(m,k) = s(m-1,k-1) - (m-1)*s(m-1,k).
    The two triangles are mutually inverse as lower-triangular matrices.
    """
    if kind not in ("second", "first-signed"):
        raise ValueError(f"kind must be 'second' or 'first-signed', got {kind!r}")
    if max_m < 0:
        raise ValueError(f"stirling_table requires max_m >= 0, got {max_m}")
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, max_m + 1):
        prev = rows[m - 1]
        row = []
        for k in range(m + 1):
            above = prev[k] if k < m else 0
            diag = prev[k - 1] if k >= 1 else 0
            if kind == "second":
                row.append(k * above + diag)
            else:
                row.append(diag - (m - 1) * above)
        rows.append(tuple(row))
    return StirlingTable(kind=kind, max_m=max_m, rows=tuple(rows))


def weighted_sum(kind: str, m: int, n: int) -> int:
    """Direct evaluation of the K-weighted and factorial-weighted sums.

    Q: Q_m(n) = sum_{k<n} k^m K(k)
    R: R_m(n) = sum_{k<n} binom(k,m) K(k)
    K_m: K_m(n) = sum_{k<n} binom(k,m) k!
    """
    if kind not in ("Q", "R", "K_m"):
        raise ValueError(f"kind must be one of Q, R, K_m; got {kind!r}")
    if m < 0 or n < 0:
        raise ValueError(f"weighted_sum requires m, n >= 0, got m={m} n={n}")
    total = 0
    for k, fact_k, kk in iter_left_factorials(max(n - 1, 0)):
        if k >= n:
            break
        if kind == "Q":
            total += k**m * kk
        elif kind == "R":
            total += math.comb(k, m) * kk
        else:
            total += math.comb(k, m) * fact_k
    return total


IDENTITY_IDS = ("I221", "I222", "I223", "I224", "I225", "I226", "IDUAL")
# the identities that take a parameter m besides n
IDENTITIES_WITH_M = ("I224", "I225", "I226", "IDUAL")


def evaluate_identity(identity_id: str, **params: int) -> tuple[int, int]:
    """Evaluate both sides of one summation identity, independently.

    The left side always uses the raw sum-of-K form; the right side uses
    only the closed form. Equality is the caller's assertion, so failures
    stay diagnosable. Identities and their parameters:

    I221 (n >= 1): sum_{i=0}^{n} K(i) = n*K(n-1) + 1
    I222 (n >= 2): 2 * sum_{i<n} i*K(i) = K(n) + n(n-1)*K(n-2)
    I223 (n >= 2): 6 * sum_{i<n} i^2*K(i)
                   = (2n-1)*K(n) + (n-1)(2n^2-n-2)*K(n-2) + 2*n! - 4
    I224 (m, n):   R_m(n) = binom(n,m+1)*K(n) - K_m(n) - K_{m+1}(n)
    I225 (m, n):   R_m(n) = binom(n,m+1)*K(n)
                   - sum_{j=0}^{m} (-1)^{m-j} binom(m,j) (K(n+j+1)-K(j+1))/(j+1)!
    I226 (m, n):   Q_m(n) = sum_{k=0}^{m} k! S(m,k) R_k(n)
    IDUAL (m, n):  R_m(n) = (1/m!) sum_{k=0}^{m} s(m,k) Q_k(n), division exact
    """
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}; known: {IDENTITY_IDS}")
    n = params.get("n")
    m = params.get("m")
    if n is None:
        raise ValueError(f"{identity_id} requires parameter n")

    if identity_id == "I221":
        if n < 1:
            raise ValueError(f"I221 requires n >= 1, got {n}")
        lhs = weighted_sum("Q", 0, n + 1)
        rhs = n * left_factorial(n - 1) + 1
        return lhs, rhs

    if identity_id == "I222":
        if n < 2:
            raise ValueError(f"I222 requires n >= 2, got {n}")
        lhs = 2 * weighted_sum("Q", 1, n)
        rhs = left_factorial(n) + n * (n - 1) * left_factorial(n - 2)
        return lhs, rhs

    if identity_id == "I223":
        if n < 2:
            raise ValueError(f"I223 requires n >= 2, got {n}")
        lhs = 6 * weighted_sum("Q", 2, n)
        rhs = (
            (2 * n - 1) * left_factorial(n)
            + (n - 1) * (2 * n * n - n - 2) * left_factorial(n - 2)
            + 2 * math.factorial(n)
            - 4
        )
        return lhs, rhs

    if m is None:
        raise ValueError(f"{identity_id} requires parameters m and n")
    if m < 0 or n < 0:
        raise ValueError(f"{identity_id} requires m, n >= 0, got m={m} n={n}")

    if identity_id == "I224":
        lhs = weighted_sum("R", m, n)
        rhs = (
            math.comb(n, m + 1) * left_factorial(n)
            - weighted_sum("K_m", m, n)
            - weighted_sum("K_m", m + 1, n)
        )
        return lhs, rhs

    if identity_id == "I225":
        lhs = weighted_sum("R", m, n)
        correction = 0
        for j in range(m + 1):
            num = left_factorial(n + j + 1) - left_factorial(j + 1)
            q, r = divmod(num, math.factorial(j + 1))
            # K(n+j+1) - K(j+1) sums i! with i >= j+1, all divisible by (j+1)!
            assert r == 0, (m, n, j)
            correction += (-1) ** (m - j) * math.comb(m, j) * q
        rhs = math.comb(n, m + 1) * left_factorial(n) - correction
        return lhs, rhs

    if identity_id == "I226":
        lhs = weighted_sum("Q", m, n)
        table = stirling_table("second", m)
        rhs = sum(
            math.factorial(k) * table.entry(m, k) * weighted_sum("R", k, n)
            for k in range(m + 1)
        )
        return lhs, rhs

    # IDUAL
    lhs = weighted_sum("R", m, n)
    table = stirling_table("first-signed", m)
    acc = sum(table.entry(m, k) * weighted_sum("Q", k, n) for k in range(m + 1))
    q, r = divmod(acc, math.factorial(m))
    if r != 0:
        raise ArithmeticError(
            f"IDUAL division by {m}! not exact at m={m} n={n}: remainder {r}"
        )
    return lhs, q


def gcd_pair(a: int, b: int) -> int:
    """Nonnegative gcd; gcd(0, 0) is rejected as undefined for our uses."""
    if a == 0 and b == 0:
        raise ValueError("gcd_pair(0, 0) is undefined")
    return math.gcd(a, b)


def partial_sum_gcd(n: int) -> int:
    """gcd(sum_{k=2}^{n-1} !k, !n), the partial-sum coprimality instance.

    The left-factorial coprimality conjecture is equivalent to this gcd
    being 2 for every n >= 3.
    """
    if n < 3:
        raise ValueError(f"partial_sum_gcd requires n >= 3, got {n}")
    partial = 0
    kn = 0
    for i, _fact, kk in iter_left_factorials(n):
        if 2 <= i <= n - 1:
            partial += kk
        kn = kk
    return gcd_pair(partial, kn)


def pole_residue_fraction(n: int) -> Fraction:
    """Exact rational residue used by the complex extension at z = -n.

    n = 1 gives -1; n >= 3 gives sum_{k=2}^{n-1} (-1)^(k-1)/k!.
    n = 2 is not a pole. Kept here so the rational arithmetic stays in the
    exact module; the analytic module wraps it with pole metadata.
    """
    from fractions import Fraction

    if n == 1:
        return Fraction(-1)
    if n == 2 or n < 1:
        raise ValueError(f"no pole at z = {-n}")
    return sum(
        (Fraction((-1) ** (k - 1), math.factorial(k)) for k in range(2, n)),
        Fraction(0),
    )
