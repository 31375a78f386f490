"""Primality, the prime sieve, and the prime-sequence problems: centered
3-term progressions P(n), the sign sequences s_n and pi_n, good primes,
and the prefix-sum inequality.

is_probable_prime is Miller-Rabin with the first 13 prime bases, which no
composite below PSI_13 = 3317044064679887385961981 passes (Sorenson &
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
2017), so it is a proof there. From PSI_13 up, what passes those bases
also takes a strong Lucas test with Selfridge's parameters, which with
base 2 makes the Baillie-PSW test (Baillie & Wagstaff, "Lucas
pseudoprimes", Math. Comp. 35, 1980): no composite is known to pass it,
and none below 2^64 does.

Index convention throughout: p_1 = 2, p_2 = 3, p_3 = 5, ...
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PSI_13",
    "is_probable_prime",
    "PrimeSieve",
    "build_sieve",
    "TripletReport",
    "p_set",
    "count_pair_progressions",
    "s_sequence",
    "pi_sequence",
    "GoodPrimeResult",
    "good_prime_check",
    "sum_inequality_scan",
    "sign_statistics",
    "SignStatistics",
]

# the least strong pseudoprime to the first 13 prime bases
PSI_13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# odd numbers per sieve segment, one byte each: segment k holds the odd
# numbers from 1 + 2k * _SEGMENT up to, not including, 1 + 2(k+1) * _SEGMENT
_SEGMENT = 1 << 20


def is_probable_prime(n: int) -> bool:
    """Whether n is prime: trial division and Miller-Rabin with the first
    13 prime bases, exact below PSI_13; from there, the strong Lucas test
    for what passes them, which completes Baillie-PSW (Baillie & Wagstaff,
    Math. Comp. 35, 1980)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
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
    return n < PSI_13 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Whether the odd n > 0 is a strong Lucas probable prime with
    Selfridge's parameters (method A): D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1, Q = (1 - D) / 4. With n + 1 = k 2^s, that is
    U_k = 0 or V_(k 2^r) = 0 for some r < s, mod n. A square has no such D,
    so isqrt rules it out first; a D that shares a factor with n other than
    n itself shows n composite."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and d % n:
            return False
        d = 2 - d if d < 0 else -d - 2
    q, k, s = (1 - d) // 4, n + 1, 0
    while k % 2 == 0:
        k, s = k // 2, s + 1
    # U_1 = V_1 = P = 1; per bit of k, (U_2m, V_2m) = (U_m V_m, V_m^2 - 2Q^m),
    # then for a set bit 2U_(m+1) = U_m + V_m and 2V_(m+1) = D U_m + V_m
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u, v, qk = (u + n * (u & 1)) >> 1, (v + n * (v & 1)) >> 1, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


class PrimeSieve:
    """Exact, immutable sieve over [0, limit]: its primes in ascending order,
    8 bytes each, which membership queries search by bisection.

    `ints` reads them as Python ints and needs no numpy; `primes`,
    `primes_up_to` and `membership` import numpy when called and hand out
    read-only int64 views of the same memory. Construction is segmented, so
    the working set stays one segment plus the prime array: on a 2-core
    x86-64 host under CPython 3.11, a sieve to 10^8 took 1.8-2.4 s at a peak
    RSS of 60 MB, and one to 10^9 took 22.5 s at 405 MB, 388 MB of it the
    array.
    """

    def __init__(self, limit: int, primes: array):
        self.limit = limit
        self.ints = memoryview(primes).toreadonly()

    @property
    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending, as a read-only int64 array."""
        import numpy as np

        return np.frombuffer(self.ints, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ints)

    def is_prime(self, v: int) -> bool:
        if v < 0 or v > self.limit:
            raise ValueError(f"{v} outside sieve range [0, {self.limit}]")
        i = bisect_left(self.ints, v)
        return i < len(self.ints) and self.ints[i] == v

    def prime_at(self, n: int) -> int:
        """p_n with p_1 = 2."""
        if not 1 <= n <= len(self.ints):
            raise ValueError(f"index {n} outside [1, {len(self.ints)}]")
        return self.ints[n - 1]

    def primes_up_to(self, x: int) -> np.ndarray:
        if x > self.limit:
            raise ValueError(f"{x} exceeds sieve limit {self.limit}")
        return self.primes[: bisect_right(self.ints, x)]

    def membership(self, values: np.ndarray) -> np.ndarray:
        """Vectorized primality lookup for values within the sieve range."""
        import numpy as np

        primes = self.primes
        v = np.asarray(values)
        if v.size and (int(v.min()) < 0 or int(v.max()) > self.limit):
            raise ValueError("values outside sieve range")
        # a value above the largest prime searches to the end and is
        # compared with that prime, which it exceeds
        return primes.take(np.searchsorted(primes, v), mode="clip") == v


def build_sieve(limit: int) -> PrimeSieve:
    """Sieve of Eratosthenes over [0, limit], segmented and odd-only.

    Each segment is a bytearray with one byte per odd number, which is read
    out with itertools.compress straight into the prime array.
    """
    if limit < 2:
        raise ValueError(f"build_sieve requires limit >= 2, got {limit}")
    root = math.isqrt(limit)
    # the odd primes up to sqrt(limit), by the same sieve
    base = build_sieve(root).ints[1:].tolist() if root > 1 else []

    primes = array("q", [2])
    for lo in range(1, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit + 1)
        seg = bytearray([1]) * ((hi - lo + 1) // 2)  # lo, lo + 2, ... below hi
        if lo == 1:
            seg[0] = 0
        for p in base:
            if p * p >= hi:
                break
            # the first odd multiple of p that is at least lo and p^2
            start = max(p * p, ((lo + p - 1) // p | 1) * p)
            i = (start - lo) // 2
            seg[i::p] = bytes(len(range(i, len(seg), p)))
        primes.extend(compress(range(lo, hi, 2), seg))
    return PrimeSieve(limit=limit, primes=primes)


class TripletReport(NamedTuple):
    """Search outcome for P(n) = {x : x-2n, x, x+2n all prime}.

    For n not divisible by 3, one of the three members is divisible by 3;
    being prime it must equal 3, and only x-2n can (x >= 2n+2 > 3), which
    forces x = 2n+3. Those cases are exhaustive. n ≡ 0 (mod 3) admits no
    such forcing and gets a bounded search.
    """

    n: int
    members: tuple[int, ...]
    residue_case: int
    forced_candidate: int | None
    exhaustive: bool
    x_bound: int | None


def p_set(n: int, x_bound: int = 100_000) -> TripletReport:
    """Members of P(n): centers x of prime 3-progressions with gap 2n.

    n ≢ 0 (mod 3): checks the forced candidate 2n+3 only (exhaustive).
    n ≡ 0 (mod 3): scans primes x <= x_bound (reported non-exhaustive).
    """
    if n < 1:
        raise ValueError(f"p_set requires n >= 1, got {n}")
    if x_bound <= 2 * n + 3:
        raise ValueError(f"x_bound {x_bound} too small; need > {2 * n + 3}")
    case = n % 3
    if case != 0:
        x = 2 * n + 3
        good = is_probable_prime(x) and is_probable_prime(x + 2 * n)
        return TripletReport(
            n=n,
            members=(x,) if good else (),
            residue_case=case,
            forced_candidate=x,
            exhaustive=True,
            x_bound=None,
        )
    sieve = build_sieve(x_bound + 2 * n)
    xs = sieve.primes_up_to(x_bound)
    xs = xs[xs > 2 * n]
    hits = xs[sieve.membership(xs - 2 * n) & sieve.membership(xs + 2 * n)]
    return TripletReport(
        n=n,
        members=tuple(int(v) for v in hits),
        residue_case=0,
        forced_candidate=None,
        exhaustive=False,
        x_bound=x_bound,
    )


def count_pair_progressions(m_bound: int) -> tuple[int, float]:
    """Count k in [0, m_bound] with 6k+5 and 12k+7 both prime, plus the
    ratio of that count to integral_2^m dx/(ln x)^2 (m = m_bound).

    The ratio is reported for empirical inspection only; no constant is
    asserted. m_bound = 1 must give 2 (pairs (5,7) and (11,19)).
    """
    if m_bound < 1:
        raise ValueError(f"count_pair_progressions requires m_bound >= 1, got {m_bound}")
    import numpy as np

    sieve = build_sieve(12 * m_bound + 7)
    ks = np.arange(m_bound + 1, dtype=np.int64)
    count = int(np.count_nonzero(sieve.membership(6 * ks + 5) & sieve.membership(12 * ks + 7)))
    m = float(max(m_bound, 3))
    # composite Simpson on a fine uniform grid; the integrand is smooth
    steps = 4096
    xs = np.linspace(2.0, m, steps + 1)
    ys = 1.0 / np.log(xs) ** 2
    h = (m - 2.0) / steps
    integral = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
    return count, float(count / integral)


def _index_window(n: int, sieve: PrimeSieve, span: int) -> None:
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    if n + span > len(sieve):
        raise ValueError(
            f"index {n}+{span} beyond sieve ({len(sieve)} primes <= {sieve.limit})"
        )


def s_sequence(n: int, sieve: PrimeSieve) -> int:
    """s_n = p_n^2 - p_{n-1} - p_{n+1}; positive for every p_n >= 3."""
    _index_window(n, sieve, 1)
    p = sieve.prime_at
    return p(n) ** 2 - p(n - 1) - p(n + 1)


def pi_sequence(n: int, sieve: PrimeSieve) -> int:
    """pi_n = p_n^2 - p_{n-1} p_{n+1}; either sign occurs, zero never.

    Zero would force p_{n-1} = p_n = p_{n+1}; it is asserted impossible.
    """
    _index_window(n, sieve, 1)
    p = sieve.prime_at
    value = p(n) ** 2 - p(n - 1) * p(n + 1)
    assert value != 0, f"pi_{n} = 0 contradicts distinctness of primes"
    return value


class GoodPrimeResult(NamedTuple):
    """Outcome of the good-prime inequality at index n (vacuous at n=1)."""

    n: int
    prime: int
    is_good: bool
    vacuous: bool

    def __bool__(self) -> bool:
        return self.is_good


def good_prime_check(n: int, sieve: PrimeSieve) -> GoodPrimeResult:
    """Is p_n good, i.e. p_n^2 > p_{n-i} p_{n+i} for all 1 <= i <= n-1?

    Needs the sieve to reach p_{2n-1}; n = 1 has an empty i-range and is
    reported vacuously good with the flag set.
    """
    if n < 1:
        raise ValueError(f"good_prime_check requires n >= 1, got {n}")
    if 2 * n - 1 > len(sieve):
        raise ValueError(
            f"sieve holds {len(sieve)} primes; good_prime_check({n}) needs p_{2 * n - 1}"
        )
    prime = sieve.prime_at(n)
    if n == 1:
        return GoodPrimeResult(n=1, prime=prime, is_good=True, vacuous=True)
    square = prime * prime
    for i in range(1, n):
        if square <= sieve.prime_at(n - i) * sieve.prime_at(n + i):
            return GoodPrimeResult(n=n, prime=prime, is_good=False, vacuous=False)
    return GoodPrimeResult(n=n, prime=prime, is_good=True, vacuous=False)


def sum_inequality_scan(n_max: int, sieve: PrimeSieve) -> tuple[int, list[int]]:
    """Scan p_n^2 > sum_{k=1}^{n+1} p_k for 1 <= n <= n_max.

    Returns (n0, failures): the least n0 such that the inequality holds for
    every n0 <= n <= n_max, and every failing index (all below n0).
    """
    if n_max < 1:
        raise ValueError(f"sum_inequality_scan requires n_max >= 1, got {n_max}")
    if n_max + 1 > len(sieve):
        raise ValueError(f"sieve holds {len(sieve)} primes; need p_{n_max + 1}")
    import numpy as np

    p = sieve.primes[: n_max + 1].astype(np.int64)
    prefix = np.cumsum(p)  # prefix[j] = p_1 + ... + p_{j+1}
    holds = p[:-1] ** 2 > prefix[1:]
    failures = [int(i) + 1 for i in np.flatnonzero(~holds)]
    n0 = failures[-1] + 1 if failures else 1
    return n0, failures


class SignStatistics(NamedTuple):
    """Run-length and frequency data for a +/- sign sequence."""

    positives: int
    negatives: int
    longest_positive_run: int
    longest_negative_run: int
    runs: int


def sign_statistics(values: np.ndarray) -> SignStatistics:
    """Empirical sign behavior of a sequence (no law asserted)."""
    import numpy as np

    signs = np.sign(np.asarray(values))
    if signs.size == 0:
        raise ValueError("sign_statistics requires a nonempty sequence")
    if (signs == 0).any():
        raise ValueError("sign_statistics requires nonzero values")
    changes = np.flatnonzero(np.diff(signs) != 0)
    bounds = np.concatenate(([0], changes + 1, [len(signs)]))
    lengths = np.diff(bounds)
    run_signs = signs[bounds[:-1]]
    pos_runs = lengths[run_signs > 0]
    neg_runs = lengths[run_signs < 0]
    return SignStatistics(
        positives=int((signs > 0).sum()),
        negatives=int((signs < 0).sum()),
        longest_positive_run=int(pos_runs.max()) if pos_runs.size else 0,
        longest_negative_run=int(neg_runs.max()) if neg_runs.size else 0,
        runs=len(lengths),
    )
