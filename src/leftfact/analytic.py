"""The left factorial on the complex plane.

For Re z > 0 the function is the improper integral

    K(z) = integral_0^inf e^(-t) (t^z - 1)/(t - 1) dt,

extended left by the functional equation K(z) = K(z+1) - Gamma(z+1).
K has simple poles at z = -1, -3, -4, -5, ... (-2 is not a pole), and an
independent closed form as a cotangent term plus a constant block plus a
series of gamma values. Everything here is double precision; residues are
exact rationals. The supported window is |z| <= 50 and Re z >= -20.

The integral is a composite 48/24-point Gauss-Legendre rule. Its nodes
depend only on the patch width and the tail cut T, so they are built once
per (delta, T) with e^(-t) and log t precomputed, and each z then costs one
numpy pass over every node plus a vectorized series on the patch across
t = 1. The node-by-node scalar form of the same rule is kept as a test
oracle in tests/quadrature_oracle.py.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import left_factorial, pole_residue_fraction
from .factorint import is_probable_prime
from .modular import derangement_number, floor_factorial_over_e

__all__ = [
    "gamma",
    "euler_constant",
    "QuadratureConfig",
    "QuadratureError",
    "PoleError",
    "PoleInfo",
    "k_integral",
    "k_integral_detailed",
    "QuadratureResult",
    "k_continued",
    "k_slavic",
    "slavic_constant_block",
    "pole_residue",
    "asymptotic_ratio",
    "congruence_bridge",
    "BridgeReport",
    "MIN_CONTINUATION_RE",
]

MIN_CONTINUATION_RE = -20.0

# Lanczos coefficients, g = 607/128, 15 terms. Relative error stays below
# 1e-13 on the right half-plane, which the reflection formula preserves
# well inside |z| <= 50.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LN_SQRT_TWO_PI = 0.5 * math.log(2 * math.pi)


class PoleError(ValueError):
    """Evaluation requested exactly at a pole; carries the pole's data."""

    def __init__(self, message: str, pole: "PoleInfo | None" = None):
        super().__init__(message)
        self.pole = pole


class QuadratureError(ArithmeticError):
    """Tolerance not met; carries the value and the achieved error estimate."""

    def __init__(self, message: str, value: complex, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _is_nonpositive_integer(z: complex, eps: float = 1e-12) -> int | None:
    n = round(z.real)
    if n <= 0 and abs(z - n) < eps:
        return n
    return None


def gamma(z: complex | float) -> complex:
    """Gamma(z) by the Lanczos sum, reflected onto Re z < 0.5.

    Relative error <= 1e-12 for |z| <= 50 away from the poles; validated
    against exact factorials and the duplication identity in the tests.
    """
    z = complex(z)
    n = _is_nonpositive_integer(z)
    if n is not None:
        raise PoleError(f"gamma pole at z = {n}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return cmath.pi / (cmath.sin(cmath.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return cmath.exp(_LN_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(s))


def euler_constant() -> float:
    """Euler's constant to full double precision.

    Harmonic sum minus ln N with Euler-Maclaurin corrections; N = 64 keeps
    the truncation below 1e-15. An independent quadrature of
    -integral e^(-x) ln x dx cross-checks this in the tests.
    """
    n = 64
    h = sum(1.0 / k for k in range(1, n + 1))
    return (
        h
        - math.log(n)
        - 1.0 / (2 * n)
        + 1.0 / (12 * n**2)
        - 1.0 / (120 * n**4)
        + 1.0 / (252 * n**6)
    )


@dataclass(frozen=True, slots=True)
class QuadratureConfig:
    """Tunables for the defining-integral evaluation.

    tolerance: target absolute error. Double precision imposes a floor of
    about |K(z)| * 1e-14, which the achieved-error estimate includes; the
    tolerance check is applied on top of that floor.
    delta: half-width of the series patch around the removable point t = 1.
    truncation: tail cut T; None picks T from Re z so the tail bound fits
    inside the tolerance.
    series_order: cap on the power-series terms used inside the patch.
    """

    tolerance: float = 1e-10
    delta: float = 1e-2
    truncation: float | None = None
    series_order: int = 40

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.truncation is not None and self.truncation <= 1:
            raise ValueError("truncation must exceed 1")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    panels: int
    truncation: float


# 48/24-point Gauss-Legendre nodes and weights on [-1, 1]; the half-order
# evaluation provides the per-panel error estimate.
@lru_cache(maxsize=2)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True, slots=True)
class _PanelNodes:
    """Every quadrature node of one (delta, T) panel list, z-independent.

    Row i holds panel i's 48-point nodes followed by its 24-point nodes.
    `patch` indexes the nodes within delta of t = 1, where the integrand is
    summed as a series instead.
    """

    half: np.ndarray
    t: np.ndarray
    exp_neg_t: np.ndarray
    log_t: np.ndarray
    patch: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=8)
def _panel_nodes(delta: float, big_t: float) -> _PanelNodes:
    # Panel list: dyadically graded toward 0 (t^z has unbounded derivatives
    # at 0 for Re z < 1), one panel across the series patch, then fixed-width
    # panels out to T.
    cuts = [0.0]
    left_edge = (1.0 - delta) / 2
    grade = []
    while left_edge > 1e-13:
        grade.append(left_edge)
        left_edge /= 2
    cuts.extend(reversed(grade))
    cuts.append(1.0 - delta)
    cuts.append(1.0 + delta)
    a = 1.0 + delta
    while a < big_t:
        b = min(a + 6.0, big_t)
        cuts.append(b)
        a = b

    edges = np.array(cuts)
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])
    u = np.concatenate([_leggauss(48)[0], _leggauss(24)[0]])
    t = mid + half[:, None] * u
    nodes = _PanelNodes(
        half=half,
        t=t,
        exp_neg_t=np.exp(-t),
        log_t=np.log(t),
        patch=np.nonzero(np.abs(t - 1.0) < delta),
    )
    # every caller shares the cached arrays
    for array in (nodes.half, nodes.t, nodes.exp_neg_t, nodes.log_t, *nodes.patch):
        array.flags.writeable = False
    return nodes


def _patch_series(z: complex, u: np.ndarray, series_order: int) -> np.ndarray:
    # (t^z - 1)/(t - 1) = sum_{k>=1} binom(z, k) (t-1)^(k-1) at u = t - 1; the
    # ratio |next/prev| is below |z - k + 1| * delta / k < 1/2 for |z| <= 50,
    # so truncation at series_order is geometric. Each node stops adding
    # once its next term falls below 1e-18 of its sum.
    acc = np.zeros(u.shape, dtype=complex)
    term = np.full(u.shape, z, dtype=complex)
    live = np.ones(u.shape, dtype=bool)
    for k in range(1, series_order + 1):
        acc[live] += term[live]
        term = term * (z - k) / (k + 1) * u
        live &= np.abs(term) >= 1e-18 * np.maximum(1.0, np.abs(acc))
        if not live.any():
            break
    return acc


def _upper_gamma_asymptotic(s: complex, big_t: float) -> complex:
    # Gamma(s, T) ~ T^(s-1) e^(-T) sum_k (s-1)(s-2)...(s-k) / T^k, truncated
    # at the smallest term (the series is asymptotic, not convergent).
    acc = 1.0 + 0j
    term = 1.0 + 0j
    smallest = abs(term)
    for k in range(1, 40):
        term = term * (s - k) / big_t
        if abs(term) >= smallest:
            break
        acc += term
        smallest = abs(term)
        if smallest < 1e-20:
            break
    return cmath.exp((s - 1) * cmath.log(big_t)) * math.exp(-big_t) * acc


def _tail_bound(x: float, big_t: float) -> float:
    # |(t^z-1)/(t-1)| <= 2 max(1, t^(x-1)) for t >= T >= 2, so the whole
    # tail is below 8 max(1, T^(x-1)) e^(-T) once T dominates the polynomial.
    return 8.0 * max(1.0, big_t ** (x - 1)) * math.exp(-big_t)


def _pick_truncation(x: float, tol: float) -> float:
    big_t = 30.0
    while _tail_bound(x, big_t) > tol / 4 and big_t < 1000.0:
        big_t += 5.0
    return big_t


@lru_cache(maxsize=16)
def _tail_constants(big_t: float) -> tuple[complex, ...]:
    # the z-independent half of each tail term: Gamma(1-j, T), j = 1..79
    return tuple(_upper_gamma_asymptotic(complex(1 - j, 0), big_t) for j in range(1, 80))


@lru_cache(maxsize=4096)
def _k_integral_cached(z: complex, cfg: QuadratureConfig) -> QuadratureResult:
    x = z.real
    tol = cfg.tolerance
    big_t = cfg.truncation if cfg.truncation is not None else _pick_truncation(x, tol)

    # One numpy pass evaluates the integrand at every node of every panel;
    # only the nodes on the series patch across t = 1 are then redone by the
    # binomial series. Each panel's 48- and 24-point sums are one weighted
    # product each, and their difference is the panel's error estimate.
    nodes = _panel_nodes(cfg.delta, big_t)
    vals = nodes.exp_neg_t * (np.exp(z * nodes.log_t) - 1.0) / (nodes.t - 1.0)
    patch = nodes.patch
    vals[patch] = nodes.exp_neg_t[patch] * _patch_series(
        z, nodes.t[patch] - 1.0, cfg.series_order
    )
    fine = (vals[:, :48] @ _leggauss(48)[1]) * nodes.half
    coarse = (vals[:, 48:] @ _leggauss(24)[1]) * nodes.half
    total = complex(fine.sum())
    panel_err = float(np.abs(fine - coarse).sum())

    # Tail: sum_j [Gamma(z-j+1, T) - Gamma(1-j, T)] from the identity
    # (t^z - 1)/(t - 1) = sum_{j>=1} (t^(z-j) - t^(-j)) for t > 1.
    tail = 0j
    for j, upper_const in enumerate(_tail_constants(big_t), start=1):
        d = _upper_gamma_asymptotic(z - j + 1, big_t) - upper_const
        tail += d
        if abs(d) < 1e-19:
            break
    total += tail

    estimate = panel_err + _tail_bound(x, big_t) + 1e-14 * abs(total)
    return QuadratureResult(
        value=total,
        error_estimate=estimate,
        panels=len(nodes.half),
        truncation=big_t,
    )


def k_integral_detailed(
    z: complex | float, cfg: QuadratureConfig = QuadratureConfig()
) -> QuadratureResult:
    """Like k_integral, but returns the error estimate and panel count too."""
    z = complex(z)
    if z.real <= 0:
        raise ValueError(f"k_integral requires Re z > 0, got Re z = {z.real}")
    result = _k_integral_cached(z, cfg)
    # machine-precision allowance: the coarse/fine panel comparison reports
    # ~1e-14 relative even when the fine rule is exact to roundoff
    floor = 1e-13 * abs(result.value)
    if result.error_estimate > cfg.tolerance + floor:
        raise QuadratureError(
            f"achieved error estimate {result.error_estimate:.3e} exceeds "
            f"tolerance {cfg.tolerance:.3e} at z = {z}",
            value=result.value,
            error_estimate=result.error_estimate,
        )
    return result


def k_integral(z: complex | float, cfg: QuadratureConfig = QuadratureConfig()) -> complex:
    """K(z) for Re z > 0 by composite Gauss-Legendre quadrature.

    The removable point t = 1 is crossed on a power-series patch of
    half-width cfg.delta; the tail beyond T is summed through the
    asymptotics of the incomplete-gamma pieces with a certified bound.
    Raises QuadratureError (value attached) if the achieved error estimate
    misses the tolerance.
    """
    return k_integral_detailed(z, cfg).value


@dataclass(frozen=True, slots=True)
class PoleInfo:
    """A pole of K: its (negative integer) location and exact residue."""

    location: int
    residue: Fraction


def pole_residue(n: int) -> PoleInfo:
    """The pole at z = -n: residue -1 at n = 1, else the alternating tail.

    For n >= 3 the residue is sum_{k=2}^{n-1} (-1)^(k-1)/k! exactly; n = 2
    is rejected because the would-be gamma poles cancel there.
    """
    if n == 2:
        raise ValueError("z = -2 is not a pole")
    if n < 1:
        raise ValueError(f"pole_residue requires n >= 1, got {n}")
    return PoleInfo(location=-n, residue=pole_residue_fraction(n))


def _pole_at(z: complex, eps: float = 1e-12) -> int | None:
    n = _is_nonpositive_integer(z, eps)
    if n is not None and n <= -1 and n != -2:
        return -n
    return None


def k_continued(z: complex | float, cfg: QuadratureConfig = QuadratureConfig()) -> complex:
    """K(z) anywhere in the strip Re z >= -20 off the poles.

    Unfolds K(z) = K(z+1) - Gamma(z+1) until the argument reaches the
    integral's half-plane. z = -2 is the one point where individual gamma
    terms blow up while the sum stays finite, so within 1/2 of it the pair
    is subtracted as its exact sum Gamma(z+1) + Gamma(z+2) = Gamma(z+3)/(z+1).
    That sum is -1 at z = -2, so K(-2) = K(1) + 1 - 1 = 1; z = -2 itself
    returns 1 exactly rather than the quadrature's roundoff in K(1).
    """
    z = complex(z)
    pole_n = _pole_at(z)
    if pole_n is not None:
        raise PoleError(f"K has a pole at z = {-pole_n}", pole_residue(pole_n))
    if z.real > 0:
        return k_integral(z, cfg)
    if z.real < MIN_CONTINUATION_RE:
        raise ValueError(
            f"continuation below Re z = {MIN_CONTINUATION_RE} is outside the "
            "supported strip (cancellation exceeds the double-precision budget)"
        )
    if z == -2:
        return 1.0 + 0j
    unfolds = math.floor(-z.real) + 1
    value = k_integral(z + unfolds, cfg)
    first = 1
    if abs(z + 2) < 0.5:
        value -= gamma(z + 3) / (z + 1)
        first = 3
    for j in range(first, unfolds + 1):
        value -= gamma(z + j)
    return value


@lru_cache(maxsize=1)
def slavic_constant_block() -> float:
    """(sum_{n>=1} 1/(n! n) + euler_constant()) / e, about 0.6971748832."""
    acc = 0.0
    for n in range(1, 40):
        term = 1.0 / (math.factorial(n) * n)
        acc += term
        if term < 1e-18:
            break
    return (acc + euler_constant()) / math.e


def k_slavic(z: complex | float, terms: int = 40, integer_eps: float = 1e-5) -> complex:
    """K(z) by the closed form: cotangent term, constant block, gamma series.

        K(z) = -(pi/e) cot(pi z) + slavic_constant_block()
               + sum_{n=0}^{terms-1} Gamma(z - n)

    At every integer z the cot pole and the gamma-series poles cancel; the
    finite limit is evaluated as the symmetric average at z +/- integer_eps
    (for non-pole integers). The gamma series decays like 1/(n-1)!, and the
    first neglected term is folded into the truncation check.
    """
    z = complex(z)
    pole_n = _pole_at(z, eps=1e-9)
    if pole_n is not None:
        raise PoleError(f"K has a pole at z = {-pole_n}", pole_residue(pole_n))
    nearest = round(z.real)
    if abs(z - nearest) < 1e-9:
        left = k_slavic(complex(nearest - integer_eps, z.imag), terms)
        right = k_slavic(complex(nearest + integer_eps, z.imag), terms)
        return 0.5 * (left + right)

    acc = -(math.pi / math.e) * (
        cmath.cos(cmath.pi * z) / cmath.sin(cmath.pi * z)
    ) + slavic_constant_block()
    last = math.inf
    for n in range(terms):
        term = gamma(z - n)
        acc += term
        last = abs(term)
    if last > 1e-12 * max(1.0, abs(acc)):
        raise ArithmeticError(
            f"gamma series not converged after {terms} terms at z = {z} "
            f"(last term {last:.3e})"
        )
    return acc


def asymptotic_ratio(x: float, cfg: QuadratureConfig = QuadratureConfig()) -> tuple[float, float]:
    """(K(x)/Gamma(x), K(x)/Gamma(x+1)) for real x > 0.

    The first ratio drifts to 1 and the second to 0 as x grows; both are
    evaluated in doubles, so x is capped by Gamma overflow near 170.
    """
    if x <= 0:
        raise ValueError(f"asymptotic_ratio requires x > 0, got {x}")
    kx = k_integral(complex(x, 0.0), cfg).real
    g = gamma(complex(x, 0.0)).real
    return kx / g, kx / (x * g)


@dataclass(frozen=True, slots=True)
class BridgeReport:
    """Exact decomposition of integral_0^inf e^(-t)(t-1)^(p-1) dt at odd p.

    The integral is the derangement number D_{p-1}; splitting the range at
    t = 1 isolates the integer floor((p-1)!/e) plus a fractional piece in
    (0, 1 - 1/e], which ties !p to floor((p-1)!/e) + 1 modulo p.
    """

    p: int
    derangement: int
    floor_part: int
    left_factorial_residue: int
    bridge_residue: int

    @property
    def holds(self) -> bool:
        return self.left_factorial_residue == self.bridge_residue


def congruence_bridge(p: int) -> BridgeReport:
    """Verify !p ≡ floor((p-1)!/e) + 1 (mod p) with exact rationals only.

    D_{p-1} is computed twice, by its recurrence and by the binomial
    expansion of the defining integral, and the floor identity
    floor((p-1)!/e) = D_{p-1} - 1 is checked against certified rational
    bounds on 1/e. Raises if any exact step disagrees.
    """
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"congruence_bridge requires an odd prime, got {p}")
    n = p - 1
    d_rec = derangement_number(n)
    # integral_0^inf e^(-t)(t-1)^n dt expands to sum (-1)^(n-k) binom(n,k) k!
    d_int = sum((-1) ** (n - k) * math.comb(n, k) * math.factorial(k) for k in range(n + 1))
    if d_rec != d_int:
        raise ArithmeticError(f"derangement mismatch at p={p}: {d_rec} != {d_int}")
    fl = floor_factorial_over_e(n)
    if fl != d_rec - 1:
        raise ArithmeticError(
            f"floor identity failed at p={p}: floor((p-1)!/e)={fl}, D={d_rec}"
        )
    return BridgeReport(
        p=p,
        derangement=d_rec,
        floor_part=fl,
        left_factorial_residue=left_factorial(p) % p,
        bridge_residue=(fl + 1) % p,
    )
