"""The left factorial on the complex plane.

For Re z > 0 the function is the improper integral

    K(z) = integral_0^inf e^(-t) (t^z - 1)/(t - 1) dt,

extended left by the functional equation K(z) = K(z+1) - Gamma(z+1).
K has simple poles at z = -1, -3, -4, -5, ... (-2 is not a pole), and an
independent closed form as a cotangent term plus a constant block plus a
series of gamma values. Everything here is double precision; residues are
exact rationals. At the default tolerance the supported window is
Re z >= -20, |Im z| <= 9 and |z| <= 50; from about |Im z| = 9.9 (near
Re z = 10) the error estimate exceeds the check, and k_continued raises
QuadratureError.

The integral is a composite 48/24-point graded Gauss-Legendre rule out to
a cut T: panels whose edges shrink by 4 toward t = 0, one panel across the
removable point t = 1, then panels 6 wide. With z = x + iy, L = log t,
e = expm1(x L) and s, c the sine and cosine of y L / 2, the integrand's
t^z - 1 is evaluated in real arithmetic as

    e (1 - 2 s^2) - 2 s^2 + i (e + 1) 2 s c,

which keeps its digits as t nears 1: expm1 and sin give e ~ x L and
s ~ y L / 2 to a few ulps however small L is, and each term keeps them,
where exp(z L) - 1 would cancel.
T is picked from Re z so that the neglected tail is below the tolerance
and below the roundoff the panel sums already carry, and the error
estimate charges the whole tail bound. The nodes depend only on T, so they
are built once per T with e^(-t)/(t - 1) and log t precomputed, and each z
then costs one numpy pass over every node. The node-by-node scalar form of
the same rule, with cmath and a binomial series near t = 1, is kept as a
test oracle in tests/quadrature_oracle.py.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import left_factorial, pole_residue_fraction
from .modular import derangement_number, floor_factorial_over_e
from .primes import is_probable_prime

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


def _finite(z: complex | float) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"K(z) requires a finite z, got z = {z}")
    return z


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
    """Euler's constant as a double (numpy's euler_gamma)."""
    return float(np.euler_gamma)


@dataclass(frozen=True, slots=True)
class QuadratureConfig:
    """The one setting of the defining-integral evaluation.

    tolerance: target absolute error; it also sets the tail cut T. Double
    precision imposes a floor of about |K(z)| * 1e-13, which the tolerance
    check allows on top of it. The rest of the rule is fixed.
    """

    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        # a nan would pass `<= 0` and switch the error check off
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    panels: int
    truncation: float


# Half-width of the panel across the removable point t = 1.
_DELTA = 1e-2


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, n * (x * p - prev) / (x * x - 1)


# 48/24-point Gauss-Legendre nodes and weights on [-1, 1]; the half-order
# evaluation provides the per-panel error estimate. numpy's weights are off
# by up to 1.3e-12 (48 points) and 1.2e-13 (24 points) relative, more than
# the estimate charges, so the nodes take three Newton steps on P_n and the
# weights 2 / ((1 - x^2) P_n'(x)^2) are recomputed at them: off by at most
# 4.8e-14 and 1.1e-14 against 40-digit mpmath.
@lru_cache(maxsize=2)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.polynomial.legendre.leggauss(n)[0]
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    return x, 2 / ((1 - x * x) * dp * dp)


@dataclass(frozen=True, slots=True)
class _PanelNodes:
    """Every quadrature node of one T's panel list, z-independent.

    Row i holds panel i's 48-point nodes followed by its 24-point nodes.
    Both rules have an even order, so no node sits at a panel's midpoint and
    none is t = 1 itself: the integrand is one expression at every node.
    damping is e^(-t)/(t - 1), the integrand's factor that z leaves alone.
    """

    half: np.ndarray
    damping: np.ndarray
    log_t: np.ndarray


@lru_cache(maxsize=8)
def _panel_nodes(big_t: float) -> _PanelNodes:
    # Panel list: graded toward 0 by 4 (t^z has unbounded derivatives
    # at 0 for Re z < 1), one panel across t = 1, then fixed-width panels
    # out to T. On a panel [a, r a] the integrand's nearest singularity,
    # t = 0, lies on the Bernstein ellipse of parameter rho = u + sqrt(u^2 - 1),
    # u = (r + 1)/(r - 1), and an n-point Gauss rule converges like
    # rho^(-2n) (Trefethen, SIAM Review 50, 2008). r = 4 gives rho = 3, so
    # even the 24-point rule is good to about 3^-48 = 1e-23 there, and the
    # grade needs 29 panels at T = 30 where halving needed 50.
    cuts = [0.0]
    left_edge = (1.0 - _DELTA) / 2
    grade = []
    while left_edge > 1e-13:
        grade.append(left_edge)
        left_edge /= 4
    cuts.extend(reversed(grade))
    cuts.append(1.0 - _DELTA)
    cuts.append(1.0 + _DELTA)
    a = 1.0 + _DELTA
    while a < big_t:
        b = min(a + 6.0, big_t)
        cuts.append(b)
        a = b

    edges = np.array(cuts)
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])
    u = np.concatenate([_leggauss(48)[0], _leggauss(24)[0]])
    t = mid + half[:, None] * u
    nodes = _PanelNodes(half=half, damping=np.exp(-t) / (t - 1.0), log_t=np.log(t))
    # every caller shares the cached arrays
    for array in (nodes.half, nodes.damping, nodes.log_t):
        array.flags.writeable = False
    return nodes


def _tail_bound(x: float, big_t: float) -> float:
    # |(t^z-1)/(t-1)| <= 2 max(1, t^(x-1)) for t >= T >= 2, so the whole
    # tail is below 8 max(1, T^(x-1)) e^(-T) once T dominates the polynomial.
    return 8.0 * max(1.0, big_t ** (x - 1)) * math.exp(-big_t)


def _pick_truncation(x: float, tol: float) -> float:
    # The tail beyond T is not summed, so T must push its bound below the
    # tolerance and below the roundoff of about 1e-16 Gamma(x) that the
    # panel sums already carry.
    target = min(tol / 4, 1e-16 * max(1.0, math.gamma(x)))
    big_t = 30.0
    while _tail_bound(x, big_t) > target and big_t < 1000.0:
        big_t += 5.0
    return big_t


@lru_cache(maxsize=4096)
def _k_integral_cached(z: complex, cfg: QuadratureConfig) -> QuadratureResult:
    x = z.real
    try:
        big_t = _pick_truncation(x, cfg.tolerance)
        tail = _tail_bound(x, big_t)
    except OverflowError:
        # Gamma(x) or T^(x-1) leaves double range, from about x = 109
        raise QuadratureError(
            f"K(z) is out of double range at z = {z}: its tail bound overflows",
            value=complex(math.nan, math.nan),
            error_estimate=math.inf,
        ) from None

    # One pass of real numpy arithmetic evaluates the integrand at every
    # node of every panel, with t^z - 1 in the module docstring's form
    # (L = log t, e = expm1(x L), s and c of y L / 2); overflow at the far
    # nodes surfaces at the isfinite check below. Each panel's 48- and
    # 24-point sums are one weighted product each, and their difference is
    # the panel's error estimate.
    nodes = _panel_nodes(big_t)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.expm1(x * nodes.log_t)
        half_angle = (0.5 * z.imag) * nodes.log_t
        s = np.sin(half_angle)
        two_s2 = 2.0 * s * s
        re = (e * (1.0 - two_s2) - two_s2) * nodes.damping
        im = (e + 1.0) * (2.0 * s * np.cos(half_angle)) * nodes.damping
    w48, w24 = _leggauss(48)[1], _leggauss(24)[1]
    fine = (re[:, :48] @ w48 + 1j * (im[:, :48] @ w48)) * nodes.half
    coarse = (re[:, 48:] @ w24 + 1j * (im[:, 48:] @ w24)) * nodes.half
    total = complex(fine.sum())
    panel_err = float(np.abs(fine - coarse).sum())
    if not (cmath.isfinite(total) and math.isfinite(panel_err)):
        # t^z overflows at the far nodes, from about x = 108
        raise QuadratureError(
            f"K(z) is out of double range at z = {z}: its panel sum is not finite",
            value=total,
            error_estimate=math.inf,
        )

    estimate = panel_err + tail + 1e-14 * abs(total)
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
    z = _finite(z)
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

    The removable point t = 1 is crossed with t^z - 1 in the real form the
    module docstring gives, which keeps its digits there; the range stops at a cut T beyond which the integrand's bound leaves less
    than the tolerance and the sums' roundoff, and the error estimate
    charges that bound in full. Raises QuadratureError (value attached) if
    the achieved error estimate misses cfg.tolerance, or if K(z) leaves
    double range (from about Re z = 108).
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
    """K(z) off the poles, within the window the module docstring gives.

    Unfolds K(z) = K(z+1) - Gamma(z+1) until the argument reaches the
    integral's half-plane. z = -2 is the one point where individual gamma
    terms blow up while the sum stays finite, so within 1/2 of it the pair
    is subtracted as its exact sum Gamma(z+1) + Gamma(z+2) = Gamma(z+3)/(z+1).
    That sum is -1 at z = -2, so K(-2) = K(1) + 1 - 1 = 1; z = -2 itself
    returns 1 exactly rather than the quadrature's roundoff in K(1).
    """
    z = _finite(z)
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


# Terms of k_slavic's gamma series.
_SLAVIC_TERMS = 40


def k_slavic(z: complex | float) -> complex:
    """K(z) by the closed form: cotangent term, constant block, gamma series.

        K(z) = -(pi/e) cot(pi z) + slavic_constant_block()
               + sum_{n=0}^{_SLAVIC_TERMS-1} Gamma(z - n)

    At every integer z the cot pole and the gamma-series poles cancel.
    Within 1e-9 of a non-pole integer n the value is K(n) itself: !n for
    n >= 0, and 1 at n = -2 (as in k_continued). The gamma series decays
    like 1/(n-1)!, and the first neglected term is folded into the
    truncation check.
    """
    z = _finite(z)
    pole_n = _pole_at(z, eps=1e-9)
    if pole_n is not None:
        raise PoleError(f"K has a pole at z = {-pole_n}", pole_residue(pole_n))
    nearest = round(z.real)
    if abs(z - nearest) < 1e-9:
        return complex(float(left_factorial(nearest)) if nearest >= 0 else 1.0)

    acc = -(math.pi / math.e) * (
        cmath.cos(cmath.pi * z) / cmath.sin(cmath.pi * z)
    ) + slavic_constant_block()
    last = math.inf
    for n in range(_SLAVIC_TERMS):
        term = gamma(z - n)
        acc += term
        last = abs(term)
    if last > 1e-12 * max(1.0, abs(acc)):
        raise ArithmeticError(
            f"gamma series not converged after {_SLAVIC_TERMS} terms at z = {z} "
            f"(last term {last:.3e})"
        )
    return acc


def asymptotic_ratio(x: float, cfg: QuadratureConfig = QuadratureConfig()) -> tuple[float, float]:
    """(K(x)/Gamma(x), K(x)/Gamma(x+1)) for real x > 0.

    The first ratio drifts to 1 and the second to 0 as x grows; both are
    evaluated in doubles, and from about x = 108 the integrand leaves double
    range, where k_integral raises QuadratureError.
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
