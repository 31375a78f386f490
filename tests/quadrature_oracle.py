"""The scalar K(z) quadrature, kept as a test-side reference.

This is the rule `leftfact.analytic._k_integral_cached` evaluated before
its panels were vectorized: the same cuts, the same 48/24-point
Gauss-Legendre pair (taken from mpmath), the same series patch and the same
tail cut, but one `cmath` integrand call per node inside Python sums. Its
only use is as an independent oracle for the numpy evaluation in the tests.
"""

from __future__ import annotations

import cmath
import math

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

from leftfact.analytic import (
    _DELTA,
    _SERIES_ORDER,
    QuadratureConfig,
    QuadratureResult,
    _pick_truncation,
    _tail_bound,
)


def leggauss(degree: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """mpmath's 3 * 2^(degree - 1)-point Gauss-Legendre nodes and weights on
    [-1, 1], computed at 40 digits and rounded to doubles."""
    with mpmath.workdps(40):
        rule = sorted(GaussLegendre(mpmath.mp).calc_nodes(degree, mpmath.mp.prec))
    return tuple(float(x) for x, _w in rule), tuple(float(w) for _x, w in rule)


_GL48 = leggauss(5)
_GL24 = leggauss(4)


def _integrand(t: float, z: complex) -> complex:
    if abs(t - 1.0) < _DELTA:
        u = t - 1.0
        term = z
        acc = 0j
        for k in range(1, _SERIES_ORDER + 1):
            acc += term
            term = term * (z - k) / (k + 1) * u
            if abs(term) < 1e-18 * max(1.0, abs(acc)):
                break
        return math.exp(-t) * acc
    return math.exp(-t) * (cmath.exp(z * cmath.log(t)) - 1.0) / (t - 1.0)


def scalar_k_integral(z: complex, cfg: QuadratureConfig) -> tuple[QuadratureResult, float]:
    """The composite rule node by node; no tolerance check, no cache.

    Returns the result and its panel error estimate sum |fine - coarse|, the
    part of the error estimate that roundoff dominates once the panels have
    converged.
    """
    x = z.real
    big_t = _pick_truncation(x, cfg.tolerance)

    def f(t: float) -> complex:
        return _integrand(t, z)

    cuts = [0.0]
    left_edge = (1.0 - _DELTA) / 2
    grade = []
    while left_edge > 1e-13:
        grade.append(left_edge)
        left_edge /= 2
    cuts.extend(reversed(grade))
    cuts.append(1.0 - _DELTA)
    cuts.append(1.0 + _DELTA)
    a = 1.0 + _DELTA
    while a < big_t:
        b = min(a + 6.0, big_t)
        cuts.append(b)
        a = b

    total = 0j
    panel_err = 0.0
    x48, w48 = _GL48
    x24, w24 = _GL24
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fine = half * sum(w * f(mid + half * u) for u, w in zip(x48, w48))
        coarse = half * sum(w * f(mid + half * u) for u, w in zip(x24, w24))
        total += fine
        panel_err += abs(fine - coarse)

    estimate = panel_err + _tail_bound(x, big_t) + 1e-14 * abs(total)
    result = QuadratureResult(
        value=total,
        error_estimate=estimate,
        panels=len(cuts) - 1,
        truncation=big_t,
    )
    return result, panel_err
