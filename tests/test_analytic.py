from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from leftfact import (
    PoleError,
    QuadratureConfig,
    QuadratureError,
    asymptotic_ratio,
    congruence_bridge,
    derangement_number,
    euler_constant,
    gamma,
    k_continued,
    k_integral,
    k_integral_detailed,
    k_slavic,
    left_factorial,
    pole_residue,
    slavic_constant_block,
)
from leftfact.analytic import _k_integral_cached, _leggauss
from quadrature_oracle import leggauss, scalar_k_integral

# independent quadrature oracle: mpmath.quad at 40 digits over the defining
# integral, split [0, 1, inf] with the removable point patched by its limit
ORACLE = {
    0.5: 0.56218654589882686381,
    1.5: 1.4484134713515848775,
    3.25: 4.8994407282969713579,
    complex(2.5, 1.5): complex(1.3988389012218134054, 1.8398014184464678013),
    complex(0.75, -2.0): complex(0.79161390050332185108, -1.0871236041152474745),
    # numpy's Gauss-Legendre weights put the 1e-12 estimate here below the
    # actual error
    complex(6.742, 7.608): complex(
        -7.961639770314763484943979130202506629197, 5.771239270106449732020757159791099917465
    ),
}

# mpmath at 50 digits near the removable point z = -2, where Gamma(z+1) and
# Gamma(z+2) each blow up: K(z+3) - Gamma(z+1) - Gamma(z+2) - Gamma(z+3) with
# K(z+3) by mpmath.quad over the defining integral, at the double nearest z
NEAR_MINUS_TWO = {
    -2 + 1e-10: 1.0000000001854990223,
    -2 - 1e-8: 0.99999998145009946007,
    complex(-2, 1e-12): complex(1.0, 1.8549900697516915169e-12),
    -2 + 1e-13: 1.0000000000001853507,
    -2 - 1e-13: 0.99999999999981464926,
    complex(-1.7, -0.2): complex(1.5487827147060582979, -0.50129910238253792396),
    -2.4: 0.22831982000785032003,
}

QUADRATURE_CONFIGS = (QuadratureConfig(), QuadratureConfig(tolerance=1e-12))


def test_gamma_matches_math_on_reals():
    for x in (0.5, 1.0, 2.0, 3.7, 10.0, 21.5):
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-13)
        assert abs(gamma(x).imag) < 1e-13 * math.gamma(x)


def test_gamma_reflection_formula_complex():
    for z in (0.3 + 0.7j, -1.5 + 2j, 0.25 - 3j):
        lhs = gamma(z) * gamma(1 - z)
        rhs = cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_gamma_poles_raise():
    for z in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            gamma(z)


def test_euler_constant():
    assert euler_constant() == pytest.approx(0.57721566490153286061, abs=1e-14)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=0)


def test_k_integral_reproduces_integers():
    for n in range(1, 13):
        exact = left_factorial(n)
        got = k_integral(float(n))
        assert abs(got - exact) <= 1e-11 * max(1, exact), n
        assert abs(got.imag) < 1e-11 * max(1, exact)


def test_k_integral_matches_independent_oracle():
    for z, want in ORACLE.items():
        got = k_integral(z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), z


def test_leggauss_matches_mpmath():
    # numpy's own weights are off by up to 1.3e-12 relative at 48 points
    for n, degree in ((48, 5), (24, 4)):
        x, w = _leggauss(n)
        want_x, want_w = leggauss(degree)
        assert np.max(np.abs(x - want_x)) <= 2.3e-16, n
        assert np.max(np.abs(w / want_w - 1)) <= 1e-13, n


@pytest.mark.parametrize("tolerance", [1e-10, 1e-12])
def test_k_integral_error_estimate_covers_actual_error(tolerance):
    cfg = QuadratureConfig(tolerance=tolerance)
    points = [(complex(n), left_factorial(n)) for n in range(1, 41)] + list(ORACLE.items())
    for z, want in points:
        r = k_integral_detailed(z, cfg)
        assert abs(r.value - want) <= r.error_estimate, z


def test_k_integral_detailed_reports_error_budget():
    r = k_integral_detailed(4.5)
    assert r.error_estimate >= 0
    assert r.panels >= 1
    assert r.truncation > 1
    assert r.error_estimate <= QuadratureConfig().tolerance + 1e-13 * abs(r.value)


def test_k_integral_rejects_left_half_plane():
    with pytest.raises(ValueError):
        k_integral(0.0)
    with pytest.raises(ValueError):
        k_integral(-1.5)


def test_k_integral_raises_when_tolerance_unreachable():
    # far off the real axis the rule's error estimate misses a tight tolerance
    cfg = QuadratureConfig(tolerance=1e-12)
    with pytest.raises(QuadratureError) as err:
        k_integral(complex(1, 20), cfg)
    # the failed evaluation still carries its best value and estimate
    assert err.value.value != 0
    assert err.value.error_estimate > 1e-12


def test_k_continued_agrees_on_right_half_plane():
    for z in (0.5, 3.25, complex(2.5, 1.5)):
        assert k_continued(z) == k_integral(z)


def test_k_continued_exact_special_points():
    assert k_continued(-2) == 1.0 + 0j
    assert abs(k_continued(0.0)) < 1e-9
    assert abs(k_continued(1.0) - 1) < 1e-9


def test_k_continued_near_removable_point_minus_two():
    for z, want in NEAR_MINUS_TWO.items():
        assert abs(k_continued(z) - want) < 1e-12, z


def test_vectorized_quadrature_matches_scalar_oracle():
    # criterion 08's box after unfolding (0 < Re z <= 10, |Im z| <= 4.5),
    # then the wider Re z <= 50, |Im z| <= 20
    rng = np.random.default_rng(20261018)
    box = [complex(rng.uniform(0, 10), rng.uniform(-4.5, 4.5)) for _ in range(30)]
    wide = [complex(rng.uniform(0, 50), rng.uniform(-20, 20)) for _ in range(30)]
    outcomes = set()
    for cfg in QUADRATURE_CONFIGS:
        for z in box + wide:
            want, want_panel_err = scalar_k_integral(z, cfg)
            want_raises = want.error_estimate > cfg.tolerance + 1e-13 * abs(want.value)
            got = _k_integral_cached(z, cfg)
            assert (got.panels, got.truncation) == (want.panels, want.truncation), z
            try:
                assert k_integral_detailed(z, cfg) == got
                raised = False
            except QuadratureError as err:
                assert err.value == got.value
                raised = True
            assert raised == want_raises, (z, cfg)
            bound = 1e-13 * max(1.0, abs(want.value))
            if raised:
                # the rule misses its tolerance here: roundoff in the node sums
                # (|Im z| large against Re z) swamps K, so two summation orders
                # may differ by up to the oracle's own panel error estimate
                bound = max(bound, want_panel_err)
            assert abs(got.value - want.value) <= bound, (z, cfg)
            outcomes.add((cfg.tolerance, raised))
    # the grid exercises a certified and a refused result at each tolerance
    assert outcomes == {(1e-10, False), (1e-10, True), (1e-12, False), (1e-12, True)}


def test_k_continued_functional_equation_grid():
    rng = np.random.default_rng(20260816)
    checked = 0
    while checked < 25:
        z = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        if abs(z - round(z.real)) < 0.1 or abs(z + 1 - round(z.real + 1)) < 0.1:
            continue
        residual = k_continued(z) - k_continued(z + 1) + gamma(z + 1)
        assert abs(residual) < 1e-8, z
        checked += 1


def test_k_continued_pole_errors_carry_residue():
    for n in (1, 3, 4):
        with pytest.raises(PoleError) as err:
            k_continued(float(-n))
        info = err.value.pole
        assert info.location == -n
    with pytest.raises(ValueError):
        k_continued(-25.0)


def test_pole_residue_exact_values():
    assert pole_residue(1).residue == Fraction(-1)
    assert pole_residue(3).residue == Fraction(-1, 2)
    assert pole_residue(4).residue == Fraction(-1, 3)
    assert pole_residue(5).residue == Fraction(-3, 8)
    with pytest.raises(ValueError):
        pole_residue(2)


def test_numerical_residues_extrapolate_to_exact():
    # (z + n) K(z) at -n + eps is residue + O(eps); Richardson over
    # eps in {1e-3, 1e-4} cancels the linear term
    for n in (1, 3, 4, 5):
        exact = float(pole_residue(n).residue)
        v3 = ((-n + 1e-3) + n) * k_continued(-n + 1e-3)
        v4 = ((-n + 1e-4) + n) * k_continued(-n + 1e-4)
        extrapolated = (10 * v4 - v3) / 9
        assert abs(extrapolated - exact) < 1e-4, n


def test_slavic_constant_block_value():
    assert slavic_constant_block() == pytest.approx(0.69717488323506606877, abs=1e-12)


def test_slavic_matches_continuation_off_integers():
    points = [
        -1.5 + 0.0j, -0.75 + 0.25j, 0.3 - 0.6j, 1.4 + 1.1j,
        2.6 - 0.2j, 3.5 + 0.0j, 4.25 + 0.75j,
    ]
    for z in points:
        assert abs(k_slavic(z) - k_continued(z)) < 1e-6, z


def test_slavic_finite_at_cancelled_poles():
    # cot blows up at integers; the gamma series cancels it; symmetric
    # averaging recovers the finite limit
    for z, want in ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-2.0, 1.0)):
        got = k_slavic(z)
        assert abs(got - want) < 1e-5, z
        assert abs(got - k_continued(z)) < 1e-5, z


def test_slavic_rejects_true_poles_and_short_series():
    with pytest.raises(PoleError):
        k_slavic(-3.0)
    with pytest.raises(ArithmeticError):
        k_slavic(0.4 + 0.2j, terms=3)


def test_asymptotic_ratio_drifts_to_limits():
    r1_small, r2_small = asymptotic_ratio(10.0)
    r1_big, r2_big = asymptotic_ratio(40.0)
    assert r1_big > 1.0
    assert r1_big - 1.0 < r1_small - 1.0
    assert 0 < r2_big < r2_small < 1
    with pytest.raises(ValueError):
        asymptotic_ratio(0.0)


@pytest.mark.parametrize("x, cause", [(108, "panel sum"), (109, "tail bound"), (171, "tail bound")])
def test_out_of_double_range_raises_quadrature_error(x, cause):
    # x = 108 used to return nan, and from 109 an OverflowError escaped
    with pytest.raises(QuadratureError, match=f"out of double range.*{cause}") as info:
        k_integral_detailed(float(x))
    assert info.value.error_estimate == math.inf
    with pytest.raises(QuadratureError):
        asymptotic_ratio(float(x))


def test_asymptotic_ratio_is_finite_up_to_100():
    r1, r2 = asymptotic_ratio(100.0)
    assert math.isfinite(r1) and math.isfinite(r2)
    assert 1.0 < r1 < 1.02 and r2 == pytest.approx(r1 / 100)


def test_congruence_bridge_exact_for_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        report = congruence_bridge(p)
        assert report.holds, p
        assert report.derangement == derangement_number(p - 1)
        assert report.floor_part == report.derangement - 1
        assert report.left_factorial_residue == left_factorial(p) % p
        assert report.bridge_residue == (report.floor_part + 1) % p


def test_congruence_bridge_rejects_non_primes():
    with pytest.raises(ValueError):
        congruence_bridge(2)
    with pytest.raises(ValueError):
        congruence_bridge(9)
