"""Exact checks, in sympy, of the calculus that exp_so3d and dual angles rely on.

The Rodrigues coefficients of exp_so3d are sin(t)/t and (1 - cos t)/t**2,
extended to dual angles through their derivatives. Below a cut-off each is
summed from its Taylor series, above it from its closed form. Here sympy
supplies the exact functions, derivatives and series, evaluated to 40 digits
at the very floats the library sees, on both sides of the cut-off. The
dual atan2 behind every dual angle is checked against the derivative of
atan2, and acos over the duals, spelled through it, against that of acos.
"""

import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from screwalg import Dual, atan2, sqrt  # noqa: E402
from screwalg import linalg  # noqa: E402

EPS = np.finfo(float).eps
CUT = linalg._SERIES_BELOW

T = sp.Symbol("t")
SIN_OVER = sp.sin(T) / T
VERSIN_OVER = (1 - sp.cos(T)) / T**2

FUNCTIONS = {
    "sin_over": (linalg._sin_over, SIN_OVER),
    "sin_over_prime": (linalg._sin_over_prime, sp.diff(SIN_OVER, T)),
    "versin_over": (linalg._versin_over, VERSIN_OVER),
    "versin_over_prime": (linalg._versin_over_prime, sp.diff(VERSIN_OVER, T)),
}

# Both sides of the cut-off, both sides of the 1e-4 where the series used to
# stop, and joint angles up to 3 rad, short of the first zero of any of the
# four functions (sin_over's, at pi), so that relative error is meaningful.
POINTS = [
    1e-8, 1e-5, 9.99e-5, 1e-4, 1.0001e-4, 1.5e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.3,
    math.nextafter(CUT, 0.0), CUT, math.nextafter(CUT, 1.0), 0.7, 1.2, 2.0, 3.0, -0.2, -1.5,
]

# The closed form of versin_over_prime cancels at small t: 1 - cos t carries
# an absolute error of eps/2, which costs eps / (t**3 |f'(t)|), ~196 eps just
# above the cut-off. Everything else measures below 8 eps.
REL_TOL = 256 * EPS


def _exact(expr, t: float):
    return expr.subs(T, sp.Float(t, 60)).evalf(40)


def _relative_error(value: float, exact) -> float:
    return float(abs((sp.Float(value, 60) - exact) / exact))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("t", POINTS)
def test_matches_the_exact_function(name, t):
    f, expr = FUNCTIONS[name]
    assert _relative_error(f(t), _exact(expr, t)) <= REL_TOL


@pytest.mark.parametrize("name", ["sin_over_prime", "versin_over_prime"])
@pytest.mark.parametrize("t", [1e-4, 1.5e-4, 1e-3, 0.01])
def test_derivatives_are_exact_where_the_closed_form_cancels(name, t):
    # Just above the old 1e-4 cut-off the closed form of versin_over_prime was
    # off by a factor of 3; the series keeps every point here within 8 eps.
    f, expr = FUNCTIONS[name]
    assert _relative_error(f(t), _exact(expr, t)) <= 8 * EPS


@pytest.mark.parametrize(
    "expr, value, slope",
    [
        (SIN_OVER, linalg._SIN_OVER, linalg._SIN_OVER_SLOPE),
        (VERSIN_OVER, linalg._VERSIN_OVER, linalg._VERSIN_OVER_SLOPE),
    ],
    ids=["sin_over", "versin_over"],
)
def test_series_are_the_taylor_expansion_to_the_order_the_cut_off_needs(expr, value, slope):
    n = len(value)
    taylor = sp.series(expr, T, 0, 2 * n + 2).removeO()
    even = [taylor.coeff(T, 2 * k) for k in range(n + 1)]
    assert all(taylor.coeff(T, 2 * k + 1) == 0 for k in range(n + 1))

    # The coefficients are the Taylor coefficients, each rounded once.
    assert value == tuple(float(a) for a in reversed(even[:n]))
    derivative = sp.expand(sp.diff(sum(a * T ** (2 * k) for k, a in enumerate(even[:n])), T) / T)
    assert slope == tuple(float(derivative.coeff(T, 2 * k)) for k in reversed(range(n - 1)))

    # At the cut-off the first omitted term is below eps/4 of the value, for
    # the function and for its derivative.
    cut = sp.Rational(CUT)
    omitted = abs(even[n]) * cut ** (2 * n)
    assert omitted <= EPS / 4 * abs(expr.subs(T, cut))
    omitted_slope = 2 * n * abs(even[n]) * cut ** (2 * n - 1)
    assert omitted_slope <= EPS / 4 * abs(sp.diff(expr, T).subs(T, cut))


S, C = sp.symbols("s c")
ATAN2 = sp.atan2(S, C)
ATAN2_SLOPES = (sp.diff(ATAN2, S), sp.diff(ATAN2, C))


@pytest.mark.parametrize(
    "s, c",
    [(1.0, 1e-9), (1e-9, 1.0), (1e-9, -1.0), (0.0, 2.0), (0.0, -2.0), (0.6, 0.8), (0.6, -0.8),
     (-0.6, -0.8), (-0.6, 0.8), (3.0, -1e-12), (2.5e-8, 1.5)],
)
def test_atan2_dual_part_is_the_derivative_of_atan2(s, c):
    ds, dc = 1.75, -0.625
    result = atan2(Dual(s, ds), Dual(c, dc))
    at = {S: sp.Float(s, 60), C: sp.Float(c, 60)}
    angle = ATAN2.subs(at).evalf(40)
    if angle == 0:
        assert result.re == 0.0
    else:
        assert _relative_error(result.re, angle) <= EPS
    expected = (ds * ATAN2_SLOPES[0] + dc * ATAN2_SLOPES[1]).subs(at).evalf(40)
    assert _relative_error(result.du, expected) <= 2 * EPS


# By transference acos over the duals is atan2(sqrt((1 - c)(1 + c)), c) in
# dual arithmetic; its dual part must be the derivative of acos up to both
# ends of the range.
ACOS_SLOPE = sp.diff(sp.acos(C), C)


@pytest.mark.parametrize(
    "c",
    [-1 + 1e-15, -1 + 1e-6, -0.9, -0.5, -1e-3, 0.0, 0.3, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-12,
     1 - 1e-15],
)
def test_acos_dual_part_is_the_derivative_of_acos(c):
    du = 1.75
    cosine = Dual(c, du)
    result = atan2(sqrt((1.0 - cosine) * (1.0 + cosine)), cosine)
    X = sp.Float(c, 60)
    assert _relative_error(result.re, sp.acos(X).evalf(40)) <= EPS
    expected = du * ACOS_SLOPE.subs(C, X).evalf(40)
    assert _relative_error(result.du, expected) <= 2 * EPS
