"""Exact checks, in sympy, of the calculus that exp_so3d and dual angles rely on.

The Rodrigues coefficients of exp_so3d are sin(t)/t and (1 - cos t)/t**2,
extended to dual angles through their derivatives. exp_so3d takes them from
the dual square q of the angle: below a cut-off each is summed from its
Taylor series in q, above it from its closed form at sqrt(q). Here sympy
supplies the exact functions, derivatives and series, evaluated to 40 digits
at the dual angle t + eps, whose square is q = t*t + 2t eps, on both sides of
the cut-off. The dual atan2 behind every dual angle is checked against the
derivative of atan2, and acos over the duals, spelled through it, against
that of acos. The component kernels of linalg use only + - * /, so sympy
symbols pass through them, and the identities of the vector algebra are
proved on them exactly.
"""

import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from screwalg import Dual, atan2, dual, geometry, linalg, sqrt  # noqa: E402

EPS = np.finfo(float).eps
CUT = linalg._SERIES_BELOW

T = sp.Symbol("t")
SIN_OVER = sp.sin(T) / T
VERSIN_OVER = (1 - sp.cos(T)) / T**2


def _coefficient(i: int, part: str):
    """Part ``re`` or ``du`` of Rodrigues coefficient i at the dual angle t + eps."""
    return lambda t: linalg._rodrigues(t * t, 2.0 * t)[2 * i + (part == "du")]


FUNCTIONS = {
    "sin_over": (_coefficient(0, "re"), SIN_OVER),
    "sin_over_prime": (_coefficient(0, "du"), sp.diff(SIN_OVER, T)),
    "versin_over": (_coefficient(1, "re"), VERSIN_OVER),
    "versin_over_prime": (_coefficient(1, "du"), sp.diff(VERSIN_OVER, T)),
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
    "expr, value",
    [(SIN_OVER, linalg._SIN_OVER), (VERSIN_OVER, linalg._VERSIN_OVER)],
    ids=["sin_over", "versin_over"],
)
def test_series_are_the_taylor_expansion_to_the_order_the_cut_off_needs(expr, value):
    n = len(value)
    taylor = sp.series(expr, T, 0, 2 * n + 2).removeO()
    even = [taylor.coeff(T, 2 * k) for k in range(n + 1)]
    assert all(taylor.coeff(T, 2 * k + 1) == 0 for k in range(n + 1))

    # The coefficients are the Taylor coefficients, each rounded once.
    assert value == tuple(float(a) for a in reversed(even[:n]))

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


# -- the vector algebra, proved on symbols ------------------------------------
#
# Every component of a dual vector is a symbol, so each identity below is a
# polynomial (or, for norm, algebraic) identity in 18 unknowns, proved by
# expanding the difference to 0. The symbols pass through dot, cross, mixed,
# norm, @ and hat themselves, with one stand-in for the math module of
# linalg and dual: sympy's sqrt, and every symbol counted as finite; and every
# symbol taken to lie in range, where linalg._in_range leaves a screw untouched.


class _SymbolicMath:
    sqrt = staticmethod(sp.sqrt)

    @staticmethod
    def isfinite(_) -> bool:
        return True


@pytest.fixture
def symbolic(monkeypatch):
    for module in (linalg, dual):
        monkeypatch.setattr(module, "math", _SymbolicMath)
    monkeypatch.setattr(linalg, "_in_range", lambda x: (x, 0))


def _vector(name: str) -> linalg.DualVec3:
    # Nonzero real resultant components make a0**2 + a1**2 + a2**2 positive
    # for sympy, which norm's refusal of a pure dual vector asks.
    re = sp.symbols(f"{name}0:3", real=True, nonzero=True)
    du = sp.symbols(f"{name}_du0:3", real=True)
    return linalg.DualVec3._raw(re, du)


def _matrix(name: str) -> linalg.DualMat3:
    return linalg.DualMat3._raw(sp.symbols(f"{name}0:9"), sp.symbols(f"{name}_du0:9"))


def _vanishes(*values) -> bool:
    return all(sp.expand(v) == 0 for v in values)


def _same(u, v) -> bool:
    if isinstance(u, Dual):
        return _vanishes(u.re - v.re, u.du - v.du)
    return _vanishes(*(a - b for a, b in zip(u._re + u._du, v._re + v._du)))


class TestVectorAlgebraIsExact:
    @pytest.fixture(autouse=True)
    def _vectors(self, symbolic):
        self.x, self.y, self.z = _vector("x"), _vector("y"), _vector("z")

    def test_jacobi(self):
        x, y, z = self.x, self.y, self.z
        total = linalg.cross(x, linalg.cross(y, z)) + linalg.cross(y, linalg.cross(z, x))
        total = total + linalg.cross(z, linalg.cross(x, y))
        assert _vanishes(*total._re, *total._du)

    def test_lagrange(self):
        x, y = self.x, self.y
        c = linalg.cross(x, y)
        xy = linalg.dot(x, y)
        assert _same(linalg.dot(c, c), linalg.dot(x, x) * linalg.dot(y, y) - xy * xy)

    def test_bac_cab(self):
        x, y, z = self.x, self.y, self.z
        expected = linalg.dot(x, z) * y - linalg.dot(x, y) * z
        assert _same(linalg.cross(x, linalg.cross(y, z)), expected)

    def test_mixed_product_is_cyclic_and_alternating(self):
        x, y, z = self.x, self.y, self.z
        m = linalg.mixed(x, y, z)
        assert _same(m, linalg.mixed(y, z, x))
        assert _same(m, linalg.mixed(z, x, y))
        assert _same(m, -1.0 * linalg.mixed(y, x, z))
        assert _same(m, -1.0 * linalg.mixed(x, z, y))

    def test_norm_squared_is_dot(self):
        n = linalg.norm(self.x)
        assert _same(n * n, linalg.dot(self.x, self.x))

    def test_triple_product_is_the_determinant(self):
        a, b, c = self.x._re, self.y._re, self.z._re
        assert _vanishes(linalg._triple(a, b, c) - sp.Matrix([a, b, c]).det())

    def test_hat_is_the_cross_product_and_its_axial_vector_inverts_it(self):
        x, y = self.x, self.y
        assert _same(y @ linalg.hat(x), linalg.cross(x, y))
        for part in (x._re, x._du):
            back = linalg._axial_vector(linalg._axial_matrix(part))
            assert _vanishes(*(a - b for a, b in zip(back, part)))

    def test_row_action_is_associative(self):
        m, n = _matrix("m"), _matrix("n")
        assert _same(self.x @ (m @ n), (self.x @ m) @ n)


# -- a change of reduction point, proved on symbols -----------------------------
#
# The abstract's motor calculus "independent of any reduction point": a move by
# t is du + t x re (linalg._moved), the row action of frame_from_point(t), and
# moves form the group of translations, under which dot, and with it the
# comoment, does not change.


def _moved(x: linalg.DualVec3, t) -> linalg.DualVec3:
    return linalg.DualVec3._raw(x._re, linalg._moved(x._re, x._du, t))


class TestChangeOfReductionPointIsExact:
    @pytest.fixture(autouse=True)
    def _symbols(self, symbolic, monkeypatch):
        monkeypatch.setattr(geometry, "_vec", tuple)
        self.x, self.y = _vector("x"), _vector("y")
        self.s, self.t = sp.symbols("s0:3", real=True), sp.symbols("t0:3", real=True)

    def test_a_move_is_the_row_action_of_frame_from_point(self):
        assert _same(_moved(self.x, self.t), self.x @ geometry.frame_from_point(self.t))

    def test_moves_compose_by_adding(self):
        s, t = self.s, self.t
        both = tuple(a + b for a, b in zip(s, t))
        assert _same(_moved(_moved(self.x, s), t), _moved(self.x, both))

    def test_dot_is_the_same_at_every_reduction_point(self):
        t = self.t
        assert _same(linalg.dot(_moved(self.x, t), _moved(self.y, t)), linalg.dot(self.x, self.y))


# -- the rigid-motion kernels, proved on symbols -------------------------------
#
# exp_so3d, is_frame, frame_translation and @ each make one pass over the
# entries they need. Here each kernel is run on symbols and compared with the
# matrix formula it unrolls, the matrices built by sympy where the formula is
# a plain matrix product. Then U U^T - I for U = I + c1 H + c2 H**2 is reduced
# to one dual factor, which the Rodrigues coefficients annihilate.


def _dual_symbol(name: str) -> Dual:
    return dual._dual(*sp.symbols(f"{name} {name}_du", real=True))


def _parts(m: linalg.DualMat3):
    return sp.Matrix(3, 3, m._re), sp.Matrix(3, 3, m._du)


class TestRigidMotionKernelsAreExact:
    @pytest.fixture(autouse=True)
    def _symbols(self, symbolic):
        self.b = _vector("b")
        self.c1, self.c2 = _dual_symbol("c1"), _dual_symbol("c2")

    def _rodrigues(self) -> linalg.DualMat3:
        b = self.b
        c1, c2 = self.c1, self.c2
        return linalg.DualMat3._raw(
            *linalg._rodrigues_matrix(b._re, b._du, c1.re, c1.du, c2.re, c2.du))

    def test_rodrigues_kernel_is_the_rodrigues_form(self):
        h = linalg.hat(self.b)
        expected = linalg.DualMat3.identity() + self.c1 * h + self.c2 * (h @ h)
        assert _same(self._rodrigues(), expected)

    def test_product_is_the_matrix_product_over_the_duals(self):
        m, n = _matrix("m"), _matrix("n")
        (a, ad), (b, bd) = _parts(m), _parts(n)
        re, du = _parts(m @ n)
        assert _vanishes(*(re - a * b), *(du - (a * bd + ad * b)))
        v = self.b
        x, xd = sp.Matrix([v._re]), sp.Matrix([v._du])
        w = v @ m
        assert _vanishes(*(sp.Matrix([w._re]) - x * a), *(sp.Matrix([w._du]) - (x * ad + xd * a)))

    def test_frame_check_reads_the_entries_of_u_ut_minus_i(self):
        m = _matrix("m")
        r, d = _parts(m)
        real, dual_part = r * r.T - sp.eye(3), r * d.T + d * r.T
        upper = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        gram, dual_gram = linalg._gram_defects(m._re, m._du)
        assert _vanishes(*(g - real[ij] for g, ij in zip(gram, upper)))
        assert _vanishes(*(g - dual_part[ij] for g, ij in zip(dual_gram, upper)))

    def test_translation_is_the_axial_vector_of_du_re_t(self):
        m = _matrix("m")
        r, d = _parts(m)
        s = d * r.T
        axial = [(s[1, 2] - s[2, 1]) / 2, (s[2, 0] - s[0, 2]) / 2, (s[0, 1] - s[1, 0]) / 2]
        assert _vanishes(*(t - e for t, e in zip(linalg._translation(m), axial)))

    def test_u_ut_minus_i_is_one_dual_factor_times_h_squared(self):
        # H is antisymmetric with H**3 = -q H, q = b o b, so for U = I + c1 H + c2 H**2
        # U U^T - I = (2 c2 - c1**2) H**2 + c2**2 H**4 = (2 c2 - c1**2 - c2**2 q) H**2.
        u = self._rodrigues()
        c1, c2 = self.c1, self.c2
        h = linalg.hat(self.b)
        factor = 2 * c2 - c1 * c1 - c2 * c2 * linalg.dot(self.b, self.b)
        assert _same(u @ u.T - linalg.DualMat3.identity(), factor * (h @ h))


# The factor 2 c2 - c1**2 - c2**2 q at the dual angle phi = t + eps s, where
# c1 = sin(phi)/phi, c2 = (1 - cos phi)/phi**2 and q = phi**2. Its dual part is
# s times the derivative of its real part.
S_DU = sp.Symbol("s")
FRAME_FACTOR = 2 * VERSIN_OVER - SIN_OVER**2 - VERSIN_OVER**2 * T**2


def test_the_exact_rodrigues_coefficients_annihilate_the_frame_factor():
    assert sp.simplify(FRAME_FACTOR) == 0
    assert sp.simplify(S_DU * sp.diff(FRAME_FACTOR, T)) == 0


@pytest.mark.parametrize("t", POINTS)
def test_the_coefficients_of_rodrigues_annihilate_the_frame_factor(t):
    # On both sides of the cut-off the float coefficients leave the factor at
    # rounding size: each of its three terms is at most 1 in the real part
    # (c2 <= 1/2, c1**2 <= 1, c2**2 q = (1 - cos t)**2 / t**2 <= 1), and its
    # dual part is of the size of the derivatives, at most 1 times 2 |t|.
    q = Dual(t * t, 2.0 * t)
    a, da, c, dc = linalg._rodrigues(q.re, q.du)
    c1, c2 = Dual(a, da), Dual(c, dc)
    factor = 2 * c2 - c1 * c1 - c2 * c2 * q
    assert abs(factor.re) <= 4 * EPS
    assert abs(factor.du) <= 16 * EPS * max(1.0, abs(t))
