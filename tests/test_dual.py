"""Dual-number arithmetic, analytic extension, and the dual atan2."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_dual_close
from screwalg import (
    Dual, DualVec3, atan2, cos, dot, dual_angle, exp, extend, format_dual, parse_dual, sin, sqrt,
)
from screwalg.errors import DomainError, NotFinite, NotInvertible, NullVector

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def _gamma(k: int) -> float:
    """Higham's gamma_k: the relative error bound after k roundings."""
    u = EPS / 2
    return k * u / (1 - k * u)


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
duals = st.builds(Dual, finite, finite)


class TestArithmetic:
    def test_mul_expands_with_nilpotent_unit(self):
        assert Dual(1, 2) * Dual(3, 4) == Dual(3, 10)

    def test_mul_identity(self):
        x = Dual(-2.5, 7.0)
        assert x * Dual(1) == x

    def test_pure_dual_product_vanishes(self):
        assert Dual(0, 3) * Dual(0, 5) == Dual(0, 0)

    def test_conjugate(self):
        assert Dual(2, 3).conj() == Dual(2, -3)

    def test_conjugate_is_involution(self):
        x = Dual(-1.25, 4.5)
        assert x.conj().conj() == x

    def test_conjugate_fixes_reals(self):
        assert Dual(5).conj() == Dual(5)

    def test_inverse(self):
        assert Dual(2, 6).inv() == Dual(0.5, -1.5)

    def test_inverse_of_one(self):
        assert Dual(1).inv() == Dual(1)

    def test_pure_dual_not_invertible(self):
        with pytest.raises(NotInvertible):
            Dual(0, 3).inv()

    def test_division_by_pure_dual_rejected(self):
        with pytest.raises(NotInvertible):
            Dual(1, 0) / Dual(0, 2)

    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError):
            Dual(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Dual(0.0, float("inf"))

    @settings(max_examples=200, deadline=None)
    @given(duals, duals, duals)
    @example(
        Dual(431.140625, 174.0),
        Dual(410.15564083813024, 420.15564083813024),
        Dual(-623.953125, -639.5),
    )
    def test_ring_axioms_within_four_ulps(self, x, y, z):
        # Float error analysis, with x = a + b eps, y = c + d eps, z = e + f eps,
        # unit roundoff u = EPS / 2 and gamma(k) = k u / (1 - k u). A monomial
        # that passes through k roundings (products and sums) carries a relative
        # error of at most gamma(k), and the error of a sum of monomials is
        # bounded by gamma(k) times the sum of their absolute values.
        # - (x y) z and x (y z) have the dual part acf + ade + bce. On either
        #   side each monomial passes through at most 4 roundings (two products,
        #   two sums), so each side is within gamma(4) (|acf| + |ade| + |bce|)
        #   of it; the real part ace passes through 2. The difference of the two
        #   sides is rounded once more: (1 + u) 2 gamma(4) <= 2 gamma(5).
        # - x (y + z) and x y + x z have the dual part a(d + f) + b(c + e), whose
        #   monomials pass through at most 3 roundings per side, summed over
        #   |a|(|d| + |f|) + |b|(|c| + |e|); the real part through 2. With the
        #   final subtraction, 2 gamma(4).
        # Underflow adds an absolute error below 2**-1075 per product, scaled by
        # at most one later factor of at most 1e3; TINY covers all of them.
        a, b, c, d, e, f = x.re, x.du, y.re, y.du, z.re, z.du
        assoc = (x * y) * z - x * (y * z)
        assert abs(assoc.re) <= 2 * _gamma(5) * abs(a * c * e) + TINY
        assoc_terms = abs(a * c * f) + abs(a * d * e) + abs(b * c * e)
        assert abs(assoc.du) <= 2 * _gamma(5) * assoc_terms + TINY
        comm = x * y - y * x
        assert comm == Dual(0, 0)
        distrib = x * (y + z) - (x * y + x * z)
        assert abs(distrib.re) <= 2 * _gamma(4) * abs(a) * (abs(c) + abs(e)) + TINY
        distrib_terms = abs(a) * (abs(d) + abs(f)) + abs(b) * (abs(c) + abs(e))
        assert abs(distrib.du) <= 2 * _gamma(4) * distrib_terms + TINY

    @settings(max_examples=200, deadline=None)
    @given(duals)
    def test_mul_inv_is_one(self, x):
        if abs(x.re) < 1e-3:
            return
        prod = x * x.inv()
        assert abs(prod.re - 1.0) <= 1e-14
        assert abs(prod.du) <= 1e-14 * max(1.0, abs(x.du / x.re))


class TestValue:
    """Dual keeps the contract of the frozen dataclass it was."""

    def test_construction_coerces_to_float(self):
        assert [*inspect.signature(Dual).parameters] == ["re", "du"]
        assert Dual(re=1, du=-2) == Dual(1.0, -2.0) == Dual(np.float64(1.0), -2)
        x = Dual(True, np.int64(3))
        assert (type(x.re), type(x.du)) == (float, float)
        assert Dual(2) == Dual(2.0, 0.0)

    def test_refusals_keep_their_class_and_message(self):
        with pytest.raises(NotFinite, match=r"must be finite, got nan, 0.0"):
            Dual(float("nan"))
        with pytest.raises(NotFinite, match="does not fit a float"):
            Dual(1.0, -(10**400))
        with pytest.raises(ValueError, match="could not convert"):
            Dual("x")

    def test_repr_eq_and_hash_read_both_components(self):
        x = Dual(1, -0.5)
        assert repr(x) == "Dual(re=1.0, du=-0.5)"
        assert x == Dual(1.0, -0.5) and hash(x) == hash(Dual(1.0, -0.5)) == hash((1.0, -0.5))
        assert x != Dual(1.0, 0.5) and x != Dual(-1.0, -0.5)
        assert Dual(0.0, -0.0) == Dual(-0.0, 0.0)
        assert x != (1.0, -0.5) and Dual(2.0) != 2.0
        assert len({x, Dual(1.0, -0.5), Dual(1.0)}) == 2

    def test_is_immutable(self):
        x = Dual(1.0, 2.0)
        for statement in ("x.re = 3.0", "del x.du", "x.other = 1"):
            with pytest.raises(AttributeError):
                exec(statement)
        assert x == Dual(1.0, 2.0)

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_duals(self, round_trip):
        x = Dual(-0.25, 1e-300)
        y = round_trip(x)
        assert type(y) is Dual and y == x and repr(y) == repr(x)


class TestExtension:
    def test_sqrt_example(self):
        assert_dual_close(sqrt(Dual(4, 4)), Dual(2, 1))

    def test_cos_at_right_angle(self):
        assert_dual_close(cos(Dual(math.pi / 2, 2)), Dual(0, -2), tol=1e-15)

    def test_exp_at_zero(self):
        assert_dual_close(exp(Dual(0, 0.7)), Dual(1, 0.7))

    def test_sqrt_rejects_nonpositive_real_part(self):
        with pytest.raises(DomainError):
            sqrt(Dual(-1, 1))
        with pytest.raises(DomainError):
            sqrt(Dual(0, 1))

    def test_extend_matches_specializations(self):
        x = Dual(0.8, -1.7)
        assert_dual_close(extend(math.sin, math.cos, x), sin(x))
        assert_dual_close(extend(math.exp, math.exp, x), exp(x))

    def test_extend_raises_outside_domain(self):
        with pytest.raises(DomainError):
            extend(math.log, lambda t: 1 / t, Dual(-2, 1))

    def test_sqrt_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            x = Dual(rng.uniform(0.01, 100.0), rng.uniform(-10, 10))
            assert_dual_close(sqrt(x * x), x, tol=1e-12, scale=abs(x.re))

    def test_dual_part_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        cases = [
            (math.sin, math.cos, (-3.0, 3.0)),
            (math.exp, math.exp, (-2.0, 2.0)),
            (math.sqrt, lambda t: 0.5 / math.sqrt(t), (0.5, 10.0)),
        ]
        for f, fprime, (lo, hi) in cases:
            for _ in range(300):
                x = Dual(rng.uniform(lo, hi), rng.uniform(-5, 5))
                numeric = x.du * (f(x.re + h) - f(x.re - h)) / (2 * h)
                exact = extend(f, fprime, x).du
                assert abs(exact - numeric) <= 1e-6 * max(1.0, abs(exact))


class TestAtan2:
    @pytest.mark.parametrize("phi", [0.7, 2.2, -2.5, -0.4], ids=["I", "II", "III", "IV"])
    def test_inverts_sine_and_cosine_in_every_quadrant(self, phi):
        # Any common factor with positive real part cancels, dual part included.
        theta, k = Dual(phi, -1.25), Dual(3.0, 0.75)
        assert_dual_close(atan2(k * sin(theta), k * cos(theta)), theta, tol=4 * EPS)
        assert math.copysign(1.0, atan2(sin(theta), cos(theta)).re) == math.copysign(1.0, phi)

    def test_real_axis_positive_side(self):
        # d/dt atan2(s, c) = (c s' - s c') / (c**2 + s**2) = s'/c where s = 0.
        assert atan2(Dual(0.0, 2.0), Dual(4.0, 3.0)) == Dual(0.0, 0.5)

    def test_real_axis_negative_side(self):
        assert atan2(Dual(0.0, 2.0), Dual(-4.0, 3.0)) == Dual(math.pi, -0.5)

    def test_origin_has_no_angle(self):
        with pytest.raises(DomainError):
            atan2(Dual(0.0, 1.0), Dual(0.0, 2.0))
        with pytest.raises(DomainError):
            atan2(Dual(1e-170), Dual(-1e-170))

    def test_exactly_parallel_resultants_take_zero_or_pi(self):
        # The modulus of a cross product with zero real part is undefined, so
        # dual_angle keeps one exact branch: 0 or pi, and no distance.
        x = DualVec3([2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        y = DualVec3([3.0, 0.0, 0.0], [0.0, 0.0, 5.0])
        assert dual_angle(x, y) == Dual(0.0, 0.0)
        assert dual_angle(x, -1.0 * y) == Dual(math.pi, 0.0)
        with pytest.raises(NullVector):
            dual_angle(DualVec3([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), y)

    def test_left_inverse_of_sin_and_cos_up_to_both_endpoints(self):
        # The cosine alone lost the angle near 0 and pi; the pair keeps it.
        rng = np.random.default_rng(9)
        angles = [1e-12, 1e-8, math.pi - 1e-8, math.pi - 1e-12]
        angles += list(rng.uniform(-math.pi, math.pi, 1000))
        for a in angles:
            theta = Dual(a, rng.uniform(-10, 10))
            recovered = atan2(sin(theta), cos(theta))
            assert_dual_close(recovered, theta, tol=4 * EPS, scale=max(1.0, abs(theta.du)))


class TestTextForm:
    def test_format_matches_convention(self):
        assert format_dual(Dual(math.pi / 2, 1)) == "1.5707963267948966 + 1ε"
        assert format_dual(Dual(2, -3)) == "2 - 3ε"

    def test_parse_forms(self):
        assert parse_dual("3") == Dual(3)
        assert parse_dual("3 + 2ε") == Dual(3, 2)
        assert parse_dual("3-2eps") == Dual(3, -2)
        assert parse_dual("-1.5e2 + 0.25ε") == Dual(-150, 0.25)
        assert parse_dual("2ε") == Dual(0, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dual("three plus eps")

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            x = Dual(rng.uniform(-1e6, 1e6), rng.uniform(-1e-6, 1e-6))
            assert parse_dual(format_dual(x)) == x


BIG = DualVec3([1e200, 1e200, 1e200], [1e200, 1e200, 1e200])


class TestOverflow:
    """Finite operands whose result overflows raise NotFinite, never a builtin error."""

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: Dual(1e200, 1.0) * Dual(1e200, 1.0),
            lambda: Dual(1.0, 1e200) * Dual(1e200, 1.0),
            lambda: Dual(1.7e308) + Dual(1.7e308),
            lambda: Dual(0.0, -1.7e308) - Dual(0.0, 1.7e308),
            lambda: sqrt(Dual(1e-300, 1e300)),
            lambda: dot(BIG, BIG),
            lambda: exp(Dual(800.0)),
            lambda: exp(Dual(700.0, 1e300)),
            lambda: extend(math.exp, math.exp, Dual(800.0)),
            lambda: Dual(1e-200, 1.0).inv(),
            lambda: Dual(1.0) / Dual(1e-200, 1.0),
            lambda: Dual(10**400),
        ],
        ids=[
            "mul", "mul-dual-part", "add", "sub", "sqrt", "dot", "exp", "exp-dual-part",
            "extend", "inv-underflow", "div-underflow", "int-too-large",
        ],
    )
    def test_overflow_raises_not_finite(self, operation):
        # numpy also warns when an array product overflows; as in the CLI, the
        # warning is silenced and the refusal is what counts.
        with np.errstate(over="ignore"), pytest.raises(NotFinite):
            operation()

    def test_results_next_to_the_edge_are_unchanged(self):
        assert exp(Dual(709.0, 1.0)) == Dual(math.exp(709.0), math.exp(709.0))
        assert Dual(1e-150, 1.0).inv() == Dual(1e150, -1.0 / (1e-150 * 1e-150))
        assert Dual(1e154, 1.0) * Dual(1e154, 1.0) == Dual(1e308, 2e154)
