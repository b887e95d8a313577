"""Geometric layer: fields, lines, axes, dual angles, motor reduction."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from helpers import (
    assert_dual_close,
    assert_dualvec_close,
    assert_vec_close,
    rand_dualvec,
    rand_line,
    rand_proper_screw,
    rand_skew_lines,
    rand_unit,
    rand_vec,
    screw_size,
)
from screwalg import (
    AxisDecomposition,
    Dual,
    DualMat3,
    DualVec3,
    Line,
    axes_intersect,
    axis_decompose,
    comoment,
    common_normal,
    cos,
    cross,
    dot,
    dual_angle,
    field_at,
    frame_from_point,
    frame_translation,
    geometry,
    line_from_point_direction,
    motor_reduce,
    motor_unreduce,
    norm,
    sin,
)
from screwalg.errors import (
    NotALine, NotFinite, NotUnit, NullVector, ParallelResultants, ScrewAlgError,
)
from screwalg.oracle import line_distance_angle

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def x_axis():
    return line_from_point_direction([0, 0, 0], X)


def y_axis_offset():
    return line_from_point_direction([0, 0, 1], Y)


def _screw_bits(line: Line) -> list:
    return [repr(c) for c in (*line.screw._re, *line.screw._du)]


class TestLines:
    def test_axis_through_origin(self):
        l = line_from_point_direction([0, 0, 0], X)
        assert_dualvec_close(l.screw, DualVec3(X))

    def test_offset_axis_moment(self):
        l = line_from_point_direction([0, 0, 1], Y)
        assert_dualvec_close(l.screw, DualVec3(Y, -X))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NotUnit):
            line_from_point_direction([0, 0, 0], 2 * X)

    @pytest.mark.parametrize("direction", [[1, 0], [0.6, 0.8], [[1, 0, 0]], None])
    def test_direction_that_is_not_a_3_vector_rejected(self, direction):
        with pytest.raises(ValueError, match="3-vector"):
            line_from_point_direction([0, 0, 0], direction)

    def test_non_finite_direction_rejected(self):
        with pytest.raises(NotFinite):
            line_from_point_direction([0, 0, 0], [math.nan, 0, 0])

    def test_line_is_immutable(self):
        l = line_from_point_direction([0, 0, 1], Y)
        with pytest.raises(AttributeError):
            l.screw = DualVec3(X)
        with pytest.raises(AttributeError, match="immutable"):
            del l.screw
        assert_dualvec_close(l.screw, DualVec3(Y, -X))
        assert repr(l).startswith("Line(point=")

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_every_bit(self, round_trip):
        l = Line(DualVec3([0.2910454843926746, 0.5543240301804152, -0.7797547021847162],
                          [-4.810616491753616, 2.684286105235969, 0.11267143974344362]))
        # Built again from its screw, the line moves bits: a copy runs no constructor.
        assert _screw_bits(Line(l.screw)) != _screw_bits(l)
        got = round_trip(l)
        assert type(got) is Line and _screw_bits(got) == _screw_bits(l)

    def test_pitched_screw_rejected(self):
        with pytest.raises(NotALine):
            Line(DualVec3(X, X))

    def test_canonicalization_removes_stray_pitch(self):
        l = Line(DualVec3(X, [1e-12, 1.0, 0.0]))
        assert abs(l.moment @ l.direction) == 0.0

    def test_line_far_from_origin_is_a_line(self):
        # The moment's rounding leaves a stray pitch that grows with |p|.
        rng = np.random.default_rng(22)
        for _ in range(200):
            p, e = 1e8 * rand_unit(rng), rand_unit(rng)
            l = line_from_point_direction(p, e)
            assert_vec_close(l.point, p - (p @ e) * e, tol=1e-12, scale=1e8)

    @pytest.mark.parametrize("tol", [0.0, 1e-30])
    def test_the_moment_built_from_a_point_is_not_judged(self, tol):
        # p x e rounds to a pitch of ~1e-17, which tol used to refuse (NotALine).
        l = line_from_point_direction([0.3, -0.2, 0.5], [0.6, 0.8, 0.0], tol=tol)
        assert abs(l.moment @ l.direction) <= 4 * np.finfo(float).eps
        assert_vec_close(l.point, [0.288, -0.216, 0.5], tol=1e-15)

    def test_a_caller_screw_is_still_judged_by_tol(self):
        with pytest.raises(NotALine, match="pitch"):
            Line(DualVec3(X, [1e-12, 1.0, 0.0]), tol=0.0)
        with pytest.raises(NotALine, match="length"):
            Line(DualVec3(1.1 * X), tol=0.05)

    def test_moment_that_overflows_raises_not_finite(self):
        # Point and direction are finite; their cross product is not.
        with pytest.raises(NotFinite):
            line_from_point_direction([0, 1.7e308, -1.7e308], [0, 0.6, 0.8])

    def test_closest_point_to_origin(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, e = rand_vec(rng), rand_unit(rng)
            l = line_from_point_direction(p, e)
            foot = l.point
            assert abs(foot @ e) <= 1e-12 * max(1.0, np.abs(p).max())
            offset = p - foot
            assert np.linalg.norm(np.cross(offset, e)) <= 1e-12 * max(
                1.0, np.linalg.norm(p)
            )


class TestField:
    def test_constant_field(self):
        z = DualVec3([0, 0, 0], [1, 2, 3])
        assert_vec_close(field_at(z, [5, -7, 11]), [1, 2, 3])

    def test_transport_example(self):
        z = DualVec3([2, 0, 0], [3, 2, 0])
        assert_vec_close(field_at(z, [0, 0, 1]), [3, 0, 0])

    def test_value_at_origin_is_dual_part(self):
        rng = np.random.default_rng(1)
        z = rand_dualvec(rng)
        assert_vec_close(field_at(z, [0, 0, 0]), z.du)

    def test_equiprojectivity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            z = rand_dualvec(rng)
            p, q = rand_vec(rng), rand_vec(rng)
            lhs = field_at(z, p) @ (q - p)
            rhs = field_at(z, q) @ (q - p)
            scale = screw_size(z) * max(1.0, np.linalg.norm(q - p)) ** 2
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)

    def test_axis_translation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rand_proper_screw(rng)
            dec = axis_decompose(z)
            base = field_at(z, dec.axis.point)
            for t in (-3.0, 0.7, 12.0):
                shifted = field_at(z, dec.axis.point + t * dec.axis.direction)
                assert_vec_close(shifted, base, tol=1e-12, scale=screw_size(z) * (1 + abs(t)))


class TestPairings:
    def test_comoment_of_perpendicular_offset_lines(self):
        assert comoment(x_axis().screw, y_axis_offset().screw) == -1.0

    def test_self_comoment_of_line_vanishes(self):
        rng = np.random.default_rng(4)
        l = rand_line(rng)
        assert abs(comoment(l.screw, l.screw)) <= 1e-12

    def test_comoment_of_constant_fields_vanishes(self):
        assert comoment(DualVec3([0, 0, 0], [1, 2, 3]), DualVec3([0, 0, 0], [4, 5, 6])) == 0.0

    def test_commutator_of_concurrent_lines(self):
        lx = line_from_point_direction([0, 0, 0], X)
        ly = line_from_point_direction([0, 0, 0], Y)
        assert_dualvec_close(cross(lx.screw, ly.screw), DualVec3(Z))

    def test_commutator_of_skew_lines_is_common_normal_motor(self):
        out = cross(x_axis().screw, y_axis_offset().screw)
        assert_dualvec_close(out, DualVec3(Z))

    def test_commutator_of_equal_arguments(self):
        rng = np.random.default_rng(5)
        z = rand_dualvec(rng)
        assert_dualvec_close(cross(z, z), DualVec3([0, 0, 0]))


class TestAxis:
    def test_pitch_from_modulus(self):
        dec = axis_decompose(DualVec3([2, 0, 0], [3, 0, 0]))
        assert dec.magnitude == 2.0
        assert dec.pitch == 1.5
        assert_vec_close(dec.axis.point, [0, 0, 0])

    def test_offset_axis(self):
        dec = axis_decompose(DualVec3([2, 0, 0], [3, 2, 0]))
        assert dec.magnitude == 2.0
        assert dec.pitch == 1.5
        assert_vec_close(dec.axis.point, [0, 0, 1])
        assert_vec_close(dec.axis.direction, X)
        assert_vec_close(field_at(DualVec3([2, 0, 0], [3, 2, 0]), dec.axis.point), [3, 0, 0])

    def test_axis_is_the_decomposition_axis(self):
        # Bit for bit, or the same refusal, but for a magnitude beyond the floats,
        # which only axis_decompose builds.
        rng = np.random.default_rng(11)
        screws = [rand_proper_screw(rng) for _ in range(300)]
        screws += [DualVec3(size_re * rng.uniform(-1, 1, 3), size_du * rng.uniform(-1, 1, 3))
                   for size_re, size_du in ((1e-300, 1.0), (1e300, 1e-300), (1.0, 1e308))
                   for _ in range(30)]
        screws += [DualVec3([0, 0, 0], [1, 0, 0]), DualVec3([1, 1, 1], [1e308, 1e308, 0]),
                   DualVec3([1e-320, 0, 0], [1, 2, 3]), DualVec3([-0.0, 2.0, 0.0], [0.0, -0.0, 1.0])]
        overflows = DualVec3([1.7e308, 1.7e308, 0], [0, 0, 1e300])
        seen = set()
        for z in [*screws, overflows]:
            expected = _outcome(lambda: axis_decompose(z).axis)
            got = _outcome(lambda: geometry._axis(z))
            if z is overflows:
                assert expected == (NotFinite, "magnitude overflows")
                # Half the screw is brought into the same range, and its magnitude fits.
                assert isinstance(got, list) and got == _outcome(lambda: axis_decompose(0.5 * z).axis)
            else:
                assert got == expected, z
            seen.add(expected[0] if isinstance(expected[0], type) else "line")
        assert seen == {"line", NullVector, NotFinite}

    def test_line_decomposes_to_itself(self):
        rng = np.random.default_rng(6)
        l = rand_line(rng)
        dec = axis_decompose(l.screw)
        assert abs(dec.magnitude - 1.0) <= 1e-12
        assert abs(dec.pitch) <= 1e-12
        assert_dualvec_close(dec.axis.screw, l.screw, tol=1e-12, scale=10.0)

    def test_rejects_pure_dual(self):
        with pytest.raises(NullVector):
            axis_decompose(DualVec3([0, 0, 0], [1, 0, 0]))

    def test_field_on_axis_parallel_to_resultant_and_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            z = rand_proper_screw(rng)
            dec = axis_decompose(z)
            value = field_at(z, dec.axis.point)
            assert np.linalg.norm(np.cross(value, z.re)) <= 1e-9 * max(1.0, screw_size(z) ** 2)
            assert_dualvec_close(dec.reconstruct(), z, tol=1e-10, scale=screw_size(z))

    # AxisDecomposition keeps the contract of the frozen dataclass it was.

    def test_decomposition_value_reads_its_three_fields(self):
        dec = axis_decompose(DualVec3([2, 0, 0], [3, 2, 0]))
        assert [*inspect.signature(AxisDecomposition).parameters] == ["magnitude", "pitch", "axis"]
        same = AxisDecomposition(axis=dec.axis, pitch=1.5, magnitude=2.0)
        assert same == dec and hash(same) == hash(dec) == hash((2.0, 1.5, dec.axis))
        assert dec != AxisDecomposition(2.0, -1.5, dec.axis)
        assert dec != AxisDecomposition(2.0, 1.5, x_axis())  # a Line equals only itself
        assert dec != (2.0, 1.5, dec.axis)
        assert repr(dec) == f"AxisDecomposition(magnitude=2.0, pitch=1.5, axis={dec.axis!r})"
        assert copy.copy(dec) == dec

    def test_decomposition_is_immutable(self):
        dec = axis_decompose(DualVec3([2, 0, 0], [3, 0, 0]))
        for statement in ("dec.pitch = 0.0", "del dec.axis", "dec.other = 1"):
            with pytest.raises(AttributeError):
                exec(statement)
        assert dec.pitch == 1.5

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_decomposition_copies_are_equal(self, round_trip):
        # Equal in every float; a deep copy holds a new Line, which equals only itself.
        dec = axis_decompose(DualVec3([1.3, 0.2, -0.7], [0.5, 1.1, 2.0]))
        got = round_trip(dec)
        assert type(got) is AxisDecomposition and type(got.axis) is Line
        assert _decomposition_bits(got) == _decomposition_bits(dec)
        assert (got == dec) is (got.axis is dec.axis)


def _outcome(fn):
    """The bits of the line fn returns, or the class and message of its refusal."""
    try:
        return _screw_bits(fn())
    except ScrewAlgError as exc:
        return type(exc), str(exc)


def _decomposition_bits(dec) -> list:
    return [repr(c) for c in (dec.magnitude, dec.pitch, *dec.axis.screw._re, *dec.axis.screw._du)]


class TestDualAngle:
    def test_perpendicular_offset_lines(self):
        theta = dual_angle(x_axis().screw, y_axis_offset().screw)
        assert_dual_close(theta, Dual(math.pi / 2, 1))

    def test_self_angle_is_zero(self):
        l = x_axis()
        assert dual_angle(l.screw, l.screw) == Dual(0, 0)

    def test_parallel_lines_lose_distance(self):
        l1 = x_axis()
        l2 = line_from_point_direction([0, 1, 0], X)
        assert dual_angle(l1.screw, l2.screw) == Dual(0, 0)

    def test_matches_oracle_on_skew_lines(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            l1, l2 = rand_skew_lines(rng)
            theta = dual_angle(l1.screw, l2.screw)
            rel = line_distance_angle(l1.point, l1.direction, l2.point, l2.direction)
            assert abs(theta.re - rel.angle) <= 1e-9
            assert abs(abs(theta.du) - rel.distance) <= 1e-9 * max(1.0, rel.distance)
            # The sign of the dual part is the offset along e1 x e2.
            n = np.cross(l1.direction, l2.direction)
            n /= np.linalg.norm(n)
            a, b = rel.closest_points
            assert abs(theta.du - (b - a) @ n) <= 1e-9 * max(1.0, rel.distance)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "anti-parallel"])
    def test_pairs_near_parallel_are_answered(self, sign):
        # From 1e-12 to 1e-3 rad of parallel or anti-parallel the cosine alone
        # rounded to +-1 and refused about one pair in eight.
        rng = np.random.default_rng(13)
        for _ in range(300):
            u = rand_unit(rng)
            v = np.cross(u, rand_unit(rng))
            v /= np.linalg.norm(v)
            a = 10.0 ** rng.uniform(-12, -3)
            l1 = line_from_point_direction(rng.normal(size=3), u)
            e2 = sign * math.cos(a) * u + math.sin(a) * v
            l2 = line_from_point_direction(rng.normal(size=3), e2)
            theta = dual_angle(l1.screw, l2.screw)
            e1, e2 = l1.direction, l2.direction
            expected = math.atan2(np.linalg.norm(np.cross(e1, e2)), e1 @ e2)
            assert abs(theta.re - expected) <= 4 * np.finfo(float).eps * max(1.0, expected)

    def test_small_resultants_get_the_angle_of_unit_ones(self):
        # |x cross y|**2 = 1e-360 underflowed to 0 and refused the pair (NullVector).
        x = DualVec3([1e-90, 0.0, 0.0], [0.0, 1e-90, 0.0])
        y = DualVec3([0.0, 1e-90, 0.0], [0.0, 0.0, 1e-90])
        assert dual_angle(x, y) == Dual(math.pi / 2, -1.0)
        # A subnormal resultant: a float 2**1029 to rescale it overflowed.
        assert dual_angle(DualVec3([1e-310, 0.0, 0.0]), DualVec3(Y)) == Dual(math.pi / 2, 0.0)

    @pytest.mark.parametrize("s", [1e-160, 1e-170])
    def test_an_angle_whose_square_underflows_is_correctly_rounded(self, s):
        # |x cross y| = s: at 1e-160 its square was subnormal and the angle read
        # 1.0019e-160; at 1e-170 it underflowed to 0 and raised NullVector.
        x = DualVec3([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        y = DualVec3([1.0, s, 0.0], [0.0, 0.0, -1.0])
        assert dual_angle(x, y) == Dual(s, 0.0)

    @pytest.mark.parametrize("k", [-300, 300])
    def test_angle_is_the_same_bit_for_bit_at_scales_two_to_the_300(self, k):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x, y = rand_proper_screw(rng), rand_proper_screw(rng)
            factor = math.ldexp(1.0, k)
            assert dual_angle(factor * x, factor * y) == dual_angle(x, y)

    def test_cauchy_schwarz_for_unit_screws(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            l1, l2 = rand_line(rng), rand_line(rng)
            assert abs(dot(l1.screw, l2.screw).re) <= 1.0 + 1e-12


class TestCommonNormal:
    def test_skew_case(self):
        n = common_normal(x_axis().screw, y_axis_offset().screw)
        assert_vec_close(n.point, [0, 0, 0])
        assert_vec_close(n.direction, Z)

    def test_concurrent_case(self):
        lx = line_from_point_direction([0, 0, 0], X)
        ly = line_from_point_direction([0, 0, 0], Y)
        n = common_normal(lx.screw, ly.screw)
        assert_vec_close(n.point, [0, 0, 0])
        assert_vec_close(n.direction, Z)

    def test_parallel_rejected(self):
        l1 = x_axis()
        l2 = line_from_point_direction([0, 1, 0], X)
        with pytest.raises(ParallelResultants):
            common_normal(l1.screw, l2.screw)

    def test_incidence_on_random_screws(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            z1, z2 = rand_proper_screw(rng), rand_proper_screw(rng)
            if np.linalg.norm(np.cross(z1.re, z2.re)) < 0.1:
                continue
            n = common_normal(z1, z2)
            for z in (z1, z2):
                incidence = dot(n.screw, z)
                assert abs(incidence.re) <= 1e-9 * screw_size(z)
                assert abs(incidence.du) <= 1e-9 * max(1.0, screw_size(z) ** 2)


class TestLineFormulas:
    def test_products_against_oracle_angle(self):
        # For lines, dot is the cosine and cross is the sine times the common
        # normal, with the dual angle taken from classical closest-distance data.
        rng = np.random.default_rng(11)
        for _ in range(300):
            l1, l2 = rand_skew_lines(rng)
            rel = line_distance_angle(l1.point, l1.direction, l2.point, l2.direction)
            n = np.cross(l1.direction, l2.direction)
            n /= np.linalg.norm(n)
            a, b = rel.closest_points
            theta_oracle = Dual(rel.angle, (b - a) @ n)
            assert_dual_close(
                dot(l1.screw, l2.screw), cos(theta_oracle), tol=1e-9, scale=1 + rel.distance
            )
            normal_line = line_from_point_direction(a, n)
            expected = sin(theta_oracle) * normal_line.screw
            assert_dualvec_close(
                cross(l1.screw, l2.screw), expected, tol=1e-9, scale=1 + rel.distance**2
            )

    def test_cross_magnitude_for_general_screws(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            z1, z2 = rand_proper_screw(rng), rand_proper_screw(rng)
            if np.linalg.norm(np.cross(z1.re, z2.re)) < 0.1:
                continue
            theta = dual_angle(z1, z2)
            lhs = norm(cross(z1, z2))
            rhs = norm(z1) * norm(z2) * sin(theta)
            assert_dual_close(lhs, rhs, tol=1e-9, scale=screw_size(z1, z2))


class TestIntersection:
    def test_lines_through_origin_intersect(self):
        lx = line_from_point_direction([0, 0, 0], X)
        ly = line_from_point_direction([0, 0, 0], Y)
        assert axes_intersect(lx.screw, ly.screw)

    def test_offset_lines_do_not_intersect(self):
        assert not axes_intersect(x_axis().screw, y_axis_offset().screw)

    def test_concurrent_oblique_lines(self):
        e = (Y + Z) / np.linalg.norm(Y + Z)
        l = line_from_point_direction([0, 0, 0], e)
        assert axes_intersect(x_axis().screw, l.screw)

    def test_requires_unit_screws(self):
        with pytest.raises(NotUnit):
            axes_intersect(DualVec3(2 * X), DualVec3(Y))


class TestMotorReduction:
    def test_reduction_at_origin(self):
        rng = np.random.default_rng(13)
        z = rand_dualvec(rng)
        s, v = motor_reduce(z, [0, 0, 0])
        assert_vec_close(s, z.re)
        assert_vec_close(v, z.du)

    def test_reduction_example(self):
        s, v = motor_reduce(DualVec3([2, 0, 0], [3, 2, 0]), [0, 0, 1])
        assert_vec_close(s, [2, 0, 0])
        assert_vec_close(v, [3, 0, 0])

    @pytest.mark.parametrize("which", ["point", "resultant", "value"])
    def test_unreduce_rejects_a_part_that_is_not_a_3_vector(self, which):
        parts = {"point": [0, 0, 1], "resultant": [2, 0, 0], "value": [3, 0, 0], which: [1, 0]}
        with pytest.raises(ValueError, match="3-vector"):
            motor_unreduce(parts["point"], parts["resultant"], parts["value"])

    def test_unreduce_inverts_reduce(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            z = rand_dualvec(rng)
            p = rand_vec(rng)
            s, v = motor_reduce(z, p)
            assert_dualvec_close(motor_unreduce(p, s, v), z, tol=1e-12, scale=screw_size(z) * 4)


class TestPointsAndFrames:
    def test_identity_frame_is_origin(self):
        assert_vec_close(frame_translation(DualMat3.identity()), [0, 0, 0])

    def test_translation_frame_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = rand_vec(rng)
            assert_vec_close(frame_translation(frame_from_point(p)), p, tol=1e-12, scale=4.0)

    def test_rotation_only_frame_fixes_origin(self):
        rng = np.random.default_rng(16)
        from helpers import rand_rotation_frame

        assert_vec_close(frame_translation(rand_rotation_frame(rng)), [0, 0, 0], tol=1e-12)

    def test_affine_axioms_on_point_frames(self):
        from screwalg import displacement

        rng = np.random.default_rng(17)
        for _ in range(200):
            pa, pb, pc = (rand_vec(rng) for _ in range(3))
            fa, fb, fc = (frame_from_point(p) for p in (pa, pb, pc))
            ab = displacement(fa, fb)
            bc = displacement(fb, fc)
            ac = displacement(fa, fc)
            assert_vec_close(ab + bc, ac, tol=1e-12, scale=10.0)
            # Axiom (a): the frame built from A + x is the unique one at
            # displacement x from A.
            x = rand_vec(rng)
            built = frame_from_point(pa + x)
            assert_vec_close(displacement(fa, built), x, tol=1e-12, scale=10.0)


class TestConcurrentSlidingVectors:
    def test_sum_stays_sliding_through_common_point(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p = rand_vec(rng)
            vs = [rand_vec(rng) for _ in range(4)]
            total_dir = sum(vs[1:], vs[0])
            if np.linalg.norm(total_dir) < 0.2:
                continue
            screws = [DualVec3(v, np.cross(p, v)) for v in vs]
            total = screws[0]
            for s in screws[1:]:
                total = total + s
            # Zero pitch and vanishing field at the common point.
            assert abs(dot(total, total).du) <= 1e-12 * max(1.0, screw_size(total) ** 2)
            assert_vec_close(
                field_at(total, p), [0, 0, 0], tol=1e-12, scale=screw_size(total) * 4
            )
