"""Dependence classification, triangle laws, Petersen-Morley, Thales."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_dual_close,
    assert_dualvec_close,
    assert_orthonormal,
    assert_vec_close,
    rand_dual,
    rand_equilibrium_pair,
    rand_generic_triple,
    rand_proper_screw,
    rand_sphere_triple,
    rand_unit,
    rand_vec,
    screw_size,
)
from screwalg import (
    Dual,
    DualVec3,
    Line,
    TripleTag,
    are_proportional,
    axis_decompose,
    classify_triple,
    common_normal,
    cos,
    dot,
    dual_angle,
    equilibrium_laws,
    frame_from_point,
    geometry,
    independent_over_D,
    linalg,
    line_from_point_direction,
    motor_unreduce,
    petersen_morley,
    sin,
    thales_check,
    theorems,
)
from screwalg.dual import DEFAULT_TOL
from screwalg.errors import (
    DegenerateBasis,
    DegenerateTriangle,
    NonGeneric,
    NotAntipodal,
    NotClassifiable,
    NotFinite,
    NotOnSphere,
    NullVector,
    ParallelResultants,
    ScrewAlgError,
)
from screwalg.linalg import cross, mixed, norm, normalized
from screwalg.theorems import (
    _ROUNDINGS,
    PetersenMorleyReport,
    TripleClassification,
    _require_proper,
)

EPS = np.finfo(float).eps
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def x_axis():
    return line_from_point_direction([0, 0, 0], X).screw


def y_axis_offset():
    return line_from_point_direction([0, 0, 1], Y).screw


def z_axis_offset():
    return line_from_point_direction([1, 0, 0], Z).screw


class TestIndependence:
    def test_independent_pair(self):
        assert independent_over_D([DualVec3(X), DualVec3(Y, -X)])

    def test_parallel_offset_lines_are_dependent(self):
        l2 = line_from_point_direction([0, 1, 0], X).screw
        assert not independent_over_D([x_axis(), l2])

    def test_canonical_basis(self):
        assert independent_over_D([DualVec3(X), DualVec3(Y), DualVec3(Z)])

    def test_rejects_pure_dual(self):
        with pytest.raises(NullVector):
            independent_over_D([DualVec3([0, 0, 0], X)])

    def test_matches_resultant_rank_on_random_screws(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            zs = [rand_proper_screw(rng) for _ in range(3)]
            rank = np.linalg.matrix_rank(np.vstack([z.re for z in zs]), tol=1e-9)
            assert independent_over_D(zs) == (rank == 3)

    def test_counts(self):
        zs = [DualVec3(X), DualVec3(Y), DualVec3(Z), DualVec3(X + Y)]
        assert independent_over_D([])
        assert independent_over_D(zs[:1])
        assert not independent_over_D(zs)

    # Dependent means |r1 x r2| <= tol |r1| |r2| for two resultants and
    # |[r1 r2 r3]| <= tol |r1| |r2| |r3| for three, the bounds of common_normal
    # and classify_triple. The singular-value ratio used before called both
    # 1.5e-9 cases dependent.
    @pytest.mark.parametrize("offset, free", [(0.5e-9, False), (1.5e-9, True)])
    def test_pair_on_either_side_of_the_bound(self, offset, free):
        zs = [DualVec3([1, 0, 0]), DualVec3([1, offset, 0])]
        assert independent_over_D(zs) is free
        if free:
            common_normal(*zs)
        else:
            with pytest.raises(ParallelResultants):
                common_normal(*zs)

    @pytest.mark.parametrize("offset, free", [(1.3e-9, False), (1.5e-9, True)])
    def test_triple_on_either_side_of_the_bound(self, offset, free):
        # The bound is tol |(1, 1, offset)| = 1.414e-9.
        zs = [DualVec3([1, 0, 0]), DualVec3([0, 1, 0]), DualVec3([1, 1, offset])]
        assert independent_over_D(zs) is free
        assert (classify_triple(*zs).tag is TripleTag.INDEPENDENT_BASIS) is free

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_canonical_basis_at_extreme_scales(self, scale):
        # Squares of 1e-200 underflow and products of 1e200 overflow. The
        # resultants were judged parallel, so classification raised NullVector
        # or NotFinite; later the dual angle and common normal of x and y, the
        # pencil and the parallel triple did. Each now gives its scale-1 answer.
        zs = [DualVec3(scale * e) for e in (X, Y, Z)]
        assert independent_over_D(zs)
        assert independent_over_D(zs[:2])
        assert classify_triple(*zs).tag is TripleTag.INDEPENDENT_BASIS
        assert dual_angle(zs[0], zs[1]) == Dual(math.pi / 2, 0.0)
        assert common_normal(zs[0], zs[1]).screw._re == (0.0, 0.0, 1.0)
        assert common_normal(zs[0], zs[1]).screw._du == (0.0, 0.0, 0.0)
        pencil = [zs[0], zs[1], DualVec3(scale * math.sqrt(0.5) * (X + Y))]
        assert classify_triple(*pencil).tag is TripleTag.CONCURRENT_COPLANAR
        parallel = [DualVec3([scale, 0, 0], [0, 0, k * scale]) for k in (0, 1, 2)]
        assert classify_triple(*parallel).tag is TripleTag.PARALLEL_COPLANAR
        assert linalg.norm(zs[0]) == Dual(scale, 0.0)
        assert_dualvec_close(linalg.normalized(zs[0]), DualVec3(X))
        for got, want in zip(linalg.gram_schmidt(*zs), linalg.basis()):
            assert_dualvec_close(got, want)
        axis = axis_decompose(parallel[2])
        assert (axis.magnitude, axis.pitch) == (scale, 0.0)
        assert_vec_close(axis.axis.point, [0, -2, 0])
        assert are_proportional(zs[0], -3.0 * zs[0])
        assert not are_proportional(zs[0], zs[1])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_three_screws_are_free_exactly_when_they_are_a_basis(self, data):
        zs = data.draw(_near_dependent(3))
        try:
            basis = classify_triple(*zs).tag is TripleTag.INDEPENDENT_BASIS
        except ScrewAlgError:
            basis = False
        assert independent_over_D(zs) is basis

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_three_screws_are_free_exactly_when_gram_schmidt_makes_a_frame(self, data):
        zs = data.draw(_near_dependent(3))
        try:
            frame = linalg.gram_schmidt(*zs)
        except DegenerateBasis:
            frame = None
        assert independent_over_D(zs) is (frame is not None)
        if frame is not None:
            assert_orthonormal(frame)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_two_screws_are_free_exactly_when_they_have_a_common_normal(self, data):
        zs = data.draw(_near_dependent(2))
        try:
            common_normal(*zs)
            normal = True
        except ParallelResultants:
            normal = False
        assert independent_over_D(zs) is normal


BOX = st.floats(-1.0, 1.0)
BOX_VECTORS = st.tuples(BOX, BOX, BOX).map(np.array)


@st.composite
def _near_dependent(draw, count):
    """``count`` screws whose resultants leave a line (2) or a plane (3) by a
    relative 1e-11 to 1e-7 either way, so that tol = 1e-9 falls among them."""
    e0, q = draw(BOX_VECTORS), draw(BOX_VECTORS)
    n = np.cross(e0, q)
    size = np.linalg.norm
    assume(min(size(e0), size(q)) >= 0.1 and size(n) >= 0.2 * size(e0) * size(q))
    off = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, -7.0))
    if count == 2:
        base = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0])) * e0
        res = [e0]
    else:
        base = draw(st.floats(-2.0, 2.0)) * e0 + draw(st.floats(-2.0, 2.0)) * q
        assume(size(base) >= 0.1)
        res = [e0, q]
    res.append(base + off * size(base) / size(n) * n)
    return [DualVec3(r, draw(BOX_VECTORS)) for r in res]


class TestProportional:
    def test_dual_multiple(self):
        rng = np.random.default_rng(1)
        z = rand_proper_screw(rng)
        assert are_proportional(z, Dual(2, 3) * z)

    def test_parallel_offset_lines_not_proportional(self):
        l2 = line_from_point_direction([0, 1, 0], X).screw
        assert not are_proportional(x_axis(), l2)
        # Linearly dependent without being proportional: same direction,
        # distinct axes.
        assert not independent_over_D([x_axis(), l2])

    def test_independent_directions(self):
        assert not are_proportional(DualVec3(X), DualVec3(Y))

    def test_orthogonal_tiny_screws_are_not_proportional(self):
        # Their cross product and its bound both underflowed to 0.
        assert not are_proportional(DualVec3([1e-200, 0, 0]), DualVec3([0, 1e-200, 0]))
        assert are_proportional(DualVec3([1e-200, 0, 0]), DualVec3([-3e-200, 0, 0]))

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("angle, proportional", [(1e-6, False), (1e-10, True)])
    def test_lines_through_one_point_keep_their_verdict_anywhere(self, offset, angle, proportional):
        # By 6-component magnitudes, which grow with the moments, the 1e-6 pair was
        # proportional 1e3 and 1e6 from the origin; by |c.du| of c = cross(l1, l2),
        # which grows as offset * angle, the 1e-10 pair was not.
        p = [0.0, offset, 0.0]
        l1 = line_from_point_direction(p, X)
        l2 = line_from_point_direction(p, [math.cos(angle), math.sin(angle), 0.0])
        assert are_proportional(l1.screw, l2.screw, tol=1e-9) is proportional


def _r_linear_dependent(z1, z2, tol=1e-9):
    mat = np.array([np.concatenate([z.re, z.du]) for z in (z1, z2)])
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals[-1] <= tol * svals[0]


class TestRealLinearDependence:
    def test_equivalence_with_same_axis_and_pitch(self):
        from screwalg import axis_decompose

        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rand_proper_screw(rng)
            cases = [
                (-2.5 * z, True),  # real multiple: same axis, same pitch
                (Dual(1, 0.4) * z, False),  # same axis, shifted pitch
                (motor_unreduce(rand_vec(rng) + [0, 0, 1], z.re, z.du), False),
            ]
            for other, expect in cases:
                assert _r_linear_dependent(z, other) == expect
                d1, d2 = axis_decompose(z), axis_decompose(other)
                same_geometry = (
                    np.linalg.norm(np.cross(d1.axis.direction, d2.axis.direction)) <= 1e-9
                    and np.linalg.norm(d1.axis.point - d2.axis.point) <= 1e-9
                    and abs(d1.pitch - d2.pitch) <= 1e-9
                )
                assert same_geometry == expect


class TestClassifyTriple:
    def test_canonical_basis(self):
        out = classify_triple(DualVec3(X), DualVec3(Y), DualVec3(Z))
        assert out.tag is TripleTag.INDEPENDENT_BASIS
        assert out.witness is None

    def test_module_combination_has_common_orthogonal_line(self):
        z1 = x_axis()
        z2 = y_axis_offset()
        z3 = Dual(1, 2) * z1 + Dual(2, -1) * z2
        out = classify_triple(z1, z2, z3)
        assert out.tag is TripleTag.COMMON_ORTHOGONAL_LINE
        assert_vec_close(out.witness.point, [0, 0, 0])
        assert_vec_close(out.witness.direction, Z)

    def test_parallel_coplanar_lines(self):
        zs = [line_from_point_direction([0, k, 0], X).screw for k in (0.0, 1.0, 2.0)]
        assert classify_triple(*zs).tag is TripleTag.PARALLEL_COPLANAR

    def test_parallel_non_coplanar_lines(self):
        zs = [
            line_from_point_direction(p, X).screw
            for p in ([0, 0, 0], [0, 1, 0], [0, 0, 1])
        ]
        assert classify_triple(*zs).tag is TripleTag.PARALLEL_NON_COPLANAR

    def test_concurrent_coplanar_sliding_vectors(self):
        p = np.array([1.0, 1.0, 0.0])
        dirs = [X, Y, (X + Y) / math.sqrt(2)]
        zs = [line_from_point_direction(p, e).screw for e in dirs]
        assert classify_triple(*zs).tag is TripleTag.CONCURRENT_COPLANAR

    def test_pencil_with_a_tiny_normal_stays_concurrent_at_tol_zero(self):
        # The first two unit lines make an angle of 1e-170: the square of
        # their cross product underflows, so Cramer's rule divides by it only
        # once it is brought to unit scale.
        zs = [DualVec3([1e100, 0, 0]), DualVec3([1e100, 1e-70, 0]), DualVec3([0, 1, 0])]
        assert classify_triple(*zs, tol=0.0).tag is TripleTag.CONCURRENT_COPLANAR

    def test_a_tiny_normal_bounds_the_witness_at_tol_zero(self):
        # The first two resultants make an angle of 2**-600, whose square underflows:
        # the witness's rounding divided by it and raised ZeroDivisionError.
        z1 = DualVec3([1, 0, 0], [1, 0, 0])
        z2 = DualVec3([1, 2.0**-600, 0], [1, 2.0**-600, 0])
        out = classify_triple(z1, z2, z1 + z2, tol=0.0)
        assert out.tag is TripleTag.COMMON_ORTHOGONAL_LINE

    @staticmethod
    def _pencil(centre, moved=None, offset=(0.0, 0.0, 0.0)):
        """Lines at 0, 60 and 120 degrees in a plane through ``centre``;
        the line numbered ``moved`` is shifted by ``offset``."""
        zs = []
        for i, a in enumerate((0.0, math.pi / 3, 2 * math.pi / 3)):
            p = np.asarray(centre, dtype=float) + (np.asarray(offset) if i == moved else 0.0)
            zs.append(line_from_point_direction(p, [math.cos(a), math.sin(a), 0.0]).screw)
        return zs

    FAR_CENTRE = 1e3 * np.array([0.48, -0.6, 0.64])

    def test_concurrent_triple_far_from_origin(self):
        zs = self._pencil(self.FAR_CENTRE)
        assert classify_triple(*zs).tag is TripleTag.CONCURRENT_COPLANAR

    @pytest.mark.parametrize("centre", [np.zeros(3), FAR_CENTRE], ids=["origin", "far"])
    @pytest.mark.parametrize(
        "moved, offset",
        [
            # In the plane, normal to the third line: it misses the meeting point.
            (2, 1e-8 * np.array([-math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3), 0.0])),
            # Out of the plane: the first two lines are skew.
            (1, 1e-8 * Z),
        ],
        ids=["third-axis-off-meeting-point", "first-two-skew"],
    )
    def test_near_miss_by_ten_tol_is_not_concurrent(self, centre, moved, offset):
        zs = self._pencil(centre, moved, offset)
        try:
            tag = classify_triple(*zs, tol=1e-9).tag
        except NotClassifiable:
            return
        assert tag is not TripleTag.CONCURRENT_COPLANAR

    @pytest.mark.parametrize("distance", [1e6, 1e7, 1e8])
    def test_concurrent_triple_keeps_its_verdict_far_away(self, distance):
        # The moments' rounding, about eps * distance, passes tol past ~1e6.
        zs = self._pencil(distance * np.array([0.48, -0.6, 0.64]))
        assert classify_triple(*zs, tol=1e-9).tag is TripleTag.CONCURRENT_COPLANAR

    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    def test_concurrent_triple_keeps_its_verdict_when_scaled(self, factor):
        zs = self._pencil(factor * np.array([0.3, -1.2, 0.7]))
        assert classify_triple(*zs, tol=1e-9).tag is TripleTag.CONCURRENT_COPLANAR

    def test_scaled_up_near_miss_is_still_not_concurrent(self):
        # The third line misses the meeting point by 1e-2 at 1e6 from the origin.
        offset = 1e-2 * np.array([-math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3), 0.0])
        zs = self._pencil(1e6 * np.array([0.3, -1.2, 0.7]), 2, offset)
        assert self._verdict(zs) is not TripleTag.CONCURRENT_COPLANAR

    @staticmethod
    def _verdict(zs):
        try:
            return classify_triple(*zs, tol=1e-9).tag
        except NotClassifiable:
            return NotClassifiable

    @pytest.mark.parametrize(
        "centre",
        [[1e3, -2e3, 5e2], [1e3, 0.0, 0.0], [0.0, 0.0, 1e3]],
        ids=["oblique", "x", "z"],
    )
    def test_verdict_does_not_depend_on_where_the_triple_sits(self, centre):
        # The third line misses the meeting point by 1e-8 within the plane.
        offset = 1e-8 * np.array([-math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3), 0.0])
        at_origin = self._verdict(self._pencil(np.zeros(3), 2, offset))
        assert self._verdict(self._pencil(centre, 2, offset)) is at_origin

    def test_random_module_combinations(self):
        rng = np.random.default_rng(3)
        produced = 0
        while produced < 200:
            z1, z2 = rand_proper_screw(rng), rand_proper_screw(rng)
            if np.linalg.norm(np.cross(z1.re, z2.re)) < 0.2:
                continue
            a = Dual(rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
            b = Dual(rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
            z3 = a * z1 + b * z2
            if np.linalg.norm(z3.re) < 0.2:
                continue
            if any(
                np.linalg.norm(np.cross(u.re, v.re))
                < 0.05 * np.linalg.norm(u.re) * np.linalg.norm(v.re)
                for u, v in ((z1, z3), (z2, z3))
            ):
                continue
            produced += 1
            out = classify_triple(z1, z2, z3)
            assert out.tag is TripleTag.COMMON_ORTHOGONAL_LINE
            from screwalg import normalized

            for z in (z1, z2, z3):
                incidence = dot(out.witness.screw, normalized(z))
                assert max(abs(incidence.re), abs(incidence.du)) <= 1e-7


class TestEquilibriumLaws:
    def test_planar_right_triangle(self):
        x = line_from_point_direction([0, 0, 0], X).screw
        y = line_from_point_direction([0, 0, 0], Y).screw
        report = equilibrium_laws(x, y)
        assert_dual_close(report.alpha_xy, Dual(math.pi / 2), tol=1e-12)
        assert_dual_close(report.alpha_yz, Dual(math.pi / 4), tol=1e-12)
        assert_dual_close(report.alpha_zx, Dual(math.pi / 4), tol=1e-12)
        assert report.ok(1e-12)
        assert_dual_close(report.two_r, Dual(1 / math.sqrt(2)), tol=1e-12)

    def test_skew_right_triangle(self):
        report = equilibrium_laws(x_axis(), y_axis_offset())
        assert report.max_scaled_residual() <= 1e-12
        assert_dual_close(report.angle_sum_residual, Dual(0, 0), tol=1e-12)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateTriangle):
            equilibrium_laws(DualVec3(X), DualVec3(2 * X, Y))

    def test_antipodal_pair_leaves_module(self):
        with pytest.raises(NullVector):
            equilibrium_laws(DualVec3(X, Y), DualVec3(-X, Z))

    def test_random_triples_satisfy_all_laws(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            x, y = rand_equilibrium_pair(rng)
            report = equilibrium_laws(x, y)
            assert report.max_scaled_residual() <= 1e-9
            assert abs(report.angle_sum_residual.re) <= 1e-9
            assert abs(report.angle_sum_residual.du) <= 1e-9

    @pytest.mark.parametrize("size", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("angle", [1e-8, 1e-6, 1e-4])
    def test_nearly_flat_triangles_satisfy_all_laws(self, angle, size):
        # The sine ratios are judged over 1/m: as the triangle flattens their real
        # parts shrink with the angle, their dual parts do not.
        rng = np.random.default_rng(7)
        for _ in range(200):
            e, p, q = rand_unit(rng), rand_vec(rng), rand_vec(rng)
            u = np.cross(e, rand_unit(rng))
            turned = e + angle * u / np.linalg.norm(u)
            x = line_from_point_direction(p, e).screw
            y = line_from_point_direction(q, turned / np.linalg.norm(turned)).screw
            weights = (Dual(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in range(2))
            assert equilibrium_laws(*(size * w * z for w, z in zip(weights, (x, y)))).ok()

    def test_triple_angle_sine_identity_over_duals(self):
        # The sine addition law transfers to dual angles coefficientwise.
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b, c = (rand_dual(rng, -3, 3) for _ in range(3))
            lhs = sin(a + b + c)
            rhs = (
                -1 * (sin(a) * sin(b) * sin(c))
                + cos(a) * cos(b) * sin(c)
                + cos(b) * cos(c) * sin(a)
                + cos(c) * cos(a) * sin(b)
            )
            assert_dual_close(lhs, rhs, tol=1e-12, scale=30.0)


class TestPetersenMorley:
    def test_worked_degenerate_triple(self):
        # The symmetric textbook triple: every derived screw loses its
        # resultant, yet the direction certificate still closes.
        report = petersen_morley(x_axis(), y_axis_offset(), z_axis_offset())
        assert report.parallel_degenerate
        assert report.jacobi_residual == 0.0
        assert_dualvec_close(report.a, DualVec3([0, 0, 0], Z))
        assert_dualvec_close(report.b, DualVec3([0, 0, 0], -X))
        assert_dualvec_close(report.c, DualVec3([0, 0, 0], X - Z))
        assert report.max_residual() <= 1e-12
        assert report.ok(1e-9)

    def test_parallel_inputs_rejected(self):
        y2 = line_from_point_direction([0, 1, 0], Y).screw
        with pytest.raises(NonGeneric):
            petersen_morley(x_axis(), DualVec3(Y), y2)

    def test_concurrent_orthogonal_triple_rejected(self):
        with pytest.raises(NonGeneric):
            petersen_morley(DualVec3(X), DualVec3(Y), DualVec3(Z))

    WORKED = (
        DualVec3([1.3, 0.2, -0.7], [0.5, 1.1, 2.0]),
        DualVec3([0.1, 1.7, 0.4], [-1.0, 0.3, 0.2]),
        DualVec3([-0.6, 0.3, 1.9], [0.8, -0.4, 1.5]),
    )

    @pytest.mark.parametrize("distance", [0.0, 1e4, 1e5, 1e6])
    def test_worked_triple_keeps_a_proper_report_far_away(self, distance):
        # Compared by 6-component magnitudes, derived screw a "vanished" from 1e5 on.
        frame = frame_from_point(distance * np.array([1.0, 0.3, -0.7]))
        report = petersen_morley(*(w @ frame for w in self.WORKED), tol=1e-9)
        assert not report.parallel_degenerate
        assert report.max_residual() <= 1e-15 * max(1.0, distance)

    def test_random_generic_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x, y, z = rand_generic_triple(rng)
            report = petersen_morley(x, y, z)
            assert not report.parallel_degenerate
            jacobi = screw_size(report.a + report.b + report.c)
            assert jacobi <= 1e-12 * max(1.0, screw_size(x, y, z))
            assert report.max_residual() <= 1e-9

    def test_resultant_whose_square_underflows_keeps_the_figures(self):
        # x times 2**-565 (about 1.5e-170): the squares of its resultant underflow to 0, so
        # a length summed from them would leave the relative Jacobi figure no divisor.
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y, z = rand_generic_triple(rng)
            report = petersen_morley(x, y, z)
            moved = petersen_morley(x * 2.0**-565, y * 2.0**332, z * 2.0**332)
            assert moved.jacobi_residual == report.jacobi_residual
            assert moved.max_residual() == report.max_residual()
            assert moved.ok()


class TestThales:
    def test_planar_case(self):
        x = line_from_point_direction([0, 0, 0], X).screw
        z = line_from_point_direction([0, 0, 0], Y).screw
        residual = thales_check(x, -1 * x, z, 1.0)
        assert residual == Dual(0, 0)

    def test_skew_case(self):
        x = x_axis()
        residual = thales_check(x, -1 * x, y_axis_offset(), Dual(1))
        assert_dual_close(residual, Dual(0, 0), tol=1e-15)

    def test_pitched_screw_leaves_sphere(self):
        x = x_axis()
        z = DualVec3(Y, 0.5 * Y)  # modulus 1 + 0.5 eps
        with pytest.raises(NotOnSphere):
            thales_check(x, -1 * x, z, 1.0)

    def test_non_antipodal_pair_rejected(self):
        with pytest.raises(NotAntipodal):
            thales_check(x_axis(), DualVec3(Y), y_axis_offset(), 1.0)

    @pytest.mark.parametrize("distance", [0.0, 1e6])
    def test_antipodal_test_does_not_grow_with_the_moments(self, distance):
        # y misses -x by 1e-6 in its moment: refused wherever the pair sits.
        frame = frame_from_point(distance * np.array([0.48, -0.6, 0.64]))
        x = x_axis() @ frame
        y = DualVec3(-x.re, -x.du + [0.0, 1e-6, 0.0])
        with pytest.raises(NotAntipodal):
            thales_check(x, y, y_axis_offset() @ frame, Dual(1.0), tol=1e-9)

    def test_random_sphere_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
            x, y, z = rand_sphere_triple(rng, radius)
            residual = thales_check(x, y, z, radius, tol=1e-9)
            bound = 1e-12 * max(1.0, radius.re * radius.re, abs(radius.du) ** 2)
            assert max(abs(residual.re), abs(residual.du)) <= bound


# -- the theorems against references as first written ---------------------------
#
# The theorem layer as it was before each product, modulus and length was
# shared, kept apart from docstrings as first written, with its real 3-vector
# helpers (lengths, cross products, the parallel test) spelled in numpy: an
# independent reference for them. The library must refuse with the same
# error class, or return the same outcome (tag, proper or degenerate). Its
# report fields must have the same bytes where the reference computes them
# with the library's dual products. The one place the numpy helpers feed a
# report field is the direction certificate of a degenerate Petersen-Morley
# report: there only the summation order moves the floats (BLAS fuses
# multiply and add), and each must lie within gamma_32 / s of the
# reference's, s being the length of the cross product of unit moments that
# the certificate normalizes (see _CERTIFICATE_ROUNDING).
# The references of dual_angle and equilibrium_laws are retired: they took
# the angle from its cosine through acos_principal, which is gone, and the
# atan2 form moves the last bits of every angle. Those two are pinned to
# 50-digit values in test_angles_mpmath.py instead. The genericity thresholds
# of the Petersen-Morley reference compare resultant lengths and moments
# against tol times the product of the input resultant lengths, as the
# library does, in place of the 6-component magnitudes that moved with the
# origin.

def _length(v) -> float:
    return float(np.linalg.norm(v))


def _parallel(u, v, tol: float) -> bool:
    return _length(np.cross(u, v)) <= tol * _length(u) * _length(v)


def _reference_classify_triple(
    z1: DualVec3, z2: DualVec3, z3: DualVec3, tol: float = DEFAULT_TOL
) -> TripleClassification:
    zs = (z1, z2, z3)
    _require_proper(zs)
    res = [z.re for z in zs]
    rnorm = [_length(r) for r in res]
    pair_parallel = [_parallel(res[i], res[j], tol) for i, j in ((0, 1), (1, 2), (2, 0))]

    if all(pair_parallel):
        decs = [axis_decompose(z) for z in zs]
        e = res[0] / rnorm[0]
        off1 = decs[1].axis.point - decs[0].axis.point
        off2 = decs[2].axis.point - decs[0].axis.point
        vol = abs(float(np.cross(off1, off2) @ e))
        scale = max(1.0, _length(off1) * _length(off2))
        if vol <= tol * scale:
            return TripleClassification(TripleTag.PARALLEL_COPLANAR)
        return TripleClassification(TripleTag.PARALLEL_NON_COPLANAR)

    # A rigid motion changes neither part of the mixed product, so both parts
    # are bounded by the resultant lengths alone.
    m = mixed(z1, z2, z3)
    bound = tol * rnorm[0] * rnorm[1] * rnorm[2]
    if abs(m.re) > bound:
        return TripleClassification(TripleTag.INDEPENDENT_BASIS)

    none_parallel = not any(pair_parallel)

    if none_parallel and _reference_concurrent_sliding(zs, tol):
        return TripleClassification(TripleTag.CONCURRENT_COPLANAR)

    if none_parallel and abs(m.du) <= bound:
        witness = common_normal(z1, z2, tol=tol)
        check_tol = max(tol, 1e-7)
        for z in zs:
            incidence = dot(witness.screw, normalized(z))
            if abs(incidence.re) > check_tol or abs(incidence.du) > check_tol:
                raise NotClassifiable(
                    "mixed product vanishes but the candidate line misses an axis"
                )
        return TripleClassification(TripleTag.COMMON_ORTHOGONAL_LINE, witness)

    raise NotClassifiable("resultants are dependent but the triple fits no class")


def _reference_concurrent_sliding(zs, tol: float) -> bool:
    rounding = _ROUNDINGS * sys.float_info.epsilon
    lines = []
    for z in zs:
        n = norm(z)
        if abs(n.du / n.re) > max(tol, rounding * _length(z.du) / n.re):
            return False
        lines.append(z * n.inv())
    l0, l1, l2 = lines
    (a, b), *_ = np.linalg.lstsq(np.column_stack([l0.re, l1.re]), l2.re, rcond=None)
    terms = _length(l2.du) + abs(a) * _length(l0.du) + abs(b) * _length(l1.du)
    return _length(l2.du - a * l0.du - b * l1.du) <= max(tol, rounding * float(terms))


def _reference_petersen_morley(
    x: DualVec3, y: DualVec3, z: DualVec3, tol: float = DEFAULT_TOL
) -> PetersenMorleyReport:
    triple = (x, y, z)
    _require_proper(triple)
    # Resultant lengths as the library takes them, with math.hypot, which squares no tiny value.
    mags = [math.hypot(*w.re) for w in triple]
    for (u, v), key in (((x, y), "x,y"), ((y, z), "y,z"), ((z, x), "z,x")):
        if _parallel(u.re, v.re, tol):
            raise NonGeneric(f"resultants of {key} are parallel")

    a = cross(x, cross(y, z))
    b = cross(z, cross(x, y))
    c = cross(y, cross(z, x))
    scale = mags[0] * mags[1] * mags[2]
    for name, w, owner in (("a", a, x), ("b", b, z), ("c", c, y)):
        if math.hypot(*w.re) <= tol * scale and _reference_moment_near(w, owner) <= tol * scale:
            raise NonGeneric(f"derived screw {name} vanishes")

    j = a + b + c
    jacobi_residual = max(math.hypot(*j.re), math.hypot(*j.du)) / mags[0] / mags[1] / mags[2]

    proper = [math.hypot(*w.re) > tol * scale for w in (a, b, c)]
    if all(proper):
        for u, v in ((a, b), (b, c), (c, a)):
            if _parallel(u.re, v.re, tol):
                raise NonGeneric("derived screws have pairwise parallel resultants")
        normal = common_normal(a, b, tol=tol)
        residuals = tuple(dot(normal.screw, normalized(w)) for w in (a, b, c))
        degenerate = False
    elif not any(proper):
        normal = _reference_direction_certificate((a, b, c))
        residuals = tuple(
            dot(normal.screw, DualVec3(np.zeros(3), w.du / _length(w.du)))
            for w in (a, b, c)
        )
        degenerate = True
    else:
        raise NonGeneric("some derived screws lost their resultants; no common axis")

    return PetersenMorleyReport(
        a=a,
        b=b,
        c=c,
        jacobi_residual=jacobi_residual,
        normal=normal,
        incidence_residuals=residuals,
        parallel_degenerate=degenerate,
    )


def _reference_moment_near(w: DualVec3, owner: DualVec3) -> float:
    """min over points q of the owner's axis of |w.du - q x w.re|."""
    e = owner.re / np.linalg.norm(owner.re)
    v = w.du - np.cross(np.cross(e, owner.du) / np.linalg.norm(owner.re), w.re)
    slide = np.cross(e, w.re)
    if np.any(slide):
        v = v - (v @ slide) / (slide @ slide) * slide
    return float(np.linalg.norm(v))


def _reference_direction_certificate(ws) -> Line:
    moments = [w.du / _length(w.du) for w in ws]
    best = None
    best_len = -1.0
    for i in range(len(moments)):
        for j in range(i + 1, len(moments)):
            n = np.cross(moments[i], moments[j])
            if _length(n) > best_len:
                best_len = _length(n)
                best = n
    if best is None or best_len < 1e-12:
        # All moments share one direction; any perpendicular will do.
        seed = np.eye(3)[int(np.argmin(np.abs(moments[0])))]
        best = np.cross(moments[0], seed)
    direction = best / _length(best)
    return line_from_point_direction(np.zeros(3), direction)


def _floats(value) -> list:
    """Every float in a result, in field order; tags and flags are in its label."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, Dual):
        return [value.re, value.du]
    if isinstance(value, DualVec3):
        return value.re.tolist() + value.du.tolist()
    if isinstance(value, Line):
        return _floats(value.screw)
    if isinstance(value, tuple):
        return [x for v in value for x in _floats(v)]
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _floats(getattr(value, f.name))]
    return []


def _outcome(fn, args, tol):
    """(result, label) of a call, or (error class, error class) of a refusal.

    Overflow is ignored as the CLI ignores it, so that it surfaces as NotFinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = fn(*args, tol=tol)
        except ScrewAlgError as exc:
            return type(exc), type(exc)
    if isinstance(result, TripleClassification):
        label = result.tag
    elif isinstance(result, PetersenMorleyReport):
        label = "degenerate" if result.parallel_degenerate else "proper"
    else:
        label = type(result).__name__
    return result, label


# Each unit moment w.du / |w.du| is within 4 u of the exact one per component
# (u = eps / 2): gamma_3 in the squared length, halved by the root, plus the
# root and the quotient. A cross product of two is then within 8 u + gamma_2,
# and normalizing it by its length s scales that by 1 / s, as does every
# residual taken against the certificate. Both sides are that close to the
# exact certificate, so within gamma_32 / s of each other; 46 cases measured
# at most 0.75 eps / s.
_CERTIFICATE_ROUNDING = 32 * EPS / 2


def _moment_sine(report: PetersenMorleyReport) -> float:
    """s: the largest cross product of two unit moments of a degenerate report."""
    units = [w.du / np.linalg.norm(w.du) for w in (report.a, report.b, report.c)]
    return max(_length(np.cross(units[i], units[j])) for i, j in ((0, 1), (1, 2), (0, 2)))


def _same_outcome(fn, reference, args, tol, where):
    expected, label = _outcome(reference, args, tol)
    got, got_label = _outcome(fn, args, tol)
    assert got_label == label, (where, fn.__name__)
    if label == "degenerate":
        bound = _CERTIFICATE_ROUNDING / _moment_sine(expected)
        pairs = zip(_floats(got), _floats(expected), strict=True)
        assert all(abs(a - b) <= bound for a, b in pairs), (where, fn.__name__)
    elif not isinstance(label, type):
        got_bits, expected_bits = (list(map(float.hex, _floats(r))) for r in (got, expected))
        assert got_bits == expected_bits, (where, fn.__name__)
    return label


def _motor(e, p, pitch, weight):
    """weight * (e + eps (pitch e + p x e)): the screw along unit e through p."""
    e, p = np.asarray(e, dtype=float), np.asarray(p, dtype=float)
    return DualVec3(weight * e, weight * (pitch * e + np.cross(p, e)))


def _plane(rng):
    """A unit normal n and an orthonormal pair u, v spanning the plane normal to it."""
    n = rand_unit(rng)
    u = np.cross(n, rand_unit(rng))
    u /= np.linalg.norm(u)
    return n, u, np.cross(n, u)


def _pencil_directions(rng, u, v):
    base = rng.uniform(0.0, math.pi)
    return [math.cos(a) * u + math.sin(a) * v
            for a in base + np.array([0.0, 1.0, 2.0]) * math.pi / 3 + rng.uniform(-0.2, 0.2, 3)]


THEOREM_KINDS = (
    "equilibrium", "equilibrium:near-parallel", "equilibrium:antipodal", "equilibrium:extreme",
    "petersen", "petersen:near-parallel", "petersen:orthogonal", "petersen:concurrent",
    "classify:IndependentBasis", "classify:CommonOrthogonalLine", "classify:ParallelCoplanar",
    "classify:ParallelNonCoplanar", "classify:ConcurrentCoplanar", "classify:NotClassifiable",
)


def _theorem_case(rng, kind, wide):
    """Screws for one theorem, drawn to reach the outcome ``kind`` names.

    ``wide`` draws the length scale and resultant weight from 1e-6 to 1e6 and
    moves the configuration up to 1e6 away from the origin.
    """
    size, shift, weight = 1.0, np.zeros(3), 1.0
    if wide:
        size, weight = 10.0 ** rng.uniform(-6, 6, size=2)
        shift = rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6)

    def screw(e, local_point=None, pitch=None):
        local_point = rng.normal(size=3) if local_point is None else local_point
        pitch = size * rng.uniform(-1.0, 1.0) if pitch is None else pitch
        return _motor(e, shift + size * np.asarray(local_point), pitch,
                      weight * rng.uniform(0.5, 2.0))

    family, _, variant = kind.partition(":")
    if kind == "equilibrium:extreme":
        # Sparse components from 1e-180 to 1e308, so that squares underflow to
        # 0 and products overflow; with tol 0 only exactly parallel pairs are
        # refused, and a tiny x is not lost in x + y along another axis.
        exponents = rng.uniform(-180.0, [160.0, 308.0, 160.0, 308.0])
        masks = rng.integers(0, 2, size=(4, 3))
        masks[0, 0] = masks[2, 1] = 1
        parts = [rng.normal(size=3) * 10.0 ** k * m for k, m in zip(exponents, masks)]
        tol = float(rng.choice([0.0, 1e-9]))
        return (DualVec3(parts[0], parts[1]), DualVec3(parts[2], parts[3])), tol
    if family == "equilibrium":
        e = rand_unit(rng)
        x = screw(e)
        if variant == "near-parallel":
            drift = np.cross(e, rand_unit(rng)) * 10.0 ** rng.uniform(-13, -5)
            y = screw(rng.choice([-1.0, 1.0]) * e + drift)
        elif variant == "antipodal":
            y = -x + DualVec3(np.zeros(3), rng.normal(size=3) * size * weight)
        else:
            y = screw(rand_unit(rng))
        return (x, y), 1e-9
    if family == "petersen":
        if variant in ("orthogonal", "concurrent"):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            centre = rng.normal(size=3)
            points = [centre] * 3 if variant == "concurrent" else [None] * 3
            pitch = 0.0 if variant == "concurrent" else None
            return tuple(screw(q[:, i], points[i], pitch) for i in range(3)), 1e-9
        es = [rand_unit(rng) for _ in range(3)]
        if variant == "near-parallel":
            es[2] = es[1] + np.cross(es[1], rand_unit(rng)) * 10.0 ** rng.uniform(-14, -10)
        return tuple(screw(e) for e in es), 1e-9
    n, u, v = _plane(rng)
    if variant == "IndependentBasis":
        zs = tuple(screw(rand_unit(rng)) for _ in range(3))
    elif variant == "CommonOrthogonalLine":
        z1, z2 = screw(rand_unit(rng)), screw(rand_unit(rng))
        a, b = (Dual(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), size * rng.uniform(-2, 2))
                for _ in range(2))
        zs = (z1, z2, a * z1 + b * z2)
    elif variant.startswith("Parallel"):
        depth = 0.0 if variant == "ParallelCoplanar" else 1.0
        zs = tuple(
            screw(rng.choice([-1.0, 1.0]) * n,
                  rng.uniform(-1, 1) * u + depth * rng.uniform(-1, 1) * v + rng.uniform(-1, 1) * n)
            for _ in range(3)
        )
    elif variant == "ConcurrentCoplanar":
        centre = rng.normal(size=3)
        zs = tuple(screw(e, centre, 0.0) for e in _pencil_directions(rng, u, v))
    else:  # NotClassifiable: coplanar resultants on axes that do not meet
        zs = tuple(screw(e) for e in _pencil_directions(rng, u, v))
    return zs, 1e-9


def _interior_angles_outcome(x, y, tol, where):
    """Label of equilibrium_laws on (x, y), with its interior angles checked.

    alpha_xy = atan2(|x cross y|, -(x o y)) shares its modulus and product
    with dual_angle(x, y), so its dual part is exactly the negated one; the
    pairs y, z and z, x reuse |x cross y|, exact for the triple (x, y, -(x + y)).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            report = equilibrium_laws(x, y, tol=tol)
        except ScrewAlgError as exc:
            return type(exc)
        theta = dual_angle(x, y)
    assert report.alpha_xy.du == -theta.du, where
    assert abs(report.alpha_xy.re + theta.re - math.pi) <= 4 * EPS, where
    if where[1] == "equilibrium":
        z = -1.0 * (x + y)
        # Dual parts are rounded against the moments, which moving away from
        # the origin makes large against the resultants.
        reach = max(1.0, *(_length(w.du) / _length(w.re) for w in (x, y)))
        for alpha, (u, v) in ((report.alpha_yz, (y, z)), (report.alpha_zx, (z, x))):
            other = dual_angle(u, v)
            assert abs(alpha.re + other.re - math.pi) <= 1e-12, where
            assert abs(alpha.du + other.du) <= 1e-12 * reach, where
    return "EquilibriumReport"


def test_theorems_agree_with_the_reference_theorems():
    rng = np.random.default_rng(91)
    seen = {kind: set() for kind in THEOREM_KINDS}
    for i in range(2100):
        kind = THEOREM_KINDS[i % len(THEOREM_KINDS)]
        args, tol = _theorem_case(rng, kind, wide=(i // len(THEOREM_KINDS)) % 2 == 1)
        where = (i, kind)
        if kind.startswith("equilibrium"):
            # Its reference is retired (see above); the angles are checked instead.
            label = _interior_angles_outcome(*args, tol, where)
        elif kind.startswith("petersen"):
            label = _same_outcome(petersen_morley, _reference_petersen_morley, args, tol, where)
        else:
            label = _same_outcome(classify_triple, _reference_classify_triple, args, tol, where)
        seen[kind].add(label)
    # Every kind reaches the outcome it was drawn for, so each path is compared.
    assert "EquilibriumReport" in seen["equilibrium"]
    assert seen["equilibrium:near-parallel"] >= {"EquilibriumReport", DegenerateTriangle}
    assert seen["equilibrium:antipodal"] == {NullVector}
    assert seen["equilibrium:extreme"] >= {"EquilibriumReport", NotFinite, NullVector}
    assert "proper" in seen["petersen"]
    assert seen["petersen:near-parallel"] == {NonGeneric}
    assert "degenerate" in seen["petersen:orthogonal"]
    assert seen["petersen:concurrent"] == {NonGeneric}
    for tag in TripleTag:
        assert tag in seen[f"classify:{tag.value}"], tag
    assert NotClassifiable in seen["classify:NotClassifiable"]


def test_equilibrium_refusal_keeps_the_order_of_its_checks():
    # |x|^2 underflows to 0 (NullVector) and y o y overflows (NotFinite); the
    # modulus of x is checked before y o y is taken, as norm(x) was.
    x = DualVec3([1e-170, 0.0, 0.0])
    y = DualVec3([0.0, 1e10, 0.0], [0.0, 1e300, 0.0])
    with np.errstate(over="ignore"), pytest.raises(NullVector):
        equilibrium_laws(x, y, tol=0.0)


def test_equilibrium_laws_builds_only_the_duals_it_hands_out(monkeypatch):
    # One pass over float pairs: no vector, no checked Dual, no product through
    # dot, cross or norm; the only objects built are the report's Duals.
    x, y = rand_equilibrium_pair(np.random.default_rng(8))
    built, vectors, checked, calls = [], [], [], []
    real_dual, real_raw, init = theorems._dual, linalg._DualArray._raw.__func__, Dual.__init__

    def counting_dual(re, du):
        built.append(real_dual(re, du))
        return built[-1]

    def counting_raw(cls, re, du):
        vectors.append(cls)
        return real_raw(cls, re, du)

    def counting_init(self, *args, **kwargs):
        checked.append(self)
        init(self, *args, **kwargs)

    for module in (theorems, geometry, linalg):
        for name in ("dot", "cross", "norm"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(theorems, "_dual", counting_dual)
    monkeypatch.setattr(linalg._DualArray, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(Dual, "__init__", counting_init)
    Dual(1.0)
    assert len(checked) == 1, "the counter does not see the checked constructor"
    checked.clear()
    report = equilibrium_laws(x, y)
    handed_out = [report.alpha_xy, report.alpha_yz, report.alpha_zx, *report.cosine_residuals,
                  *report.sine_ratio_residuals, *report.four_r_squared_residuals,
                  report.angle_sum_residual, report.two_r]
    assert sorted(map(id, built)) == sorted(map(id, handed_out))
    assert vectors == checked == calls == []
