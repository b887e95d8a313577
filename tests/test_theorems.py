"""Dependence classification, triangle laws, Petersen-Morley, Thales."""

import math

import numpy as np
import pytest

from helpers import (
    assert_dual_close,
    assert_dualvec_close,
    assert_vec_close,
    rand_dual,
    rand_equilibrium_pair,
    rand_generic_triple,
    rand_proper_screw,
    rand_sphere_triple,
    rand_vec,
)
from screwalg import (
    Dual,
    DualVec3,
    TripleTag,
    are_proportional,
    classify_triple,
    cos,
    dot,
    equilibrium_laws,
    independent_over_D,
    line_from_point_direction,
    magnitude,
    motor_unreduce,
    petersen_morley,
    sin,
    thales_check,
)
from screwalg.errors import (
    DegenerateTriangle,
    NonGeneric,
    NotAntipodal,
    NotClassifiable,
    NotOnSphere,
    NullVector,
)

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

    def test_random_generic_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x, y, z = rand_generic_triple(rng)
            report = petersen_morley(x, y, z)
            assert not report.parallel_degenerate
            scale = magnitude(x) * magnitude(y) * magnitude(z)
            assert report.jacobi_residual <= 1e-12 * max(1.0, scale)
            assert report.max_residual() <= 1e-9


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

    def test_random_sphere_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
            x, y, z = rand_sphere_triple(rng, radius)
            residual = thales_check(x, y, z, radius, tol=1e-9)
            bound = 1e-12 * max(1.0, radius.re * radius.re, abs(radius.du) ** 2)
            assert max(abs(residual.re), abs(residual.du)) <= bound
