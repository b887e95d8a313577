"""Classical vector-field oracle and its agreement with the dual formulation."""

import math

import numpy as np
import pytest

from helpers import (
    assert_dualvec_close,
    assert_vec_close,
    rand_dual,
    rand_dualvec,
    rand_skew_lines,
    rand_vec,
)
from screwalg import (
    ClassicalScrew,
    Dual,
    comoment,
    commutator,
    delassus_fit,
    dot,
    dual_angle,
    line_distance_angle,
    magnitude,
    oracle_comoment,
    oracle_commutator,
)
from screwalg.errors import DegenerateSamples, NotEquiprojective

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestField:
    def test_constant_field(self):
        c = ClassicalScrew([0, 0, 0], [1, 2, 3])
        assert_vec_close(c.field([9, -4, 2]), [1, 2, 3])

    def test_rotation_field(self):
        c = ClassicalScrew(Z, [0, 0, 0])
        assert_vec_close(c.field(X), Y)

    def test_matches_dual_transport(self):
        c = ClassicalScrew([2, 0, 0], [3, 2, 0])
        assert_vec_close(c.field([0, 0, 1]), [3, 0, 0])


class TestPairings:
    def test_comoment_of_perpendicular_skew_lines(self):
        c1 = ClassicalScrew.from_line([0, 0, 0], X)
        c2 = ClassicalScrew.from_line([0, 0, 1], Y)
        assert abs(oracle_comoment(c1, c2) - (-1.0)) <= 1e-15

    def test_commutator_of_concurrent_lines(self):
        c1 = ClassicalScrew.from_line([0, 0, 0], X)
        c2 = ClassicalScrew.from_line([0, 0, 0], Y)
        out = oracle_commutator(c1, c2)
        assert_vec_close(out.resultant, Z)
        assert_vec_close(out.value_at_origin, [0, 0, 0])

    def test_zero_pitch_self_comoment(self):
        c = ClassicalScrew.from_line([3, -1, 2], X)
        assert abs(oracle_comoment(c, c)) <= 1e-12

    def test_non_screw_field_raises(self):
        # A real error, not an assert, so the check also holds under python -O.
        class GrowingField(ClassicalScrew):
            def field(self, point):
                p = np.asarray(point, dtype=float)
                return super().field(p) + (p @ p) * X

        bad = GrowingField(Z, [1.0, 0.0, 0.0])
        good = ClassicalScrew.from_line([0, 0, 0], (X + Y) / math.sqrt(2))
        with pytest.raises(NotEquiprojective):
            oracle_comoment(bad, good)
        with pytest.raises(NotEquiprojective):
            oracle_commutator(bad, good)


class TestLineDistanceAngle:
    def test_perpendicular_offset(self):
        rel = line_distance_angle([0, 0, 0], X, [0, 0, 1], Y)
        assert abs(rel.distance - 1.0) <= 1e-15
        assert abs(rel.angle - math.pi / 2) <= 1e-15
        a, b = rel.closest_points
        assert_vec_close(a, [0, 0, 0])
        assert_vec_close(b, [0, 0, 1])

    def test_identical_lines(self):
        rel = line_distance_angle([1, 2, 3], X, [5, 2, 3], X)
        assert rel.distance == 0.0
        assert rel.angle == 0.0
        assert rel.closest_points is None

    def test_parallel_offset(self):
        rel = line_distance_angle([0, 0, 0], X, [0, 1, 0], X)
        assert abs(rel.distance - 1.0) <= 1e-15
        assert rel.angle == 0.0

    @pytest.mark.parametrize("angle", [2e-9, 4e-9, 6e-9, 8e-9])
    def test_nearly_parallel_lines(self, angle):
        # sin(angle) passes the parallel guard while 1 - cos(angle)**2 rounds to 0.
        p1, p2 = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.3])
        e2 = np.array([math.cos(angle), math.sin(angle), 0.0])
        rel = line_distance_angle(p1, X, p2, e2)
        assert abs(rel.distance - 0.8) <= 1e-15
        a, b = rel.closest_points
        # Both closest points project onto the crossing of the lines' shadows
        # on the z = const planes.
        x_cross = 0.1 - 0.6 * math.cos(angle) / math.sin(angle)
        assert_vec_close(a, [x_cross, -0.2, 0.5], tol=1e-6, scale=abs(x_cross))
        assert_vec_close(b, [x_cross, -0.2, -0.3], tol=1e-6, scale=abs(x_cross))

    def test_agrees_with_dual_angle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            l1, l2 = rand_skew_lines(rng)
            rel = line_distance_angle(l1.point, l1.direction, l2.point, l2.direction)
            theta = dual_angle(l1.screw, l2.screw)
            assert abs(theta.re - rel.angle) <= 1e-9
            assert abs(abs(theta.du) - rel.distance) <= 1e-9 * max(1.0, rel.distance)


class TestMotorIsomorphism:
    def test_operations_commute_with_conversion(self):
        # Converting between field form and origin motor preserves sums,
        # dual rescaling (eps acts as "replace by the resultant's constant
        # field"), the comoment, and the commutator.
        rng = np.random.default_rng(1)
        for _ in range(500):
            z1, z2 = rand_dualvec(rng), rand_dualvec(rng)
            c1, c2 = ClassicalScrew.from_motor(z1), ClassicalScrew.from_motor(z2)

            assert_dualvec_close((c1 + c2).to_motor(), z1 + z2, tol=1e-12, scale=10.0)

            k = rand_dual(rng, -3, 3)
            assert_dualvec_close(c1.scale(k).to_motor(), k * z1, tol=1e-12, scale=40.0)

            eps_side = c1.resultant_field().to_motor()
            assert_dualvec_close(eps_side, Dual(0, 1) * z1, tol=1e-15)

            scale = magnitude(z1) * magnitude(z2)
            assert abs(oracle_comoment(c1, c2) - comoment(z1, z2)) <= 1e-12 * max(1.0, scale)
            assert_dualvec_close(
                oracle_commutator(c1, c2).to_motor(),
                commutator(z1, z2),
                tol=1e-12,
                scale=scale,
            )

    def test_dot_real_part_matches_resultant_product(self):
        rng = np.random.default_rng(2)
        z1, z2 = rand_dualvec(rng), rand_dualvec(rng)
        assert abs(dot(z1, z2).re - float(z1.re @ z2.re)) <= 1e-14 * 100


class TestDelassusFit:
    def _samples(self, screw: ClassicalScrew, points):
        return [(p, screw.field(p)) for p in points]

    def test_recovers_constant_field(self):
        tetra = [np.zeros(3), X, Y, Z]
        fitted = delassus_fit(self._samples(ClassicalScrew([0, 0, 0], [1, 2, 3]), tetra))
        assert_vec_close(fitted.resultant, [0, 0, 0], tol=1e-12)
        assert_vec_close(fitted.value_at_origin, [1, 2, 3], tol=1e-12)

    def test_recovers_pure_rotation(self):
        tetra = [np.zeros(3), X, Y, Z]
        fitted = delassus_fit(self._samples(ClassicalScrew(Z, [0, 0, 0]), tetra))
        assert_vec_close(fitted.resultant, Z, tol=1e-12)
        assert_vec_close(fitted.value_at_origin, [0, 0, 0], tol=1e-12)

    def test_recovers_random_screws_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            truth = ClassicalScrew(rand_vec(rng), rand_vec(rng))
            points = [rand_vec(rng, 3.0) for _ in range(6)]
            if np.linalg.svd(np.array(points) - np.mean(points, axis=0), compute_uv=False)[1] < 0.3:
                continue
            fitted = delassus_fit(self._samples(truth, points), tol=1e-10)
            assert_vec_close(fitted.resultant, truth.resultant, tol=1e-10, scale=10.0)
            assert_vec_close(
                fitted.value_at_origin, truth.value_at_origin, tol=1e-10, scale=10.0
            )

    def test_rejects_non_equiprojective_field(self):
        tetra = [np.zeros(3), X, Y, Z]
        samples = [(p, (p @ X) * X) for p in tetra]
        # Equiprojectivity already fails on a sampled pair, so no screw fits.
        p, q = tetra[0], tetra[1]
        vp, vq = samples[0][1], samples[1][1]
        assert abs(vp @ (q - p) - vq @ (q - p)) > 0.5
        with pytest.raises(NotEquiprojective):
            delassus_fit(samples)

    def test_rejects_collinear_points(self):
        truth = ClassicalScrew(Z, [0, 0, 0])
        points = [t * X for t in (0.0, 1.0, 2.0, 3.0)]
        with pytest.raises(DegenerateSamples):
            delassus_fit(self._samples(truth, points))

    def test_matches_pairwise_least_squares(self):
        # Noisy samples that no screw fits exactly, under a tolerance loose
        # enough to accept them: the resultant is a true least-squares
        # solution, which must equal the one over every sample pair.
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            points = rng.uniform(-2.0, 2.0, size=(n, 3))
            truth = ClassicalScrew(2.0 * rand_vec(rng), rand_vec(rng))
            values = truth.value_at_origin + np.cross(truth.resultant, points)
            values += 0.05 * rng.normal(size=(n, 3))
            rows, rhs = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    # Columns e_k x d, so that block @ s == s x d.
                    rows.append(np.cross(np.eye(3), points[j] - points[i]).T)
                    rhs.append(values[j] - values[i])
            pairwise, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
            fitted = delassus_fit(list(zip(points, values)), tol=0.2)
            assert np.linalg.norm(pairwise - truth.resultant) > 1e-4
            assert_vec_close(fitted.resultant, pairwise, tol=1e-12, scale=np.linalg.norm(pairwise))
            origin = (values - np.cross(pairwise, points)).mean(axis=0)
            assert_vec_close(fitted.value_at_origin, origin, tol=1e-12, scale=10.0)

    def test_solves_three_rows_per_sample(self, monkeypatch):
        rows = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        truth = ClassicalScrew(Z, [1.0, 2.0, 3.0])
        rng = np.random.default_rng(5)
        points = [rand_vec(rng) for _ in range(48)]
        delassus_fit(self._samples(truth, points))
        assert rows == [3 * 48]

    def test_rejects_too_few_samples(self):
        with pytest.raises(DegenerateSamples):
            delassus_fit([(np.zeros(3), X), (X, X)])
