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
    screw_size,
)
from screwalg import (
    ClassicalScrew,
    Dual,
    comoment,
    cross,
    delassus_fit,
    dot,
    dual_angle,
    line_distance_angle,
    oracle_comoment,
    oracle_commutator,
)
from screwalg.dual import DEFAULT_TOL
from screwalg.errors import DegenerateSamples, NotEquiprojective, NotFinite
from screwalg.oracle import _fit_with_residual

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

    @pytest.mark.parametrize(
        "e2", [Y, np.array([0.6, 0.0, 0.8]), Z], ids=["perpendicular", "oblique", "parallel"]
    )
    def test_points_whose_difference_overflows_raise_not_finite(self, e2):
        # p2 - p1 overflows, which leaves an infinite or NaN distance, and
        # no comparison of a NaN with a bound fails.
        with pytest.raises(NotFinite, match="line distance overflows"):
            line_distance_angle([-1e308, 0, 0], Z, [1e308, 5, 1], e2)

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

            scale = screw_size(z1, z2)
            assert abs(oracle_comoment(c1, c2) - comoment(z1, z2)) <= 1e-12 * max(1.0, scale)
            assert_dualvec_close(
                oracle_commutator(c1, c2).to_motor(),
                cross(z1, z2),
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

    @pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-9, 1.0, 1e9, 1e12])
    def test_exact_samples_fit_at_any_scale(self, scale):
        # The collinearity check is relative to the cloud's extent; it used to
        # refuse these points as collinear below a scale of about 1e-9.
        rng = np.random.default_rng(6)
        truth = ClassicalScrew(rng.normal(size=3), rng.normal(size=3) * scale)
        points = rng.normal(size=(10, 3)) * scale
        fitted = delassus_fit(self._samples(truth, points))
        assert_vec_close(fitted.resultant, truth.resultant, tol=1e-9)
        assert_vec_close(fitted.value_at_origin, truth.value_at_origin, tol=1e-9, scale=scale)

    def test_loose_tolerance_does_not_make_an_elongated_cloud_collinear(self):
        # The residual tolerance is not the collinearity threshold: these
        # points span a plane, with singular values in a ratio of about 1:10.
        rng = np.random.default_rng(7)
        points = rng.normal(size=(20, 3)) * [1.0, 0.1, 0.1]
        svals = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
        assert svals[1] < 0.2 * svals[0]
        truth = ClassicalScrew(Z, [1.0, 2.0, 3.0])
        fitted = delassus_fit(self._samples(truth, points), tol=0.2)
        assert_vec_close(fitted.resultant, Z, tol=1e-12)

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

    @pytest.mark.parametrize(
        "samples, error, message",
        [
            ([(X, X), (Y, X), (Z, X), ([math.inf, 0, 0], X)], NotFinite, "samples must be finite"),
            ([(X, X), (Y, X), (Z, X), (-X, [math.nan, 0, 0])], NotFinite, "samples must be finite"),
            ([(X, X), (Y, X), (Z, X), ([1.0, 2.0], X)], ValueError,
             r"\(n, 2, 3\).*\(4, 2\) \+ inhomogeneous"),
            ([(X, X, X), (Y, X, X), (Z, X, X), (-X, X, X)], ValueError,
             r"\(n, 2, 3\), got shape \(4, 3, 3\)"),
        ],
        ids=["inf-point", "nan-value", "two-component-point", "three-tuple"],
    )
    def test_refuses_malformed_samples_before_any_solve(self, samples, error, message):
        with pytest.raises(error, match=message) as caught:
            delassus_fit(samples)
        assert type(caught.value) is error


def _reference_fit(samples, tol):
    """The centered least-squares fit as first written, kept as the reference.

    It makes per-sample numpy calls and uses np.cross and ndarray.mean; the
    library's fit must return the same bytes without them.
    """
    if len(samples) < 3:
        raise DegenerateSamples(f"need at least 3 samples, got {len(samples)}")
    points = np.array([np.asarray(p, dtype=float) for p, _ in samples])
    values = np.array([np.asarray(v, dtype=float) for _, v in samples])
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= DEFAULT_TOL * svals[0]:
        raise DegenerateSamples("sample points are collinear")

    # -[d]x s = s x d, one 3x3 block per sample.
    a = -_reference_cross_matrix(centered).reshape(-1, 3)
    b = (values - values.mean(axis=0)).reshape(-1)
    s, *_ = np.linalg.lstsq(a, b, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        transported = np.cross(s, points)
        value_at_origin = (values - transported).mean(axis=0)
        residual = float(
            np.linalg.norm(value_at_origin + transported - values, axis=1).max()
        )
    if not math.isfinite(residual):
        raise NotFinite("the fit overflows double precision; sample magnitudes are out of range")
    scale = max(1.0, float(np.abs(values).max()))
    if residual > tol * scale:
        raise NotEquiprojective(
            f"max fit residual {residual:g} exceeds {tol * scale:g}; field is not a screw"
        )
    return ClassicalScrew(s, value_at_origin), residual


def _reference_cross_matrix(v):
    """Column-action skew matrices, one per row: _cross_matrix(v)[i] @ x == v[i] x x."""
    x, y, z = v.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(-1, 3, 3)


def _fit_outcome(fit, samples, tol):
    """The bytes of a fit's resultant, origin value and residual, or its refusal class."""
    try:
        fitted, residual = fit(samples, tol)
    except (DegenerateSamples, NotEquiprojective, NotFinite) as exc:
        return type(exc)
    return (
        fitted.resultant.tobytes(),
        fitted.value_at_origin.tobytes(),
        np.float64(residual).tobytes(),
    )


FIT_KINDS = ("exact", "noisy", "perturbed", "collinear", "near-collinear")


def _fit_case(rng, kind):
    """Samples of a planted screw at 3 to 80 points of scale 1e-6 to 1e6."""
    n = int(rng.integers(3, 81))
    scale = 10.0 ** rng.uniform(-6, 6)
    points = rng.normal(size=(n, 3)) * scale
    if kind in ("collinear", "near-collinear"):
        along = rng.normal(size=3)
        points = rng.normal(size=3) * scale + np.outer(rng.normal(size=n), along) * scale
        if kind == "near-collinear":
            points += rng.normal(size=(n, 3)) * scale * 10.0 ** rng.uniform(-12, -6)
    truth = ClassicalScrew(rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3), rng.normal(size=3) * scale)
    values = truth.value_at_origin + np.cross(truth.resultant, points)
    tol = 1e-9
    spread = np.abs(values).max()
    if kind == "noisy":
        values = values + 0.01 * spread * rng.normal(size=(n, 3))
        tol = 0.2
    elif kind == "perturbed":
        values[rng.integers(0, n, size=3)] += spread * rng.normal(size=(3, 3))
    return points, values, tol


def test_fit_is_byte_identical_to_the_reference_fit():
    rng = np.random.default_rng(90)
    seen = {kind: set() for kind in FIT_KINDS}
    for i in range(2000):
        kind = FIT_KINDS[i % len(FIT_KINDS)]
        points, values, tol = _fit_case(rng, kind)
        as_lists = (i // len(FIT_KINDS)) % 2 == 1
        samples = (
            list(zip(points.tolist(), values.tolist())) if as_lists else list(zip(points, values))
        )
        expected = _fit_outcome(_reference_fit, samples, tol)
        assert _fit_outcome(_fit_with_residual, samples, tol) == expected, (i, kind)
        seen[kind].add(expected if isinstance(expected, type) else "fitted")
    # Every kind reaches the outcome it was drawn for, so each path is compared.
    assert "fitted" in seen["exact"] and "fitted" in seen["noisy"]
    assert seen["perturbed"] >= {NotEquiprojective}
    assert seen["collinear"] >= {DegenerateSamples}
    assert seen["near-collinear"] >= {"fitted", DegenerateSamples}
