"""Dual vectors and matrices: products, Gram-Schmidt, hat/vee, frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_dual_close,
    assert_dualvec_close,
    assert_vec_close,
    rand_dualvec,
    rand_frame,
    rand_rotation_frame,
    rand_unit,
    rand_vec,
)
from screwalg import (
    Dual,
    DualMat3,
    DualVec3,
    basis,
    cross,
    displacement,
    dot,
    exp_so3d,
    frame_from_point,
    frame_translation,
    gram_schmidt,
    hat,
    is_frame,
    magnitude,
    mixed,
    norm,
    vee,
)
from screwalg.errors import (
    DegenerateBasis,
    NotAFrame,
    NotAntisymmetric,
    NotFinite,
    NullVector,
    ProjectionMismatch,
)
from screwalg.linalg import _length, _mat, _vec

E1, E2, E3 = basis()


class TestProducts:
    def test_dot_on_orthonormal_basis(self):
        assert dot(E1, E1) == Dual(1, 0)

    def test_dot_picks_up_comoment(self):
        assert dot(E1, DualVec3([0, 1, 0], [-1, 0, 0])) == Dual(0, -1)

    def test_dot_is_dual_bilinear(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rand_dualvec(rng), rand_dualvec(rng)
            k = Dual(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert_dual_close(dot(k * x, y), k * dot(x, y), tol=1e-13, scale=10.0)
            eps_x = Dual(0, 1) * x
            assert_dual_close(dot(eps_x, y), Dual(0, 1) * dot(x, y), tol=1e-13, scale=10.0)

    def test_cross_right_handed(self):
        assert_dualvec_close(cross(E1, E2), E3)

    def test_cross_with_moment(self):
        out = cross(E1, DualVec3([0, 1, 0], [-1, 0, 0]))
        assert_dualvec_close(out, E3)

    def test_cross_antisymmetry(self):
        rng = np.random.default_rng(1)
        x = rand_dualvec(rng)
        assert_dualvec_close(cross(x, x), DualVec3([0, 0, 0]))

    def test_mixed_unit_cell(self):
        assert mixed(E1, E2, E3) == Dual(1, 0)

    def test_mixed_repeated_argument(self):
        rng = np.random.default_rng(2)
        x, y = rand_dualvec(rng), rand_dualvec(rng)
        assert_dual_close(mixed(x, x, y), Dual(0, 0), tol=1e-13, scale=10.0)

    def test_mixed_of_lifted_frame(self):
        m1 = DualVec3([1, 0, 0])
        m2 = DualVec3([0, 1, 0], [-1, 0, 0])
        m3 = DualVec3([0, 0, 1], [0, -1, 0])
        assert_dual_close(mixed(m1, m2, m3), Dual(1, 0), tol=1e-15)

    def test_mixed_cyclic_and_alternating(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y, z = (rand_dualvec(rng) for _ in range(3))
            scale = magnitude(x) * magnitude(y) * magnitude(z)
            m = mixed(x, y, z)
            assert_dual_close(m, mixed(y, z, x), tol=1e-12, scale=scale)
            assert_dual_close(m, mixed(z, x, y), tol=1e-12, scale=scale)
            assert_dual_close(m, -mixed(y, x, z), tol=1e-12, scale=scale)

    def test_norm_carries_pitch(self):
        assert_dual_close(norm(DualVec3([2, 0, 0], [3, 0, 0])), Dual(2, 3))

    def test_norm_of_basis_vector(self):
        assert norm(E2) == Dual(1, 0)

    def test_norm_rejects_pure_dual(self):
        with pytest.raises(NullVector):
            norm(DualVec3([0, 0, 0], [1, 2, 3]))


class TestIdentities:
    def test_jacobi(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x, y, z = (rand_dualvec(rng) for _ in range(3))
            total = cross(x, cross(y, z)) + cross(z, cross(x, y)) + cross(y, cross(z, x))
            scale = magnitude(x) * magnitude(y) * magnitude(z)
            assert magnitude(total) <= 1e-12 * max(1.0, scale)

    def test_lagrange(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x, y, u, v = (rand_dualvec(rng) for _ in range(4))
            lhs = dot(cross(x, y), cross(u, v))
            rhs = dot(x, u) * dot(y, v) - dot(x, v) * dot(y, u)
            scale = magnitude(x) * magnitude(y) * magnitude(u) * magnitude(v)
            assert_dual_close(lhs, rhs, tol=1e-12, scale=scale)

    def test_double_cross_product(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x, y, z = (rand_dualvec(rng) for _ in range(3))
            lhs = cross(x, cross(y, z))
            rhs = dot(x, z) * y - dot(x, y) * z
            scale = magnitude(x) * magnitude(y) * magnitude(z)
            assert_dualvec_close(lhs, rhs, tol=1e-12, scale=scale)

    def test_screw_pairing_signature(self):
        # Gram matrix of the dual part of the product over {m_i, eps m_i} has
        # three positive and three negative eigenvalues.
        rng = np.random.default_rng(7)
        for _ in range(50):
            frame = rand_frame(rng)
            six = list(frame.rows()) + [Dual(0, 1) * r for r in frame.rows()]
            gram = np.array([[dot(u, v).du for v in six] for u in six])
            eig = np.linalg.eigvalsh(gram)
            assert (eig > 1e-9).sum() == 3
            assert (eig < -1e-9).sum() == 3


class TestGramSchmidt:
    def test_fixed_point_on_orthonormal_input(self):
        m1, m2, m3 = gram_schmidt(E1, E2, E3)
        for got, want in zip((m1, m2, m3), (E1, E2, E3)):
            assert_dualvec_close(got, want)

    def test_hand_worked_lifted_basis(self):
        b1 = DualVec3([1, 0, 0], [0, 1, 0])
        m1, m2, m3 = gram_schmidt(b1, E2, E3)
        assert_dualvec_close(m1, b1)
        assert_dualvec_close(m2, DualVec3([0, 1, 0], [-1, 0, 0]))
        assert_dualvec_close(m3, E3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateBasis):
            gram_schmidt(E1, 2 * E1, E3)

    def test_random_bases_become_orthonormal(self):
        rng = np.random.default_rng(8)
        produced = 0
        while produced < 200:
            b = [rand_dualvec(rng) for _ in range(3)]
            det = abs(np.linalg.det(np.vstack([v.re for v in b])))
            if det < 0.1:
                continue
            produced += 1
            ms = gram_schmidt(*b)
            # Orthonormality defect grows with the conditioning of the input.
            cond = sum(magnitude(v) for v in b) ** 2 / det
            for i in range(3):
                for j in range(3):
                    want = Dual(1 if i == j else 0, 0)
                    assert_dual_close(dot(ms[i], ms[j]), want, tol=1e-12, scale=cond)
            # Orientation class is preserved: the change matrix from b to m is
            # triangular with positive-real diagonal.
            assert np.linalg.det(np.vstack([v.re for v in ms])) * np.linalg.det(
                np.vstack([v.re for v in b])
            ) > 0


class TestHatVee:
    def test_hat_rotation_generator(self):
        assert_dualvec_close(E1 @ hat(E3), E2)

    def test_hat_of_zero(self):
        h = hat(DualVec3([0, 0, 0]))
        assert np.abs(h.re).max() == 0 and np.abs(h.du).max() == 0

    def test_hat_with_dual_component(self):
        b = DualVec3([1, 0, 0], [0, 0, 1])
        assert_dualvec_close(E2 @ hat(b), DualVec3([0, 0, 1], [-1, 0, 0]))

    def test_hat_matches_cross(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            b, x = rand_dualvec(rng), rand_dualvec(rng)
            assert_dualvec_close(
                x @ hat(b), cross(b, x), tol=1e-13, scale=magnitude(b) * magnitude(x)
            )

    def test_hat_is_pairing_antisymmetric(self):
        rng = np.random.default_rng(10)
        b, v, w = (rand_dualvec(rng) for _ in range(3))
        h = hat(b)
        total = dot(v @ h, w) + dot(v, w @ h)
        assert_dual_close(total, Dual(0, 0), tol=1e-12, scale=100.0)

    def test_vee_round_trips(self):
        assert_dualvec_close(vee(hat(E3)), E3)
        b = DualVec3([1, 0, 0], [0, 0, 1])
        assert_dualvec_close(vee(hat(b)), b)
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = rand_dualvec(rng)
            assert_dualvec_close(vee(hat(b)), b, tol=1e-12, scale=magnitude(b))

    def test_vee_rejects_symmetric_part(self):
        with pytest.raises(NotAntisymmetric):
            vee(DualMat3.identity())


class TestExp:
    def test_exp_of_zero(self):
        u = exp_so3d(DualVec3([0, 0, 0]))
        assert_vec_close(u.re, np.eye(3))
        assert_vec_close(u.du, np.zeros((3, 3)))

    def test_exp_of_pure_dual_truncates(self):
        v = np.array([0.3, -0.7, 1.1])
        u = exp_so3d(DualVec3([0, 0, 0], v))
        assert_vec_close(u.re, np.eye(3))
        assert_vec_close(u.du, hat(DualVec3(v)).re)

    def test_exp_quarter_turn(self):
        u = exp_so3d(DualVec3([0, 0, math.pi / 2]))
        # Rows are the rotated frame axes.
        assert_vec_close(u.re[0], [0, 1, 0], tol=1e-15)
        assert_vec_close(u.re[1], [-1, 0, 0], tol=1e-15)
        assert_vec_close(u.re[2], [0, 0, 1], tol=1e-15)
        assert np.abs(u.du).max() == 0

    def test_exp_inverse_is_negative_generator(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            b = rand_dualvec(rng)
            prod = exp_so3d(b) @ exp_so3d(-1 * b)
            assert_vec_close(prod.re, np.eye(3), tol=1e-10)
            assert_vec_close(prod.du, np.zeros((3, 3)), tol=1e-10)

    def test_exp_produces_frames(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert is_frame(exp_so3d(rand_dualvec(rng)), tol=1e-9)

    def test_exp_near_zero_angle_is_stable(self):
        b = DualVec3([1e-9, 0, 0], [0, 0.5, 0])
        u = exp_so3d(b)
        assert is_frame(u, tol=1e-12)


class TestFrames:
    def test_translation_of_identity(self):
        assert_vec_close(frame_translation(DualMat3.identity()), [0, 0, 0])

    def test_translation_of_lifted_point(self):
        s = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert_vec_close(frame_translation(DualMat3(np.eye(3), s)), [0, 0, 1])

    def test_frames_far_from_origin_pass_the_frame_check(self):
        # The dual Gram block grows with the translation; its rounding too.
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = frame_from_point(1e8 * rand_unit(rng)) @ exp_so3d(rand_dualvec(rng))
            assert is_frame(u)
            spoiled = DualMat3(u.re, u.du + 1e3 * np.eye(3))
            assert not is_frame(spoiled)

    def test_translation_rejects_reflections(self):
        flipped = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotAFrame):
            frame_translation(DualMat3(flipped))

    def test_basis_change_between_frames_is_rotation_plus_antisymmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            u1, u2 = rand_frame(rng), rand_frame(rng)
            w = u2 @ u1.T
            o = w.re
            assert_vec_close(o @ o.T, np.eye(3), tol=1e-10)
            assert np.linalg.det(o) > 0
            a = o.T @ w.du
            assert_vec_close(a + a.T, np.zeros((3, 3)), tol=1e-10)
            assert_vec_close(w.du, o @ a, tol=1e-10)

    def test_translation_composes_like_rigid_motions(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u, v = rand_frame(rng), rand_frame(rng)
            left = frame_translation(u @ v)
            right = frame_translation(u) + u.re @ frame_translation(v)
            assert_vec_close(left, right, tol=1e-10, scale=10.0)


class TestDisplacement:
    def test_identical_frames(self):
        rng = np.random.default_rng(16)
        u = rand_frame(rng)
        assert_vec_close(displacement(u, u), [0, 0, 0])

    def test_hand_worked_unit_translation(self):
        moved = DualMat3.from_rows(
            DualVec3([1, 0, 0], [0, 1, 0]),
            DualVec3([0, 1, 0], [-1, 0, 0]),
            DualVec3([0, 0, 1]),
        )
        assert_vec_close(displacement(DualMat3.identity(), moved), [0, 0, 1])

    def test_mismatched_projections_rejected_without_prerotation(self):
        rng = np.random.default_rng(17)
        u = rand_rotation_frame(rng)
        with pytest.raises(ProjectionMismatch):
            displacement(DualMat3.identity(), u @ frame_from_point([1, 0, 0]))

    def test_prerotation_aligns_projections(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            rot = rand_rotation_frame(rng)
            p = rand_vec(rng)
            q = rand_vec(rng)
            u = rot @ frame_from_point(p)
            v = frame_from_point(q)
            # After aligning the real parts the pure-dual half-sum measures
            # the displacement between the two frame points.
            d = displacement(u, v, prerotate=True)
            assert_vec_close(d, q - p, tol=1e-10, scale=10.0)

    def test_matches_frame_translation_of_relative_frame(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            rot = rand_rotation_frame(rng)
            p, q = rand_vec(rng), rand_vec(rng)
            u = rot @ frame_from_point(p)
            v = rot @ frame_from_point(q)
            assert_vec_close(
                displacement(u, v),
                frame_translation(u.T @ v),
                tol=1e-12,
                scale=10.0,
            )


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestInputChecks:
    """_vec and _mat are where vectors and matrices enter; each refuses non-finite input."""

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", range(3))
    def test_vec_refuses_non_finite_component(self, bad, position):
        x = [1.0, 2.0, 3.0]
        x[position] = bad
        with pytest.raises(NotFinite):
            _vec(x)
        with pytest.raises(NotFinite):
            DualVec3([0.0, 0.0, 1.0], x)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", range(9))
    def test_mat_refuses_non_finite_entry(self, bad, position):
        a = np.arange(9.0)
        a[position] = bad
        with pytest.raises(NotFinite):
            _mat(a.reshape(3, 3))
        with pytest.raises(NotFinite):
            DualMat3(np.eye(3), a.reshape(3, 3))

    def test_vec_refuses_overflow(self):
        with pytest.raises(NotFinite):
            _vec([10**400, 0, 0])

    def test_mat_refuses_overflow(self):
        with pytest.raises(NotFinite):
            _mat([[1, 0, 0], [0, 10**400, 0], [0, 0, 1]])

    def test_largest_finite_values_pass(self):
        big = np.finfo(float).max
        assert _vec([big, -big, 0.0]).tolist() == [big, -big, 0.0]
        assert _mat(np.full((3, 3), -big)).min() == -big


HUGE = DualVec3([1e200, 0, 0])


class TestResultsAreTestedFinite:
    """Arithmetic on finite vectors and matrices that overflows raises NotFinite."""

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: cross(HUGE, DualVec3([0, 1e200, 0])),
            lambda: HUGE * 1e200,
            lambda: HUGE * Dual(1.0, 1e200) * 1e200,
            lambda: HUGE @ DualMat3(1e200 * np.eye(3)),
            lambda: DualVec3([1.7e308, 0, 0]) + DualVec3([1.7e308, 0, 0]),
            lambda: DualVec3([0, 0, 0], [-1.7e308, 0, 0]) - DualVec3([0, 0, 0], [1.7e308, 0, 0]),
            lambda: DualMat3(1e200 * np.eye(3)) @ DualMat3(1e200 * np.eye(3)),
            lambda: DualMat3(1.7e308 * np.eye(3)) + DualMat3(1.7e308 * np.eye(3)),
            lambda: DualMat3(np.eye(3), -1.7e308 * np.eye(3)) - DualMat3(np.eye(3), 1.7e308 * np.eye(3)),
        ],
        ids=[
            "cross", "vec-times-float", "vec-times-dual", "vec-at-mat", "vec-add", "vec-sub",
            "matmul", "mat-add", "mat-sub",
        ],
    )
    def test_overflow_raises_not_finite(self, operation):
        # numpy warns when an array operation overflows; the refusal is what counts.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotFinite):
            operation()

    def test_results_next_to_the_edge_are_kept(self):
        big = DualVec3([1e154, 0, 0])
        assert (big * 1e154).re.tolist() == [1e308, 0.0, 0.0]
        assert cross(big, DualVec3([0, 1e154, 0])).re.tolist() == [0.0, 0.0, 1e308]


def _rotation(q) -> np.ndarray:
    """Rotation matrix of the unit quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


unit_quaternions = (
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .map(np.array)
    .filter(lambda q: np.linalg.norm(q) > 0.1)
    .map(lambda q: q / np.linalg.norm(q))
)
translations = st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3)
REFLECT = np.diag([1.0, 1.0, -1.0])


class TestFrameCheck:
    def test_reflection_is_not_a_frame(self):
        assert not is_frame(DualMat3(REFLECT))
        assert not is_frame(DualMat3(-np.eye(3)))

    def test_random_frames_are_frames(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            assert is_frame(rand_frame(rng, span=1e3))

    @settings(max_examples=300, deadline=None)
    @given(unit_quaternions, translations, st.booleans())
    def test_orientation_agrees_with_the_determinant(self, q, t, reflect):
        # A reflected frame is still orthogonal over the duals; only the
        # orientation test can refuse it.
        u = frame_from_point(t) @ DualMat3(_rotation(q))
        if reflect:
            u = DualMat3(REFLECT @ u.re, REFLECT @ u.du)
        assert is_frame(u) == (np.linalg.det(u.re) > 0.0)
        assert is_frame(u) is not reflect


vectors = st.lists(
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
).map(np.array)


@settings(max_examples=500, deadline=None)
@given(vectors)
def test_length_is_bit_for_bit_numpy_norm(v):
    assert _length(v) == np.linalg.norm(v)


IDENTITY_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestVectorAndMatrixContract:
    """The behaviour DualVec3 and DualMat3 share, and the one product @ between them."""

    @pytest.mark.parametrize("cls, wrong", [(DualVec3, IDENTITY_ROWS), (DualMat3, [1, 2, 3])],
                             ids=["vector-given-matrix", "matrix-given-vector"])
    def test_input_of_the_other_shape_is_refused(self, cls, wrong):
        with pytest.raises(ValueError, match="got shape"):
            cls(wrong)
        right = [0, 0, 1] if cls is DualVec3 else IDENTITY_ROWS
        with pytest.raises(ValueError, match="got shape"):
            cls(right, wrong)

    @pytest.mark.parametrize("value", [DualVec3([1, 2, 3], [4, 5, 6]), DualMat3(np.eye(3))],
                             ids=["vector", "matrix"])
    def test_values_are_immutable(self, value):
        for name in ("re", "du", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, value.re)
        for part in (value.re, value.du, (value + value).re, (value - value).du):
            with pytest.raises(ValueError):
                part[0] = 7.0

    def test_repr_names_the_class(self):
        assert repr(DualVec3([1, 2, 3])) == "DualVec3([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])"
        assert repr(DualMat3(np.eye(3), 2 * np.eye(3))) == (
            "DualMat3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "
            "[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])"
        )

    def test_matrices_scale_and_negate_row_by_row(self):
        rng = np.random.default_rng(41)
        m = DualMat3(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        k = Dual(rng.normal(), rng.normal())
        for scaled, row_op in [
            (k * m, lambda r: k * r), (m * k, lambda r: r * k),
            (2.5 * m, lambda r: 2.5 * r), (m * 2.5, lambda r: r * 2.5),
            (-m, lambda r: -r),
        ]:
            assert type(scaled) is DualMat3
            for got, row in zip(scaled.rows(), m.rows()):
                assert repr(got) == repr(row_op(row))

    def test_vectors_and_matrices_do_not_add(self):
        x, m = DualVec3([1, 2, 3]), DualMat3.identity()
        with pytest.raises(TypeError):
            x + m
        with pytest.raises(TypeError):
            m - x

    def test_at_acts_on_rows_only(self):
        x, m = DualVec3([1, 2, 3]), DualMat3.identity()
        with pytest.raises(TypeError):
            m @ x
        with pytest.raises(TypeError):
            x @ x
