"""Dual vectors and matrices: products, Gram-Schmidt, hat/vee, frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_dual_close,
    assert_dualvec_close,
    assert_orthonormal,
    assert_vec_close,
    frame_beyond_the_floats,
    rand_dualvec,
    rand_frame,
    rand_rotation_frame,
    rand_unit,
    rand_vec,
    screw_size,
)
from screwalg import (
    Dual,
    DualMat3,
    DualVec3,
    TripleTag,
    basis,
    classify_triple,
    cross,
    displacement,
    dot,
    exp_so3d,
    frame_from_point,
    frame_translation,
    gram_schmidt,
    hat,
    independent_over_D,
    is_frame,
    mixed,
    norm,
    vee,
)
from screwalg.dual import _droot
from screwalg.errors import (
    DegenerateBasis,
    NotAFrame,
    NotAntisymmetric,
    NotFinite,
    NullVector,
    ProjectionMismatch,
)
from screwalg.linalg import (
    _coplanar, _cross, _ddot, _in_range, _length, _mat, _parallel, _triple, _vec,
)

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
            scale = screw_size(x, y, z)
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

    @pytest.mark.parametrize("x", [DualVec3([0, 0, 0], [1, 2, 3]), DualVec3([1e-170, 0, 0])],
                             ids=["pure-dual", "underflow"])
    def test_modulus_refusal_names_the_squared_length(self, x):
        # Both causes leave x o x a real part of 0; the message says so, not "pure dual".
        with pytest.raises(NullVector, match="squared resultant length is 0") as refusal:
            _droot(*_ddot(x._re, x._du, x._re, x._du))
        assert str(refusal.value) == (
            "modulus undefined: the squared resultant length is 0 (a pure dual, or an underflow)")

    @pytest.mark.parametrize("size", [1e-170, 1e170])
    def test_norm_of_a_resultant_whose_square_leaves_the_floats(self, size):
        # 1e-170 squared underflowed to 0 (NullVector), 1e170 squared overflowed (NotFinite).
        assert norm(DualVec3([size, 0, 0])) == Dual(size, 0.0)


class TestIdentities:
    def test_jacobi(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x, y, z = (rand_dualvec(rng) for _ in range(3))
            total = cross(x, cross(y, z)) + cross(z, cross(x, y)) + cross(y, cross(z, x))
            scale = screw_size(x, y, z)
            assert screw_size(total) <= 1e-12 * max(1.0, scale)

    def test_lagrange(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x, y, u, v = (rand_dualvec(rng) for _ in range(4))
            lhs = dot(cross(x, y), cross(u, v))
            rhs = dot(x, u) * dot(y, v) - dot(x, v) * dot(y, u)
            scale = screw_size(x, y, u, v)
            assert_dual_close(lhs, rhs, tol=1e-12, scale=scale)

    def test_double_cross_product(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x, y, z = (rand_dualvec(rng) for _ in range(3))
            lhs = cross(x, cross(y, z))
            rhs = dot(x, z) * y - dot(x, y) * z
            scale = screw_size(x, y, z)
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

    def test_refuses_a_triple_whose_resultants_are_dependent(self):
        # Dependent, |[r1 r2 r3]| = 4e-12 <= 1e-9, though every pivot of a projection
        # (4e-12 at the smallest) is above 1e-12 of the largest squared length.
        zs = [DualVec3([1, 0, 0]), DualVec3([1, 2e-6, 0]), DualVec3([0, 1, 2e-6])]
        assert not independent_over_D(zs)
        with pytest.raises(DegenerateBasis, match=r"\) = 3\.9999999999\d*e-12 is at most 1e-09;"):
            gram_schmidt(*zs)

    @staticmethod
    def _refusal(zs) -> str:
        with pytest.raises(DegenerateBasis) as refusal:
            gram_schmidt(*zs)
        return str(refusal.value)

    @pytest.mark.parametrize("s", [2.0**700, 2.0**-700])
    def test_the_refusal_reads_the_same_at_every_scale(self, s):
        # The refusal states |[r1 r2 r3]| / (|r1| |r2| |r3|) against the default
        # tolerance, figures that no power of two moves.
        for third in ([1, 1, 0], [1, 1, 1e-10]):
            zs = [DualVec3([1, 0, 0]), DualVec3([0, 1, 0]), DualVec3(third)]
            assert self._refusal([s * z for z in zs]) == self._refusal(zs)
        ratio = 1e-10 / math.sqrt(2.0 + 1e-20)
        assert self._refusal(zs) == (
            f"|[r1 r2 r3]| / (|r1| |r2| |r3|) = {ratio!r} is at most 1e-09; inputs are not a basis"
        )

    def test_the_refusal_of_tiny_coplanar_resultants_states_no_rescaled_threshold(self):
        zs = [DualVec3([1e-200, 0, 0]), DualVec3([0, 1e-200, 0]), DualVec3([1e-200, 1e-200, 0])]
        assert self._refusal(zs) == (
            "|[r1 r2 r3]| / (|r1| |r2| |r3|) = 0.0 is at most 1e-09; inputs are not a basis"
        )

    def test_a_zero_resultant_is_refused_with_a_zero_ratio(self):
        with pytest.raises(DegenerateBasis, match=r"\) = 0\.0 is at most"):
            gram_schmidt(DualVec3([0, 0, 0], [1, 0, 0]), E2, E3)

    def test_accepts_a_triple_whose_resultants_are_free(self):
        # Free, |[r1 r2 r3]| = 1e-7 > 1.4e-9, though the last pivot of a projection,
        # 1e-14, is below 1e-12 of the largest squared length, 2.
        zs = [
            DualVec3([1, 0, 0], [0, 0.3, 0]),
            DualVec3([0, 1, 0], [0.2, 0, 0]),
            DualVec3([1, 1, 1e-7], [0, 0, 1]),
        ]
        assert independent_over_D(zs)
        assert classify_triple(*zs).tag is TripleTag.INDEPENDENT_BASIS
        m1, m2, m3 = gram_schmidt(*zs)
        assert_orthonormal((m1, m2, m3))
        # The x-axis lifted to z = 0.3, and the lines meeting it there orthogonally.
        assert_dualvec_close(m1, zs[0])
        assert_dualvec_close(m2, DualVec3([0, 1, 0], [-0.3, 0, 0]))
        assert_dualvec_close(m3, E3)

    def test_a_nearly_parallel_first_pair_gives_a_frame(self):
        # b1 x b2 cancels to a relative eps / angle, which tilts its direction
        # towards b1; the frame stays orthonormal to rounding all the same.
        # With |e x q| >= 1/2, |[r1 r2 r3]| is above its bound from 2e-9 rad on.
        rng = np.random.default_rng(17)
        for angle in np.geomspace(4e-9, 1e-2, 200):
            e, q = rand_unit(rng), rand_unit(rng)
            while np.linalg.norm(np.cross(e, q)) < 0.5:
                q = rand_unit(rng)
            perp = np.cross(e, q) / np.linalg.norm(np.cross(e, q))
            res = [e * rng.uniform(0.5, 2), (e + angle * perp) * rng.uniform(0.5, 2), q]
            b = [DualVec3(r, rand_vec(rng)) for r in res]
            assert independent_over_D(b)
            ms = gram_schmidt(*b)
            assert_orthonormal(ms)
            assert_dualvec_close(ms[0], b[0] * norm(b[0]).inv())
            assert np.linalg.det(np.vstack([v.re for v in ms])) * np.linalg.det(
                np.vstack([v.re for v in b])
            ) > 0

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
            cond = sum(screw_size(v) for v in b) ** 2 / det
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
                x @ hat(b), cross(b, x), tol=1e-13, scale=screw_size(b, x)
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
            assert_dualvec_close(vee(hat(b)), b, tol=1e-12, scale=screw_size(b))

    def test_vee_rejects_symmetric_part(self):
        with pytest.raises(NotAntisymmetric):
            vee(DualMat3.identity())

    @pytest.mark.parametrize("factor", [1.0, 1e12])
    def test_vee_judges_a_small_matrix_as_a_large_one(self, factor):
        # One off-diagonal entry: its symmetric part is as large as the matrix.
        with pytest.raises(NotAntisymmetric):
            vee(DualMat3([[0, 1e-12 * factor, 0], [0, 0, 0], [0, 0, 0]]))

    def test_vee_of_zero_is_zero(self):
        b = vee(DualMat3(np.zeros((3, 3))))
        assert (b.re.tolist(), b.du.tolist()) == ([0, 0, 0], [0, 0, 0])

    def test_vee_keeps_every_bit_under_a_power_of_two(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(500):
            re = rng.normal(size=(3, 3))
            du = rng.normal(size=(3, 3))
            skew = 10.0 ** rng.uniform(-12, -6)
            re, du = re - re.T + skew * (re + re.T), du - du.T
            k = int(rng.integers(-900, 901))

            def outcome(m):
                try:
                    b = vee(m)
                except NotAntisymmetric:
                    return NotAntisymmetric
                return [b.re.tolist(), b.du.tolist()]

            expected = outcome(DualMat3(re, du))
            scaled = outcome(DualMat3(np.ldexp(re, k), np.ldexp(du, k)))
            seen.add(expected is NotAntisymmetric)
            if expected is NotAntisymmetric:
                assert scaled is NotAntisymmetric, k
            else:
                assert scaled == [np.ldexp(part, k).tolist() for part in expected], k
        assert seen == {True, False}


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

    def test_translation_beyond_half_the_largest_float_is_exact(self):
        # (S_01 - S_10) / 2 overflowed before the halving and gave [0, 0, inf].
        assert frame_translation(frame_from_point([0, 0, 1.5e308])).tolist() == [0.0, 0.0, 1.5e308]

    def test_translation_beyond_the_largest_float_is_refused(self):
        frame = DualMat3(**frame_beyond_the_floats())
        assert is_frame(frame)
        with pytest.raises(NotFinite, match="translation overflows"):
            frame_translation(frame)

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


def _numpy_checked(cls, x) -> tuple:
    """The checked constructor as numpy coerces any input: the reference for its plain path."""
    try:
        a = np.array(x, dtype=float)
    except OverflowError as exc:
        raise NotFinite(f"{cls._kind} entries must be finite") from exc
    if a.shape != cls._shape:
        raise ValueError(f"expected a {cls._kind}, got shape {a.shape}")
    values = tuple(a.ravel().tolist())
    if not all(map(math.isfinite, values)):
        raise NotFinite(f"{cls._kind} entries must be finite")
    return values


def _outcome(check, x):
    """The components as hex strings, which tell -0.0 from 0.0, or the refusal's class and text."""
    try:
        return tuple(float.hex(v) for v in check(x))
    except (ValueError, TypeError, NotFinite) as exc:
        return type(exc), str(exc)


# Finite floats include +-0.0 and subnormals; ENTRIES adds what a float cannot hold.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.integers(),
)
ENTRIES = st.one_of(
    FINITE,
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(2**1024, 2**1100),
    st.integers(-(2**1100), -(2**1024)),
    st.booleans(),
)


def _triples(elements):
    """Lists and tuples of 3 elements."""
    return st.builds(lambda kind, xs: kind(xs), st.sampled_from([list, tuple]),
                     st.lists(elements, min_size=3, max_size=3))


VECTORS = _triples(FINITE) | _triples(ENTRIES)
MATRICES = _triples(_triples(FINITE)) | _triples(_triples(ENTRIES))
ODD_SHAPES = st.lists(ENTRIES | VECTORS, max_size=4)
# Each class with input of its shape, and either class with input of any shape.
CHECKED_INPUTS = st.one_of(
    st.tuples(st.just(DualVec3), VECTORS),
    st.tuples(st.just(DualMat3), MATRICES),
    st.tuples(st.sampled_from([DualVec3, DualMat3]), VECTORS | MATRICES | ODD_SHAPES),
)


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
        assert _vec([big, -big, 0.0]) == (big, -big, 0.0)
        assert _mat(np.full((3, 3), -big)) == (-big,) * 9

    @settings(max_examples=500, deadline=None)
    @given(CHECKED_INPUTS)
    def test_lists_and_tuples_read_as_numpy_coerces_them(self, case):
        cls, x = case
        assert _outcome(cls._checked, x) == _outcome(lambda y: _numpy_checked(cls, y), x)

    def test_ragged_rows_are_refused_before_any_entry_is_read(self):
        # The third row alone is a plain row with an int beyond the floats;
        # numpy sees the ragged shape first, and so must the plain path.
        x = [0.0, 0.0, [0.0, 0.0, 10**400]]
        assert _outcome(DualMat3._checked, x) == _outcome(lambda y: _numpy_checked(DualMat3, y), x)
        with pytest.raises(ValueError, match="inhomogeneous"):
            DualMat3(x)


def _parallel_formula(u, v, tol):
    return math.hypot(*_cross(u, v)) <= tol * _length(u) * _length(v)


def _coplanar_formula(u, v, w, tol):
    return abs(_triple(u, v, w)) <= tol * _length(u) * _length(v) * _length(w)


def _judged(u, v, w, tol):
    """The verdicts of _parallel on (u, v) and _coplanar on (u, v, w) as the library
    reaches them: each vector brought into range first."""
    u, v, w = (_in_range(a)[0] for a in (u, v, w))
    return _parallel(u, v, tol), _coplanar(u, v, w, tol)


# Components of 1e-3 to 1 in size, or 0: a power of two up to 2**1000 either
# way keeps every one of them a normal float.
SIZED = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
SIZED_VECTORS = st.tuples(SIZED, SIZED, SIZED).filter(any)
TOLERANCES = st.sampled_from([0.0, 1e-12, 1e-9, 1e-3])


class TestDependenceTests:
    """_parallel and _coplanar are the library's one decision that resultants are dependent."""

    @settings(max_examples=300, deadline=None)
    @given(SIZED_VECTORS, SIZED_VECTORS, SIZED_VECTORS, TOLERANCES)
    def test_inside_the_safe_range_the_verdicts_are_the_formulas(self, u, v, w, tol):
        for a in (u, v, w):
            assert _in_range(a) == (a, 0)
        assert _judged(u, v, w, tol) == (_parallel_formula(u, v, tol),
                                         _coplanar_formula(u, v, w, tol))

    @settings(max_examples=300, deadline=None)
    @given(SIZED_VECTORS, SIZED_VECTORS, SIZED_VECTORS, TOLERANCES,
           st.lists(st.integers(-1000, 1000), min_size=3, max_size=3))
    def test_a_power_of_two_moves_no_verdict(self, u, v, w, tol, exponents):
        ku, kv, kw = exponents
        su, sv, sw = (tuple(math.ldexp(c, k) for c in a) for a, k in ((u, ku), (v, kv), (w, kw)))
        assert _judged(su, sv, sw, tol) == (_parallel_formula(u, v, tol),
                                            _coplanar_formula(u, v, w, tol))

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1.7e308])
    def test_the_canonical_basis_is_free_at_any_scale(self, scale):
        x, y, z = (scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale)
        assert _judged(x, y, z, 1e-9) == (False, False)
        assert _judged(x, (-scale, 0.0, 0.0), z, 0.0)[0]
        assert _judged(x, y, (scale, -scale, 0.0), 0.0)[1]

    def test_a_tiny_cross_product_is_not_lost_to_its_square(self):
        # |u x v| = 1e-170, whose square underflows; at tol 0 only 0 is parallel.
        assert not _parallel((1.0, 0.0, 0.0), (1.0, 1e-170, 0.0), 0.0)
        assert _parallel((1.0, 0.0, 0.0), (1.0, 1e-170, 0.0), 1e-160)


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
def test_length_is_within_five_ulps_of_numpy_norm(v):
    # Both are the square root of a sum of three squares, rounded in another
    # way (BLAS fuses multiply and add). Each sum is within gamma_3 of the exact
    # one, so each root within 2.5 u of the exact root (u = eps / 2), and the
    # two within 4.5 u = 2.25 eps of each other, at most 4.5 ulps of the larger.
    # 200 000 random vectors measured at most 1 ulp.
    length, reference = _length(tuple(v.tolist())), float(np.linalg.norm(v))
    assert abs(length - reference) <= 5 * math.ulp(max(length, reference))


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
        for name in ("re", "du"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert repr(value).startswith(type(value).__name__)
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
