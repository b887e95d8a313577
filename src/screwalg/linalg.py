"""The rank-3 free module of dual 3-vectors and its rotation group.

Coordinates are always taken relative to one fixed right-handed orthonormal
basis, the *canonical frame*. Under that convention a dual vector
``re + eps*du`` is exactly the motor of a screw reduced at the canonical
origin: ``re`` is the resultant, ``du`` is the field value at the origin.
Dual matrices hold frames as rows (row i is the image of the i-th canonical
basis element) and act on row vectors from the right,
``(x @ M)_j = sum_i x_i M_ij``.
"""

from __future__ import annotations

import math

import numpy as np

from .dual import DEFAULT_TOL, Dual, _dual, sqrt
from .errors import (
    DegenerateBasis,
    NotAFrame,
    NotAntisymmetric,
    NotFinite,
    NullVector,
    ProjectionMismatch,
)

PIVOT_TOL = 1e-12


def _constant(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Built once: np.eye and np.zeros cost more per call than the 3x3 sums using them.
_EYE = _constant(np.eye(3))
_ZERO3 = _constant(np.zeros(3))
_ZERO33 = _constant(np.zeros((3, 3)))


# On 3-vectors and 3x3 matrices numpy's generic entry points (np.isfinite,
# np.linalg.norm, np.abs(...).max(), the @ operator) cost several times the
# arithmetic they wrap. The helpers below do the same work on Python floats
# or through ndarray.dot, which runs the same BLAS routine as @.

def _finite(values: list) -> bool:
    """Whether every float in the list (an array's tolist()) is finite."""
    return all(map(math.isfinite, values))


def _length(v: np.ndarray) -> float:
    """Euclidean length of a real 3-vector; bit for bit np.linalg.norm(v)."""
    return math.sqrt(v.dot(v))


def _max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; np.abs(a).max() without the temporary array."""
    return max(map(abs, a.ravel().tolist()))


def _axial_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix A with row action x @ A = v x x, i.e. A_ij = eps_aij v_a."""
    x, y, z = v.tolist()
    return np.array([
        [0.0, z, -y],
        [-z, 0.0, x],
        [y, -x, 0.0],
    ])


def _axial_vector(a: np.ndarray) -> np.ndarray:
    """Inverse of _axial_matrix on the antisymmetric part: v_k = (1/2) eps_kij a_ij."""
    (_, a01, a02), (a10, _, a12), (a20, a21, _) = a.tolist()
    return np.array([0.5 * (a12 - a21), 0.5 * (a20 - a02), 0.5 * (a01 - a10)])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross pays ~20x overhead on single 3-vectors; this is the hot path.
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _parallel(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Whether real 3-vectors are parallel: |u x v| <= tol |u| |v|."""
    return _length(_cross3(u, v)) <= tol * _length(u) * _length(v)


class _DualArray:
    """A pair ``re + eps*du`` of immutable real arrays of one fixed shape.

    By the transference principle a real vector or matrix formula holds over
    the duals unchanged, so module elements (DualVec3) and module maps
    (DualMat3) share everything here. A subclass declares its ``_shape``,
    the ``_kind`` its errors name, its ``_zero`` and its own accessors.

    Validation: the constructor copies its input once and refuses anything
    that is not finite or not of the subclass's shape. Every result the
    library builds (``+``, ``-``, ``*``, ``@``, ``cross``, rows of a
    ``DualMat3``, ...) goes through ``_raw``, which skips the copy but still
    tests the arrays finite, so an overflow raises NotFinite (CLI exit 3) at
    the result it spoils.
    """

    __slots__ = ("re", "du")

    def __init__(self, re, du=None):
        re = self._checked(re)
        du = self._zero if du is None else self._checked(du)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)
        re.setflags(write=False)
        du.setflags(write=False)

    @classmethod
    def _checked(cls, x) -> np.ndarray:
        """A fresh float copy of finite input of this shape; the one check for array input."""
        try:
            a = np.array(x, dtype=float)
        except OverflowError as exc:
            raise NotFinite(f"{cls._kind} entries must be finite") from exc
        if a.shape != cls._shape:
            raise ValueError(f"expected a {cls._kind}, got shape {a.shape}")
        if not _finite(a.tolist() if a.ndim == 1 else a.ravel().tolist()):
            raise NotFinite(f"{cls._kind} entries must be finite")
        return a

    @classmethod
    def _raw(cls, re: np.ndarray, du: np.ndarray):
        # For arrays the library computed: no copy, but still tested finite.
        if re.ndim == 1:
            values = re.tolist() + du.tolist()
        else:
            values = re.ravel().tolist() + du.ravel().tolist()
        if not _finite(values):
            raise NotFinite(f"{cls._kind} result overflows")
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)
        re.setflags(write=False)
        du.setflags(write=False)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(self.re + other.re, self.du + other.du)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(self.re - other.re, self.du - other.du)

    def __neg__(self):
        return self._raw(-self.re, -self.du)

    def __mul__(self, k):
        if isinstance(k, Dual):
            return self._raw(k.re * self.re, k.re * self.du + k.du * self.re)
        if isinstance(k, (int, float)):
            return self._raw(k * self.re, k * self.du)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, m):
        """Row action ``(x @ m)_j = sum_i x_i m_ij``; ``n @ m`` composes; ``m @ x`` fails."""
        if not isinstance(m, DualMat3):
            return NotImplemented
        return self._raw(self.re.dot(m.re), self.re.dot(m.du) + self.du.dot(m.re))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.re.tolist()}, {self.du.tolist()})"


class DualVec3(_DualArray):
    """Element of the dual module: a screw as its motor at the canonical origin."""

    __slots__ = ()
    _shape = (3,)
    _kind = "3-vector"
    _zero = _ZERO3

    @property
    def is_pure_dual(self) -> bool:
        """True when the resultant vanishes exactly (element of eps*M)."""
        return not any(self.re.tolist())

    def component(self, i: int) -> Dual:
        return _dual(float(self.re[i]), float(self.du[i]))


def basis() -> tuple[DualVec3, DualVec3, DualVec3]:
    """The canonical positive orthonormal basis e1, e2, e3."""
    return DualVec3(_EYE[0]), DualVec3(_EYE[1]), DualVec3(_EYE[2])


def magnitude(x: DualVec3) -> float:
    """Euclidean length of the underlying 6 real components; for tolerances."""
    return math.sqrt(float(x.re.dot(x.re) + x.du.dot(x.du)))


def dot(x: DualVec3, y: DualVec3) -> Dual:
    """Dual-bilinear scalar product.

    The real part is the dot product of the resultants; the dual part is the
    screw scalar product (comoment), which no reduction point can change.
    """
    return _dual(float(x.re.dot(y.re)), float(x.re.dot(y.du) + x.du.dot(y.re)))


def cross(x: DualVec3, y: DualVec3) -> DualVec3:
    """Levi-Civita contraction over the duals; the commutator of the screws."""
    return DualVec3._raw(
        _cross3(x.re, y.re),
        _cross3(x.re, y.du) + _cross3(x.du, y.re),
    )


def mixed(x: DualVec3, y: DualVec3, z: DualVec3) -> Dual:
    """Mixed product (x cross y) o z; antisymmetric, cyclic-invariant."""
    return dot(cross(x, y), z)


def norm(x: DualVec3) -> Dual:
    """Dual modulus ``a + b*eps`` with ``norm(x)**2 == dot(x, x)``.

    Pure-dual vectors are rejected rather than given the conventional modulus
    0: every downstream use (normalization, pitch, axis) is undefined there.
    """
    return _modulus(dot(x, x))


def _modulus(ss: Dual) -> Dual:
    """norm(x) from ``ss = dot(x, x)``, for a caller that already holds the product."""
    if ss.re == 0.0:
        raise NullVector("modulus undefined for a pure-dual vector")
    return sqrt(ss)


def normalized(x: DualVec3) -> DualVec3:
    """Unit screw x / |x|; for a proper screw this is its axis line."""
    return x * norm(x).inv()


def gram_schmidt(b1: DualVec3, b2: DualVec3, b3: DualVec3) -> tuple[DualVec3, DualVec3, DualVec3]:
    """Orthonormalize a module basis, preserving span flags and orientation.

    The projection coefficients are dual numbers, so the usual real-vector
    procedure applies verbatim; it only ever divides by pivots c_i o c_i with
    invertible real part. Pivots are compared against
    ``PIVOT_TOL * scale**2`` where ``scale`` is the largest resultant length.
    """
    scale = max(_length(b.re) for b in (b1, b2, b3))
    threshold = PIVOT_TOL * scale * scale
    out: list[DualVec3] = []
    for b in (b1, b2, b3):
        c = b
        for m in out:
            c = c - dot(b, m) * m
        cc = dot(c, c)
        if cc.re <= threshold:
            raise DegenerateBasis(
                f"pivot {cc.re} below tolerance {threshold}; inputs are not a basis"
            )
        out.append(c * sqrt(cc).inv())
    return out[0], out[1], out[2]


class DualMat3(_DualArray):
    """3x3 dual matrix; orthogonal positive ones are frames of Euclidean space.

    Rows are the images of the canonical basis elements, so a frame's rows
    are the motors of its three axis lines.
    """

    __slots__ = ()
    _shape = (3, 3)
    _kind = "3x3 matrix"
    _zero = _ZERO33

    @classmethod
    def identity(cls) -> "DualMat3":
        return cls._raw(_EYE, _ZERO33)

    @classmethod
    def from_rows(cls, r1: DualVec3, r2: DualVec3, r3: DualVec3) -> "DualMat3":
        return cls._raw(np.vstack([r1.re, r2.re, r3.re]), np.vstack([r1.du, r2.du, r3.du]))

    def row(self, i: int) -> DualVec3:
        return DualVec3._raw(self.re[i], self.du[i])

    def rows(self) -> tuple[DualVec3, DualVec3, DualVec3]:
        return self.row(0), self.row(1), self.row(2)

    @property
    def T(self) -> "DualMat3":
        return DualMat3._raw(self.re.T.copy(), self.du.T.copy())


_vec = DualVec3._checked
_mat = DualMat3._checked


def hat(b: DualVec3) -> DualMat3:
    """The operator ``b cross`` under the row action: ``x @ hat(b) == cross(b, x)``."""
    return DualMat3._raw(_axial_matrix(b.re), _axial_matrix(b.du))


def vee(m: DualMat3, tol: float = DEFAULT_TOL) -> DualVec3:
    """Invert hat: the unique b with ``b cross == m``.

    Antisymmetric operators are exactly those of the form ``b cross``, and
    hat(b) holds b in the entries of _axial_matrix on both parts.
    """
    scale = max(1.0, _max_abs(m.re), _max_abs(m.du))
    if _max_abs(m.re + m.re.T) > tol * scale or _max_abs(m.du + m.du.T) > tol * scale:
        raise NotAntisymmetric("matrix is not antisymmetric within tolerance")
    return DualVec3._raw(_axial_vector(m.re), _axial_vector(m.du))


# Near t = 0 the closed forms below cancel: 1 - cos t alone carries an absolute
# error of about eps/2, a relative error of ~12 eps / t**4 in
# _versin_over_prime. Below _SERIES_BELOW all four are summed from their Taylor
# series in t**2, up to the first term that is below eps/4 of the value there.
# The cut-off stays below 0.7, a joint angle whose bytes tests/cli_golden.json
# pins, so that results above it are unchanged.
_SERIES_BELOW = 0.5


def _series(denominators: list) -> tuple:
    """Horner coefficients, highest first, of f = sum (-1)**k t**2k / d_k and of f'/t.

    Each is one correctly rounded int/int division.
    """
    terms = list(enumerate(denominators))[::-1]
    value = tuple((-1) ** k / d for k, d in terms)
    slope = tuple((-1) ** k * 2 * k / d for k, d in terms if k)
    return value, slope


_SIN_OVER, _SIN_OVER_SLOPE = _series([math.factorial(2 * k + 1) for k in range(8)])
_VERSIN_OVER, _VERSIN_OVER_SLOPE = _series([math.factorial(2 * k + 2) for k in range(8)])


def _horner(coefficients: tuple, x: float) -> float:
    acc = 0.0
    for c in coefficients:
        acc = acc * x + c
    return acc


def _sin_over(t: float) -> float:
    if abs(t) < _SERIES_BELOW:
        return _horner(_SIN_OVER, t * t)
    return math.sin(t) / t


def _sin_over_prime(t: float) -> float:
    if abs(t) < _SERIES_BELOW:
        return t * _horner(_SIN_OVER_SLOPE, t * t)
    return (t * math.cos(t) - math.sin(t)) / (t * t)


def _versin_over(t: float) -> float:
    if abs(t) < _SERIES_BELOW:
        return _horner(_VERSIN_OVER, t * t)
    return (1.0 - math.cos(t)) / (t * t)


def _versin_over_prime(t: float) -> float:
    if abs(t) < _SERIES_BELOW:
        return t * _horner(_VERSIN_OVER_SLOPE, t * t)
    return (t * t * math.sin(t) - 2.0 * t * (1.0 - math.cos(t))) / (t ** 4)


def exp_so3d(b: DualVec3) -> DualMat3:
    """Exponential of the antisymmetric operator ``b cross``.

    For a pure-dual generator the series truncates after the linear term,
    because hat of a pure-dual vector squares to zero. Otherwise the dual
    Rodrigues form applies, with sin(phi)/phi and (1-cos(phi))/phi**2
    extended to the dual modulus phi = |b| (series-evaluated near zero real
    angle to avoid cancellation).
    """
    h_re, h_du = _axial_matrix(b.re), _axial_matrix(b.du)
    if b.is_pure_dual:
        # Adding zeros turns the -0.0 entries of hat(b) into 0.0, as I + hat(b) does.
        return DualMat3._raw(_EYE + h_re, _ZERO33 + h_du)
    phi = norm(b)
    c1 = _dual(_sin_over(phi.re), phi.du * _sin_over_prime(phi.re))
    c2 = _dual(_versin_over(phi.re), phi.du * _versin_over_prime(phi.re))
    h2_re = h_re.dot(h_re)
    h2_du = h_re.dot(h_du) + h_du.dot(h_re)
    re = _EYE + c1.re * h_re + c2.re * h2_re
    du = c1.re * h_du + c1.du * h_re + c2.re * h2_du + c2.du * h2_re
    return DualMat3._raw(re, du)


def is_frame(u: DualMat3, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonal over the duals with positively oriented real part.

    The dual Gram block is compared against ``tol`` times the largest dual
    entry (at least 1), since it grows with the frame's translation. Once
    the real part is orthogonal its determinant is +-1, so the sign of the
    triple product of its rows is the orientation.
    """
    re, du = u.re, u.du
    if _max_abs(re.dot(re.T) - _EYE) > tol:
        return False
    # The dual Gram block re du^T + du re^T is y + y^T.
    y = re.dot(du.T)
    du_error = _max_abs(y + y.T)
    if du_error > tol and du_error > tol * _max_abs(du):
        return False
    (a, b, c), (d, e, f), (g, h, i) = re.tolist()
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g) > 0.0


def _require_frame(u: DualMat3, tol: float) -> None:
    if not is_frame(u, tol):
        raise NotAFrame("matrix fails the orthogonality/orientation frame check")


def frame_translation(u: DualMat3, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Displacement of the frame's point from the canonical origin.

    With O the real part, S = du(U) O^T is antisymmetric and encodes the
    displacement componentwise in the frame's own basis: d_k =
    (1/2) eps_ijk S_ij. Written that way, translations compose like rigid
    motions: frame_translation(U @ V) equals
    frame_translation(U) + re(U) @ frame_translation(V).
    """
    _require_frame(u, tol)
    return _translation(u)


def _translation(u: DualMat3) -> np.ndarray:
    """frame_translation without its frame check, for a frame the library built."""
    return _axial_vector(u.du.dot(u.re.T))


def displacement(
    frame_a: DualMat3,
    frame_b: DualMat3,
    tol: float = DEFAULT_TOL,
    prerotate: bool = False,
) -> np.ndarray:
    """Displacement between the points of two frames, in canonical coordinates.

    Computed as the pure-dual half-sum (1/2) sum_i m_i cross m_i' over
    corresponding rows, which requires both frames to project onto the same
    real basis. With ``prerotate`` the second frame is first realigned by the
    real special orthogonal matrix re(a) re(b)^T; otherwise mismatched
    projections raise ProjectionMismatch. ``tol`` judges the frames, not what is built from them.
    """
    _require_frame(frame_a, tol)
    _require_frame(frame_b, tol)
    if _max_abs(frame_a.re - frame_b.re) > tol:
        if not prerotate:
            raise ProjectionMismatch("frames project to different real bases")
        q = frame_a.re.dot(frame_b.re.T)
        frame_b = DualMat3._raw(q.dot(frame_b.re), q.dot(frame_b.du))
    total = DualVec3._raw(_ZERO3, _ZERO3)
    for i in range(3):
        total = total + cross(frame_a.row(i), frame_b.row(i))
    return 0.5 * total.du
