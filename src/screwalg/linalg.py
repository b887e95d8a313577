"""The rank-3 free module of dual 3-vectors and its rotation group.

Coordinates are always taken relative to one fixed right-handed orthonormal
basis, the *canonical frame*. Under that convention a dual vector
``re + eps*du`` is exactly the motor of a screw reduced at the canonical
origin: ``re`` is the resultant, ``du`` is the field value at the origin.
Dual matrices hold frames as rows (row i is the image of the i-th canonical
basis element) and act on vectors from the left of a row vector,
``apply(M, x)_j = sum_i x_i M_ij``.
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
    NotPureDual,
    NullVector,
    ProjectionMismatch,
)

PIVOT_TOL = 1e-12


def _vec(x) -> np.ndarray:
    """A fresh float copy of a finite 3-vector; the check for vector input."""
    try:
        a = np.array(x, dtype=float)
    except OverflowError as exc:
        raise NotFinite("vector components must be finite") from exc
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotFinite("vector components must be finite")
    return a


def _mat(x) -> np.ndarray:
    """A fresh float copy of a finite 3x3 matrix; the check for matrix input."""
    try:
        a = np.array(x, dtype=float)
    except OverflowError as exc:
        raise NotFinite("matrix entries must be finite") from exc
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix entries must be finite")
    return a


def _axial_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix A with row action x @ A = v x x, i.e. A_ij = eps_aij v_a."""
    return np.array([
        [0.0, v[2], -v[1]],
        [-v[2], 0.0, v[0]],
        [v[1], -v[0], 0.0],
    ])


def _axial_vector(a: np.ndarray) -> np.ndarray:
    """Inverse of _axial_matrix on the antisymmetric part: v_k = (1/2) eps_kij a_ij."""
    return 0.5 * np.array([
        a[1, 2] - a[2, 1],
        a[2, 0] - a[0, 2],
        a[0, 1] - a[1, 0],
    ])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross pays ~20x overhead on single 3-vectors; this is the hot path.
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _parallel(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Whether real 3-vectors are parallel: |u x v| <= tol |u| |v|."""
    c = _cross3(u, v)
    return math.sqrt(c @ c) <= tol * math.sqrt(u @ u) * math.sqrt(v @ v)


class DualVec3:
    """Element of the dual module: a screw as its motor at the canonical origin."""

    __slots__ = ("re", "du")

    def __init__(self, re, du=None):
        object.__setattr__(self, "re", _vec(re))
        object.__setattr__(self, "du", np.zeros(3) if du is None else _vec(du))
        self.re.setflags(write=False)
        self.du.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("DualVec3 is immutable")

    @classmethod
    def _raw(cls, re: np.ndarray, du: np.ndarray) -> "DualVec3":
        # Fast path for freshly computed arrays; skips validation and copy.
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)
        re.setflags(write=False)
        du.setflags(write=False)
        return self

    @property
    def is_pure_dual(self) -> bool:
        """True when the resultant vanishes exactly (element of eps*M)."""
        return not self.re.any()

    def component(self, i: int) -> Dual:
        return _dual(float(self.re[i]), float(self.du[i]))

    def __add__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3._raw(self.re + other.re, self.du + other.du)

    def __sub__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3._raw(self.re - other.re, self.du - other.du)

    def __neg__(self) -> "DualVec3":
        return DualVec3._raw(-self.re, -self.du)

    def __mul__(self, k) -> "DualVec3":
        if isinstance(k, Dual):
            return DualVec3._raw(k.re * self.re, k.re * self.du + k.du * self.re)
        if isinstance(k, (int, float)):
            return DualVec3._raw(k * self.re, k * self.du)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DualVec3({self.re.tolist()}, {self.du.tolist()})"


def basis() -> tuple[DualVec3, DualVec3, DualVec3]:
    """The canonical positive orthonormal basis e1, e2, e3."""
    eye = np.eye(3)
    return DualVec3(eye[0]), DualVec3(eye[1]), DualVec3(eye[2])


def magnitude(x: DualVec3) -> float:
    """Euclidean length of the underlying 6 real components; for tolerances."""
    return math.sqrt(float(x.re @ x.re + x.du @ x.du))


def dot(x: DualVec3, y: DualVec3) -> Dual:
    """Dual-bilinear scalar product.

    The real part is the dot product of the resultants; the dual part is the
    screw scalar product (comoment), which no reduction point can change.
    """
    return _dual(float(x.re @ y.re), float(x.re @ y.du + x.du @ y.re))


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
    ss = dot(x, x)
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
    scale = max(float(np.linalg.norm(b.re)) for b in (b1, b2, b3))
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


class DualMat3:
    """3x3 dual matrix; orthogonal positive ones are frames of Euclidean space.

    Rows are the images of the canonical basis elements, so a frame's rows
    are the motors of its three axis lines.
    """

    __slots__ = ("re", "du")

    def __init__(self, re, du=None):
        object.__setattr__(self, "re", _mat(re))
        object.__setattr__(self, "du", np.zeros((3, 3)) if du is None else _mat(du))
        self.re.setflags(write=False)
        self.du.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("DualMat3 is immutable")

    @classmethod
    def _raw(cls, re: np.ndarray, du: np.ndarray) -> "DualMat3":
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)
        re.setflags(write=False)
        du.setflags(write=False)
        return self

    @classmethod
    def identity(cls) -> "DualMat3":
        return cls(np.eye(3))

    @classmethod
    def from_rows(cls, r1: DualVec3, r2: DualVec3, r3: DualVec3) -> "DualMat3":
        return cls(np.vstack([r1.re, r2.re, r3.re]), np.vstack([r1.du, r2.du, r3.du]))

    def row(self, i: int) -> DualVec3:
        return DualVec3._raw(self.re[i], self.du[i])

    def rows(self) -> tuple[DualVec3, DualVec3, DualVec3]:
        return self.row(0), self.row(1), self.row(2)

    @property
    def T(self) -> "DualMat3":
        return DualMat3._raw(self.re.T.copy(), self.du.T.copy())

    def __matmul__(self, other: "DualMat3") -> "DualMat3":
        return DualMat3._raw(self.re @ other.re, self.re @ other.du + self.du @ other.re)

    def __add__(self, other: "DualMat3") -> "DualMat3":
        return DualMat3._raw(self.re + other.re, self.du + other.du)

    def __sub__(self, other: "DualMat3") -> "DualMat3":
        return DualMat3._raw(self.re - other.re, self.du - other.du)

    def __repr__(self) -> str:
        return f"DualMat3({self.re.tolist()}, {self.du.tolist()})"


def mat_apply(m: DualMat3, x: DualVec3) -> DualVec3:
    """Row action of a dual matrix on a dual vector."""
    return DualVec3._raw(x.re @ m.re, x.re @ m.du + x.du @ m.re)


def hat(b: DualVec3) -> DualMat3:
    """The operator ``b cross``: mat_apply(hat(b), x) == cross(b, x)."""
    return DualMat3._raw(_axial_matrix(b.re), _axial_matrix(b.du))


def vee(m: DualMat3, tol: float = DEFAULT_TOL) -> DualVec3:
    """Invert hat: the unique b with ``b cross == m``.

    Antisymmetric operators are exactly those of the form ``b cross``, and
    hat(b) holds b in the entries of _axial_matrix on both parts.
    """
    scale = max(1.0, float(np.abs(m.re).max()), float(np.abs(m.du).max()))
    if (
        float(np.abs(m.re + m.re.T).max()) > tol * scale
        or float(np.abs(m.du + m.du.T).max()) > tol * scale
    ):
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
    h = hat(b)
    if b.is_pure_dual:
        return DualMat3._raw(np.eye(3), np.zeros((3, 3))) + h
    phi = norm(b)
    c1 = _dual(_sin_over(phi.re), phi.du * _sin_over_prime(phi.re))
    c2 = _dual(_versin_over(phi.re), phi.du * _versin_over_prime(phi.re))
    h2 = h @ h
    re = np.eye(3) + c1.re * h.re + c2.re * h2.re
    du = c1.re * h.du + c1.du * h.re + c2.re * h2.du + c2.du * h2.re
    if not (np.isfinite(re).all() and np.isfinite(du).all()):
        raise NotFinite("exponential overflows")
    return DualMat3._raw(re, du)


def is_frame(u: DualMat3, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonal over the duals with positively oriented real part.

    The dual Gram block is compared against ``tol`` times the largest dual
    entry (at least 1), since it grows with the frame's translation.
    """
    gram = u @ u.T
    if float(np.abs(gram.re - np.eye(3)).max()) > tol:
        return False
    du_error = float(np.abs(gram.du).max())
    if du_error > tol and du_error > tol * float(np.abs(u.du).max()):
        return False
    return float(np.linalg.det(u.re)) > 0.0


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
    return _axial_vector(u.du @ u.re.T)


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
    projections raise ProjectionMismatch.
    """
    _require_frame(frame_a, tol)
    _require_frame(frame_b, tol)
    if float(np.abs(frame_a.re - frame_b.re).max()) > tol:
        if not prerotate:
            raise ProjectionMismatch("frames project to different real bases")
        q = frame_a.re @ frame_b.re.T
        frame_b = DualMat3._raw(q @ frame_b.re, q @ frame_b.du)
        if float(np.abs(frame_a.re - frame_b.re).max()) > tol:
            raise ProjectionMismatch("projections still differ after pre-rotation")
    total = DualVec3._raw(np.zeros(3), np.zeros(3))
    for i in range(3):
        total = total + cross(frame_a.row(i), frame_b.row(i))
    half = 0.5 * total
    if float(np.abs(half.re).max()) > tol:
        raise NotPureDual("half-sum of row crosses has a residual resultant")
    return half.du.copy()
