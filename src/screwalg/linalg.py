"""The rank-3 free module of dual 3-vectors and its rotation group.

Coordinates are always taken relative to one fixed right-handed orthonormal
basis, the *canonical frame*. Under that convention a dual vector
``re + eps*du`` is exactly the motor of a screw reduced at the canonical
origin: ``re`` is the resultant, ``du`` is the field value at the origin.
Dual matrices hold frames as rows (row i is the image of the i-th canonical
basis element) and act on row vectors from the right,
``(x @ M)_j = sum_i x_i M_ij``.

By the transference principle a screw is six real numbers and every dual
formula is the real one applied to components. So values are held as tuples
of Python floats: a real 3-vector as 3 of them, a 3x3 matrix as 9 in row
order, and a ``DualVec3`` or ``DualMat3`` as one such tuple per part. The
kernels below take those tuples and use only ``+ - * /``. numpy is imported
only where arrays cross the boundary: input that is not a plain list or tuple
of numbers (the checked constructor) and the arrays handed out.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import TYPE_CHECKING

from .dual import DEFAULT_TOL, Dual, _droot, _dual, _new, _Value, sqrt
from .errors import (
    DegenerateBasis,
    NotAFrame,
    NotAntisymmetric,
    NotFinite,
    ProjectionMismatch,
)

if TYPE_CHECKING:
    import numpy as np

_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_ZERO3 = (0.0, 0.0, 0.0)
_ZERO33 = (0.0,) * 9


# -- kernels on component tuples ----------------------------------------------

def _finite(values) -> bool:
    """Whether every float in the tuple is finite."""
    return all(map(math.isfinite, values))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _scale(k: float, a: tuple) -> tuple:
    return tuple([k * c for c in a])


def _over(v: tuple, k: float) -> tuple:
    """The 3-vector v / k. No finite result exists for k = 0, which is refused as an overflow."""
    if k == 0.0:
        raise NotFinite(DualVec3._kind + _OVERFLOWS)
    a, b, c = v
    return (a / k, b / k, c / k)


def _max_abs(a: tuple) -> float:
    return max(map(abs, a))


def _dot3(a: tuple, b: tuple) -> float:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def _ddot(a: tuple, ad: tuple, b: tuple, bd: tuple) -> tuple:
    """(re, du) of the dual dot product of a + eps ad and b + eps bd: a . b, and a . bd + ad . b."""
    a0, a1, a2 = a
    p0, p1, p2 = ad
    b0, b1, b2 = b
    q0, q1, q2 = bd
    return (a0 * b0 + a1 * b1 + a2 * b2,
            (a0 * q0 + a1 * q1 + a2 * q2) + (p0 * b0 + p1 * b1 + p2 * b2))


def _length(a: tuple) -> float:
    """Euclidean length of a real 3-vector, the square root of _dot3(a, a)."""
    a0, a1, a2 = a
    return math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)


def _cross(a: tuple, b: tuple) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _cross_parts(a: tuple, ad: tuple, b: tuple, bd: tuple) -> tuple:
    """(re, du) of the cross product of a + eps ad and b + eps bd: a x b, and a x bd + ad x b."""
    a0, a1, a2 = a
    p0, p1, p2 = ad
    b0, b1, b2 = b
    q0, q1, q2 = bd
    return (
        (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
        ((a1 * q2 - a2 * q1) + (p1 * b2 - p2 * b1),
         (a2 * q0 - a0 * q2) + (p2 * b0 - p0 * b2),
         (a0 * q1 - a1 * q0) + (p0 * b1 - p1 * b0)),
    )


def _triple(a: tuple, b: tuple, c: tuple) -> float:
    """The real triple product (a x b) . c."""
    return _dot3(_cross(a, b), c)


# The moment of a screw built from nothing: -0.0 + x is x for every float x,
# so _moved(re, _NO_MOMENT, t) is t x re down to the sign of a zero.
_NO_MOMENT = (-0.0, -0.0, -0.0)


def _moved(re: tuple, du: tuple, t: tuple) -> tuple:
    """du + t x re: the dual part of (re + eps du) @ exp(eps hat(t)), that is
    of x @ frame_from_point(t), the screw carried along the translation by t.

    The one change of reduction point: the moment of the same screw about the
    point -t. The resultant does not move, and dot of two moved screws is dot
    of the originals in both parts.
    """
    r0, r1, r2 = re
    d0, d1, d2 = du
    t0, t1, t2 = t
    return (d0 + (t1 * r2 - t2 * r1), d1 + (t2 * r0 - t0 * r2), d2 + (t0 * r1 - t1 * r0))


def _axis_foot(re: tuple, du: tuple) -> tuple:
    """re x du / (re . re), the axis point nearest the origin; a zero re is refused as an overflow."""
    return _over(_cross(re, du), _dot3(re, re))


# The largest resultant component of a screw in range lies in
# [2**-_RANGE, 2**_RANGE]; see _in_range.
_RANGE = 150
_SMALLEST = 2.0 ** -_RANGE
_LARGEST = 2.0 ** _RANGE


def _in_range(x) -> tuple:
    """(x', k): x times 2**k, for a real 3-vector or a DualVec3.

    The one place the library handles a screw's size. Where the largest
    resultant component of x lies in [2**-150, 2**150], or is 0, x comes back
    untouched with k = 0; otherwise k is the shift of least size that brings it
    into that range. Why that range: no formula the library evaluates on
    screws takes a product of more than four resultant lengths (c**2 + s**2 in
    dual_angle, tol |u| |v| |w| in _coplanar), and within 2**+-604 those stay
    normal floats, with over 400 binary orders to spare for moments far from
    their resultants and for ``tol``. A power of two moves no bit of a normal
    float, so a function that takes each input into range on entry answers bit
    for bit the same for any power-of-two multiple of it, and at normal sizes
    pays only this test. A dual part scaled past the largest float raises
    NotFinite.
    """
    a, b, c = x if type(x) is tuple else x._re
    size, b, c = abs(a), abs(b), abs(c)
    if b > size:
        size = b
    if c > size:
        size = c
    if _SMALLEST <= size <= _LARGEST or size == 0.0:
        return x, 0
    e = math.frexp(size)[1]  # 2**(e - 1) <= size < 2**e
    k = 1 - _RANGE - e if size < _SMALLEST else _RANGE - e
    if type(x) is tuple:
        return _scaled(x, k, "3-vector"), k
    return DualVec3._raw(_scaled(x._re, k, "3-vector"), _scaled(x._du, k, "3-vector")), k


def _scaled(values: tuple, k: int, what: str) -> tuple:
    """Each float of values times 2**k; the one ldexp of the library.

    _in_range scales a screw by 2**k with it, and a function that hands back a
    length of a screw it took into range undoes that with -k, only where k is
    not 0. A result beyond the largest float raises NotFinite, naming ``what``.
    """
    try:
        return tuple([math.ldexp(c, k) for c in values])
    except OverflowError as exc:
        raise NotFinite(f"{what} overflows") from exc


def _parallel(
    u: tuple, v: tuple, tol: float, lu: float | None = None, lv: float | None = None
) -> bool:
    """Whether real 3-vectors are parallel: |u x v| <= tol |u| |v|.

    With _coplanar, the one place the library decides that resultants are
    dependent. The cross product's length is taken with math.hypot, which
    squares no tiny value. ``lu`` and ``lv``, where given, are _length(u) and
    _length(v), taken once by a caller that tests one vector against several.
    """
    if lu is None:
        lu = _length(u)
    if lv is None:
        lv = _length(v)
    return math.hypot(*_cross(u, v)) <= tol * lu * lv


def _coplanar(u: tuple, v: tuple, w: tuple, tol: float) -> bool:
    """Whether real 3-vectors are linearly dependent: |[u v w]| <= tol |u| |v| |w|.

    With _parallel, the one place the library decides that resultants are dependent.
    """
    return abs(_triple(u, v, w)) <= tol * _length(u) * _length(v) * _length(w)


def _dual_vecmat(v: tuple, vd: tuple, m: tuple, md: tuple) -> tuple:
    """(re, du) of the row action (v + eps vd) @ (m + eps md), in one pass.

    Each part is summed over the rows of the matrix in order, and du is
    v @ md + vd @ m, the two products added last.
    """
    v0, v1, v2 = v
    w0, w1, w2 = vd
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    n00, n01, n02, n10, n11, n12, n20, n21, n22 = md
    return (
        (v0 * m00 + v1 * m10 + v2 * m20,
         v0 * m01 + v1 * m11 + v2 * m21,
         v0 * m02 + v1 * m12 + v2 * m22),
        ((v0 * n00 + v1 * n10 + v2 * n20) + (w0 * m00 + w1 * m10 + w2 * m20),
         (v0 * n01 + v1 * n11 + v2 * n21) + (w0 * m01 + w1 * m11 + w2 * m21),
         (v0 * n02 + v1 * n12 + v2 * n22) + (w0 * m02 + w1 * m12 + w2 * m22)),
    )


def _dual_matmat(a: tuple, ad: tuple, b: tuple, bd: tuple) -> tuple:
    """(re, du) of the product (a + eps ad) @ (b + eps bd), in one pass.

    Each row of a is acted on by b as in _dual_vecmat, so du is a @ bd + ad @ b
    entry by entry.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = ad
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = bd
    return (
        (a00 * b00 + a01 * b10 + a02 * b20,
         a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22,
         a10 * b00 + a11 * b10 + a12 * b20,
         a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22,
         a20 * b00 + a21 * b10 + a22 * b20,
         a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
        ((a00 * e00 + a01 * e10 + a02 * e20) + (d00 * b00 + d01 * b10 + d02 * b20),
         (a00 * e01 + a01 * e11 + a02 * e21) + (d00 * b01 + d01 * b11 + d02 * b21),
         (a00 * e02 + a01 * e12 + a02 * e22) + (d00 * b02 + d01 * b12 + d02 * b22),
         (a10 * e00 + a11 * e10 + a12 * e20) + (d10 * b00 + d11 * b10 + d12 * b20),
         (a10 * e01 + a11 * e11 + a12 * e21) + (d10 * b01 + d11 * b11 + d12 * b21),
         (a10 * e02 + a11 * e12 + a12 * e22) + (d10 * b02 + d11 * b12 + d12 * b22),
         (a20 * e00 + a21 * e10 + a22 * e20) + (d20 * b00 + d21 * b10 + d22 * b20),
         (a20 * e01 + a21 * e11 + a22 * e21) + (d20 * b01 + d21 * b11 + d22 * b21),
         (a20 * e02 + a21 * e12 + a22 * e22) + (d20 * b02 + d21 * b12 + d22 * b22)),
    )


def _transpose(a: tuple) -> tuple:
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    return (a00, a10, a20, a01, a11, a21, a02, a12, a22)


def _axial_matrix(v: tuple) -> tuple:
    """Matrix A with row action x @ A = v x x, i.e. A_ij = eps_aij v_a."""
    x, y, z = v
    return (0.0, z, -y, -z, 0.0, x, y, -x, 0.0)


def _axial_vector(a: tuple) -> tuple:
    """Inverse of _axial_matrix on the antisymmetric part: v_k = (1/2) eps_kij a_ij."""
    _, a01, a02, a10, _, a12, a20, a21, _ = a
    return (0.5 * (a12 - a21), 0.5 * (a20 - a02), 0.5 * (a01 - a10))


_SEQUENCES = frozenset((list, tuple))
_NUMBERS = frozenset((int, float))


def _is_plain(x) -> bool:
    """Whether x is a list or tuple of 3 ints or floats."""
    return (type(x) in _SEQUENCES and len(x) == 3
            and type(x[0]) in _NUMBERS and type(x[1]) in _NUMBERS and type(x[2]) in _NUMBERS)


def _plain(x, rows: bool):
    """The floats of a list or tuple of 3 ints or floats (of 3 such rows with
    ``rows``), or None for any other input. The whole shape is checked before
    any entry is read, so an int beyond the floats raises OverflowError only
    in input of this shape."""
    if rows:
        if type(x) not in _SEQUENCES or len(x) != 3 or not all(map(_is_plain, x)):
            return None
        return tuple([float(c) for row in x for c in row])
    if not _is_plain(x):
        return None
    a, b, c = x
    return (float(a), float(b), float(c))


def _nested(a: tuple) -> list:
    """A 3- or 9-tuple as the (nested) list of its array."""
    return list(a) if len(a) == 3 else [list(a[0:3]), list(a[3:6]), list(a[6:9])]


class _DualArray(_Value):
    """A pair ``re + eps*du`` of real component tuples of one fixed shape.

    By the transference principle a real vector or matrix formula holds over
    the duals unchanged, so module elements (DualVec3) and module maps
    (DualMat3) share everything here. A subclass declares its ``_shape``,
    the ``_kind`` its errors name, its ``_zero``, its own accessors and
    ``_act``, the dual kernel of its row action ``@``: it takes both parts of
    each operand and returns both parts of the result in one pass.

    Validation: the constructor coerces its input once and refuses anything
    that is not finite or not of the subclass's shape. Every result the
    library builds (``+``, ``-``, ``*``, ``@``, ``cross``, rows of a
    ``DualMat3``, ...) goes through ``_raw``, which skips the coercion but
    still tests the components finite, so an overflow raises NotFinite (CLI
    exit 3) at the result it spoils. ``re`` and ``du`` are fresh read-only
    float64 arrays on every access. An array equals only itself.
    """

    __slots__ = _fields = ("_re", "_du")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, re, du=None):
        _set_re(self, self._checked(re))
        _set_du(self, self._zero if du is None else self._checked(du))

    @classmethod
    def _checked(cls, x) -> tuple:
        """The components of finite input of this shape; the one check for array input.

        A list or tuple of this shape holding ints and floats is read with
        float(); numpy coerces any other input and keeps its refusals.
        """
        try:
            values = _plain(x, len(cls._shape) == 2)
            if values is None:
                import numpy as np

                a = np.array(x, dtype=float)
                if a.shape != cls._shape:
                    raise ValueError(f"expected a {cls._kind}, got shape {a.shape}")
                values = tuple(a.ravel().tolist())
        except OverflowError as exc:
            raise NotFinite(f"{cls._kind} entries must be finite") from exc
        if not _finite(values):
            raise NotFinite(f"{cls._kind} entries must be finite")
        return values

    @classmethod
    def _raw(cls, re: tuple, du: tuple):
        # For components the library computed: no coercion, but still tested
        # finite (_finite spelled out, as every result of the library comes here).
        if not (all(map(math.isfinite, re)) and all(map(math.isfinite, du))):
            raise NotFinite(cls._kind + _OVERFLOWS)
        self = _new(cls)
        _set_re(self, re)
        _set_du(self, du)
        return self

    @property
    def re(self) -> np.ndarray:
        """The real part, as a fresh read-only float64 array."""
        return self._array(self._re)

    @property
    def du(self) -> np.ndarray:
        """The dual part, as a fresh read-only float64 array."""
        return self._array(self._du)

    def _array(self, values: tuple) -> np.ndarray:
        import numpy as np

        a = np.array(values, dtype=float).reshape(self._shape)
        a.setflags(write=False)
        return a

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(_add(self._re, other._re), _add(self._du, other._du))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(_sub(self._re, other._re), _sub(self._du, other._du))

    def __neg__(self):
        return self._raw(_scale(-1.0, self._re), _scale(-1.0, self._du))

    def __mul__(self, k):
        if isinstance(k, Dual):
            a, b = k.re, k.du
            re = self._re
            return self._raw(tuple([a * c for c in re]),
                             tuple([a * d + b * c for c, d in zip(re, self._du)]))
        if isinstance(k, (int, float)):
            k = float(k)
            return self._raw(_scale(k, self._re), _scale(k, self._du))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, m):
        """Row action ``(x @ m)_j = sum_i x_i m_ij``; ``n @ m`` composes; ``m @ x`` fails."""
        if not isinstance(m, DualMat3):
            return NotImplemented
        return self._raw(*self._act(self._re, self._du, m._re, m._du))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({_nested(self._re)}, {_nested(self._du)})"


_set_re, _set_du = _DualArray._setters

_OVERFLOWS = " result overflows"


class DualVec3(_DualArray):
    """Element of the dual module: a screw as its motor at the canonical origin."""

    __slots__ = ()
    _shape = (3,)
    _kind = "3-vector"
    _zero = _ZERO3
    _act = staticmethod(_dual_vecmat)

    @property
    def is_pure_dual(self) -> bool:
        """True when the resultant vanishes exactly (element of eps*M)."""
        return not any(self._re)

    def component(self, i: int) -> Dual:
        return _dual(self._re[i], self._du[i])


def basis() -> tuple[DualVec3, DualVec3, DualVec3]:
    """The canonical positive orthonormal basis e1, e2, e3."""
    return tuple(DualVec3._raw(_EYE[i:i + 3], _ZERO3) for i in (0, 3, 6))


def dot(x: DualVec3, y: DualVec3) -> Dual:
    """Dual-bilinear scalar product.

    The real part is the dot product of the resultants; the dual part is the
    screw scalar product (comoment), which no reduction point can change.
    """
    return _dual(*_ddot(x._re, x._du, y._re, y._du))


def cross(x: DualVec3, y: DualVec3) -> DualVec3:
    """Levi-Civita contraction over the duals; the commutator of the screws."""
    return DualVec3._raw(*_cross_parts(x._re, x._du, y._re, y._du))


def mixed(x: DualVec3, y: DualVec3, z: DualVec3) -> Dual:
    """Mixed product (x cross y) o z; antisymmetric, cyclic-invariant."""
    return dot(cross(x, y), z)


def norm(x: DualVec3) -> Dual:
    """Dual modulus ``a + b*eps`` with ``norm(x)**2 == dot(x, x)``.

    Pure-dual vectors are rejected rather than given the conventional modulus
    0: every downstream use (normalization, pitch, axis) is undefined there.
    """
    x, k = _in_range(x)
    n = _modulus(dot(x, x))
    return _dual(*_scaled((n.re, n.du), -k, "modulus")) if k else n


def _modulus(ss: Dual) -> Dual:
    """norm(x) from ``ss = dot(x, x)``, for a caller that already holds the product."""
    return _dual(*_droot(ss.re, ss.du))


def normalized(x: DualVec3) -> DualVec3:
    """Unit screw x / |x|; for a proper screw this is its axis line."""
    x, _ = _in_range(x)
    return x * _modulus(dot(x, x)).inv()


def gram_schmidt(b1: DualVec3, b2: DualVec3, b3: DualVec3) -> tuple[DualVec3, DualVec3, DualVec3]:
    """Orthonormalize a module basis, preserving span flags and orientation.

    By the transference principle Gram-Schmidt in the rank-3 oriented module
    has the real 3-D closed form: e1 = b1/|b1|, e2 the unit along n x e1 with
    n = (b1 x b2)/|b1 x b2|, and e3 = +-e1 x e2 by the sign of [r1 r2 r3]. The
    cross product of orthogonal units is a unit orthogonal to both, so no step
    loses orthogonality near dependence, as projections do, and no pivot floor
    is needed: the inputs are refused as DegenerateBasis exactly where their
    resultants are dependent (linalg._coplanar at DEFAULT_TOL, as in
    independent_over_D). n x e1 is normalized although n and e1 are units:
    where b1 and b2 are nearly parallel, b1 x b2 cancels, which tilts n towards
    e1 by up to eps / sin(theta_12). Each input is brought into range on its own.
    """
    b1, _ = _in_range(b1)
    b2, _ = _in_range(b2)
    b3, _ = _in_range(b3)
    r1, r2, r3 = b1._re, b2._re, b3._re
    if _coplanar(r1, r2, r3, DEFAULT_TOL):
        # The ratio does not change with the inputs' sizes, so it reads the same
        # for the resultants in range as for the caller's. A zero resultant spans no volume.
        lengths = _length(r1) * _length(r2) * _length(r3)
        ratio = abs(_triple(r1, r2, r3)) / lengths if lengths else 0.0
        raise DegenerateBasis(
            f"|[r1 r2 r3]| / (|r1| |r2| |r3|) = {ratio} is at most {DEFAULT_TOL}; "
            "inputs are not a basis"
        )
    e1 = normalized(b1)
    e2 = normalized(cross(normalized(cross(b1, b2)), e1))
    e3 = cross(e1, e2)
    return e1, e2, e3 if _triple(r1, r2, r3) > 0.0 else -e3


class DualMat3(_DualArray):
    """3x3 dual matrix; orthogonal positive ones are frames of Euclidean space.

    Rows are the images of the canonical basis elements, so a frame's rows
    are the motors of its three axis lines.
    """

    __slots__ = ()
    _shape = (3, 3)
    _kind = "3x3 matrix"
    _zero = _ZERO33
    _act = staticmethod(_dual_matmat)

    @classmethod
    def identity(cls) -> "DualMat3":
        return cls._raw(_EYE, _ZERO33)

    @classmethod
    def from_rows(cls, r1: DualVec3, r2: DualVec3, r3: DualVec3) -> "DualMat3":
        return cls._raw(r1._re + r2._re + r3._re, r1._du + r2._du + r3._du)

    def row(self, i: int) -> DualVec3:
        j = 3 * i
        return DualVec3._raw(self._re[j:j + 3], self._du[j:j + 3])

    def rows(self) -> tuple[DualVec3, DualVec3, DualVec3]:
        return self.row(0), self.row(1), self.row(2)

    @property
    def T(self) -> "DualMat3":
        return DualMat3._raw(_transpose(self._re), _transpose(self._du))


_vec = DualVec3._checked
_mat = DualMat3._checked


def hat(b: DualVec3) -> DualMat3:
    """The operator ``b cross`` under the row action: ``x @ hat(b) == cross(b, x)``."""
    return DualMat3._raw(_axial_matrix(b._re), _axial_matrix(b._du))


def vee(m: DualMat3, tol: float = DEFAULT_TOL) -> DualVec3:
    """Invert hat: the unique b with ``b cross == m``.

    Antisymmetric operators are exactly those of the form ``b cross``, and hat(b) holds b
    in the entries of _axial_matrix; the symmetric part may reach ``tol`` times the largest entry.
    """
    re, du = m._re, m._du
    bound = tol * max(_max_abs(re), _max_abs(du))
    if _max_abs(_add(re, _transpose(re))) > bound or _max_abs(_add(du, _transpose(du))) > bound:
        raise NotAntisymmetric("matrix is not antisymmetric within tolerance")
    return DualVec3._raw(_axial_vector(re), _axial_vector(du))


# Near t = 0 the closed forms below cancel: 1 - cos t alone carries an absolute
# error of about eps/2, a relative error of ~12 eps / t**4 in the slope of
# (1 - cos t)/t**2. Below a real angle of _SERIES_BELOW both coefficients are
# summed from their Taylor series in t**2, up to the first term that is below
# eps/4 of the value there, and of the slope there. The cut-off stays below 0.7,
# a joint angle tests/cli_golden.json pins.
_SERIES_BELOW = 0.5


def _series(denominators: list) -> tuple:
    """Horner coefficients, highest first, of F(q) = sum (-1)**k q**k / d_k.

    Each is one correctly rounded int/int division.
    """
    return tuple((-1) ** k / d for k, d in reversed(list(enumerate(denominators))))


_SIN_OVER = _series([math.factorial(2 * k + 1) for k in range(8)])
_VERSIN_OVER = _series([math.factorial(2 * k + 2) for k in range(8)])


def _horner(coefficients: tuple, q: Dual) -> Dual:
    """The series F at a dual argument: F(q.re) + eps q.du F'(q.re)."""
    x, dx = q.re, q.du
    a = b = 0.0
    for c in coefficients:
        a, b = a * x + c, b * x + a * dx
    return _dual(a, b)


def _rodrigues(q: Dual) -> tuple[Dual, Dual]:
    """sin(phi)/phi and (1 - cos phi)/phi**2 at the dual angle phi with phi o phi = q.

    Below the cut-off both are their series F in phi**2 = q, evaluated over
    the duals with no square root, so a q.re that underflows to 0 still gives
    the coefficients of a null turn.
    """
    if q.re < _SERIES_BELOW * _SERIES_BELOW:
        return _horner(_SIN_OVER, q), _horner(_VERSIN_OVER, q)
    phi = sqrt(q)
    t = phi.re
    sin_t, cos_t = math.sin(t), math.cos(t)
    try:
        d_versin = (t * t * sin_t - 2.0 * t * (1.0 - cos_t)) / (t ** 4)
    except OverflowError:  # t ** 4 raises above 2**256, where t * t is still finite
        d_versin = (sin_t - 2.0 * (1.0 - cos_t) / t) / (t * t)
    return (
        _dual(sin_t / t, phi.du * ((t * cos_t - sin_t) / (t * t))),
        _dual((1.0 - cos_t) / (t * t), phi.du * d_versin),
    )


def exp_so3d(b: DualVec3) -> DualMat3:
    """Exponential of the antisymmetric operator ``b cross``.

    The dual Rodrigues form I + c1 hat(b) + c2 hat(b)**2, with
    c1 = sin(phi)/phi and c2 = (1-cos(phi))/phi**2 extended to the dual
    angle phi, phi o phi = b o b (series-evaluated near zero real angle to
    avoid cancellation). For a pure-dual generator c1 = 1 and hat(b)**2 = 0,
    so the series truncates after the linear term.
    """
    c1, c2 = _rodrigues(dot(b, b))
    return DualMat3._raw(*_rodrigues_matrix(b._re, b._du, c1, c2))


def _rodrigues_matrix(r: tuple, d: tuple, c1: Dual, c2: Dual) -> tuple:
    """(re, du) of I + c1 H + c2 H**2 with H = hat(r + eps d), in one pass.

    H has rows (0, z, -y), (-z, 0, x), (y, -x, 0) over the duals, and H**2 is
    symmetric: r_i r_j off the diagonal and -(r_j**2 + r_k**2) on it, with
    the derivatives of those as its dual part. Every entry is bit for bit the
    one the generic product I + c1 H + c2 (H @ H) gives, down to the sign of a
    zero: the nonzero terms are summed in the same order, and a zero term of
    the generic sums stays wherever it can fix the sign of a zero result.
    Those are the identity's 0.0 before each off-diagonal real entry, the
    0 * 0 that starts each diagonal sum of H**2 (``0.0 - ...``), H's zero
    diagonal times c1 on the dual diagonal (``zero``), and off the diagonal
    of H**2 the products of H's zero diagonal with H's entry there: s (sx,
    sy, sz) is 0.0 times the real entry, s' (su, sv, sw) 0.0 times the dual one.
    """
    x, y, z = r
    u, v, w = d
    a, da, c, dc = c1.re, c1.du, c2.re, c2.du
    xx, yy, zz = x * x, y * y, z * z
    xy, yz, zx = x * y, y * z, z * x
    xu, yv, zw = x * u, y * v, z * w
    # H**2: the diagonal of each part, then the dual part's off-diagonal sums.
    g0, g1, g2 = 0.0 - (yy + zz), 0.0 - (xx + zz), 0.0 - (xx + yy)
    m0, m1, m2 = 0.0 - (yv + zw), 0.0 - (xu + zw), 0.0 - (xu + yv)
    p01, p02, p12 = x * v + y * u, x * w + z * u, y * w + z * v
    sx, sy, sz, su, sv, sw = x * 0.0, y * 0.0, z * 0.0, u * 0.0, v * 0.0, w * 0.0
    ax, ay, az = a * x, a * y, a * z
    cxy, cyz, czx = c * xy, c * yz, c * zx
    au, av, aw = a * u, a * v, a * w
    dx, dy, dz = da * x, da * y, da * z
    zero = a * 0.0 + da * 0.0
    re = (
        1.0 + c * g0, (0.0 + az) + cxy, (0.0 - ay) + czx,
        (0.0 - az) + cxy, 1.0 + c * g1, (0.0 + ax) + cyz,
        (0.0 + ay) + czx, (0.0 - ax) + cyz, 1.0 + c * g2,
    )
    du = (
        (zero + c * (m0 + m0)) + dc * g0,
        ((aw + dz) + c * (p01 + (sz + sw))) + dc * (xy + sz),
        ((-av - dy) + c * (p02 + (-sy - sv))) + dc * (zx - sy),
        ((-aw - dz) + c * (p01 + (-sz - sw))) + dc * (xy - sz),
        (zero + c * (m1 + m1)) + dc * g1,
        ((au + dx) + c * (p12 + (sx + su))) + dc * (yz + sx),
        ((av + dy) + c * (p02 + (sy + sv))) + dc * (zx + sy),
        ((-au - dx) + c * (p12 + (-sx - su))) + dc * (yz - sx),
        (zero + c * (m2 + m2)) + dc * g2,
    )
    return re, du


def is_frame(u: DualMat3, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonal over the duals with positively oriented real part.

    The dual Gram block is compared against ``tol`` times the largest dual
    entry (at least 1), since it grows with the frame's translation. Once
    the real part is orthogonal its determinant is +-1, so the sign of the
    triple product of its rows is the orientation.
    """
    re, du = u._re, u._du
    gram, dual_gram = _gram_defects(re, du)
    if _max_abs(gram) > tol:
        return False
    du_error = _max_abs(dual_gram)
    if du_error > tol and du_error > tol * _max_abs(du):
        return False
    return _triple(re[0:3], re[3:6], re[6:9]) > 0.0


def _gram_defects(re: tuple, du: tuple) -> tuple:
    """The distinct entries of U U^T - I over the duals, rows i <= j in row order.

    U U^T is symmetric, so these 6 real and 6 dual entries are all of it:
    row_i . row_j - delta_ij, and re_i . du_j + re_j . du_i. The products and
    sums are those of the full products, so the entries are theirs bit for bit.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = re
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = du
    y00 = r00 * d00 + r01 * d01 + r02 * d02
    y11 = r10 * d10 + r11 * d11 + r12 * d12
    y22 = r20 * d20 + r21 * d21 + r22 * d22
    return (
        (r00 * r00 + r01 * r01 + r02 * r02 - 1.0,
         r00 * r10 + r01 * r11 + r02 * r12,
         r00 * r20 + r01 * r21 + r02 * r22,
         r10 * r10 + r11 * r11 + r12 * r12 - 1.0,
         r10 * r20 + r11 * r21 + r12 * r22,
         r20 * r20 + r21 * r21 + r22 * r22 - 1.0),
        (y00 + y00,
         (r00 * d10 + r01 * d11 + r02 * d12) + (r10 * d00 + r11 * d01 + r12 * d02),
         (r00 * d20 + r01 * d21 + r02 * d22) + (r20 * d00 + r21 * d01 + r22 * d02),
         y11 + y11,
         (r10 * d20 + r11 * d21 + r12 * d22) + (r20 * d10 + r21 * d11 + r22 * d12),
         y22 + y22),
    )


def _require_frame(u: DualMat3, tol: float) -> None:
    if not is_frame(u, tol):
        raise NotAFrame("matrix fails the orthogonality/orientation frame check")


def frame_translation(u: DualMat3, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Displacement of the frame's point from the canonical origin.

    With O the real part, S = du(U) O^T is antisymmetric and encodes the
    displacement componentwise in the frame's own basis: d_k =
    (1/2) eps_ijk S_ij. Written that way, translations compose like rigid
    motions: frame_translation(U @ V) equals
    frame_translation(U) + re(U) @ frame_translation(V). A translation beyond
    the largest float raises NotFinite.
    """
    import numpy as np

    _require_frame(u, tol)
    return np.array(_translation(u))


def _translation(u: DualMat3) -> tuple:
    """frame_translation without its frame check, for a frame the library built."""
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = u._du
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = u._re
    # S_ij = du_i . re_j, and the axial vector (S_12 - S_21, S_20 - S_02, S_01 - S_10) / 2,
    # each S halved before the difference, which could overflow where the half does not.
    t = (
        0.5 * (d10 * r20 + d11 * r21 + d12 * r22) - 0.5 * (d20 * r10 + d21 * r11 + d22 * r12),
        0.5 * (d20 * r00 + d21 * r01 + d22 * r02) - 0.5 * (d00 * r20 + d01 * r21 + d02 * r22),
        0.5 * (d00 * r10 + d01 * r11 + d02 * r12) - 0.5 * (d10 * r00 + d11 * r01 + d12 * r02),
    )
    if not _finite(t):  # finite entries can hold a translation beyond the floats
        raise NotFinite("frame translation overflows")
    return t


def displacement(frame_a: DualMat3, frame_b: DualMat3, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Displacement between the points of two frames, in canonical coordinates.

    Computed as the pure-dual half-sum (1/2) sum_i m_i cross m_i' over
    corresponding rows, which requires both frames to project onto the same
    real basis: mismatched projections raise ProjectionMismatch. ``tol``
    judges the frames, not what is built from them.
    """
    import numpy as np

    _require_frame(frame_a, tol)
    _require_frame(frame_b, tol)
    if _max_abs(_sub(frame_a._re, frame_b._re)) > tol:
        raise ProjectionMismatch("frames project to different real bases")
    total = DualVec3._raw(_ZERO3, _ZERO3)
    for i in range(3):
        total = total + cross(frame_a.row(i), frame_b.row(i))
    return np.array(_scale(0.5, total._du))
