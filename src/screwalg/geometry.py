"""Euclidean interpretation of dual vectors: fields, lines, axes, angles.

Points are plain real 3-vectors holding coordinates relative to the
canonical frame. A dual vector induces an equiprojective field over those
points; its value at P is ``du + re x P``, the transport of the
origin-reduced motor. Everything here is derived from that one formula,
written once as linalg._moved: a move by t is du + t x re, the action of
frame_from_point(t). field_at and motor_reduce move a screw by -P;
motor_unreduce and the lines through P move by P.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .dual import DEFAULT_TOL, Dual, _droot, _dual, _new, _Value, atan2
from .errors import NotALine, NotFinite, NotUnit, NullVector, ParallelResultants
from .linalg import (
    _EYE,
    _NO_MOMENT,
    DualMat3,
    DualVec3,
    _axial_matrix,
    _axis_foot,
    _cross,
    _ddot,
    _dot3,
    _finite,
    _in_range,
    _length,
    _moved,
    _over,
    _parallel,
    _scale,
    _scaled,
    _vec,
    cross,
    dot,
    norm,
)

if TYPE_CHECKING:
    import numpy as np

# A value the library computed is known to about eps times its size; a
# deviation below this many of those roundings cannot be told from 0.
_ROUNDINGS = 16


class Line(_Value):
    """Oriented line: a unit zero-pitch screw (a sliding unit vector).

    Construction canonicalizes the motor: the resultant is renormalized to
    unit length and the residual pitch component of the moment (which must be
    below ``tol`` times the moment's length, at least 1) is projected away, so
    equal lines compare stably. A line equals only itself.
    """

    __slots__ = _fields = ("screw",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, screw: DualVec3, tol: float = DEFAULT_TOL):
        length = _length(screw._re)
        if abs(length - 1.0) > tol:
            raise NotALine(f"resultant length {length} is not 1 within {tol}")
        pitch_component = self._canonicalize(screw._re, screw._du, length)
        # The bound is tol * max(1, |m|); |m| is needed only past tol.
        pitch = abs(pitch_component)
        if pitch > tol and pitch > tol * _length(screw._du) / length:
            raise NotALine(f"pitch {pitch_component} exceeds {tol} times max(1, |moment|)")

    def _canonicalize(self, e: tuple, m: tuple, length: float) -> float:
        """Set the screw from e, of length ``length``, and m; judge nothing, and
        return the pitch component of the moment that it projects away."""
        e0, e1, e2 = e = _over(e, length)
        m0, m1, m2 = m = _over(m, length)
        k = _dot3(m, e)
        (set_screw,) = self._setters
        set_screw(self, DualVec3._raw(e, (m0 - k * e0, m1 - k * e1, m2 - k * e2)))
        return k

    @property
    def direction(self) -> np.ndarray:
        return self.screw.re

    @property
    def moment(self) -> np.ndarray:
        return self.screw.du

    @property
    def point(self) -> np.ndarray:
        """The point of the line closest to the canonical origin."""
        import numpy as np

        return np.array(_foot(self))

    def __repr__(self) -> str:
        return f"Line(point={list(_foot(self))}, direction={list(self.screw._re)})"


def _foot(line: Line) -> tuple:
    """Line.point as a component tuple: the direction crossed with the moment."""
    return _cross(line.screw._re, line.screw._du)


def line_from_point_direction(point, direction, tol: float = DEFAULT_TOL) -> Line:
    """The oriented line through ``point`` with unit direction ``direction``."""
    return _line_through(_vec(point), _vec(direction), tol)


def _line_through(p: tuple, e: tuple, tol: float) -> Line:
    """line_from_point_direction on finite 3-vectors the library already holds.
    ``tol`` judges only |e|: the rounding of the moment built here is projected away."""
    length = _length(e)
    if abs(length - 1.0) > tol:
        raise NotUnit(f"direction {list(e)} is not unit length within {tol}")
    m = _moved(e, _NO_MOMENT, p)
    if not _finite(m):
        raise NotFinite(f"moment of the line through {list(p)} overflows")
    line = _new(Line)
    line._canonicalize(e, m, length)
    return line


def field_at(z: DualVec3, point) -> np.ndarray:
    """Value at ``point`` of the screw field induced by z: z moved by -point."""
    import numpy as np

    return np.array(_moved(z._re, z._du, _scale(-1.0, _vec(point))))


def comoment(z1: DualVec3, z2: DualVec3) -> float:
    """Reduction-point-independent screw pairing; the dual part of dot."""
    return dot(z1, z2).du


class AxisDecomposition(_Value):
    """Polar form of a proper screw: magnitude * exp(eps * pitch) * axis."""

    __slots__ = _fields = ("magnitude", "pitch", "axis")
    magnitude: float
    pitch: float
    axis: Line

    def __init__(self, magnitude: float, pitch: float, axis: Line) -> None:
        self._fill(magnitude, pitch, axis)

    def reconstruct(self) -> DualVec3:
        return Dual(self.magnitude, self.magnitude * self.pitch) * self.axis.screw


def _axis(z: DualVec3) -> Line:
    """The axis line of a proper screw: axis_decompose(z).axis, with its refusals.

    Where only the line is wanted this builds no magnitude, pitch or
    AxisDecomposition, so a magnitude beyond the largest float is no refusal.
    """
    z, _ = _in_range(z)
    return _axis_in_range(z, _droot(*_ddot(z._re, z._du, z._re, z._du))[0])


def _axis_in_range(z: DualVec3, a: float) -> Line:
    """The axis line that axis_decompose chooses, of z in range with |z.re| = a."""
    s = z._re
    return _line_through(_axis_foot(s, z._du), _over(s, a), _ROUNDINGS * sys.float_info.epsilon)


def axis_decompose(z: DualVec3) -> AxisDecomposition:
    """Split a proper screw into magnitude, pitch and axis line.

    Magnitude and pitch come from the dual modulus |z| = a + b*eps, p = b/a.
    The axis point is chosen as s x field(origin) / |s|**2, the unique axis
    point closest to the canonical origin; any other axis point would serve,
    the choice is a convention. On the axis the field is parallel to the
    resultant, which is the characterization tests verify. The axis is built
    from values the library computed, so it is checked against their
    rounding, not against a caller's tolerance.
    """
    z, k = _in_range(z)
    a, b = _droot(*_ddot(z._re, z._du, z._re, z._du))  # |z|, a the length |s|
    axis = _axis_in_range(z, a)
    magnitude = _scaled((a,), -k, "magnitude")[0] if k else a
    return AxisDecomposition(magnitude=magnitude, pitch=b / a, axis=axis)


def dual_angle(x: DualVec3, y: DualVec3) -> Dual:
    """Angle between resultants plus eps times the signed distance between axes.

    Theta = atan2(|x cross y|, x o y) over the duals (dual.atan2); both
    scale by |x| |y|, so no modulus of x or y is taken, and unlike the
    cosine alone the angle stays accurate near 0 and pi. Exactly parallel
    resultants (a zero real cross product, whose modulus is undefined) give
    exactly 0 or pi with dual part 0: the distance between parallel axes
    lives in the classical oracle.
    """
    if x.is_pure_dual or y.is_pure_dual:
        raise NullVector("dual angle undefined for pure-dual screws")
    x, _ = _in_range(x)
    y, _ = _in_range(y)
    xy = dot(x, y)
    xy_cross = cross(x, y)
    if not any(xy_cross._re):
        return _dual(0.0 if xy.re > 0.0 else math.pi, 0.0)
    return atan2(norm(xy_cross), xy)


def common_normal(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> Line:
    """The oriented line meeting both screw axes at right angles.

    It is the axis of x cross y, oriented along the cross product of the
    resultants; both full dual products dot(u, x) and dot(u, y) vanish on it.
    """
    if x.is_pure_dual or y.is_pure_dual:
        raise NullVector("common normal requires proper screws")
    x, _ = _in_range(x)
    y, _ = _in_range(y)
    if _parallel(x._re, y._re, tol):
        raise ParallelResultants("resultants are parallel; no unique common normal")
    # The axis of the cross product, built from point + direction, is the
    # same line as normalized(cross(x, y)) but has exactly zero pitch.
    return _axis(cross(x, y))


def axes_intersect(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> bool:
    """Whether the axes of two unit screws meet; true iff the comoment vanishes, to ``tol``
    or, where larger, to the rounding of the moments, which grows as the lines move away."""
    for z in (x, y):
        if abs(dot(z, z).re - 1.0) > tol:
            raise NotUnit("axes_intersect expects unit screws")
    rounding = _ROUNDINGS * sys.float_info.epsilon * (_length(x._du) + _length(y._du))
    return abs(comoment(x, y)) <= max(tol, rounding)


def motor_reduce(z: DualVec3, point) -> tuple[np.ndarray, np.ndarray]:
    """Represent z by (resultant, field value at ``point``): z moved by -point."""
    import numpy as np

    return np.array(z._re), field_at(z, point)


def motor_unreduce(point, resultant, value) -> DualVec3:
    """Rebuild the dual vector from a motor reduced at ``point``: the motor moved by point."""
    p = _vec(point)
    s = _vec(resultant)
    return DualVec3._raw(s, _moved(s, _vec(value), p))


def frame_from_point(point) -> DualMat3:
    """The translation-only frame at ``point``: rows are its three axis lines.

    It is I + eps hat(point), the matrix of the move by ``point``: x @ it has
    the dual part linalg._moved(x.re, x.du, point).
    """
    return DualMat3._raw(_EYE, _axial_matrix(_vec(point)))
