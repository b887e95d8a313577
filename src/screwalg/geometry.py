"""Euclidean interpretation of dual vectors: fields, lines, axes, angles.

Points are plain real 3-vectors holding coordinates relative to the
canonical frame. A dual vector induces an equiprojective field over those
points; its value at P is ``du + re x P``, the transport of the
origin-reduced motor. Everything here is derived from that one formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DEFAULT_TOL, Dual, acos_principal
from .errors import NotALine, NotFinite, NotUnit, NullVector, ParallelResultants
from .linalg import (
    _EYE,
    DualMat3,
    DualVec3,
    _axial_matrix,
    _cross3,
    _finite,
    _length,
    _parallel,
    _vec,
    cross,
    dot,
    norm,
)


class Line:
    """Oriented line: a unit zero-pitch screw (a sliding unit vector).

    Construction canonicalizes the motor: the resultant is renormalized to
    unit length and the residual pitch component of the moment (which must be
    below ``tol`` times the moment's length, at least 1) is projected away, so
    equal lines compare stably.
    """

    __slots__ = ("screw",)

    def __init__(self, screw: DualVec3, tol: float = DEFAULT_TOL):
        self._canonicalize(screw.re, screw.du, tol)

    def _canonicalize(self, e: np.ndarray, m: np.ndarray, tol: float) -> None:
        """Set the screw from its finite resultant e and moment m; the one path."""
        length = _length(e)
        if abs(length - 1.0) > tol:
            raise NotALine(f"resultant length {length} is not 1 within {tol}")
        e = e / length
        m = m / length
        pitch_component = float(m.dot(e))
        # The bound is tol * max(1, |m|); |m| is needed only past tol.
        pitch = abs(pitch_component)
        if pitch > tol and pitch > tol * _length(m):
            raise NotALine(f"pitch {pitch_component} exceeds {tol} times max(1, |moment|)")
        object.__setattr__(self, "screw", DualVec3._raw(e, m - pitch_component * e))

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    @property
    def direction(self) -> np.ndarray:
        return self.screw.re

    @property
    def moment(self) -> np.ndarray:
        return self.screw.du

    @property
    def point(self) -> np.ndarray:
        """The point of the line closest to the canonical origin."""
        return _cross3(self.direction, self.moment)

    def __repr__(self) -> str:
        return f"Line(point={self.point.tolist()}, direction={self.direction.tolist()})"


def line_from_point_direction(point, direction, tol: float = DEFAULT_TOL) -> Line:
    """The oriented line through ``point`` with unit direction ``direction``."""
    return _line_through(_vec(point), _vec(direction), tol)


def _line_through(p: np.ndarray, e: np.ndarray, tol: float) -> Line:
    """line_from_point_direction on finite 3-vectors the library already holds."""
    if abs(_length(e) - 1.0) > tol:
        raise NotUnit(f"direction {e.tolist()} is not unit length within {tol}")
    m = _cross3(p, e)
    if not _finite(m.tolist()):
        raise NotFinite(f"moment of the line through {p.tolist()} overflows")
    line = object.__new__(Line)
    line._canonicalize(e, m, tol)
    return line


def field_at(z: DualVec3, point) -> np.ndarray:
    """Value at ``point`` of the screw field induced by z."""
    p = _vec(point)
    return z.du + _cross3(z.re, p)


def comoment(z1: DualVec3, z2: DualVec3) -> float:
    """Reduction-point-independent screw pairing; the dual part of dot."""
    return dot(z1, z2).du


@dataclass(frozen=True)
class AxisDecomposition:
    """Polar form of a proper screw: magnitude * exp(eps * pitch) * axis."""

    magnitude: float
    pitch: float
    axis: Line

    def reconstruct(self) -> DualVec3:
        return Dual(self.magnitude, self.magnitude * self.pitch) * self.axis.screw


def axis_decompose(z: DualVec3, tol: float = DEFAULT_TOL) -> AxisDecomposition:
    """Split a proper screw into magnitude, pitch and axis line.

    Magnitude and pitch come from the dual modulus |z| = a + b*eps, p = b/a.
    The axis point is chosen as s x field(origin) / |s|**2, the unique axis
    point closest to the canonical origin; any other axis point would serve,
    the choice is a convention. On the axis the field is parallel to the
    resultant, which is the characterization tests verify.
    """
    n = norm(z)
    a = n.re  # |s|, the square root of s o s
    s = z.re
    point = _cross3(s, z.du) / float(s.dot(s))
    axis = _line_through(point, s / a, tol)
    return AxisDecomposition(magnitude=a, pitch=n.du / a, axis=axis)


def dual_angle(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> Dual:
    """Angle between resultants plus eps times the signed distance between axes.

    Defined by cos(Theta) = x o y / (|x| |y|) on the principal range. When
    the resultants are proportional the dual part of the cosine vanishes
    identically, so the result is exactly 0 or pi and the axis distance is
    not representable; parallel-line distance lives in the classical oracle.
    """
    c = dot(x, y) / (norm(x) * norm(y))
    return acos_principal(c, tol=tol)


def common_normal(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> Line:
    """The oriented line meeting both screw axes at right angles.

    It is the axis of x cross y, oriented along the cross product of the
    resultants; both full dual products dot(u, x) and dot(u, y) vanish on it.
    """
    if x.is_pure_dual or y.is_pure_dual:
        raise NullVector("common normal requires proper screws")
    if _parallel(x.re, y.re, tol):
        raise ParallelResultants("resultants are parallel; no unique common normal")
    # The axis of the cross product, built from point + direction, is the
    # same line as normalized(cross(x, y)) but has exactly zero pitch.
    return axis_decompose(cross(x, y), tol=tol).axis


def axes_intersect(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> bool:
    """Whether the axes of two unit screws meet; true iff the comoment vanishes."""
    for z in (x, y):
        if abs(dot(z, z).re - 1.0) > tol:
            raise NotUnit("axes_intersect expects unit screws")
    return abs(comoment(x, y)) <= tol


def motor_reduce(z: DualVec3, point) -> tuple[np.ndarray, np.ndarray]:
    """Represent z by (resultant, field value at ``point``)."""
    return z.re.copy(), field_at(z, point)


def motor_unreduce(point, resultant, value) -> DualVec3:
    """Rebuild the dual vector from a motor reduced at ``point``."""
    p = _vec(point)
    s = _vec(resultant)
    return DualVec3._raw(s, _vec(value) - _cross3(s, p))


def frame_from_point(point) -> DualMat3:
    """The translation-only frame at ``point``: rows are its three axis lines."""
    p = _vec(point)
    return DualMat3._raw(_EYE, _axial_matrix(p))
