"""Classical references the benchmark checks screwalg's outputs against.

Everything here is plain numpy on real 3-vectors and 4x4 homogeneous
matrices. Nothing is imported from screwalg, so a fault in the library
cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np


class Mismatch(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(a, b, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
    if not err <= tol:
        raise Mismatch(f"{what}: error {err:.3g} exceeds {tol:.3g}")


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def motor(point, direction, magnitude: float = 1.0, pitch: float = 0.0):
    """(resultant, value at the origin) of a screw with the given axis, size and pitch."""
    p = np.asarray(point, dtype=float)
    e = unit(direction)
    return magnitude * e, magnitude * (np.cross(p, e) + pitch * e)


def motor_cross(a, b):
    """Commutator of two motors given as (resultant, value at the origin)."""
    return np.cross(a[0], b[0]), np.cross(a[0], b[1]) + np.cross(a[1], b[0])


def axis_of(re, du):
    """Axis point closest to the origin, unit direction, magnitude and pitch of a motor."""
    re = np.asarray(re, dtype=float)
    du = np.asarray(du, dtype=float)
    s2 = float(re @ re)
    return np.cross(re, du) / s2, re / math.sqrt(s2), math.sqrt(s2), float(re @ du) / s2


def line_relation(p1, e1, p2, e2):
    """Angle in [0, pi] and signed distance along e1 x e2 between two skew lines."""
    n = np.cross(e1, e2)
    s = float(np.linalg.norm(n))
    angle = math.atan2(s, float(np.dot(e1, e2)))
    return angle, float((np.asarray(p2) - np.asarray(p1)) @ n) / s


def check_common_normal(q, n, lines, tol: float, what: str) -> None:
    """The line (q, n) has unit direction and meets every (p, e) in ``lines`` at right angles."""
    close(float(np.linalg.norm(n)), 1.0, tol, f"{what}: normal direction length")
    for p, e in lines:
        e = unit(e)
        close(float(n @ e), 0.0, tol, f"{what}: normal not orthogonal to an axis")
        m = np.cross(n, e)
        scale = max(1.0, float(np.linalg.norm(q)), float(np.linalg.norm(p)))
        gap = float((np.asarray(p) - np.asarray(q)) @ m) / float(np.linalg.norm(m))
        close(gap, 0.0, tol * scale, f"{what}: normal misses an axis")


def rotation(e, phi: float) -> np.ndarray:
    """Rodrigues rotation by ``phi`` about the unit vector ``e`` (column action)."""
    k = np.array([[0.0, -e[2], e[1]], [e[2], 0.0, -e[0]], [-e[1], e[0], 0.0]])
    return np.eye(3) + math.sin(phi) * k + (1.0 - math.cos(phi)) * (k @ k)


def screw_motion(point, direction, angle: float, slide: float) -> np.ndarray:
    """4x4 homogeneous matrix of the rotation about a line plus a slide along it."""
    p = np.asarray(point, dtype=float)
    e = unit(direction)
    r = rotation(e, angle)
    h = np.eye(4)
    h[:3, :3] = r
    h[:3, 3] = p - r @ p + slide * e
    return h


def chain_pose(joints) -> np.ndarray:
    """Pose of a serial chain of (point, direction, angle, slide) joints.

    screwalg composes frames as rows, ``U1 @ U2 @ ...``, which is the
    homogeneous product taken in the opposite order, ``H_n ... H_2 H_1``.
    """
    h = np.eye(4)
    for point, direction, angle, slide in joints:
        h = screw_motion(point, direction, angle, slide) @ h
    return h


def check_frame(re, du, translation, pose, tol: float, what: str) -> None:
    """A dual frame (rows = axis lines) and its translation against a 4x4 pose.

    With pose = [[R, t], [0, 1]], row i of the frame is the line through t
    along column i of R, so re = R^T and du_i = t x R[:, i]; the frame
    translation is t in the frame's own basis, R^T t.
    """
    r, t = pose[:3, :3], pose[:3, 3]
    scale = max(1.0, float(np.linalg.norm(t)))
    close(re, r.T, tol, f"{what}: rotation part")
    close(du, np.cross(t, r.T), tol * scale, f"{what}: dual part")
    close(translation, r.T @ t, tol * scale, f"{what}: translation")
