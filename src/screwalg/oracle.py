"""Classical screw fields and textbook line geometry, kept independent.

This module reimplements screws as equiprojective vector fields with plain
real vectors, no dual arithmetic anywhere in the computations. It exists to
cross-check the dual-module formulation: every identity the library claims
is verified against these brute-force formulas, so the two sides must not
share code paths. Only the motor converters at the boundary touch DualVec3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import DEFAULT_TOL, Dual
from .errors import DegenerateSamples, NotEquiprojective, NotFinite
from .linalg import DualVec3

# Fixed, non-collinear probe points used to assert reduction-point
# independence of the pairings below.
_PROBES = (
    np.array([0.0, 0.0, 0.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
)


class ClassicalScrew:
    """Equiprojective field stored as (resultant, value at the origin)."""

    __slots__ = ("resultant", "value_at_origin")

    def __init__(self, resultant, value_at_origin):
        self.resultant = np.asarray(resultant, dtype=float).reshape(3).copy()
        self.value_at_origin = np.asarray(value_at_origin, dtype=float).reshape(3).copy()

    def field(self, point) -> np.ndarray:
        """Constitutive transport: value(P) = value(0) + resultant x P."""
        p = np.asarray(point, dtype=float)
        return self.value_at_origin + np.cross(self.resultant, p)

    def resultant_field(self) -> "ClassicalScrew":
        """The constant field equal to the resultant everywhere.

        This is the classical counterpart of multiplying the motor by eps.
        """
        return ClassicalScrew(np.zeros(3), self.resultant)

    def scale(self, k: "Dual | float") -> "ClassicalScrew":
        """Dual-scalar multiple: (a + b*eps) s = a*s + b*(resultant field of s)."""
        if isinstance(k, Dual):
            return ClassicalScrew(
                k.re * self.resultant,
                k.re * self.value_at_origin + k.du * self.resultant,
            )
        return ClassicalScrew(k * self.resultant, k * self.value_at_origin)

    def __add__(self, other: "ClassicalScrew") -> "ClassicalScrew":
        return ClassicalScrew(
            self.resultant + other.resultant,
            self.value_at_origin + other.value_at_origin,
        )

    def __neg__(self) -> "ClassicalScrew":
        return ClassicalScrew(-self.resultant, -self.value_at_origin)

    @classmethod
    def from_line(cls, point, direction) -> "ClassicalScrew":
        e = np.asarray(direction, dtype=float)
        p = np.asarray(point, dtype=float)
        return cls(e, np.cross(p, e))

    @classmethod
    def from_motor(cls, z: DualVec3) -> "ClassicalScrew":
        """Read a dual vector as the motor of this field at the origin."""
        return cls(z.re, z.du)

    def to_motor(self) -> DualVec3:
        return DualVec3(self.resultant, self.value_at_origin)

    def __repr__(self) -> str:
        return (
            f"ClassicalScrew({self.resultant.tolist()}, {self.value_at_origin.tolist()})"
        )


def oracle_comoment(c1: ClassicalScrew, c2: ClassicalScrew) -> float:
    """s1 . field2(P) + field1(P) . s2, checked to be the same at three points."""
    values = [
        float(c1.resultant @ c2.field(p) + c1.field(p) @ c2.resultant) for p in _PROBES
    ]
    spread = max(values) - min(values)
    if spread > 1e-9 * max(1.0, max(abs(v) for v in values)):
        raise NotEquiprojective(
            f"comoment depends on the evaluation point (spread {spread:g}); "
            "inputs are not screws"
        )
    return values[0]


def oracle_commutator(c1: ClassicalScrew, c2: ClassicalScrew) -> ClassicalScrew:
    """s1 x field2(P) + field1(P) x s2; a screw with resultant s1 x s2."""
    values = [
        np.cross(c1.resultant, c2.field(p)) + np.cross(c1.field(p), c2.resultant)
        for p in _PROBES
    ]
    result = ClassicalScrew(np.cross(c1.resultant, c2.resultant), values[0])
    for p, v in zip(_PROBES, values):
        if not np.allclose(result.field(p), v, atol=1e-9):
            raise NotEquiprojective(
                "commutator values do not transport as a screw field; inputs are not screws"
            )
    return result


@dataclass(frozen=True)
class LineRelation:
    """Distance and angle between two lines, with closest points when they exist.

    ``distance`` is unsigned. For skew lines ``closest_points`` holds (A, B)
    with A on the first line; for parallel lines it is None.
    """

    distance: float
    angle: float
    closest_points: "tuple[np.ndarray, np.ndarray] | None"


def line_distance_angle(
    point1, direction1, point2, direction2, tol: float = DEFAULT_TOL
) -> LineRelation:
    """Closest distance and angle between two lines given as point + unit direction."""
    p1 = np.asarray(point1, dtype=float)
    p2 = np.asarray(point2, dtype=float)
    e1 = np.asarray(direction1, dtype=float)
    e2 = np.asarray(direction2, dtype=float)
    cos_theta = float(np.clip(e1 @ e2, -1.0, 1.0))
    theta = float(np.arccos(cos_theta))
    n = np.cross(e1, e2)
    n_len = float(np.linalg.norm(n))
    w = p2 - p1
    if n_len <= tol:
        offset = w - (w @ e1) * e1
        return LineRelation(float(np.linalg.norm(offset)), theta, None)
    distance = abs(float(w @ n)) / n_len
    # Minimize |p1 + t1 e1 - p2 - t2 e2| with unit directions.
    b = float(e1 @ e2)
    d0 = float(e1 @ -w)
    e0 = float(e2 @ -w)
    # Equal to 1 - b**2 for unit directions, without its cancellation when the
    # lines are nearly parallel.
    denom = n_len * n_len
    t1 = (b * e0 - d0) / denom
    t2 = (e0 - b * d0) / denom
    closest = (p1 + t1 * e1, p2 + t2 * e2)
    return LineRelation(distance, theta, closest)


def delassus_fit(
    samples: Sequence[tuple], tol: float = DEFAULT_TOL
) -> ClassicalScrew:
    """Recover the screw behind sampled field values, or prove there is none.

    Solves the constitutive equation value_i - mean(value) = s x (P_i - mean(P))
    in least squares over the samples, then averages the origin value. Its
    normal equations are n times those of the pairwise system
    value_j - value_i = s x (P_j - P_i) over every sample pair, so the
    resultant s is the same, from 3n rows instead of 3n(n-1)/2.
    The maximum per-sample residual is compared against ``tol`` scaled by
    the field magnitude; a genuine screw sampled without noise passes at
    machine precision, anything non-equiprojective fails loudly. Samples so
    large that the fit overflows raise NotFinite.
    """
    return _fit_with_residual(samples, tol)[0]


def _fit_with_residual(samples: Sequence[tuple], tol: float) -> "tuple[ClassicalScrew, float]":
    """``delassus_fit`` together with its maximum per-sample residual."""
    if len(samples) < 3:
        raise DegenerateSamples(f"need at least 3 samples, got {len(samples)}")
    points = np.array([np.asarray(p, dtype=float) for p, _ in samples])
    values = np.array([np.asarray(v, dtype=float) for _, v in samples])
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= tol * max(1.0, svals[0]):
        raise DegenerateSamples("sample points are collinear")

    # -[d]x s = s x d, one 3x3 block per sample.
    a = -_cross_matrix(centered).reshape(-1, 3)
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


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """Column-action skew matrices, one per row: _cross_matrix(v)[i] @ x == v[i] x x."""
    x, y, z = v.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(-1, 3, 3)
