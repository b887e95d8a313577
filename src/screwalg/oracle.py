"""Classical screw fields and textbook line geometry, kept independent.

This module reimplements screws as equiprojective vector fields with plain
real vectors, no dual arithmetic anywhere in the computations. It exists to
cross-check the dual-module formulation: every identity the library claims
is verified against these brute-force formulas, so the two sides must not
share code paths. Only the motor converters at the boundary touch DualVec3,
and ``LineRelation`` takes from ``dual._Value`` only how a value is held.

``delassus_fit`` converts its samples once and works on whole arrays, with
no per-sample numpy call and none of numpy's generic per-call entry points
(``np.cross``, ``ndarray.mean``, ``np.stack``, ``np.linalg.norm``). It takes
the same products, sums and divisions as the centered least-squares fit
written with them, so its results are the same to the last bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dual import DEFAULT_TOL, Dual, _Value
from .errors import DegenerateSamples, NotEquiprojective, NotFinite
from .linalg import DualVec3

_OVERFLOW = "the fit overflows double precision; sample magnitudes are out of range"

# Built once, as np.zeros costs more per call than the sums using it;
# ClassicalScrew copies what it is given.
_ZERO = np.zeros(3)

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
        return ClassicalScrew(_ZERO, self.resultant)

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


class LineRelation(_Value):
    """Distance and angle between two lines, with closest points when they exist.

    ``distance`` is unsigned. For skew lines ``closest_points`` holds (A, B)
    with A on the first line; for parallel lines it is None.
    """

    __slots__ = _fields = ("distance", "angle", "closest_points")

    def __init__(
        self, distance: float, angle: float,
        closest_points: "tuple[np.ndarray, np.ndarray] | None",
    ) -> None:
        self._fill(distance, angle, closest_points)


def line_distance_angle(
    point1, direction1, point2, direction2, tol: float = DEFAULT_TOL
) -> LineRelation:
    """Closest distance and angle between two lines given as point + unit direction.

    It raises NotFinite when the distance or a closest point is not finite,
    as when the difference of far-apart points overflows.
    """
    p1 = np.asarray(point1, dtype=float)
    p2 = np.asarray(point2, dtype=float)
    e1 = np.asarray(direction1, dtype=float)
    e2 = np.asarray(direction2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        relation = _line_relation(p1, e1, p2, e2, tol)
    closest = relation.closest_points
    if not (math.isfinite(relation.distance)
            and (closest is None or np.isfinite(closest).all())):
        raise NotFinite("the line distance overflows double precision; "
                        "point magnitudes are out of range")
    return relation


def _line_relation(p1, e1, p2, e2, tol: float) -> LineRelation:
    """line_distance_angle on float arrays, unchecked."""
    n = np.cross(e1, e2)
    # numpy's own norm of a 1-D array, sqrt(x.dot(x)), without its dispatch.
    n_len = math.sqrt(n.dot(n))
    b = float(e1 @ e2)
    # From sine and cosine together, so that the angle keeps its digits near 0 and pi.
    theta = math.atan2(n_len, b)
    w = p2 - p1
    if n_len <= tol:
        offset = w - (w @ e1) * e1
        return LineRelation(math.sqrt(offset.dot(offset)), theta, None)
    distance = abs(float(w @ n)) / n_len
    # Minimize |p1 + t1 e1 - p2 - t2 e2| with unit directions.
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

    ``samples`` is a sequence of at least 3 ``(point, value)`` pairs of real
    3-vectors, lists or arrays alike: the field takes ``value`` at ``point``.

    Solves the constitutive equation value_i - mean(value) = s x (P_i - mean(P))
    in least squares over the samples, then averages the origin value. Its
    normal equations are n times those of the pairwise system
    value_j - value_i = s x (P_j - P_i) over every sample pair, so the
    resultant s is the same, from 3n rows instead of 3n(n-1)/2.
    The maximum per-sample residual is compared against ``tol`` scaled by
    the field magnitude; a genuine screw sampled without noise passes at
    machine precision, anything non-equiprojective fails loudly.

    It raises ValueError when the samples do not form an array of shape
    (n, 2, 3), NotFinite when a sample is infinite or NaN or the fit
    overflows, DegenerateSamples for fewer than 3 samples or collinear
    points (a second singular value of the centered points at most
    DEFAULT_TOL times the first, whatever ``tol``), and NotEquiprojective
    when the residual exceeds ``tol`` times the field magnitude, so that no
    screw fits the samples.
    """
    return _fit_with_residual(samples, tol)[0]


def _fit_with_residual(samples: Sequence[tuple], tol: float) -> "tuple[ClassicalScrew, float]":
    """``delassus_fit`` together with its maximum per-sample residual.

    One whole-array numpy call per step, none per sample; no @ or dot, whose
    BLAS kernels may fuse a multiply and an add and so change the last bits.
    """
    if len(samples) < 3:
        raise DegenerateSamples(f"need at least 3 samples, got {len(samples)}")
    try:
        x = np.array(samples, dtype=float)
    except OverflowError as exc:
        raise NotFinite("samples must be finite") from exc
    except ValueError as exc:
        raise ValueError(f"expected samples of shape (n, 2, 3): {exc}") from exc
    n = len(x)
    if x.shape != (n, 2, 3):
        raise ValueError(f"expected samples of shape (n, 2, 3), got shape {x.shape}")
    points, values = x[:, 0], x[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # The mean is a sum and one division by n, exactly as ndarray.mean.
        centered = x - x.sum(axis=0) / n
        if not np.isfinite(centered).all():
            if not np.isfinite(x).all():
                raise NotFinite("samples must be finite")
            raise NotFinite(_OVERFLOW)
        offsets = centered[:, 0]
        # Relative to the cloud's extent and apart from the residual tol, so
        # that neither scaling the points nor a loose tol makes them collinear.
        svals = np.linalg.svd(offsets, compute_uv=False)
        if svals[1] <= DEFAULT_TOL * svals[0]:
            raise DegenerateSamples("sample points are collinear")

        # One 3x3 block per sample offset d, -[d]x, so that block @ s == s x d;
        # its zeros are the -0.0 that negating the skew matrix gives.
        dx, dy, dz = offsets.T
        a = np.full((n, 3, 3), -0.0)
        a[:, 0, 1] = dz
        a[:, 0, 2] = -dy
        a[:, 1, 0] = -dz
        a[:, 1, 2] = dx
        a[:, 2, 0] = dy
        a[:, 2, 1] = -dx
        s, *_ = np.linalg.lstsq(a.reshape(-1, 3), centered[:, 1].reshape(-1), rcond=None)

        # s x P column by column, the products and differences np.cross takes.
        (s0, s1, s2), (px, py, pz) = s, points.T
        transported = np.empty((n, 3))
        transported[:, 0] = s1 * pz - s2 * py
        transported[:, 1] = s2 * px - s0 * pz
        transported[:, 2] = s0 * py - s1 * px
        value_at_origin = (values - transported).sum(axis=0) / n
        r = value_at_origin + transported - values
        # sqrt is correctly rounded and monotone: the root of the largest
        # squared row norm is the largest row norm, bit for bit.
        residual = math.sqrt((r * r).sum(axis=1).max())
    if not math.isfinite(residual):
        raise NotFinite(_OVERFLOW)
    scale = max(1.0, float(np.abs(values).max()))
    if residual > tol * scale:
        raise NotEquiprojective(
            f"max fit residual {residual:g} exceeds {tol * scale:g}; field is not a screw"
        )
    return ClassicalScrew(s, value_at_origin), residual
