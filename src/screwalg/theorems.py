"""Executable screw-theory theorems.

Each entry point evaluates one classical statement numerically and returns
the residuals instead of a bare boolean, so callers (and the CLI verify
subcommand) can report how far an input set is from satisfying the claim.
All tolerances are relative to the size of the inputs; see the individual
reports for the exact scaling. Reports hold library values only; their JSON
form belongs to the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dual import DEFAULT_TOL, Dual
from .dual import cos as dual_cos
from .dual import sin as dual_sin
from .errors import (
    DegenerateTriangle,
    NonGeneric,
    NotAntipodal,
    NotClassifiable,
    NotOnSphere,
    NullVector,
)
from .geometry import Line, axis_decompose, common_normal, dual_angle, line_from_point_direction
from .linalg import DualVec3, _cross3, _parallel, cross, dot, magnitude, mixed, norm, normalized


def _require_proper(zs) -> None:
    for z in zs:
        if z.is_pure_dual:
            raise NullVector("operation undefined for pure-dual screws")


def independent_over_D(zs, tol: float = DEFAULT_TOL) -> bool:
    """Module-linear independence; holds exactly when the resultants are free."""
    zs = list(zs)
    _require_proper(zs)
    if not zs:
        return True
    if len(zs) > 3:
        return False
    mat = np.vstack([z.re for z in zs])
    svals = np.linalg.svd(mat, compute_uv=False)
    return bool(svals[-1] > tol * svals[0])


def are_proportional(z1: DualVec3, z2: DualVec3, tol: float = DEFAULT_TOL) -> bool:
    """Proportionality over the duals; equivalent to a vanishing cross product."""
    _require_proper((z1, z2))
    return magnitude(cross(z1, z2)) <= tol * magnitude(z1) * magnitude(z2)


class TripleTag(str, Enum):
    INDEPENDENT_BASIS = "IndependentBasis"
    COMMON_ORTHOGONAL_LINE = "CommonOrthogonalLine"
    PARALLEL_COPLANAR = "ParallelCoplanar"
    PARALLEL_NON_COPLANAR = "ParallelNonCoplanar"
    CONCURRENT_COPLANAR = "ConcurrentCoplanar"


@dataclass(frozen=True)
class TripleClassification:
    tag: TripleTag
    witness: "Line | None" = None


def classify_triple(
    z1: DualVec3, z2: DualVec3, z3: DualVec3, tol: float = DEFAULT_TOL
) -> TripleClassification:
    """Sort three proper screws into the supported dependence classes.

    A nonzero real part of the mixed product means a module basis. When it
    vanishes the triple is resultant-dependent and splits into: all axes
    parallel (coplanar or not, by the triple product of the axis offsets
    with the common direction), concurrent coplanar sliding vectors, or a
    module-dependent triple whose axes meet one line orthogonally (the
    witness). Resultant-dependent triples that fit none of these raise
    NotClassifiable.
    """
    zs = (z1, z2, z3)
    _require_proper(zs)
    res = [z.re for z in zs]
    rnorm = [float(np.linalg.norm(r)) for r in res]
    pair_parallel = [_parallel(res[i], res[j], tol) for i, j in ((0, 1), (1, 2), (2, 0))]

    if all(pair_parallel):
        decs = [axis_decompose(z, tol=tol) for z in zs]
        e = res[0] / rnorm[0]
        off1 = decs[1].axis.point - decs[0].axis.point
        off2 = decs[2].axis.point - decs[0].axis.point
        vol = abs(float(_cross3(off1, off2) @ e))
        scale = max(1.0, float(np.linalg.norm(off1)) * float(np.linalg.norm(off2)))
        if vol <= tol * scale:
            return TripleClassification(TripleTag.PARALLEL_COPLANAR)
        return TripleClassification(TripleTag.PARALLEL_NON_COPLANAR)

    # A rigid motion changes neither part of the mixed product, so both parts
    # are bounded by the resultant lengths alone.
    m = mixed(z1, z2, z3)
    bound = tol * rnorm[0] * rnorm[1] * rnorm[2]
    if abs(m.re) > bound:
        return TripleClassification(TripleTag.INDEPENDENT_BASIS)

    none_parallel = not any(pair_parallel)

    if none_parallel and _concurrent_sliding(zs, tol):
        return TripleClassification(TripleTag.CONCURRENT_COPLANAR)

    if none_parallel and abs(m.du) <= bound:
        witness = common_normal(z1, z2, tol=tol)
        check_tol = max(tol, 1e-7)
        for z in zs:
            incidence = dot(witness.screw, normalized(z))
            if abs(incidence.re) > check_tol or abs(incidence.du) > check_tol:
                raise NotClassifiable(
                    "mixed product vanishes but the candidate line misses an axis"
                )
        return TripleClassification(TripleTag.COMMON_ORTHOGONAL_LINE, witness)

    raise NotClassifiable("resultants are dependent but the triple fits no class")


def _concurrent_sliding(zs, tol: float) -> bool:
    """All three have zero pitch and their (pairwise non-parallel) axes meet.

    Lines through one point form a pencil: the third unit line is the real
    combination a*l0 + b*l1 of the first two, and its moment differs from
    that combination's by the distance from the meeting point to its axis.
    """
    lines = []
    for z in zs:
        n = norm(z)
        if abs(n.du / n.re) > tol:
            return False
        lines.append(z * n.inv())
    l0, l1, l2 = lines
    (a, b), *_ = np.linalg.lstsq(np.column_stack([l0.re, l1.re]), l2.re, rcond=None)
    return float(np.linalg.norm(l2.du - a * l0.du - b * l1.du)) <= tol


@dataclass(frozen=True)
class EquilibriumReport:
    """Residuals of the triangle laws for three screws summing to zero.

    Angles are the interior ones, alpha = pi - Theta. Every residual is a
    dual number whose components should vanish; ``ok`` compares them against
    ``tol * max(1, scale)`` where ``scale`` is the product of the three
    moduli's real parts.
    """

    alpha_xy: Dual
    alpha_yz: Dual
    alpha_zx: Dual
    cosine_residuals: tuple
    sine_ratio_residuals: tuple
    four_r_squared_residuals: tuple
    angle_sum_residual: Dual
    two_r: Dual
    scale: float

    def _all_residuals(self):
        yield from self.cosine_residuals
        yield from self.sine_ratio_residuals
        yield from self.four_r_squared_residuals
        yield self.angle_sum_residual

    def max_scaled_residual(self) -> float:
        s = max(1.0, self.scale)
        return max(max(abs(r.re), abs(r.du)) for r in self._all_residuals()) / s

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_scaled_residual() <= tol


def equilibrium_laws(x: DualVec3, y: DualVec3, tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Evaluate the triangle laws on the equilibrium triple (x, y, -x-y).

    The third screw is always re-derived, never trusted from the caller.
    The report carries the law of cosines in its three cyclic forms, the
    equal-ratio residuals of the law of sines together with the common dual
    constant, the circumradius identity
    4R^2 |x|^2 |y|^2 |z|^2 = |x|^2 |y|^2 - (x o y)^2 in its three forms, and
    the interior-angle sum minus pi.
    """
    _require_proper((x, y))
    z = -(x + y)
    if z.is_pure_dual:
        raise NullVector("x + y has zero resultant; the triple leaves the module basis")
    for u, v in ((x, y), (y, z), (z, x)):
        if _parallel(u.re, v.re, tol):
            raise DegenerateTriangle("a pair of the triple has proportional resultants")

    nx, ny, nz = norm(x), norm(y), norm(z)
    pi = Dual(math.pi)
    alpha_xy = pi - dual_angle(x, y, tol=tol)
    alpha_yz = pi - dual_angle(y, z, tol=tol)
    alpha_zx = pi - dual_angle(z, x, tol=tol)

    xx, yy, zz = dot(x, x), dot(y, y), dot(z, z)
    cosine_residuals = (
        zz - xx - yy + 2 * nx * ny * dual_cos(alpha_xy),
        xx - yy - zz + 2 * ny * nz * dual_cos(alpha_yz),
        yy - zz - xx + 2 * nz * nx * dual_cos(alpha_zx),
    )

    ratio_xy = dual_sin(alpha_xy) / nz
    ratio_yz = dual_sin(alpha_yz) / nx
    ratio_zx = dual_sin(alpha_zx) / ny
    sine_ratio_residuals = (
        ratio_xy - ratio_yz,
        ratio_yz - ratio_zx,
        ratio_zx - ratio_xy,
    )
    two_r = ratio_xy
    four_r_sq = two_r * two_r
    volume = xx * yy * zz
    four_r_squared_residuals = (
        four_r_sq * volume - (xx * yy - dot(x, y) * dot(x, y)),
        four_r_sq * volume - (yy * zz - dot(y, z) * dot(y, z)),
        four_r_sq * volume - (zz * xx - dot(z, x) * dot(z, x)),
    )

    return EquilibriumReport(
        alpha_xy=alpha_xy,
        alpha_yz=alpha_yz,
        alpha_zx=alpha_zx,
        cosine_residuals=cosine_residuals,
        sine_ratio_residuals=sine_ratio_residuals,
        four_r_squared_residuals=four_r_squared_residuals,
        angle_sum_residual=alpha_xy + alpha_yz + alpha_zx - pi,
        two_r=two_r,
        scale=nx.re * ny.re * nz.re,
    )


@dataclass(frozen=True)
class PetersenMorleyReport:
    """Certificate that the three derived normals admit a common normal.

    ``incidence_residuals`` are the full dual products of the certifying
    line with the normalized derived screws; all components vanish when the
    theorem holds. ``parallel_degenerate`` marks the limit configuration in
    which the derived screws lose their resultants and the common normal
    survives only as a direction.
    """

    a: DualVec3
    b: DualVec3
    c: DualVec3
    jacobi_residual: float
    normal: Line
    incidence_residuals: tuple
    parallel_degenerate: bool

    def max_residual(self) -> float:
        return max(max(abs(r.re), abs(r.du)) for r in self.incidence_residuals)

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_residual() <= tol and self.jacobi_residual <= tol


def petersen_morley(
    x: DualVec3, y: DualVec3, z: DualVec3, tol: float = DEFAULT_TOL
) -> PetersenMorleyReport:
    """Check that the normals-of-normals of three screws share a common normal.

    With a := x cross (y cross z) and its cyclic mates, the Jacobi identity
    forces a + b + c = 0, so the three derived screws are in equilibrium and
    one line meets all three axes orthogonally. Genericity asks the pairwise
    cross products and a, b, c themselves not to vanish. When a, b, c keep
    their resultants the certifying line is their common normal; when all
    three degenerate to pure duals (axes parallel to the opposite normals)
    the certificate degrades to a direction orthogonal to every moment, and
    mixed configurations are rejected as non-generic.
    """
    triple = (x, y, z)
    _require_proper(triple)
    mags = [magnitude(w) for w in triple]
    for (u, v), key in (((x, y), "x,y"), ((y, z), "y,z"), ((z, x), "z,x")):
        if _parallel(u.re, v.re, tol):
            raise NonGeneric(f"resultants of {key} are parallel")

    a = cross(x, cross(y, z))
    b = cross(z, cross(x, y))
    c = cross(y, cross(z, x))
    scale = mags[0] * mags[1] * mags[2]
    for name, w in (("a", a), ("b", b), ("c", c)):
        if magnitude(w) <= tol * scale:
            raise NonGeneric(f"derived screw {name} vanishes")

    jacobi_residual = magnitude(a + b + c)

    proper = [float(np.linalg.norm(w.re)) > tol * magnitude(w) for w in (a, b, c)]
    if all(proper):
        for u, v in ((a, b), (b, c), (c, a)):
            if _parallel(u.re, v.re, tol):
                raise NonGeneric("derived screws have pairwise parallel resultants")
        normal = common_normal(a, b, tol=tol)
        residuals = tuple(dot(normal.screw, normalized(w)) for w in (a, b, c))
        degenerate = False
    elif not any(proper):
        normal = _direction_certificate((a, b, c))
        residuals = tuple(
            dot(normal.screw, DualVec3(np.zeros(3), w.du / np.linalg.norm(w.du)))
            for w in (a, b, c)
        )
        degenerate = True
    else:
        raise NonGeneric("some derived screws lost their resultants; no common axis")

    return PetersenMorleyReport(
        a=a,
        b=b,
        c=c,
        jacobi_residual=jacobi_residual,
        normal=normal,
        incidence_residuals=residuals,
        parallel_degenerate=degenerate,
    )


def _direction_certificate(ws) -> Line:
    """A line through the origin orthogonal to every moment of pure-dual screws."""
    moments = [w.du / np.linalg.norm(w.du) for w in ws]
    best = None
    best_len = -1.0
    for i in range(len(moments)):
        for j in range(i + 1, len(moments)):
            n = _cross3(moments[i], moments[j])
            if float(np.linalg.norm(n)) > best_len:
                best_len = float(np.linalg.norm(n))
                best = n
    if best is None or best_len < 1e-12:
        # All moments share one direction; any perpendicular will do.
        seed = np.eye(3)[int(np.argmin(np.abs(moments[0])))]
        best = _cross3(moments[0], seed)
    direction = best / np.linalg.norm(best)
    return line_from_point_direction(np.zeros(3), direction)


def thales_check(
    x: DualVec3, y: DualVec3, z: DualVec3, r, tol: float = DEFAULT_TOL
) -> Dual:
    """Residual of the right-angle condition on a dual sphere.

    For x, y, z of equal dual modulus r with x = -y, the chords y - z and
    z - x are orthogonal under the full dual product; the returned residual
    is (y - z) o (z - x), which should vanish in both components.
    """
    radius = r if isinstance(r, Dual) else Dual(float(r))
    scale = max(1.0, abs(radius.re))
    for name, w in (("x", x), ("y", y), ("z", z)):
        n = norm(w)
        if abs(n.re - radius.re) > tol * scale or abs(n.du - radius.du) > tol * scale:
            raise NotOnSphere(f"|{name}| = {n} differs from r = {radius}")
    if magnitude(x + y) > tol * max(1.0, magnitude(x), magnitude(y)):
        raise NotAntipodal("x and y are not opposite")
    return dot(y - z, z - x)
