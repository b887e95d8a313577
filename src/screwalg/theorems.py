"""Executable screw-theory theorems.

Each entry point evaluates one classical statement numerically and returns
the residuals instead of a bare boolean, so callers (and the CLI verify
subcommand) can report how far an input set is from satisfying the claim.
Every verdict on a residual is decided here by one rule, ``_relative``.
Reports hold library values only; their JSON form belongs to the CLI.
Everything here, the dependence tests and the pencil solve included, runs on
linalg's float kernels; no array is built. The one-pass kernels take each dual
formula from the pair kernels the operators call (linalg._ddot and _cross_parts,
dual._droot, _dinv and _datan2) and spell only the ring product inline.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .dual import _NOT_FINITE, DEFAULT_TOL, Dual, _datan2, _dinv, _droot, _dual, _Value
from .errors import (
    DegenerateTriangle,
    NonGeneric,
    NotAntipodal,
    NotClassifiable,
    NotFinite,
    NotOnSphere,
    NullVector,
)
from .geometry import _ROUNDINGS, Line, _axis, _foot, _line_through
from .linalg import (
    _EYE,
    _OVERFLOWS,
    _ZERO3,
    DualVec3,
    _add,
    _axis_foot,
    _coplanar,
    _cross,
    _cross_parts,
    _ddot,
    _dot3,
    _in_range,
    _length,
    _modulus,
    _moved,
    _over,
    _parallel,
    _scale,
    _sub,
    _triple,
    cross,
    dot,
    mixed,
    norm,
    normalized,
)

def _require_proper(zs) -> None:
    for z in zs:
        if z.is_pure_dual:
            raise NullVector("operation undefined for pure-dual screws")


def _relative(residuals, *moduli: float) -> float:
    """The largest component of the dual ``residuals`` over input ``moduli``, one per degree
    in the inputs' size, so that a real unit times every screw moves no verdict, and 2^k no
    bit. Dividing one at a time, no product underflows; a modulus of 0 is refused (linalg._over)."""
    figure = 0.0
    for r in residuals:
        re, du = abs(r.re), abs(r.du)
        if re > figure:
            figure = re
        if du > figure:
            figure = du
    for m in moduli:
        if m == 0.0:
            raise NotFinite("a modulus underflows to 0, so the relative residual overflows")
        figure /= m
    return figure


def _parallel_pair(res, tol: float) -> int:
    """The index of the first of the cyclic pairs (0, 1), (1, 2), (2, 0) of the real 3-vectors
    ``res``, each brought into range, that linalg._parallel finds parallel; -1 for none."""
    u, v, w = _in_range(res[0])[0], _in_range(res[1])[0], _in_range(res[2])[0]
    lu, lv = _length(u), _length(v)
    if _parallel(u, v, tol, lu, lv):
        return 0
    lw = _length(w)
    return 1 if _parallel(v, w, tol, lv, lw) else 2 if _parallel(w, u, tol, lw, lu) else -1


# -- one pass over float pairs ---------------------------------------------------
#
# equilibrium_laws and petersen_morley hold each intermediate dual as two floats
# (but for petersen_morley's normal and its branches for vanishing derived screws),
# through the operators' pair kernels, so every bit is the operators', down to the
# sign of a zero. Each refusal runs before the next branch that reads the value: a
# non-finite part of a sum or product leaves one in every result built from it, so
# one test of a stage's results stands for its intermediates. _droot's stands for the
# dot product's: x o x has the real part 0 only where every resultant component is
# below 2**-537, where 2 (re . du) cannot overflow.

def _refuse_non_finite(values: tuple, vector: bool = False) -> None:
    """NotFinite where a value is not finite, with the message of DualVec3._raw or dual._dual."""
    if not all(map(math.isfinite, values)):
        raise NotFinite(DualVec3._kind + _OVERFLOWS if vector
                        else _NOT_FINITE + ", ".join(map(str, values)))


def _moment_near(s: DualVec3, z: DualVec3) -> float:
    """Length of the moment of s about the point of z's axis nearest to s's axis.

    z's axis moves with the screws, so no rigid motion changes this length, while
    |s.du| moves by p x s.re when the origin moves by p; where s.re vanishes it is |s.du|.
    """
    z, _ = _in_range(z)
    e = z._re
    v = _moved(s._re, s._du, _scale(-1.0, _axis_foot(e, z._du)))
    r, _ = _in_range(s._re)
    w = _cross(e, r)
    if any(w):
        w = _over(w, math.hypot(*w))
        v = _sub(v, _scale(_dot3(v, w), w))
    return math.hypot(*v)


def independent_over_D(zs, tol: float = DEFAULT_TOL) -> bool:
    """Module-linear independence of proper screws.

    In the rank-3 free module at most three proper screws are free, and they
    are free exactly when their resultants are free over the reals. Dependent
    has one meaning in the library, decided by linalg's float kernels: two
    resultants with |r1 x r2| <= tol |r1| |r2| (linalg._parallel, the test
    behind common_normal's ParallelResultants), three with
    |[r1 r2 r3]| <= tol |r1| |r2| |r3| (linalg._coplanar, the test that
    keeps classify_triple from IndependentBasis).
    """
    zs = list(zs)
    _require_proper(zs)
    if len(zs) <= 1:
        return True
    if len(zs) > 3:
        return False
    res = [_in_range(z._re)[0] for z in zs]
    if len(zs) == 2:
        return not _parallel(*res, tol)
    return not _coplanar(*res, tol)


def are_proportional(z1: DualVec3, z2: DualVec3, tol: float = DEFAULT_TOL) -> bool:
    """Proportionality over the duals: c = cross(z1, z2) vanishes, that is the resultants
    are parallel (linalg._parallel) and the moment of c about z1's axis (``_moment_near``)
    is at most ``tol`` times the resultant lengths, sizes that no rigid motion changes."""
    _require_proper((z1, z2))
    z1, _ = _in_range(z1)
    z2, _ = _in_range(z2)
    if not _parallel(z1._re, z2._re, tol):
        return False
    return _moment_near(cross(z1, z2), z1) <= tol * _length(z1._re) * _length(z2._re)


class TripleTag(str, Enum):
    INDEPENDENT_BASIS = "IndependentBasis"
    COMMON_ORTHOGONAL_LINE = "CommonOrthogonalLine"
    PARALLEL_COPLANAR = "ParallelCoplanar"
    PARALLEL_NON_COPLANAR = "ParallelNonCoplanar"
    CONCURRENT_COPLANAR = "ConcurrentCoplanar"


class TripleClassification(_Value):
    __slots__ = _fields = ("tag", "witness")

    def __init__(self, tag: TripleTag, witness: "Line | None" = None) -> None:
        # For two fields the descriptors cost less than _Value._fill's loop.
        set_tag, set_witness = self._setters
        set_tag(self, tag)
        set_witness(self, witness)


def classify_triple(
    z1: DualVec3, z2: DualVec3, z3: DualVec3, tol: float = DEFAULT_TOL
) -> TripleClassification:
    """Sort three proper screws into the supported dependence classes.

    A mixed product that is a unit of the duals, that is has a nonzero real
    part, means a module basis: the resultants are not dependent in the one
    sense the library uses, |[r1 r2 r3]| <= tol |r1| |r2| |r3|
    (linalg._coplanar, a float kernel, as in independent_over_D, so that the
    two agree). Otherwise the triple is resultant-dependent and splits into:
    all axes parallel (coplanar or not, by the triple product of the axis
    offsets with the common direction), concurrent coplanar sliding vectors, or a
    module-dependent triple whose axes meet one line orthogonally (the
    witness). Resultant-dependent triples that fit none of these raise
    NotClassifiable. No threshold moves with the triple: ``tol`` times resultant
    lengths, or ``tol`` raised to the rounding of the values compared.
    """
    _require_proper((z1, z2, z3))
    zs = z1, z2, z3 = [_in_range(z)[0] for z in (z1, z2, z3)]
    res = r1, r2, r3 = [z._re for z in zs]
    if not _coplanar(r1, r2, r3, tol):
        return TripleClassification(TripleTag.INDEPENDENT_BASIS)

    # Deciding the basis first moves no verdict: parallel resultants are coplanar,
    # as |(u x v) . w| <= |u x v| |w| <= tol |u| |v| |w|.
    rnorm = [_length(r) for r in res]
    pair_parallel = _parallel(r1, r2, tol), _parallel(r2, r3, tol), _parallel(r3, r1, tol)

    if all(pair_parallel):
        p0, p1, p2 = (_foot(_axis(z)) for z in zs)
        e = _over(res[0], rnorm[0])
        off1 = _sub(p1, p0)
        off2 = _sub(p2, p0)
        vol = abs(_triple(off1, off2, e))
        scale = max(1.0, _length(off1) * _length(off2))
        if vol <= tol * scale:
            return TripleClassification(TripleTag.PARALLEL_COPLANAR)
        return TripleClassification(TripleTag.PARALLEL_NON_COPLANAR)

    none_parallel = not any(pair_parallel)

    if none_parallel and _concurrent_sliding(zs, tol):
        return TripleClassification(TripleTag.CONCURRENT_COPLANAR)

    # A rigid motion changes neither part of the mixed product, so its dual
    # part is bounded by the resultant lengths alone, as its real part is.
    if none_parallel and abs(mixed(z1, z2, z3).du) <= tol * rnorm[0] * rnorm[1] * rnorm[2]:
        # common_normal(z1, z2), whose checks ran above; it meets z1 and z2 by construction.
        normal = cross(z1, z2)
        witness = _axis(normal)
        unit = normalized(z3)
        incidence = dot(witness.screw, unit)
        # The witness's rounding grows as 1 / sin(theta_12) of z1 and z2.
        rounding = _ROUNDINGS * sys.float_info.epsilon * rnorm[0] * rnorm[1] / math.hypot(*normal._re)
        moment_rounding = rounding * (_length(witness.screw._du) + _length(unit._du))
        if abs(incidence.re) > max(tol, rounding) or abs(incidence.du) > max(tol, moment_rounding):
            raise NotClassifiable("mixed product vanishes but the candidate line misses an axis")
        return TripleClassification(TripleTag.COMMON_ORTHOGONAL_LINE, witness)

    raise NotClassifiable("resultants are dependent but the triple fits no class")


def _concurrent_sliding(zs, tol: float) -> bool:
    """All three have zero pitch and their (pairwise non-parallel) axes meet.

    Lines through one point form a pencil: the third unit line is the real
    combination a*l0 + b*l1 of the first two, and its moment differs from
    that combination's by the distance from the meeting point to its axis.
    a and b come from Cramer's rule on n = e0 x e1: (e2 x e1) . m / n . m
    with m = n in range, which is the least-squares fit where e2 leaves the
    plane. Pitch and distance are compared with ``tol``, or with the rounding
    of the moments where that is larger, so that moving the triple away from
    the origin does not change the verdict.
    """
    rounding = _ROUNDINGS * sys.float_info.epsilon
    lines = []
    for z in zs:
        z, _ = _in_range(z)
        n = _modulus(dot(z, z))
        if abs(n.du / n.re) > max(tol, rounding * _length(z._du) / n.re):
            return False
        lines.append(z * n.inv())
    l0, l1, l2 = lines
    e0, e1, e2 = l0._re, l1._re, l2._re
    n = _cross(e0, e1)
    m, _ = _in_range(n)
    nm = _dot3(n, m)
    a = _dot3(_cross(e2, e1), m) / nm
    b = _dot3(_cross(e0, e2), m) / nm
    terms = _length(l2._du) + abs(a) * _length(l0._du) + abs(b) * _length(l1._du)
    miss = _sub(_sub(l2._du, _scale(a, l0._du)), _scale(b, l1._du))
    return _length(miss) <= max(tol, rounding * terms)


class EquilibriumReport(_Value):
    """Residuals of the triangle laws for three screws summing to zero.

    Angles are the interior ones, alpha = pi - Theta. Every residual is a dual number whose
    components should vanish. ``ok`` is ``max_scaled_residual`` at most ``tol``: each family by
    ``_relative``, with m = ``scale`` the largest real part of the moduli, the cosines over m^2,
    the sine ratios over 1/m, the 4R^2 identity over m^4 and the angle sum as it is.
    """

    __slots__ = _fields = (
        "alpha_xy", "alpha_yz", "alpha_zx", "cosine_residuals", "sine_ratio_residuals",
        "four_r_squared_residuals", "angle_sum_residual", "two_r", "scale",
    )

    def __init__(
        self, alpha_xy: Dual, alpha_yz: Dual, alpha_zx: Dual, cosine_residuals: tuple,
        sine_ratio_residuals: tuple, four_r_squared_residuals: tuple, angle_sum_residual: Dual,
        two_r: Dual, scale: float,
    ) -> None:
        self._fill(alpha_xy, alpha_yz, alpha_zx, cosine_residuals, sine_ratio_residuals,
                   four_r_squared_residuals, angle_sum_residual, two_r, scale)

    def max_scaled_residual(self) -> float:
        m = self.scale
        return max(
            _relative(self.cosine_residuals, m, m),
            _relative(self.sine_ratio_residuals, 1.0 / m),
            _relative(self.four_r_squared_residuals, m, m, m, m),
            _relative((self.angle_sum_residual,)),
        )

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

    Each of the six products x o x, ..., z o x and each modulus is evaluated
    once, in one pass over float pairs that builds only the report's Duals. The
    three interior angles are atan2(|x cross y|, -(u o v)) over
    the duals: as z = -(x + y), the cross products x cross y, y cross z and
    z cross x are all equal, so one modulus serves all three.
    """
    _require_proper((x, y))
    a, p, b, q = x._re, x._du, y._re, y._du
    (a0, a1, a2), (p0, p1, p2), (b0, b1, b2), (q0, q1, q2) = a, p, b, q
    # z = -(x + y), tested finite once rather than once per operator.
    c = -1.0 * (a0 + b0), -1.0 * (a1 + b1), -1.0 * (a2 + b2)
    r = -1.0 * (p0 + q0), -1.0 * (p1 + q1), -1.0 * (p2 + q2)
    _refuse_non_finite(c + r, vector=True)
    if not any(c):
        raise NullVector("x + y has zero resultant; the triple leaves the module basis")
    if _parallel_pair((a, b, c), tol) >= 0:
        raise DegenerateTriangle("a pair of the triple has proportional resultants")

    # The six dual products, and the moduli.
    xx, yy, zz = _ddot(a, p, a, p), _ddot(b, q, b, q), _ddot(c, r, c, r)
    nx, ny, nz = _droot(*xx), _droot(*yy), _droot(*zz)
    xy, yz, zx = _ddot(a, p, b, q), _ddot(b, q, c, r), _ddot(c, r, a, p)
    _refuse_non_finite(xy + yz + zx)
    e, f = _cross_parts(a, p, b, q)
    _refuse_non_finite(e + f, vector=True)
    s, sd = _droot(*_ddot(e, f, e, f))

    # From here on each refusal is dual._dual's NotFinite, and the Duals handed out,
    # built by _dual, test every value computed from them. No divisor is 0: s and each
    # modulus are roots of a positive x o x, so their squares round to at least it.
    # For the pair (u, v) and the third screw w: alpha = atan2(|x cross y|, -(u o v)),
    # ww - uu - vv + nu * Dual(2) * nv * cos(alpha), and the sine ratio sin(alpha) / nw,
    # sin times the inverse of nw.
    alphas, cosine_residuals, ratios = [], [], []
    for (uv, uvd), (ww, wwd), (uu, uud), (vv, vvd), (nu, nud), (nv, nvd), (nw, nwd) in (
        (xy, zz, xx, yy, nx, ny, nz), (yz, xx, yy, zz, ny, nz, nx), (zx, yy, zz, xx, nz, nx, ny),
    ):
        t, td = _datan2(s, sd, -uv, -uvd)
        cos, sin = math.cos(t), math.sin(t)
        k, kd = nu * 2.0, nu * 0.0 + nud * 2.0
        k, kd = k * nv, k * nvd + kd * nv
        alphas.append(_dual(t, td))
        cosine_residuals.append(
            _dual((ww - uu) - vv + k * cos, ((wwd - uud) - vvd) + (k * (-td * sin) + kd * cos)))
        i, idu = _dinv(nw, nwd)
        ratios.append((sin * i, sin * idu + td * cos * i))
    (g0, g0d), (g1, g1d), (g2, g2d) = ratios

    # 4R^2 |x|^2 |y|^2 |z|^2 = two_r * two_r * (xx * yy * zz), against uu * vv - uv * uv.
    rr, rrd = g0 * g0, g0 * g0d + g0d * g0
    vol, vold = xx[0] * yy[0], xx[0] * yy[1] + xx[1] * yy[0]
    vol, vold = vol * zz[0], vol * zz[1] + vold * zz[0]
    four, fourd = rr * vol, rr * vold + rrd * vol
    four_r_squared_residuals = tuple(
        _dual(four - (uu * vv - uv * uv), fourd - ((uu * vvd + uud * vv) - (uv * uvd + uvd * uv)))
        for (uu, uud), (vv, vvd), (uv, uvd) in ((xx, yy, xy), (yy, zz, yz), (zz, xx, zx))
    )
    alpha_xy, alpha_yz, alpha_zx = alphas
    return EquilibriumReport(
        alpha_xy=alpha_xy,
        alpha_yz=alpha_yz,
        alpha_zx=alpha_zx,
        cosine_residuals=tuple(cosine_residuals),
        sine_ratio_residuals=(_dual(g0 - g1, g0d - g1d), _dual(g1 - g2, g1d - g2d),
                              _dual(g2 - g0, g2d - g0d)),
        four_r_squared_residuals=four_r_squared_residuals,
        # Minus Dual(pi), whose dual part 0.0 leaves every float as it is.
        angle_sum_residual=_dual(alpha_xy.re + alpha_yz.re + alpha_zx.re - math.pi,
                                 alpha_xy.du + alpha_yz.du + alpha_zx.du),
        two_r=_dual(g0, g0d),
        scale=max(nx[0], ny[0], nz[0]),
    )


class PetersenMorleyReport(_Value):
    """Certificate that the three derived normals admit a common normal.

    ``incidence_residuals`` (the full dual products of the certifying line with the
    normalized derived screws, degree 0) and J = a + b + c vanish when the theorem holds;
    ``jacobi_residual`` is max(|J.re|, |J.du|) over |r_x| |r_y| |r_z| (``_relative``), and
    ``ok`` is both at most ``tol``. ``parallel_degenerate`` marks the limit configuration in
    which the derived screws lose their resultants and the normal survives only as a direction.
    """

    __slots__ = _fields = (
        "a", "b", "c", "jacobi_residual", "normal", "incidence_residuals", "parallel_degenerate",
    )

    def __init__(
        self, a: DualVec3, b: DualVec3, c: DualVec3, jacobi_residual: float, normal: Line,
        incidence_residuals: tuple, parallel_degenerate: bool,
    ) -> None:
        self._fill(a, b, c, jacobi_residual, normal, incidence_residuals, parallel_degenerate)

    def max_residual(self) -> float:
        return _relative(self.incidence_residuals)

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
    mixed configurations are rejected as non-generic. With ``scale`` the product
    of the resultant lengths, w keeps its resultant iff |w.re| > tol * scale and
    vanishes iff also its moment about the axis of x, z or y, for a, b or c
    (``_moment_near``), is at most tol * scale: no threshold moves with the triple.
    """
    triple = (x, y, z)
    _require_proper(triple)
    res_lengths = [math.hypot(*w._re) for w in triple]
    pair = _parallel_pair((x._re, y._re, z._re), tol)
    if pair >= 0:
        raise NonGeneric(f"resultants of {('x,y', 'y,z', 'z,x')[pair]} are parallel")

    # a = x cross (y cross z), b = z cross (x cross y), c = y cross (z cross x); a
    # non-finite inner product leaves the outer one non-finite, which _raw refuses.
    derived = a, b, c = [
        DualVec3._raw(*_cross_parts(u._re, u._du, *_cross_parts(v._re, v._du, w._re, w._du)))
        for u, v, w in ((x, y, z), (z, x, y), (y, z, x))
    ]
    scale = res_lengths[0] * res_lengths[1] * res_lengths[2]
    proper = [math.hypot(*w._re) > tol * scale for w in derived]
    for name, w, keeps, owner in zip("abc", derived, proper, (x, z, y)):
        if not keeps and _moment_near(w, owner) <= tol * scale:
            raise NonGeneric(f"derived screw {name} vanishes")

    if all(proper):
        if _parallel_pair((a._re, b._re, c._re), tol) >= 0:
            raise NonGeneric("derived screws have pairwise parallel resultants")
        # common_normal(a, b), whose checks ran above.
        normal = _axis(cross(a, b))
        residuals = tuple(_incidence(normal.screw, w) for w in derived)
        degenerate = False
    elif not any(proper):
        moments = [_over(w._du, _length(w._du)) for w in derived]
        normal = _direction_certificate(moments)
        residuals = tuple(dot(normal.screw, DualVec3._raw(_ZERO3, m)) for m in moments)
        degenerate = True
    else:
        raise NonGeneric("some derived screws lost their resultants; no common axis")

    j, jd = _add(_add(a._re, b._re), c._re), _add(_add(a._du, b._du), c._du)
    _refuse_non_finite(j + jd, vector=True)
    return PetersenMorleyReport(
        a=a,
        b=b,
        c=c,
        jacobi_residual=_relative((_dual(math.hypot(*j), math.hypot(*jd)),), *res_lengths),
        normal=normal,
        incidence_residuals=residuals,
        parallel_degenerate=degenerate,
    )


def _incidence(line: DualVec3, w: DualVec3) -> Dual:
    """dot(line, normalized(w)) in one pass, for a proper w, with normalized's refusals. In
    range w o w is at least 2**-300, so no kernel refuses a 0; 1 / |w| can overflow in du."""
    w, _ = _in_range(w)
    re, du = w._re, w._du
    k, kd = _dinv(*_droot(*_ddot(re, du, re, du)))
    _refuse_non_finite((k, kd))
    (r0, r1, r2), (d0, d1, d2) = re, du
    u = k * r0, k * r1, k * r2
    v = k * d0 + kd * r0, k * d1 + kd * r1, k * d2 + kd * r2
    _refuse_non_finite(u + v, vector=True)
    return _dual(*_ddot(line._re, line._du, u, v))


def _direction_certificate(moments) -> Line:
    """A line through the origin orthogonal to the unit moments of pure-dual screws."""
    best = None
    best_len = -1.0
    for i in range(len(moments)):
        for j in range(i + 1, len(moments)):
            n = _cross(moments[i], moments[j])
            n_len = _length(n)
            if n_len > best_len:
                best_len = n_len
                best = n
    if best is None or best_len < 1e-12:
        # All moments share one direction; any perpendicular will do.
        m = moments[0]
        i = min(range(3), key=lambda k: abs(m[k]))
        best = _cross(m, _EYE[3 * i:3 * i + 3])
    direction = _over(best, _length(best))
    return _line_through(_ZERO3, direction, _ROUNDINGS * sys.float_info.epsilon)


def thales_check(
    x: DualVec3, y: DualVec3, z: DualVec3, r, tol: float = DEFAULT_TOL
) -> Dual:
    """Residual of the right-angle condition on a dual sphere.

    For x, y, z of equal dual modulus r with x = -y, the chords y - z and
    z - x are orthogonal under the full dual product; the returned residual
    is (y - z) o (z - x), which should vanish: it passes where ``_thales_figure`` of it
    is at most ``tol``. Both parts of |w| - r, the resultant of s = x + y and the
    moment of s about x's axis (``_moment_near``) are compared with tol * |r.re|.
    """
    radius = r if isinstance(r, Dual) else Dual(r)
    bound = tol * abs(radius.re)
    for name, w in (("x", x), ("y", y), ("z", z)):
        n = norm(w)
        if abs(n.re - radius.re) > bound or abs(n.du - radius.du) > bound:
            raise NotOnSphere(f"|{name}| = {n} differs from r = {radius}")
    s = x + y
    if _length(s._re) > bound or _moment_near(s, x) > bound:
        raise NotAntipodal("x and y are not opposite")
    return dot(y - z, z - x)


def _thales_figure(residual: Dual, r: Dual) -> float:
    """The verdict figure of thales_check's residual for radius r: degree 2, over r.re r.re."""
    return _relative((residual,), r.re, r.re)
