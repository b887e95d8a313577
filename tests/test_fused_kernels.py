"""The one-pass kernels against the generic formulas they replace, bit for bit.

exp_so3d, is_frame, _translation and @ each read only the entries they need
in one pass. The formulas they replace are kept here in plain Python as the
reference: I + c1 H + c2 H**2 with a generic matrix product, the full Gram
check, the three-product @ and du re^T's axial vector. Every component is
compared by repr, so the sign of a zero counts, and every verdict must agree,
on random, axis-aligned and pure-dual generators and on products of frames
placed far from the origin.

norm, normalized, the modulus that axis_decompose and its axis take, and the
Rodrigues coefficients of exp_so3d compute on float pairs too. Their former
bodies, on Dual objects and their operators, are kept here as the reference,
compared in the same way.

equilibrium_laws and petersen_morley compute on float pairs in one pass,
calling the pair kernels that the operators call too (linalg._ddot and
_cross_parts, dual._droot, _dinv, _datan2 and _dsincos) and spelling only the ring product
inline. Their former bodies, on Dual and DualVec3 objects and their operators,
are kept here as the reference: every report field and figure must be the same
bytes, and every refusal the same class with the same message, but for the
values a NotFinite message quotes.
"""

import itertools
import math
import random
import re
from operator import add

import pytest

from screwalg import (
    DualMat3, DualVec3, dot, equilibrium_laws, exp_so3d, frame_from_point, is_frame, linalg,
    norm, petersen_morley,
)
from screwalg.dual import DEFAULT_TOL, Dual, _droot, _dual, _Value
from screwalg.dual import atan2 as dual_atan2
from screwalg.dual import cos as dual_cos
from screwalg.dual import sin as dual_sin
from screwalg.dual import sqrt as dual_sqrt
from screwalg.errors import DegenerateTriangle, NonGeneric, NotFinite, NullVector
from screwalg.geometry import AxisDecomposition, _axis, _axis_in_range, axis_decompose
from screwalg.linalg import (
    _SERIES_BELOW, _SIN_OVER, _VERSIN_OVER, _ZERO3, _add, _in_range, _length, _over, _parallel,
    _scale, _scaled, cross, normalized,
)
from screwalg.theorems import (
    EquilibriumReport, PetersenMorleyReport, _direction_certificate, _moment_near, _require_proper,
)

# -- the reference formulas -----------------------------------------------------

_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _matmat(a, b):
    return tuple(
        a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6] for i in (0, 3, 6) for j in (0, 1, 2)
    )


def _vecmat(v, m):
    return tuple(v[0] * m[j] + v[1] * m[j + 3] + v[2] * m[j + 6] for j in (0, 1, 2))


def _transpose(a):
    return tuple(a[i + j] for j in (0, 1, 2) for i in (0, 3, 6))


def _add(a, b):
    return tuple(map(add, a, b))


def _hat(v):
    x, y, z = v
    return (0.0, z, -y, -z, 0.0, x, y, -x, 0.0)


def reference_rodrigues(r, d, c1, c2):
    """I + c1 H + c2 H**2, with H**2 from the generic product over the duals."""
    h_re, h_du = _hat(r), _hat(d)
    h2_re = _matmat(h_re, h_re)
    h2_du = _add(_matmat(h_re, h_du), _matmat(h_du, h_re))
    a, da, c, dc = c1.re, c1.du, c2.re, c2.du
    re = tuple([e + a * h + c * g for e, h, g in zip(_EYE, h_re, h2_re)])
    du = tuple([a * hd + da * h + c * gd + dc * g for hd, h, gd, g in zip(h_du, h_re, h2_du, h2_re)])
    return re, du


def reference_horner(coefficients, q):
    """The series F at a dual argument: F(q.re) + eps q.du F'(q.re)."""
    x, dx = q.re, q.du
    a = b = 0.0
    for c in coefficients:
        a, b = a * x + c, b * x + a * dx
    return _dual(a, b)


def reference_coefficients(q):
    """sin(phi)/phi and (1 - cos phi)/phi**2 at the dual angle phi with phi o phi = q."""
    if q.re < _SERIES_BELOW * _SERIES_BELOW:
        return reference_horner(_SIN_OVER, q), reference_horner(_VERSIN_OVER, q)
    phi = dual_sqrt(q)
    t = phi.re
    sin_t, cos_t = math.sin(t), math.cos(t)
    try:
        d_versin = (t * t * sin_t - 2.0 * t * (1.0 - cos_t)) / (t ** 4)
    except OverflowError:
        d_versin = (sin_t - 2.0 * (1.0 - cos_t) / t) / (t * t)
    return (
        _dual(sin_t / t, phi.du * ((t * cos_t - sin_t) / (t * t))),
        _dual((1.0 - cos_t) / (t * t), phi.du * d_versin),
    )


def reference_exp_so3d(b):
    c1, c2 = reference_coefficients(dot(b, b))
    return DualMat3._raw(*linalg._rodrigues_matrix(b._re, b._du, c1.re, c1.du, c2.re, c2.du))


def _modulus(ss):
    """norm(x) from ss = dot(x, x), as a Dual."""
    return _dual(*_droot(ss.re, ss.du))


def reference_norm(x):
    x, k = _in_range(x)
    n = _modulus(dot(x, x))
    return _dual(*_scaled((n.re, n.du), -k, "modulus")) if k else n


def reference_normalized(x):
    x, _ = _in_range(x)
    return x * _modulus(dot(x, x)).inv()


def reference_axis(z):
    z, _ = _in_range(z)
    return _axis_in_range(z, _modulus(dot(z, z)).re)


def reference_axis_decompose(z):
    z, k = _in_range(z)
    n = _modulus(dot(z, z))
    a = n.re
    axis = _axis_in_range(z, a)
    magnitude = _scaled((a,), -k, "magnitude")[0] if k else a
    return AxisDecomposition(magnitude=magnitude, pitch=n.du / a, axis=axis)


def reference_is_frame(re, du, tol):
    if max(map(abs, (g - e for g, e in zip(_matmat(re, _transpose(re)), _EYE)))) > tol:
        return False
    y = _matmat(re, _transpose(du))
    du_error = max(map(abs, _add(y, _transpose(y))))
    if du_error > tol and du_error > tol * max(map(abs, du)):
        return False
    r = re
    return ((r[1] * r[5] - r[2] * r[4]) * r[6] + (r[2] * r[3] - r[0] * r[5]) * r[7]
            + (r[0] * r[4] - r[1] * r[3]) * r[8]) > 0.0


def reference_product(a, ad, b, bd):
    act = _matmat if len(a) == 9 else _vecmat
    return act(a, b), _add(act(a, bd), act(ad, b))


def reference_cross(a, ad, b, bd):
    """a x b, and a x bd + ad x b added componentwise."""
    return _cross(a, b), _add(_cross(a, bd), _cross(ad, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def reference_translation(re, du):
    s = _matmat(du, _transpose(re))
    return (0.5 * (s[5] - s[7]), 0.5 * (s[6] - s[2]), 0.5 * (s[1] - s[3]))


def bits(*parts):
    return [repr(c) for part in parts for c in part]


# -- inputs -------------------------------------------------------------------

def _value(rng):
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)


def random_generators(rng, n):
    return [(tuple(rng.uniform(-3, 3) for _ in range(3)), tuple(rng.uniform(-3, 3) for _ in range(3)))
            for _ in range(n)]


def axis_aligned_generators(rng):
    """Each component 0.0, -0.0 or a value: all 3**6 patterns, so every resultant
    along an axis or in a coordinate plane, with zeros of both signs."""
    return [tuple(tuple(_value(rng) if c is None else c for c in part) for part in (p[:3], p[3:]))
            for p in itertools.product((0.0, -0.0, None), repeat=6)]


def pure_dual_generators(rng):
    """A zero resultant, of every sign pattern, with random and axis-aligned moments."""
    moments = [tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(8)]
    moments += [tuple(_value(rng) if c is None else c for c in p)
                for p in itertools.product((0.0, -0.0, None), repeat=3)]
    return [(r, d) for r in itertools.product((0.0, -0.0), repeat=3) for d in moments]


def generators():
    rng = random.Random(20261)
    return random_generators(rng, 300) + axis_aligned_generators(rng) + pure_dual_generators(rng)


GENERATORS = generators()


def far_frames(rng, n):
    """Frames placed up to 1e8 from the origin, turned by random and axis-aligned generators."""
    frames = []
    turns = random_generators(rng, n) + rng.sample(axis_aligned_generators(rng), n)
    for k, (r, d) in enumerate(turns):
        point = [10.0 ** rng.uniform(-2, 8) * rng.uniform(-1, 1) for _ in range(3)]
        if k % 5 == 0:
            point[k % 3] = rng.choice([0.0, -0.0])
        frames.append(frame_from_point(point) @ exp_so3d(DualVec3(r, d)))
    return frames


# -- exp_so3d -----------------------------------------------------------------

def test_exp_so3d_keeps_every_bit():
    for r, d in GENERATORS:
        b = DualVec3(r, d)
        c1, c2 = reference_coefficients(dot(b, b))
        u = exp_so3d(b)
        assert bits(u._re, u._du) == bits(*reference_rodrigues(r, d, c1, c2)), (r, d)


COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, -1e-300, 2.75]


def test_rodrigues_kernel_keeps_every_bit_for_any_coefficients():
    # The kernel is exact for any c1, c2, not only those _rodrigues returns: zero
    # and negative coefficients meet the zeros of H and H**2 with either sign.
    rng = random.Random(7)
    for r, d in GENERATORS[::3]:
        for _ in range(4):
            c1 = _dual(rng.choice(COEFFICIENTS), rng.choice(COEFFICIENTS))
            c2 = _dual(rng.choice(COEFFICIENTS), rng.choice(COEFFICIENTS))
            got = linalg._rodrigues_matrix(r, d, c1.re, c1.du, c2.re, c2.du)
            assert bits(*got) == bits(*reference_rodrigues(r, d, c1, c2)), (r, d, c1, c2)


def test_a_zero_of_the_reference_keeps_its_sign():
    # Along z, re[2] = (0 + c1 (-y)) + c2 z x is 0.0: the identity's 0.0 absorbs
    # the -0.0 of c1 (-y). Unrolled as c1 (-y) + c2 z x it would read -0.0.
    r, d = (0.0, 0.0, -0.9066), (-0.638, 0.910, -0.607)
    b = DualVec3(r, d)
    c1, c2 = reference_coefficients(dot(b, b))
    x, y, z = r
    assert repr(c1.re * -y + c2.re * (z * x)) == "-0.0"
    assert repr(reference_rodrigues(r, d, c1, c2)[0][2]) == "0.0"
    assert repr(exp_so3d(b)._re[2]) == "0.0"


def rodrigues_generators():
    """GENERATORS; resultants whose square q = b.re o b.re lies a few roundings either side of
    the cut-off 0.25; and dual parts near 1.7e308 on resultants below, above and far above it,
    so that q's dual part or q itself leaves the floats."""
    rng = random.Random(20266)
    out = list(GENERATORS)
    for k in range(-4, 5):
        length = _SERIES_BELOW * (1.0 + k * 2.0 ** -52)
        for _ in range(6):
            e = _unit(rng)
            r = tuple(length * c for c in e)
            out.append((r, tuple(rng.uniform(-3, 3) for _ in range(3))))
        out.append(((length, 0.0, -0.0), (0.0, -0.0, rng.uniform(-3, 3))))
    for size in (0.3, 1.2, 3.0, 1e-200, 1e154, 1e155):
        for _ in range(12):
            r = tuple(size * c for c in _unit(rng))
            d = tuple(rng.choice([-1.0, 1.0]) * 1.7e308 * rng.uniform(0.1, 1.0) for _ in range(3))
            out.append((r, d))
            out.append((r, tuple(c * 1e-3 for c in d)))
            out.append((r, tuple(math.copysign(1.7e308 * rng.uniform(0.5, 1.0), c) for c in r)))
    for k in (1.0, 0.28, -0.28):
        out.append(((k, k, -k), (1.7e308, 1.7e308, -1.7e308)))
    return out


def test_exp_so3d_and_its_coefficients_keep_every_bit_and_refusal_of_the_dual_bodies():
    seen = set()
    for r, d in rodrigues_generators():
        b = DualVec3(r, d)
        expected = _part_outcome(lambda: reference_coefficients(dot(b, b)))
        assert _part_outcome(linalg._rodrigues, *linalg._ddot(r, d, r, d)) == expected, (r, d)
        expected = _part_outcome(reference_exp_so3d, b)
        assert _part_outcome(exp_so3d, b) == expected, (r, d)
        branch = "series" if linalg._dot3(r, r) < 0.25 else "closed"
        seen.add((branch, expected[0] if isinstance(expected, tuple) else "matrix"))
    assert seen == {(branch, outcome) for branch in ("series", "closed")
                    for outcome in ("matrix", NotFinite)}, seen


# -- @ and _translation ----------------------------------------------------------

@pytest.fixture(scope="module")
def frames():
    return far_frames(random.Random(5), 60)


def test_products_keep_every_bit(frames):
    rng = random.Random(6)
    for u in frames:
        v = rng.choice(frames)
        assert bits((u @ v)._re, (u @ v)._du) == bits(*reference_product(u._re, u._du, v._re, v._du))
        x = v.row(rng.randrange(3))
        got = x @ u
        assert bits(got._re, got._du) == bits(*reference_product(x._re, x._du, u._re, u._du))


def test_translation_keeps_every_bit(frames):
    for u in frames + [u @ v for u, v in zip(frames, frames[1:])]:
        assert bits(linalg._translation(u)) == bits(reference_translation(u._re, u._du))


# -- is_frame -------------------------------------------------------------------

def _candidates(frames):
    """Frames, near-frames, spoiled ones, reflections and dual parts up to 1.7e308,
    where the dual Gram products overflow."""
    rng = random.Random(8)
    out = []
    for u in frames:
        re, du = u._re, u._du
        out.append((re, du))
        for size in (1e-13, 1e-10, 1e-8, 1e-3):
            out.append((tuple(c + size * rng.uniform(-1, 1) for c in re), du))
            out.append((re, tuple(c + size * rng.uniform(-1, 1) * max(1.0, abs(c)) for c in du)))
        out.append((re[:6] + tuple(-c for c in re[6:]), du))
        for scale in (1e150, 1e290, 1.7e308 / max(1.0, *map(abs, du))):
            out.append((re, tuple(c * scale for c in du)))
        out.append((re, tuple(rng.choice([-1.7e308, 1.7e308, 1e200, -1e154, 0.0]) for _ in du)))
        # Under a tolerance of 1e300 rows of length 1e149 pass the real check, and
        # a diagonal dual entry can read inf - inf: the verdict then hangs on the
        # order in which the entries are compared.
        out.append((tuple(c * 1e149 for c in re), tuple(rng.choice([-1.7e308, 1.7e308]) for _ in du)))
    return out


def test_frame_verdicts_are_the_full_gram_checks(frames):
    for re, du in _candidates(frames):
        m = DualMat3._raw(re, du)
        for tol in (0.0, 1e-12, 1e-9, 1e-6, 1e300):
            assert is_frame(m, tol) == reference_is_frame(re, du, tol), (re, du, tol)


def test_the_candidates_reach_both_verdicts_and_overflow(frames):
    candidates = _candidates(frames)
    verdicts = {reference_is_frame(re, du, 1e-9) for re, du in candidates}
    assert verdicts == {True, False}
    y = [_matmat(re, _transpose(du)) for re, du in candidates]
    assert any(not all(map(math.isfinite, _add(m, _transpose(m)))) for m in y)
    assert any(math.isnan(m[0]) for m in y)


# -- the theorem kernels: references ---------------------------------------------

_PI = Dual(math.pi)
_TWO = Dual(2.0)


def reference_relative(residuals, *moduli):
    figure = max([max(abs(r.re), abs(r.du)) for r in residuals])
    for m in moduli:
        if m == 0.0:
            raise NotFinite("a modulus underflows to 0, so the relative residual overflows")
        figure /= m
    return figure


def reference_parallel_pairs(res, tol):
    u, v, w = [_in_range(r)[0] for r in res]
    yield _parallel(u, v, tol)
    yield _parallel(v, w, tol)
    yield _parallel(w, u, tol)


def reference_equilibrium_laws(x, y, tol=DEFAULT_TOL):
    _require_proper((x, y))
    z = DualVec3._raw(_scale(-1.0, _add(x._re, y._re)), _scale(-1.0, _add(x._du, y._du)))
    if z.is_pure_dual:
        raise NullVector("x + y has zero resultant; the triple leaves the module basis")
    if any(reference_parallel_pairs((x._re, y._re, z._re), tol)):
        raise DegenerateTriangle("a pair of the triple has proportional resultants")
    xx = dot(x, x)
    nx = _modulus(xx)
    yy = dot(y, y)
    ny = _modulus(yy)
    zz = dot(z, z)
    nz = _modulus(zz)
    xy = dot(x, y)
    yz = dot(y, z)
    zx = dot(z, x)
    xy_cross = cross(x, y)
    sine = _modulus(dot(xy_cross, xy_cross))
    alpha_xy = dual_atan2(sine, -xy)
    alpha_yz = dual_atan2(sine, -yz)
    alpha_zx = dual_atan2(sine, -zx)
    cosine_residuals = (
        zz - xx - yy + nx * _TWO * ny * dual_cos(alpha_xy),
        xx - yy - zz + ny * _TWO * nz * dual_cos(alpha_yz),
        yy - zz - xx + nz * _TWO * nx * dual_cos(alpha_zx),
    )
    ratio_xy = dual_sin(alpha_xy) / nz
    ratio_yz = dual_sin(alpha_yz) / nx
    ratio_zx = dual_sin(alpha_zx) / ny
    sine_ratio_residuals = (ratio_xy - ratio_yz, ratio_yz - ratio_zx, ratio_zx - ratio_xy)
    two_r = ratio_xy
    four_r_sq_volume = two_r * two_r * (xx * yy * zz)
    four_r_squared_residuals = (
        four_r_sq_volume - (xx * yy - xy * xy),
        four_r_sq_volume - (yy * zz - yz * yz),
        four_r_sq_volume - (zz * xx - zx * zx),
    )
    return EquilibriumReport(
        alpha_xy=alpha_xy,
        alpha_yz=alpha_yz,
        alpha_zx=alpha_zx,
        cosine_residuals=cosine_residuals,
        sine_ratio_residuals=sine_ratio_residuals,
        four_r_squared_residuals=four_r_squared_residuals,
        angle_sum_residual=alpha_xy + alpha_yz + alpha_zx - _PI,
        two_r=two_r,
        scale=max(nx.re, ny.re, nz.re),
    )


def reference_max_scaled_residual(report):
    m = report.scale
    return max(
        reference_relative(report.cosine_residuals, m, m),
        reference_relative(report.sine_ratio_residuals, 1.0 / m),
        reference_relative(report.four_r_squared_residuals, m, m, m, m),
        reference_relative((report.angle_sum_residual,)),
    )


def reference_petersen_morley(x, y, z, tol=DEFAULT_TOL):
    triple = (x, y, z)
    _require_proper(triple)
    res_lengths = [math.hypot(*w._re) for w in triple]
    pairs = reference_parallel_pairs((x._re, y._re, z._re), tol)
    for key, parallel in zip(("x,y", "y,z", "z,x"), pairs):
        if parallel:
            raise NonGeneric(f"resultants of {key} are parallel")
    a = cross(x, cross(y, z))
    b = cross(z, cross(x, y))
    c = cross(y, cross(z, x))
    derived = (a, b, c)
    scale = res_lengths[0] * res_lengths[1] * res_lengths[2]
    proper = [math.hypot(*w._re) > tol * scale for w in derived]
    for name, w, keeps, owner in zip("abc", derived, proper, (x, z, y)):
        if not keeps and _moment_near(w, owner) <= tol * scale:
            raise NonGeneric(f"derived screw {name} vanishes")
    if all(proper):
        if any(reference_parallel_pairs((a._re, b._re, c._re), tol)):
            raise NonGeneric("derived screws have pairwise parallel resultants")
        normal = axis_decompose(cross(a, b)).axis
        residuals = tuple(dot(normal.screw, normalized(w)) for w in derived)
        degenerate = False
    elif not any(proper):
        moments = [_over(w._du, _length(w._du)) for w in derived]
        normal = _direction_certificate(moments)
        residuals = tuple(dot(normal.screw, DualVec3._raw(_ZERO3, m)) for m in moments)
        degenerate = True
    else:
        raise NonGeneric("some derived screws lost their resultants; no common axis")
    j = a + b + c
    return PetersenMorleyReport(
        a=a,
        b=b,
        c=c,
        jacobi_residual=reference_relative(
            (_dual(math.hypot(*j._re), math.hypot(*j._du)),), *res_lengths),
        normal=normal,
        incidence_residuals=residuals,
        parallel_degenerate=degenerate,
    )


def field_bits(value):
    """repr of every float and flag in a report, in field order."""
    if isinstance(value, (float, bool)):
        return [repr(value)]
    if isinstance(value, tuple):
        return [b for v in value for b in field_bits(v)]
    if isinstance(value, _Value):
        return field_bits(value._values())
    raise TypeError(f"no fields known in {type(value).__name__}")


def _refusal(exc):
    """The class and message of a refusal; a NotFinite message without the values it quotes."""
    message = str(exc)
    if isinstance(exc, NotFinite):
        message = re.sub(r"(got|of) .*?(?=: |$)", r"\1 ...", message)
    return type(exc), message


def outcome(fn, figures, args, tol):
    """Every byte of fn's report and of its figures, or its refusal."""
    try:
        report = fn(*args, tol=tol)
        return field_bits(report) + [repr(f(report)) for f in figures]
    except Exception as exc:  # noqa: BLE001  any exception, a crash included, is compared
        return _refusal(exc)


EQUILIBRIUM = (
    (equilibrium_laws, (lambda r: r.max_scaled_residual(), lambda r: r.ok())),
    (reference_equilibrium_laws,
     (reference_max_scaled_residual, lambda r: reference_max_scaled_residual(r) <= DEFAULT_TOL)),
)
PETERSEN = (
    (petersen_morley, (lambda r: r.max_residual(), lambda r: r.ok())),
    (reference_petersen_morley,
     (lambda r: reference_relative(r.incidence_residuals),
      lambda r: reference_relative(r.incidence_residuals) <= DEFAULT_TOL
      and r.jacobi_residual <= DEFAULT_TOL)),
)


# -- the theorem kernels: inputs ---------------------------------------------------

def _unit(rng):
    while True:
        e = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in e))
        if n > 1e-3:
            return [c / n for c in e]


def workload_screw(rng, e=None):
    """m e + eps m (h e + p x e): magnitude in [0.5, 2], pitch in [-1, 1], axis point in a unit box."""
    e = _unit(rng) if e is None else e
    m, h = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    moment = linalg._cross(p, e)
    return [m * c for c in e], [m * (h * c + d) for c, d in zip(e, moment)]


def _scaled_parts(parts, f, which=(0, 1)):
    """Each screw's parts, (re, du), with f applied to the components of the parts ``which`` names."""
    return [tuple([f(c) for c in part] if i in which else list(part) for i, part in enumerate(s))
            for s in parts]


def _times_two_to(k):
    def f(c):
        try:
            return math.ldexp(c, k)
        except OverflowError:
            return math.copysign(1.7e308, c)
    return f


def _variants(rng, parts):
    """parts, times 2**k for one k in [-150, 150], and times 1e6 and 1e-6."""
    yield parts
    yield _scaled_parts(parts, _times_two_to(rng.randint(-150, 150)))
    yield _scaled_parts(parts, lambda c: c * 1e6)
    yield _scaled_parts(parts, lambda c: c * 1e-6)


def _extremes(rng, parts):
    """Components near 1e154 and 1e-160, where squares leave the floats, near 1e102 and
    1e-108, where products of three do, and near the largest float; in the resultants, the
    moments or both, on one screw or all of them. Then one moment near the largest float
    along x cross y, which no dot product of the pair meets, so that cross overflows alone."""
    for size in (1e154, 1e-160, 1e102, 1e-108, 1.5e308):
        for which in ((0,), (1,), (0, 1)):
            yield _scaled_parts(parts, lambda c: c * size * rng.uniform(0.5, 1.0), which)
        one = list(parts)
        one[0] = _scaled_parts(parts[:1], lambda c: c * size / 3.0)[0]
        yield one
    normal = linalg._cross(parts[0][0], parts[1][0])
    for slot in range(len(parts)):
        huge = list(parts)
        huge[slot] = (parts[slot][0], [c * 1e308 for c in normal])
        yield huge


def _axis_aligned(rng, n, slot):
    """Every pattern of 0.0, -0.0 and a value over the six components of screw ``slot``,
    the other screws workload-shaped or, half the time, each of a random such pattern."""
    patterns = list(itertools.product((0.0, -0.0, None), repeat=6))

    def screw(pattern):
        values = [rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0) if c is None else c
                  for c in pattern]
        return values[:3], values[3:]

    for pattern in patterns:
        for others in ("workload", "patterns"):
            parts = [workload_screw(rng) if others == "workload" else screw(rng.choice(patterns))
                     for _ in range(n)]
            parts[slot] = screw(pattern)
            yield parts


def _at_the_parallel_boundary(rng, n):
    """Two resultants at an angle whose sine is tol times 1 + delta, for delta from -1e-6 to
    1e-6, so that rounding puts linalg._parallel on either side; with the tol used."""
    for _ in range(60):
        tol = rng.choice([1e-12, 1e-9, 1e-6, 1e-3])
        e = _unit(rng)
        f = _unit(rng)
        g = linalg._cross(e, f)
        g = [c / math.sqrt(sum(d * d for d in g)) for c in g]
        for delta in (-1e-6, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-6):
            s = tol * (1.0 + delta)
            d = [math.sqrt(1.0 - s * s) * a + s * b for a, b in zip(e, g)]
            parts = [workload_screw(rng, e), workload_screw(rng, d)]
            parts += [workload_screw(rng) for _ in range(n - 2)]
            yield parts, tol


def _pure_duals(rng, n):
    """A pure dual in every slot, of each sign of zero; for pairs also y = -x + eps m."""
    for slot in range(n):
        for zeros in itertools.product((0.0, -0.0), repeat=3):
            parts = [workload_screw(rng) for _ in range(n)]
            parts[slot] = (list(zeros), [rng.uniform(-2, 2) for _ in range(3)])
            yield parts
    for _ in range(20):
        x = workload_screw(rng)
        yield [x, ([-c for c in x[0]], [rng.uniform(-2, 2) for _ in range(3)])] + [
            workload_screw(rng) for _ in range(n - 2)]


def _zero_moments(rng, n):
    """Axis-aligned resultants with moments of zeros only, of every sign pattern, so that
    the sign of each zero of the reference reaches the report."""
    axes = [[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.5], [1.5, -0.0, 0.0], [0.0, 1.0, 1.0]]
    for signs in itertools.product(itertools.product((0.0, -0.0), repeat=3), repeat=n):
        yield [(rng.choice(axes), list(moment)) for moment in signs]


def _largest_derived(rng):
    """Triples scaled so that their derived screws a, b, c reach the largest float, where
    a + b + c can overflow while each of a, b and c does not."""
    for _ in range(150):
        parts = [workload_screw(rng) for _ in range(3)]
        x, y, z = (DualVec3(*p) for p in parts)
        derived = (cross(x, cross(y, z)), cross(z, cross(x, y)), cross(y, cross(z, x)))
        top = max(abs(c) for w in derived for c in w._re + w._du)
        for shrink in (1.0, 1.0 - 2.0 ** -40, 0.75):
            size = (1.7976931348623157e308 / top) ** (1.0 / 3.0) * shrink
            yield _scaled_parts(parts, lambda c: c * size)


def _special_triples(rng):
    """Mutually orthogonal axes, whose derived screws are pure duals (the degenerate
    certificate), and zero-pitch screws through one point (concurrent, NonGeneric)."""
    for _ in range(100):
        e = _unit(rng)
        f = _unit(rng)
        f = linalg._cross(e, f)
        f = [c / math.sqrt(sum(d * d for d in f)) for c in f]
        frame = (e, f, linalg._cross(e, f))
        yield [workload_screw(rng, axis) for axis in frame]
        point = [rng.uniform(-1, 1) for _ in range(3)]
        yield [(list(axis), linalg._cross(point, axis)) for axis in frame]


def theorem_cases(n, count):
    """(parts, tol) of n screws: workload-shaped with their variants, axis-aligned patterns,
    pairs at the boundary of linalg._parallel, pure duals and extreme components."""
    rng = random.Random(20262 + n)
    for _ in range(count):
        parts = [workload_screw(rng) for _ in range(n)]
        for variant in _variants(rng, parts):
            yield variant, DEFAULT_TOL
        if rng.random() < 0.3:
            for variant in _extremes(rng, parts):
                yield variant, DEFAULT_TOL
    for slot in range(n):
        for parts in _axis_aligned(rng, n, slot):
            yield parts, DEFAULT_TOL
    yield from _at_the_parallel_boundary(rng, n)
    for parts in _pure_duals(rng, n):
        yield parts, DEFAULT_TOL
    for parts in _zero_moments(rng, n):
        yield parts, DEFAULT_TOL
    if n == 3:
        for parts in itertools.chain(_special_triples(rng), _largest_derived(rng)):
            yield parts, DEFAULT_TOL


def _finite_parts(parts):
    return all(math.isfinite(c) for screw in parts for part in screw for c in part)


def _compare(kernels, n, count):
    (fused, fused_figures), (reference, reference_figures) = kernels
    seen = {}
    cases = 0
    for parts, tol in filter(lambda case: _finite_parts(case[0]), theorem_cases(n, count)):
        args = [DualVec3(re, du) for re, du in parts]
        expected = outcome(reference, reference_figures, args, tol)
        assert outcome(fused, fused_figures, args, tol) == expected, (parts, tol)
        label = expected[0] if isinstance(expected, tuple) else "report"
        seen[label] = seen.get(label, 0) + 1
        cases += 1
    return cases, seen


def test_equilibrium_laws_keeps_every_byte_of_the_reference():
    cases, seen = _compare(EQUILIBRIUM, 2, 2000)
    assert cases >= 20000
    assert {"report", DegenerateTriangle, NullVector, NotFinite} <= set(seen), seen


def test_petersen_morley_keeps_every_byte_of_the_reference():
    cases, seen = _compare(PETERSEN, 3, 600)
    assert cases >= 5000
    assert {"report", NonGeneric, NullVector, NotFinite} <= set(seen), seen


# -- the theorem kernels' parts, one at a time -----------------------------------------

def _part_outcome(fn, *args):
    try:
        return field_bits(fn(*args))
    except Exception as exc:  # noqa: BLE001
        return _refusal(exc)


def _kernel_screws():
    """Workload-shaped screws, their axis-aligned patterns, and each times sizes from
    1e-160 to the largest float in its resultant, its moment or both."""
    rng = random.Random(20263)
    screws = [workload_screw(rng) for _ in range(200)]
    screws += [(p[:3], p[3:]) for p in itertools.product((0.0, -0.0, 1.5, -0.5), repeat=6)][::7]
    out = []
    for re_, du in screws:
        for size_re, size_du in ((1, 1), (1, 1e300), (1e-10, 1.5e308 / 3), (1e154, 1e154),
                                 (1e-160, 1e154), (1e-160, 1), (1e100, 1e300)):
            parts = [c * size_re for c in re_], [c * size_du for c in du]
            if _finite_parts([parts]):
                out.append(DualVec3(*parts))
    return out


def test_normalized_keeps_every_bit_of_x_times_the_inverse_modulus():
    seen = set()
    for x in _kernel_screws():
        expected = _part_outcome(reference_normalized, x)
        assert _part_outcome(normalized, x) == expected, x
        seen.add(expected[0] if isinstance(expected, tuple) else "unit")
    assert seen == {"unit", NullVector, NotFinite}, seen


def test_norm_and_the_axis_keep_every_bit_of_the_modulus_dual():
    # Moments along the resultant near the largest float, where the modulus's dual part
    # overflows: in z o z, in the scaling into range, and in the scaling back.
    extremes = [DualVec3([1.0, 1.0, 1.0], [1.7e308] * 3),
                DualVec3([1e-200, 2e-200, -1e-200], [1e308, 1.7e308, -1e308]),
                DualVec3([1e300] * 3, [1.7e308] * 3)]
    seen = set()
    for z in _kernel_screws() + extremes:
        expected = _part_outcome(reference_norm, z)
        assert _part_outcome(norm, z) == expected, z
        seen.add(expected[0] if isinstance(expected, tuple) else "modulus")
        assert _part_outcome(axis_decompose, z) == _part_outcome(reference_axis_decompose, z), z
        assert _part_outcome(_axis, z) == _part_outcome(reference_axis, z), z
    assert seen == {"modulus", NullVector, NotFinite}, seen


def test_cross_parts_are_cross():
    """linalg.cross, one pass through linalg._cross_parts, is the generic formula bit for bit."""
    screws = _kernel_screws()
    rng = random.Random(20265)
    extremes = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.5, -0.5)
    screws += [DualVec3([rng.choice(extremes) for _ in range(3)],
                        [rng.choice(extremes) for _ in range(3)]) for _ in range(2000)]
    for _ in range(20000):
        u, v = rng.choice(screws), rng.choice(screws)
        expected = _part_outcome(lambda: DualVec3._raw(*reference_cross(u._re, u._du, v._re, v._du)))
        assert _part_outcome(cross, u, v) == expected, (u, v)
