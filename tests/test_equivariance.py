"""Verdicts do not depend on where the inputs sit.

Screw geometry is vector geometry over the dual numbers, independent of any
reduction point, so a rigid motion must not change a verdict: the refusal
class, or the kind of result. Each input is moved by a random frame
U = exp_so3d(w) @ exp_so3d(eps t), a turn after a translation of length 0,
1e3 or 1e6, under which a screw z becomes z @ U. Where a result is a value
or a line, it must move as the theory says: a dual angle, a magnitude and a
pitch do not change, and a line l becomes l @ U.

Multiplying a screw by a positive real changes none of its lines, pitches,
dual angles or verdicts either; multiplying it by a power of two moves no bit
of them (the last two sections). Multiplying every screw of a theorem by one
factor, 2**k or 10**+-6, moves none of the theorem reports' verdicts. Scaling
lengths by 10**6 or 10**-6 is out of scope: the CLI compares distances with
an absolute tol.
"""

import math

import numpy as np
import pytest

from helpers import (
    rand_equilibrium_pair,
    rand_generic_triple,
    rand_proper_screw,
    rand_sphere_triple,
    rand_unit,
)
from screwalg import (
    Dual,
    DualVec3,
    TripleTag,
    are_proportional,
    axis_decompose,
    classify_triple,
    common_normal,
    cross,
    dual_angle,
    equilibrium_laws,
    exp_so3d,
    line_from_point_direction,
    petersen_morley,
    thales_check,
)
from screwalg.errors import (
    DegenerateTriangle,
    NonGeneric,
    NotAntipodal,
    NotOnSphere,
    NullVector,
    ParallelResultants,
    ScrewAlgError,
)
from screwalg.geometry import AxisDecomposition, Line
from screwalg.linalg import gram_schmidt, norm, normalized
from screwalg.theorems import (
    PetersenMorleyReport,
    TripleClassification,
    _concurrent_sliding,
    _moment_near,
    _parallel_pair,
    _thales_figure,
    independent_over_D,
)
from test_theorems import THEOREM_KINDS, _length, _theorem_case

OFFSETS = (0.0, 1e3, 1e6)
TOL = 1e-9


def _motion(rng, offset):
    """A random frame: a turn about the origin after a translation of length ``offset``."""
    turn = exp_so3d(DualVec3(rng.uniform(-math.pi, math.pi) * rand_unit(rng)))
    return turn @ exp_so3d(DualVec3(np.zeros(3), offset * rand_unit(rng)))


def _verdict(fn, *args, **kwargs):
    """The refusal class, or the kind of result, of one call."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = fn(*args, **kwargs)
        except ScrewAlgError as exc:
            return type(exc)
    if isinstance(result, TripleClassification):
        return result.tag
    if isinstance(result, PetersenMorleyReport):
        return "degenerate" if result.parallel_degenerate else "proper"
    if isinstance(result, bool):
        return result
    return type(result)


def _reach(*zs):
    """The largest moment over resultant length: how far the rounding of a dual part grows."""
    return max(1.0, *(_length(z.du) / _length(z.re) for z in zs))


# -- the theorems, on the cases their reference comparison draws -----------------

_THEOREMS = {"equilibrium": equilibrium_laws, "petersen": petersen_morley,
             "classify": classify_triple}


@pytest.mark.parametrize("offset", OFFSETS)
def test_theorem_verdicts_do_not_move(offset):
    # equilibrium:extreme is left out: its sparse components up to 1e308 and
    # its exact zeros decide overflow and exact parallelism, which any turn
    # changes wherever the triple sits.
    kinds = [k for k in THEOREM_KINDS if k != "equilibrium:extreme"]
    rng = np.random.default_rng(41)
    seen = set()
    for i in range(20 * len(kinds)):
        kind = kinds[i % len(kinds)]
        args, tol = _theorem_case(rng, kind, wide=(i // len(kinds)) % 2 == 1)
        fn = _THEOREMS[kind.partition(":")[0]]
        expected = _verdict(fn, *args, tol=tol)
        frame = _motion(rng, offset)
        assert _verdict(fn, *(z @ frame for z in args), tol=tol) == expected, (i, kind)
        seen.add(expected)
    # Refusals and results of every theorem are among the verdicts compared.
    assert {"proper", "degenerate", *TripleTag} <= seen


@pytest.mark.parametrize("offset", OFFSETS)
def test_generic_inputs_keep_their_verdicts(offset):
    rng = np.random.default_rng(42)
    for _ in range(100):
        frame = _motion(rng, offset)
        triple = rand_generic_triple(rng)
        moved = [z @ frame for z in triple]
        assert _verdict(petersen_morley, *moved, tol=TOL) == "proper"
        assert _verdict(classify_triple, *moved, tol=TOL) is TripleTag.INDEPENDENT_BASIS
        x, y = rand_equilibrium_pair(rng)
        report = equilibrium_laws(x @ frame, y @ frame, tol=TOL)
        reference = equilibrium_laws(x, y, tol=TOL)
        for moved_alpha, alpha in ((report.alpha_xy, reference.alpha_xy),
                                   (report.alpha_yz, reference.alpha_yz)):
            assert abs(moved_alpha.re - alpha.re) <= 1e-12
            assert abs(moved_alpha.du - alpha.du) <= 1e-12 * _reach(x @ frame, y @ frame)


def test_common_orthogonal_line_triples_classify_identically():
    # The witness is checked against the rounding it carries, which grows as
    # 1 / sin of the angle between the first two resultants, so moving the
    # triple does not refuse it.
    rng = np.random.default_rng(43)
    for i in range(300):
        zs, tol = _theorem_case(rng, "classify:CommonOrthogonalLine", wide=False)
        for offset in OFFSETS:
            frame = _motion(rng, offset)
            verdict = _verdict(classify_triple, *(z @ frame for z in zs), tol=tol)
            assert verdict is TripleTag.COMMON_ORTHOGONAL_LINE, (i, offset, verdict)


WORKED_TRIPLE = (
    DualVec3([1.3, 0.2, -0.7], [0.5, 1.1, 2.0]),
    DualVec3([0.1, 1.7, 0.4], [-1.0, 0.3, 0.2]),
    DualVec3([-0.6, 0.3, 1.9], [0.8, -0.4, 1.5]),
)


@pytest.mark.parametrize("offset", OFFSETS)
def test_worked_petersen_triple_keeps_its_verdict(offset):
    # Thresholds scaled by 6-component magnitudes refused it from 1e5 on.
    frame = _motion(np.random.default_rng(44), offset)
    moved = [z @ frame for z in WORKED_TRIPLE]
    assert _verdict(petersen_morley, *moved, tol=TOL) == "proper"
    assert _verdict(petersen_morley, *moved, tol=0.0) == "proper"


# -- pairs: proportionality, common normal, dual angle, axis -------------------

def _turned(rng, e, angle):
    """The unit vector ``angle`` rad from the unit vector e, turned in a random plane."""
    n = np.cross(e, rand_unit(rng))
    return math.cos(angle) * e + math.sin(angle) * n / np.linalg.norm(n)


def _pairs(rng):
    """(kind, x, y): generic, a dual multiple, parallel axes apart, lines 1e-6 and
    1e-10 rad apart through one point, anti-parallel with a pitch, and a pure dual second."""
    x = rand_proper_screw(rng)
    e, p = rand_unit(rng), rng.normal(size=3)
    apart = line_from_point_direction(p + np.cross(e, rand_unit(rng)), e)
    line = line_from_point_direction(p, e).screw
    return [
        ("generic", x, rand_proper_screw(rng)),
        ("multiple", x, Dual(rng.uniform(0.5, 2.0), rng.uniform(-2, 2)) * x),
        ("parallel", line, apart.screw),
        ("near-parallel", line, line_from_point_direction(p, _turned(rng, e, 1e-6)).screw),
        ("sub-tol", line, line_from_point_direction(p, _turned(rng, e, 1e-10)).screw),
        ("anti-parallel", x, DualVec3(-2.0 * x.re, rng.normal(size=3))),
        ("pure-dual", x, DualVec3(np.zeros(3), rng.normal(size=3))),
    ]


def _assert_line_moved(line, moved_line, frame, reach, condition=1.0):
    """moved_line is line @ frame, to a rounding grown by ``condition``, and by
    ``reach`` in the moment."""
    image = line.screw @ frame
    assert np.abs(moved_line.screw.re - image.re).max() <= 1e-12 * condition
    assert np.abs(moved_line.screw.du - image.du).max() <= 1e-12 * condition * reach


@pytest.mark.parametrize("offset", OFFSETS)
def test_pair_verdicts_do_not_move(offset):
    rng = np.random.default_rng(45)
    expected_proportional = {"generic": False, "multiple": True, "parallel": False,
                             "near-parallel": False, "sub-tol": True, "anti-parallel": False}
    for _ in range(50):
        for kind, x, y in _pairs(rng):
            frame = _motion(rng, offset)
            mx, my = x @ frame, y @ frame
            reach = _reach(mx, my) if kind != "pure-dual" else _reach(mx)
            if kind in expected_proportional:
                assert are_proportional(mx, my, tol=TOL) is expected_proportional[kind], kind
            for fn in (are_proportional, common_normal, dual_angle):
                assert _verdict(fn, mx, my) == _verdict(fn, x, y), (kind, fn.__name__)
            if kind in ("generic", "near-parallel"):
                # The normal's direction is known to about eps / sin(theta).
                sine = _length(np.cross(x.re, y.re)) / (_length(x.re) * _length(y.re))
                _assert_line_moved(common_normal(x, y), common_normal(mx, my), frame, reach,
                                   condition=1.0 / sine)
            if kind in ("generic", "multiple", "near-parallel", "sub-tol"):
                # Exactly parallel resultants take the exact branch, 0 or pi with
                # dual part 0, and a turn takes them off it, so they are left out.
                theta, moved_theta = dual_angle(x, y), dual_angle(mx, my)
                assert abs(moved_theta.re - theta.re) <= 1e-12, kind
                assert abs(moved_theta.du - theta.du) <= 1e-12 * reach, kind
            dec, moved_dec = axis_decompose(x), axis_decompose(mx)
            assert abs(moved_dec.magnitude - dec.magnitude) <= 1e-12 * dec.magnitude
            assert abs(moved_dec.pitch - dec.pitch) <= 1e-12 * reach
            _assert_line_moved(dec.axis, moved_dec.axis, frame, reach)
            assert _verdict(axis_decompose, my) == _verdict(axis_decompose, y)


def _turn_about(point, e, angle, rng):
    """The frame turning by ``angle`` about a line through ``point`` orthogonal to e."""
    axis = line_from_point_direction(point, _turned(rng, e / np.linalg.norm(e), math.pi / 2))
    return exp_so3d(angle * axis.screw)


@pytest.mark.parametrize("offset", OFFSETS)
def test_petersen_derived_screw_with_a_sub_tol_resultant_vanishes_anywhere(offset):
    # x meets the axis of n = y cross z at 1e-10 rad, so a = x cross n has a resultant
    # below tol and no moment about x's axis, but |a.du| grows with the distance from
    # the origin: judged by it, a stopped vanishing away from the origin.
    rng = np.random.default_rng(47)
    for _ in range(20):
        _, y, z = rand_generic_triple(rng)
        n = axis_decompose(cross(y, z)).axis
        x = line_from_point_direction(n.point, _turned(rng, n.direction, 1e-10)).screw
        frame = _motion(rng, offset)
        with pytest.raises(NonGeneric, match="derived screw a vanishes"):
            petersen_morley(x @ frame, y @ frame, z @ frame, tol=TOL)


# -- Thales ---------------------------------------------------------------------

@pytest.mark.parametrize("offset", OFFSETS)
def test_thales_verdicts_do_not_move(offset):
    rng = np.random.default_rng(46)
    for _ in range(100):
        radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        x, y, z = rand_sphere_triple(rng, radius)
        cases = [
            ((x, y, z), Dual),
            # y misses -x by 1e-6 in its moment.
            ((x, DualVec3(y.re, y.du + 1e-6 * np.cross(y.re, rand_unit(rng))), z), None),
            # z gains a pitch of 1e-6: its modulus leaves the sphere.
            ((x, y, z + Dual(0.0, 1e-6) * z), None),
            # y is turned 1e-10 about a line that meets its axis: x + y has a resultant
            # below tol, so |(x + y).du| grows with the distance from the origin.
            ((x, y @ _turn_about(axis_decompose(y).axis.point, y.re, 1e-10, rng), z), Dual),
        ]
        for screws, kind in cases:
            expected = _verdict(thales_check, *screws, radius, tol=TOL)
            if kind is not None:
                assert expected is kind
            frame = _motion(rng, offset)
            moved = [w @ frame for w in screws]
            assert _verdict(thales_check, *moved, radius, tol=TOL) == expected



# -- scaling by a power of two --------------------------------------------------
#
# Each function below brings its screws into range (linalg._in_range) on entry,
# and a power of two moves no bit of a normal float. So multiplying each input
# by its own 2**k, k in [-1000, 1000] with every component still a normal
# float, leaves every verdict, tag, line, pitch and dual angle bit for bit as it
# was, and multiplies norm and the axis_decompose magnitude by exactly 2**k.

def _power(rng, z):
    """A k in [-1000, 1000] for which every component of z times 2**k is a
    normal float, with one binary order to spare for a modulus above the largest."""
    exponents = [math.frexp(c)[1] for c in z._re + z._du if c]
    low = max(-1000, *(-1021 - e for e in exponents))
    high = min(1000, *(1022 - e for e in exponents))
    return int(rng.integers(low, high + 1))


def _times(z, k):
    return DualVec3([math.ldexp(c, k) for c in z._re], [math.ldexp(c, k) for c in z._du])


def _bits(result):
    """The floats, tags and flags that make up a result."""
    if isinstance(result, Dual):
        return result.re, result.du
    if isinstance(result, DualVec3):
        return result._re, result._du
    if isinstance(result, Line):
        return _bits(result.screw)
    if isinstance(result, AxisDecomposition):
        return result.magnitude, result.pitch, _bits(result.axis)
    if isinstance(result, TripleClassification):
        return result.tag, None if result.witness is None else _bits(result.witness)
    if isinstance(result, (tuple, list)):
        return tuple(_bits(r) for r in result)
    return result


def _outcome(fn, *args):
    """_bits of one call's result, or its refusal class."""
    try:
        return _bits(fn(*args))
    except ScrewAlgError as exc:
        return type(exc)


def test_norm_and_magnitude_are_multiplied_by_the_power():
    rng = np.random.default_rng(48)
    for _ in range(100):
        for kind, x, y in _pairs(rng):
            for z in (x, y):
                k = _power(rng, z)
                scaled = _times(z, k)
                n = _outcome(norm, z)
                expected = n if n is NullVector else (math.ldexp(n[0], k), math.ldexp(n[1], k))
                assert _outcome(norm, scaled) == expected, (kind, k)
                dec = _outcome(axis_decompose, z)
                if dec is not NullVector:
                    dec = (math.ldexp(dec[0], k), *dec[1:])
                assert _outcome(axis_decompose, scaled) == dec, (kind, k)


def test_pairs_keep_every_bit():
    rng = np.random.default_rng(49)
    seen = set()
    for _ in range(100):
        for kind, x, y in _pairs(rng):
            a, b = _power(rng, x), _power(rng, y)
            sx, sy = _times(x, a), _times(y, b)
            for fn in (dual_angle, common_normal, are_proportional,
                       lambda u, v: independent_over_D([u, v])):
                expected = _outcome(fn, x, y)
                assert _outcome(fn, sx, sy) == expected, (kind, a, b)
                seen.add(expected if isinstance(expected, (bool, type)) else fn)
            assert _outcome(normalized, sx) == _outcome(normalized, x), (kind, a)
            # _moment_near brings z into range, not s: the moment is a length in the
            # units of s, which its callers compare in those units. So it moves by
            # exactly 2**c where s stays in range.
            if not x.is_pure_dual:
                c = int(rng.integers(-100, 101))
                moment = _moment_near(y, x)
                assert _moment_near(_times(y, c), sx) == math.ldexp(moment, c), (kind, a, c)
    assert {True, False, ParallelResultants, NullVector, dual_angle, common_normal} <= seen


_CLASSIFY_KINDS = [k for k in THEOREM_KINDS if k.startswith("classify:")]


def test_triples_keep_every_bit():
    rng = np.random.default_rng(50)
    seen = set()
    for i in range(40 * len(_CLASSIFY_KINDS)):
        kind = _CLASSIFY_KINDS[i % len(_CLASSIFY_KINDS)]
        zs, tol = _theorem_case(rng, kind, wide=(i // len(_CLASSIFY_KINDS)) % 2 == 1)
        scaled = [_times(z, _power(rng, z)) for z in zs]
        res, scaled_res = [z._re for z in zs], [z._re for z in scaled]
        for fn, args, scaled_args in (
            (classify_triple, (*zs, tol), (*scaled, tol)),
            (independent_over_D, (zs, tol), (scaled, tol)),
            (lambda *r: _parallel_pair(r, tol), res, scaled_res),
            (_concurrent_sliding, (zs, tol), (scaled, tol)),
            (gram_schmidt, zs, scaled),
        ):
            expected = _outcome(fn, *args)
            assert _outcome(fn, *scaled_args) == expected, (i, kind)
            if fn is classify_triple:
                seen.add(expected if isinstance(expected, type) else expected[0])
    assert {*TripleTag} <= seen


# -- the theorem reports under one factor ---------------------------------------
#
# The reports judge each residual relative to a product of input moduli of its
# own degree (theorems._relative). Multiplying every screw, and the radius, by
# one real unit is a module automorphism: it moves no verdict, and by 2**k,
# k in [-150, 150], no bit of a relative figure either. The reports compute at
# the inputs' own size, so this holds only while no square or product they take
# leaves the normal floats: near 2**+-170 bits move or the call refuses.

def _reports(kind, args):
    """The relative figures and the verdict of one theorem call, or its refusal class."""
    try:
        if kind.startswith("equilibrium"):
            report = equilibrium_laws(*args, tol=TOL)
            return report.max_scaled_residual(), report.ok(TOL)
        if kind.startswith("petersen"):
            report = petersen_morley(*args, tol=TOL)
            return report.jacobi_residual, report.max_residual(), report.ok(TOL)
        *screws, r = args
        figure = _thales_figure(thales_check(*screws, r, tol=TOL), r)
        return figure, figure <= TOL
    except ScrewAlgError as exc:
        return type(exc)


def _report_cases(rng):
    """(kind, args): 1000 each of equilibrium pairs, generic triples and sphere
    triples with their radius, then the theorem kinds of test_theorems and
    sphere triples off the sphere or not antipodal, for the refusals."""
    for _ in range(1000):
        yield "equilibrium", rand_equilibrium_pair(rng)
        yield "petersen", rand_generic_triple(rng)
        radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        yield "thales", (*rand_sphere_triple(rng, radius), radius)
    kinds = [k for k in THEOREM_KINDS if k.startswith(("equilibrium", "petersen"))
             and k != "equilibrium:extreme"]
    for i in range(20 * len(kinds)):
        kind = kinds[i % len(kinds)]
        yield kind, _theorem_case(rng, kind, wide=(i // len(kinds)) % 2 == 1)[0]
    for _ in range(50):
        radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        x, y, z = rand_sphere_triple(rng, radius)
        yield "thales", (x, y, 1.01 * z, radius)
        yield "thales", (x, z, y, radius)


def _common(factor, args):
    """Every screw and dual in ``args`` times ``factor``, a float or a power of two."""
    def times(c):
        return math.ldexp(c, factor) if isinstance(factor, int) else factor * c

    return [Dual(times(a.re), times(a.du)) if isinstance(a, Dual)
            else DualVec3([times(c) for c in a._re], [times(c) for c in a._du]) for a in args]


def test_theorem_reports_keep_every_bit_under_a_power_of_two():
    rng = np.random.default_rng(51)
    seen = set()
    for kind, args in _report_cases(rng):
        k = int(rng.integers(-150, 151))
        expected = _reports(kind, args)
        assert _reports(kind, _common(k, args)) == expected, (kind, k)
        seen.add((kind.partition(":")[0], expected if isinstance(expected, type) else expected[-1]))
    assert {("equilibrium", True), ("petersen", True), ("thales", True)} <= seen
    assert {("equilibrium", DegenerateTriangle), ("petersen", NonGeneric),
            ("thales", NotOnSphere), ("thales", NotAntipodal)} <= seen


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_theorem_verdicts_survive_a_factor_of_ten_to_the_six(factor):
    rng = np.random.default_rng(52)
    for kind, args in _report_cases(rng):
        expected = _reports(kind, args)
        got = _reports(kind, _common(factor, args))
        if isinstance(expected, type):
            assert got is expected, (kind, factor)
        else:
            assert not isinstance(got, type) and got[-1] == expected[-1], (kind, factor)
