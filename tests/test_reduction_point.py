"""Every change of reduction point against the formula it replaced, bit for bit.

A move by t is du + t x re, written once as linalg._moved, and the foot of a
screw's axis is written once as linalg._axis_foot. field_at, motor_reduce,
the lines through a point, axis_decompose, common_normal, _moment_near and
the CLI's point/direction screws each once spelled their own moment. Those
formulas are kept here in plain Python as the reference, and every component
is compared by repr, so the sign of a zero counts, on random screws,
axis-aligned screws with zeros of both signs and points up to 1e12 from the
origin. motor_unreduce once took v - s x p where it now takes v + p x s,
which can differ in the sign of a zero only, so it is compared by value.
"""

import itertools
import math
import random

from screwalg import (
    DualVec3,
    axis_decompose,
    common_normal,
    cross,
    field_at,
    line_from_point_direction,
    motor_reduce,
    motor_unreduce,
    norm,
)
from screwalg.cli import _parse_screw
from screwalg.linalg import _parallel
from screwalg.theorems import _moment_near

# -- the reference formulas -----------------------------------------------------


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def reference_field(re, du, p):
    """du + re x p."""
    return tuple(d + c for d, c in zip(du, _cross(re, p)))


def reference_line(p, e):
    """The moment p x e, then e and it divided by |e| and the pitch part projected away."""
    length = math.sqrt(_dot(e, e))
    m = tuple(c / length for c in _cross(p, e))
    e = tuple(c / length for c in e)
    k = _dot(m, e)
    return e, tuple(c - k * a for c, a in zip(m, e))


def reference_axis(re, du):
    """The line through re x du / (re . re) along re / |re|."""
    rr = _dot(re, re)
    point = tuple(c / rr for c in _cross(re, du))
    a = math.sqrt(rr)
    return reference_line(point, tuple(c / a for c in re))


def reference_moment_near(s, z):
    """|s.du - foot x s.re| with foot z's axis foot, less its part along z.re x s.re."""
    e, r = z._re, s._re
    rr = _dot(e, e)
    foot = tuple(c / rr for c in _cross(e, z._du))
    v = tuple(d - c for d, c in zip(s._du, _cross(foot, r)))
    w = _cross(e, r)
    if any(w):
        n = math.hypot(*w)
        w = tuple(c / n for c in w)
        k = _dot(v, w)
        v = tuple(c - k * a for c, a in zip(v, w))
    return math.hypot(*v)


def bits(*parts):
    return [repr(c) for part in parts for c in part]


# -- inputs -------------------------------------------------------------------

def _value(rng):
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)


def _point(rng, k):
    """Up to 1e12 from the origin; every fifth with a zero coordinate of either sign."""
    p = [10.0 ** rng.uniform(-2, 12) * rng.uniform(-1, 1) for _ in range(3)]
    if k % 5 == 0:
        p[k % 3] = rng.choice([0.0, -0.0])
    return tuple(p)


def screws(rng):
    """Random screws, then all 3**6 patterns of 0.0, -0.0 or a value, then random
    resultants whose moments are taken about points up to 1e12 away."""
    found = [tuple(tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(2))
             for _ in range(200)]
    found += [tuple(tuple(_value(rng) if c is None else c for c in part) for part in (p[:3], p[3:]))
              for p in itertools.product((0.0, -0.0, None), repeat=6)]
    for k in range(200):
        r, d = (tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(2))
        found.append((r, reference_field(r, d, _point(rng, k))))
    return found


def unit_directions(rng):
    """Random units and the signed axes, with zeros of both signs."""
    found = []
    for _ in range(20):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(_dot(v, v))
        found.append(tuple(c / n for c in v))
    for i, one, zero in itertools.product(range(3), (1.0, -1.0), (0.0, -0.0)):
        e = [zero, zero, zero]
        e[i] = one
        found.append(tuple(e))
    return found


RNG = random.Random(20262)
SCREWS = screws(RNG)
POINTS = [_point(RNG, k) for k in range(len(SCREWS))]
DIRECTIONS = unit_directions(RNG)
PROPER = [(r, d) for r, d in SCREWS if any(r)]


# -- the tests ----------------------------------------------------------------

def test_field_and_motor_reduce_keep_every_bit():
    for (r, d), p in zip(SCREWS, POINTS):
        z = DualVec3(r, d)
        expected = bits(reference_field(r, d, p))
        assert bits(field_at(z, p).tolist()) == expected, (r, d, p)
        resultant, value = motor_reduce(z, p)
        assert bits(resultant.tolist(), value.tolist()) == bits(r) + expected, (r, d, p)


def test_motor_unreduce_keeps_every_value():
    # v - s x p and v + p x s agree but for the sign of a zero.
    for (s, v), p in zip(SCREWS, POINTS):
        z = motor_unreduce(p, s, v)
        assert z._re == s
        assert list(z._du) == [a - b for a, b in zip(v, _cross(s, p))], (s, v, p)


def test_lines_through_a_point_keep_every_bit():
    for k, p in enumerate(POINTS):
        e = DIRECTIONS[k % len(DIRECTIONS)]
        line = line_from_point_direction(p, e)
        assert bits(line.screw._re, line.screw._du) == bits(*reference_line(p, e)), (p, e)


def test_axis_decompose_keeps_every_bit():
    for r, d in PROPER:
        z = DualVec3(r, d)
        dec = axis_decompose(z)
        n = norm(z)
        assert (repr(dec.magnitude), repr(dec.pitch)) == (repr(n.re), repr(n.du / n.re))
        assert bits(dec.axis.screw._re, dec.axis.screw._du) == bits(*reference_axis(r, d)), (r, d)


def test_common_normal_keeps_every_bit():
    compared = 0
    for (r1, d1), (r2, d2) in zip(PROPER, PROPER[1:] + PROPER[:1]):
        x, y = DualVec3(r1, d1), DualVec3(r2, d2)
        if _parallel(r1, r2, 1e-9):
            continue
        c = cross(x, y)
        line = common_normal(x, y)
        assert bits(line.screw._re, line.screw._du) == bits(*reference_axis(c._re, c._du)), (x, y)
        compared += 1
    assert compared > len(PROPER) // 2


def test_moment_near_keeps_every_bit():
    for (r1, d1), (r2, d2) in zip(SCREWS, PROPER[7:] + PROPER[:7]):
        s, z = DualVec3(r1, d1), DualVec3(r2, d2)
        assert repr(_moment_near(s, z)) == repr(reference_moment_near(s, z)), (s, z)


def test_cli_screws_from_a_point_and_direction_keep_every_bit():
    for (r, _), p in zip(SCREWS, POINTS):
        z = _parse_screw({"point": list(p), "direction": list(r)})
        assert bits(z._re, z._du) == bits(r, _cross(p, r)), (p, r)


def test_the_inputs_reach_zeros_of_both_signs_and_far_points():
    moments = [c for r, d in SCREWS for c in d]
    assert any(repr(c) == "-0.0" for c in moments) and any(repr(c) == "0.0" for c in moments)
    assert max(max(map(abs, p)) for p in POINTS) > 1e11
