"""The rigid-motion kernels against the generic matrix formulas, bit for bit.

exp_so3d, is_frame, _translation and @ each read only the entries they need
in one pass. The formulas they replace are kept here in plain Python as the
reference: I + c1 H + c2 H**2 with a generic matrix product, the full Gram
check, the three-product @ and du re^T's axial vector. Every component is
compared by repr, so the sign of a zero counts, and every verdict must agree,
on random, axis-aligned and pure-dual generators and on products of frames
placed far from the origin.
"""

import itertools
import math
import random
from operator import add

import pytest

from screwalg import DualMat3, DualVec3, dot, exp_so3d, frame_from_point, is_frame, linalg
from screwalg.dual import _dual

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
        c1, c2 = linalg._rodrigues(dot(b, b))
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
            got = linalg._rodrigues_matrix(r, d, c1, c2)
            assert bits(*got) == bits(*reference_rodrigues(r, d, c1, c2)), (r, d, c1, c2)


def test_a_zero_of_the_reference_keeps_its_sign():
    # Along z, re[2] = (0 + c1 (-y)) + c2 z x is 0.0: the identity's 0.0 absorbs
    # the -0.0 of c1 (-y). Unrolled as c1 (-y) + c2 z x it would read -0.0.
    r, d = (0.0, 0.0, -0.9066), (-0.638, 0.910, -0.607)
    b = DualVec3(r, d)
    c1, c2 = linalg._rodrigues(dot(b, b))
    x, y, z = r
    assert repr(c1.re * -y + c2.re * (z * x)) == "-0.0"
    assert repr(reference_rodrigues(r, d, c1, c2)[0][2]) == "0.0"
    assert repr(exp_so3d(b)._re[2]) == "0.0"


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
