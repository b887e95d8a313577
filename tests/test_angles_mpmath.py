"""Dual angles against 50-digit references, on the floats the library holds.

The reference takes the angle from the dual cosine x o y / (|x| |y|) through
acos, evaluated with mpmath at 50 digits: the definition, not the atan2 form
the library uses. At that precision acos loses nothing that matters even
1e-15 rad from its endpoints. Each moved golden value, and the near-parallel
and near-anti-parallel pairs the cosine alone could not resolve, must lie
within 4 ulps of it. A dual part is the difference of two terms, which may
cancel (alpha_xy of the golden triple is 0.11 of them), and no double
evaluation beats the rounding of its terms; so it is held to 4 ulps of the
larger of itself and the sum of their sizes.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from screwalg import DualVec3, cli, dual_angle  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
EPS = np.finfo(float).eps


def _mp_parts(x: DualVec3):
    return [mpmath.mpf(float(v)) for v in x.re], [mpmath.mpf(float(v)) for v in x.du]


def _dot(u, v):
    return mpmath.fsum(p * q for p, q in zip(u, v))


@mpmath.workdps(50)
def reference_dual_angle(a, da, b, db):
    """(theta, d, size) of the motors a + eps da and b + eps db, from the dual cosine.

    d = -(p - q) / sin(theta), where the dual cosine's dual part p - q has
    p = (a o db + da o b) / (|a| |b|) and q = c (a o da / |a|^2 + b o db / |b|^2);
    ``size`` is (|p| + |q|) / sin(theta).
    """
    na, nb = mpmath.sqrt(_dot(a, a)), mpmath.sqrt(_dot(b, b))
    c = _dot(a, b) / (na * nb)
    p = (_dot(a, db) + _dot(da, b)) / (na * nb)
    q = c * (_dot(a, da) / na**2 + _dot(b, db) / nb**2)
    sine = mpmath.sqrt((1 - c) * (1 + c))
    return mpmath.acos(c), -(p - q) / sine, (abs(p) + abs(q)) / sine


@mpmath.workdps(50)
def reference_equilibrium(x: DualVec3, y: DualVec3) -> dict:
    """alpha_xy, alpha_yz, alpha_zx and two_r of the triple (x, y, -(x + y)),
    each as (re, du, size of du)."""
    a, da = _mp_parts(x)
    b, db = _mp_parts(y)
    c, dc = [-(p + q) for p, q in zip(a, b)], [-(p + q) for p, q in zip(da, db)]
    out = {}
    for name, (u, du, v, dv) in (
        ("alpha_xy", (a, da, b, db)), ("alpha_yz", (b, db, c, dc)), ("alpha_zx", (c, dc, a, da))
    ):
        theta, d, size = reference_dual_angle(u, du, v, dv)
        out[name] = (mpmath.pi - theta, -d, size)
    alpha, alpha_du, _ = out["alpha_xy"]
    nz = mpmath.sqrt(_dot(c, c))
    nz_du = _dot(c, dc) / nz
    sine, sine_du = mpmath.sin(alpha), alpha_du * mpmath.cos(alpha)
    two_r_du = (sine_du * nz - sine * nz_du) / nz**2
    out["two_r"] = (sine / nz, two_r_du, abs(two_r_du))
    return out


@mpmath.workdps(50)
def _ulps(value: float, exact, size=0) -> float:
    """|value - exact| in ulps of the larger of |exact| and ``size``."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(max(abs(exact), size)))


def _documents(case: str) -> list:
    argv = GOLDEN[case]["argv"]
    return [json.loads(argv[i + 1]) for i, a in enumerate(argv) if a == "--json"]


@pytest.mark.parametrize("case", ["line-angle-skew:json", "line-angle-skew-check:json"])
def test_golden_line_angle_within_four_ulps(case):
    l1, l2 = (cli._parse_line(doc, 1e-9) for doc in _documents(case))
    theta, d, size = reference_dual_angle(*_mp_parts(l1.screw), *_mp_parts(l2.screw))
    out = json.loads(GOLDEN[case]["stdout"])
    assert _ulps(out["theta"], theta) <= 4
    assert _ulps(out["d"], d, size) <= 4


@pytest.mark.parametrize(
    "case", ["verify-cosines:json", "verify-sines:json", "verify-anglesum:json"]
)
def test_golden_interior_angles_within_four_ulps(case):
    doc = _documents(case)[0]
    x, y = cli._parse_screw(doc["x"]), cli._parse_screw(doc["y"])
    out = json.loads(GOLDEN[case]["stdout"])
    for name, (re, du, size) in reference_equilibrium(x, y).items():
        assert _ulps(out[name]["re"], re) <= 4, name
        assert _ulps(out[name]["du"], du, size) <= 4, name


def _line(point, direction) -> DualVec3:
    """The unit line through ``point`` along ``direction``, as a motor."""
    return DualVec3(direction, np.cross(point, direction))


def _check_angle(x: DualVec3, y: DualVec3):
    theta, d, _ = reference_dual_angle(*_mp_parts(x), *_mp_parts(y))
    result = dual_angle(x, y)
    assert abs(result.re - theta) <= 4 * EPS * abs(theta)
    assert abs(result.du - d) <= 4 * EPS * max(1.0, abs(d))


@pytest.mark.parametrize("a", [1e-6, 1e-15])
def test_near_anti_parallel_lines(a):
    # e1 x e2 = (0, 0, sin a) is exact, so the floats pin the true pair. From
    # the cosine alone the dual part -du / sin(acos c) loses 552 eps at
    # a = 1e-6, and at 1e-15 the cosine rounds to -1.
    x = _line([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    _check_angle(x, _line([0.3, -0.2, 1.25], [-math.cos(a), math.sin(a), 0.0]))


@pytest.mark.parametrize(
    "direction",
    [[1.0, 1e-8, 0.0]] + [[math.cos(a), math.sin(a), 0.0] for a in (1e-3, 2e-9, 1e-12)],
    ids=["1e-8", "1e-3", "2e-9", "1e-12"],
)
def test_near_parallel_lines(direction):
    # The cosine alone rounds to 1 below about 1.5e-8 rad; it refused the pair
    # (1, 1e-8, 0), which every parallel check passes.
    x = _line([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    _check_angle(x, _line([0.3, -0.2, 1.25], direction))
