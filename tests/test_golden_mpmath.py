"""Golden frames, common normals and theorem residuals against 50-digit references.

The component kernels sum three products left to right where BLAS fused
them, so the last bits of these golden cases moved once (the angles of
line-angle and the verify triangle are pinned in test_angles_mpmath.py). The
references here are classical and share nothing with the library: a chain of
4x4 rigid motions for compose, the closest points of two axes for
common-normal, both in mpmath at 50 digits from the floats of the document.
Every entry of a frame, a normal or a translation must lie within 8 ulps of
the largest entry of its part; measured, none is more than 2.5 ulps off. A
theorem residual is exactly 0 by the theorem, so each must be at most 32 eps
times its scale, the product of the moduli for the triangle laws and the
moment of the normal (at least 1) for Petersen-Morley; measured, none is
above 8 eps. A text case prints floats of its json sibling.
"""

import json
import math
import re
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")

from helpers import screw_size  # noqa: E402
from screwalg import cli  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
EPS = 2.0 ** -52
ULPS = 8
RESIDUAL_EPS = 32


def _document(case: str):
    argv = GOLDEN[case]["argv"]
    return json.loads(argv[argv.index("--json") + 1])


def _output(case: str) -> dict:
    return json.loads(GOLDEN[case]["stdout"])


def _mp(v) -> list:
    return [mpmath.mpf(float(c)) for c in v]


def _dot(u, v):
    return mpmath.fsum(a * b for a, b in zip(u, v))


def _cross(a, b) -> list:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _unit(v) -> list:
    n = mpmath.sqrt(_dot(v, v))
    return [c / n for c in v]


def _matvec(m, v) -> list:
    return [_dot(row, v) for row in m]


def _matmul(a, b) -> list:
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _transpose(m) -> list:
    return [list(col) for col in zip(*m)]


def _rotation(e, angle) -> list:
    """Rotation by ``angle`` about the unit vector e, acting on columns."""
    c, s = mpmath.cos(angle), mpmath.sin(angle)
    levi = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    return [[(c if i == j else 0) + (1 - c) * e[i] * e[j]
             - s * sum(levi.get((i, j, k), 0) * e[k] for k in range(3))
             for j in range(3)] for i in range(3)]


@mpmath.workdps(50)
def reference_chain(joints) -> tuple:
    """(rotation rows, dual rows, translation) of a compose chain, from 4x4 motions.

    An axis joint turns by the real angle about its line and slides by the dual
    one along it. A matrix joint is the pose whose axes are its rows, through
    the point its dual rows give. Frames compose as rows, U1 @ U2, which is the
    pose product the other way round, H2 H1.
    """
    rot = [[mpmath.mpf(int(i == j)) for j in range(3)] for i in range(3)]
    t = [mpmath.mpf(0)] * 3
    for joint in joints:
        if "matrix" in joint:
            rows = [_mp(r) for r in joint["matrix"]["re"]]
            du = [_mp(r) for r in joint["matrix"]["du"]]
            s = _matmul(du, _transpose(rows))
            local = [(s[1][2] - s[2][1]) / 2, (s[2][0] - s[0][2]) / 2, (s[0][1] - s[1][0]) / 2]
            r_k = _transpose(rows)
            t_k = _matvec(r_k, local)
        else:
            angle = cli._parse_dual_value(joint["angle"])
            p, e = _mp(joint["axis"]["point"]), _unit(_mp(joint["axis"]["direction"]))
            r_k = _rotation(e, mpmath.mpf(angle.re))
            turned = _matvec(r_k, p)
            t_k = [p[i] - turned[i] + mpmath.mpf(angle.du) * e[i] for i in range(3)]
        rot = _matmul(r_k, rot)
        t = [a + b for a, b in zip(_matvec(r_k, t), t_k)]
    rows = _transpose(rot)
    return rows, [_cross(t, r) for r in rows], _matvec(rows, t)


@mpmath.workdps(50)
def reference_common_normal(x: dict, y: dict) -> tuple:
    """(point nearest the origin, direction, moment) of the common normal of two motors."""
    axes = []
    for z in (x, y):
        s, m = _mp(z["re"]), _mp(z["du"])
        axes.append(([c / _dot(s, s) for c in _cross(s, m)], _unit(s)))
    (p1, e1), (p2, e2) = axes
    n = _unit(_cross(e1, e2))
    w = [a - b for a, b in zip(p1, p2)]
    b = _dot(e1, e2)
    along = (b * _dot(e2, w) - _dot(e1, w)) / (1 - b * b)
    q = [a + along * c for a, c in zip(p1, e1)]
    point = [a - _dot(q, n) * c for a, c in zip(q, n)]
    return point, n, _cross(point, n)


@mpmath.workdps(50)
def _worst_ulps(values, exact) -> float:
    """Largest |value - exact| over a part, in ulps of the part's largest exact entry."""
    flat_values = [float(v) for row in values for v in (row if isinstance(row, list) else [row])]
    flat_exact = [e for row in exact for e in (row if isinstance(row, list) else [row])]
    unit = math.ulp(float(max(abs(e) for e in flat_exact)))
    return max(float(abs(mpmath.mpf(v) - e)) for v, e in zip(flat_values, flat_exact)) / unit


def test_compose_chain_within_eight_ulps():
    rows, du, translation = reference_chain(_document("compose-chain:json")["chain"])
    out = _output("compose-chain:json")
    assert _worst_ulps(out["matrix"]["re"], rows) <= ULPS
    assert _worst_ulps(out["rotation"], rows) <= ULPS
    assert _worst_ulps(out["matrix"]["du"], du) <= ULPS
    assert _worst_ulps(out["translation"], translation) <= ULPS


def test_common_normal_of_motors_within_eight_ulps():
    argv = GOLDEN["common-normal-motors:json"]["argv"]
    x, y = (json.loads(argv[i + 1]) for i, a in enumerate(argv) if a == "--json")
    point, direction, moment = reference_common_normal(x, y)
    out = _output("common-normal-motors:json")
    assert _worst_ulps(out["point"], point) <= ULPS
    assert _worst_ulps(out["direction"], direction) <= ULPS
    assert _worst_ulps(out["re"], direction) <= ULPS
    assert _worst_ulps(out["du"], moment) <= ULPS


@pytest.mark.parametrize(
    "case", ["verify-cosines:json", "verify-sines:json", "verify-anglesum:json"]
)
def test_triangle_law_residuals_vanish_to_rounding(case):
    out = _output(case)
    x, y = (cli._parse_screw(_document(case)[k]) for k in ("x", "y"))
    bound = RESIDUAL_EPS * EPS * max(1.0, screw_size(x, y, -(x + y), moments=False))
    residuals = (*out["cosine_residuals"], *out["sine_ratio_residuals"],
                 *out["four_r_squared_residuals"], out["angle_sum_residual"])
    assert all(abs(r["re"]) <= bound and abs(r["du"]) <= bound for r in residuals)
    assert out["max_scaled_residual"] <= RESIDUAL_EPS * EPS


def test_petersen_morley_incidence_residuals_vanish_to_rounding():
    out = _output("verify-petersen-morley-generic:json")
    scale = max(1.0, math.hypot(*out["normal"]["point"]))
    bound = RESIDUAL_EPS * EPS * scale
    assert all(abs(r["re"]) <= bound and abs(r["du"]) <= bound
               for r in out["incidence_residuals"])


_FLOAT = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")


@pytest.mark.parametrize(
    "case", ["compose-chain", "common-normal-motors", "line-angle-skew", "line-angle-skew-check"]
)
def test_text_case_prints_the_floats_of_its_json_sibling(case):
    # Text prints a sign apart (``a - bε``) and may leave out fields json has.
    text_floats = {abs(float(v)) for v in _FLOAT.findall(GOLDEN[f"{case}:text"]["stdout"])}
    json_floats = {abs(float(v)) for v in _FLOAT.findall(GOLDEN[f"{case}:json"]["stdout"])}
    assert text_floats and text_floats <= json_floats
