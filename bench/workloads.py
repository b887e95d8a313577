"""The four benchmark workloads: inputs made from a seed, the program call, the check.

A workload is a fixed cycle of operation kinds, one *round*. Every run
executes whole rounds, so each kind keeps its share of the operations
whatever the seed or the run length. For every operation the benchmark
makes the inputs (untimed), calls screwalg through its public names (timed)
and checks the outputs against ``reference`` (untimed).

The program is reached through module attributes (``sa.dual_angle``, not a
name bound at import), so the traced run sees every call once its wrappers
are installed.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np

import screwalg as sa
from screwalg import errors

import reference as ref
from reference import close, require

TOL = 1e-9  # the library's default tolerance, used by every call below
CHECK = 1e-8  # agreement required between an output and its reference, times scale


# -- seeded inputs ------------------------------------------------------------

def _vec(rng: random.Random, lo: float = -1.0, hi: float = 1.0) -> list:
    return [rng.uniform(lo, hi) for _ in range(3)]


def _unit(rng: random.Random) -> list:
    return ref.unit([rng.gauss(0.0, 1.0) for _ in range(3)]).tolist()


def _perp(rng: random.Random, e) -> list:
    while True:
        v = np.cross(e, _unit(rng))
        if np.linalg.norm(v) > 0.3:
            return ref.unit(v).tolist()


def _sin(a, b) -> float:
    return float(np.linalg.norm(np.cross(ref.unit(a), ref.unit(b))))


def _screw(rng: random.Random, direction=None, point=None, magnitude=None, pitch=None):
    """A random proper screw as a motor (re, du), both plain lists."""
    e = _unit(rng) if direction is None else direction
    p = _vec(rng) if point is None else point
    m = rng.uniform(0.5, 2.0) if magnitude is None else magnitude
    h = rng.uniform(-1.0, 1.0) if pitch is None else pitch
    s, v = ref.motor(p, e, m, h)
    return s.tolist(), v.tolist()


def _line_doc(point, direction) -> dict:
    return {"point": list(point), "direction": list(direction)}


def _line_pair(rng: random.Random, min_sin: float = 0.2):
    while True:
        e1, e2 = _unit(rng), _unit(rng)
        if _sin(e1, e2) >= min_sin:
            return (_vec(rng), e1), (_vec(rng), e2)


def _joints(rng: random.Random, n: int) -> list:
    """(point, unit direction, angle, slide) for each joint of a serial chain."""
    return [
        (_vec(rng), _unit(rng), rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5))
        for _ in range(n)
    ]


def _samples(rng: random.Random, n: int, perturbed: bool = False):
    """Field values of a planted screw at n points; optionally three spoiled values."""
    s = np.asarray(_unit(rng)) * rng.uniform(0.5, 2.0)
    v0 = np.asarray(_vec(rng))
    points = [_vec(rng, -2.0, 2.0) for _ in range(n)]
    values = [(v0 + np.cross(s, p)).tolist() for p in points]
    if perturbed:
        for i in (1, n // 2, n - 1):
            values[i] = (np.asarray(values[i]) + 0.2 * np.asarray(_unit(rng))).tolist()
    return SimpleNamespace(resultant=s, origin_value=v0, points=points, values=values)


def _equilibrium_pair(rng: random.Random):
    while True:
        x, y = _screw(rng), _screw(rng)
        if _sin(x[0], y[0]) >= 0.3:
            return x, y


def _parallel_pair(rng: random.Random):
    x = _screw(rng)
    k = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    return x, _screw(rng, direction=ref.unit(np.asarray(x[0]) * k).tolist())


def _petersen_triple(rng: random.Random):
    """Three screws whose derived screws a, b, c keep well separated resultants."""
    while True:
        zs = [_screw(rng) for _ in range(3)]
        ms = [(np.asarray(z[0]), np.asarray(z[1])) for z in zs]
        x, y, z = ms
        derived = (
            ref.motor_cross(x, ref.motor_cross(y, z)),
            ref.motor_cross(z, ref.motor_cross(x, y)),
            ref.motor_cross(y, ref.motor_cross(z, x)),
        )
        size = float(np.prod([np.linalg.norm(m[0]) for m in ms]))
        if all(np.linalg.norm(d[0]) >= 0.2 * size for d in derived) and all(
            _sin(derived[i][0], derived[j][0]) >= 0.2 for i, j in ((0, 1), (1, 2), (2, 0))
        ):
            if all(_sin(ms[i][0], ms[j][0]) >= 0.2 for i, j in ((0, 1), (1, 2), (2, 0))):
                return zs, derived


def _spread_angles(rng: random.Random) -> list:
    """Three angles in [0, pi) pairwise at least 0.3 apart modulo pi."""
    while True:
        a = [rng.uniform(0.0, math.pi) for _ in range(3)]
        gaps = [abs(a[i] - a[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        if all(min(g, math.pi - g) >= 0.3 for g in gaps):
            return a


def _sphere_point(rng: random.Random, radius):
    """r times a random line, as (re, du) lists: a point of the dual sphere of radius r."""
    s, v = ref.motor(_vec(rng), _unit(rng))
    a, b = radius
    return (a * s).tolist(), (a * v + b * s).tolist()


def _dual_vec(m):
    return sa.DualVec3(m[0], m[1])


def _refuse(error, fn, *args):
    """Call fn; an input built to break a hypothesis must raise ``error``."""
    try:
        return fn(*args)
    except error as exc:
        return exc


def _expect_refusal(out, error) -> None:
    require(isinstance(out, error), f"expected {error.__name__}, got {out!r}")


# -- motion -------------------------------------------------------------------

class Motion:
    """Forward kinematics of a 6-joint serial chain, then the end effector's axis
    against a target line."""

    kinds = ("chain",)
    known_fault = ()
    process_kinds = ("compose:chain6",) * 11

    def make(self, kind, rng, round_no):
        joints = _joints(rng, 6)
        pose = ref.chain_pose(joints)
        ee_point, ee_dir = pose[:3, 3], pose[:3, 2]
        while True:
            target = (_vec(rng, -2.0, 2.0), _unit(rng))
            if _sin(ee_dir, target[1]) >= 0.2:
                break
        return SimpleNamespace(kind=kind, joints=joints, pose=pose, target=target,
                               ee=(ee_point, ee_dir))

    def call(self, c):
        frame = sa.DualMat3.identity()
        frames_ok = True
        for point, direction, angle, slide in c.joints:
            axis = sa.line_from_point_direction(point, direction)
            m = sa.exp_so3d(sa.Dual(angle, slide) * axis.screw)
            frames_ok = sa.is_frame(m) and frames_ok
            frame = frame @ m
        translation = sa.frame_translation(frame)
        ee = frame.row(2)
        target = sa.line_from_point_direction(*c.target)
        dec = sa.axis_decompose(ee)
        theta = sa.dual_angle(ee, target.screw)
        normal = sa.common_normal(ee, target.screw)
        return SimpleNamespace(
            frames_ok=frames_ok, re=frame.re, du=frame.du, translation=translation,
            magnitude=dec.magnitude, pitch=dec.pitch, axis_point=dec.axis.point,
            axis_dir=dec.axis.direction, theta=(theta.re, theta.du),
            normal=(normal.point, normal.direction),
        )

    def check(self, c, out):
        require(out.frames_ok, "a joint matrix failed is_frame")
        ref.check_frame(out.re, out.du, out.translation, c.pose, CHECK, "pose")
        p, e = c.ee
        scale = max(1.0, float(np.linalg.norm(p)))
        close(out.magnitude, 1.0, CHECK, "end-effector magnitude")
        close(out.pitch, 0.0, CHECK, "end-effector pitch")
        close(out.axis_dir, e, CHECK, "end-effector axis direction")
        close(np.cross(np.asarray(out.axis_point) - p, e), 0.0, CHECK * scale,
              "end-effector axis point off the axis")
        angle, dist = ref.line_relation(p, e, *c.target)
        close(out.theta[0], angle, CHECK, "dual angle, real part")
        close(out.theta[1], dist, CHECK * max(scale, 2.0), "dual angle, dual part")
        ref.check_common_normal(*out.normal, [(p, e), c.target], CHECK, "common normal")


# -- theorems -----------------------------------------------------------------

class Theorems:
    """One theorem per operation on a seeded input, in fixed proportions; three
    inputs in a round are built to break a hypothesis and must be refused."""

    kinds = (
        ("refuse:NonGeneric", "refuse:DegenerateTriangle", "refuse:NotAntipodal")
        + ("thales",) * 2
        + ("classify:IndependentBasis", "classify:CommonOrthogonalLine",
           "classify:ParallelCoplanar", "classify:ParallelNonCoplanar",
           "classify:ConcurrentCoplanar")
        + ("equilibrium",) * 9
        + ("petersen",) * 5
    )
    known_fault = ()
    process_kinds = (
        "verify:cosines", "verify:petersen-morley", "verify:thales", "verify:sines",
        "verify:anglesum", "verify:petersen-nongeneric", "verify:cosines",
        "verify:petersen-morley", "verify:thales", "verify:anglesum",
        "verify:thales-not-antipodal",
    )

    def make(self, kind, rng, round_no):
        c = SimpleNamespace(kind=kind)
        if kind == "equilibrium":
            c.x, c.y = _equilibrium_pair(rng)
        elif kind == "petersen":
            c.zs, c.derived = _petersen_triple(rng)
        elif kind == "thales":
            c.r = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            c.x = _sphere_point(rng, c.r)
            c.y = ([-v for v in c.x[0]], [-v for v in c.x[1]])
            c.z = _sphere_point(rng, c.r)
        elif kind.startswith("classify:"):
            c.tag = kind.split(":", 1)[1]
            c.zs, c.witness = _classify_input(rng, c.tag)
        elif kind == "refuse:NonGeneric":
            x, y = _parallel_pair(rng)
            c.zs = [x, y, _screw(rng)]
        elif kind == "refuse:DegenerateTriangle":
            x = _screw(rng)
            c.x, c.y = x, _screw(rng, direction=ref.unit(x[0]).tolist())
        elif kind == "refuse:NotAntipodal":
            c.r = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            c.x, c.y, c.z = (_sphere_point(rng, c.r) for _ in range(3))
        else:
            raise ValueError(kind)
        return c

    def call(self, c):
        kind = c.kind
        if kind == "equilibrium":
            report = sa.equilibrium_laws(_dual_vec(c.x), _dual_vec(c.y))
            return report, report.max_scaled_residual()
        if kind == "petersen":
            report = sa.petersen_morley(*(_dual_vec(z) for z in c.zs))
            return report, report.ok(TOL), report.normal.point, report.normal.direction
        if kind == "thales":
            return sa.thales_check(*(_dual_vec(z) for z in (c.x, c.y, c.z)), sa.Dual(*c.r))
        if kind.startswith("classify:"):
            out = sa.classify_triple(*(_dual_vec(z) for z in c.zs))
            w = out.witness
            return out.tag.value, None if w is None else (w.point, w.direction)
        if kind == "refuse:NonGeneric":
            return _refuse(errors.NonGeneric, sa.petersen_morley,
                           *(_dual_vec(z) for z in c.zs))
        if kind == "refuse:DegenerateTriangle":
            return _refuse(errors.DegenerateTriangle, sa.equilibrium_laws,
                           _dual_vec(c.x), _dual_vec(c.y))
        if kind == "refuse:NotAntipodal":
            return _refuse(errors.NotAntipodal, sa.thales_check,
                           *(_dual_vec(z) for z in (c.x, c.y, c.z)), sa.Dual(*c.r))
        raise ValueError(kind)

    def check(self, c, out):
        kind = c.kind
        if kind == "equilibrium":
            check_equilibrium(c.x, c.y, out[0], out[1])
        elif kind == "petersen":
            report, ok, point, direction = out
            require(ok and not report.parallel_degenerate, "Petersen-Morley certificate")
            for got, want in zip((report.a, report.b, report.c), c.derived):
                scale = max(1.0, float(np.abs(want[0]).max()), float(np.abs(want[1]).max()))
                close(got.re, want[0], CHECK * scale, "derived screw resultant")
                close(got.du, want[1], CHECK * scale, "derived screw moment")
            axes = [ref.axis_of(*d)[:2] for d in c.derived]
            ref.check_common_normal(point, direction, axes, CHECK, "Petersen-Morley normal")
        elif kind == "thales":
            close(max(abs(out.re), abs(out.du)), 0.0, TOL * max(1.0, c.r[0] ** 2),
                  "Thales residual")
        elif kind.startswith("classify:"):
            tag, witness = out
            require(tag == c.tag, f"classified {tag}, built {c.tag}")
            if c.witness:
                axes = [ref.axis_of(*z)[:2] for z in c.zs]
                ref.check_common_normal(*witness, axes, CHECK, "classification witness")
        else:
            _expect_refusal(out, getattr(errors, kind.split(":", 1)[1]))


def check_equilibrium(x, y, report, max_scaled) -> None:
    """Residuals within the scaled bound, interior angle against closest-distance data."""
    require(max_scaled <= TOL, f"triangle-law residual {max_scaled:.3g} beyond {TOL}")
    px, ex, _, _ = ref.axis_of(*x)
    py, ey, _, _ = ref.axis_of(*y)
    angle, dist = ref.line_relation(px, ex, py, ey)
    scale = max(1.0, float(np.linalg.norm(px)), float(np.linalg.norm(py)))
    close(report.alpha_xy.re, math.pi - angle, CHECK, "interior angle")
    close(report.alpha_xy.du, -dist, CHECK * scale, "interior angle, dual part")


def _classify_input(rng: random.Random, tag: str):
    """Three screws built inside the named dependence class.

    Returns the motors and whether a witness line is expected.
    """
    if tag == "IndependentBasis":
        while True:
            zs = [_screw(rng) for _ in range(3)]
            res = np.array([ref.unit(z[0]) for z in zs])
            if abs(np.linalg.det(res)) >= 0.2:
                return zs, False
    if tag == "CommonOrthogonalLine":
        q, n = _vec(rng), _unit(rng)
        u = np.asarray(_perp(rng, n))
        v = np.cross(n, u)
        while True:
            ts = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            if min(abs(ts[i] - ts[j]) for i, j in ((0, 1), (1, 2), (2, 0))) >= 0.2:
                break
        zs = []
        for t, a in zip(ts, _spread_angles(rng)):
            e = (math.cos(a) * u + math.sin(a) * v).tolist()
            p = (np.asarray(q) + t * np.asarray(n)).tolist()
            h = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
            zs.append(_screw(rng, direction=e, point=p, pitch=h))
        return zs, True
    if tag in ("ParallelCoplanar", "ParallelNonCoplanar"):
        e, b = _unit(rng), np.asarray(_vec(rng))
        u = np.asarray(_perp(rng, e))
        v = np.cross(e, u)
        while True:
            offs = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
            if tag == "ParallelCoplanar":
                offs = [(a, 0.0) for a, _ in offs]
            (a0, c0), (a1, c1), (a2, c2) = offs
            spread = min(abs(offs[i][0] - offs[j][0]) for i, j in ((0, 1), (1, 2), (2, 0)))
            area = abs((a1 - a0) * (c2 - c0) - (a2 - a0) * (c1 - c0))
            if spread >= 0.2 and (tag == "ParallelCoplanar" or area >= 0.2):
                break
        zs = []
        for a, cc in offs:
            sign = rng.choice((-1.0, 1.0))
            p = (b + a * u + cc * v + rng.uniform(-1.0, 1.0) * np.asarray(e)).tolist()
            zs.append(_screw(rng, direction=(sign * np.asarray(e)).tolist(), point=p))
        return zs, False
    if tag == "ConcurrentCoplanar":
        centre, n = _vec(rng), _unit(rng)
        u = np.asarray(_perp(rng, n))
        v = np.cross(n, u)
        zs = [
            _screw(rng, direction=(math.cos(a) * u + math.sin(a) * v).tolist(),
                   point=centre, pitch=0.0)
            for a in _spread_angles(rng)
        ]
        return zs, False
    raise ValueError(tag)


# -- fit ----------------------------------------------------------------------

class Fit:
    """delassus_fit on 48 samples of a planted screw; one field in a round is
    spoiled far beyond tolerance and must be refused."""

    kinds = ("fit",) * 7 + ("fit:perturbed",)
    known_fault = ()
    process_kinds = ("fit:json48",) * 10 + ("fit:perturbed48",)
    n_samples = 48

    def make(self, kind, rng, round_no):
        s = _samples(rng, self.n_samples, perturbed=kind == "fit:perturbed")
        s.kind = kind
        s.pairs = list(zip(s.points, s.values))
        return s

    def call(self, c):
        if c.kind == "fit:perturbed":
            return _refuse(errors.NotEquiprojective, sa.delassus_fit, c.pairs)
        fitted = sa.delassus_fit(c.pairs)
        return fitted.resultant, fitted.value_at_origin

    def check(self, c, out):
        if c.kind == "fit:perturbed":
            _expect_refusal(out, errors.NotEquiprojective)
            return
        check_fit(c, out[0], out[1])


def check_fit(c, resultant, origin_value) -> None:
    scale = max(1.0, float(np.abs(c.values).max()))
    close(resultant, c.resultant, CHECK * scale, "fitted resultant")
    close(origin_value, c.origin_value, CHECK * scale, "fitted value at the origin")


# -- cli ----------------------------------------------------------------------

# Lines 2e-9 to 8e-9 rad apart: past the n_len > tol guard of
# oracle.line_distance_angle, while 1 - b*b rounds to 0. The documents are
# fixed, not drawn from the seed, because they fail every time.
NEAR_PARALLEL_ANGLES = (2e-9, 4e-9, 6e-9, 8e-9)


class Cli:
    """One in-process ``cli.main(argv)`` per operation, cycling over every
    subcommand, both output formats and documents that must exit 1, 2 or 3."""

    kinds = (
        "line-angle:text", "line-angle:json-check", "common-normal:json",
        "common-normal:text", "screw-axis:text", "screw-axis:json", "compose:json",
        "compose:text", "verify:cosines", "verify:sines", "verify:anglesum",
        "verify:petersen-morley", "verify:thales", "verify:delassus", "fit:text",
        "fit:json", "fit:perturbed", "verify:cosines-strict", "parse:bad-json",
        "parse:doc-count", "parse:missing-field", "parse:bad-dual", "parse:not-unit",
        "usage:bad-theorem", "usage:bad-format", "line-angle:parallel",
        "common-normal:parallel", "verify:thales-not-antipodal",
        "verify:petersen-nongeneric", "fit:collinear", "compose:not-a-frame",
        "line-angle:near-parallel",
    )
    known_fault = ("line-angle:near-parallel",)
    process_kinds = (
        "line-angle:text", "common-normal:json", "screw-axis:text", "compose:json",
        "verify:cosines", "verify:petersen-morley", "verify:thales", "fit:json",
        "fit:perturbed", "parse:bad-json", "line-angle:parallel",
    )

    def __init__(self):
        import screwalg.cli

        self.module = screwalg.cli

    def make(self, kind, rng, round_no):
        return make_cli_case(kind, rng, round_no)

    def call(self, c):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.module.main(c.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, c, out):
        check_cli(c, *out)


def _j(doc) -> str:
    return json.dumps(doc)


def _motor_doc(m) -> dict:
    return {"re": list(m[0]), "du": list(m[1])}


def make_cli_case(kind: str, rng: random.Random, round_no: int = 0):
    """A CLI document of the given kind: argv, the exit code it must give, and
    the data its output is checked against."""
    c = SimpleNamespace(kind=kind, expect=0, fmt="json")
    sub, _, variant = kind.partition(":")
    if kind in ("line-angle:text", "line-angle:json-check"):
        c.lines = _line_pair(rng)
        c.argv = ["line-angle"] + [a for l in c.lines for a in ("--json", _j(_line_doc(*l)))]
        c.fmt = "text" if variant == "text" else "json"
        c.argv += ["--format", c.fmt] + (["--check"] if c.fmt == "json" else [])
    elif kind in ("common-normal:json", "common-normal:text"):
        c.fmt = variant
        if variant == "json":
            c.motors = [_screw(rng), _screw(rng)]
            while _sin(c.motors[0][0], c.motors[1][0]) < 0.2:
                c.motors[1] = _screw(rng)
            docs = [_motor_doc(m) for m in c.motors]
        else:
            lines = _line_pair(rng)
            c.motors = [tuple(a.tolist() for a in ref.motor(*l)) for l in lines]
            docs = [_line_doc(*l) for l in lines]
        c.argv = ["common-normal"] + [a for d in docs for a in ("--json", _j(d))]
        c.argv += ["--format", c.fmt]
    elif kind in ("screw-axis:text", "screw-axis:json"):
        c.fmt = variant
        c.motor = _screw(rng)
        c.argv = ["screw-axis", "--json", _j(_motor_doc(c.motor)), "--format", c.fmt]
    elif kind in ("compose:json", "compose:text", "compose:chain6"):
        c.fmt = "text" if variant == "text" else "json"
        c.joints = _joints(rng, 6 if variant == "chain6" else 3)
        c.pose = ref.chain_pose(c.joints)
        chain = []
        for i, (p, e, angle, slide) in enumerate(c.joints):
            # Both spellings of a dual value: "a + beps" and {"re": a, "du": b}.
            value = f"{angle!r} + {slide!r}eps" if i % 2 == 0 else {"re": angle, "du": slide}
            chain.append({"axis": _line_doc(p, e), "angle": value})
        doc = {"chain": chain} if c.fmt == "text" else chain
        c.argv = ["compose", "--json", _j(doc), "--format", c.fmt]
    elif kind in ("verify:cosines", "verify:sines", "verify:anglesum", "verify:cosines-strict"):
        c.x, c.y = _equilibrium_pair(rng)
        theorem = variant.split("-")[0]
        c.argv = ["verify", theorem, "--json", _j({"x": _motor_doc(c.x), "y": _motor_doc(c.y)})]
        if variant == "cosines-strict":
            # A tolerance no rounding error meets: the exit code must follow the verdict.
            c.argv += ["--tol", "1e-300"]
            c.expect = None
    elif kind == "verify:petersen-morley":
        c.zs, c.derived = _petersen_triple(rng)
        doc = dict(zip("xyz", (_motor_doc(z) for z in c.zs)))
        c.argv = ["verify", "petersen-morley", "--json", _j(doc)]
    elif kind in ("verify:thales", "verify:thales-not-antipodal"):
        c.r = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        c.x = _sphere_point(rng, c.r)
        if variant == "thales":
            c.y = ([-v for v in c.x[0]], [-v for v in c.x[1]])
        else:
            c.y = _sphere_point(rng, c.r)
            c.expect = 3
        z = _sphere_point(rng, c.r)
        doc = {"x": _motor_doc(c.x), "y": _motor_doc(c.y), "z": _motor_doc(z),
               "r": {"re": c.r[0], "du": c.r[1]}}
        c.argv = ["verify", "thales", "--json", _j(doc)]
    elif kind == "verify:petersen-nongeneric":
        x, y = _parallel_pair(rng)
        doc = {"x": _motor_doc(x), "y": _motor_doc(y), "z": _motor_doc(_screw(rng))}
        c.argv = ["verify", "petersen-morley", "--json", _j(doc)]
        c.expect = 3
    elif kind in ("verify:delassus", "fit:text", "fit:json", "fit:perturbed",
                  "fit:json48", "fit:perturbed48"):
        n = {"verify:delassus": 6, "fit:text": 8, "fit:json": 5, "fit:perturbed": 8}.get(kind, 48)
        c.samples = _samples(rng, n, perturbed=variant.startswith("perturbed"))
        doc = {"samples": [{"point": p, "value": v}
                           for p, v in zip(c.samples.points, c.samples.values)]}
        if sub == "verify":
            c.argv = ["verify", "delassus", "--json", _j(doc)]
        else:
            c.fmt = "text" if variant == "text" else "json"
            c.argv = ["fit", "--json", _j(doc), "--format", c.fmt]
        if variant.startswith("perturbed"):
            c.expect = 1
    elif kind == "fit:collinear":
        p0, e = np.asarray(_vec(rng)), np.asarray(_unit(rng))
        doc = {"samples": [{"point": (p0 + t * e).tolist(), "value": _vec(rng)}
                           for t in (-1.0, 0.0, 0.5, 1.0)]}
        c.argv, c.expect = ["fit", "--json", _j(doc)], 3
    elif sub in ("parse", "usage"):
        l1, l2 = _line_pair(rng)
        c.expect = 2
        c.argv = {
            "bad-json": ["line-angle", "--json", _j(_line_doc(*l1))[:-7]],
            "doc-count": ["screw-axis", "--json", _j(_motor_doc(_screw(rng))),
                          "--json", _j(_motor_doc(_screw(rng)))],
            "missing-field": ["verify", "cosines", "--json", _j({"x": _motor_doc(_screw(rng))})],
            "bad-dual": ["compose", "--json",
                         _j([{"axis": _line_doc(*l1), "angle": "1 + + 2eps"}])],
            "not-unit": ["line-angle", "--json",
                         _j(_line_doc(l1[0], [2.0 * v for v in l1[1]])),
                         "--json", _j(_line_doc(*l2))],
            "bad-theorem": ["verify", "pythagoras", "--json", "{}"],
            "bad-format": ["screw-axis", "--json", _j(_motor_doc(_screw(rng))),
                           "--format", "xml"],
        }[variant]
    elif kind == "line-angle:parallel":
        (p1, e), (p2, _) = _line_pair(rng)
        p2 = (np.asarray(p1) + np.asarray(_perp(rng, e)) * rng.uniform(0.5, 2.0)).tolist()
        c.argv = ["line-angle", "--json", _j(_line_doc(p1, e)), "--json", _j(_line_doc(p2, e))]
        c.expect = 3
    elif kind == "common-normal:parallel":
        x, y = _parallel_pair(rng)
        c.argv = ["common-normal", "--json", _j(_motor_doc(x)), "--json", _j(_motor_doc(y))]
        c.expect = 3
    elif kind == "compose:not-a-frame":
        scale = rng.uniform(1.5, 3.0)
        doc = [{"matrix": {"re": [[scale, 0, 0], [0, 1, 0], [0, 0, 1]]}}]
        c.argv, c.expect = ["compose", "--json", _j(doc)], 3
    elif kind == "line-angle:near-parallel":
        a = NEAR_PARALLEL_ANGLES[round_no % len(NEAR_PARALLEL_ANGLES)]
        l1 = _line_doc([0.3, -0.2, 0.5], [1.0, 0.0, 0.0])
        l2 = _line_doc([0.1, 0.4, -0.3], [math.cos(a), math.sin(a), 0.0])
        c.argv = ["line-angle", "--json", _j(l1), "--json", _j(l2)]
        c.expect = (0, 3)
    else:
        raise ValueError(kind)
    return c


_VEC = re.compile(r"^\((.*)\)$")


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        require(bool(sep), f"unexpected output line {line!r}")
        m = _VEC.match(value)
        fields[key] = [float(v) for v in m.group(1).split(",")] if m else value
    return fields


def check_cli(c, code: int, stdout: str, stderr: str) -> None:
    """Exit code by the 0/1/2/3 contract, outputs against the references, no traceback."""
    require("Traceback" not in stderr, f"{c.kind}: traceback on stderr")
    if c.expect is None:
        report = json.loads(stdout)
        require(code == (0 if report["passed"] else 1),
                f"{c.kind}: exit {code} contradicts passed={report['passed']}")
        return
    expect = c.expect if isinstance(c.expect, tuple) else (c.expect,)
    require(code in expect, f"{c.kind}: exit {code}, expected {c.expect}")
    if code != 0:
        require(stdout == "", f"{c.kind}: output on a refusal")
        require(stderr.startswith(("error:", "usage:", "parallel lines")),
                f"{c.kind}: refusal without a message: {stderr[:80]!r}")
        return
    if c.kind == "line-angle:near-parallel":
        return
    out = json.loads(stdout) if c.fmt == "json" else _text_fields(stdout)
    sub = c.kind.split(":", 1)[0]
    if sub == "line-angle":
        angle, dist = ref.line_relation(*c.lines[0], *c.lines[1])
        scale = max(2.0, *(float(np.linalg.norm(l[0])) for l in c.lines))
        close(float(out["theta"]), angle, CHECK, "line-angle theta")
        close(float(out["d"]), dist, CHECK * scale, "line-angle distance")
    elif sub == "common-normal":
        axes = [ref.axis_of(*m)[:2] for m in c.motors]
        ref.check_common_normal(np.asarray(out["point"]), np.asarray(out["direction"]),
                                axes, CHECK, "common-normal")
    elif sub == "screw-axis":
        point, direction, magnitude, pitch = ref.axis_of(*c.motor)
        axis = out if c.fmt == "text" else out["axis"]
        got_point = out["axis point"] if c.fmt == "text" else axis["point"]
        got_dir = out["axis direction"] if c.fmt == "text" else axis["direction"]
        close(got_point, point, CHECK * max(1.0, float(np.linalg.norm(point))), "axis point")
        close(got_dir, direction, CHECK, "axis direction")
        close(float(out["magnitude"]), magnitude, CHECK * magnitude, "magnitude")
        close(float(out["pitch"]), pitch, CHECK, "pitch")
    elif sub == "compose":
        r, t = c.pose[:3, :3], c.pose[:3, 3]
        scale = max(1.0, float(np.linalg.norm(t)))
        close(out["translation"], r.T @ t, CHECK * scale, "compose translation")
        if c.fmt == "json":
            m = out["matrix"]
            ref.check_frame(m["re"], m["du"], out["translation"], c.pose, CHECK, "compose")
            close(out["rotation"], r.T, CHECK, "compose rotation")
    elif c.kind in ("verify:cosines", "verify:sines", "verify:anglesum"):
        require(out["passed"] is True, f"{c.kind}: not passed")
        alpha = out["alpha_xy"]
        report = SimpleNamespace(alpha_xy=SimpleNamespace(re=alpha["re"], du=alpha["du"]))
        check_equilibrium(c.x, c.y, report, out["max_scaled_residual"])
    elif c.kind == "verify:petersen-morley":
        require(out["passed"] is True and not out["parallel_degenerate"], "petersen-morley")
        axes = [ref.axis_of(*d)[:2] for d in c.derived]
        normal = out["normal"]
        ref.check_common_normal(np.asarray(normal["point"]), np.asarray(normal["direction"]),
                                axes, CHECK, "petersen-morley normal")
    elif c.kind == "verify:thales":
        require(out["passed"] is True, "thales not passed")
        r = out["residual"]
        close(max(abs(r["re"]), abs(r["du"])), 0.0, TOL * max(1.0, c.r[0] ** 2), "thales")
    elif c.kind == "verify:delassus":
        require(out["passed"] is True, "delassus not passed")
        check_fit(c.samples, out["resultant"], out["value_at_origin"])
    elif sub == "fit":
        if c.fmt == "text":
            check_fit(c.samples, out["resultant"], out["value at origin"])
        else:
            check_fit(c.samples, out["re"], out["du"])
    else:
        raise ValueError(c.kind)


WORKLOADS = {"motion": Motion, "theorems": Theorems, "fit": Fit, "cli": Cli}
