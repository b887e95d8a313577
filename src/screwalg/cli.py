"""Command-line front end for line geometry, screw analysis and verification.

Inputs arrive as positional JSON files and/or inline ``--json`` strings, in
that order. Exit codes: 0 success, 1 residual beyond tolerance, 2 parse or
usage error, 3 violated precondition. The default tolerance is 1e-9,
overridable by the SCREWALG_TOL environment variable and then by ``--tol``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dual import DEFAULT_TOL, Dual, format_dual, parse_dual
from .errors import NotEquiprojective, ScrewAlgError
from .geometry import Line, axis_decompose, common_normal, dual_angle, line_from_point_direction
from .linalg import (
    DualMat3, DualVec3, _cross3, _DualArray, _parallel, _vec, exp_so3d, frame_translation,
    is_frame,
)
from .oracle import _fit_with_residual, line_distance_angle
from .theorems import equilibrium_laws, petersen_morley, thales_check

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

_THEOREMS = ("cosines", "sines", "anglesum", "petersen-morley", "thales", "delassus")


class _InputError(Exception):
    """Malformed or missing input; maps to the parse/usage exit code."""


# -- input parsing -----------------------------------------------------------

def _load_documents(args, expected: int) -> list:
    docs = []
    try:
        for path in args.files:
            docs.append(json.loads(Path(path).read_text()))
        for text in args.json or []:
            docs.append(json.loads(text))
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read input: {exc}") from exc
    if len(docs) != expected:
        raise _InputError(f"expected {expected} input document(s), got {len(docs)}")
    return docs


def _parse_dual_value(obj) -> Dual:
    try:
        if isinstance(obj, str):
            return parse_dual(obj)
        if isinstance(obj, (int, float)):
            return Dual(obj)
        if isinstance(obj, dict) and set(obj) <= {"re", "du"}:
            return Dual(obj.get("re", 0.0), obj.get("du", 0.0))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"cannot interpret {obj!r} as a dual number: {exc}") from exc
    raise _InputError(f"cannot interpret {obj!r} as a dual number")


def _parse_screw(obj) -> DualVec3:
    """A screw motor: {"re": [..], "du": [..]} or a line as point + direction."""
    if not isinstance(obj, dict):
        raise _InputError("screw must be a JSON object")
    try:
        if "re" in obj:
            return DualVec3(obj["re"], obj.get("du"))
        if "point" in obj and "direction" in obj:
            p = _vec(obj["point"])
            e = _vec(obj["direction"])
            return DualVec3(e, _cross3(p, e))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad screw document: {exc}") from exc
    raise _InputError("screw document needs re/du or point/direction fields")


def _parse_line(obj, tol: float) -> Line:
    if isinstance(obj, dict) and "point" in obj and "direction" in obj:
        try:
            return line_from_point_direction(obj["point"], obj["direction"], tol=tol)
        except (ValueError, TypeError) as exc:
            raise _InputError(f"bad line document: {exc}") from exc
    return Line(_parse_screw(obj), tol=tol)


def _parse_matrix(obj) -> DualMat3:
    if not isinstance(obj, dict) or "re" not in obj:
        raise _InputError("matrix document needs re (and optionally du) 3x3 arrays")
    try:
        return DualMat3(obj["re"], obj.get("du"))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad matrix document: {exc}") from exc


def _require(doc: dict, *keys: str) -> list:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise _InputError(f"input document is missing fields: {', '.join(missing)}")
    return [doc[k] for k in keys]


# -- output formatting -------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(_fmt(c) for c in v) + ")"


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _json_text(obj) -> str:
    """The one JSON form of library values, with floats at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist())
    if isinstance(obj, _DualArray):
        return _json_text({"re": obj.re, "du": obj.du})
    if isinstance(obj, Line):
        return _json_text({"point": obj.point, "direction": obj.direction})
    if dataclasses.is_dataclass(obj):
        return _json_text(_fields(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(_json_text(json_obj))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -------------------------------------------------------------

def _cmd_line_angle(args, tol: float) -> int:
    docs = _load_documents(args, 2)
    l1 = _parse_line(docs[0], tol)
    l2 = _parse_line(docs[1], tol)
    e1, e2 = l1.direction, l2.direction
    rel = line_distance_angle(l1.point, e1, l2.point, e2, tol=tol)
    if _parallel(e1, e2, tol):
        if rel.distance > tol:
            print(
                "parallel lines: the dual angle cannot represent their distance; "
                f"oracle distance = {_fmt(rel.distance)}, angle = {_fmt(rel.angle)}",
                file=sys.stderr,
            )
            return EXIT_PRECONDITION
    theta = dual_angle(l1.screw, l2.screw, tol=tol)
    if args.check:
        angle_err = abs(theta.re - rel.angle)
        dist_err = abs(abs(theta.du) - rel.distance)
        if angle_err > tol or dist_err > tol * max(1.0, rel.distance):
            print(
                f"oracle cross-check failed: angle error {angle_err:g}, "
                f"distance error {dist_err:g}",
                file=sys.stderr,
            )
            return EXIT_RESIDUAL
    _emit(
        args,
        [
            f"Theta = {format_dual(theta)}",
            f"theta = {_fmt(theta.re)}",
            f"d = {_fmt(theta.du)}",
        ],
        {"Theta": theta, "theta": theta.re, "d": theta.du},
    )
    return EXIT_OK


def _cmd_common_normal(args, tol: float) -> int:
    docs = _load_documents(args, 2)
    z1 = _parse_screw(docs[0])
    z2 = _parse_screw(docs[1])
    line = common_normal(z1, z2, tol=tol)
    _emit(
        args,
        [
            f"point = {_fmt_vec(line.point)}",
            f"direction = {_fmt_vec(line.direction)}",
        ],
        {
            "point": line.point,
            "direction": line.direction,
            "re": line.screw.re,
            "du": line.screw.du,
        },
    )
    return EXIT_OK


def _cmd_screw_axis(args, tol: float) -> int:
    docs = _load_documents(args, 1)
    z = _parse_screw(docs[0])
    dec = axis_decompose(z, tol=tol)
    _emit(
        args,
        [
            f"axis point = {_fmt_vec(dec.axis.point)}",
            f"axis direction = {_fmt_vec(dec.axis.direction)}",
            f"magnitude = {_fmt(dec.magnitude)}",
            f"pitch = {_fmt(dec.pitch)}",
        ],
        {
            "axis": dec.axis,
            "magnitude": dec.magnitude,
            "pitch": dec.pitch,
        },
    )
    return EXIT_OK


def _cmd_compose(args, tol: float) -> int:
    docs = _load_documents(args, 1)
    doc = docs[0]
    if isinstance(doc, dict) and "chain" in doc:
        doc = doc["chain"]
    if not isinstance(doc, list):
        raise _InputError("compose expects a list of joints (or {'chain': [...]})")
    frame = DualMat3.identity()
    for joint in doc:
        if not isinstance(joint, dict):
            raise _InputError("each joint must be a JSON object")
        if "matrix" in joint:
            m = _parse_matrix(joint["matrix"])
        elif "axis" in joint and "angle" in joint:
            axis = _parse_line(joint["axis"], tol)
            angle = _parse_dual_value(joint["angle"])
            m = exp_so3d(angle * axis.screw)
        else:
            raise _InputError("joint needs either matrix or axis + angle fields")
        if not is_frame(m, tol=max(tol, 1e-7)):
            raise ScrewAlgError("joint matrix fails the frame invariant")
        frame = frame @ m
    translation = frame_translation(frame, tol=max(tol, 1e-7))
    _emit(
        args,
        [
            f"frame re = {frame.re.tolist()}",
            f"frame du = {frame.du.tolist()}",
            f"rotation rows = {frame.re.tolist()}",
            f"translation = {_fmt_vec(translation)}",
        ],
        {
            "matrix": frame,
            "rotation": frame.re,
            "translation": translation,
        },
    )
    return EXIT_OK


def _cmd_verify(args, tol: float) -> int:
    doc = _load_documents(args, 1)[0]
    if not isinstance(doc, dict):
        raise _InputError("verify expects a JSON object")
    theorem = args.theorem

    if theorem in ("cosines", "sines", "anglesum"):
        x, y = (_parse_screw(d) for d in _require(doc, "x", "y"))
        report = equilibrium_laws(x, y, tol=tol)
        family = {
            "cosines": report.cosine_residuals,
            "sines": report.sine_ratio_residuals,
            "anglesum": (report.angle_sum_residual,),
        }[theorem]
        bound = tol * max(1.0, report.scale)
        passed = all(max(abs(r.re), abs(r.du)) <= bound for r in family)
        out = {
            **_fields(report),
            "max_scaled_residual": report.max_scaled_residual(),
            "theorem": theorem,
        }
    elif theorem == "petersen-morley":
        report = petersen_morley(*(_parse_screw(d) for d in _require(doc, "x", "y", "z")), tol=tol)
        passed = report.ok(tol)
        out = {**_fields(report), "theorem": theorem}
    elif theorem == "thales":
        *screws, r_doc = _require(doc, "x", "y", "z", "r")
        radius = _parse_dual_value(r_doc)
        residual = thales_check(*(_parse_screw(d) for d in screws), radius, tol=tol)
        passed = max(abs(residual.re), abs(residual.du)) <= tol * max(1.0, radius.re * radius.re)
        out = {"theorem": theorem, "residual": residual}
    else:  # delassus
        fitted, residual = _fit_from_doc(doc, tol)
        passed = True
        out = {
            "theorem": theorem,
            "resultant": fitted.resultant,
            "value_at_origin": fitted.value_at_origin,
            "max_residual": residual,
        }
    out["passed"] = passed
    print(_json_text(out))
    return EXIT_OK if passed else EXIT_RESIDUAL


def _cmd_fit(args, tol: float) -> int:
    docs = _load_documents(args, 1)
    doc = docs[0]
    fitted, residual = _fit_from_doc(doc, tol)
    _emit(
        args,
        [
            f"resultant = {_fmt_vec(fitted.resultant)}",
            f"value at origin = {_fmt_vec(fitted.value_at_origin)}",
            f"max residual = {_fmt(residual)}",
        ],
        {
            "re": fitted.resultant,
            "du": fitted.value_at_origin,
            "max_residual": residual,
        },
    )
    return EXIT_OK


def _fit_from_doc(doc, tol: float):
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise _InputError("fit expects {'samples': [{'point': [...], 'value': [...]}]}")
    samples = []
    for entry in doc["samples"]:
        if not isinstance(entry, dict) or "point" not in entry or "value" not in entry:
            raise _InputError("each sample needs point and value fields")
        samples.append((_parse_vec3(entry["point"]), _parse_vec3(entry["value"])))
    return _fit_with_residual(samples, tol)


def _parse_vec3(obj) -> np.ndarray:
    try:
        return _vec(obj)
    except (ValueError, TypeError) as exc:
        raise _InputError(f"sample point or value is not 3 finite numbers: {obj!r}") from exc


# -- driver ------------------------------------------------------------------

def _env_tol() -> float:
    raw = os.environ.get("SCREWALG_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise _InputError(f"SCREWALG_TOL is not a number: {raw!r}") from exc


_COMMANDS = (
    ("line-angle", "dual angle (angle + distance) of two lines", _cmd_line_angle),
    ("common-normal", "common normal line of two screw axes", _cmd_common_normal),
    ("screw-axis", "axis, magnitude and pitch of a screw", _cmd_screw_axis),
    ("compose", "compose a chain of joint transforms", _cmd_compose),
    ("verify", "verify a theorem on user data", _cmd_verify),
    ("fit", "fit a screw to sampled field values", _cmd_fit),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screwalg",
        description="Line geometry, screw analysis and rigid-motion composition "
        "over the dual numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if func is _cmd_verify:
            p.add_argument("theorem", choices=_THEOREMS)
        p.add_argument("files", nargs="*", help="input JSON files")
        p.add_argument(
            "--json",
            action="append",
            metavar="STRING",
            help="inline JSON document (repeatable; appended after files)",
        )
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )
        if func is _cmd_line_angle:
            p.add_argument(
                "--check", action="store_true", help="cross-check against the classical oracle"
            )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        tol = args.tol if args.tol is not None else _env_tol()
        if not (math.isfinite(tol) and tol >= 0.0):
            raise _InputError(f"tolerance must be finite and non-negative, got {tol}")
        # Overflow surfaces as NotFinite from the values it spoils, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, tol)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotEquiprojective as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except ScrewAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
