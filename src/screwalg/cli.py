"""Command-line front end for line geometry, screw analysis and verification.

Inputs arrive as positional JSON files and/or inline ``--json`` strings, in
that order. Exit codes: 0 success, 1 residual beyond tolerance, 2 parse or
usage error, 3 violated precondition. The default tolerance is 1e-9,
overridable by the SCREWALG_TOL environment variable and then by ``--tol``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .dual import DEFAULT_TOL, Dual, _quoted, _Value, format_dual, parse_dual
from .errors import NotEquiprojective, ScrewAlgError
from .geometry import (
    Line, _foot, axis_decompose, common_normal, dual_angle, line_from_point_direction,
)
from .linalg import (
    _NO_MOMENT, DualMat3, DualVec3, _DualArray, _moved, _nested, _parallel, _translation, _vec,
    exp_so3d, is_frame,
)

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
            # JSON text is UTF-8 (RFC 8259), whatever the locale says.
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        for text in args.json or []:
            docs.append(json.loads(text))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"cannot read input: {exc}") from exc
    if len(docs) != expected:
        raise _InputError(f"expected {expected} input document(s), got {len(docs)}")
    return docs


def _numbers(*values):
    """The values, each a JSON number or a (nested) array of them, walked on a stack of its own:
    a boolean or a string raises ValueError, before any constructor reads it."""
    pending = list(reversed(values))
    while pending:
        v = pending.pop()
        if isinstance(v, (bool, str)):
            raise ValueError(f"{_quoted(v)} is not a JSON number")
        if isinstance(v, list):
            pending.extend(reversed(v))
    return values


def _parse_dual_value(obj) -> Dual:
    try:
        if isinstance(obj, str):
            return parse_dual(obj)
        if isinstance(obj, (int, float)):
            return Dual(*_numbers(obj))
        if isinstance(obj, dict) and set(obj) <= {"re", "du"}:
            return Dual(*_numbers(obj.get("re", 0.0), obj.get("du", 0.0)))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"cannot interpret {_quoted(obj)} as a dual number: {exc}") from exc
    raise _InputError(f"cannot interpret {_quoted(obj)} as a dual number")


def _parse_screw(obj) -> DualVec3:
    """A screw motor: {"re": [..], "du": [..]} or a line as point + direction."""
    if not isinstance(obj, dict):
        raise _InputError("screw must be a JSON object")
    try:
        if "re" in obj:
            return DualVec3(*_numbers(obj["re"], obj.get("du")))
        if "point" in obj and "direction" in obj:
            p, e = map(_vec, _numbers(obj["point"], obj["direction"]))
            return DualVec3(e, _moved(e, _NO_MOMENT, p))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad screw document: {exc}") from exc
    raise _InputError("screw document needs re/du or point/direction fields")


def _parse_line(obj, tol: float) -> Line:
    try:
        if isinstance(obj, dict) and "point" in obj and "direction" in obj:
            return line_from_point_direction(*_numbers(obj["point"], obj["direction"]), tol=tol)
        return Line(_parse_screw(obj), tol=tol)
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad line document: {exc}") from exc


def _parse_matrix(obj) -> DualMat3:
    if not isinstance(obj, dict) or "re" not in obj:
        raise _InputError("matrix document needs re (and optionally du) 3x3 arrays")
    try:
        return DualMat3(*_numbers(obj["re"], obj.get("du")))
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


def _as_dict(value: _Value) -> dict:
    return dict(zip(value._fields, value._values()))


@functools.cache
def _json_key(key) -> str:
    # The keys are the library's own field and output names, so the cache stays small.
    return json.dumps(str(key))


def _json_text(obj) -> str:
    """The one JSON form of library values, with floats at 17 significant digits."""
    # The commonest values first: floats (np.float64 is one; a bool is none), then duals.
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, Dual):
        return f'{{"re": {obj.re:.17g}, "du": {obj.du:.17g}}}'
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_json_text(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_json_key(k)}: {_json_text(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    # Only the oracle's results are arrays, and numpy is loaded once they exist.
    if "numpy" in sys.modules and isinstance(obj, sys.modules["numpy"].ndarray):
        return _json_text(obj.tolist())
    if isinstance(obj, _DualArray):
        return _json_text({"re": _nested(obj._re), "du": _nested(obj._du)})
    if isinstance(obj, Line):
        return _json_text({"point": _foot(obj), "direction": obj.screw._re})
    if isinstance(obj, _Value):
        return _json_text(_as_dict(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(_json_text(json_obj))
        return
    text = "\n".join(text_lines)
    try:
        text.encode(sys.stdout.encoding or "utf-8")  # a text buffer has no encoding
    except UnicodeEncodeError:
        text = text.replace("ε", "eps")  # which parse_dual reads as well
    print(text)


# -- subcommands -------------------------------------------------------------

def _cmd_line_angle(args, tol: float) -> int:
    docs = _load_documents(args, 2)
    l1 = _parse_line(docs[0], tol)
    l2 = _parse_line(docs[1], tol)
    rel = None
    if _parallel(l1.screw._re, l2.screw._re, tol):
        rel = _oracle_relation(l1, l2, tol)
        if rel.distance > tol:
            print(
                "parallel lines: the dual angle cannot represent their distance; "
                f"oracle distance = {_fmt(rel.distance)}, angle = {_fmt(rel.angle)}",
                file=sys.stderr,
            )
            return EXIT_PRECONDITION
    theta = dual_angle(l1.screw, l2.screw)
    if args.check:
        rel = rel or _oracle_relation(l1, l2, tol)
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


def _oracle_relation(l1: Line, l2: Line, tol: float):
    """The classical oracle's distance and angle of two lines."""
    from .oracle import line_distance_angle

    return line_distance_angle(_foot(l1), l1.screw._re, _foot(l2), l2.screw._re, tol=tol)


def _cmd_common_normal(args, tol: float) -> int:
    docs = _load_documents(args, 2)
    z1 = _parse_screw(docs[0])
    z2 = _parse_screw(docs[1])
    line = common_normal(z1, z2, tol=tol)
    point, direction = _foot(line), line.screw._re
    _emit(
        args,
        [
            f"point = {_fmt_vec(point)}",
            f"direction = {_fmt_vec(direction)}",
        ],
        {
            "point": point,
            "direction": direction,
            "re": direction,
            "du": line.screw._du,
        },
    )
    return EXIT_OK


def _cmd_screw_axis(args, tol: float) -> int:
    docs = _load_documents(args, 1)
    z = _parse_screw(docs[0])
    dec = axis_decompose(z)
    _emit(
        args,
        [
            f"axis point = {_fmt_vec(_foot(dec.axis))}",
            f"axis direction = {_fmt_vec(dec.axis.screw._re)}",
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
            if not is_frame(m, tol):
                raise ScrewAlgError("joint matrix fails the frame invariant")
        elif "axis" in joint and "angle" in joint:
            # A frame by construction; its rounding is not the caller's to judge.
            axis = _parse_line(joint["axis"], tol)
            angle = _parse_dual_value(joint["angle"])
            m = exp_so3d(angle * axis.screw)
        else:
            raise _InputError("joint needs either matrix or axis + angle fields")
        frame = frame @ m
    translation = _translation(frame)
    rotation = _nested(frame._re)
    _emit(
        args,
        [
            f"frame re = {rotation}",
            f"frame du = {_nested(frame._du)}",
            f"rotation rows = {rotation}",
            f"translation = {_fmt_vec(translation)}",
        ],
        {
            "matrix": frame,
            "rotation": rotation,
            "translation": translation,
        },
    )
    return EXIT_OK


def _cmd_verify(args, tol: float) -> int:
    from .theorems import _thales_figure, equilibrium_laws, petersen_morley, thales_check

    doc = _load_documents(args, 1)[0]
    if not isinstance(doc, dict):
        raise _InputError("verify expects a JSON object")
    theorem = args.theorem

    if theorem in ("cosines", "sines", "anglesum"):
        report = equilibrium_laws(*(_parse_screw(d) for d in _require(doc, "x", "y")), tol=tol)
        figure = report.max_scaled_residual()
        passed = figure <= tol  # report.ok(tol), without computing the figure twice
        out = {**_as_dict(report), "max_scaled_residual": figure, "theorem": theorem}
    elif theorem == "petersen-morley":
        report = petersen_morley(*(_parse_screw(d) for d in _require(doc, "x", "y", "z")), tol=tol)
        passed = report.ok(tol)
        out = {**_as_dict(report), "theorem": theorem}
    elif theorem == "thales":
        *screws, r_doc = _require(doc, "x", "y", "z", "r")
        radius = _parse_dual_value(r_doc)
        residual = thales_check(*(_parse_screw(d) for d in screws), radius, tol=tol)
        passed = _thales_figure(residual, radius) <= tol
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
    from .oracle import _fit_with_residual

    return _fit_with_residual(samples, tol)


def _parse_vec3(obj) -> tuple:
    try:
        return _vec(*_numbers(obj))
    except (ValueError, TypeError) as exc:
        raise _InputError(
            f"sample point or value is not 3 finite numbers: {_quoted(obj)}") from exc


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
def _build_parser() -> tuple:
    """The top-level parser, and each command's own parser by the command's name."""
    parser = argparse.ArgumentParser(
        prog="screwalg",
        description="Line geometry, screw analysis and rigid-motion composition "
        "over the dual numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, func in _COMMANDS:
        p = commands[name] = sub.add_parser(name, help=help_text)
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
    return parser, commands


def main(argv=None) -> int:
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            # No command comes first: the top-level parser reports help or the usage error.
            args = parser.parse_args(argv)
        else:
            # What parse_args does, less the top-level pass that hands argv to this parser.
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        tol = args.tol if args.tol is not None else _env_tol()
        if not (math.isfinite(tol) and tol >= 0.0):
            raise _InputError(f"tolerance must be finite and non-negative, got {tol}")
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
