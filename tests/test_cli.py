"""Golden tests for the command-line interface and its exit-code contract."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import screwalg
from helpers import frame_beyond_the_floats
from screwalg import (
    Dual, DualMat3, DualVec3, Line, TripleTag, axis_decompose, classify_triple,
    equilibrium_laws, line_distance_angle, line_from_point_direction, petersen_morley,
)
from screwalg.cli import _build_parser, _json_text, _numbers, _parse_screw, main
from screwalg.dual import _Value, parse_dual

EPS = np.finfo(float).eps
X_AXIS = {"point": [0, 0, 0], "direction": [1, 0, 0]}
Y_AXIS_OFFSET = {"point": [0, 0, 1], "direction": [0, 1, 0]}
Z_AXIS_OFFSET = {"point": [1, 0, 0], "direction": [0, 0, 1]}


# Two lines whose directions are unit to the last bit; any tol accepts them.
_PAIR_AT_TOL_0 = [
    {"point": [0.3, -0.2, 0.5], "direction": [0.6, 0.8, 0]},
    {"point": [1.1, 0.7, -0.3], "direction": [0, 0.6, 0.8]},
]


def _json_args(docs):
    return [arg for doc in docs for arg in ("--json", json.dumps(doc))]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLineAngle:
    def test_perpendicular_offset_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "line-angle",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(Y_AXIS_OFFSET),
        )
        assert code == 0
        assert "Theta = 1.5707963267948966 + 1ε" in out
        assert "theta = 1.5707963267948966" in out
        assert "d = 1" in out

    def test_identical_lines(self, capsys):
        code, out, _ = run(
            capsys,
            "line-angle",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(X_AXIS),
        )
        assert code == 0
        assert "Theta = 0" in out

    def test_parallel_offset_lines_exit_3_with_oracle_distance(self, capsys):
        other = {"point": [0, 2, 0], "direction": [1, 0, 0]}
        code, _, err = run(
            capsys,
            "line-angle",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(other),
        )
        assert code == 3
        assert "oracle distance = 2" in err

    def test_nearly_parallel_lines_get_the_oracle_distance(self, capsys):
        # 2e-9 rad apart: past the oracle's parallel guard, where the cosine
        # rounds to 1. The angle from its cosine alone refused them (exit 3).
        a = 2e-9
        p1, p2 = [0.3, -0.2, 0.5], [0.1, 0.4, -0.3]
        e2 = [math.cos(a), math.sin(a), 0.0]
        code, out, err = run(
            capsys,
            "line-angle", "--format", "json",
            "--json", json.dumps({"point": p1, "direction": [1, 0, 0]}),
            "--json", json.dumps({"point": p2, "direction": e2}),
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        rel = screwalg.line_distance_angle(p1, [1, 0, 0], p2, e2)
        assert abs(abs(doc["d"]) - rel.distance) <= 4 * EPS
        assert abs(doc["theta"] - a) <= 4 * EPS * a

    def test_lines_1e8_rad_from_parallel(self, capsys):
        # Ten times the default tolerance from parallel: every parallel check
        # passes them, and so must the angle.
        code, out, err = run(
            capsys,
            "line-angle",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps({"point": [0, 0, 1], "direction": [1, 1e-8, 0]}),
        )
        assert (code, err) == (0, "")
        assert out == "Theta = 1e-08 + 1ε\ntheta = 1e-08\nd = 1\n"

    @pytest.mark.parametrize(
        "docs",
        [
            [X_AXIS, {"point": [0, 0, 1], "direction": [1, 1e-8, 0]}],
            *([{"point": [0.3, -0.2, 0.5], "direction": [1, 0, 0]},
               {"point": [0.1, 0.4, -0.3], "direction": [math.cos(a), math.sin(a), 0.0]}]
              for a in (2e-9, 4e-9, 8e-9)),
        ],
        ids=["1e-8", "2e-9", "4e-9", "8e-9"],
    )
    def test_check_agrees_with_the_oracle_near_parallel(self, capsys, docs):
        # The oracle's angle came from a clipped arccos, 0 below ~1.5e-8 rad (exit 1).
        code, _, err = run(capsys, "line-angle", "--check", *_json_args(docs))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("tol", ["0", "1e-30"])
    def test_exactly_unit_directions_pass_at_any_tol(self, capsys, tol):
        # The rounding of p x e read as a pitch beyond tol refused them (exit 2).
        code, out, err = run(capsys, "line-angle", "--tol", tol, *_json_args(_PAIR_AT_TOL_0))
        assert (code, err) == (0, "")
        assert out.startswith("Theta = 1.0701416143903084")

    def test_check_mode_agrees_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "line-angle", "--check",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(Y_AXIS_OFFSET),
        )
        assert code == 0
        assert "Theta" in out

    def test_check_whose_oracle_distance_overflows_exits_3(self, capsys):
        # p2 - p1 overflows in the oracle, whose NaN distance passed every bound (exit 0).
        docs = [{"point": [-1e308, 0, 0], "direction": [0, 0, 1]},
                {"point": [1e308, 5, 1], "direction": [0.6, 0, 0.8]}]
        code, out, err = run(capsys, "line-angle", "--check", "--format", "json", *_json_args(docs))
        assert (code, out) == (3, "")
        assert err.startswith("error: the line distance overflows")

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "line-angle", "--format", "json",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(Y_AXIS_OFFSET),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["Theta"]["re"] == pytest.approx(math.pi / 2, abs=1e-15)
        assert doc["d"] == pytest.approx(1.0, abs=1e-15)

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run(capsys, "line-angle", "--json", "{not json", "--json", "{}")
        assert code == 2
        assert "error" in err

    def test_wrong_document_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "line-angle", "--json", json.dumps(X_AXIS))
        assert code == 2

    def test_file_input(self, tmp_path, capsys):
        f1 = tmp_path / "l1.json"
        f2 = tmp_path / "l2.json"
        f1.write_text(json.dumps(X_AXIS))
        f2.write_text(json.dumps(Y_AXIS_OFFSET))
        code, out, _ = run(capsys, "line-angle", str(f1), str(f2))
        assert code == 0
        assert "Theta = 1.5707963267948966 + 1ε" in out


class TestCommonNormal:
    def test_skew_lines(self, capsys):
        code, out, _ = run(
            capsys,
            "common-normal", "--format", "json",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(Y_AXIS_OFFSET),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["direction"] == pytest.approx([0, 0, 1])
        assert doc["point"] == pytest.approx([0, 0, 0])
        # Output doubles as a valid line input document.
        code2, out2, _ = run(
            capsys,
            "line-angle",
            "--json", json.dumps({"point": doc["point"], "direction": doc["direction"]}),
            "--json", json.dumps(X_AXIS),
        )
        assert code2 == 0

    def test_parallel_exit_3(self, capsys):
        other = {"point": [0, 1, 0], "direction": [1, 0, 0]}
        code, _, err = run(
            capsys,
            "common-normal",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(other),
        )
        assert code == 3
        assert "parallel" in err.lower()


class TestScrewAxis:
    def test_worked_motor_golden(self, capsys):
        motor = {"re": [2, 0, 0], "du": [3, 2, 0]}
        code, out, _ = run(capsys, "screw-axis", "--json", json.dumps(motor))
        assert code == 0
        assert "axis point = (0, 0, 1)" in out
        assert "axis direction = (1, 0, 0)" in out
        assert "magnitude = 2" in out
        assert "pitch = 1.5" in out

    def test_zero_pitch_motor(self, capsys):
        motor = {"re": [0, 0, 1], "du": [0, 0, 0]}
        code, out, _ = run(capsys, "screw-axis", "--json", json.dumps(motor))
        assert code == 0
        assert "axis point = (0, 0, 0)" in out
        assert "pitch = 0" in out

    def test_pure_dual_motor_exit_3(self, capsys):
        motor = {"re": [0, 0, 0], "du": [1, 2, 3]}
        code, _, err = run(capsys, "screw-axis", "--json", json.dumps(motor))
        assert code == 3
        assert "error" in err


class TestCompose:
    def test_empty_chain(self, capsys):
        code, out, _ = run(capsys, "compose", "--json", "[]")
        assert code == 0
        assert "translation = (0, 0, 0)" in out

    def test_pure_translation_joint(self, capsys):
        chain = [{"axis": {"point": [0, 0, 0], "direction": [0, 0, 1]}, "angle": "0 + 1eps"}]
        code, out, _ = run(capsys, "compose", "--json", json.dumps(chain))
        assert code == 0
        assert "translation = (0, 0, 1)" in out

    def test_quarter_turn_joint(self, capsys):
        chain = [
            {
                "axis": {"point": [0, 0, 0], "direction": [0, 0, 1]},
                "angle": {"re": math.pi / 2, "du": 0.0},
            }
        ]
        code, out, _ = run(capsys, "compose", "--format", "json", "--json", json.dumps(chain))
        assert code == 0
        doc = json.loads(out)
        rot = np.array(doc["rotation"])
        assert rot[0] == pytest.approx([0, 1, 0], abs=1e-12)
        assert doc["translation"] == pytest.approx([0, 0, 0], abs=1e-12)

    def test_matrix_joint_round_trip(self, capsys):
        chain = [{"axis": {"point": [1, 0, 0], "direction": [0, 1, 0]}, "angle": "0.7 + 0.3eps"}]
        code, out, _ = run(capsys, "compose", "--format", "json", "--json", json.dumps(chain))
        assert code == 0
        doc = json.loads(out)
        code2, out2, _ = run(
            capsys,
            "compose", "--format", "json",
            "--json", json.dumps([{"matrix": doc["matrix"]}]),
        )
        assert code2 == 0
        assert json.loads(out2)["translation"] == pytest.approx(doc["translation"])

    def test_screw_joint_translates_along_axis(self, capsys):
        chain = [
            {
                "axis": {"point": [0, 0, 0], "direction": [0, 0, 1]},
                "angle": {"re": math.pi / 2, "du": 0.25},
            }
        ]
        code, out, _ = run(capsys, "compose", "--format", "json", "--json", json.dumps(chain))
        assert code == 0
        assert json.loads(out)["translation"] == pytest.approx([0, 0, 0.25], abs=1e-12)

    def test_invalid_joint_exits_2(self, capsys):
        code, _, _ = run(capsys, "compose", "--json", json.dumps([{"angle": 1.0}]))
        assert code == 2

    def test_non_numeric_angle_exits_2(self, capsys):
        joint = {"axis": X_AXIS, "angle": {"re": "abc"}}
        code, _, err = run(capsys, "compose", "--json", json.dumps([joint]))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_non_frame_matrix_exits_3(self, capsys):
        bad = {"matrix": {"re": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}}
        code, _, _ = run(capsys, "compose", "--json", json.dumps([bad]))
        assert code == 3

    @pytest.mark.parametrize("tol, expected", [("1e-12", 3), ("1e-7", 0)])
    def test_matrix_joint_is_judged_by_the_callers_tol(self, capsys, tol, expected):
        # 1e-8 from orthogonal: a floor of 1e-7 under tol passed it at 1e-12.
        near = {"matrix": {"re": [[1 + 1e-8, 0, 0], [0, 1, 0], [0, 0, 1]]}}
        code, _, _ = run(capsys, "compose", "--tol", tol, "--json", json.dumps([near]))
        assert code == expected

    def test_joint_angle_whose_square_underflows_is_a_null_turn(self, capsys):
        chain = [{"axis": X_AXIS, "angle": 2.3e-199}]
        code, out, err = run(capsys, "compose", "--json", json.dumps(chain))
        assert (code, err) == (0, "")
        assert "translation = (0, 0, 0)" in out

    @pytest.mark.parametrize("tol", ["0", "1e-30"])
    def test_axis_joints_pass_at_any_tol(self, capsys, tol):
        # Their directions are checked; the frames exp_so3d builds from them are not.
        chain = [{"axis": _PAIR_AT_TOL_0[0], "angle": "0.7 + 0.2eps"},
                 {"axis": {"point": [1, 2, 3], "direction": [0, 0, 1]}, "angle": 1.1}]
        code, out, err = run(capsys, "compose", "--tol", tol, "--json", json.dumps(chain))
        assert (code, err) == (0, "")
        assert "translation = " in out


class TestVerify:
    def test_petersen_morley_worked_triple_exits_0(self, capsys):
        doc = {"x": X_AXIS, "y": Y_AXIS_OFFSET, "z": Z_AXIS_OFFSET}
        code, out, _ = run(capsys, "verify", "petersen-morley", "--json", json.dumps(doc))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["jacobi_residual"] == 0.0

    def test_petersen_morley_non_generic_exits_3(self, capsys):
        doc = {
            "x": X_AXIS,
            "y": {"point": [0, 0, 0], "direction": [0, 1, 0]},
            "z": {"point": [0, 1, 0], "direction": [0, 1, 0]},
        }
        code, _, err = run(capsys, "verify", "petersen-morley", "--json", json.dumps(doc))
        assert code == 3
        assert "error" in err

    def test_equilibrium_families_exit_0(self, capsys):
        doc = {"x": X_AXIS, "y": Y_AXIS_OFFSET}
        for theorem in ("cosines", "sines", "anglesum"):
            code, out, _ = run(capsys, "verify", theorem, "--json", json.dumps(doc))
            assert code == 0
            assert json.loads(out)["passed"] is True

    def test_unreachable_tolerance_exits_1(self, capsys):
        doc = {"x": X_AXIS, "y": Y_AXIS_OFFSET}
        code, out, _ = run(
            capsys, "verify", "cosines", "--tol", "1e-30", "--json", json.dumps(doc)
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_degenerate_equilibrium_exits_3(self, capsys):
        doc = {"x": X_AXIS, "y": {"point": [0, 1, 0], "direction": [1, 0, 0]}}
        code, _, _ = run(capsys, "verify", "cosines", "--json", json.dumps(doc))
        assert code == 3

    def test_thales_exits_0(self, capsys):
        doc = {
            "x": X_AXIS,
            "y": {"re": [-1, 0, 0], "du": [0, 0, 0]},
            "z": Y_AXIS_OFFSET,
            "r": 1.0,
        }
        code, out, _ = run(capsys, "verify", "thales", "--json", json.dumps(doc))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_thales_off_sphere_exits_3(self, capsys):
        doc = {
            "x": X_AXIS,
            "y": {"re": [-1, 0, 0], "du": [0, 0, 0]},
            "z": {"re": [0, 1, 0], "du": [0, 0.5, 0]},
            "r": 1.0,
        }
        code, _, _ = run(capsys, "verify", "thales", "--json", json.dumps(doc))
        assert code == 3

    def test_delassus_exits_0(self, capsys):
        samples = [
            {"point": [0, 0, 0], "value": [0, 0, 0]},
            {"point": [1, 0, 0], "value": [0, 1, 0]},
            {"point": [0, 1, 0], "value": [-1, 0, 0]},
            {"point": [0, 0, 1], "value": [0, 0, 0]},
        ]
        code, out, _ = run(
            capsys, "verify", "delassus", "--json", json.dumps({"samples": samples})
        )
        assert code == 0
        report = json.loads(out)
        assert report["resultant"] == pytest.approx([0, 0, 1], abs=1e-10)

    GENERIC = {
        "x": {"re": [1.3, 0.2, -0.7], "du": [0.5, 1.1, 2]},
        "y": {"re": [0.1, 1.7, 0.4], "du": [-1, 0.3, 0.2]},
        "z": {"re": [-0.6, 0.3, 1.9], "du": [0.8, -0.4, 1.5]},
    }

    @staticmethod
    def _times(k, doc):
        return {name: {part: [k * c for c in v] for part, v in screw.items()}
                for name, screw in doc.items()}

    def _verdict(self, capsys, theorem, doc, *flags):
        code, out, _ = run(capsys, "verify", theorem, *flags, "--json", json.dumps(doc))
        assert code == (0 if json.loads(out)["passed"] else 1)
        return code

    @pytest.mark.parametrize("k", [1.0, 1024.0, 2.0**-30])
    def test_petersen_morley_passes_on_the_generic_triple_at_any_size(self, capsys, k):
        assert self._verdict(capsys, "petersen-morley", self._times(k, self.GENERIC)) == 0

    @pytest.mark.parametrize("k", [1.0, 1024.0, 2.0**-30])
    def test_triangle_laws_pass_on_the_generic_pair_at_any_size(self, capsys, k):
        doc = self._times(k, {"x": self.GENERIC["x"], "y": self.GENERIC["y"]})
        for theorem in ("cosines", "sines", "anglesum"):
            assert self._verdict(capsys, theorem, doc) == 0, theorem

    @pytest.mark.parametrize("tol", ["1e-9", "1e-15", "4e-16", "1e-30"])
    def test_triangle_families_share_one_verdict(self, capsys, tol):
        docs = ({"x": X_AXIS, "y": Y_AXIS_OFFSET},
                {"x": self.GENERIC["x"], "y": self.GENERIC["y"]})
        for doc in docs:
            codes = {self._verdict(capsys, t, doc, "--tol", tol)
                     for t in ("cosines", "sines", "anglesum")}
            assert len(codes) == 1, (doc, tol, codes)

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "pythagoras", "--json", "{}")
        assert code == 2


class TestFit:
    def test_recovers_rotation_field(self, capsys):
        samples = [
            {"point": [0, 0, 0], "value": [0, 0, 0]},
            {"point": [1, 0, 0], "value": [0, 1, 0]},
            {"point": [0, 1, 0], "value": [-1, 0, 0]},
            {"point": [0, 0, 1], "value": [0, 0, 0]},
        ]
        code, out, _ = run(
            capsys, "fit", "--format", "json", "--json", json.dumps({"samples": samples})
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["re"] == pytest.approx([0, 0, 1], abs=1e-10)
        assert doc["du"] == pytest.approx([0, 0, 0], abs=1e-10)

    def test_non_equiprojective_field_exits_1(self, capsys):
        samples = [
            {"point": [0, 0, 0], "value": [0, 0, 0]},
            {"point": [1, 0, 0], "value": [1, 0, 0]},
            {"point": [0, 1, 0], "value": [0, 0, 0]},
            {"point": [0, 0, 1], "value": [0, 0, 0]},
        ]
        code, _, err = run(capsys, "fit", "--json", json.dumps({"samples": samples}))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"samples": 5},
            {"samples": [{"point": [0, 0], "value": [0, 0, 0]}] * 3},
            {"samples": [{"point": [0, 0, 0], "value": ["a", 0, 0]}] * 3},
        ],
        ids=["samples-not-a-list", "point-of-length-2", "value-not-a-number"],
    )
    def test_malformed_samples_exit_2(self, capsys, doc):
        code, _, err = run(capsys, "fit", "--json", json.dumps(doc))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_collinear_points_exit_3(self, capsys):
        samples = [
            {"point": [t, 0, 0], "value": [0, 0, 0]} for t in (0.0, 1.0, 2.0)
        ]
        code, _, _ = run(capsys, "fit", "--json", json.dumps({"samples": samples}))
        assert code == 3


class TestTolerancePlumbing:
    def test_env_var_sets_default(self, capsys, monkeypatch):
        doc = {"x": X_AXIS, "y": Y_AXIS_OFFSET}
        monkeypatch.setenv("SCREWALG_TOL", "1e-30")
        code, _, _ = run(capsys, "verify", "cosines", "--json", json.dumps(doc))
        assert code == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        doc = {"x": X_AXIS, "y": Y_AXIS_OFFSET}
        monkeypatch.setenv("SCREWALG_TOL", "1e-30")
        code, _, _ = run(
            capsys, "verify", "cosines", "--tol", "1e-9", "--json", json.dumps(doc)
        )
        assert code == 0

    def test_invalid_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SCREWALG_TOL", "soon")
        code, _, _ = run(capsys, "line-angle", "--json", json.dumps(X_AXIS), "--json", json.dumps(X_AXIS))
        assert code == 2

    PARALLEL_LINES = (
        "--json", json.dumps(X_AXIS),
        "--json", json.dumps({"point": [0, 2, 0], "direction": [1, 0, 0]}),
    )
    SAMPLES = [{"point": p, "value": [0, 0, 0]} for p in ([0, 0, 0], [1, 0, 0], [0, 1, 0])]
    FIT_DOC = ("--json", json.dumps({"samples": SAMPLES}))

    @pytest.mark.parametrize(
        "env, argv",
        [
            (None, ["line-angle", "--tol", "nan", *PARALLEL_LINES]),
            (None, ["fit", "--tol", "inf", *FIT_DOC]),
            (None, ["line-angle", "--tol", "-1", *PARALLEL_LINES]),
            ("nan", ["line-angle", *PARALLEL_LINES]),
        ],
        ids=["flag-nan", "flag-inf", "flag-negative", "env-nan"],
    )
    def test_non_finite_or_negative_tolerance_exits_2(self, capsys, monkeypatch, env, argv):
        if env is not None:
            monkeypatch.setenv("SCREWALG_TOL", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and non-negative")
        assert "Traceback" not in err


class TestParserReuse:
    def test_successive_calls_do_not_leak_state(self, capsys):
        doc = json.dumps({"x": X_AXIS, "y": Y_AXIS_OFFSET})
        lines = ("--json", json.dumps(X_AXIS), "--json", json.dumps(Y_AXIS_OFFSET))
        code, _, _ = run(capsys, "verify", "cosines", "--tol", "1e-30", "--json", doc)
        assert code == 1
        code, _, _ = run(capsys, "verify", "cosines", "--json", doc)
        assert code == 0
        code, out, _ = run(capsys, "line-angle", "--check", "--format", "json", *lines)
        assert code == 0
        assert json.loads(out)["d"] == pytest.approx(1.0, abs=1e-15)
        code, out, _ = run(capsys, "line-angle", *lines)
        assert code == 0
        assert out == "Theta = 1.5707963267948966 + 1ε\ntheta = 1.5707963267948966\nd = 1\n"
        # One --json document: none left over from the calls before.
        code, out, _ = run(capsys, "screw-axis", "--json", json.dumps({"re": [2, 0, 0], "du": [3, 2, 0]}))
        assert code == 0
        assert out.startswith("axis point = (0, 0, 1)\n")


# -- one parse per call ----------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
_HELP = GOLDEN["help:screwalg"]["stdout"]
_TOP_USAGE = (
    "usage: screwalg [-h]\n"
    "                {line-angle,common-normal,screw-axis,compose,verify,fit} ...\n"
)
_CHOICES = "(choose from 'line-angle', 'common-normal', 'screw-axis', 'compose', 'verify', 'fit')"


def _parses(monkeypatch) -> list:
    """The results of the ArgumentParser.parse_known_args calls made from now on."""
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(original(self, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return calls


class TestDispatch:
    @pytest.fixture(autouse=True)
    def _fixed_environment(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        monkeypatch.delenv("SCREWALG_TOL", raising=False)

    @pytest.mark.parametrize("argv, code, out, err", [
        ([], 2, "", _TOP_USAGE + "screwalg: error: the following arguments are required: command\n"),
        (["-h"], 0, _HELP, ""),
        (["nope"], 2, "",
         _TOP_USAGE + f"screwalg: error: argument command: invalid choice: 'nope' {_CHOICES}\n"),
        (["--tol", "1", "verify", "cosines"], 2, "",
         _TOP_USAGE + f"screwalg: error: argument command: invalid choice: '1' {_CHOICES}\n"),
        (["screw-axis", "--bogus"], 2, "",
         _TOP_USAGE + "screwalg: error: unrecognized arguments: --bogus\n"),
        (["screw-axis", "--format", "xml"], 2, "",
         "usage: screwalg screw-axis [-h] [--json STRING] [--tol TOL]\n"
         "                           [--format {text,json}]\n"
         "                           [files ...]\n"
         "screwalg screw-axis: error: argument --format: invalid choice: 'xml' "
         "(choose from 'text', 'json')\n"),
        (["verify"], 2, "",
         "usage: screwalg verify [-h] [--json STRING] [--tol TOL] [--format {text,json}]\n"
         "                       {cosines,sines,anglesum,petersen-morley,thales,delassus}\n"
         "                       [files ...]\n"
         "screwalg verify: error: the following arguments are required: theorem, files\n"),
        (["line-angle", "--help"], 0, GOLDEN["help:line-angle"]["stdout"], ""),
    ], ids=["none", "-h", "unknown", "option-first", "bogus-option", "bad-format",
            "verify-bare", "command-help"])
    def test_help_and_usage_errors_are_pinned(self, capsys, argv, code, out, err):
        assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("case", sorted(
        name for name, case in GOLDEN.items() if "--help" not in case["argv"]
    ))
    def test_a_command_is_parsed_once_as_the_full_parser_parses_it(self, monkeypatch, case):
        argv = GOLDEN[case]["argv"]
        expected = vars(_build_parser()[0].parse_args(argv))
        del expected["command"]
        calls = _parses(monkeypatch)
        _run_quietly(list(argv))
        assert len(calls) == 1
        namespace, extra = calls[0]
        assert (vars(namespace), extra) == (expected, [])


# -- the JSON writer ---------------------------------------------------------------

def _expected_json(value):
    """The JSON data _json_text writes for a value, taken through public attributes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (DualVec3, DualMat3)):
        return {"re": value.re.tolist(), "du": value.du.tolist()}
    if isinstance(value, Line):
        return {"point": value.point.tolist(), "direction": value.direction.tolist()}
    if isinstance(value, _Value):
        return {name: _expected_json(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return [_expected_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _expected_json(v) for k, v in value.items()}
    return value


def _assert_same_json(got, want):
    """Equal data, keys in the same order and every float bit for bit (-0.0 is not 0.0)."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same_json(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_json(g, w)
    elif isinstance(want, bool) or want is None:
        assert got is want
    elif isinstance(want, float):
        assert float(got).hex() == float(want).hex()
    else:
        assert got == want


def _assert_written(value):
    text = _json_text(value)
    # JSON has one number type. Python reads "-0" as the int 0, so read every number
    # as a float, as a JSON reader that follows IEEE 754 does.
    _assert_same_json(json.loads(text, parse_int=float), _expected_json(value))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_vec3s = st.lists(_finite, min_size=3, max_size=3)
_UNITS = ([1.0, 0.0, 0.0], [0.6, 0.0, -0.8], [0.0, 0.6, 0.8])
_leaves = st.one_of(
    _finite,
    _finite.map(np.float64),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.none(),
    st.sampled_from(TripleTag),
    st.builds(Dual, _finite, _finite),
    st.builds(DualVec3, _vec3s, _vec3s),
    st.builds(DualMat3, st.lists(_vec3s, min_size=3, max_size=3),
              st.lists(_vec3s, min_size=3, max_size=3)),
    st.builds(line_from_point_direction, st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
              st.sampled_from(_UNITS)),
    st.lists(_finite, max_size=4).map(np.array),
)
_json_values = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(inner, inner),
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["re", "du", "axis", "é", 'quo"te']), inner, max_size=3),
), max_leaves=8)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    @example(-0.0)
    @example(5e-324)
    @example(1.7976931348623157e308)
    @example(np.float64(-0.0))
    @example(((-0.0, (5e-324,)), [Dual(-0.0, 1.7976931348623157e308)]))
    @example(True)
    def test_every_float_reads_back_bit_for_bit(self, value):
        _assert_written(value)

    @pytest.mark.parametrize("name", [
        "AxisDecomposition", "TripleClassification", "TripleClassification:witness",
        "EquilibriumReport", "PetersenMorleyReport", "LineRelation", "LineRelation:parallel",
    ])
    def test_reports_keep_their_field_order(self, name):
        x, y, z = (_parse_screw(doc) for doc in (X_AXIS, Y_AXIS_OFFSET, Z_AXIS_OFFSET))
        value = {
            "AxisDecomposition": lambda: axis_decompose(DualVec3([1.3, 0.2, -0.7], [0.5, 1.1, 2])),
            "TripleClassification": lambda: classify_triple(x, y, z),
            "TripleClassification:witness": lambda: classify_triple(
                x, y, Dual(1, 2) * x + Dual(2, -1) * y),
            "EquilibriumReport": lambda: equilibrium_laws(x, y),
            "PetersenMorleyReport": lambda: petersen_morley(x, y, z),
            "LineRelation": lambda: line_distance_angle([0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]),
            "LineRelation:parallel": lambda: line_distance_angle(
                [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]),
        }[name]()
        assert type(value).__name__ == name.partition(":")[0]
        _assert_written(value)
        assert list(json.loads(_json_text(value))) == list(value._fields)


def run_process(*argv, flags=(), env=()):
    """The CLI in a fresh interpreter, so that warnings reach stderr as a user sees them.

    ``flags`` go to the interpreter, e.g. ``("-O",)`` to strip ``assert``s, and
    ``env`` adds to its environment.
    """
    src = str(Path(screwalg.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "screwalg.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestInputFiles:
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "compose", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input:")

    def test_files_are_read_as_utf8_under_an_ascii_locale(self, tmp_path, capsys):
        # JSON text is UTF-8 (RFC 8259); the C locale without UTF-8 mode decodes ASCII.
        chain = [{"axis": X_AXIS, "angle": "0.5 + 0.25ε"}]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain, ensure_ascii=False), encoding="utf-8")
        expected = run(capsys, "compose", "--json", json.dumps(chain))
        assert expected[0] == 0
        c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        assert run_process("compose", str(path), flags=("-X", "utf8=0"), env=c_locale) == expected


def _nested_documents(depth):
    """(case, documents) for every subcommand, one number of a document nested ``depth``
    arrays deep, in each kind of numeric field and as a whole document."""
    deep = "[" * depth + "1" + "]" * depth
    screw, line = json.dumps({"re": [1, 0, 0], "du": [0, 0, 0]}), json.dumps(X_AXIS)
    yield "screw-axis-re", ["screw-axis"], ['{"re": %s}' % deep]
    yield "screw-axis-document", ["screw-axis"], [deep]
    yield "common-normal-du", ["common-normal"], ['{"re": [1, 0, 0], "du": %s}' % deep, screw]
    yield "line-angle-point", ["line-angle"], ['{"point": %s, "direction": [1, 0, 0]}' % deep, line]
    yield "compose-angle", ["compose"], ['[{"axis": %s, "angle": %s}]' % (line, deep)]
    yield "compose-angle-re", ["compose"], ['[{"axis": %s, "angle": {"re": %s}}]' % (line, deep)]
    yield "compose-matrix", ["compose"], ['[{"matrix": {"re": %s}}]' % deep]
    yield "verify-cosines", ["verify", "cosines"], ['{"x": {"re": %s}, "y": %s}' % (deep, screw)]
    yield ("verify-thales-radius", ["verify", "thales"],
           ['{"x": %s, "y": %s, "z": %s, "r": %s}' % (screw, screw, screw, deep)])
    sample = '{"samples": [{"point": %s, "value": [0, 0, 0]}]}' % deep
    yield "verify-delassus-point", ["verify", "delassus"], [sample]
    yield "fit-point", ["fit"], [sample]
    yield "fit-samples", ["fit"], ['{"samples": %s}' % deep]


def _in_a_fresh_thread(fn, *args):
    """fn(*args) at the bottom of a stack of its own, as cli.main runs in a process of its
    own, so that json accepts documents as deep as it would there."""
    result = []

    def target():
        try:
            result.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001  raised again in the calling thread
            result.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the call did not return"
    if isinstance(result[0], BaseException):
        raise result[0]
    return result[0]


class TestNesting:
    """No nesting of a document ends in a traceback: json's refusal of a deep one and
    any document it accepts exit 2 with one error line."""

    @pytest.mark.parametrize("via", ["json", "file"])
    def test_every_subcommand_exits_2_at_any_depth(self, via, tmp_path, capsys):
        seen = set()
        for depth in [*range(980, 1001), 100_000]:
            for case, command, docs in _nested_documents(depth):
                if via == "file":
                    paths = [tmp_path / f"{i}.json" for i in range(len(docs))]
                    for path, doc in zip(paths, docs):
                        path.write_text(doc, encoding="utf-8")
                    argv = [*command, *map(str, paths)]
                else:
                    argv = [*command, *(a for doc in docs for a in ("--json", doc))]
                code = _in_a_fresh_thread(main, argv)
                out, err = capsys.readouterr()
                assert (code, out, err.count("\n")) == (2, "", 1), (case, depth)
                assert err.startswith("error: ") and "Traceback" not in err, (case, depth)
                seen.add((case, "read" if "cannot read input" in err else "parsed"))
        # Both paths are taken in every case: json's refusal, and a document it accepted.
        cases = [case for case, *_ in _nested_documents(1)]
        assert seen == {(case, how) for case in cases for how in ("read", "parsed")}

    def test_numbers_walks_any_array_json_accepts_from_a_deeper_stack(self):
        def deepest_array_walked_further_down():
            depth = 1000
            while True:  # the deepest array json accepts here
                try:
                    doc = json.loads("[" * depth + "true" + "]" * depth)
                    break
                except RecursionError:
                    depth -= 1

            def under(frames):
                return under(frames - 1) if frames else _numbers(doc)

            with pytest.raises(ValueError, match="^True is not a JSON number$"):
                under(50)
            return depth

        assert _in_a_fresh_thread(deepest_array_walked_further_down) > 900

    def test_a_process_refuses_a_deep_document(self, tmp_path):
        deep = "[" * 5000 + "]" * 5000
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        for argv in (["screw-axis", "--json", deep], ["compose", str(path)]):
            code, out, err = run_process(*argv)
            assert (code, out) == (2, ""), err
            assert err.startswith("error: cannot read input: maximum recursion depth")
            assert err.count("\n") == 1, err


class TestOutputEncoding:
    # The dual unit is printed as "eps", which parse_dual reads too, where the
    # encoding of standard output has no "ε"; a UTF-8 stream gets the bytes it always got.
    @pytest.mark.parametrize("env, unit", [
        ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}, "eps"),
        ({"PYTHONIOENCODING": "latin-1"}, "eps"),
        ({"PYTHONIOENCODING": "utf-8"}, "ε"),
    ], ids=["ascii-locale", "latin-1", "utf-8"])
    def test_line_angle_text_spells_the_dual_unit_as_stdout_can(self, env, unit, capsys):
        argv = ("line-angle", "--json", json.dumps(X_AXIS), "--json", json.dumps(Y_AXIS_OFFSET))
        expected = run(capsys, *argv)
        assert expected[0] == 0 and "ε" in expected[1]
        code, out, err = run_process(*argv, flags=("-X", "utf8=0"), env=env)
        assert (code, out, err) == (0, expected[1].replace("ε", unit), "")
        theta = out.splitlines()[0].removeprefix("Theta = ")
        assert parse_dual(theta) == parse_dual(expected[1].splitlines()[0].removeprefix("Theta = "))


class TestOverflow:
    def test_screw_whose_modulus_overflows_exits_3(self):
        # |re| = 2.4e308 is beyond the largest float.
        motor = {"re": [1.7e308, 1.7e308, 0], "du": [0, 0, 0]}
        code, out, err = run_process("screw-axis", "--json", json.dumps(motor))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_screw_whose_modulus_overflows_exits_3_under_optimize(self):
        # The finiteness tests are code, not asserts, so -O keeps them.
        motor = {"re": [1.7e308, 1.7e308, 0], "du": [0, 0, 0]}
        code, out, err = run_process("screw-axis", "--json", json.dumps(motor), flags=("-O",))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_frame_whose_translation_overflows_exits_3(self):
        # Every entry of the frame is finite; its translation, 2e308, is not.
        doc = [{"matrix": frame_beyond_the_floats()}]
        code, out, err = run_process("compose", "--json", json.dumps(doc))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_fit_whose_residual_overflows_exits_3(self):
        samples = [
            {"point": [1e200, 0, 0], "value": [1e200, 0, 0]},
            {"point": [0, 1e200, 0], "value": [0, 0, 1e200]},
            {"point": [0, 0, 1e200], "value": [0, 1e200, 0]},
        ]
        code, out, err = run_process("fit", "--json", json.dumps({"samples": samples}))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_fit_whose_mean_overflows_exits_3(self):
        # The mean of these finite points overflows. The SVD of the centered
        # points, which held infinities, never returned; in a process of its
        # own a regression fails on the timeout instead of hanging the suite.
        samples = [
            {"point": [0, 0, 1e308], "value": [0, 0, 0]},
            {"point": [1, 0, 1e308], "value": [0, 0, 0]},
            {"point": [0, 1, 1e308], "value": [0, 0, 0]},
        ]
        code, out, err = run_process("verify", "delassus", "--json", json.dumps({"samples": samples}))
        assert code == 3
        assert out == ""
        assert err.startswith("error: the fit overflows")

    @pytest.mark.parametrize(
        "argv",
        [
            ["screw-axis", "--json", '{"re": [NaN, 0, 0], "du": [0, 0, 0]}'],
            ["fit", "--json", '{"samples": [{"point": [NaN, 0, 0], "value": [0, 0, 0]}]}'],
            ["compose", "--json", '[{"axis": {"point": [0, 0, 0], "direction": [1, 0, 0]},'
                                  ' "angle": {"re": NaN}}]'],
        ],
        ids=["screw", "sample", "dual-value"],
    )
    def test_nan_in_a_document_still_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


SHORT_POINT = {"point": [1, 2], "direction": [1, 0, 0]}


@pytest.mark.parametrize(
    "argv",
    [
        ["screw-axis", "--json", json.dumps(SHORT_POINT)],
        ["common-normal", "--json", json.dumps(SHORT_POINT), "--json", json.dumps(Y_AXIS_OFFSET)],
        ["verify", "cosines", "--json", json.dumps({"x": SHORT_POINT, "y": Y_AXIS_OFFSET})],
    ],
    ids=["screw-axis", "common-normal", "verify-cosines"],
)
def test_screw_point_that_is_not_a_3_vector_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad screw document")


@pytest.mark.parametrize(
    "argv",
    [
        ["screw-axis", "--json", json.dumps({"re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})],
        ["compose", "--json", json.dumps([{"matrix": {"re": [1, 0, 0]}}])],
    ],
    ids=["screw-given-matrix", "matrix-given-vector"],
)
def test_value_of_the_other_shape_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "got shape" in err


LINE_AXIS = {"point": [0, 0, 0], "direction": [0, 0, 1]}


@pytest.mark.parametrize("direction", [[1, 0], [0.6, 0.8], [[1, 0, 0]], None],
                         ids=["2-vector", "unit-2-vector", "nested", "null"])
@pytest.mark.parametrize("command", ["line-angle", "compose"])
def test_line_direction_that_is_not_a_3_vector_exits_2(capsys, command, direction):
    line = {"point": [0, 0, 0], "direction": direction}
    if command == "line-angle":
        argv = ["line-angle", "--json", json.dumps(line), "--json", json.dumps(Y_AXIS_OFFSET)]
    else:
        argv = ["compose", "--json", json.dumps([{"axis": line, "angle": 1.0}])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad line document")


@pytest.mark.parametrize("line", [
    {"point": [0, 0, 0], "direction": [2, 0, 0]},
    {"re": [2, 0, 0]},
    {"re": [1, 0, 0], "du": [0.5, 0, 0]},
], ids=["non-unit-point-direction", "non-unit-re-du", "pitched-re-du"])
@pytest.mark.parametrize("command", ["line-angle", "compose"])
def test_line_document_that_is_no_line_exits_2(capsys, command, line):
    # Either form of a line document is parsed as one: a screw that is no line is bad input.
    if command == "line-angle":
        argv = ["line-angle", "--json", json.dumps(line), "--json", json.dumps(Y_AXIS_OFFSET)]
    else:
        argv = ["compose", "--json", json.dumps([{"axis": line, "angle": 1.0}])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad line document")


TOO_BIG = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "argv",
    [
        ["screw-axis", "--json", json.dumps({"re": [TOO_BIG, 0, 0], "du": [0, 0, 0]})],
        ["line-angle", "--json", json.dumps({"point": [TOO_BIG, 0, 0], "direction": [1, 0, 0]}),
         "--json", json.dumps(Y_AXIS_OFFSET)],
        ["compose", "--json", json.dumps([{"axis": LINE_AXIS, "angle": TOO_BIG}])],
        ["compose", "--json", json.dumps([{"axis": LINE_AXIS, "angle": {"du": TOO_BIG}}])],
        ["compose", "--json", json.dumps([{"matrix": {"re": [[TOO_BIG, 0, 0], [0, 1, 0],
                                                             [0, 0, 1]]}}])],
        ["fit", "--json", json.dumps({"samples": [{"point": [TOO_BIG, 0, 0],
                                                  "value": [0, 0, 0]}]})],
    ],
    ids=["screw", "line", "angle", "angle-object", "matrix", "sample"],
)
def test_integer_too_large_for_a_float_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _not_a_number_cases():
    """(id, argv, message) with a boolean or a numeric string in each slot where the input
    forms allow only a JSON number; a dual value may also be "a + beps" text, so "1" is
    refused there only inside the {"re", "du"} form."""
    def screw(doc, other=X_AXIS):
        return ["common-normal", "--json", json.dumps(doc), "--json", json.dumps(other)]

    def line(doc):
        return ["line-angle", "--json", json.dumps(doc), "--json", json.dumps(Y_AXIS_OFFSET)]

    def matrix(part, rows):
        doc = {"re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], part: rows}
        return ["compose", "--json", json.dumps([{"matrix": doc}])]

    def sample(field, v):
        entry = {"point": [0, 0, 0], "value": [0, 0, 0], field: v}
        return ["fit", "--json", json.dumps({"samples": [entry] * 4})]

    def angle(value):
        return ["compose", "--json", json.dumps([{"axis": LINE_AXIS, "angle": value}])]

    def radius(value):
        doc = {"x": X_AXIS, "y": {"re": [-1, 0, 0], "du": [0, 0, 0]}, "z": Y_AXIS_OFFSET,
               "r": value}
        return ["verify", "thales", "--json", json.dumps(doc)]

    for bad in (True, "1"):
        kind = "bool" if bad is True else "string"
        yield f"screw-re-{kind}", screw({"re": [bad, 0, 0], "du": [0, 1, 0]}), "bad screw document"
        yield f"screw-du-{kind}", screw({"re": [0, 1, 0], "du": [0, 0, bad]}), "bad screw document"
        yield (f"screw-point-{kind}", screw({"point": [0, bad, 0], "direction": [0, 1, 0]}),
               "bad screw document")
        yield (f"screw-direction-{kind}", screw({"point": [0, 0, 1], "direction": [0, bad, 0]}),
               "bad screw document")
        yield f"line-point-{kind}", line({"point": [bad, 0, 0], "direction": [1, 0, 0]}), "bad line document"
        yield (f"line-direction-{kind}", line({"point": [0, 0, 0], "direction": [bad, 0, 0]}),
               "bad line document")
        # A line in the re/du form is parsed as a screw first, as any malformed one is.
        yield f"line-re-{kind}", line({"re": [bad, 0, 0], "du": [0, 0, 0]}), "bad screw document"
        yield (f"matrix-re-{kind}", matrix("re", [[bad, 0, 0], [0, 1, 0], [0, 0, 1]]),
               "bad matrix document")
        yield f"matrix-du-{kind}", matrix("du", [[0, 0, 0], [0, 0, bad], [0, 0, 0]]), "bad matrix document"
        yield f"sample-point-{kind}", sample("point", [bad, 0, 0]), "sample point or value"
        yield f"sample-value-{kind}", sample("value", [0, 0, bad]), "sample point or value"
        yield f"angle-re-{kind}", angle({"re": bad}), "cannot interpret"
        yield f"angle-du-{kind}", angle({"du": bad}), "cannot interpret"
        yield f"radius-re-{kind}", radius({"re": bad, "du": 0}), "cannot interpret"
    yield "angle-bool", angle(True), "cannot interpret"
    yield "radius-bool", radius(False), "cannot interpret"


_NOT_A_NUMBER = list(_not_a_number_cases())


@pytest.mark.parametrize("argv, message", [c[1:] for c in _NOT_A_NUMBER],
                         ids=[c[0] for c in _NOT_A_NUMBER])
def test_boolean_or_numeric_string_where_a_number_belongs_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}"), err


def test_dual_value_text_and_numbers_still_parse(capsys):
    # The text form of a dual value is a string, and a JSON integer a number.
    for value in ("1", "0 + 1eps", 1, {"re": 0, "du": 1}):
        argv = ["compose", "--json", json.dumps([{"axis": LINE_AXIS, "angle": value}])]
        assert run(capsys, *argv)[0] == 0, value


def test_numeric_string_is_refused_before_numpy_is_loaded():
    code, _, err = run_process("screw-axis", "--json", json.dumps({"re": ["1", 0, 0]}),
                               flags=("-X", "importtime"))
    assert code == 2
    assert "numpy" not in err


def test_squared_length_that_underflows_is_named_as_such(capsys):
    # Neither screw is pure dual: |x cross y|^2 = 1e-640 underflows to 0 in the sine's modulus.
    doc = {"x": {"re": [1e-160, 0, 0], "du": [0, 0, 0]},
           "y": {"re": [0, 1e-160, 0], "du": [0, 0, 0]}}
    code, out, err = run(capsys, "verify", "cosines", "--json", json.dumps(doc))
    assert (code, out) == (3, "")
    assert err == ("error: modulus undefined: the squared resultant length is 0 "
                   "(a pure dual, or an underflow)\n")


# -- fuzzed fit documents ------------------------------------------------------

# JSON numbers as json.loads may return them: any float, NaN and the
# infinities included, and integers too large for a float.
_json_numbers = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
)
_json_scalars = st.one_of(_json_numbers, st.booleans(), st.none(), st.text(max_size=3))
# Finite, but huge and tiny ones often enough that sums and products overflow.
_finite_numbers = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0, 1, -1, 5e-324, 1e308, -1e308, 1.7e308]),
)
_vec3 = st.lists(_finite_numbers, min_size=3, max_size=3)
_json_vectors = st.one_of(
    st.lists(_json_numbers, min_size=3, max_size=3),
    st.lists(_json_scalars, max_size=4),
    _json_scalars,
)


@st.composite
def _collinear_points(draw):
    """Points p + t d, so that every fit of them is degenerate."""
    p, d = draw(_vec3), draw(_vec3)
    ts = draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=6))
    return [[pi + t * di for pi, di in zip(p, d)] for t in ts]


@st.composite
def _fit_documents(draw):
    """Well-formed samples, collinear ones, or any mix of wrong types and shapes."""
    kind = draw(st.sampled_from(["finite", "collinear", "malformed"]))
    if kind == "finite":
        return {"samples": [{"point": p, "value": v}
                            for p, v in draw(st.lists(st.tuples(_vec3, _vec3), max_size=6))]}
    if kind == "collinear":
        return {"samples": [{"point": p, "value": draw(_vec3)} for p in draw(_collinear_points())]}
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        entry = {"point": draw(_json_vectors), "value": draw(_json_vectors)}
        if draw(st.integers(0, 9)) == 0:
            entry.pop(draw(st.sampled_from(["point", "value"])))
        entries.append(entry if draw(st.integers(0, 9)) else draw(_json_scalars))
    return {"samples": entries} if draw(st.integers(0, 9)) else draw(_json_scalars)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    _fit_documents(),
    st.sampled_from([["fit"], ["fit", "--format", "json"], ["verify", "delassus"]]),
)
# Finite points whose mean overflows: the centered points held infinities,
# and least squares on them raised LinAlgError with a traceback. Its twin,
# on which the SVD never returned, is test_fit_whose_mean_overflows_exits_3.
@example({"samples": [{"point": p, "value": [0, 0, 0]}
                      for p in ([1e308, 0, 0], [1e308, 0, 1], [1e308, 1, 0])]}, ["fit"])
def test_fuzzed_fit_documents_keep_the_exit_code_contract(doc, command):
    code, _, err = _run_quietly([*command, "--json", json.dumps(doc)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert "max fit residual" in err
    assert "Traceback" not in err


# -- fuzzed verify documents ---------------------------------------------------

_EQUILIBRIUM_THEOREMS = ("cosines", "sines", "anglesum")


@st.composite
def _screw_documents(draw):
    """Mostly a motor or a line; else a pure dual or a document of the wrong type or shape."""
    kind = draw(st.sampled_from(["motor", "motor", "line", "line", "pure-dual", "malformed"]))
    if kind == "motor":
        return {"re": draw(_vec3), "du": draw(_vec3)}
    if kind == "pure-dual":
        return {"re": [0, 0, 0], "du": draw(_vec3)}
    if kind == "line":
        return {"point": draw(_vec3), "direction": draw(_vec3)}
    return draw(st.one_of(
        st.fixed_dictionaries({"re": _json_vectors, "du": _json_vectors}),
        st.fixed_dictionaries({"point": _json_vectors, "direction": _json_vectors}),
        st.fixed_dictionaries({"re": _json_vectors}),
        st.dictionaries(st.sampled_from(["re", "du", "point", "direction", "r"]), _json_scalars),
        _json_scalars,
    ))


_radius_documents = st.one_of(
    _finite_numbers,
    st.fixed_dictionaries({"re": _finite_numbers, "du": _finite_numbers}),
    st.sampled_from(["1", "1 + 0.5eps", "2ε", "-1-1e308eps", "one"]),
    _json_scalars,
)
_moderate_vec3 = st.lists(st.floats(-10, 10), min_size=3, max_size=3)
_UNITS = ([1, 0, 0], [0, 1, 0], [0, 0, -1], [0.6, 0.8, 0], [0, 0.6, -0.8])


def _scaled(k, v):
    return [k * c for c in v]


@st.composite
def _verify_documents(draw):
    """x, y, z and r, often in a relation a theorem needs, sometimes with a field missing.

    The relations: three generic motors of moderate size, y parallel to x,
    y = -x, z a multiple of x, and x, -x and z on the dual sphere of radius r,
    as Thales needs.
    """
    x, y, z = draw(_screw_documents()), draw(_screw_documents()), draw(_screw_documents())
    r = draw(_radius_documents)
    relations = ["none", "generic", "parallel", "antipodal", "scaled", "sphere"]
    relation = draw(st.sampled_from(relations))
    re, du, k = draw(_vec3), draw(_vec3), draw(_finite_numbers)
    if relation == "generic":
        x, y, z = ({"re": draw(_moderate_vec3), "du": draw(_moderate_vec3)} for _ in range(3))
    elif relation == "parallel":
        x, y = {"re": re, "du": du}, {"re": _scaled(k, re), "du": draw(_vec3)}
    elif relation == "antipodal":
        x, y = {"re": re, "du": du}, {"re": _scaled(-1, re), "du": _scaled(-1, du)}
    elif relation == "scaled":
        x, z = {"re": re, "du": du}, {"re": _scaled(k, re), "du": _scaled(k, du)}
    elif relation == "sphere":
        e, f = draw(st.sampled_from(_UNITS)), draw(st.sampled_from(_UNITS))
        m = [a * c - b * d for a, b, c, d in ((du[1], du[2], e[2], e[1]),
                                              (du[2], du[0], e[0], e[2]),
                                              (du[0], du[1], e[1], e[0]))]
        x = {"re": _scaled(k, e), "du": _scaled(k, m)}
        y = {"re": _scaled(-k, e), "du": _scaled(-k, m)}
        z = {"point": draw(_vec3), "direction": f} if k == 1 else {"re": _scaled(k, f)}
        r = k
    doc = {"x": x, "y": y, "z": z, "r": r}
    if draw(st.integers(0, 4)) == 0:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return doc if draw(st.integers(0, 19)) else draw(_json_scalars)


@settings(max_examples=200, deadline=None)
@given(
    _verify_documents(),
    st.sampled_from([*_EQUILIBRIUM_THEOREMS, "petersen-morley", "thales"]),
    st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-30"], ["--tol", "0.5"]]),
)
def test_fuzzed_verify_documents_keep_the_exit_code_contract(doc, theorem, tol):
    code, out, err = _run_quietly(["verify", theorem, *tol, "--json", json.dumps(doc)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert '"passed": false' in out
    assert "Traceback" not in err


# -- fuzzed line-angle documents -----------------------------------------------

def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@st.composite
def _line_pairs(draw):
    """Two line documents: identical, parallel with an offset, near-parallel or
    near-anti-parallel from 1e-15 to 1e-3 rad, generic, or malformed."""
    kind = draw(st.sampled_from(
        ["identical", "parallel-offset", "near-parallel", "near-anti-parallel", "generic",
         "malformed"]
    ))
    if kind == "malformed":
        return [draw(_screw_documents()), draw(_screw_documents())]
    nonzero = _moderate_vec3.filter(lambda v: np.linalg.norm(v) > 1e-3)
    u = _unit(draw(nonzero))
    v = _unit(np.cross(u, np.eye(3)[np.argmin(np.abs(u))]))
    p1, p2 = draw(_moderate_vec3), draw(_moderate_vec3)
    if kind == "identical":
        return [{"point": p1, "direction": u.tolist()}] * 2
    if kind == "parallel-offset":
        e2, p2 = u, (np.asarray(p1) + draw(st.floats(0.1, 10)) * v).tolist()
    elif kind == "generic":
        e2 = _unit(draw(nonzero))
    else:
        a = 10.0 ** draw(st.floats(-15, -3))
        sign = 1.0 if kind == "near-parallel" else -1.0
        e2 = sign * math.cos(a) * u + math.sin(a) * v
    return [{"point": p1, "direction": u.tolist()}, {"point": p2, "direction": e2.tolist()}]


def _sine_between(docs, tol):
    """|e1 x e2| of two documents that are valid lines at ``tol``, else None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lines = [screwalg.line_from_point_direction(d["point"], d["direction"], tol=tol)
                     for d in docs]
    except (ValueError, TypeError, KeyError, OverflowError):
        return None
    return float(np.linalg.norm(np.cross(lines[0].direction, lines[1].direction)))


_PAIR_1E8_FROM_PARALLEL = [X_AXIS, {"point": [0, 0, 1], "direction": [1, 1e-8, 0]}]


@settings(max_examples=200, deadline=None)
@given(
    _line_pairs(),
    st.sampled_from([[], ["--check"]]),
    st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-30"], ["--tol", "0.5"]]),
)
# 1e-8 rad from parallel: the angle from its cosine alone refused it (exit 3).
@example(_PAIR_1E8_FROM_PARALLEL, [], [])
@example(_PAIR_1E8_FROM_PARALLEL, ["--check"], [])
# The rounding of p x e, judged by tol as a pitch, refused it (exit 2).
@example(_PAIR_AT_TOL_0, [], ["--tol", "0"])
def test_fuzzed_line_angle_documents_keep_the_exit_code_contract(docs, check, tol):
    argv = ["line-angle", *check, *tol]
    for doc in docs:
        argv += ["--json", json.dumps(doc)]
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert check and "oracle cross-check failed" in err
    tolerance = float(tol[1]) if tol else 1e-9
    sine = _sine_between(docs, tolerance)
    if sine is not None and sine > 0.0 and sine >= 10 * tolerance:
        # Only the oracle's own verdict may stand in the way.
        assert code in ((0, 1) if check else (0,)), (code, err)


# -- fuzzed common-normal, screw-axis and compose documents ---------------------

_TOLS = st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-30"], ["--tol", "0.5"]])


@st.composite
def _screw_pairs(draw):
    """Two screw documents, often parallel or equal, or one document or three."""
    x, y = draw(_screw_documents()), draw(_screw_documents())
    relation = draw(st.sampled_from(["none", "parallel", "equal", "count"]))
    if relation == "parallel":
        re = draw(_vec3)
        x = {"re": re, "du": draw(_vec3)}
        y = {"re": _scaled(draw(_finite_numbers), re), "du": draw(_vec3)}
    elif relation == "equal":
        y = x
    elif relation == "count":
        return draw(st.lists(_screw_documents(), max_size=3))
    return [x, y]


@settings(max_examples=200, deadline=None)
@given(_screw_pairs(), st.sampled_from(["common-normal", "screw-axis"]), _TOLS)
def test_fuzzed_screw_documents_keep_the_exit_code_contract(docs, command, tol):
    if command == "screw-axis" and len(docs) == 2:
        docs = docs[:1]
    code, _, err = _run_quietly([command, *tol, *_json_args(docs)])
    # Neither command has a residual, so exit 1 never applies.
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err


_unit_lines = st.fixed_dictionaries(
    {"point": _moderate_vec3, "direction": st.sampled_from(_UNITS)}
)
_turns = st.floats(-10, 10)
_moderate_angles = st.one_of(
    _turns,
    st.fixed_dictionaries({"re": _turns, "du": st.floats(-10, 10)}),
)
_generators = _moderate_vec3.filter(lambda v: not any(v) or np.linalg.norm(v) > 1e-3)


@st.composite
def _joints(draw):
    """An axis joint, a matrix joint (a frame or not) or a malformed one."""
    kind = draw(st.sampled_from(["axis", "axis", "frame", "matrix", "malformed"]))
    if kind == "axis":
        return {"axis": draw(st.one_of(_unit_lines, _screw_documents())),
                "angle": draw(st.one_of(_moderate_angles, _radius_documents))}
    if kind == "frame":
        b = screwalg.DualVec3(draw(_generators), draw(_moderate_vec3))
        frame = screwalg.exp_so3d(b)
        return {"matrix": {"re": frame.re.tolist(), "du": frame.du.tolist()}}
    if kind == "matrix":
        return {"matrix": {"re": [draw(_vec3) for _ in range(3)],
                           "du": [draw(_vec3) for _ in range(3)]}}
    return draw(st.one_of(
        st.dictionaries(st.sampled_from(["axis", "angle", "matrix"]), _json_scalars),
        _json_scalars,
    ))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_joints(), max_size=4), _json_scalars), _TOLS)
@example([{"axis": X_AXIS, "angle": 1.157920892373162e77}], [])  # angle ** 4 overflows
def test_fuzzed_compose_documents_keep_the_exit_code_contract(chain, tol):
    code, _, err = _run_quietly(["compose", *tol, "--json", json.dumps(chain)])
    # compose has no residual, so exit 1 never applies.
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fixed_dictionaries({"axis": _unit_lines, "angle": _moderate_angles}), max_size=4),
    _TOLS,
)
def test_chains_of_exactly_unit_axes_pass_at_any_tol(chain, tol):
    # Only the directions are the caller's to judge, and they are unit to the last bit.
    code, _, err = _run_quietly(["compose", *tol, "--json", json.dumps(chain)])
    assert (code, err) == (0, "")
