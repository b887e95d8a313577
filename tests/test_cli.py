"""Golden tests for the command-line interface and its exit-code contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import screwalg
from screwalg.cli import main

X_AXIS = {"point": [0, 0, 0], "direction": [1, 0, 0]}
Y_AXIS_OFFSET = {"point": [0, 0, 1], "direction": [0, 1, 0]}
Z_AXIS_OFFSET = {"point": [1, 0, 0], "direction": [0, 0, 1]}


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

    def test_nearly_parallel_lines_refused_without_traceback(self, capsys):
        # 2e-9 rad apart: past the oracle's parallel guard, and a crash there before.
        a = 2e-9
        other = {"point": [0.1, 0.4, -0.3], "direction": [math.cos(a), math.sin(a), 0.0]}
        code, out, err = run(
            capsys,
            "line-angle",
            "--json", json.dumps({"point": [0.3, -0.2, 0.5], "direction": [1, 0, 0]}),
            "--json", json.dumps(other),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_check_mode_agrees_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "line-angle", "--check",
            "--json", json.dumps(X_AXIS),
            "--json", json.dumps(Y_AXIS_OFFSET),
        )
        assert code == 0
        assert "Theta" in out

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


def run_process(*argv, flags=()):
    """The CLI in a fresh interpreter, so that warnings reach stderr as a user sees them.

    ``flags`` go to the interpreter, e.g. ``("-O",)`` to strip ``assert``s.
    """
    src = str(Path(screwalg.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "screwalg.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOverflow:
    def test_screw_whose_modulus_overflows_exits_3(self):
        motor = {"re": [1e200, 0, 0], "du": [0, 1e200, 0]}
        code, out, err = run_process("screw-axis", "--json", json.dumps(motor))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_screw_whose_modulus_overflows_exits_3_under_optimize(self):
        # The finiteness tests are code, not asserts, so -O keeps them.
        motor = {"re": [1e200, 0, 0], "du": [0, 1e200, 0]}
        code, out, err = run_process("screw-axis", "--json", json.dumps(motor), flags=("-O",))
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
