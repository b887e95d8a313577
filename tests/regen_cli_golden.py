"""Regenerate tests/cli_golden.json from the argv of each of its cases.

    python tests/regen_cli_golden.py

Every case keeps its name and argv; its exit code and standard output are
rewritten from one in-process run of ``screwalg.cli.main``, imported from
this checkout's ``src``, under the environment test_cli_golden.py fixes:
COLUMNS=80 and SCREWALG_TOL unset. The names of the cases whose exit code or
output changed are printed, one a line. Run it only for a change that is
meant to move output bytes, then review the diff case by case; on unchanged
code it leaves the file byte-identical and prints nothing.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from screwalg.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "cli_golden.json"


def regenerate(cases: dict) -> dict:
    os.environ["COLUMNS"] = "80"
    os.environ.pop("SCREWALG_TOL", None)
    fresh = {}
    for name, case in cases.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(case["argv"]))
        fresh[name] = {"argv": case["argv"], "exit": code, "stdout": out.getvalue()}
    return fresh


if __name__ == "__main__":
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fresh = regenerate(cases)
    for name in fresh:
        if fresh[name] != cases[name]:
            print(name)
    GOLDEN.write_text(json.dumps(fresh, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
