"""Byte-exact CLI output on pinned documents.

``cli_golden.json`` maps a case name to its argv, exit code and standard
output, including every subcommand's ``--help``. A change to any of these
bytes changes what users see, so it must be deliberate: regenerate the file
in the same commit with ``python tests/regen_cli_golden.py`` and say why
each case moved.
"""

import json
from pathlib import Path

import pytest

from screwalg.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    # argparse wraps help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SCREWALG_TOL", raising=False)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_and_exit_code_are_pinned(capsys, case):
    expected = GOLDEN[case]
    code = main(list(expected["argv"]))
    out = capsys.readouterr().out
    assert code == expected["exit"]
    assert out == expected["stdout"]


def test_verify_reads_its_document_from_a_positional_file(tmp_path, capsys):
    expected = GOLDEN["verify-cosines:text"]
    argv = expected["argv"]
    path = tmp_path / "doc.json"
    path.write_text(argv[argv.index("--json") + 1])
    code = main(["verify", "cosines", str(path)])
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]
