"""Golden digests of the CLI output.

``golden.json`` lists commands with the exit code and the SHA-256 of the
stdout they produced when pinned.  Every subcommand runs in text, json
and csv (plus ``enumerate --stream`` in text and json) at
F in {1, 2, 7, 12, 30, 45, 57, 60}, ranks 0..3 and
``verify --max-frobenius 12``; at F=57, the largest family here, the
heavy commands run in one format each to keep the file fast.  A digest
may change only with a deliberate, documented change of output format.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from satsemi.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
SUBCOMMANDS = sorted({entry["argv"][0] for entry in GOLDEN})


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_output_matches_golden_digest(command):
    mismatches = []
    for entry in GOLDEN:
        if entry["argv"][0] != command:
            continue
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(entry["argv"]))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["sha256"]):
            mismatches.append(" ".join(entry["argv"]))
    assert not mismatches, mismatches
