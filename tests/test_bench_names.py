"""Every name the traced benchmark pass wraps still exists in the program.

bench/spans.py wraps functions by name to build the per-layer metrics
that BENCHMARK.json declares; a renamed or deleted target would silently
drop a metric from the traced result line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_every_traced_name_is_present():
    rec = spans.Recorder()
    try:
        rec.install(expected=spans.needed_spans())
        assert rec.absent == set()
    finally:
        rec.uninstall()
