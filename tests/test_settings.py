"""The README's knob table lists exactly the knobs the code reads."""

from __future__ import annotations

import re
from pathlib import Path

from repro import settings

README = Path(__file__).resolve().parent.parent / "README.md"

#: Knobs read only by ``benchmarks/`` and ``tests/``, never by ``src/``.
OUTSIDE_SRC = {"REPRO_BENCH_SCALE", "REPRO_BENCH_SMOKE", "REPRO_TEST_TIMEOUT_S"}


def test_readme_knob_table_matches_settings():
    rows = re.findall(r"^\| `(REPRO_\w+)` \|", README.read_text(), flags=re.M)
    assert len(rows) == len(set(rows)), "a knob is listed twice"
    assert set(rows) == set(settings.SETTINGS) | OUTSIDE_SRC
