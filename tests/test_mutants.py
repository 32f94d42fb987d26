"""The mutation probe's table (`tests/mutants.py`) still fits the source.

The probe itself runs the whole suite once per mutant, in minutes; this checks
in a moment that each mutant's line is still in its file exactly once, so a
change that edits a mutated line fails here first.
"""

from __future__ import annotations

from mutants import MUTANTS, ROOT


def test_each_mutated_line_occurs_exactly_once_in_its_file():
    misfits = {}
    for name, (filename, line, mutated) in MUTANTS.items():
        count = (ROOT / "src" / "delegauth" / filename).read_text().count(line)
        if count != 1 or mutated == line:
            misfits[name] = count
    assert misfits == {}
