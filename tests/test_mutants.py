"""The mutation probe's table (`tests/mutants.py`) still fits the source and the suite.

The probe itself runs pytest once or twice per mutant, in minutes; this checks
in a moment that each mutant's line is still in its file exactly once, so a
change that edits a mutated line fails here first, and that the test each
mutant names is still in the suite. The probe leaves this file out of its runs
on mutated copies, where the first check always fails.
"""

from __future__ import annotations

import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_mutated_line_occurs_exactly_once_in_its_file():
    misfits = {}
    for name, (filename, line, mutated, _test) in MUTANTS.items():
        count = (ROOT / "src" / "delegauth" / filename).read_text().count(line)
        if count != 1 or mutated == line:
            misfits[name] = count
    assert misfits == {}


def test_each_mutant_names_a_test_of_the_suite():
    tests = sorted({test for *_, test in MUTANTS.values()})
    # this file fails on every mutated copy, so a test of it would kill every mutant
    assert [test for test in tests if test.startswith("tests/test_mutants.py::")] == []
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, capture_output=True, text=True,
    )
    collected = sorted(line for line in done.stdout.splitlines() if "::" in line)
    assert (done.returncode, collected) == (0, tests)
