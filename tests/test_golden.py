"""Replay the golden CLI matrix (``tests/golden``) against its record.

On the recorded numpy build and CPU feature set every byte must match;
elsewhere text and integers must match and floats agree to rtol 1e-9.
Regenerate with ``PYTHONPATH=src python tests/golden/regen.py`` after an
intended output change; it prints every moved cell.
"""

import json

import pytest

from golden.regen import CASES, GOLDEN, diff, environment, run_case

RECORD = json.loads(GOLDEN.read_text())
RTOL = 0.0 if RECORD["environment"] == environment() else 1e-9


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_the_golden_record(name, tmp_path):
    assert name in RECORD["cases"], f"{name} is not recorded; run regen.py"
    moved = diff(name, RECORD["cases"][name], run_case(CASES[name], tmp_path),
                 RTOL)
    assert not moved, "\n".join(moved)
