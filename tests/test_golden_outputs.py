"""Checked-in outputs of the analyze, evolve, error-budget, gates, sense
and compare protocols.

Each scenario is run afresh and every summary value and table column is
compared with tests/golden/<scenario>.json by regen_golden.mismatches:
ints, strings, booleans and the scenario hash exactly, floats to rtol
1e-9 and atol 1e-12.  tests/regen_golden.py rewrites the golden files.
"""
from __future__ import annotations

import json

import pytest

from regen_golden import GOLDEN_DIR, GOLDEN_SCENARIOS, mismatches, record


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_outputs_match_golden(name, tmp_path):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        want = json.load(fh)
    assert mismatches(record(name, tmp_path), want) == []
