"""Checked-in outputs of the evolve, error-budget, gates, sense and
compare protocols.

Each scenario is run afresh and every summary value and table column is
compared with tests/golden/<scenario>.json: ints, strings, booleans and
the scenario hash exactly, floats to rtol 1e-9 and atol 1e-12.
tests/regen_golden.py rewrites the golden files.
"""
from __future__ import annotations

import json
import math

import pytest

from regen_golden import GOLDEN_DIR, GOLDEN_SCENARIOS, record

RTOL, ATOL = 1e-9, 1e-12


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want
                for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_outputs_match_golden(name, tmp_path):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        want = json.load(fh)
    assert _mismatches(record(name, tmp_path), want) == []
