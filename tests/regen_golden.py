"""Rewrite the golden outputs that tests/test_golden_outputs.py checks.

Each scenario in GOLDEN_SCENARIOS (every scenarios/*.yaml) is run
through ``run_scenario`` and its summary (less ``generated_at``) and
every trace or sweep column are stored in tests/golden/<scenario>.json.
Regenerate only when a change is meant to move these outputs, and say
why in CHANGES.md.  A stored
float that the new run matches within RTOL and ATOL, the golden test's
own tolerances, is kept as stored, so rounding that differs between
hosts rewrites nothing.  A file is rewritten only when a value moved
beyond them, and each rewrite prints those values as "path: new !=
old".  With names given, only those scenarios are regenerated:

    PYTHONPATH=src python tests/regen_golden.py [SCENARIO ...]
"""
from __future__ import annotations

import json
import math
import pathlib
import sys
import tempfile

from darkqubit.cli import run_scenario
from darkqubit.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
# Every checked-in scenario, so that one without a golden file fails the
# golden test.
GOLDEN_SCENARIOS = tuple(sorted(path.stem for path in
                                (ROOT / "scenarios").glob("*.yaml")))
# Floats match to these; ints, strings, booleans and hashes exactly.
RTOL, ATOL = 1e-9, 1e-12


def record(name: str, out_dir) -> dict:
    """Summary and table columns of one scenario run into out_dir.

    Tables are written as JSON, so columns keep full float precision.
    """
    scenario = load_scenario(ROOT / "scenarios" / f"{name}.yaml")
    summary = run_scenario(scenario, out_dir=str(out_dir), fmt="json")
    summary = {k: v for k, v in summary.items() if k != "generated_at"}
    tables = {}
    for key in ("trace_files", "sweep_files"):
        for file in summary["results"].get(key, []):
            with open(pathlib.Path(out_dir) / file, encoding="utf-8") as fh:
                tables[file] = json.load(fh)["columns"]
    return {"summary": summary, "tables": tables}


def mismatches(got, want, path="", rtol=RTOL, atol=ATOL) -> list[str]:
    """Every value of got that differs from want, floats beyond rtol and
    atol, as "path: got != want"; a key only one side has stands
    against (none)."""
    def inner(g, w, where):
        return mismatches(g, w, where, rtol, atol)

    if isinstance(want, dict) and isinstance(got, dict):
        return ([f"{path}.{key}: {got[key]!r} != (none)"
                 for key in sorted(got.keys() - want.keys())]
                + [f"{path}.{key}: (none) != {want[key]!r}"
                   for key in sorted(want.keys() - got.keys())]
                + [m for key in want if key in got
                   for m in inner(got[key], want[key], f"{path}.{key}")])
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in inner(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def keep_matching(got, want):
    """got with every part that matches want (as mismatches judges it)
    replaced by want's stored value."""
    if not mismatches(got, want):
        return want
    if isinstance(want, dict) and isinstance(got, dict):
        return {key: keep_matching(value, want[key]) if key in want
                else value for key, value in got.items()}
    if (isinstance(want, list) and isinstance(got, list)
            and len(got) == len(want)):
        return [keep_matching(g, w) for g, w in zip(got, want)]
    return got


def main(names) -> int:
    unknown = sorted(set(names) - set(GOLDEN_SCENARIOS))
    if unknown:
        print(f"not golden scenarios: {unknown}", file=sys.stderr)
        return 2
    for name in names or GOLDEN_SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            golden = record(name, tmp)
        path = GOLDEN_DIR / f"{name}.json"
        old_text = path.read_text(encoding="utf-8") if path.exists() else ""
        old = json.loads(old_text) if old_text else {}
        text = json.dumps(keep_matching(golden, old), indent=1,
                          sort_keys=True) + "\n"
        if text == old_text:
            continue
        path.write_text(text, encoding="utf-8")
        print(path)
        for line in mismatches(golden, old):
            print(f"  {line}")  # new != old
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
