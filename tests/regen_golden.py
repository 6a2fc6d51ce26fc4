"""Rewrite the golden outputs that tests/test_golden_outputs.py checks.

Each scenario in GOLDEN_SCENARIOS is run through ``run_scenario`` and its
summary (less ``generated_at``) and every trace or sweep column are
stored in tests/golden/<scenario>.json.  Regenerate only when a change
is meant to move these outputs, and say why in CHANGES.md.  With names
given, only those scenarios are rewritten:

    PYTHONPATH=src python tests/regen_golden.py [SCENARIO ...]
"""
from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from darkqubit.cli import run_scenario
from darkqubit.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_SCENARIOS = ("gates_microwave", "gates_raman", "sense_optical_noise",
                    "sense_hyperfine", "compare", "evolve_static",
                    "evolve_quasi_static", "evolve_ou", "evolve_pol_leak",
                    "error_budget_sweep")


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


def main(names) -> int:
    unknown = sorted(set(names) - set(GOLDEN_SCENARIOS))
    if unknown:
        print(f"not golden scenarios: {unknown}", file=sys.stderr)
        return 2
    for name in names or GOLDEN_SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            golden = record(name, tmp)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
