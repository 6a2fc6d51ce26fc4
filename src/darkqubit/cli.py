"""Scenario-driven command line front end.

Each subcommand runs one library function on a scenario file, through
one path (_run): analyze runs sensing.analyze_construction, evolve
gates.evolve_dark_pair, error-budget budget.total_budget (again at each
point of a sweep), gates gates.microwave_sigma_y or gates.raman_sigma_x,
sense sensing.run_ac_sensing or sensing.run_hyperfine_sensing, and
compare sensing.coherence_comparison.  Flags only override bookkeeping
(seed, output directory, trace format).  Each run writes summary.json
and one file per time trace or sweep table next to it, as CSV (or JSON
with --format json); the summary lists the table files under its
results and gives each column's unit under "units".  Outputs are written
to a temporary file and renamed into place, so a failed run never leaves
a partial artifact behind.

Exit codes: 0 success, 2 scenario/validation problems, 3 numerical
failure (a solver or protection check gave an unusable result).  An
n_traj without a noise section is a validation problem, and a noisy run
on a construction whose interaction picture keeps harmonic terms (such
as pol_leak) exits 2, since trajectories need a static one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .dynamics import NumericalError, SimulationTrace
from .scenario import (PROTOCOLS, Scenario, ScenarioError,
                       build_construction, build_noise, call, input_unit,
                       load_scenario, select)
from .subspace import ProtectionError

__all__ = ["main", "run_scenario", "emit_plot_data"]


# ------------------------------------------------------------- file plumbing


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a renamed temporary file; the directory
    must exist."""
    directory = os.path.dirname(path) or "."
    # Mode 0o666 less the umask, as open() would give; mkstemp's 0o600
    # would survive the rename.
    tmp = os.path.join(directory,
                       f".tmp-{os.getpid()}-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(columns: dict[str, np.ndarray]) -> str:
    """Header line, then one %.12g row per index of equal-length columns."""
    arrays = [np.asarray(col, dtype=float) for col in columns.values()]
    lengths = {name: len(col) for name, col in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    # One % over the row-major table formats each value as f"{v:.12g}".
    table = np.column_stack(arrays) if arrays else np.empty((0, 0))
    row = ",".join(["%.12g"] * len(arrays)) + "\n"
    return (",".join(columns) + "\n"
            + (row * len(table)) % tuple(table.ravel().tolist()))


def emit_plot_data(out_dir: str, name: str, columns: dict,
                   fmt: str = "csv") -> str:
    """Write one trace/sweep table as <name>.csv or, with fmt "json",
    <name>.json holding {"columns": ...}; returns its path.

    out_dir is created if missing.  The columns' units are not written
    here: run_scenario gives them in summary.json.
    """
    os.makedirs(out_dir or ".", exist_ok=True)
    if fmt == "json":
        path = os.path.join(out_dir, f"{name}.json")
        _write_json(path, {"columns": {
            k: [float(v) for v in np.asarray(vals).ravel()]
            for k, vals in columns.items()}})
    else:
        path = os.path.join(out_dir, f"{name}.csv")
        _atomic_write(path, _csv_text(columns))
    return path


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.integer,)):
        return int(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Field by field: dataclasses.asdict would deep-copy each first.
        return {f.name: _json_safe(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


# ------------------------------------------------------------ trace helpers


def _trace_columns(trace: SimulationTrace) -> dict:
    columns = {"time": trace.times}
    for key, values in trace.populations.items():
        columns[f"pop_{key}"] = values
    for key, values in trace.coherences.items():
        columns[f"coh_{key}"] = np.real(values)
    return columns


# ---------------------------------------------------------------- protocols


def _budget_sweep(scenario):
    """(name, columns, units) of the error budget at each swept value."""
    field = scenario.sweep["field"]
    key = field.removeprefix("error_budget.")
    rows = {field: []}
    units = {field: input_unit(key),
             "gap_shift_total": "rad/s", "t1_limit": "s", "t2_limit": "s"}
    for value in scenario.sweep["values"]:
        swept = call("error_budget", None,
                     dict(scenario.params, **{key: value}))
        rows[field].append(value)
        flat = {name: getattr(swept, name)
                for name in ("gap_shift_total", "t1_limit", "t2_limit")}
        for mech in swept.mechanisms:
            flat[f"{mech.mechanism}.excited_population"] = \
                mech.excited_population
            flat[f"{mech.mechanism}.gap_shift"] = mech.gap_shift
            units[f"{mech.mechanism}.gap_shift"] = "rad/s"
        for name, v in flat.items():
            rows.setdefault(name, []).append(
                v if math.isfinite(v) else math.nan)
    return "budget_sweep", rows, units


def _run(scenario):
    """(results, tables) of the protocol section's function (scenario.call),
    given the section's keys and whichever of the construction and noise
    it takes.

    results is anything _json_safe takes, and tables maps a results key
    ("trace_files", "sweep_files") to the (name, columns, units) of one
    table; a column that units leaves out is dimensionless.  A function
    that returns (results, trace) gives the <protocol>_trace table, and a
    sweep the budget_sweep table.
    """
    name = scenario.protocol.replace("-", "_")
    given = dict(scenario.params)
    if scenario.construction is not None:
        given["con"] = build_construction(scenario)
    given["noise"] = build_noise(scenario)
    results = call(name, select(name, scenario.params, scenario.construction),
                   given)
    tables = {}
    if isinstance(results, tuple):
        results, trace = results
        tables["trace_files"] = (f"{scenario.protocol}_trace",
                                 _trace_columns(trace), {"time": "s"})
    if scenario.sweep:
        tables["sweep_files"] = _budget_sweep(scenario)
    return results, tables


def run_scenario(scenario: Scenario, out_dir: str = ".", fmt: str = "csv",
                 threads: int = 1) -> dict:
    """Execute a parsed scenario; returns the summary written to disk.

    Every output file is written here: the protocol's tables first, then
    summary.json, whose "units" maps each table file to its columns'
    units.  threads is accepted for compatibility and changes nothing.
    """
    results, tables = _run(scenario)
    results = _json_safe(results)
    os.makedirs(out_dir or ".", exist_ok=True)
    units = {}
    for key, (name, columns, table_units) in tables.items():
        file = os.path.basename(emit_plot_data(out_dir, name, columns, fmt))
        results[key] = [file]
        units[file] = {k: table_units.get(k, "") for k in columns}
    summary = {
        "version": __version__,
        "protocol": scenario.protocol,
        "label": scenario.label,
        "seed": scenario.seed,
        "scenario_hash": scenario.hash(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "units": units,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


# ----------------------------------------------------------------- argparse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkqubit",
        description="Protected-qubit constructions, error budgets, gates "
                    "and AC sensing, driven by scenario files.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PROTOCOLS:
        article = "an" if name[0] in "aeiou" else "a"
        p = sub.add_parser(name, help=f"run {article} {name} scenario")
        p.add_argument("--scenario", required=True,
                       help="path to the scenario YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario master seed")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trace/table output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if scenario.protocol != args.command:
            raise ScenarioError(
                [f"scenario.protocol: {scenario.protocol!r} does not match "
                 f"the {args.command!r} subcommand"])
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        summary = run_scenario(scenario, out_dir=args.out, fmt=args.format)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (NumericalError, ProtectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, NotImplementedError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: summary[k] for k in
                      ("protocol", "scenario_hash", "seed")}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
