"""Scenario-driven command line front end.

Subcommands mirror the library modules one to one; every run is described
by a scenario file, and flags only override bookkeeping (seed, output
directory, trace format).  A JSON
summary is always written; time traces and sweep tables go to CSV (or
JSON with --format json) next to it, each with a small manifest naming
axes and units.  Outputs are written to a temporary file and renamed
into place, so a failed run never leaves a partial artifact behind.

Exit codes: 0 success, 2 scenario/validation problems, 3 numerical
failure (a solver or protection check gave an unusable result).
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
from .budget import total_budget
from .dynamics import (NumericalError, SimulationTrace, evolve_unitary,
                       expectation, overlap_population)
from .gates import (microwave_sigma_y, prepare_initial_state, protected_report,
                    raman_sigma_x)
from .noise import evolve_noisy
from .scenario import (Scenario, ScenarioError, build_construction,
                       build_noise, input_unit, load_scenario, sense_variant)
from .sensing import (coherence_comparison, frequency_window, run_ac_sensing,
                      run_hyperfine_sensing)
from .subspace import ProtectionError

__all__ = ["main", "run_scenario", "emit_plot_data"]


# ------------------------------------------------------------- file plumbing


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
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
                   units: dict | None = None, label: str = "",
                   fmt: str = "csv") -> list[str]:
    """Write one trace/sweep table plus its manifest; returns the paths."""
    units = units or {}
    manifest = {
        "axes": list(columns),
        "units": {k: units.get(k, "") for k in columns},
        "label": label,
        "format": fmt,
    }
    written = []
    if fmt == "json":
        data_path = os.path.join(out_dir, f"{name}.json")
        payload = {k: [float(v) for v in np.asarray(vals).ravel()]
                   for k, vals in columns.items()}
        _write_json(data_path, {"columns": payload, **manifest})
        written.append(data_path)
    else:
        data_path = os.path.join(out_dir, f"{name}.csv")
        _atomic_write(data_path, _csv_text(columns))
        manifest_path = os.path.join(out_dir, f"{name}.manifest.json")
        _write_json(manifest_path, manifest)
        written += [data_path, manifest_path]
    return written


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
        return _json_safe(dataclasses.asdict(value))
    return value


# ------------------------------------------------------------ trace helpers


def _trace_columns(trace: SimulationTrace) -> tuple[dict, dict]:
    columns = {"time": trace.times}
    units = {"time": "s"}
    for key, values in trace.populations.items():
        columns[f"pop_{key}"] = values
        units[f"pop_{key}"] = ""
    for key, values in trace.coherences.items():
        columns[f"coh_{key}"] = np.real(values)
        units[f"coh_{key}"] = ""
    return columns, units


def _state_table(scheme, vectors) -> dict:
    labels = [f"{name}:m={m}" for name, m in scheme.states()]
    out = {}
    for k, vec in enumerate(vectors):
        entry = {}
        for label, amp in zip(labels, np.asarray(vec)):
            if abs(amp) > 1e-12:
                entry[label] = [float(np.real(amp)), float(np.imag(amp))]
        out[f"D{k + 1}"] = entry
    return out


# ---------------------------------------------------------------- protocols
#
# A runner takes a scenario and returns (results, tables): results is
# anything _json_safe takes, and tables maps a results key ("trace_files",
# "sweep_files") to the (name, columns, units) of one table.  The gates,
# sense and compare sections are their callee's keyword arguments; the
# callee's defaults fill what the scenario leaves unset.


def _run_analyze(scenario):
    con = build_construction(scenario)
    report = protected_report(con)
    window = frequency_window(construction=con)
    results = {
        "dark_eigenvalue": report.dark_eigenvalue,
        "gap": report.gap,
        "jz_residual": report.jz_residual,
        "degeneracy_residual": report.degeneracy_residual,
        "dark_states": _state_table(con.scheme, report.dark_states),
        "dropped_terms": len(con.dropped),
        "frequency_window": window,
    }
    return results, {}


def _initial_state(params, report):
    name = params["initial"]
    if name == "superposition":
        return (report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
    return prepare_initial_state(report, name)


def _run_evolve(scenario):
    con = build_construction(scenario)
    report = protected_report(con)
    params = scenario.params
    times = np.linspace(0.0, params["duration"], params.get("points", 400))
    psi0 = _initial_state(params, report)
    noise = build_noise(scenario)
    basis = np.column_stack(report.dark_states[:2])
    if noise is not None:
        rho = evolve_noisy(con.ip, psi0, noise, con.scheme.zeeman_generator(),
                           times, n_traj=params.get("n_traj", 256))
        p1 = np.einsum("i,tij,j->t", basis[:, 0].conj(), rho,
                       basis[:, 0]).real
        p2 = np.einsum("i,tij,j->t", basis[:, 1].conj(), rho,
                       basis[:, 1]).real
        coh = np.abs(np.einsum("i,tij,j->t", basis[:, 0].conj(), rho,
                               basis[:, 1]))
        trace = SimulationTrace(times=times,
                                populations={"D1": p1, "D2": p2},
                                coherences={"pair": coh})
    else:
        states = evolve_unitary(con.ip, psi0, times)
        upper_pop = expectation(states,
                                con.scheme.projector(con.upper)).real
        trace = SimulationTrace(
            times=times,
            populations={
                "D1": overlap_population(states, basis[:, 0]),
                "D2": overlap_population(states, basis[:, 1]),
                "upper": upper_pop})
    results = {
        "final": {k: float(v[-1]) for k, v in trace.populations.items()},
        "noise_averaged": noise is not None,
    }
    return results, {"trace_files": ("evolve_trace", *_trace_columns(trace))}


def _run_error_budget(scenario):
    params = scenario.params
    budget = total_budget(**params)
    if not scenario.sweep:
        return budget, {}
    field = scenario.sweep["field"]
    key = field.removeprefix("error_budget.")
    rows = {field: []}
    units = {field: input_unit("error-budget", key),
             "gap_shift_total": "rad/s", "t1_limit": "s", "t2_limit": "s"}
    for value in scenario.sweep["values"]:
        swept = total_budget(**dict(params, **{key: value}))
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
    return budget, {"sweep_files": ("budget_sweep", rows, units)}


def _run_gates(scenario):
    params = dict(scenario.params)
    gate = {"microwave": microwave_sigma_y,
            "raman": raman_sigma_x}[params.pop("gate")]
    return gate(con=build_construction(scenario), **params), {}


def _run_sense(scenario):
    con = build_construction(scenario)
    params = dict(scenario.params)
    if sense_variant(params.pop("variant", None),
                     scenario.construction) == "hyperfine":
        # Required by the format; the drive sits at the stretched resonance.
        del params["signal_freq"]
        report, trace = run_hyperfine_sensing(con, **params)
    else:
        report, trace = run_ac_sensing(con, seed=scenario.seed,
                                       noise=build_noise(scenario), **params)
    return report, {"trace_files": ("sense_trace", *_trace_columns(trace))}


def _run_compare(scenario):
    return coherence_comparison(build_construction(scenario),
                                build_noise(scenario), **scenario.params), {}


_RUNNERS = {
    "analyze": _run_analyze,
    "evolve": _run_evolve,
    "error-budget": _run_error_budget,
    "gates": _run_gates,
    "sense": _run_sense,
    "compare": _run_compare,
}


def run_scenario(scenario: Scenario, out_dir: str = ".", fmt: str = "csv",
                 threads: int = 1) -> dict:
    """Execute a parsed scenario; returns the summary written to disk.

    Every output file is written here: the runner's tables first, then
    summary.json.  threads is accepted for compatibility and changes
    nothing.
    """
    results, tables = _RUNNERS[scenario.protocol](scenario)
    results = _json_safe(results)
    for key, (name, columns, units) in tables.items():
        files = emit_plot_data(out_dir, name, columns, units,
                               label=scenario.label, fmt=fmt)
        results[key] = [os.path.basename(f) for f in files]
    summary = {
        "version": __version__,
        "protocol": scenario.protocol,
        "label": scenario.label,
        "seed": scenario.seed,
        "scenario_hash": scenario.hash(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
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
    for name in _RUNNERS:
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: summary[k] for k in
                      ("protocol", "scenario_hash", "seed")}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
