"""Output checks, one per job type.

Each check takes the job and its output and returns a list of problems;
an empty list passes.  Two kinds of bound are used:

* invariants that hold for every seed: populations in [0, 1] with
  D1 + D2 <= 1, the dark pair's initial coherence 1/2, a zero dark
  eigenvalue and a Jz residual below 1e-13;
* the acceptance criteria's own bounds: Raman rate within 10%, hyperfine
  coefficient within 1% of sqrt(3)/8, Lindblad T1 within 20%, and the
  detuned hyperfine transfer against 1/(1 + (delta/2r)^2).

Criterion 10's golden-rule bound (30%) is statistical: at the criterion's
trajectory counts the fitted ratio scatters by sigma ~ 0.2 from seed to
seed, so it misses the bound on some seeds with no defect in the program.
``golden_rule_miss`` evaluates it and the runner reports the misses on
every run, next to (not inside) the failure count.
"""

from __future__ import annotations

import math
import os

import numpy as np

POP_TOL = 1e-9
JZ_RESIDUAL_MAX = 1e-13
DARK_EIGENVALUE_RTOL = 1e-12
HYPERFINE_COEFF = math.sqrt(3.0) / 8.0
GOLDEN_RULE_BOUND = 0.3


def _table(out_dir: str, name: str) -> dict[str, np.ndarray]:
    path = os.path.join(out_dir, name + ".csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {key: data[:, i] for i, key in enumerate(header)}


def _populations(pops: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for key, values in pops.items():
        if values.min() < -POP_TOL or values.max() > 1.0 + POP_TOL:
            problems.append(f"{key} outside [0, 1]: "
                            f"[{values.min():.3g}, {values.max():.3g}]")
    if "D1" in pops and "D2" in pops:
        total = (pops["D1"] + pops["D2"]).max()
        if total > 1.0 + POP_TOL:
            problems.append(f"D1 + D2 reaches {total:.12g} > 1")
    return problems


def _trace_populations(output: dict, name: str) -> tuple[dict, list[str]]:
    cols = _table(output["out_dir"], name)
    pops = {key[4:]: v for key, v in cols.items() if key.startswith("pop_")}
    return cols, _populations(pops)


def _within(label: str, value: float, target: float, rtol: float) -> list[str]:
    if not abs(value / target - 1.0) < rtol:
        return [f"{label} {value:.6g} not within {rtol:.0%} of {target:.6g}"]
    return []


def _results(output: dict) -> dict:
    return output["summary"]["results"]


def check_analyze(job, output) -> list[str]:
    res = _results(output)
    problems = []
    limit = DARK_EIGENVALUE_RTOL * job.args["omega"]
    if not abs(res["dark_eigenvalue"]) <= limit:
        problems.append(f"dark eigenvalue {res['dark_eigenvalue']:.3g} "
                        f"exceeds {limit:.3g}")
    if not res["jz_residual"] < JZ_RESIDUAL_MAX:
        problems.append(f"Jz residual {res['jz_residual']:.3g} >= "
                        f"{JZ_RESIDUAL_MAX:.0e}")
    return problems


def _initial_split(cols: dict, initial: str) -> list[str]:
    if initial != "superposition":
        return []
    d1, d2 = cols["pop_D1"][0], cols["pop_D2"][0]
    if abs(d1 - 0.5) > POP_TOL or abs(d2 - 0.5) > POP_TOL:
        return [f"initial superposition populations {d1:.12g}, {d2:.12g}"]
    return []


def check_evolve(job, output) -> list[str]:
    cols, problems = _trace_populations(output, "evolve_trace")
    return problems + _initial_split(cols, job.args.get("initial", ""))


def check_evolve_static(job, output) -> list[str]:
    """The dark pair is stationary: D1 + D2 stays 1 throughout."""
    cols, problems = _trace_populations(output, "evolve_trace")
    dev = np.abs(cols["pop_D1"] + cols["pop_D2"] - 1.0).max()
    if dev > POP_TOL:
        problems.append(f"dark-pair population drifts by {dev:.3g}")
    return problems + _initial_split(cols, job.args.get("initial", ""))


def check_evolve_noise(job, output) -> list[str]:
    cols, problems = _trace_populations(output, "evolve_trace")
    coherence = cols["coh_pair"][0]
    if abs(coherence - 0.5) > POP_TOL:
        problems.append(f"initial pair coherence {coherence:.12g} != 1/2")
    return problems


def check_error_budget_sweep(job, output) -> list[str]:
    cols = _table(output["out_dir"], "budget_sweep")
    problems = []
    axis = cols["error_budget.delta_b"]
    if len(axis) != job.args["num"] or not np.all(np.diff(axis) > 0):
        problems.append(f"sweep axis has {len(axis)} rows or is not "
                        "ascending")
    gap = cols["gap_shift_total"]
    if not (np.all(np.isfinite(gap)) and np.all(gap >= 0)):
        problems.append("gap_shift_total not finite and nonnegative")
    if not _results(output)["t1_limit"] > 0:
        problems.append("t1_limit not positive")
    return problems


def check_error_budget_cross_check(job, output) -> list[str]:
    mech = {m["mechanism"]: m["cross_check"]
            for m in _results(output)["mechanisms"]}
    magnetic = mech["magnetic-offset"]
    amplitude = mech["relative-amplitude"]
    return (_within("magnetic gap vs refined closed form",
                    magnetic["gap_numeric"],
                    magnetic["gap_analytic_refined"], 0.01)
            + _within("per-state <Jz> vs 3 eps / 4",
                      amplitude["per_state_numeric_1"],
                      amplitude["per_state_analytic"], 0.05))


def check_microwave(job, output) -> list[str]:
    res = _results(output)
    problems = _within("microwave rate vs matrix element",
                       res["details"]["rate_over_expected"], 1.0, 1e-6)
    if not res["fidelity"] > 0.999:
        problems.append(f"sigma_y fidelity {res['fidelity']:.6g}")
    if not res["leakage"] < 1e-6:
        problems.append(f"leakage {res['leakage']:.3g}")
    return problems


def check_raman(job, output) -> list[str]:
    res = _results(output)
    problems = _within("Raman rate vs 3 w^2 / (4 d)",
                       res["details"]["rate_over_expected"], 1.0, 0.10)
    omega_g = job.args["omega_g"]
    if not res["leakage"] < 10.0 * omega_g ** 2:
        problems.append(f"leakage {res['leakage']:.3g} above 10 w^2")
    return problems


def check_hyperfine_resonant(job, output) -> list[str]:
    res = _results(output)
    _, problems = _trace_populations(output, "sense_trace")
    problems += _within("coefficient vs sqrt(3)/8",
                        res["details"]["coefficient_vs_rabi"],
                        HYPERFINE_COEFF, 0.01)
    if not res["details"]["max_transfer"] > 0.99:
        problems.append("resonant transfer below 0.99")
    return problems


def check_hyperfine_detuned(job, output) -> list[str]:
    """Two-level transfer: max = 1 / (1 + (delta / 2r)^2)."""
    details = _results(output)["details"]
    _, problems = _trace_populations(output, "sense_trace")
    ratio = details["detuning"] / (2.0 * details["expected_rate"])
    law = 1.0 / (1.0 + ratio ** 2)
    return problems + _within("detuned transfer vs 1/(1+(delta/2r)^2)",
                              details["max_transfer"], law, 0.02)


def check_sense_optical(job, output) -> list[str]:
    _, problems = _trace_populations(output, "sense_trace")
    return problems


def check_compare(job, output) -> list[str]:
    res = _results(output)
    problems = []
    if res["gain_orders"] != 0.5 * res["coherence_gain_orders"]:
        problems.append("sensitivity gain is not half the coherence gain")
    final = res["final_protected_coherence"]
    if not -POP_TOL <= final <= 1.0 + POP_TOL:
        problems.append(f"protected coherence {final:.6g} outside [0, 1]")
    if not (res["t2_bare"] > 0 and res["t2_protected"] > 0):
        problems.append("T2 not positive")
    return problems


def _rho_populations(rho: np.ndarray) -> list[str]:
    diag = np.einsum("tii->ti", rho).real
    problems = _populations({f"level{k}": diag[:, k]
                             for k in range(diag.shape[1])})
    drift = np.abs(diag.sum(axis=1) - 1.0).max()
    if drift > POP_TOL:
        problems.append(f"trace drifts by {drift:.3g}")
    return problems


def check_golden_rule(job, output) -> list[str]:
    return _rho_populations(output["rho"])


def golden_rule_miss(output) -> bool:
    """Criterion 10's bound: fitted rate within 30% of the golden rule."""
    return not abs(output["ratio"] - 1.0) < GOLDEN_RULE_BOUND


def check_lindblad_t1(job, output) -> list[str]:
    return (_rho_populations(output["rho"])
            + _within("Lindblad T1 vs 1/(Gamma p_exc)", output["ratio"],
                      1.0, 0.20))


CHECKS = {
    "analyze": check_analyze,
    "evolve": check_evolve,
    "evolve_static": check_evolve_static,
    "evolve_noise": check_evolve_noise,
    "error_budget_sweep": check_error_budget_sweep,
    "error_budget_cross_check": check_error_budget_cross_check,
    "microwave": check_microwave,
    "raman": check_raman,
    "hyperfine_resonant": check_hyperfine_resonant,
    "hyperfine_detuned": check_hyperfine_detuned,
    "sense_optical": check_sense_optical,
    "compare": check_compare,
    "golden_rule": check_golden_rule,
    "lindblad_t1": check_lindblad_t1,
}


def check(job, output) -> list[str]:
    return CHECKS[job.check](job, output)
