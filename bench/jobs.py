"""Execution of one benchmark job through the program's public entry points.

CLI jobs load their generated scenario file and run it in-process, the
way ``darkqubit <protocol> --scenario FILE`` does.  Library jobs make the
calls the acceptance criteria make (criterion 10's golden-rule ensembles,
criterion 4's Lindblad T1 runs).  Every darkqubit function is looked up
on its module at call time, so wrappers installed by ``spans`` see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import darkqubit.cli as dq_cli
import darkqubit.driving as dq_driving
import darkqubit.dynamics as dq_dynamics
import darkqubit.gates as dq_gates
import darkqubit.levels as dq_levels
import darkqubit.noise as dq_noise
import darkqubit.scenario as dq_scenario

TWO_PI = 2.0 * math.pi
SUMMARY = "summary.json"


def run_cli(job, scenario_dir: str, out_root: str) -> dict:
    out_dir = os.path.join(out_root, job.id)
    scenario = dq_scenario.load_scenario(os.path.join(scenario_dir, job.file))
    summary = dq_cli.run_scenario(scenario, out_dir=out_dir, fmt="csv",
                                  threads=1)
    return {"summary": summary, "out_dir": out_dir}


def run_golden_rule(args: dict) -> dict:
    """Criterion 10: transverse OU noise on a two-level system.

    The relaxation rate fitted from <sigma_z>(t) is compared with the
    golden-rule rate S(omega0)/2 = sigma^2 tau_c / (1 + x^2).
    """
    omega0 = 5.0
    x, sigma, n_traj = args["x"], args["sigma"], args["n_traj"]
    tau = x / omega0
    process = dq_noise.NoiseProcess("ornstein-uhlenbeck", sigma=sigma,
                                    tau_c=tau, seed=args["noise_seed"])
    rate = sigma ** 2 * tau / (1.0 + x ** 2)
    dt = min(tau / 8.0, TWO_PI / omega0 / 8.0)
    horizon = 1.2 / rate
    times = np.linspace(0.0, horizon, int(math.ceil(horizon / dt)) + 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
    h = np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex)
    rho = dq_noise.evolve_noisy(h, np.array([1.0, 0.0], complex), process,
                                sx, times, n_traj=n_traj, threads=1)
    sz = 2.0 * rho[:, 0, 0].real - 1.0
    fit = dq_dynamics.fit_decay(times, sz, "exponential",
                                p0=(1.0, 1.0 / rate, 0.0))
    return {"rho": rho,
            "ratio": (1.0 / float(fit.params["tau"])) / rate}


def run_lindblad(args: dict) -> dict:
    """Criterion 4: Lindblad decay of a dark state vs Gamma * p_exc."""
    gamma, delta_b = args["gamma"], args["delta_b"]
    scheme = dq_levels.ca40_dp(gamma=gamma)
    con = dq_driving.compact_construction(scheme, args["b"], args["omega"])
    dark = dq_gates.protected_report(con).dark_states[0]
    rho0 = np.outer(dark, dark.conj())
    perturbed = con.ip.static + delta_b * scheme.zeeman_generator()
    t1_pred = 1.0 / (gamma * (12.0 / 25.0) * delta_b ** 2)
    times = np.linspace(0.0, 2.0 * t1_pred, 40)
    rho = dq_dynamics.evolve_lindblad(perturbed, rho0,
                                      scheme.all_collapse_operators(), times)
    survival = np.einsum("i,tij,j->t", dark.conj(), rho, dark).real
    fit = dq_dynamics.fit_decay(times, survival, "exponential")
    return {"rho": rho, "ratio": float(fit.params["tau"]) / t1_pred}


def execute(job, scenario_dir: str, out_root: str) -> dict:
    if job.kind == "cli":
        return run_cli(job, scenario_dir, out_root)
    if job.kind == "golden_rule":
        return run_golden_rule(job.args)
    if job.kind == "lindblad":
        return run_lindblad(job.args)
    raise ValueError(f"unknown job kind {job.kind!r}")


def output_files(output: dict) -> list[str]:
    """Files a CLI job wrote, sorted; empty for library jobs."""
    out_dir = output.get("out_dir")
    if out_dir is None:
        return []
    return sorted(os.path.join(out_dir, name) for name in os.listdir(out_dir)
                  if not name.startswith("."))


def digest(output: dict) -> str:
    """Hash of everything a job produced, minus the summary's timestamp."""
    h = hashlib.sha256()
    if "summary" in output:
        h.update(json.dumps(output["summary"]["results"],
                            sort_keys=True).encode())
        for path in output_files(output):
            name = os.path.basename(path)
            if name != SUMMARY:
                h.update(name.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    else:
        h.update(np.ascontiguousarray(output["rho"]).tobytes())
        h.update(repr(output["ratio"]).encode())
    return h.hexdigest()
