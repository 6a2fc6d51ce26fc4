"""Workload job lists, instantiated from the checked-in templates.

Every input a workload feeds the program is drawn here from the workload
seed: scenario YAML files (run through ``load_scenario`` and
``run_scenario``) and the arguments of the library calls that the
acceptance criteria make.  The same (workload, seed) always gives
byte-identical files and the same job list.

The seed varies parameter values, noise seeds, unit spellings and job
order, never the amount of work: sizes that set the cost (grid points,
trajectory counts, sweep lengths, the criteria's detunings) are fixed, so
runs with different seeds measure the same work.  noise-ensemble keeps
a fixed order, cheapest job first: its peak memory comes from the largest
ensemble, and the allocator's reuse of freed blocks makes the peak depend
on what ran before it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, field
from string import Template

TEMPLATE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "templates")

WORKLOADS = ("noise-ensemble", "harmonic-dynamics", "interactive-runs")

# Criterion 10's transverse-OU ensembles: (x = omega0 tau_c, sigma, n_traj),
# cheapest first (3001, 6174 and 16 835 time steps).
GOLDEN_RULE_ENSEMBLES = ((1.0, 0.4, 512), (10.0, 0.25, 384), (0.1, 1.2, 384))
# Criterion 9: detuned hyperfine runs at these multiples of the rate.
HYPERFINE_DETUNINGS = (4.0, 10.0, 20.0, 32.0)
HYPERFINE_RABI = 0.02
HYPERFINE_COEFF = math.sqrt(3.0) / 8.0
# Criterion 7: Raman detunings at omega_g = Omega / 20.
RAMAN_DETUNINGS = (15.0, 20.0, 30.0, 40.0, 60.0)

LOWER_UPPER = {
    "ca40_dp": ("D3/2", "P1/2"),
    "ca40_sdp": ("D3/2", "P1/2"),
    "d52_p32": ("D5/2", "P3/2"),
    "hyperfine_f1f2": ("F1", "F2"),
    "hyperfine_f0f1": ("F0", "F1"),
}
# Line centres for scenarios written in laboratory units.
LAB_OFFSETS = {
    "ca40_dp": ("omega0", '"2pi*346 THz"'),
    "ca40_sdp": ("omega0", '"2pi*346 THz"'),
    "d52_p32": ("omega0", '"2pi*350 THz"'),
    "hyperfine_f1f2": ("omega_hf", '"2pi*6.8 GHz"'),
    "hyperfine_f0f1": ("omega_hf", '"2pi*12.6 GHz"'),
}
DESK_OFFSET_KEY = {"hyperfine_f1f2": "omega_hf", "hyperfine_f0f1": "omega_hf"}
# (preset, construction kind) pairs for analyze.  hyperfine_f1f2 under the
# hyperfine construction is left out: its dressed spectrum
# {-2, -1, -1, 0, 0, 1, 1, 2} gives the zero pair and the +-1 pairs the same
# gap, find_protected_subspace breaks that tie on rounding noise, and for
# about half of all (omega, b) it returns a pair at +-omega (DESIGN.md).
ANALYZE_CELLS = tuple(
    [(p, k) for p in LOWER_UPPER for k in ("ideal", "compact")]
    + [("hyperfine_f0f1", "hyperfine")])


@dataclass
class Job:
    """One timed call: a CLI scenario run or a library call.

    kind is "cli" (file names a generated scenario), "golden_rule" or
    "lindblad"; check names the output check applied to the result; args
    holds library-call arguments and the reference values checks need.
    """

    id: str
    kind: str
    check: str
    file: str | None = None
    args: dict = field(default_factory=dict)


def _num(value: float, digits: int = 6) -> float:
    """Round to a few significant digits so files stay readable."""
    return float(f"{value:.{digits}g}")


def _render(name: str, values: dict) -> str:
    with open(os.path.join(TEMPLATE_DIR, name + ".yaml"),
              encoding="utf-8") as fh:
        text = Template(fh.read())
    out = {}
    for key, value in values.items():
        if isinstance(value, bool):
            out[key] = "true" if value else "false"
        elif isinstance(value, float):
            out[key] = repr(value)
        else:
            out[key] = str(value)
    return text.substitute(out)


class _JobList:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.jobs: list[Job] = []
        self.files: dict[str, str] = {}

    def uniform(self, lo: float, hi: float) -> float:
        return _num(self.rng.uniform(lo, hi))

    def log_uniform(self, lo: float, hi: float) -> float:
        return _num(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def cli(self, template: str, check: str, values: dict,
            **check_args) -> None:
        index = len(self.files)
        name = f"{index:03d}-{template}"
        values = dict(values, label=name,
                      seed=self.rng.randrange(2 ** 31))
        self.files[name + ".yaml"] = _render(template, values)
        self.jobs.append(Job(name, "cli", check, name + ".yaml",
                             check_args))

    def library(self, kind: str, check: str, args: dict) -> None:
        self.jobs.append(Job(f"lib-{len(self.jobs):03d}-{kind}", kind,
                             check, None, args))


def _desk_drive(b: _JobList, lo_ratio: float, hi_ratio: float) -> dict:
    omega = b.uniform(0.5, 2.0)
    return {"omega": omega,
            "b": _num(omega * b.rng.uniform(lo_ratio, hi_ratio))}


def _field_ratio(kind: str) -> tuple[float, float]:
    """Range of b / omega for a construction kind.

    The hyperfine construction's counter-rotating terms sit at twice the
    upper Zeeman spacing, g b; they drop out of the rotating frame only
    when that clears the 10 omega cutoff.
    """
    return (20.0, 60.0) if kind == "hyperfine" else (0.02, 0.5)


def _noise_ensemble(b: _JobList) -> None:
    b.cli("evolve_noise", "evolve_noise",
          {"omega": 1.0, "b": 0.3, "noise_kind": "ornstein-uhlenbeck",
           "sigma": b.uniform(0.005, 0.02), "tau_c": b.uniform(1.0, 4.0),
           "noise_seed": b.rng.randrange(2 ** 31), "duration": 200.0,
           "points": 1001, "n_traj": 128})
    for x, sigma, n_traj in GOLDEN_RULE_ENSEMBLES:
        b.library("golden_rule", "golden_rule",
                  {"x": x, "sigma": sigma, "n_traj": n_traj,
                   "noise_seed": b.rng.randrange(2 ** 31)})


def _harmonic_dynamics(b: _JobList) -> None:
    hyperfine = {"omega": 1.0, "b": 30.0, "signal_freq": 1.0,
                 "signal_rabi": HYPERFINE_RABI}
    b.cli("sense_hyperfine", "hyperfine_resonant",
          dict(hyperfine, detuning=0.0))
    rate = HYPERFINE_COEFF * HYPERFINE_RABI
    for mult in HYPERFINE_DETUNINGS:
        b.cli("sense_hyperfine", "hyperfine_detuned",
              dict(hyperfine, detuning=_num(mult * rate)))
    for delta_r in RAMAN_DETUNINGS:
        b.cli("gates_raman", "raman",
              {"omega": 1.0, "b": 0.3, "omega_g": 0.05, "delta_r": delta_r},
              omega_g=0.05)
    for _ in range(2):
        b.cli("gates_microwave", "microwave",
              {"kind": "ideal", "omega": 1.0, "b": 0.3,
               "omega_g": b.log_uniform(1e-3, 1e-2)})
    b.cli("sense_optical", "sense_optical",
          {"omega": 1.0, "b": 0.3, "signal_freq": _num(0.8 * 0.3 + 0.005),
           "signal_rabi": 0.01})
    initial = b.rng.choice(["D1", "D2", "superposition"])
    b.cli("evolve_pol_leak", "evolve",
          {"omega": 1.0, "b": 0.3, "pol_leak": 0.01, "initial": initial,
           "duration": 300.0, "points": 400}, initial=initial)
    b.cli("error_budget", "error_budget_cross_check",
          {"omega": '"2pi*100 MHz"', "b": '"2pi*6.25 MHz"',
           "delta_b": f'"2pi*{b.uniform(30.0, 70.0)} kHz"',
           "epsilon": b.uniform(0.005, 0.02), "eps_pol": 1e-3,
           "gamma": '"2pi*10 MHz"', "t2star_bare": '"20 us"',
           "cross_check": True})
    for _ in range(3):
        b.library("lindblad", "lindblad_t1",
                  {"gamma": 0.1, "b": 0.3, "omega": 1.0,
                   "delta_b": b.uniform(0.02, 0.1)})
    b.rng.shuffle(b.jobs)


def _interactive_runs(b: _JobList) -> None:
    for _ in range(9):
        for preset, kind in ANALYZE_CELLS:
            lower, upper = LOWER_UPPER[preset]
            values = {"preset": preset, "kind": kind, "lower": lower,
                      "upper": upper}
            if b.rng.random() < 0.5:
                omega = b.uniform(0.5, 5.0)
                b_khz = _num(omega * 1e3 * b.rng.uniform(*_field_ratio(kind)))
                key, offset = LAB_OFFSETS[preset]
                values.update(omega=f'"2pi*{omega} MHz"',
                              b=f'"2pi*{b_khz} kHz"', offset_key=key,
                              offset=offset)
                omega_rad = 2.0 * math.pi * omega * 1e6
            else:
                drive = _desk_drive(b, *_field_ratio(kind))
                values.update(drive, offset=1000.0,
                              offset_key=DESK_OFFSET_KEY.get(preset,
                                                             "omega0"))
                omega_rad = drive["omega"]
            b.cli("analyze", "analyze", values, omega=omega_rad)
    for _ in range(10):
        for preset, kind in (("ca40_dp", "ideal"), ("ca40_dp", "compact"),
                             ("d52_p32", "compact"),
                             ("hyperfine_f0f1", "hyperfine")):
            lower, upper = LOWER_UPPER[preset]
            lo, hi = _field_ratio(kind)
            drive = _desk_drive(b, max(lo, 0.05), hi)
            initial = b.rng.choice(["D1", "D2", "superposition"])
            b.cli("evolve_static", "evolve_static",
                  dict(drive, preset=preset, kind=kind, lower=lower,
                       upper=upper, initial=initial,
                       duration=_num(b.rng.uniform(10.0, 100.0)
                                     / drive["omega"]),
                       points=200), initial=initial)
    for _ in range(40):
        omega = b.uniform(50.0, 200.0)
        b.cli("error_budget_sweep", "error_budget_sweep",
              {"omega": f'"2pi*{omega} MHz"',
               "b": f'"2pi*{b.uniform(3.0, 10.0)} MHz"',
               "delta_b": f'"2pi*{b.uniform(20.0, 80.0)} kHz"',
               "epsilon": b.uniform(0.005, 0.02),
               "eps_pol": b.uniform(5e-4, 2e-3),
               "gamma": '"2pi*10 MHz"', "t2star_bare": '"20 us"',
               "start": '"2pi*1 kHz"',
               "stop": f'"2pi*{b.uniform(100.0, 300.0)} kHz"', "num": 8},
              num=8)
    for _ in range(30):
        drive = _desk_drive(b, 0.05, 0.4)
        b.cli("evolve_noise", "evolve_noise",
              dict(drive, noise_kind="quasi-static-gaussian",
                   sigma=_num(drive["omega"] * b.rng.uniform(1e-3, 1e-2)),
                   tau_c=1.0, noise_seed=b.rng.randrange(2 ** 31),
                   duration=_num(b.rng.uniform(50.0, 200.0)
                                 / drive["omega"]),
                   points=100, n_traj=32))
    for _ in range(20):
        drive = _desk_drive(b, 0.03, 0.1)
        b.cli("compare", "compare",
              dict(drive,
                   sigma=_num(drive["omega"] * b.rng.uniform(2e-4, 1e-3)),
                   noise_seed=b.rng.randrange(2 ** 31), n_traj=32,
                   horizon=b.uniform(20.0, 60.0)))
    for _ in range(30):
        drive = _desk_drive(b, 0.05, 0.4)
        b.cli("gates_microwave", "microwave",
              dict(drive, kind=b.rng.choice(["ideal", "compact"]),
                   omega_g=_num(drive["omega"]
                                * b.log_uniform(1e-3, 1e-2))))
    b.rng.shuffle(b.jobs)


_WORKLOAD_JOBS = {
    "noise-ensemble": _noise_ensemble,
    "harmonic-dynamics": _harmonic_dynamics,
    "interactive-runs": _interactive_runs,
}


def build(workload: str, seed: int) -> tuple[list[Job], dict[str, str]]:
    """Job list (in run order) and scenario file texts for one workload."""
    if workload not in _WORKLOAD_JOBS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    job_list = _JobList(workload, seed)
    _WORKLOAD_JOBS[workload](job_list)
    return job_list.jobs, job_list.files


def instantiate(workload: str, seed: int, directory: str) -> str:
    """Write the scenario files and a jobs.json manifest; returns its path."""
    jobs, files = build(workload, seed)
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    manifest = os.path.join(directory, "jobs.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "jobs": [asdict(job) for job in jobs]}, fh, indent=1)
    return manifest


def load_manifest(path: str) -> tuple[str, int, list[Job]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return (data["workload"], data["seed"],
            [Job(**job) for job in data["jobs"]])
