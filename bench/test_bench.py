"""Self-tests of the benchmark: its inputs, its output checks, its tracing.

Run from the repository root:

  python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import jobs as runner  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
import darkqubit  # noqa: E402
import darkqubit.noise  # noqa: E402
from darkqubit.driving import TimeDependentHamiltonian  # noqa: E402
from darkqubit.scenario import load_scenario  # noqa: E402


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_seed_fixes_the_inputs_and_every_file_loads(workload, tmp_path):
    manifest = scenarios.instantiate(workload, 3, str(tmp_path / "a"))
    scenarios.instantiate(workload, 3, str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert scenarios.build(workload, 4) != scenarios.build(workload, 3)
    _, _, job_list = scenarios.load_manifest(manifest)
    for job in job_list:
        if job.file is not None:
            load_scenario(str(tmp_path / "a" / job.file))


def test_seed_changes_values_not_work():
    sizes = []
    for seed in (5, 6):
        job_list, files = scenarios.build("interactive-runs", seed)
        sizes.append(sorted((job.check, job.args.get("num"))
                            for job in job_list))
    assert sizes[0] == sizes[1]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: spans.PER_LAYER[name] for name in spans.RESULT_LINE}
    assert [w["name"] for w in spec["workloads"]] == \
        list(scenarios.WORKLOADS)


def test_reference_kernel_is_independent_of_the_program():
    code = ("import sys, reference; reference.sample(); "
            "print(any(m.split('.')[0] == 'darkqubit' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_scaling_uses_the_gauges_around_each_segment():
    nominal = reference.NOMINAL_S
    record = {"wall": 3.1, "latency": {"a": 1.0, "b": 2.0},
              "segment": {"a": 0, "b": 1},
              "gauge": [[nominal], [0.9 * nominal, nominal, 5.0 * nominal],
                        [2.0 * nominal]]}
    wall, latency = run._scaled(record)
    assert latency["a"] == pytest.approx(1.0)
    assert latency["b"] == pytest.approx(2.0 * 2.0 / 3.0)
    assert wall == pytest.approx(3.1 * (1.0 + 4.0 / 3.0) / 3.0)


# ------------------------------------------------------------ output checks


def _first_jobs(tmp_path) -> dict:
    """One real job (and its output) per check type."""
    picked = {}
    for workload in scenarios.WORKLOADS:
        manifest = scenarios.instantiate(workload, 0,
                                         str(tmp_path / workload))
        _, _, job_list = scenarios.load_manifest(manifest)
        for job in job_list:
            if job.check in picked:
                continue
            output = runner.execute(job, os.path.dirname(manifest),
                                    str(tmp_path / "out"))
            picked[job.check] = (job, output)
    assert set(picked) == set(checks.CHECKS)
    return picked


@pytest.fixture(scope="module")
def real_outputs(tmp_path_factory):
    return _first_jobs(tmp_path_factory.mktemp("real"))


def _with_results(output, edit):
    out = copy.deepcopy(output)
    edit(out["summary"]["results"])
    return out


def _with_table(output, name, edit, tmp_path):
    """Copy of a CLI output whose CSV table `name` is edited in place."""
    target = tmp_path / "corrupt"
    shutil.copytree(output["out_dir"], target)
    path = target / f"{name}.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    rows = edit(header, rows)
    path.write_text("\n".join([lines[0]] + [
        ",".join(repr(v) for v in row) for row in rows]) + "\n")
    return dict(output, out_dir=str(target))


def _set(column, value, row=0):
    def edit(header, rows):
        rows[row][header.index(column)] = value
        return rows
    return edit


def _scale(key, factor, path=("details",)):
    def edit(results):
        target = results
        for part in path:
            target = target[part]
        target[key] *= factor
    return edit


def _mech(results, name):
    return next(m["cross_check"] for m in results["mechanisms"]
                if m["mechanism"] == name)


CORRUPTIONS = {
    "analyze": [
        lambda o, t: _with_results(o, lambda r: r.update(
            dark_eigenvalue=1e-6 * r["gap"])),
        lambda o, t: _with_results(o, lambda r: r.update(jz_residual=1e-12)),
    ],
    "evolve_static": [
        lambda o, t: _with_table(o, "evolve_trace", _set("pop_D1", 0.9, 5),
                                 t),
    ],
    "evolve": [
        lambda o, t: _with_table(o, "evolve_trace", _set("pop_D2", 1.2, 3),
                                 t),
    ],
    "evolve_noise": [
        lambda o, t: _with_table(o, "evolve_trace", _set("coh_pair", 0.4),
                                 t),
        lambda o, t: _with_table(o, "evolve_trace", _set("pop_D1", -0.1, 7),
                                 t),
    ],
    "error_budget_sweep": [
        lambda o, t: _with_table(o, "budget_sweep",
                                 lambda h, rows: rows[:-1], t),
        lambda o, t: _with_table(o, "budget_sweep",
                                 _set("gap_shift_total", -1.0, 2), t),
    ],
    "error_budget_cross_check": [
        lambda o, t: _with_results(o, lambda r: _mech(
            r, "magnetic-offset").update(gap_numeric=1.1 * _mech(
                r, "magnetic-offset")["gap_numeric"])),
        lambda o, t: _with_results(o, lambda r: _mech(
            r, "relative-amplitude").update(per_state_numeric_1=0.0)),
    ],
    "microwave": [
        lambda o, t: _with_results(o, _scale("rate_over_expected", 1.01)),
        lambda o, t: _with_results(o, lambda r: r.update(leakage=1e-3)),
    ],
    "raman": [
        lambda o, t: _with_results(o, _scale("rate_over_expected", 1.2)),
    ],
    "hyperfine_resonant": [
        lambda o, t: _with_results(o, _scale("coefficient_vs_rabi", 1.02)),
    ],
    "hyperfine_detuned": [
        lambda o, t: _with_results(o, _scale("max_transfer", 1.05)),
        lambda o, t: _with_table(o, "sense_trace", _set("pop_D2", 1.01, 9),
                                 t),
    ],
    "sense_optical": [
        lambda o, t: _with_table(o, "sense_trace", _set("pop_D1", 1.5, 4),
                                 t),
    ],
    "compare": [
        lambda o, t: _with_results(o, _scale("gain_orders", 1.01, ())),
        lambda o, t: _with_results(o, lambda r: r.update(
            final_protected_coherence=1.5)),
    ],
    "golden_rule": [
        lambda o, t: dict(o, rho=o["rho"] * 1.01),
    ],
    "lindblad_t1": [
        lambda o, t: dict(o, ratio=1.3),
        lambda o, t: dict(o, rho=-o["rho"]),
    ],
}


def test_every_check_has_corruptions():
    assert set(CORRUPTIONS) == set(checks.CHECKS)


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_check_passes_real_output_and_rejects_corruption(name, real_outputs,
                                                         tmp_path):
    job, output = real_outputs[name]
    assert checks.check(job, output) == []
    for k, corrupt in enumerate(CORRUPTIONS[name]):
        bad = corrupt(output, tmp_path / str(k))
        assert checks.check(job, bad), f"{name} corruption {k} passed"


def test_golden_rule_bound():
    assert not checks.golden_rule_miss({"ratio": 1.29})
    assert checks.golden_rule_miss({"ratio": 0.69})
    assert checks.golden_rule_miss({"ratio": math.nan})


# ----------------------------------------------------------------- tracing


def _run_all(job_list, scenario_dir, out_root):
    return {job.id: runner.digest(runner.execute(job, scenario_dir,
                                                 out_root))
            for job in job_list}


def test_traced_and_untraced_runs_give_identical_outputs(tmp_path):
    job_list = []
    for workload, keep in (("interactive-runs", 40),
                           ("harmonic-dynamics", None)):
        manifest = scenarios.instantiate(workload, 2, str(tmp_path))
        _, _, loaded = scenarios.load_manifest(manifest)
        job_list += [job for job in loaded
                     if not job.check.startswith("hyperfine_detuned")][:keep]
    original = darkqubit.noise.evolve_noisy
    plain = _run_all(job_list, str(tmp_path), str(tmp_path / "plain"))

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert darkqubit.evolve_noisy is not original
        assert darkqubit.noise.evolve_noisy is not original
        traced = _run_all(job_list, str(tmp_path), str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert darkqubit.noise.evolve_noisy is original
    assert darkqubit.evolve_noisy is original
    assert "evaluate" in vars(TimeDependentHamiltonian)
    assert traced == plain

    metrics = tracer.layer_metrics(wall=1.0)
    for name in ("scenario.load.calls", "subspace.find.calls",
                 "dynamics.spectral.calls", "dynamics.dop853.calls",
                 "dynamics.lindblad.calls", "dynamics.fit.calls",
                 "levels.dipole_coupling.calls", "angular.cg.calls",
                 "driving.evaluate.calls", "noise.calls"):
        assert metrics[name] > 0, name
    totals, _ = tracer.self_times()
    assert min(totals.values()) >= 0.0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "harmonic-dynamics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_within_their_parents():
    tracer = spans.Tracer()
    tracer.install()
    try:
        darkqubit.noise.evolve_noisy(
            np.zeros((2, 2)), np.array([1.0, 0.0], complex),
            darkqubit.noise.NoiseProcess("quasi-static-gaussian", 0.1),
            np.diag([0.5, -0.5]), np.linspace(0.0, 1.0, 5), n_traj=4)
    finally:
        tracer.uninstall()
    keys = [span[0] for span in tracer.spans]
    assert keys == ["noise.propagate", "noise.sample"]
    parent, child = tracer.spans
    assert child[3] == 0 and parent[1] <= child[1] <= child[2] <= parent[2]
    assert tracer.counts["noise.traj_steps"] == 4 * 4
