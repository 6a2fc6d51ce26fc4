from __future__ import annotations

import inspect
import json
import math
import os
import pathlib
import stat
import textwrap
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit import cli, gates, levels, scenario, sensing
from darkqubit.cli import emit_plot_data, main
from darkqubit.dynamics import SimulationTrace
from darkqubit.scenario import (
    ScenarioError,
    build_construction,
    build_scheme,
    load_scenario,
    parse_frequency,
    parse_scalar,
    parse_scenario,
    parse_time,
)

TWO_PI = 2.0 * math.pi


def test_parse_frequency_grammar():
    assert parse_frequency(123.0) == 123.0
    assert parse_frequency("5 rad/s") == 5.0
    assert parse_frequency("2 krad/s") == 2000.0
    assert parse_frequency("1 Mrad/s") == 1e6
    # Hz-family spellings are cyclic: both carry the 2 pi
    assert parse_frequency("100 MHz") == pytest.approx(TWO_PI * 1e8, rel=1e-15)
    assert parse_frequency("2pi*100 MHz") == parse_frequency("100 MHz")
    assert parse_frequency("2pi*5") == pytest.approx(TWO_PI * 5.0, rel=1e-15)
    assert parse_frequency("1.5e2 kHz") == pytest.approx(
        TWO_PI * 1.5e5, rel=1e-15
    )
    assert parse_frequency("2π*1 kHz") == parse_frequency("1 kHz")
    with pytest.raises(ValueError, match="unknown frequency unit"):
        parse_frequency("3 parsec")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_frequency("abc")


def test_parse_time_grammar():
    assert parse_time(2.0) == 2.0
    assert parse_time("10 us") == pytest.approx(1e-5, rel=1e-15)
    assert parse_time("10 µs") == pytest.approx(1e-5, rel=1e-15)
    assert parse_time("5 ms") == pytest.approx(5e-3, rel=1e-15)
    assert parse_time("3 ns") == pytest.approx(3e-9, rel=1e-15)
    with pytest.raises(ValueError, match="2pi"):
        parse_time("2pi*1 s")
    with pytest.raises(ValueError, match="unknown time unit"):
        parse_time("3 MHz")


def test_parse_scalar_grammar():
    assert parse_scalar(0.05) == 0.05
    assert parse_scalar("1e-3") == 1e-3
    with pytest.raises(ValueError, match="dimensionless"):
        parse_scalar("3 MHz")
    with pytest.raises(ValueError, match="dimensionless"):
        parse_scalar("2pi*3")


# Unit families as (parser, scenario field, [(unit, power of ten), ...]).
UNIT_FAMILIES = {
    "Hz": (parse_frequency, ("construction", "b"),
           [("Hz", 0), ("kHz", 3), ("MHz", 6), ("GHz", 9), ("THz", 12)]),
    "rad/s": (parse_frequency, ("construction", "b"),
              [("rad/s", 0), ("krad/s", 3), ("Mrad/s", 6), ("Grad/s", 9)]),
    "s": (parse_time, ("evolve", "duration"),
          [("s", 0), ("ms", -3), ("us", -6), ("ns", -9)]),
}


def _spelled(digits: int, exponent: int, unit: str, power: int) -> str:
    """digits * 10**exponent base units, written as a plain decimal in unit."""
    return f"{Decimal(digits).scaleb(exponent - power):f} {unit}"


def _scenario_with(field, text):
    data = {
        "protocol": "evolve",
        "scheme": {"preset": "ca40_dp"},
        "construction": {"kind": "compact", "omega": 1.0, "b": 0.3},
        "evolve": {"initial": "D1", "duration": 5.0},
    }
    section, key = field
    data[section][key] = text
    return parse_scenario(data)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(UNIT_FAMILIES)),
       digits=st.integers(1, 10**9), exponent=st.integers(-12, 12),
       data=st.data())
def test_unit_spelling_does_not_change_value_or_hash(family, digits, exponent,
                                                     data):
    # "341.992 MHz" and "341992 kHz" are one quantity: same float, same hash
    parse, field, units = UNIT_FAMILIES[family]
    (unit_a, power_a), (unit_b, power_b) = (
        data.draw(st.sampled_from(units)) for _ in range(2))
    text_a = _spelled(digits, exponent, unit_a, power_a)
    text_b = _spelled(digits, exponent, unit_b, power_b)
    assert parse(text_a) == parse(text_b), (text_a, text_b)
    assert _scenario_with(field, text_a).hash() == \
        _scenario_with(field, text_b).hash()


def _analyze_data(**over):
    data = {
        "protocol": "analyze",
        "scheme": {"preset": "ca40_dp"},
        "construction": {"kind": "compact", "omega": 1.0, "b": 0.3},
    }
    data.update(over)
    return data


def test_parse_scenario_minimal():
    sc = parse_scenario(_analyze_data())
    assert sc.protocol == "analyze"
    assert sc.scheme == {"preset": "ca40_dp"}
    assert sc.construction == {"kind": "compact", "omega": 1.0, "b": 0.3}
    assert sc.seed == 0 and sc.label == ""
    assert sc.noise is None and sc.sweep is None


def test_scenario_hash_deterministic_and_sensitive():
    a = parse_scenario(_analyze_data())
    b = parse_scenario(_analyze_data())
    assert a.hash() == b.hash()
    assert len(a.hash()) == 64 and set(a.hash()) <= set("0123456789abcdef")
    c = parse_scenario(_analyze_data(seed=5))
    assert c.hash() != a.hash()
    d = parse_scenario(_analyze_data(label="run-1"))
    assert d.hash() != a.hash()
    assert d.canonical()["label"] == "run-1"


def test_all_problems_reported_together():
    data = {
        "protocol": "evolve",
        "scheme": {"preset": "ca40_dp", "bogus": 1},
        "construction": {"kind": "compact", "omega": "3 parsec", "b": 0.1},
        "evolve": {"initial": "D1"},
        "extra_top": {},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    problems = err.value.problems
    joined = "\n".join(problems)
    assert len(problems) == 4
    assert "scenario.scheme.bogus: unknown key" in joined
    assert "scenario.construction.omega" in joined
    assert "scenario.evolve.duration: required" in joined
    assert "scenario.extra_top: unknown key" in joined


def test_params_section_uses_underscored_protocol_name():
    data = {
        "protocol": "error-budget",
        "scheme": {"preset": "ca40_dp"},
        "error-budget": {},  # wrong spelling: section names use underscores
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    joined = "\n".join(err.value.problems)
    assert "scenario.error_budget: required section" in joined
    assert "scenario.error-budget: unknown key" in joined


def test_compare_requires_noise():
    data = {
        "protocol": "compare",
        "scheme": {"preset": "ca40_dp"},
        "construction": {"kind": "compact", "omega": 1.0, "b": 0.05},
    }
    with pytest.raises(ScenarioError, match="noise: required"):
        parse_scenario(data)


def _budget_data(**over):
    data = {
        "protocol": "error-budget",
        "scheme": {"preset": "ca40_dp"},
        "error_budget": {"omega": "2pi*100 MHz", "b": "2pi*6.25 MHz",
                         "delta_b": "2pi*50 kHz", "epsilon": 1e-2,
                         "eps_pol": 1e-3, "gamma": "2pi*10 MHz",
                         "t2star_bare": "20 us"},
    }
    data.update(over)
    return data


def test_sweep_grids():
    base = _budget_data()
    base["sweep"] = {"field": "error_budget.delta_b", "start": "2pi*10 kHz",
                    "stop": "2pi*100 kHz", "num": 5, "spacing": "log"}
    sc = parse_scenario(base)
    values = sc.sweep["values"]
    assert len(values) == 5
    assert values[0] == pytest.approx(TWO_PI * 10e3, rel=1e-12)
    assert values[-1] == pytest.approx(TWO_PI * 100e3, rel=1e-12)
    ratios = np.diff(np.log(values))
    assert np.allclose(ratios, ratios[0])

    base["sweep"] = {"field": "error_budget.delta_b", "start": 1.0,
                    "stop": 3.0, "num": 3}
    assert parse_scenario(base).sweep["values"] == [1.0, 2.0, 3.0]

    base["sweep"] = {"field": "error_budget.delta_b",
                    "values": ["10 kHz", "2pi*20 kHz"]}
    vals = parse_scenario(base).sweep["values"]
    assert vals == pytest.approx([TWO_PI * 10e3, TWO_PI * 20e3], rel=1e-12)

    base["sweep"] = {"field": "error_budget.delta_b", "start": -1.0,
                    "stop": 1.0, "num": 3, "spacing": "log"}
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(base)


def test_sweep_values_use_the_swept_inputs_kind():
    # a time input takes time units and a scalar bare numbers; both used
    # to be read as frequencies ("unknown frequency unit 'us'")
    base = _budget_data(sweep={"field": "error_budget.t2star_bare",
                               "values": ["10 us", "2 ms", 0.5]})
    assert parse_scenario(base).sweep["values"] == [10e-6, 2e-3, 0.5]
    base["sweep"] = {"field": "error_budget.t2star_bare", "start": "10 us",
                     "stop": "30 us", "num": 3}
    assert parse_scenario(base).sweep["values"] == pytest.approx(
        [10e-6, 20e-6, 30e-6], rel=1e-12)
    base["sweep"] = {"field": "error_budget.epsilon",
                     "values": [0.01, "3 kHz"]}
    with pytest.raises(ScenarioError, match="dimensionless"):
        parse_scenario(base)


def test_sweep_hash_of_frequency_sweep_is_unchanged():
    # the canonical form of a sweep is still {field, values}, so a sweep
    # that parsed before hashes as it did
    data = _budget_data(sweep={"field": "error_budget.delta_b",
                               "start": "2pi*10 kHz", "stop": "2pi*100 kHz",
                               "num": 3, "spacing": "log"})
    assert parse_scenario(data).hash() == (
        "0c9a66ee892e016c5e7648bc6e8ef711f79bd4f37146d4c20ba01409afc875cd")


@pytest.mark.parametrize("over, problem", [
    ({"protocol": "analyze",
      "construction": {"kind": "compact", "omega": 1.0, "b": 0.3}},
     "scenario.sweep: only the error-budget protocol takes a sweep"),
    ({"sweep": {"field": "delta_b", "values": [1.0]}},
     "scenario.sweep.field: 'delta_b' not one of"),
    ({"sweep": {"field": "error_budget.cross_check", "values": [True]}},
     "scenario.sweep.field: 'error_budget.cross_check' not one of"),
], ids=["analyze", "bare-field", "bool-field"])
def test_sweep_is_validated_at_parse_time(over, problem):
    data = _budget_data(sweep={"field": "error_budget.delta_b",
                               "values": [1.0]}, mystery_key=1)
    data.update(over)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    joined = "\n".join(err.value.problems)
    assert problem in joined
    # reported together with the file's other problems
    assert "scenario.mystery_key: unknown key" in joined


def _gates_data(**gates):
    return {
        "protocol": "gates",
        "scheme": {"preset": "ca40_dp"},
        "construction": {"kind": "compact", "omega": 1.0, "b": 0.3,
                         "mystery": 1},
        "gates": {"omega_g": 0.05, **gates},
    }


@pytest.mark.parametrize("gates, problem", [
    ({"gate": "ramen"},
     "scenario.gates.gate: 'ramen' not one of ['microwave', 'raman']"),
    ({"gate": "raman"},
     "scenario.gates.delta_r: required for the raman gate (frequency)"),
    ({"gate": "microwave", "delta_r": 20.0},
     "scenario.gates.delta_r: the microwave gate does not read it"),
], ids=["unknown-gate", "raman-without-delta_r", "microwave-with-delta_r"])
def test_gate_is_validated_at_parse_time(gates, problem):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_gates_data(**gates))
    assert set(err.value.problems) == {
        problem, "scenario.construction.mystery: unknown key"}


def test_build_scheme_and_construction():
    data = _analyze_data()
    data["scheme"] = {"preset": "ca40_dp", "omega0": "2pi*346 THz",
                      "gamma": "2pi*10 MHz"}
    data["construction"] = {"kind": "compact", "omega": "2pi*1 MHz",
                            "b": "2pi*50 kHz", "pol_leak": 0.01}
    sc = parse_scenario(data)
    scheme = build_scheme(sc)
    assert scheme.manifold("P1/2").offset == pytest.approx(TWO_PI * 346e12)
    con = build_construction(sc)
    assert con.omega == pytest.approx(TWO_PI * 1e6)
    assert con.b == pytest.approx(TWO_PI * 50e3)


def test_load_scenario_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError, match="top level must be a mapping"):
        load_scenario(path)


# ------------------------------------------------------------- CLI end to end


ANALYZE_YAML = textwrap.dedent("""\
    protocol: analyze
    scheme:
      preset: ca40_dp
    construction:
      kind: compact
      omega: 1.0
      b: 0.3
    """)

EVOLVE_YAML = textwrap.dedent("""\
    protocol: evolve
    scheme:
      preset: ca40_dp
    construction:
      kind: compact
      omega: 1.0
      b: 0.3
    evolve:
      initial: D1
      duration: 5.0
      points: 60
    """)

BUDGET_YAML = textwrap.dedent("""\
    protocol: error-budget
    scheme:
      preset: ca40_dp
    error_budget:
      omega: 2pi*100 MHz
      b: 2pi*6.25 MHz
      delta_b: 2pi*50 kHz
      epsilon: 1e-2
      eps_pol: 1e-3
      gamma: 2pi*10 MHz
      t2star_bare: 20 us
    sweep:
      field: error_budget.delta_b
      start: 2pi*10 kHz
      stop: 2pi*100 kHz
      num: 3
      spacing: log
    """)


def _run(tmp_path, name, yaml_text, command, extra=()):
    scen = tmp_path / f"{name}.yaml"
    scen.write_text(yaml_text)
    out = tmp_path / f"out_{name}"
    code = main([command, "--scenario", str(scen), "--out", str(out), *extra])
    return code, out


def test_cli_analyze_summary(tmp_path, capsys):
    code, out = _run(tmp_path, "an", ANALYZE_YAML, "analyze")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"version", "protocol", "label", "seed",
                            "scenario_hash", "generated_at", "results"}
    res = summary["results"]
    delta = 0.3 / 15.0
    want_gap = math.sqrt(1.0 + delta**2 / 4.0) - delta / 2.0
    assert res["gap"] == pytest.approx(want_gap, rel=1e-12)
    assert res["jz_residual"] < 1e-12
    assert set(res["dark_states"]) == {"D1", "D2"}
    assert res["frequency_window"]["current_gap"] == pytest.approx(0.24)
    # stdout carries the one-line machine recap
    recap = json.loads(capsys.readouterr().out)
    assert recap["protocol"] == "analyze"
    assert recap["scenario_hash"] == summary["scenario_hash"]


def test_cli_runs_are_deterministic(tmp_path):
    code1, out1 = _run(tmp_path, "ev1", EVOLVE_YAML, "evolve")
    code2, out2 = _run(tmp_path, "ev2", EVOLVE_YAML, "evolve")
    assert code1 == code2 == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("generated_at"), s2.pop("generated_at")
    assert s1 == s2
    assert (out1 / "evolve_trace.csv").read_bytes() == \
        (out2 / "evolve_trace.csv").read_bytes()


def test_cli_evolve_trace_contents(tmp_path):
    code, out = _run(tmp_path, "ev", EVOLVE_YAML, "evolve")
    assert code == 0
    lines = (out / "evolve_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "time,pop_D1,pop_D2,pop_upper"
    assert len(lines) == 61
    final = [float(x) for x in lines[-1].split(",")]
    # a dark state is inert under the drive
    assert final[1] == pytest.approx(1.0, abs=1e-9)
    assert final[3] < 1e-12
    manifest = json.loads((out / "evolve_trace.manifest.json").read_text())
    assert manifest["axes"] == ["time", "pop_D1", "pop_D2", "pop_upper"]
    assert manifest["units"]["time"] == "s"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["noise_averaged"] is False
    assert summary["results"]["trace_files"] == [
        "evolve_trace.csv", "evolve_trace.manifest.json"]


def test_cli_seed_override_changes_hash(tmp_path):
    _, out0 = _run(tmp_path, "s0", ANALYZE_YAML, "analyze")
    _, out7 = _run(tmp_path, "s7", ANALYZE_YAML, "analyze",
                   extra=("--seed", "7"))
    s0 = json.loads((out0 / "summary.json").read_text())
    s7 = json.loads((out7 / "summary.json").read_text())
    assert s0["seed"] == 0 and s7["seed"] == 7
    assert s0["scenario_hash"] != s7["scenario_hash"]


def test_cli_budget_sweep(tmp_path):
    code, out = _run(tmp_path, "bud", BUDGET_YAML, "error-budget")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    res = summary["results"]
    by_name = {m["mechanism"]: m for m in res["mechanisms"]}
    assert by_name["magnetic-offset"]["t1_limit"] == pytest.approx(
        0.1326, rel=1e-3)
    assert by_name["relative-amplitude"]["t1_limit"] == "inf"
    assert res["coherence_gain_orders"] == pytest.approx(3.795, abs=0.01)
    lines = (out / "budget_sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "error_budget.delta_b"
    for col in ("gap_shift_total", "t1_limit", "t2_limit",
                "magnetic-offset.excited_population",
                "magnetic-offset.gap_shift",
                "relative-amplitude.gap_shift",
                "polarization-leakage.excited_population"):
        assert col in header
    assert len(lines) == 4
    # excited population rises with the square of the offset across the sweep
    ip = header.index("magnetic-offset.excited_population")
    pexc = [float(line.split(",")[ip]) for line in lines[1:]]
    assert pexc[-1] / pexc[0] == pytest.approx(100.0, rel=1e-6)


@pytest.mark.parametrize("field, values, axis_unit", [
    ("delta_b", '["2pi*10 kHz", "2pi*20 kHz"]', "rad/s"),
    ("epsilon", "[0.01, 0.02]", ""),
    ("t2star_bare", '["10 us", "20 us"]', "s"),
], ids=["frequency", "scalar", "time"])
def test_cli_budget_sweep_units(tmp_path, field, values, axis_unit):
    head = BUDGET_YAML[:BUDGET_YAML.index("sweep:")]
    yaml_text = head + (f"sweep:\n  field: error_budget.{field}\n"
                        f"  values: {values}\n")
    code, out = _run(tmp_path, field, yaml_text, "error-budget")
    assert code == 0
    manifest = json.loads((out / "budget_sweep.manifest.json").read_text())
    units = manifest["units"]
    assert units[f"error_budget.{field}"] == axis_unit
    assert units["gap_shift_total"] == "rad/s"
    assert units["t1_limit"] == units["t2_limit"] == "s"
    for name, unit in units.items():
        if name.endswith(".gap_shift"):
            assert unit == "rad/s"
        elif name.endswith(".excited_population"):
            assert unit == ""


def test_cli_json_format(tmp_path):
    code, out = _run(tmp_path, "evj", EVOLVE_YAML, "evolve",
                     extra=("--format", "json"))
    assert code == 0
    payload = json.loads((out / "evolve_trace.json").read_text())
    assert payload["axes"] == ["time", "pop_D1", "pop_D2", "pop_upper"]
    assert len(payload["columns"]["time"]) == 60
    assert not (out / "evolve_trace.csv").exists()


def test_cli_evolve_one_point_harmonic(tmp_path):
    # pol_leak keeps a harmonic in the frame; a one-point grid is the
    # initial state alone, on every propagation path
    yaml_text = EVOLVE_YAML.replace("b: 0.3", "b: 0.3\n  pol_leak: 0.01") \
        .replace("points: 60", "points: 1")
    code, out = _run(tmp_path, "one", yaml_text, "evolve")
    assert code == 0
    lines = (out / "evolve_trace.csv").read_text().splitlines()
    assert lines[0] == "time,pop_D1,pop_D2,pop_upper"
    assert len(lines) == 2
    time, pop_d1, pop_d2, _ = map(float, lines[1].split(","))
    assert (time, pop_d1, pop_d2) == (0.0, 1.0, 0.0)


def test_cli_malformed_yaml_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "broken.yaml"
    scen.write_text("protocol: analyze\nscheme: [unclosed\n")
    code = main(["analyze", "--scenario", str(scen),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed YAML at line 3, column 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_protocol_mismatch_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "an.yaml"
    scen.write_text(ANALYZE_YAML)
    code = main(["evolve", "--scenario", str(scen),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_missing_file_and_bad_scenario(tmp_path, capsys):
    code = main(["analyze", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    scen = tmp_path / "bad.yaml"
    scen.write_text(ANALYZE_YAML + "mystery_key: 1\n")
    code = main(["analyze", "--scenario", str(scen),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mystery_key: unknown key" in capsys.readouterr().err


ZERO_NOISE = textwrap.dedent("""\
    noise:
      kind: quasi-static-gaussian
      sigma: 0
    """)

SENSE_ZERO_NOISE_YAML = textwrap.dedent("""\
    protocol: sense
    scheme:
      preset: ca40_dp
    construction:
      kind: compact
      omega: 1.0
      b: 0.3
    sense:
      variant: optical-D32
      signal_freq: 0.24
      signal_rabi: 0.01
    """) + ZERO_NOISE

COMPARE_ZERO_NOISE_YAML = textwrap.dedent("""\
    protocol: compare
    scheme:
      preset: ca40_dp
    construction:
      kind: compact
      omega: 1.0
      b: 0.3
    compare:
      n_traj: 8
    """) + ZERO_NOISE


@pytest.mark.parametrize("command, yaml_text", [
    ("sense", SENSE_ZERO_NOISE_YAML),
    ("compare", COMPARE_ZERO_NOISE_YAML),
])
def test_cli_zero_noise_is_validation_error(tmp_path, capsys, command,
                                            yaml_text):
    # without dephasing there is no coherence time to report
    code, out = _run(tmp_path, command, yaml_text, command)
    assert code == 2
    assert "noise.sigma" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("preset, kind, b", [
    ("ca40_dp", "ideal", 0.3),
    ("hyperfine_f1f2", "hyperfine", 30.0),
])
def test_cli_rejects_compact_only_construction_options(tmp_path, capsys,
                                                       preset, kind, b):
    # amp_error and pol_leak act on the compact construction's two fields;
    # other kinds used to drop them silently and exit 0
    yaml_text = textwrap.dedent(f"""\
        protocol: analyze
        scheme:
          preset: {preset}
        construction:
          kind: {kind}
          omega: 1.0
          b: {b}
          amp_error: 0.2
          pol_leak: 0.05
        mystery_key: 1
        """)
    code, out = _run(tmp_path, "options", yaml_text, "analyze")
    assert code == 2
    err = capsys.readouterr().err
    for key in ("amp_error", "pol_leak"):
        assert (f"scenario.construction.{key}: only the compact "
                "construction takes it") in err
    assert "scenario.mystery_key: unknown key" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("amp_error", [0.001, 0.02])
def test_cli_rejects_nonzero_amp_error_before_any_work(tmp_path, capsys,
                                                       amp_error):
    # a tilted dark pair carries |<Jz>| ~ 3 eps/4, so the run used to
    # parse, build the construction and exit 3 finding no Jz-dark pair
    yaml_text = ANALYZE_YAML + f"  amp_error: {amp_error}\nmystery_key: 1\n"
    code, out = _run(tmp_path, "amp", yaml_text, "analyze")
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario.construction.amp_error: a nonzero amplitude error" in err
    assert "error-budget" in err
    assert "scenario.mystery_key: unknown key" in err
    assert not (out / "summary.json").exists()


def test_zero_amp_error_stays_legal(tmp_path):
    code, out = _run(tmp_path, "amp0", ANALYZE_YAML + "  amp_error: 0\n",
                     "analyze")
    assert code == 0
    assert (out / "summary.json").exists()


def test_emit_plot_data_leaves_no_temp_files(tmp_path):
    paths = emit_plot_data(str(tmp_path), "tbl",
                           {"x": np.arange(3.0), "y": np.arange(3.0) ** 2},
                           units={"x": "s"})
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["tbl.csv", "tbl.manifest.json"]
    assert all(not n.startswith(".tmp-") for n in names)
    assert [str(tmp_path / n) for n in names] == sorted(paths)


def _per_value_csv_text(columns):
    # the formatter _csv_text replaced: one f-string per value
    lines = [",".join(columns)]
    for row in zip(*(np.asarray(col) for col in columns.values())):
        lines.append(",".join(f"{float(v):.12g}" for v in row))
    return "\n".join(lines) + "\n"


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16,
                     0.1, 1.0 / 3.0, 123456789012.5]))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 9), kinds=st.lists(
    st.sampled_from(["float", "int", "int64", "bool"]), max_size=4),
       data=st.data())
def test_csv_text_matches_per_value_formatting(rows, kinds, data):
    # one % over the row-major table writes the same bytes as formatting
    # each value on its own: inf, nan, -0.0, integer columns, no rows
    columns = {}
    for j, kind in enumerate(kinds):
        if kind == "float":
            col = data.draw(st.lists(_CSV_VALUES, min_size=rows,
                                     max_size=rows))
        elif kind == "bool":
            col = np.array(data.draw(st.lists(
                st.booleans(), min_size=rows, max_size=rows)))
        else:
            col = data.draw(st.lists(st.integers(-2**62, 2**62),
                                     min_size=rows, max_size=rows))
            if kind == "int64":
                col = np.array(col, dtype=np.int64)
        columns[f"c{j}%"] = col
    assert cli._csv_text(columns) == _per_value_csv_text(columns)


def test_csv_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="differ in length"):
        cli._csv_text({"t": np.arange(3.0), "p": np.arange(2.0)})


def test_cli_help_names_each_protocol_with_its_article():
    text = cli._build_parser().format_help()
    for name, article in [("analyze", "an"), ("evolve", "an"),
                          ("error-budget", "an"), ("gates", "a"),
                          ("sense", "a"), ("compare", "a")]:
        assert f"run {article} {name} scenario" in text


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cli_outputs_take_the_umask(tmp_path, umask):
    # outputs are created as open() would create them, 0o666 less the
    # umask, not with a temporary file's private 0o600
    old = os.umask(umask)
    try:
        code, out = _run(tmp_path, "perm", ANALYZE_YAML, "analyze")
    finally:
        os.umask(old)
    assert code == 0
    files = sorted(out.iterdir())
    assert files and not [f.name for f in files if f.name.startswith(".tmp-")]
    for path in files:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


# ------------------------------------------------------------ YAML loaders


REPO_SCENARIOS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
FIXTURES = {"analyze": ANALYZE_YAML, "evolve": EVOLVE_YAML,
            "budget": BUDGET_YAML, "sense": SENSE_ZERO_NOISE_YAML,
            "compare": COMPARE_ZERO_NOISE_YAML}


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_give_equal_scenarios(tmp_path,
                                                        monkeypatch):
    assert REPO_SCENARIOS
    paths = list(REPO_SCENARIOS)
    for name, text in FIXTURES.items():
        paths.append(tmp_path / f"{name}.yaml")
        paths[-1].write_text(text)
    with mock.patch.object(yaml, "load", wraps=yaml.load) as spy:
        fast = [load_scenario(p) for p in paths]
    assert {call.kwargs["Loader"] for call in spy.call_args_list} == \
        {yaml.CSafeLoader}
    # Without libyaml the pure-Python SafeLoader takes over.
    monkeypatch.delattr(yaml, "CSafeLoader")
    slow = [load_scenario(p) for p in paths]
    assert fast == slow
    assert [s.hash() for s in fast] == [s.hash() for s in slow]


# ------------------------------------------------- keys a sense run ignores


HYPERFINE_SENSE_YAML = textwrap.dedent("""\
    protocol: sense
    scheme:
      preset: hyperfine_f1f2
    construction:
      kind: hyperfine
      omega: 1.0
      b: 30.0
    sense:
      signal_freq: 60.0
      signal_rabi: 0.01
    """)
NOISE_SECTION = textwrap.dedent("""\
    noise:
      kind: quasi-static-gaussian
      sigma: 5
    """)
# The optical run fits T2 from trajectories when noise is given, and
# otherwise takes interrogation_time as its coherence window.
OPTICAL_SENSE_YAML = SENSE_ZERO_NOISE_YAML.replace(ZERO_NOISE, "")


@pytest.mark.parametrize("yaml_text, path", [
    (HYPERFINE_SENSE_YAML + NOISE_SECTION, "scenario.noise"),
    (HYPERFINE_SENSE_YAML.replace("sense:\n", "sense:\n  variant: hyperfine\n")
     + NOISE_SECTION, "scenario.noise"),
    (HYPERFINE_SENSE_YAML + "  n_traj: 16\n", "scenario.sense.n_traj"),
    (SENSE_ZERO_NOISE_YAML.replace("signal_rabi: 0.01",
                                   "signal_rabi: 0.01\n  detuning: 0.5"),
     "scenario.sense.detuning"),
    (HYPERFINE_SENSE_YAML + "  phase_policy: random-averaged\n",
     "scenario.sense.phase_policy"),
    (OPTICAL_SENSE_YAML + "  n_traj: 16\n", "scenario.sense.n_traj"),
    (OPTICAL_SENSE_YAML + "  interrogation_time: 5\n" + NOISE_SECTION,
     "scenario.sense.interrogation_time"),
], ids=["hyperfine-default-noise", "hyperfine-noise", "hyperfine-n_traj",
        "optical-detuning", "hyperfine-phase_policy",
        "optical-n_traj-without-noise",
        "optical-interrogation_time-with-noise"])
def test_cli_rejects_keys_the_sense_variant_ignores(tmp_path, capsys,
                                                    yaml_text, path):
    # the run would drop these keys, yet they would still move the hash
    code, out = _run(tmp_path, "sense", yaml_text, "sense")
    assert code == 2
    assert f"{path}: the " in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("yaml_text", [OPTICAL_SENSE_YAML,
                                       HYPERFINE_SENSE_YAML],
                         ids=["optical", "hyperfine"])
def test_sense_n_draws_is_an_unknown_key(yaml_text):
    # the random-phase attenuation is exact, so no sense variant takes a
    # number of phase draws; nor a readout basis, since the trace holds
    # the pair's populations alone
    for line in ("n_draws: 64", "readout_basis: x"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_load(f"{yaml_text}  {line}\n"))
        key = line.split(":")[0]
        assert err.value.problems == (f"scenario.sense.{key}: unknown key",)


def test_explicit_sense_variant_is_checked_without_a_construction():
    # an unreadable construction leaves an explicit variant its own keys,
    # so the sense section's problems come in the same pass
    text = HYPERFINE_SENSE_YAML.replace(
        "sense:\n", "sense:\n  variant: hyperfine\n  phase_policy: locked\n")
    data = yaml.safe_load(text)
    data["construction"] = 5
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    problems = err.value.problems
    assert "scenario.construction: expected a mapping, got int" in problems
    assert "scenario.sense.phase_policy: the hyperfine sense variant " \
        "does not read it" in problems


@pytest.mark.parametrize("yaml_text", [
    OPTICAL_SENSE_YAML + "  interrogation_time: 5\n",
    OPTICAL_SENSE_YAML + "  n_traj: 16\n" + NOISE_SECTION,
], ids=["interrogation_time-without-noise", "n_traj-with-noise"])
def test_optical_sense_keeps_the_keys_it_reads(yaml_text):
    params = parse_scenario(yaml.safe_load(yaml_text)).params
    assert {"interrogation_time", "n_traj"} & set(params)


GATES_YAML = textwrap.dedent("""\
    protocol: gates
    scheme:
      preset: ca40_dp
    construction:
      kind: compact
      omega: 1.0
      b: 0.3
    gates:
      gate: microwave
      omega_g: 0.05
    """)
CONSTRUCTION_SECTION = ANALYZE_YAML[ANALYZE_YAML.index("construction:"):]
NOISE_ONLY_ELSEWHERE = ("scenario.noise: only the evolve/sense/compare "
                        "protocols take a noise section")


@pytest.mark.parametrize("command, yaml_text, problems", [
    ("analyze", ANALYZE_YAML + NOISE_SECTION, [NOISE_ONLY_ELSEWHERE]),
    ("gates", GATES_YAML + NOISE_SECTION, [NOISE_ONLY_ELSEWHERE]),
    ("error-budget", BUDGET_YAML + NOISE_SECTION, [NOISE_ONLY_ELSEWHERE]),
    ("error-budget", BUDGET_YAML + CONSTRUCTION_SECTION,
     ["scenario.construction: only the analyze/evolve/gates/sense/compare "
      "protocols take a construction section"]),
    ("sense", SENSE_ZERO_NOISE_YAML.replace("variant: optical-D32",
                                            "variant: optical"),
     ["scenario.sense.variant: 'optical' not one of"]),
    ("sense", SENSE_ZERO_NOISE_YAML.replace(
        "signal_rabi: 0.01",
        "signal_rabi: 0.01\n  phase_policy: random\n  readout_basis: w"),
     ["scenario.sense.phase_policy: 'random' not one of",
      "scenario.sense.readout_basis: unknown key"]),
    ("evolve", EVOLVE_YAML.replace("initial: D1", "initial: D3"),
     ["scenario.evolve.initial: 'D3' not one of ['D1', 'D2', "
      "'superposition']"]),
    ("error-budget", BUDGET_YAML.replace("preset: ca40_dp",
                                         "preset: d52_p32"),
     ["scenario.scheme.preset: the error-budget protocol takes only "
      "ca40_dp"]),
    ("error-budget", BUDGET_YAML.replace(
        "preset: ca40_dp", "preset: ca40_dp\n  gamma: 2pi*1 MHz"),
     ["scenario.scheme.gamma: the error-budget protocol does not read it"]),
], ids=["analyze-noise", "gates-noise", "budget-noise", "budget-construction",
        "sense-variant", "sense-policy-and-basis", "evolve-initial",
        "other-preset", "preset-keyword"])
def test_cli_rejects_inputs_the_run_would_drop_or_cannot_read(
        tmp_path, capsys, command, yaml_text, problems):
    # each is rejected at parse time, together with every other problem in
    # the file, before anything is built
    code, out = _run(tmp_path, "drop", yaml_text + "mystery_key: 1\n", command)
    assert code == 2
    err = capsys.readouterr().err
    for problem in problems + ["scenario.mystery_key: unknown key"]:
        assert problem in err
    assert not (out / "summary.json").exists()


OU_EVOLVE_YAML = EVOLVE_YAML.replace("points: 60", "points: 20\n  n_traj: 4") \
    + textwrap.dedent("""\
    noise:
      kind: ornstein-uhlenbeck
      sigma: 0.5
      tau_c: 2.0
    """)


def test_ou_evolve_on_a_grid_coarser_than_tau_c_exits_2(tmp_path, capsys):
    # 20 points over 5.0 step by 0.263, above tau_c = 0.25
    text = OU_EVOLVE_YAML.replace("tau_c: 2.0", "tau_c: 0.25")
    code, _ = _run(tmp_path, "coarse", text, "evolve")
    assert code == 2
    assert "OU noise needs at least 21" in capsys.readouterr().err


@pytest.mark.parametrize("yaml_text, problem", [
    (OU_EVOLVE_YAML.replace("  tau_c: 2.0\n", ""),
     "scenario.noise.tau_c: required for ornstein-uhlenbeck (time)"),
    (ANALYZE_YAML + "analyze:\n  depth: 2\n",
     "scenario.analyze.depth: unknown key"),
], ids=["ou-without-tau_c", "analyze-key"])
def test_noise_and_analyze_sections_report_their_own_problem(yaml_text,
                                                             problem):
    # an OU process has no correlation time to default to, and the
    # analyze section takes no key at all
    with pytest.raises(ScenarioError) as err:
        parse_scenario(yaml.safe_load(yaml_text))
    assert err.value.problems == (problem,)


@pytest.mark.parametrize("noise_seed, same", [("", False),
                                              ("  seed: 5\n", True)],
                         ids=["unset", "set"])
def test_unset_noise_seed_follows_the_scenario_seed(tmp_path, noise_seed,
                                                    same):
    assert "seed" not in parse_scenario(yaml.safe_load(OU_EVOLVE_YAML)).noise
    traces = []
    for seed in ("1", "2"):
        code, out = _run(tmp_path, f"ou{seed}", OU_EVOLVE_YAML + noise_seed,
                         "evolve", extra=("--seed", seed))
        assert code == 0
        traces.append((out / "evolve_trace.csv").read_bytes())
    assert (traces[0] == traces[1]) is same


@pytest.mark.parametrize("noise", ["", NOISE_SECTION],
                         ids=["unitary", "quasi-static"])
def test_unset_evolve_keys_take_the_functions_defaults(tmp_path, noise):
    # points and n_traj left out run evolve_dark_pair's defaults, 400 and
    # 256: the same tables as a section that sets them
    unset = EVOLVE_YAML.replace("  points: 60\n", "") + noise
    given = unset.replace("duration: 5.0",
                          "duration: 5.0\n  points: 400\n  n_traj: 256")
    tables = []
    for name, text in (("unset", unset), ("set", given)):
        code, out = _run(tmp_path, name, text, "evolve")
        assert code == 0
        tables.append([(out / table).read_bytes() for table in
                       ("evolve_trace.csv", "evolve_trace.manifest.json")])
    assert tables[0] == tables[1]
    assert tables[0][0].count(b"\n") == 401


# Every argument the CLI passes from outside a section.
CLI_SUPPLIED = {"scheme", "con", "noise"}


def test_every_section_key_has_one_kind():
    # a section's keys are its functions' parameters and their kinds come
    # from one table: each parameter a scenario sets has a kind, and each
    # kind belongs to such a parameter
    keys = set()
    for name, (_, functions, supplied, _) in scenario._CALLEES.items():
        assert set(supplied) <= CLI_SUPPLIED, name
        for choice, fn in functions.items():
            params = set(inspect.signature(fn).parameters) - set(supplied)
            assert params <= set(scenario._KINDS), (name, choice)
            keys |= params
    assert set(scenario._KINDS) == keys


def test_callee_is_looked_up_when_called():
    # a wrapper installed on the module after import is the one called
    assert scenario.callee("gates", "raman") is gates.raman_sigma_x
    with mock.patch.object(levels, "ca40_dp", wraps=levels.ca40_dp) as spy:
        build_scheme(parse_scenario(_analyze_data()))
    spy.assert_called_once_with()


# A value of each field kind, to probe which keys a section takes.
_SAMPLES = {"frequency": 0.5, "time": 2.0, "scalar": 10.0, "int": 4,
            "bool": True, "str": "x"}
COMPARE_YAML = COMPARE_ZERO_NOISE_YAML.replace(ZERO_NOISE, NOISE_SECTION)
# Per case: the scenarios probed (the optical variant reads
# interrogation_time without noise and n_traj with it), the key that picks
# the callee, the module the CLI looks the callee up on and its name
# there, the parameters the CLI fills from outside the section, and the
# section keys it drops (signal_freq: the hyperfine drive sits at the
# stretched resonance).
SECTION_CALLEES = {
    "sense-optical": ((OPTICAL_SENSE_YAML, OPTICAL_SENSE_YAML + NOISE_SECTION),
                      "variant", sensing, "run_ac_sensing",
                      {"con", "noise"}, set()),
    "sense-hyperfine": ((HYPERFINE_SENSE_YAML,), "variant", sensing,
                        "run_hyperfine_sensing", {"con"}, {"signal_freq"}),
    "gates-microwave": ((GATES_YAML,), "gate", gates, "microwave_sigma_y",
                        {"con"}, set()),
    "gates-raman": ((GATES_YAML.replace("gate: microwave", "gate: raman"),),
                    "gate", gates, "raman_sigma_x", {"con"}, set()),
    "compare": ((COMPARE_YAML,), None, sensing, "coherence_comparison",
                {"con", "noise"}, set()),
    "evolve": ((EVOLVE_YAML, OU_EVOLVE_YAML), None, gates, "evolve_dark_pair",
               {"con", "noise"}, set()),
}


def _accepted_keys(data: dict, section: str, skip) -> dict:
    """The section as written plus every other key of the kinds table
    that the parser accepts in it, each tried alone with a sample value."""
    keys = dict(data[section])
    for key, kind in scenario._KINDS.items():
        if key in keys or key == skip:
            continue
        value = kind[0] if isinstance(kind, tuple) else _SAMPLES[kind]
        probe = {**data, section: {**data[section], key: value}}
        try:
            parse_scenario(probe)
        except ScenarioError:
            continue
        keys[key] = value
    return keys


@pytest.mark.parametrize("case", SECTION_CALLEES)
def test_sections_are_their_callees_keyword_arguments(case):
    # every key an evolve, gates, sense or compare section accepts reaches
    # a parameter of the function the CLI calls, and every parameter is
    # set from the section or by the CLI
    texts, selector, module, name, supplied, dropped = SECTION_CALLEES[case]
    real = getattr(module, name)
    reached = set()
    for text in texts:
        data = yaml.safe_load(text)
        protocol = data["protocol"]
        section = protocol.replace("-", "_")
        keys = _accepted_keys(data, section, selector)
        parsed = parse_scenario({**data, section: keys})
        with mock.patch.object(
                module, name, autospec=True,
                return_value=(None, SimulationTrace(times=np.zeros(1)))) \
                as callee:
            cli._RUNNERS[protocol](parsed)
        args = inspect.signature(real).bind(*callee.call_args.args,
                                            **callee.call_args.kwargs)
        passed = set(args.arguments)
        assert passed - supplied == set(keys) - {selector} - dropped, text
        reached |= passed
    assert reached == set(inspect.signature(real).parameters)


@pytest.mark.parametrize("command, yaml_text, field", [
    ("error-budget", BUDGET_YAML.replace("omega: 2pi*100 MHz", "omega: 0"),
     "omega"),
    ("error-budget", BUDGET_YAML.replace("t2star_bare: 20 us",
                                         "t2star_bare: 0"), "t2star_bare"),
    ("error-budget", BUDGET_YAML.replace("t2star_bare: 20 us",
                                         "t2star_bare: -1"), "t2star_bare"),
    ("compare", COMPARE_YAML.replace("n_traj: 8",
                                     "n_traj: 8\n  horizon_in_bare_t2: 0"),
     "horizon_in_bare_t2"),
], ids=["budget-omega-0", "budget-t2star-0", "budget-t2star-negative",
        "compare-horizon-0"])
def test_cli_rejects_inputs_outside_their_domain_by_name(
        tmp_path, capsys, command, yaml_text, field):
    # a validation error naming the input, not a traceback or a bare
    # "math domain error"
    code, out = _run(tmp_path, "domain", yaml_text, command)
    assert code == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
