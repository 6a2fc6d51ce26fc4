from __future__ import annotations

import json
import math
import textwrap
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit.cli import emit_plot_data, main
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


def test_sweep_grids():
    base = _analyze_data()
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


def test_build_scheme_and_construction():
    data = _analyze_data()
    data["scheme"] = {"preset": "ca40_dp", "omega0": "2pi*346 THz",
                      "gamma": "2pi*10 MHz"}
    data["construction"] = {"kind": "compact", "omega": "2pi*1 MHz",
                            "b": "2pi*50 kHz", "amp_error": 0.01}
    sc = parse_scenario(data)
    scheme = build_scheme(sc)
    assert scheme.manifold("P1/2").offset == pytest.approx(TWO_PI * 346e12)
    con = build_construction(sc, scheme)
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


def test_cli_json_format(tmp_path):
    code, out = _run(tmp_path, "evj", EVOLVE_YAML, "evolve",
                     extra=("--format", "json"))
    assert code == 0
    payload = json.loads((out / "evolve_trace.json").read_text())
    assert payload["axes"] == ["time", "pop_D1", "pop_D2", "pop_upper"]
    assert len(payload["columns"]["time"]) == 60
    assert not (out / "evolve_trace.csv").exists()


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


def test_emit_plot_data_leaves_no_temp_files(tmp_path):
    paths = emit_plot_data(str(tmp_path), "tbl",
                           {"x": np.arange(3.0), "y": np.arange(3.0) ** 2},
                           units={"x": "s"})
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["tbl.csv", "tbl.manifest.json"]
    assert all(not n.startswith(".tmp-") for n in names)
    assert [str(tmp_path / n) for n in names] == sorted(paths)
