"""Scale invariance of the checked-in evolve, gates, sense and compare runs.

Each scenario is run as written and with every frequency multiplied by s
and every time divided by s (the kinds of scenario._KINDS), after the
preset's default line centre (omega0 or omega_hf) and the hyperfine sense
variant's default interrogation time are made explicit.  The physics is
then the same in other units: a dimensionless output must agree to
1e-12, and an output of dimension frequency^p, or a ratio of a fitted
rate, must agree to 1e-9 relative once divided by s^p.  A cutoff,
cluster tolerance or step rule written as an absolute number breaks this
over s = 1e-6 to 1e9.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import pathlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit import cli, levels, sensing
from darkqubit import scenario as scenario_mod

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIO_DIR, GOLDEN_DIR = ROOT / "scenarios", ROOT / "tests" / "golden"
SCENARIOS = ("evolve_static", "evolve_pol_leak", "evolve_quasi_static",
             "evolve_ou", "gates_microwave", "gates_raman",
             "sense_hyperfine", "sense_optical_noise", "compare")
# The power of s by which each output scales, by its key or table column;
# every other output is dimensionless.
POWERS = {
    **dict.fromkeys(("rate", "matrix", "expected_from_matrix_element",
                     "expected_second_order", "effective_rabi",
                     "expected_rate", "locked_rate", "resonance",
                     "detuning"), 1),
    **dict.fromkeys(("time", "t2_used", "t2_bare", "t2_protected"), -1),
    # 1 / (rate sqrt(T2))
    "sensitivity": -0.5,
}
# Dimensionless ratios of a fitted rate to its expected value: each is off
# by the fitted rate's own relative error, so it is held to the rates'
# tolerance.  The Raman gate's rate, read from the generator of its
# stroboscopic propagator, moves by up to 2.9e-10 relative over s.
RATE_RATIOS = {"rate_over_expected"}
DIMENSIONLESS_ATOL = 1e-12
SCALED_RTOL = 1e-9


def _explicit_defaults(data: dict) -> None:
    """Write into data the defaults that carry a unit: the preset's line
    centre and the hyperfine sense variant's interrogation time."""
    scheme = data["scheme"]
    preset = inspect.signature(levels._PRESETS[scheme["preset"]])
    for key in ("omega0", "omega_hf"):
        if key in preset.parameters:
            scheme.setdefault(key, preset.parameters[key].default)
    sense = data.get("sense", {})
    if sense.get("variant") == "hyperfine":
        sense.setdefault("interrogation_time", inspect.signature(
            sensing.run_hyperfine_sensing).parameters[
                "interrogation_time"].default)


def _leaves(value, key=""):
    """(key, value) of every number, string or flag in a result, the key
    being the innermost dict key above it."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, name)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            yield from _leaves(item, key)
    else:
        yield key, value


@functools.cache
def _run(name: str, s: float) -> dict:
    """{key: [values]} of the scenario's results and table columns with
    frequencies times s and times over s."""
    data = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
    _explicit_defaults(data)
    for section in data.values():
        if isinstance(section, dict):
            for key, value in section.items():
                kind = scenario_mod._KINDS.get(key)
                if kind == "frequency":
                    section[key] = value * s
                elif kind == "time":
                    section[key] = value / s
    scenario = scenario_mod.parse_scenario(data)
    results, tables = cli._run(scenario)
    outputs = {}
    for _, columns, _ in tables.values():
        for column, values in columns.items():
            outputs.setdefault(column, []).extend(
                float(v) for v in np.ravel(values))
    for key, value in _leaves(cli._json_safe(results)):
        outputs.setdefault(key, []).append(value)
    return outputs


def _mismatches(want: dict, got: dict, s: float) -> list[str]:
    assert got.keys() == want.keys()
    problems = []
    for key, values in want.items():
        power = POWERS.get(key, 0)
        floats = [isinstance(v, float) for v in values]
        assert [isinstance(v, float) for v in got[key]] == floats, key
        exact = [v for v, f in zip(values, floats) if not f]
        if exact != [v for v, f in zip(got[key], floats) if not f]:
            problems.append(f"{key}: {got[key]} != {values}")
        want_f = np.array([v for v, f in zip(values, floats) if f])
        got_f = np.array([v for v, f in zip(got[key], floats) if f])
        if not want_f.size:
            continue
        err = np.abs(got_f / s ** power - want_f).max()
        if (power or key in RATE_RATIOS) and want_f.any():
            # relative to the largest entry, so that a near-zero entry of
            # a matrix or column is held to its neighbours' scale
            bound = SCALED_RTOL * np.abs(want_f).max()
        else:  # dimensionless, or zero at s = 1 (a detuning of 0)
            bound = DIMENSIONLESS_ATOL
        if not err <= bound:
            problems.append(f"{key} (s^{power}): off by {err:.2e}, "
                            f"more than {bound:.2e}")
    return problems


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=5, deadline=None)
@given(exponent=st.floats(-6.0, 9.0))
def test_outputs_scale_with_the_units(name, exponent):
    s = 10.0 ** exponent
    assert _mismatches(_run(name, 1.0), _run(name, s), s) == []


def test_unit_scale_is_the_checked_in_run():
    # making the defaults explicit changes nothing: at s = 1 the gate rate
    # is the golden file's, and a comparison at the wrong scale fails
    golden = json.loads((GOLDEN_DIR / "gates_microwave.json").read_text())
    want = _run("gates_microwave", 1.0)
    assert math.isclose(want["rate"][0], golden["summary"]["results"]["rate"],
                        rel_tol=1e-12)
    assert _mismatches(want, _run("gates_microwave", 2.0), 2.0) == []
    assert _mismatches(want, _run("gates_microwave", 2.0), 1.0) != []
