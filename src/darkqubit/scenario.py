"""Scenario files: strict parsing, unit normalization, deterministic hashing.

A scenario is a YAML mapping that selects a level scheme, a driving
construction, and one protocol (analyze, evolve, error-budget, gates,
sense, compare), with every dimensioned value carrying an explicit unit.
Frequencies normalize to rad/s ("100 MHz" and "2pi*100 MHz" are two
spellings of the same angular frequency; "rad/s" suffixes are taken raw),
times to seconds.  Unknown keys are rejected, and all problems in a file
are reported together.  The canonical form (sorted keys, normalized
numbers) feeds a sha256 hash that output files embed for provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import yaml

from .driving import (Construction, compact_construction,
                      hyperfine_construction, ideal_construction)
from .levels import LevelScheme, preset
from .noise import KINDS as NOISE_KINDS
from .noise import NoiseProcess

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_frequency",
    "parse_time",
    "load_scenario",
    "parse_scenario",
    "build_scheme",
    "build_construction",
    "build_noise",
]

PROTOCOLS = ("analyze", "evolve", "error-budget", "gates", "sense", "compare")

# Unit prefixes as powers of ten.
_FREQ_SCALES = {"hz": 0, "khz": 3, "mhz": 6, "ghz": 9, "thz": 12}
_RAD_SCALES = {"rad/s": 0, "krad/s": 3, "mrad/s": 6, "grad/s": 9}
_TIME_SCALES = {"s": 0, "ms": -3, "us": -6, "µs": -6, "ns": -9}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<twopi>2\s*pi\s*\*|2\s*π\s*\*)?\s*"
    r"(?P<mantissa>[-+]?(\d+\.?\d*|\.\d+))([eE](?P<exp>[-+]?\d+))?\s*"
    r"(?P<unit>[A-Za-zµ/]+)?\s*$")


class ScenarioError(ValueError):
    """Validation failure; carries every offending field at once."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("scenario validation failed:\n" + "\n".join(
            f"  - {p}" for p in self.problems))


def _match(text: str):
    """(match, lower-case unit, explicit 2pi prefix) of a quantity string."""
    m = _QUANTITY_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse quantity {text!r}")
    return m, (m.group("unit") or "").lower(), bool(m.group("twopi"))


def _scaled(m, power: int) -> float:
    """The written number times 10**power, rounded once.

    Shifting the decimal exponent keeps the product exact before the one
    rounding, so "341.992 MHz" and "341992 kHz" give the same float.
    """
    return float(f"{m.group('mantissa')}e{int(m.group('exp') or 0) + power}")


def parse_frequency(value) -> float:
    """Angular frequency in rad/s.

    Accepted: bare numbers (already rad/s), "X rad/s" (and k/M/G
    prefixes), "X Hz" (and k/M/G/T; converted with 2 pi), and an optional
    "2pi*" prefix.  "100 MHz" and "2pi*100 MHz" both mean 2 pi x 1e8
    rad/s: the Hz spelling is cyclic, the 2pi-prefixed spelling makes the
    same conversion explicit.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    m, unit, cyclic = _match(str(value))
    if unit in _FREQ_SCALES:
        number, cyclic = _scaled(m, _FREQ_SCALES[unit]), True
    elif unit in _RAD_SCALES or unit == "":
        number = _scaled(m, _RAD_SCALES.get(unit, 0))
    else:
        raise ValueError(
            f"unknown frequency unit {unit!r} in {value!r} "
            f"(expected rad/s, Hz, kHz, MHz, GHz, THz)")
    return 2.0 * math.pi * number if cyclic else number


def parse_time(value) -> float:
    """Duration in seconds; accepts bare numbers or s/ms/us/ns suffixes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    m, unit, explicit_twopi = _match(str(value))
    if explicit_twopi:
        raise ValueError(f"2pi prefix makes no sense for a time: {value!r}")
    if unit in _TIME_SCALES or unit == "":
        return _scaled(m, _TIME_SCALES.get(unit, 0))
    raise ValueError(f"unknown time unit {unit!r} in {value!r} "
                     f"(expected s, ms, us, ns)")


def parse_scalar(value) -> float:
    """Dimensionless number; unit suffixes are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    m, unit, explicit_twopi = _match(str(value))
    if unit or explicit_twopi:
        raise ValueError(f"expected a dimensionless number, got {value!r}")
    return _scaled(m, 0)


_PARSERS = {"frequency": parse_frequency, "time": parse_time,
            "scalar": parse_scalar}


class _Section:
    """Strict mapping reader that accumulates problems instead of raising."""

    def __init__(self, data, path, problems):
        self.data = data if isinstance(data, dict) else {}
        self.path = path
        self.problems = problems
        self.seen = set()
        if data is not None and not isinstance(data, dict):
            problems.append(f"{path}: expected a mapping, got "
                            f"{type(data).__name__}")

    def get(self, key, kind, default=None, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problems.append(
                    f"{self.path}.{key}: required ({kind})")
            return default
        raw = self.data[key]
        if kind == "raw":
            return raw
        if kind == "str":
            return str(raw)
        if kind == "int":
            try:
                if isinstance(raw, bool) or int(raw) != float(raw):
                    raise ValueError
                return int(raw)
            except (TypeError, ValueError):
                self.problems.append(
                    f"{self.path}.{key}: expected an integer, got {raw!r}")
                return default
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            self.problems.append(
                f"{self.path}.{key}: expected true/false, got {raw!r}")
            return default
        try:
            return _PARSERS[kind](raw)
        except ValueError as exc:
            self.problems.append(f"{self.path}.{key}: {exc}")
            return default

    def choice(self, key, options, default=None, required=False):
        value = self.get(key, "str", default=default, required=required)
        if value is not None and value not in options:
            self.problems.append(
                f"{self.path}.{key}: {value!r} not one of {sorted(options)}")
            return default
        return value

    def subsection(self, key, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problems.append(f"{self.path}.{key}: required section")
            return None
        return _Section(self.data[key], f"{self.path}.{key}", self.problems)

    def finish(self):
        for key in sorted(set(self.data) - self.seen):
            self.problems.append(f"{self.path}.{key}: unknown key")


@dataclass(frozen=True)
class Scenario:
    protocol: str
    scheme: dict
    construction: dict | None
    params: dict
    noise: dict | None
    sweep: dict | None
    seed: int
    label: str = ""

    def canonical(self) -> dict:
        out = {"protocol": self.protocol, "scheme": self.scheme,
               "params": self.params, "seed": self.seed}
        if self.construction is not None:
            out["construction"] = self.construction
        if self.noise is not None:
            out["noise"] = self.noise
        if self.sweep is not None:
            out["sweep"] = self.sweep
        if self.label:
            out["label"] = self.label
        return out

    def hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


_SCHEME_KWARGS = {
    # preset name -> (kwarg, parse kind)
    "ca40_dp": (("omega0", "frequency"), ("gamma", "frequency")),
    "ca40_sdp": (("omega0", "frequency"), ("gamma_s", "frequency"),
                 ("gamma_d", "frequency"), ("omega_s", "frequency")),
    "d52_p32": (("omega0", "frequency"), ("gamma", "frequency")),
    "hyperfine_f1f2": (("omega_hf", "frequency"), ("g2", "scalar")),
    "hyperfine_f0f1": (("omega_hf", "frequency"), ("g1", "scalar")),
}

_CONSTRUCTION_KINDS = ("ideal", "compact", "hyperfine")


def _parse_scheme(section) -> dict:
    name = section.choice("preset", _SCHEME_KWARGS, required=True)
    out = {"preset": name}
    if name:
        for kwarg, kind in _SCHEME_KWARGS[name]:
            value = section.get(kwarg, kind)
            if value is not None:
                out[kwarg] = value
    section.finish()
    return out


def _parse_construction(section) -> dict:
    out = {
        "kind": section.choice("kind", _CONSTRUCTION_KINDS, required=True),
        "omega": section.get("omega", "frequency", required=True),
        "b": section.get("b", "frequency", required=True),
    }
    for key, kind in (("lower", "str"), ("upper", "str"),
                      ("amp_error", "scalar"), ("pol_leak", "scalar"),
                      ("rwa_cutoff", "frequency")):
        value = section.get(key, kind)
        if value is not None:
            out[key] = value
    if out["kind"] in ("ideal", "hyperfine"):
        for key in ("amp_error", "pol_leak"):
            if key in out:
                section.problems.append(f"{section.path}.{key}: only the "
                                        "compact construction takes it")
    section.finish()
    return out


def _parse_noise(section) -> dict:
    out = {
        "kind": section.choice("kind", NOISE_KINDS, required=True),
        "sigma": section.get("sigma", "frequency", required=True),
        "seed": section.get("seed", "int", default=0),
    }
    tau = section.get("tau_c", "time")
    if tau is not None:
        out["tau_c"] = tau
    if out["kind"] == "ornstein-uhlenbeck" and tau is None:
        section.problems.append(
            f"{section.path}.tau_c: required for ornstein-uhlenbeck (time)")
    section.finish()
    return out


_PARAM_FIELDS = {
    "analyze": (),
    "evolve": (("initial", "str", True), ("duration", "time", True),
               ("points", "int", False), ("n_traj", "int", False)),
    "error-budget": (("omega", "frequency", True), ("b", "frequency", True),
                     ("delta_b", "frequency", True),
                     ("epsilon", "scalar", True),
                     ("eps_pol", "scalar", True),
                     ("gamma", "frequency", True),
                     ("t2star_bare", "time", True),
                     ("cross_check", "bool", False)),
    "gates": (("gate", "str", True), ("omega_g", "frequency", True),
              ("delta_r", "frequency", False)),
    "sense": (("variant", "str", False),
              ("signal_freq", "frequency", True),
              ("signal_rabi", "frequency", True),
              ("phase_policy", "str", False),
              ("interrogation_time", "time", False),
              ("readout_basis", "str", False),
              ("detuning", "frequency", False),
              ("n_draws", "int", False), ("n_traj", "int", False)),
    "compare": (("n_traj", "int", False),
                ("horizon_in_bare_t2", "scalar", False)),
}

_NEEDS_CONSTRUCTION = {"analyze", "evolve", "gates", "sense", "compare"}


def parse_scenario(data: dict) -> Scenario:
    problems: list[str] = []
    root = _Section(data, "scenario", problems)
    protocol = root.choice("protocol", PROTOCOLS, required=True)
    label = root.get("label", "str", default="")
    seed = root.get("seed", "int", default=0)

    scheme_section = root.subsection("scheme", required=True)
    scheme = _parse_scheme(scheme_section) if scheme_section else {}

    needs_con = protocol in _NEEDS_CONSTRUCTION if protocol else False
    con_section = root.subsection("construction", required=needs_con)
    construction = _parse_construction(con_section) if con_section else None

    noise_section = root.subsection("noise")
    noise = _parse_noise(noise_section) if noise_section else None
    if protocol == "compare" and noise is None:
        problems.append("scenario.noise: required for the compare protocol")

    params: dict = {}
    if protocol:
        section = root.subsection(protocol.replace("-", "_"))
        fields = _PARAM_FIELDS[protocol]
        needs_section = any(required for _, _, required in fields)
        if section is None and needs_section:
            problems.append(f"scenario.{protocol.replace('-', '_')}: "
                            "required section")
        elif section is not None:
            for name, kind, required in fields:
                value = section.get(name, kind, required=required)
                if value is not None:
                    params[name] = value
            section.finish()

    sweep_section = root.subsection("sweep")
    sweep = None
    if sweep_section is not None:
        sweep = {
            "field": sweep_section.get("field", "str", required=True),
            "values": sweep_section.get("values", "raw"),
        }
        grid_keys = ("start", "stop", "num", "spacing")
        if sweep["values"] is None:
            grid = {k: sweep_section.get(
                k, "int" if k == "num" else
                   "str" if k == "spacing" else "frequency",
                required=(k != "spacing")) for k in grid_keys}
            spacing = grid["spacing"] or "linear"
            if spacing not in ("linear", "log"):
                problems.append("scenario.sweep.spacing: expected linear|log")
            if None not in (grid["start"], grid["stop"], grid["num"]):
                if spacing == "log":
                    if grid["start"] <= 0 or grid["stop"] <= 0:
                        problems.append(
                            "scenario.sweep: log spacing needs positive "
                            "start/stop")
                    else:
                        sweep["values"] = list(_logspace(
                            grid["start"], grid["stop"], grid["num"]))
                else:
                    step = (grid["stop"] - grid["start"]) \
                        / max(grid["num"] - 1, 1)
                    sweep["values"] = [grid["start"] + step * i
                                      for i in range(grid["num"])]
        else:
            try:
                sweep["values"] = [parse_frequency(v)
                                   for v in sweep["values"]]
            except (TypeError, ValueError) as exc:
                problems.append(f"scenario.sweep.values: {exc}")
        sweep_section.finish()

    root.finish()
    if problems:
        raise ScenarioError(problems)
    return Scenario(protocol=protocol, scheme=scheme,
                    construction=construction, params=params, noise=noise,
                    sweep=sweep, seed=seed, label=label or "")


def _logspace(start: float, stop: float, num: int) -> list[float]:
    """Log-spaced grid without importing numpy at parse time."""
    if num == 1:
        return [start]
    ratio = (stop / start) ** (1.0 / (num - 1))
    return [start * ratio ** i for i in range(num)]


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: top level must be a mapping"])
    return parse_scenario(data)


# ------------------------------------------------------- object construction


def build_scheme(scenario: Scenario) -> LevelScheme:
    kwargs = {k: v for k, v in scenario.scheme.items() if k != "preset"}
    return preset(scenario.scheme["preset"], **kwargs)


def build_construction(scenario: Scenario,
                       scheme: LevelScheme) -> Construction:
    spec = dict(scenario.construction)
    kind = spec.pop("kind")
    builder = {"ideal": ideal_construction, "compact": compact_construction,
               "hyperfine": hyperfine_construction}[kind]
    omega = spec.pop("omega")
    b = spec.pop("b")
    if kind == "hyperfine":
        spec.setdefault("lower", "F1")
        spec.setdefault("upper", "F2")
    return builder(scheme, b, omega, **spec)


def build_noise(scenario: Scenario) -> NoiseProcess | None:
    if scenario.noise is None:
        return None
    spec = dict(scenario.noise)
    spec.setdefault("seed", scenario.seed)
    return NoiseProcess(**spec)
