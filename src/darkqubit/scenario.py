"""Scenario files: strict parsing, unit normalization, deterministic hashing.

A scenario is a YAML mapping that selects a level scheme, a driving
construction, and one protocol (analyze, evolve, error-budget, gates,
sense, compare), with every dimensioned value carrying an explicit unit.
Frequencies normalize to rad/s ("100 MHz" and "2pi*100 MHz" are two
spellings of the same angular frequency; "rad/s" suffixes are taken raw),
times to seconds.

What a file may hold is data: a field table per section gives each key's
kind and whether it is required, _SECTIONS the sections each protocol
reads, and _VARIANT_UNREAD what each sense variant never reads (the
optical one also by whether noise is given, _OPTICAL_NOISE_UNREAD).  One
reader, _Section.read, parses a section from its table.  The gates,
sense and compare sections are the keyword arguments of the function the
CLI hands them to.  A key or section the run would not read is rejected,
and all problems in a file are reported together.  The canonical form
(sorted keys, normalized numbers) feeds a sha256 hash that output files
embed for provenance.
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
from .sensing import PHASE_POLICIES, READOUT_BASES

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_frequency",
    "parse_time",
    "input_unit",
    "load_scenario",
    "parse_scenario",
    "build_scheme",
    "build_construction",
    "build_noise",
]

PROTOCOLS = ("analyze", "evolve", "error-budget", "gates", "sense", "compare")
SENSING_SCHEMES = ("optical-D32", "hyperfine")

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


def _parse_int(value) -> int:
    try:
        if isinstance(value, bool) or int(value) != float(value):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {value!r}") from None


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true/false, got {value!r}")


_PARSERS = {"frequency": parse_frequency, "time": parse_time,
            "scalar": parse_scalar, "int": _parse_int, "bool": _parse_bool,
            "str": str}


def _parse(kind, raw):
    """raw read as kind: a _PARSERS name, a tuple of the strings allowed,
    or [kind] for a list of values of that kind."""
    if isinstance(kind, list):
        return [_parse(kind[0], value) for value in raw]
    if isinstance(kind, tuple):
        if str(raw) not in kind:
            raise ValueError(f"{str(raw)!r} not one of {sorted(kind)}")
        return str(raw)
    return _PARSERS[kind](raw)


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

    def read(self, fields) -> dict:
        """Parse the keys of a field table {key: (kind, required)}; a missing
        required key, a bad value and an unnamed key are problems."""
        out = {}
        for key, (kind, required) in fields.items():
            self.seen.add(key)
            if key in self.data:
                try:
                    out[key] = _parse(kind, self.data[key])
                except (TypeError, ValueError) as exc:
                    self.problems.append(f"{self.path}.{key}: {exc}")
            elif required:
                what = kind if isinstance(kind, str) else \
                    f"one of {sorted(kind)}"
                self.problems.append(f"{self.path}.{key}: required ({what})")
        for key in sorted(set(self.data) - self.seen):
            self.problems.append(f"{self.path}.{key}: unknown key")
        return out

    def subsection(self, key, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problems.append(f"{self.path}.{key}: required section")
            return None
        return _Section(self.data[key], f"{self.path}.{key}", self.problems)


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


# ------------------------------------------------------------ field tables


def _required(**kinds) -> dict:
    return {key: (kind, True) for key, kind in kinds.items()}


def _optional(**kinds) -> dict:
    return {key: (kind, False) for key, kind in kinds.items()}


_TOP_FIELDS = {**_required(protocol=PROTOCOLS),
               **_optional(label="str", seed="int")}

# The keyword arguments of each level-scheme preset.
_SCHEME_KWARGS = {
    "ca40_dp": _optional(omega0="frequency", gamma="frequency"),
    "ca40_sdp": _optional(omega0="frequency", gamma_s="frequency",
                          gamma_d="frequency", omega_s="frequency"),
    "d52_p32": _optional(omega0="frequency", gamma="frequency"),
    "hyperfine_f1f2": _optional(omega_hf="frequency", g2="scalar"),
    "hyperfine_f0f1": _optional(omega_hf="frequency", g1="scalar"),
}

_CONSTRUCTION_FIELDS = {
    **_required(kind=("ideal", "compact", "hyperfine"), omega="frequency",
                b="frequency"),
    **_optional(lower="str", upper="str", amp_error="scalar",
                pol_leak="scalar", rwa_cutoff="frequency"),
}
# Keys that act on the compact construction's two fields only.
_COMPACT_ONLY = ("amp_error", "pol_leak")

# An unset seed follows the scenario seed (build_noise).
_NOISE_FIELDS = {**_required(kind=NOISE_KINDS, sigma="frequency"),
                 **_optional(tau_c="time", seed="int")}

# Each protocol's parameters, read from the section named after it.
_PARAM_FIELDS = {
    "analyze": {},
    "evolve": {**_required(initial=("D1", "D2", "superposition"),
                           duration="time"),
               **_optional(points="int", n_traj="int")},
    "error-budget": {**_required(omega="frequency", b="frequency",
                                 delta_b="frequency", epsilon="scalar",
                                 eps_pol="scalar", gamma="frequency",
                                 t2star_bare="time"),
                     **_optional(cross_check="bool")},
    "gates": {**_required(gate=("microwave", "raman"), omega_g="frequency"),
              **_optional(delta_r="frequency")},
    "sense": {**_required(signal_freq="frequency", signal_rabi="frequency"),
              **_optional(variant=SENSING_SCHEMES,
                          phase_policy=PHASE_POLICIES,
                          interrogation_time="time",
                          readout_basis=READOUT_BASES, detuning="frequency",
                          n_draws="int", n_traj="int")},
    "compare": _optional(n_traj="int", horizon_in_bare_t2="scalar"),
}

# The top-level sections each protocol reads -> whether it is required.
# Every protocol also takes the scheme.
_SECTIONS = {
    "analyze": {"construction": True, "analyze": False},
    "evolve": {"construction": True, "noise": False, "evolve": True},
    "error-budget": {"error_budget": True, "sweep": False},
    "gates": {"construction": True, "gates": True},
    "sense": {"construction": True, "noise": False, "sense": True},
    "compare": {"construction": True, "noise": True, "compare": False},
}

_SECTION_FIELDS = {
    "construction": _CONSTRUCTION_FIELDS, "noise": _NOISE_FIELDS,
    **{p.replace("-", "_"): fields for p, fields in _PARAM_FIELDS.items()}}

# The sections and sense keys each sense variant never reads.
_VARIANT_UNREAD = {
    "hyperfine": (("noise",), ("n_traj", "phase_policy", "readout_basis",
                               "n_draws")),
    "optical-D32": ((), ("detuning",)),
}
# The sense keys the optical variant drops, by whether a noise section is
# given: with one, T2 is fitted from trajectories and replaces
# interrogation_time; without one, no trajectories run.
_OPTICAL_NOISE_UNREAD = {True: "interrogation_time", False: "n_traj"}

_UNITS = {"frequency": "rad/s", "time": "s", "scalar": ""}
# A sweep varies one numeric error_budget input.
_SWEEP_KINDS = {f"error_budget.{name}": kind
                for name, (kind, _) in _PARAM_FIELDS["error-budget"].items()
                if kind in _UNITS}


def input_unit(protocol: str, name: str) -> str:
    """Unit of a parsed protocol input: "rad/s", "s" or "" (scalar)."""
    return _UNITS[_PARAM_FIELDS[protocol][name][0]]


def _parse_sweep(section) -> dict:
    """A sweep over one numeric error_budget input.

    values, or the start/stop grid, are parsed with the swept input's own
    kind: a time takes "10 us", a scalar stays a bare number.
    """
    kind = _SWEEP_KINDS.get(str(section.data.get("field")))
    if kind is None:
        # Without the input's kind its values cannot be read.
        section.seen.update(("values", "start", "stop", "num", "spacing"))
        grid = {}
    elif "values" in section.data:
        grid = _required(values=[kind])
    else:
        grid = {**_required(start=kind, stop=kind, num="int"),
                **_optional(spacing=("linear", "log"))}
    got = section.read({**_required(field=tuple(_SWEEP_KINDS)), **grid})
    values = got.get("values")
    start, stop, num = (got.get(key) for key in ("start", "stop", "num"))
    log = got.get("spacing") == "log"
    if None not in (start, stop, num) and log and min(start, stop) <= 0:
        section.problems.append(f"{section.path}: log spacing needs "
                                "positive start/stop")
    elif None not in (start, stop, num):
        values = _grid(start, stop, num, log)
    return {"field": got.get("field"), "values": values}


def parse_scenario(data: dict) -> Scenario:
    problems: list[str] = []
    root = _Section(data, "scenario", problems)
    # Sections are read below; read() flags only the other unknown keys.
    root.seen.update(("scheme", "sweep", *_SECTION_FIELDS))
    top = root.read(_TOP_FIELDS)
    protocol = top.get("protocol")
    wanted = _SECTIONS.get(protocol, {})

    scheme = {}
    section = root.subsection("scheme", required=True)
    if section is not None:
        kwargs = _SCHEME_KWARGS.get(str(section.data.get("preset")), {})
        scheme = section.read({**_required(preset=tuple(_SCHEME_KWARGS)),
                               **kwargs})

    # With no valid protocol, every section is read for its own problems.
    read = {}
    for name in (*_SECTION_FIELDS, "sweep"):
        section = root.subsection(name, required=wanted.get(name, False))
        if section is None:
            continue
        if protocol and name not in wanted:
            readers = [p for p, names in _SECTIONS.items() if name in names]
            verb = "protocols take" if len(readers) > 1 else "protocol takes"
            article = "an" if name[0] in "aeiou" else "a"
            problems.append(f"scenario.{name}: only the {'/'.join(readers)} "
                            f"{verb} {article} {name} section")
        elif name == "sweep":
            read[name] = _parse_sweep(section)
        else:
            read[name] = section.read(_SECTION_FIELDS[name])
    construction, noise = read.get("construction"), read.get("noise")
    params = read.get((protocol or "").replace("-", "_"), {})

    if construction and construction.get("kind") in ("ideal", "hyperfine"):
        problems += [f"scenario.construction.{key}: only the compact "
                     "construction takes it"
                     for key in _COMPACT_ONLY if key in construction]
    elif construction and construction.get("amp_error", 0.0) != 0.0:
        # The tilted dark pair carries <Jz> ~ 3 eps/4 (budget.py), far
        # above the dark-pair finder's JZ_TOL.
        problems.append("scenario.construction.amp_error: a nonzero "
                        "amplitude error leaves no Jz-dark pair for any "
                        "protocol to find; the error-budget protocol "
                        "models it (error_budget.epsilon)")
    if noise and noise.get("kind") == "ornstein-uhlenbeck" \
            and "tau_c" not in noise:
        problems.append("scenario.noise.tau_c: required for "
                        "ornstein-uhlenbeck (time)")
    if protocol == "error-budget":
        # total_budget builds its own ca40_dp reference scheme.
        if scheme.get("preset", "ca40_dp") != "ca40_dp":
            problems.append("scenario.scheme.preset: the error-budget "
                            "protocol takes only ca40_dp")
        problems += [f"scenario.scheme.{key}: the error-budget protocol "
                     "does not read it" for key in sorted(scheme)
                     if key != "preset"]
    if params.get("gate") == "raman" and "delta_r" not in params:
        problems.append("scenario.gates.delta_r: required for the raman "
                        "gate (frequency)")
    if params.get("gate") == "microwave" and "delta_r" in params:
        problems.append("scenario.gates.delta_r: the microwave gate does "
                        "not read it")
    if protocol == "sense" and construction:
        variant = sense_variant(params.get("variant"), construction)
        sections, keys = _VARIANT_UNREAD[variant]
        unread = [f"scenario.{s}" for s in sections if s in read] + \
            [f"scenario.sense.{k}" for k in keys if k in params]
        problems += [f"{path}: the {variant} sense variant does not read it"
                     for path in unread]
        noisy = "noise" in read
        key = _OPTICAL_NOISE_UNREAD[noisy]
        if variant == "optical-D32" and key in params:
            given = "with" if noisy else "without"
            problems.append(f"scenario.sense.{key}: the {variant} sense "
                            f"variant does not read it {given} a noise "
                            "section")

    if problems:
        raise ScenarioError(problems)
    return Scenario(protocol=protocol, scheme=scheme,
                    construction=construction, params=params, noise=noise,
                    sweep=read.get("sweep"), seed=top.get("seed", 0),
                    label=top.get("label", ""))


def sense_variant(variant: str | None, construction: dict) -> str:
    """The sense variant a scenario runs: as written, else by construction."""
    return variant or ("hyperfine" if construction.get("kind") == "hyperfine"
                       else "optical-D32")


def _grid(start: float, stop: float, num: int, log: bool) -> list[float]:
    """Linear or log-spaced grid without importing numpy at parse time."""
    if num == 1:
        return [start]
    if log:
        ratio = (stop / start) ** (1.0 / (num - 1))
        return [start * ratio ** i for i in range(num)]
    step = (stop - start) / (num - 1)
    return [start + step * i for i in range(num)]


def load_scenario(path) -> Scenario:
    # libyaml's parser when PyYAML was built with it; same safe constructors.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                     if mark is not None else "")
            problem = getattr(exc, "problem", None) or exc
            raise ScenarioError([f"{path}: malformed YAML{where}: "
                                 f"{problem}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: top level must be a mapping"])
    return parse_scenario(data)


# ------------------------------------------------------- object construction


def build_scheme(scenario: Scenario) -> LevelScheme:
    kwargs = {k: v for k, v in scenario.scheme.items() if k != "preset"}
    return preset(scenario.scheme["preset"], **kwargs)


def build_construction(scenario: Scenario) -> Construction:
    """The scenario's construction on its own scheme (build_scheme)."""
    spec = dict(scenario.construction)
    builder = {"ideal": ideal_construction, "compact": compact_construction,
               "hyperfine": hyperfine_construction}[spec.pop("kind")]
    return builder(build_scheme(scenario), **spec)


def build_noise(scenario: Scenario) -> NoiseProcess | None:
    if scenario.noise is None:
        return None
    return NoiseProcess(**{"seed": scenario.seed, **scenario.noise})
