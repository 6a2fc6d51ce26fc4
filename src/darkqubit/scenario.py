"""Scenario files: strict parsing, unit normalization, deterministic hashing.

A scenario is a YAML mapping that selects a level scheme, a driving
construction, and one protocol (analyze, evolve, error-budget, gates,
sense, compare), with every dimensioned value carrying an explicit unit.
Frequencies normalize to rad/s ("100 MHz" and "2pi*100 MHz" are two
spellings of the same angular frequency; "rad/s" suffixes are taken raw),
times to seconds.

What a file may hold follows one rule.  A section that feeds a function
(_CALLEES) takes that function's parameters as keys, less the arguments
the CLI supplies itself, and requires those without a default.  Its
selector (preset, kind, gate or variant) picks the function, and a key
that only another choice takes is rejected.  Signatures are read once,
at import; _KINDS gives each key's kind, the one fact a signature cannot
carry, and _SECTIONS the sections each protocol reads.  The exceptions
are written out: sense.signal_freq is required though the hyperfine
variant drops it; the optical sense variant's interrogation_time and
n_traj depend on a noise section (_OPTICAL_NOISE_UNREAD); error-budget
takes only ``scheme: {preset: ca40_dp}``; a nonzero amp_error is
rejected; OU noise requires tau_c; and the sweep section and the evolve
keys (_EVOLVE_KEYS, read by the CLI itself) have tables of their own.
All problems in a file are reported together.  The canonical form
(sorted keys, normalized numbers) feeds a sha256 hash that output files
embed for provenance.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import re
from dataclasses import dataclass

import yaml

from . import budget, driving, gates, levels, noise, sensing

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


def _what(kind) -> str:
    return kind if isinstance(kind, str) else f"one of {sorted(kind)}"


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
                self.problems.append(
                    f"{self.path}.{key}: required ({_what(kind)})")
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


# ------------------------------------------------------------- section keys


def _required(**kinds) -> dict:
    return {key: (kind, True) for key, kind in kinds.items()}


def _optional(**kinds) -> dict:
    return {key: (kind, False) for key, kind in kinds.items()}


_TOP_FIELDS = {**_required(protocol=PROTOCOLS),
               **_optional(label="str", seed="int")}

# The kind of each key a section may hold, the one fact a signature does
# not carry: a _PARSERS name or a tuple of the strings allowed.
_KINDS = {
    **dict.fromkeys(("omega0", "gamma", "gamma_s", "gamma_d", "omega_s",
                     "omega_hf", "omega", "b", "rwa_cutoff", "sigma",
                     "delta_b", "omega_g", "delta_r", "signal_freq",
                     "signal_rabi", "detuning"), "frequency"),
    **dict.fromkeys(("tau_c", "t2star_bare", "interrogation_time",
                     "duration"), "time"),
    **dict.fromkeys(("g1", "g2", "amp_error", "pol_leak", "epsilon",
                     "eps_pol", "horizon_in_bare_t2"), "scalar"),
    **dict.fromkeys(("seed", "n_draws", "n_traj", "points"), "int"),
    "cross_check": "bool", "lower": "str", "upper": "str",
    "kind": noise.KINDS, "phase_policy": sensing.PHASE_POLICIES,
    "readout_basis": sensing.READOUT_BASES,
    "initial": ("D1", "D2", "superposition"),
}


# {section: (selector, {choice: function}, the arguments the CLI supplies
# from outside the section, wording)}; a lone function's choice is None.
# The parser reads a section's keys from its functions' signatures, and
# the CLI calls the one chosen (callee).  A section with a wording reads
# any choice's keys; the wording is how a problem names a key only other
# choices take, and what a choice is.  A scheme reads its preset's keys
# alone, and another preset's are unknown keys.
_CALLEES = {
    "scheme": ("preset", levels._PRESETS, (), None),
    "construction": ("kind", {"ideal": driving.ideal_construction,
                              "compact": driving.compact_construction,
                              "hyperfine": driving.hyperfine_construction},
                     ("scheme",), ("only the {kind} construction takes it",
                                   "construction")),
    # An unset seed follows the scenario seed (build_noise).
    "noise": (None, {None: noise.NoiseProcess}, (), None),
    "error_budget": (None, {None: budget.total_budget}, (), None),
    "gates": ("gate", {"microwave": gates.microwave_sigma_y,
                       "raman": gates.raman_sigma_x}, ("con",),
              ("the {choice} gate does not read it", "gate")),
    "sense": ("variant", {"optical-D32": sensing.run_ac_sensing,
                          "hyperfine": sensing.run_hyperfine_sensing},
              ("con", "noise", "seed"),
              ("the {choice} sense variant does not read it",
               "sense variant")),
    "compare": (None, {None: sensing.coherence_comparison}, ("con", "noise"),
                None),
}

# {section: {choice: {parameter: required}}}, read once at import; a
# parameter without a default is required.
_PARAMETERS = {name: {choice: {param: p.default is p.empty for param, p in
                               inspect.signature(fn).parameters.items()}
                      for choice, fn in functions.items()}
               for name, (_, functions, _, _) in _CALLEES.items()}
# The hyperfine drive sits at the stretched resonance, so
# run_hyperfine_sensing takes no signal_freq; a sense section requires it
# all the same, because the benchmark's hyperfine sense template sets it.
_PARAMETERS["sense"]["hyperfine"]["signal_freq"] = True

# cli._run_evolve reads the evolve section itself, so no signature gives
# its keys: {key: required}.
_EVOLVE_KEYS = {"initial": True, "duration": True, "points": False,
                "n_traj": False}

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
# The sense section comes after the construction and noise it depends on.
_READ_ORDER = ("scheme", *dict.fromkeys(
    name for names in _SECTIONS.values() for name in names))

# The sense keys the optical variant drops, by whether a noise section is
# given: with one, T2 is fitted from trajectories and replaces
# interrogation_time; without one, no trajectories run.
_OPTICAL_NOISE_UNREAD = {True: "interrogation_time", False: "n_traj"}

_UNITS = {"frequency": "rad/s", "time": "s", "scalar": ""}
# A sweep varies one numeric error_budget input.
_SWEEP_KINDS = {f"error_budget.{key}": _KINDS[key]
                for key in _PARAMETERS["error_budget"][None]
                if _KINDS[key] in _UNITS}


def callee(section: str, choice: str | None = None):
    """The function a section's keys go to, looked up on its module at
    each call, so that a wrapper installed there after import is run."""
    fn = _CALLEES[section][1][choice]
    return getattr(inspect.getmodule(fn), fn.__name__)


def input_unit(name: str) -> str:
    """Unit of a parsed scenario input: "rad/s", "s" or "" (scalar)."""
    return _UNITS[_KINDS[name]]


def _section_fields(name: str, choice) -> dict:
    """{key: (kind, required)} of a _CALLEES section for a choice (None:
    no valid one).  A section with a wording reads any choice's keys, each
    required if every choice requires it; a scheme its preset's alone."""
    selector, functions, supplied, wording = _CALLEES[name]
    pool = _PARAMETERS[name].values() if wording else [
        _PARAMETERS[name].get(choice, {})]
    fields = {key: (_KINDS[key], all(params.get(key, False)
                                     for params in pool))
              for params in pool for key in params if key not in supplied}
    if selector:
        # An unset sense variant follows the construction (sense_variant).
        fields[selector] = (tuple(functions), name != "sense")
    return fields


# The field tables by section and choice, built at import: building them
# per parse would double parse_scenario's time.
_FIELDS = {name: {choice: _section_fields(name, choice)
                  for choice in (*functions, None)}
           for name, (_, functions, _, _) in _CALLEES.items()}


def _read_callee(section, name: str, read: dict):
    """(choice, keys) of a _CALLEES section; read holds those before it."""
    selector, functions, supplied, wording = _CALLEES[name]
    choice = str(section.data.get(selector)) if selector else None
    choice = choice if choice in functions else None
    if name == "sense":
        # An unset variant follows the construction (sense_variant).
        construction = read.get("construction")
        choice = sense_variant(choice, construction) if construction else None
    fields = _FIELDS[name][choice]
    out = section.read(fields)
    if choice is None or wording is None:
        return choice, out
    own, (unread, noun) = _PARAMETERS[name][choice], wording
    for key in [key for key in out if key not in own and key != selector]:
        del out[key]
        takers = "/".join(c for c, params in _PARAMETERS[name].items()
                          if key in params)
        section.problems.append(f"{section.path}.{key}: "
                                + unread.format(choice=choice, kind=takers))
    for key, required in own.items():
        # Required by this choice and not by every one.
        if required and key in fields and not fields[key][1] \
                and key not in out:
            section.problems.append(f"{section.path}.{key}: required for the "
                                    f"{choice} {noun} "
                                    f"({_what(fields[key][0])})")
    for arg in supplied:
        # A section passed as an argument the function does not take.
        if arg in read and arg not in own:
            section.problems.append(f"scenario.{arg}: "
                                    + unread.format(choice=choice))
    return choice, out


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
    root.seen.update(_READ_ORDER)
    top = root.read(_TOP_FIELDS)
    protocol = top.get("protocol")
    wanted = {"scheme": True, **_SECTIONS.get(protocol, {})}

    # With no valid protocol, every section is read for its own problems.
    read, choices = {}, {}
    for name in _READ_ORDER:
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
        elif name in _CALLEES:
            choices[name], read[name] = _read_callee(section, name, read)
        else:  # evolve, or analyze, which takes no keys
            keys = _EVOLVE_KEYS if name == "evolve" else {}
            read[name] = section.read({key: (_KINDS[key], required)
                                       for key, required in keys.items()})
    scheme, construction = read.get("scheme", {}), read.get("construction")
    params = read.get((protocol or "").replace("-", "_"), {})

    if construction and construction.get("amp_error", 0.0) != 0.0:
        # The tilted dark pair carries <Jz> ~ 3 eps/4 (budget.py), far
        # above the dark-pair finder's JZ_TOL.
        problems.append("scenario.construction.amp_error: a nonzero "
                        "amplitude error leaves no Jz-dark pair for any "
                        "protocol to find; the error-budget protocol "
                        "models it (error_budget.epsilon)")
    if read.get("noise", {}).get("kind") == "ornstein-uhlenbeck" \
            and "tau_c" not in read["noise"]:
        # tau_c defaults to None, which only the quasi-static kind takes.
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
    if choices.get("sense") == "optical-D32":
        noisy = "noise" in read
        key = _OPTICAL_NOISE_UNREAD[noisy]
        if key in read["sense"]:
            given = "with" if noisy else "without"
            problems.append(f"scenario.sense.{key}: the optical-D32 sense "
                            f"variant does not read it {given} a noise "
                            "section")

    if problems:
        raise ScenarioError(problems)
    return Scenario(protocol=protocol, scheme=scheme,
                    construction=construction, params=params,
                    noise=read.get("noise"), sweep=read.get("sweep"),
                    seed=top.get("seed", 0), label=top.get("label", ""))


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


def build_scheme(scenario: Scenario) -> levels.LevelScheme:
    kwargs = dict(scenario.scheme)
    return callee("scheme", kwargs.pop("preset"))(**kwargs)


def build_construction(scenario: Scenario) -> driving.Construction:
    """The scenario's construction on its own scheme (build_scheme)."""
    kwargs = dict(scenario.construction)
    return callee("construction", kwargs.pop("kind"))(
        build_scheme(scenario), **kwargs)


def build_noise(scenario: Scenario) -> noise.NoiseProcess | None:
    if scenario.noise is None:
        return None
    return callee("noise")(**{"seed": scenario.seed, **scenario.noise})
