"""Per-layer tracing: spans around the public functions of each module.

``Tracer.install`` wraps every function a layer exports in ``__all__``
(plus the matrix-building ``LevelScheme`` methods) and patches each
darkqubit namespace that binds it, the ``darkqubit`` package included,
so calls made inside the program are seen as well as the benchmark's
own.  A span records (key, start, end, parent, job); spans stay in memory
until the pass ends.  ``TimeDependentHamiltonian.evaluate`` runs once per
DOP853 right-hand side, so it only increments a counter: its time stays
inside the enclosing ``dynamics.dop853`` span.  ``uninstall`` restores the
originals, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scenario", "cli", "levels", "angular", "driving", "subspace",
          "dynamics", "noise", "gates", "sensing", "budget")

# Functions whose time a per-layer metric reports on its own; every other
# wrapped function spans under its layer's name.  A key "a.b.c" also
# counts towards the self time of "a.b" and "a".
KEYS = {
    "scenario.load_scenario": "scenario.load",
    "scenario.parse_scenario": "scenario.load.parse",
    "cli.run_scenario": "cli.run",
    "cli.emit_plot_data": "cli.emit",
    "angular.clebsch_gordan": "angular.cg",
    "levels.dipole_coupling": "levels.dipole_coupling",
    "driving.build_lab_hamiltonian": "driving.construct",
    "driving.ideal_construction": "driving.construct",
    "driving.compact_construction": "driving.construct",
    "driving.hyperfine_construction": "driving.construct",
    "driving.to_rotating_frame": "driving.rotating_frame",
    "subspace.find_protected_subspace": "subspace.find",
    "dynamics.evolve_stroboscopic": "dynamics.stroboscopic",
    "dynamics.evolve_lindblad": "dynamics.lindblad",
    "dynamics.liouvillian": "dynamics.lindblad.liouvillian",
    "dynamics.fit_decay": "dynamics.fit",
    "noise.evolve_noisy": "noise.propagate",
    "noise.sample_trajectories": "noise.sample",
    "gates.extract_effective_hamiltonian": "gates.extract",
}
# Split by ham.is_static into "dynamics.spectral" / "dynamics.dop853".
UNITARY = ("evolve_unitary", "propagator")
LEVEL_SCHEME_METHODS = ("dipole_coupling", "spin_operator",
                        "static_hamiltonian", "zeeman_generator", "jz_total",
                        "projector", "basis_state", "collapse_operators",
                        "all_collapse_operators")

SELF_KEYS = ("noise.propagate", "noise.sample", "dynamics.dop853",
             "dynamics.stroboscopic", "gates.extract", "dynamics.lindblad",
             "dynamics.fit", "dynamics.spectral", "scenario.load",
             "driving.construct", "driving.rotating_frame", "levels",
             "angular", "subspace.find", "cli.run", "cli.emit", "budget",
             "sensing", "gates")
CALL_KEYS = ("dynamics.dop853", "dynamics.lindblad", "dynamics.fit",
             "dynamics.spectral", "scenario.load", "driving.rotating_frame",
             "levels.dipole_coupling", "angular.cg", "subspace.find")

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    **{f"{key}.self_s": "s" for key in SELF_KEYS},
    **{f"{key}.calls": "count" for key in CALL_KEYS},
    "noise.calls": "count",
    "noise.traj_steps": "count",
    "noise.traj_steps_per_s": "1/s",
    "driving.evaluate.calls": "count",
    "dynamics.rhs_per_point": "ratio",
    "cli.out.bytes": "B",
    "cli.out.files": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}
# Times and rates of layers that one workload never runs, by design: noise
# on harmonic-dynamics; DOP853, stroboscopic and Lindblad propagation on
# the other two; the spectral path, gate extraction, budgets and sensing on
# noise-ensemble.  There they read exactly 0 on every run, which a result
# line may not report as a measured time, so the result line (and
# BENCHMARK.json) leaves them out.  The printed report and the record in
# .bench_out/ keep every metric.
ZERO_ON_SOME_WORKLOAD = (
    "noise.propagate.self_s", "noise.sample.self_s", "noise.traj_steps_per_s",
    "dynamics.dop853.self_s", "dynamics.stroboscopic.self_s",
    "gates.extract.self_s", "dynamics.lindblad.self_s",
    "dynamics.spectral.self_s", "budget.self_s", "sensing.self_s")
RESULT_LINE = tuple(name for name in PER_LAYER
                    if name not in ZERO_ON_SOME_WORKLOAD)


class Tracer:
    """Span recorder; wrappers are live only between install/uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, fn, key_for):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            key = key_for(args, kwargs) if callable(key_for) else key_for
            record = [key, perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _unitary_key(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def key(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            if getattr(bound.arguments["ham"], "is_static", True):
                return "dynamics.spectral"
            times = bound.arguments.get("times")
            counts["dynamics.dop853.points"] += \
                1 if times is None else len(times)
            return "dynamics.dop853"
        return key

    def _noise_key(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def key(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            steps = len(bound.arguments["times"]) - 1
            counts["noise.traj_steps"] += bound.arguments["n_traj"] * steps
            return "noise.propagate"
        return key

    def _key_for(self, layer: str, name: str, fn):
        if layer == "dynamics" and name in UNITARY:
            return self._unitary_key(fn)
        if layer == "noise" and name == "evolve_noisy":
            return self._noise_key(fn)
        return KEYS.get(f"{layer}.{name}", layer)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"darkqubit.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (
                        fn, self._wrap(fn, self._key_for(layer, name, fn)))
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "darkqubit" or name.startswith("darkqubit.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])

        from darkqubit.driving import TimeDependentHamiltonian
        from darkqubit.levels import LevelScheme
        for name in LEVEL_SCHEME_METHODS:
            method = vars(LevelScheme)[name]
            self._patch(LevelScheme, name, self._wrap(
                method, KEYS.get(f"levels.{name}", "levels")))
        evaluate = vars(TimeDependentHamiltonian)["evaluate"]
        counts = self.counts

        def counted_evaluate(ham, t):
            counts["driving.evaluate"] += 1
            return evaluate(ham, t)
        self._patch(TimeDependentHamiltonian, "evaluate", counted_evaluate)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span key."""
        covered = [0.0] * len(self.spans)
        for key, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (key, start, end, parent, job) in enumerate(self.spans):
            totals[key] += end - start - covered[index]
            calls[key] += 1
        return totals, calls

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (output bytes excluded)."""
        totals, calls = self.self_times()

        def self_time(prefix):
            return sum((v for k, v in totals.items()
                        if k == prefix or k.startswith(prefix + ".")), 0.0)

        out = {f"{key}.self_s": self_time(key) for key in SELF_KEYS}
        out.update({f"{key}.calls": calls[key] for key in CALL_KEYS})
        steps = self.counts["noise.traj_steps"]
        propagate = out["noise.propagate.self_s"]
        points = self.counts["dynamics.dop853.points"]
        out.update({
            "noise.calls": calls["noise.propagate"],
            "noise.traj_steps": steps,
            "noise.traj_steps_per_s": steps / propagate if propagate else 0.0,
            "driving.evaluate.calls": self.counts["driving.evaluate"],
            "dynamics.rhs_per_point":
                self.counts["driving.evaluate"] / points if points else 0.0,
            "trace.coverage_ratio": sum(totals.values()) / wall,
        })
        return out

    def write(self, path: str, origin: float) -> None:
        """Spans as JSON lines, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": key, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "job": job}) + "\n")
