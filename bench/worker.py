"""One workload process: set up, then run passes over the job list.

Started by ``run.py`` in a fresh interpreter for each sample.  Set-up is
what every darkqubit CLI invocation pays before its first job: importing
``darkqubit.cli`` and loading and validating the generated scenarios.
The worker writes the CLOCK_MONOTONIC instant it became ready, so the
parent can time set-up from the moment it spawned the process.

Modes:
  setup  stop once ready (a set-up sample);
  run    warm-up, then timed passes, untraced, for --seconds;
  trace  warm-up, then alternating untraced and traced passes for
         --seconds; the traced ones give the per-layer metrics.

The warm-up runs the first job of each check type once, which takes
every code path of the workload through its first call (lazy imports,
caches) without the cost of a whole pass.  At least MIN_PASSES timed
passes run, so every run has a median of several.

Between jobs, every GAUGE_EVERY_S of job time and at both ends of a
pass, the worker times the reference kernel (reference.py).  Its times
gauge the host's speed around each job; the kernel's own time is left
out of the pass wall and of every latency.

Every pass runs the output checks after its last job, outside the timed
region, and hashes each job's outputs so passes can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import scenarios  # stdlib only, so set-up measures darkqubit

MIN_PASSES = 4
# The reference kernel gauges the host after every GAUGE_EVERY_S seconds of
# jobs, for GAUGE_SHARE of the time since the last gauge, so that a long
# job's speed rests on as many kernel runs as it can afford; a pass opens
# with GAUGE_FIRST seconds of it.
GAUGE_EVERY_S = 0.25
GAUGE_SHARE = 0.1
GAUGE_FIRST = 0.1


def _setup(manifest: str):
    import darkqubit.cli  # noqa: F401  (what the CLI imports)
    from darkqubit.scenario import load_scenario

    workload, seed, jobs = scenarios.load_manifest(manifest)
    scenario_dir = os.path.dirname(manifest)
    for job in jobs:
        if job.file is not None:
            load_scenario(os.path.join(scenario_dir, job.file))
    return jobs, scenario_dir


def _run_pass(jobs, scenario_dir, out_root, tracer=None) -> dict:
    import gc
    from time import perf_counter

    import checks
    import jobs as runner
    import reference

    gc.collect()
    latency, segment, outputs, failures = {}, {}, {}, {}
    # Reference-kernel times between jobs, every GAUGE_EVERY_S and at both
    # ends; a job ran in segment k, between gauge[k] and gauge[k + 1].
    gauge = [reference.gauge(GAUGE_FIRST)]
    gauged = 0.0  # time spent in the reference kernel, left out of the wall
    start = last_gauge = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job.id
        t0 = perf_counter()
        try:
            outputs[job.id] = runner.execute(job, scenario_dir, out_root)
        except Exception as exc:  # a failed job is counted, not fatal
            failures[job.id] = [f"raised {type(exc).__name__}: {exc}"]
        else:
            latency[job.id] = perf_counter() - t0
            segment[job.id] = len(gauge) - 1
        t1 = perf_counter()
        if t1 - last_gauge >= GAUGE_EVERY_S or index + 1 == len(jobs):
            gauge.append(reference.gauge(GAUGE_SHARE * (t1 - last_gauge)))
            last_gauge = perf_counter()
            gauged += last_gauge - t1
    wall = perf_counter() - start - gauged

    record = {"wall": wall, "origin": start, "latency": latency,
              "gauge": gauge, "segment": segment, "digest": {},
              "failures": failures, "golden_rule": {}, "out_bytes": 0,
              "out_files": 0}
    for job in jobs:
        output = outputs.get(job.id)
        if output is None:
            continue
        try:
            problems = checks.check(job, output)
        except Exception as exc:  # unreadable output fails its job
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[job.id] = problems
        record["digest"][job.id] = runner.digest(output)
        if job.kind == "golden_rule":
            record["golden_rule"][job.id] = {
                "x": job.args["x"], "ratio": output["ratio"],
                "miss": checks.golden_rule_miss(output)}
        for path in runner.output_files(output):
            record["out_files"] += 1
            record["out_bytes"] += os.path.getsize(path)
    return record


def _library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="file for the last traced pass")
    args = parser.parse_args(argv)

    jobs, scenario_dir = _setup(args.manifest)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode != "setup":
        import resource

        import darkqubit
        import spans

        result["darkqubit"] = os.path.dirname(darkqubit.__file__)
        out_root = os.path.join(scenario_dir, "out")
        warmup = list({job.check: job for job in reversed(jobs)}.values())
        result["warmup"] = _run_pass(warmup, scenario_dir, out_root)
        passes = []
        tracer = spans.Tracer() if args.mode == "trace" else None
        begin = time.monotonic()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                record = _run_pass(jobs, scenario_dir, out_root,
                                   tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            record["traced"] = traced
            if traced:
                record["layers"] = tracer.layer_metrics(record["wall"])
                if args.spans:
                    tracer.write(args.spans, record["origin"])
            passes.append(record)
            if (len(passes) >= MIN_PASSES
                    and time.monotonic() - begin >= args.seconds):
                break
        result["passes"] = passes
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["versions"] = _library_versions()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
