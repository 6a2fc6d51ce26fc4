"""darkqubit benchmark: end-to-end and per-layer timings of three workloads.

Usage, from the repository root:

  python3 bench/run.py --workload noise-ensemble --seed 1 --seconds 20
  python3 bench/run.py --workload interactive-runs --trace 1
  python3 bench/run.py                       # every workload in turn

A run instantiates the workload's scenario templates from the seed,
times set-up in several fresh processes, then runs the job list in one
more process: a warm-up, then timed passes for --seconds.  With
--trace 1 the passes alternate untraced and traced, and the run reports
per-layer metrics instead of end-to-end ones.  End-to-end times are
scaled to a fixed host speed, gauged by a reference kernel run between
jobs (reference.py); the unscaled times are printed beside them.
Output checks run on every pass.  A human-readable report goes to
stdout, the full record (samples, checks, machine fingerprint) to
.bench_out/, and the last stdout line is one JSON object: correct,
attempted, failed, metrics.

Workload processes run with one BLAS/OpenMP thread and the program from
src/ of this checkout.  See DESIGN.md for the choice of workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference
import scenarios
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 3
SETUP_GAUGE_S = 0.1  # seconds of the reference kernel around a set-up sample
RUN_DEADLINE = 170.0  # seconds; a run must finish within 180
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_norm_s": "s",
    "run_norm_s.p50": "s",
    "run_norm_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded next to the end-to-end metrics, not bounded: the
# unscaled times, and the host speed they were scaled by.
UNSCALED = {
    "wall_s": "s",
    "run_s.p50": "s",
    "run_s.p90": "s",
    "setup_raw_s": "s",
    "host_speed": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(manifest: str, mode: str, result: str, deadline: float,
           seconds: float = 0.0,
           spans_path: str | None = None) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and spawn time."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--manifest", manifest, "--mode", mode, "--result", result,
           "--seconds", repr(seconds)]
    if spans_path:
        cmd += ["--spans", spans_path]
    log = result + ".log"
    with open(log, "w", encoding="utf-8") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        raise BenchError(f"{mode} worker did not finish before the "
                         f"{RUN_DEADLINE:.0f} s deadline")
    if code != 0:
        with open(log, encoding="utf-8") as fh:
            tail = fh.read()[-4000:]
        raise BenchError(f"{mode} worker exited with {code}:\n{tail}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), spawned


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    top, commit = out.split()
    if os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return commit


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: _worker_env().get(k) for k in sorted(THREAD_ENV)},
        "git_commit": _git_commit(),
    }


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _outcome(result: dict) -> dict:
    """Failures, attempts and golden-rule findings over all passes."""
    passes = [result["warmup"]] + result["passes"]
    first_digest = {}
    attempted = failed = 0
    failures = []
    for index, record in enumerate(passes):
        job_ids = set(record["latency"]) | set(record["failures"])
        attempted += len(job_ids)
        for job_id in sorted(job_ids):
            problems = list(record["failures"].get(job_id, []))
            got = record["digest"].get(job_id)
            if first_digest.setdefault(job_id, got) != got:
                problems.append("outputs differ from the job's first run")
            if problems:
                failed += 1
                failures.append({"pass": index, "job": job_id,
                                 "problems": problems})
    golden = result["passes"][0]["golden_rule"]
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "golden_rule": golden}


def _scaled(record: dict) -> tuple[float, dict]:
    """A pass's wall time and job latencies at the reference host's speed.

    Each job is scaled by the host speed the reference kernel measured
    just before and just after its segment of the pass (reference.py);
    the wall, by the mean of those speeds over the pass's job time.
    """
    gauge, segment = record["gauge"], record["segment"]
    latency = {job: seconds * reference.speed(gauge[segment[job]],
                                              gauge[segment[job] + 1])
               for job, seconds in record["latency"].items()}
    busy = sum(record["latency"].values())
    ratio = (sum(latency.values()) / busy if busy
             else reference.speed(gauge[0], gauge[-1]))
    return record["wall"] * ratio, latency


def _end_to_end(result: dict, setup: list[dict]) -> tuple[dict, dict]:
    """Medians over the timed passes, at the reference host's speed.

    The host's slow phases last from seconds to minutes, longer than a
    run, so times are scaled to a fixed host speed (_scaled).  A job's
    latency is its median over the passes; run_norm_s.p50 and p90 are
    taken over those per-job latencies.  The unscaled times, and the
    host speed they were scaled by, are reported alongside.  setup_s is
    the median of the set-up samples, each scaled by the host speed that
    gauges just before and after it measured.
    """
    timed = result["passes"]
    walls, speeds = [], []
    per_job: dict[str, list[float]] = {}
    per_job_raw: dict[str, list[float]] = {}
    for record in timed:
        wall, latency = _scaled(record)
        walls.append(wall)
        speeds.append(wall / record["wall"])
        for job_id, seconds in latency.items():
            per_job.setdefault(job_id, []).append(seconds)
            per_job_raw.setdefault(job_id, []).append(
                record["latency"][job_id])
    latencies = sorted(statistics.median(v) for v in per_job.values())
    raw = sorted(statistics.median(v) for v in per_job_raw.values())
    metrics = {
        "wall_norm_s": statistics.median(walls),
        "run_norm_s.p50": statistics.median(latencies),
        "run_norm_s.p90": _quantile(latencies, 90),
        "setup_s": statistics.median(x["raw"] * x["speed"] for x in setup),
        "peak_rss_mb": result["rss_kb"] / 1024.0,
        "wall_s": statistics.median(p["wall"] for p in timed),
        "run_s.p50": statistics.median(raw),
        "run_s.p90": _quantile(raw, 90),
        "setup_raw_s": statistics.median(x["raw"] for x in setup),
        "host_speed": statistics.median(speeds),
    }
    samples = {name: len(timed) for name in metrics}
    samples.update({"run_norm_s.p50": len(latencies),
                    "run_norm_s.p90": len(latencies),
                    "run_s.p50": len(raw), "run_s.p90": len(raw),
                    "setup_s": len(setup), "setup_raw_s": len(setup),
                    "peak_rss_mb": 1})
    return metrics, samples


def _per_layer(result: dict) -> tuple[dict, dict]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {}
    for name in spans.PER_LAYER:
        if name == "cli.out.bytes":
            values = [p["out_bytes"] for p in traced]
        elif name == "cli.out.files":
            values = [p["out_files"] for p in traced]
        elif name == "trace.overhead_ratio":
            values = [statistics.median(_scaled(p)[0] for p in traced)
                      / statistics.median(_scaled(p)[0] for p in plain)
                      - 1.0]
        else:
            values = [p["layers"][name] for p in traced]
        metrics[name] = statistics.median(values)
    return metrics, {name: len(traced) for name in metrics}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    deadline = time.monotonic() + RUN_DEADLINE
    if not os.path.isfile(os.path.join(SRC, "darkqubit", "__init__.py")):
        raise BenchError(f"no darkqubit sources under {SRC}")
    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        manifest = scenarios.instantiate(workload, seed, work)
        setup = []
        if not trace:
            for k in range(SETUP_SAMPLES):
                before = reference.gauge(SETUP_GAUGE_S)
                ready, spawned = _spawn(manifest, "setup",
                                        os.path.join(work, f"setup{k}.json"),
                                        deadline)
                after = reference.gauge(SETUP_GAUGE_S)
                setup.append({"raw": ready["ready"] - spawned,
                              "speed": reference.speed(before, after)})
        result, _ = _spawn(
            manifest, "trace" if trace else "run",
            os.path.join(work, "result.json"), deadline, seconds,
            os.path.join(OUT_DIR, f"{tag}-spans.jsonl") if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if os.path.realpath(result["darkqubit"]) != \
            os.path.realpath(os.path.join(SRC, "darkqubit")):
        raise BenchError(f"imported darkqubit from {result['darkqubit']}")
    if trace:
        metrics, samples = _per_layer(result)
        units = spans.PER_LAYER
    else:
        metrics, samples = _end_to_end(result, setup)
        units = dict(END_TO_END, **UNSCALED)
    outcome = _outcome(result)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "metrics": {name: {"value": metrics[name], "unit": units[name],
                           "samples": samples[name]} for name in metrics},
        **outcome,
        "setup": setup,
        "passes": [{key: p[key] for key in ("wall", "latency", "gauge",
                                            "segment")}
                   for p in result["passes"]],
        "warmup_wall": result["warmup"]["wall"],
        "fingerprint": fingerprint(result["versions"]),
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  measured {record['seconds']:g} s")
    for name, m in record["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['samples']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_ratio':30s} {failed / attempted:14.6g} {'':6s} "
          f"{failed} of {attempted} jobs attempted")
    for failure in record["failures"][:20]:
        print(f"    FAIL pass {failure['pass']} {failure['job']}: "
              + "; ".join(failure["problems"]))
    for job_id, gr in sorted(record["golden_rule"].items()):
        verdict = "outside" if gr["miss"] else "within"
        print(f"  golden rule x={gr['x']:g}: rate ratio {gr['ratio']:.3f}, "
              f"{verdict} the 30% bound (statistical; not in failed_ratio)")
    print("  fingerprint " + json.dumps(record["fingerprint"],
                                        sort_keys=True))


def _summary_line(record: dict) -> dict:
    names = spans.RESULT_LINE if record["trace"] else END_TO_END
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name]["value"],
                               "unit": record["metrics"][name]["unit"]}
                        for name in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="darkqubit benchmark (see bench/DESIGN.md)")
    parser.add_argument("--workload", choices=scenarios.WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    workloads = [args.workload] if args.workload else scenarios.WORKLOADS
    lines = {}
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
            report(record)
            lines[workload] = _summary_line(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[args.workload] if args.workload else lines),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
