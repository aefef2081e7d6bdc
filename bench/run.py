#!/usr/bin/env python3
"""matchmerge benchmark: seeded workloads timed end to end, and per module.

Run from the repository root:

  python3 bench/run.py --workload audit-dense --seed 1 --seconds 42 --trace 0
  python3 bench/run.py --smoke            # every job kind once, tiny inputs

One client runs the workload's fixed job list in a closed loop (the next
job starts when the previous one returns), pass after pass, until the next
pass would end past ``--seconds``; the first pass is an untimed warm-up,
and each job's latency is its best over the timed passes.  Jobs are kept
short (a pass takes about half a second), so each job is timed dozens of
times.  Every result is checked against an answer known without
matchmerge; a wrong result counts as a failed job, and the run then exits
with code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of one traced
pass, plus the tracing overhead; spans go to ``.bench_work/``.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COLD_STARTS = 21


def run_job(cli, job):
    """Run one job; returns (exit code, result).  Library jobs exit 0."""
    if job.call is not None:
        return 0, job.call()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(job.argv)
    return code, out.getvalue()


def timed_job(cli, job):
    """Run and time one job, then check its result outside the timing.
    Returns (seconds, failure reason or None)."""
    start = time.perf_counter()
    try:
        code, result = run_job(cli, job)
    except Exception:  # a crash is a failed job, not a failed benchmark
        took = time.perf_counter() - start
        return took, "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    took = time.perf_counter() - start
    return took, job.expect(code, result)


class Measurement:
    def __init__(self, jobs):
        self.jobs = jobs
        self.walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.per_job: list[list[float]] = [[] for _ in jobs]

    def job_latencies(self) -> list[float]:
        """Each job's best latency over the passes.  Load from other
        processes only ever adds time, and on a shared host it comes and
        goes within seconds, so the best of many passes is the steadiest
        estimate of what the job itself costs."""
        return [min(times) for times in self.per_job]

    def wall(self) -> float:
        """Time to finish the job list once, each job at its best."""
        return sum(self.job_latencies())

    def run_pass(self, cli) -> None:
        gc.collect()
        wall = 0.0
        for i, job in enumerate(self.jobs):
            took, reason = timed_job(cli, job)
            wall += took
            self.per_job[i].append(took)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{job.kind} {job.doc}: {reason}")
        self.walls.append(wall)


class ColdStarts:
    """Wall times of a fresh interpreter running the CLI's cheapest command,
    one process at a time.  One sample is taken after every few passes, so
    the samples spread over the run instead of landing in one moment of host
    load."""

    EVERY = 3  # passes between samples

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH="src")
        self.times: list[float] = []
        self.passes = 0
        self.ok = True
        self.sample()  # untimed: it may still have bytecode to write
        self.times.clear()

    def sample(self) -> None:
        cmd = [sys.executable, "-m", "matchmerge.cli", "fixtures"]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        self.times.append(time.perf_counter() - start)
        self.ok = self.ok and proc.returncode == 0 and "maxnat" in proc.stdout

    def between_passes(self) -> None:
        self.passes += 1
        if len(self.times) < COLD_STARTS and self.passes % self.EVERY == 0:
            self.sample()

    def median(self) -> float:
        while len(self.times) < COLD_STARTS:
            self.sample()
        return statistics.median(self.times)


def quantile(values, q: int) -> float:
    """The q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cli, jobs, seconds: float, tracer=None, between=None):
    """Closed-loop passes until the next one would end past ``seconds``.
    The first pass is a warm-up whose times are dropped: the interpreter
    specializes hot code during it.  With a tracer, the remaining passes
    alternate untraced and traced.  ``between`` runs after every pass."""
    start = time.perf_counter()
    warm = Measurement(jobs)
    warm.run_pass(cli)
    plain, traced = Measurement(jobs), Measurement(jobs)
    plain.attempted, plain.failures = warm.attempted, warm.failures
    while True:
        if between:
            between()
        if tracer is not None and len(plain.walls) > len(traced.walls):
            tracer.install()
            try:
                traced.run_pass(cli)
            finally:
                tracer.uninstall()
        else:
            plain.run_pass(cli)
        passes = 1 + len(plain.walls) + len(traced.walls)
        elapsed = time.perf_counter() - start
        enough = tracer is None or traced.walls
        if enough and elapsed * (passes + 1) / passes > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every job kind once, tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "matchmerge" / "__init__.py").is_file():
        print(f"error: no matchmerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("matchmerge.cli")
    import workloads

    if args.smoke:
        return smoke(cli, workloads, args.seed)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = cold = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        else:
            cold = ColdStarts()
        plain, traced = measure(cli, jobs, args.seconds, tracer, cold and cold.between_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = plain.failures + traced.failures
    attempted = plain.attempted + traced.attempted
    if args.trace:
        overhead = traced.wall() - plain.wall()
        metrics = tracer.layer_metrics(len(traced.walls))
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = cold.median()
        if not cold.ok:
            failures.append("cold start: `matchmerge fixtures` failed or printed no fixtures")
        lat = plain.job_latencies()
        metrics = {
            "wall_s": (sum(lat), "s"),
            "job_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "job_p90_ms": (1e3 * quantile(lat, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        beyond = sum(1 for x in lat if x > quantile(lat, 90))
        print(
            f"{args.workload}: {len(jobs)} jobs, {len(plain.walls)} timed passes,"
            f" {beyond} jobs beyond p90;"
            f" pass walls {' '.join(f'{w:.3f}' for w in plain.walls)} s"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:14.6f} {unit}")
    print(f"{'jobs_failed_ratio':<40} {len(failures) / max(attempted, 1):14.6f} ratio")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


def smoke(cli, workloads, seed: int) -> int:
    """Every job kind of every workload once, on tiny inputs."""
    failed = 0
    for name, build in workloads.WORKLOADS.items():
        workdir = WORK / f"smoke-{name}-s{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            for job in build(seed, workdir, "smoke"):
                took, reason = timed_job(cli, job)
                status = "ok" if reason is None else f"FAILED {reason}"
                print(f"{name:<16} {job.kind:<12} {job.doc:<24} {took * 1e3:9.2f} ms  {status}")
                failed += reason is not None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
