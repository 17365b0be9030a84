"""One benchmark run in a fresh interpreter; started by run.py.

Feeds the workload's job documents to ``syzmirror.cli.main`` in-process,
one after the other, and times each pass from the first job document
read to the last stdout byte written, scaled to a fixed machine speed
(see speed.py).  Passes repeat until the time budget is spent.  Every output is checked after its pass, outside the
timed interval.  With ``--trace 1`` a traced pass follows the untraced
ones and the per-layer summary is reported as well.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from speed import SpeedMeter


class _Sink:
    """Write-only stream that discards the CLI's stderr summary."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def run_jobs(cli, jobs, tracer=None):
    """Run every job once, capturing stdout; return [(exit code, stdout)]."""
    results = []
    real_out, real_err = sys.stdout, sys.stderr
    sys.stderr = _Sink()
    try:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            buffer = io.StringIO()
            sys.stdout = buffer
            try:
                code = cli.main(job.argv())
            except Exception:  # a traceback is a failed job, not a failed run
                code = None
                real_err.write(traceback.format_exc())
            results.append((code, buffer.getvalue()))
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return results


def check_pass(jobs, results, expected) -> int:
    failed = 0
    for job, (code, stdout) in zip(jobs, results):
        problems = workloads.check_output(job, code, stdout, expected)
        if problems:
            failed += 1
            sys.stderr.write(f"FAILED {job.key}: {'; '.join(problems)}\n")
    return failed


def validate_inputs(cli, jobs) -> None:
    """Run ``validate`` on every job document the workload reads."""
    for geometry in sorted({job.geometry for job in jobs}):
        probe = workloads.Job("validate", geometry, 1)
        [(code, _)] = run_jobs(cli, [probe])
        if code != 0:
            raise SystemExit(f"validate failed on {workloads.GEOMETRIES[geometry]}: exit {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans (gzip TSV)")
    args = parser.parse_args(argv)

    from syzmirror import cli

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    expected = workloads.load_expected()
    validate_inputs(cli, jobs)

    # In a traced run, half the budget goes to untraced passes, which
    # give the reference wall time for trace.overhead_s.
    budget = args.seconds / 2 if args.trace else args.seconds
    meter = SpeedMeter()
    walls, cpus, raw_walls = [], [], []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        with meter:
            results = run_jobs(cli, jobs)
        walls.append(meter.scaled_s)
        cpus.append(meter.scaled_cpu_s)
        raw_walls.append(meter.raw_s)
        attempted += len(jobs)
        failed += check_pass(jobs, results, expected)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(raw_walls) > budget:
            break
    report = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "jobs_per_pass": len(jobs),
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        real0, virtual0 = time.perf_counter(), tracer.now()
        results = run_jobs(cli, jobs, tracer)
        real_wall, traced_wall = time.perf_counter() - real0, tracer.now() - virtual0
        tracer.uninstall()
        attempted += len(jobs)
        failed += check_pass(jobs, results, expected)
        layers = {
            f"{name}.{key}": value
            for name, stats in tracer.summary(traced_wall).items()
            for key, value in stats.items()
        }
        layers["cli.stdout_bytes"] = sum(len(out.encode("utf-8")) for _, out in results)
        layers["trace.overhead_s"] = real_wall - report["raw_wall_s"]
        report.update(attempted=attempted, failed=failed, layers=layers)
        if args.spans:
            tracer.write(args.spans)

    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
