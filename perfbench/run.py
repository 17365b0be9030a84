"""Benchmark of syzmirror: job documents in, JSON results out.

Usage, from the repository root:

    python3 perfbench/run.py --workload disc_local_p2 --seed 1 --seconds 30 --trace 0

Measures set-up time by launching fresh interpreters, then starts one
fresh single-threaded interpreter (worker.py) that runs the workload's
jobs through ``syzmirror.cli.main`` for ``--seconds`` and checks every
output.  Prints each metric by name and unit, then, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 15
SETUP_PROBE = (
    "import sys; import syzmirror.cli as cli; cli.build_parser(); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
WORKER_TIMEOUT_S = 165


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def measure_setup(env) -> float:
    """Median seconds from launching an interpreter to a built command table.

    Each launch is scaled to the reference speed by calibration units
    timed just before and after it.  The first launch only fills the
    bytecode cache and is not counted.
    """
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        unit_before = speed.unit_time()
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, stdout=subprocess.PIPE
        )
        with proc.stdout:
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - began
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        unit = (unit_before + speed.unit_time()) / 2
        if launch:
            times.append(elapsed * speed.REFERENCE_UNIT_S / unit)
    return statistics.median(times)


def run_worker(args, env) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        command += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "syzmirror" / "cli.py").is_file():
        sys.stderr.write(f"no syzmirror sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # Keep the benchmark and every process it starts on one CPU, so the
    # calibration samples describe the CPU the measured code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    values = {}
    if not args.trace:
        values["setup_s"] = measure_setup(env)
    report = run_worker(args, env)
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        values.update(report["layers"])
        wanted = spec["per_layer"]
    else:
        values.update({k: report[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}: {report['passes']} untraced passes "
          f"of {report['jobs_per_pass']} jobs; times are medians over passes, scaled to the "
          f"reference speed (unscaled wall {report['raw_wall_s']:.4f} s)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if args.trace and values["trace.coverage"] < 0.95:
        print("warning: trace.coverage below 0.95; a binding site was probably missed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
