"""Record the exit code and stdout SHA-256 of every job any workload runs.

Each job runs as its own ``python -m syzmirror.cli`` subprocess, so the
recorded bytes do not depend on the benchmark's in-process harness.
Writes ``perfbench/expected.json``.  Run from the repository root:

    python3 perfbench/record_expected.py
"""

import hashlib
import json
import os
import subprocess
import sys

import workloads


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"), PYTHONHASHSEED="0")
    table = {}
    for job in workloads.all_jobs():
        proc = subprocess.run(
            [sys.executable, "-m", "syzmirror.cli", *job.argv()],
            cwd=workloads.ROOT, env=env, capture_output=True, check=False,
        )
        table[job.key] = {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        print(f"{job.key}: exit {proc.returncode}", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
