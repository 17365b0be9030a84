"""Every benchmark job reproduces its recorded exit code and stdout bytes.

The benchmark records, for each job any workload can run, the exit code
and the SHA-256 of stdout of a CLI run (``perfbench/expected.json``).
These tests run every such job in-process through ``cli.main``, one
call per job and then as one ``batch``, and check each with the
benchmark's own ``check_output``, so a change that alters any output
byte fails here, before the benchmark sees it.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from syzmirror import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("no benchmark in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_job_matches_its_recorded_output(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    expected = workloads.load_expected()
    problems = {}
    for job in workloads.all_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv())
        found = workloads.check_output(job, code, out.getvalue(), expected)
        if found:
            problems[job.key] = found
    assert problems == {}


def test_one_batch_of_every_job_matches_the_recorded_outputs(monkeypatch, tmp_path):
    # the runs share parsed jobs, so this checks that sharing changes no byte
    workloads = _load_workloads(monkeypatch)
    expected = workloads.load_expected()
    jobs = workloads.all_jobs()
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps({"argv": job.argv()}) + "\n" for job in jobs))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["batch", "--input", str(runs)]) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(records) == len(jobs) == len(expected)
    problems = {}
    for job, record in zip(jobs, records):
        found = workloads.check_output(job, record["exit"], record["stdout"], expected)
        if found:
            problems[job.key] = found
    assert problems == {}
