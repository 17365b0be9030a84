"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests start run.py as a subprocess and take about a
minute together.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("calls", "pairs", "kernel_calls", "terms_out", "bits_out", "bits_max", "stdout_bytes")


def traced(workload, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_mix_is_deterministic_per_seed():
    assert workloads.mix_jobs(7) == workloads.mix_jobs(7)
    assert workloads.mix_jobs(7) != workloads.mix_jobs(8)
    assert sorted(workloads.mix_jobs(7), key=lambda j: j.key) == sorted(
        workloads.mix_space(), key=lambda j: j.key
    )


def test_every_job_has_a_recorded_output():
    expected = workloads.load_expected()
    keys = [job.key for job in workloads.all_jobs()]
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(expected)


def test_check_output_rejects_changed_bytes():
    job = workloads.Job("fiber-invariants", "local_p2", 5)
    expected = {job.key: {"exit": 0, "sha256": "0" * 64}}
    stdout = json.dumps({"series": [[{"e": [0], "c": "1"}, {"e": [1], "c": "-3"}]]})
    problems = workloads.check_output(job, 0, stdout, expected)
    assert "stdout SHA-256 differs from the recorded one" in problems
    assert "fiber coefficient of Q^1 is wrong" in problems


def test_install_finds_a_missed_binding():
    from syzmirror import cli, fps

    tracer = spans.Tracer()
    tracer.install()
    try:
        original = fps.inverse.__wrapped__
        cli.stray_reference = original
        try:
            assert spans._references([cli], [original]) == ["syzmirror.cli.stray_reference"]
        finally:
            del cli.stray_reference
    finally:
        tracer.uninstall()
    assert not hasattr(fps.inverse, "__wrapped__")


def test_traced_counts_repeat_exactly():
    first, second = traced("mix_small", seed=5), traced("mix_small", seed=5)
    counted = [n for n in first if n.rsplit(".", 1)[-1] in COUNTS]
    assert "kernel.mul_terms.pairs" in counted
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_disc_workload_design():
    layers = traced("disc_local_p2")
    assert layers["mirror.inverse_mirror_map.calls"] == 2
    assert largest_self_time(layers) == "kernel.mul_terms.self_s"


def test_fiber_workload_design():
    layers = traced("fiber_local_dp3")
    assert layers["fps.inverse.calls"] == 0
    assert layers["fps.log_series.calls"] == 0
    assert largest_self_time(layers) == "kernel.mul_terms.self_s"


def largest_self_time(layers):
    return max((n for n in layers if n.endswith(".self_s")), key=layers.get)
