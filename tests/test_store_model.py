"""A run prints what it prints with nothing kept, whatever ran before it.

The process keeps parsed documents (``cli._parse_text``) and, on their
toric data, lattice data, map cores, brane solves and the disc tables
and comparisons built from them, and on each kept series and table its
printed form (``TruncatedSeries.printed_rows`` and ``str``, and
``InvariantTable.printed`` with the class labels).  A run's exit code
and stdout must not depend on any of it.  A ``hypothesis`` state
machine draws a sequence of runs through ``cli.main``, with
``cli._parse_text.cache_clear()`` as one more step, and checks each run
against a reference taken with nothing kept:

- a job of the benchmark's mix against its recorded exit code and
  stdout SHA-256 (``perfbench/expected.json``);
- the same job with ``--output pretty``, whose stdout holds the series
  texts and disc labels, against that run after a ``cache_clear()``;
- a brane command with a ``--normalization`` override, refused or not,
  against the same run after a ``cache_clear()``.

Each run-after-``cache_clear()`` reference is taken once per argv
before the machine starts.
"""

import contextlib
import io

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from syzmirror import cli

from tests.test_recorded_outputs import ROOT, _load_workloads

OVERRIDE_ARGVS = [
    (command, "--input", str(ROOT / path), "--order", str(order), f"--normalization={signs}")
    for command in ("brane-mirror", "disc-invariants", "compare-naive")
    for path in ("jobs/local_p2.json", "perfbench/jobs/local_p1xp1.json")
    for order in (3, 4, 5)
    for signs in ("-1,1", "1,-1", "-1,-1")
]
PRETTY = ("--output", "pretty")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cold(argv):
    cli._parse_text.cache_clear()
    return _run(argv)


class Runs(RuleBasedStateMachine):
    def __init__(self, workloads, expected, references):
        super().__init__()
        self.workloads = workloads
        self.jobs = st.sampled_from(workloads.mix_space())
        self.expected = expected
        self.references = references
        cli._parse_text.cache_clear()  # each example starts with nothing kept

    @rule(data=st.data())
    def mix_job(self, data):
        job = data.draw(self.jobs, label="job")
        code, out = _run(job.argv())
        assert self.workloads.check_output(job, code, out, self.expected) == []

    @rule(data=st.data())
    def pretty_mix_job(self, data):
        argv = (*data.draw(self.jobs, label="job").argv(), *PRETTY)
        assert _run(argv) == self.references[argv]

    @rule(argv=st.sampled_from(OVERRIDE_ARGVS))
    def override_run(self, argv):
        assert _run(argv) == self.references[argv]

    @rule()
    def drop_parsed_documents(self):
        cli._parse_text.cache_clear()


def test_every_run_prints_what_it_prints_with_nothing_kept(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    expected = workloads.load_expected()
    references = {argv: _cold(argv) for argv in OVERRIDE_ARGVS}
    assert {code for code, _ in references.values()} == {0, 3}
    pretty = [(*job.argv(), *PRETTY) for job in workloads.mix_space()]
    references |= {argv: _cold(argv) for argv in pretty}
    run_state_machine_as_test(
        lambda: Runs(workloads, expected, references),
        settings=settings(max_examples=30, stateful_step_count=40, deadline=None),
    )
