"""A run prints what it prints with nothing kept, whatever ran before it.

The process keeps parsed argvs (``cli._parse_argv``), parsed documents
(``cli._parse_text``) and, on the toric data of each, lattice data and
one store of intermediates keyed by value (``ToricCYData.kept``): the
A-series, Lagrange chains, units, curves, brane set-ups, brane solves
and the output of each run (its JSON text, its summary text and its
exit code, per command and job options), at most ``KEPT`` of them, the
first kept dropped first.  A run's exit code, stdout and stderr must
not depend on any of it.  A ``hypothesis`` state machine draws a
sequence of runs through ``cli.main``, with dropping both caches
(``_drop_kept``) as one more step, and checks each run against a
reference taken with nothing kept:

- a job of the benchmark's mix against its recorded exit code and
  stdout SHA-256 (``perfbench/expected.json``), and against that run
  after a ``_drop_kept()``, stderr included;
- the same job spelled another way (``--order=3``, abbreviated flags,
  options before the command), a distinct argv, against the reference
  of the mix job;
- the same job with ``--output pretty``, whose stdout holds the series
  texts and disc labels, against that run after a ``_drop_kept()``;
- a brane command with a ``--normalization`` override, refused or not,
  against the same run after a ``_drop_kept()``;
- a sweep of ``curve``, ``mirror-map`` and ``inverse-map`` over orders
  enough to keep more than ``KEPT`` entries on local P2, so entries are
  dropped in the middle of the sequence, each run against the same run
  after a ``_drop_kept()``;
- any command on a perturbed document, local P2 with its brane frame
  listed the other way round or the same document serialized anew (new
  bytes, so a new toric data of equal value), against the same run
  after a ``_drop_kept()``.

Each run-after-``_drop_kept()`` reference is taken once per argv
before the machine starts.  The last tests run each benchmark workload
twice and check that the second pass builds nothing and runs no
command body.
"""

import contextlib
import io
import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from syzmirror import cli, lattice, mirror

from tests.test_cli import _count_bodies, _count_calls
from tests.test_recorded_outputs import ROOT, _load_workloads

OVERRIDE_ARGVS = [
    (command, "--input", str(ROOT / path), "--order", str(order), f"--normalization={signs}")
    for command in ("brane-mirror", "disc-invariants", "compare-naive")
    for path in ("jobs/local_p2.json", "perfbench/jobs/local_p1xp1.json")
    for order in (3, 4, 5)
    for signs in ("-1,1", "1,-1", "-1,-1")
]
PRETTY = ("--output", "pretty")
LOCAL_P2 = ROOT / "jobs" / "local_p2.json"
SWEPT = ("curve", "mirror-map", "inverse-map")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _drop_kept():
    cli._parse_argv.cache_clear()
    cli._parse_text.cache_clear()


def _cold(argv):
    _drop_kept()
    return _run(argv)


def _respelled(argv, spelling):
    """The mix argv ``(command, --input, path, --order, n, *extra)`` spelled
    another way that parses to the same run."""
    command, _, path, _, order, *extra = argv
    return {
        "equals": (command, f"--input={path}", f"--order={order}", *extra),
        "options first": ("--order", order, *extra, "--input", path, command),
        "abbreviated": (*extra, "--ord", order, command, "--in", path),
    }[spelling]


def _sweep_argvs(orders):
    return [
        (command, "--input", str(LOCAL_P2), "--order", str(order))
        for order in orders
        for command in SWEPT
    ]


def _sweep():
    """``SWEPT`` over consecutive orders of local P2 from 3, keeping more
    than ``KEPT`` entries on a fresh document."""
    _drop_kept()
    for argv in _sweep_argvs([3]):
        _run(argv)
    per_order = len(cli._parse_text(LOCAL_P2.read_bytes()).toric.__dict__["_kept"])
    return _sweep_argvs(range(3, 4 + lattice.KEPT // per_order))


def _perturbed_argvs(directory):
    """Every command at orders 3-5 on local P2 serialized anew and on
    local P2 with its brane frame reversed."""
    doc = json.loads(LOCAL_P2.read_text())
    paths = [directory / "reserialized.json", directory / "reversed_frame.json"]
    paths[0].write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    doc["brane"]["frame"].reverse()
    paths[1].write_text(json.dumps(doc))
    return [
        (command, "--input", str(path), "--order", str(order))
        for command in sorted(cli.COMMANDS)
        for path in paths
        for order in (3, 4, 5)
    ]


class Runs(RuleBasedStateMachine):
    def __init__(self, workloads, expected, references, sweep, perturbed):
        super().__init__()
        self.workloads = workloads
        self.jobs = st.sampled_from(workloads.mix_space())
        self.expected = expected
        self.references = references
        self.sweep = sweep
        self.perturbed = st.sampled_from(perturbed)
        _drop_kept()  # each example starts with nothing kept

    @rule(data=st.data())
    def mix_job(self, data):
        job = data.draw(self.jobs, label="job")
        argv = tuple(job.argv())
        code, out, err = _run(argv)
        assert self.workloads.check_output(job, code, out, self.expected) == []
        assert (code, out, err) == self.references[argv]

    @rule(data=st.data())
    def respelled_mix_job(self, data):
        argv = tuple(data.draw(self.jobs, label="job").argv())
        spelling = data.draw(st.sampled_from(("equals", "options first", "abbreviated")))
        assert _run(_respelled(argv, spelling)) == self.references[argv]

    @rule(data=st.data())
    def pretty_mix_job(self, data):
        argv = (*data.draw(self.jobs, label="job").argv(), *PRETTY)
        assert _run(argv) == self.references[argv]

    @rule(argv=st.sampled_from(OVERRIDE_ARGVS))
    def override_run(self, argv):
        assert _run(argv) == self.references[argv]

    @rule()
    def orders_past_the_bound(self):
        for argv in self.sweep:
            assert _run(argv) == self.references[argv]

    @rule(data=st.data())
    def perturbed_document(self, data):
        argv = data.draw(self.perturbed, label="argv")
        assert _run(argv) == self.references[argv]

    @rule()
    def drop_parsed_argvs_and_documents(self):
        _drop_kept()


def test_every_run_prints_what_it_prints_with_nothing_kept(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    expected = workloads.load_expected()
    references = {argv: _cold(argv) for argv in OVERRIDE_ARGVS}
    assert {code for code, _, _ in references.values()} == {0, 3}
    mix = [(*job.argv(), *output) for job in workloads.mix_space() for output in ((), PRETTY)]
    sweep = _sweep()
    perturbed = _perturbed_argvs(tmp_path)
    for argv in [*mix, *sweep, *perturbed]:
        references[argv] = _cold(argv)
    assert {references[argv][0] for argv in perturbed} == {0}
    run_state_machine_as_test(
        lambda: Runs(workloads, expected, references, sweep, perturbed),
        settings=settings(max_examples=30, stateful_step_count=40, deadline=None),
    )


BUILDS = (
    (mirror, "a_series"),
    (mirror, "LagrangeChain"),
    (mirror, "build_curve"),
    (lattice, "validate_brane"),
    (mirror, "solve_curve_root"),
)


def test_a_second_pass_of_each_workload_builds_nothing(monkeypatch):
    # one pass keeps every intermediate of its documents, so the next
    # pass reads them all and prints the recorded bytes
    workloads = _load_workloads(monkeypatch)
    expected = workloads.load_expected()
    for name, make_jobs in workloads.WORKLOADS.items():
        cli._parse_text.cache_clear()
        jobs = make_jobs(1)
        for job in jobs:
            _run(job.argv())
        with monkeypatch.context() as patch:
            calls = [_count_calls(patch, module, attr) for module, attr in BUILDS]
            for job in jobs:
                code, out, _ = _run(job.argv())
                assert workloads.check_output(job, code, out, expected) == [], (name, job.key)
        assert [len(found) for found in calls] == [0] * len(BUILDS), name


def test_a_second_mix_pass_runs_no_command_body(monkeypatch):
    # a pass keeps the output of each of its runs, and no document of the
    # mix keeps more than ``KEPT`` entries, so the next pass only writes
    # kept texts; a store kind that pushes a document past the bound
    # makes the second pass run bodies again
    workloads = _load_workloads(monkeypatch)
    jobs = workloads.mix_jobs(1)
    first = [_run(job.argv()) for job in jobs]
    bodies = _count_bodies(monkeypatch)
    assert [_run(job.argv()) for job in jobs] == first
    assert bodies == []
