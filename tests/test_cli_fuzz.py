"""Fuzz the CLI exit-code contract on mutated shipped job documents.

Whatever a job document holds, ``cli.main`` must return one of the
documented exit codes (0, 2, 3, 4) and never raise.  A brane carrying
``boundary_grading``, which is not an input, always exits 4.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syzmirror.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
JOB_FILES = [
    *sorted((ROOT / "jobs").glob("*.json")),
    ROOT / "perfbench" / "jobs" / "local_p1xp1.json",
    ROOT / "perfbench" / "jobs" / "local_dp3.json",
]
DOCS = {path.name: json.loads(path.read_text()) for path in JOB_FILES}
EXIT_CODES = {0, 2, 3, 4}

small_ints = st.integers(min_value=-3, max_value=3)
json_values = st.lists(small_ints, max_size=4) | st.recursive(
    st.none()
    | st.booleans()
    | small_ints
    | st.sampled_from(["", "x", "0", "1", "-1", "1/2", "1/0"]),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path to a dict entry or list element inside ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _child(node, key):
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list) and isinstance(key, int):
        return node[key]
    return None


# Fields no shipped job sets, so that mutating existing paths never adds them.
OPTIONAL = (
    ("brane", "boundary_grading"),
    ("brane", "m0"),
    ("toric", "lambda"),
    ("toric", "charge_basis"),
    ("normalization",),
    ("corrected",),
)


@st.composite
def mutated_jobs(draw):
    """A shipped job with one to three fields replaced, deleted or added."""
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(OPTIONAL) | st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = _child(parent, key)
        key = path[-1]
        if isinstance(parent, dict):
            if key in parent and draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = draw(json_values)
        elif isinstance(parent, list) and isinstance(key, int):
            parent[key] = draw(json_values)
        # else an earlier mutation replaced the enclosing object
    return doc


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    doc=mutated_jobs(),
    command=st.sampled_from(sorted(COMMANDS)),
    order=st.integers(min_value=1, max_value=4),
    extra=st.lists(
        st.sampled_from(["--corrected=false", "--normalization=-1,-1", "--output=pretty"]),
        max_size=2,
        unique=True,
    ),
)
def test_exit_code_is_documented(tmp_path, doc, command, order, extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--order", str(order), *extra]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    brane = doc.get("brane")
    if isinstance(brane, dict) and "boundary_grading" in brane:
        assert code == 4
        assert json.loads(err.getvalue())["error"]["code"] == "parse"
