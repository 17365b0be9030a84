"""What a CLI run imports before and during its job.

Every job starts a new interpreter, so each module the library imports
is paid on every run.  ``dataclasses`` alone pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``; the library's records are namedtuple
subclasses and its annotations come from ``collections.abc``, so none
of these is needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNWANTED = ("dataclasses", "inspect", "typing")

# -S skips site-packages and its .pth files, so nothing outside the
# library and the standard library can import a module first.
PROBE = """
import contextlib, io, json, sys
import syzmirror.cli as c
c.build_parser()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = c.main(["disc-invariants", "--input", "jobs/local_p2.json"])
json.dump({"code": code, "modules": sorted(sys.modules)}, sys.stdout)
"""


def test_a_cli_run_imports_neither_dataclasses_inspect_nor_typing():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert "syzmirror.cli" in report["modules"]
    assert [m for m in UNWANTED if m in report["modules"]] == []
