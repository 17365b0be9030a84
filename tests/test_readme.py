"""The README's worked example runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worked_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Worked example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print is followed by, or ends in, a comment with its output
    expected = [comment.strip() for comment in re.findall(r"#(.*)$", code, re.M)]
    assert len(expected) == 2
    assert expected[0].startswith("1 - 2*Q1 + 5*Q1^2") and expected[0].endswith("*Q1^5")
    assert expected[1] == "True"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
