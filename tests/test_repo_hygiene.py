"""Repository hygiene: the git checkout tracks no file that .gitignore
excludes, the library defines no private helper and exports no public
name that nothing reads, the benchmark's span tracer finds and counts
what it wraps, and the CI workflow runs the tier-1 command."""

import ast
import importlib.util
import io
import re
import sys
import shutil
import subprocess
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read_names(statement):
    """Every name a statement reads: loaded names, attributes and imports."""
    names = Counter()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_private_helper_is_read():
    # a module-level _name that only its own definition mentions is dead
    statements = [
        statement
        for path in sorted((ROOT / "src" / "syzmirror").glob("*.py"))
        for statement in ast.parse(path.read_text(), str(path)).body
    ]
    reads = [_read_names(s) for s in statements]
    total = sum(reads, Counter())
    unread = [
        name
        for statement, own in zip(statements, reads)
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and total[name] - own[name] == 0
    ]
    assert unread == []


# paper constructions the package exports though no command reads them
PAPER_FUNCTIONS = {
    "gross_discriminant", "av_geometry", "disc_potential", "verify_potential", "cover_sum",
    "evaluate_curve",
}


def test_every_public_name_is_read():
    # a public module-level name is read by another library statement
    # (the package's re-exports do not count), by the README worked
    # example or by the benchmark's span tracer, or is one of the
    # paper's constructions
    package = ROOT / "src" / "syzmirror"
    defined, library = [], Counter()
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            names = _defined_names(statement)
            defined += [(f"{path.stem}.{name}", name) for name in names if not name.startswith("_")]
            if path.name != "__init__.py":
                reads = _read_names(statement)
                for name in names:
                    del reads[name]
                library += reads
    example = _example_reads()
    traced = {attr for _, _, attr in _load_spans().TARGETS}
    unread = [
        qualified
        for qualified, name in defined
        if not (library[name] or example[name] or name in traced or name in PAPER_FUNCTIONS)
    ]
    assert unread == []


def _example_reads():
    """Every name the README worked example reads."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Worked example\n", 1)[1]
    return _read_names(ast.parse(re.search(r"```python\n(.*?)```", example, re.S).group(1)))


def test_every_class_member_is_read():
    # a method or property that a library class adds to its bases is read
    # somewhere in the library outside its own body, or by the README
    # worked example; members that override a base (argparse's ``error``,
    # the ``Mapping`` protocol) and dunders are the bases' contract
    package = ROOT / "src" / "syzmirror"
    members, total = [], Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        total += _read_names(tree)
        module = importlib.import_module(f"syzmirror.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("__") or any(hasattr(base, name) for base in bases):
                    continue
                members.append((f"{node.name}.{name}", name, _read_names(member)))
    # a read of a name that dict also defines (``items``, ``get``, ...)
    # may be any dict's, so such a member counts as read only through
    # the README example
    example = _example_reads()
    unread = [
        qualified
        for qualified, name, own in members
        if (hasattr(dict, name) or total[name] - own[name] == 0) and not example[name]
    ]
    assert unread == []


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    if not path.exists():
        pytest.skip("no benchmark in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_targets_resolve():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_series_product_calls_the_kernel_once(monkeypatch):
    # the benchmark's kernel counters wrap fps.mul_terms and unpack its
    # positional (a, b, grading, order)
    from syzmirror import Frame, TruncatedSeries, fps

    kernel = fps.mul_terms
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fps, "mul_terms", counted)
    frame = Frame(names=("x", "y"))
    s = TruncatedSeries(frame, 4, {(0, 0): 1, (1, 0): 2})
    t = TruncatedSeries(frame, 4, {(0, 1): 3})
    product = s * t
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {}
    assert args == (s.terms, t.terms, frame.grading, 4)
    assert product.terms == {(0, 1): 3, (1, 1): 6}


# stdout of `fiber-invariants --input perfbench/jobs/local_dp3.json --order 3`,
# recorded before series kept the kernel's packed form
LOCAL_DP3_FIBER_ORDER_3 = (
    '{"order":3,"series":[[{"c":"1","e":[0,0,0,0]},{"c":"-2","e":[0,0,0,1]},'
    '{"c":"5","e":[0,0,0,2]},{"c":"-32","e":[0,0,0,3]},{"c":"1","e":[0,1,0,0]},'
    '{"c":"-4","e":[0,1,0,1]},{"c":"35","e":[0,1,0,2]},{"c":"-6","e":[0,2,0,1]},'
    '{"c":"1","e":[1,0,0,0]},{"c":"-4","e":[1,0,0,1]},{"c":"35","e":[1,0,0,2]},'
    '{"c":"3","e":[1,1,0,0]},{"c":"-36","e":[1,1,0,1]},{"c":"5","e":[1,2,0,0]},'
    '{"c":"-6","e":[2,0,0,1]},{"c":"5","e":[2,1,0,0]}],[{"c":"1","e":[0,0,0,0]}],'
    '[{"c":"1","e":[0,0,0,0]}],[{"c":"1","e":[0,0,0,0]}],[{"c":"1","e":[0,0,0,0]}],'
    '[{"c":"1","e":[0,0,0,0]}],[{"c":"1","e":[0,0,0,0]}]]}\n'
)


def test_tracer_counts_the_packed_kernel_like_plain_dicts(monkeypatch):
    spans = _load_spans()
    from syzmirror import cli
    from syzmirror._backend import Terms

    tracer = spans.Tracer()
    seen = []
    count = tracer._kernel_counts

    def recording(idx, args, result):
        seen.append((args, result))
        count(idx, args, result)

    tracer._kernel_counts = recording
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    tracer.install()  # raises MissedBinding if a reference escaped the wrapping
    try:
        code = cli.main(["fiber-invariants", "--input",
                         str(ROOT / "perfbench" / "jobs" / "local_dp3.json"), "--order", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert out.getvalue() == LOCAL_DP3_FIBER_ORDER_3
    assert seen and len(tracer.kernel_span) == len(seen)
    assert all(isinstance(result, Terms) for _, result in seen)

    plain = spans.Tracer()
    for idx, ((a, b, grading, order), result) in enumerate(seen):
        plain._kernel_counts(idx, (dict(a), dict(b), grading, order), dict(result))
    for name in ("kernel_pairs", "kernel_terms", "kernel_bits", "kernel_bits_max"):
        assert getattr(plain, name) == getattr(tracer, name), name


def test_ci_workflow_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    roadmap = (ROOT / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md names no tier-1 command"
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    steps = job["steps"]
    assert [s["run"] for s in steps if "run" in s][-1] == match.group(1)
    versions = [s["with"]["python-version"] for s in steps if "setup-python" in s.get("uses", "")]
    assert versions == ["3.11"]
    installs = " ".join(s["run"] for s in steps if "pip install" in s.get("run", ""))
    # sympy backs the oracle tests, which would otherwise be skipped
    assert {"pytest", "hypothesis", "sympy"} <= set(installs.split())
    # every installed package is pinned in the constraints file it passes
    words = installs.split()
    assert words.count("-c") == 1
    constraints = words[words.index("-c") + 1]
    pins = {}
    for line in (ROOT / constraints).read_text().splitlines():
        line = line.split("#")[0].strip()
        if line:
            name, version = line.split("==")
            pins[name.lower()] = version
    packages = words[words.index("install") + 1 :]
    packages = [w for w in packages if w != "-c" and w != constraints]
    assert packages and all(p.lower() in pins for p in packages), (packages, pins)
    # `pip install .[test]` installs every pinned package, so no tier-1
    # test is skipped for a missing import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = project["optional-dependencies"]["test"]
    extra = {re.split(r"[<>=!~;\[ ]", d)[0].lower() for d in extra}
    assert set(pins) <= extra, (sorted(pins), sorted(extra))
