"""End-to-end CLI checks: exit codes, determinism, output records."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from syzmirror import av_mirror_brane, log_series
from syzmirror.cli import COMMANDS, main, parse_job
from syzmirror.serialize import series_to_json
from tests.test_invariants import divisor_closure_inversion

CONIFOLD_DOC = {
    "toric": {
        "rays": [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        "u": [0, 0, 1],
        "max_cones": [[0, 1, 2], [0, 2, 3]],
    },
    "brane": {
        "charges": [[-1, 0, 1, 0], [-1, 1, 0, 0]],
        "constants": ["0", "2"],
        "phases": ["0", "0"],
        "av_indices": [0, 2, 1],
        "frame": [[1, 0], [-1, 1]],
    },
    "truncation": 8,
}

KP2_DOC = {
    "toric": {
        "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -1, 1]],
        "u": [0, 0, 1],
    },
    "truncation": 5,
}


@pytest.fixture
def conifold_path(tmp_path):
    path = tmp_path / "conifold.json"
    path.write_text(json.dumps(CONIFOLD_DOC))
    return str(path)


@pytest.fixture
def kp2_path(tmp_path):
    path = tmp_path / "kp2.json"
    path.write_text(json.dumps(KP2_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parsed_job_is_an_immutable_record():
    # every run on one document shares its parsed job, so it cannot change
    job = parse_job(CONIFOLD_DOC)
    assert job == parse_job(CONIFOLD_DOC) and hash(job) == hash(parse_job(CONIFOLD_DOC))
    with pytest.raises(AttributeError):
        job.truncation = 2
    assert job._replace(truncation=2).truncation == 2 and job.truncation == 8


class TestValidate:
    def test_conifold_passes(self, capsys, conifold_path):
        code, out, _ = run(capsys, "validate", "--input", conifold_path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bad_covector_fails_with_cy_entry(self, capsys, tmp_path):
        doc = {"toric": {"rays": KP2_DOC["toric"]["rays"], "u": [0, 0, 2]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 2
        payload = json.loads(out)
        assert any("CY condition" in f for f in payload["toric_failures"])

    def test_non_unimodular_rays_with_charge_basis_exit_two(self, capsys, tmp_path):
        # the Z-basis comparison needs unimodular leading rays; it is
        # skipped, not raised, when the unimodularity check has failed
        doc = {
            "toric": {
                "rays": [[0, 0, 1], [1, 0, 1], [2, 0, 1], [0, 1, 1]],
                "u": [0, 0, 1],
                "charge_basis": [[1, -2, 1, 0]],
            }
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 2
        payload = json.loads(out)
        assert any("unimodularity" in f for f in payload["toric_failures"])

    def test_malformed_rational_is_parse_error(self, capsys, tmp_path):
        doc = json.loads(json.dumps(CONIFOLD_DOC))
        doc["brane"]["constants"] = ["0", "1/0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 4
        assert "rational" in err

    def test_broken_json_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"toric\": [,]\n}")
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 4
        assert "line 2" in err

    def test_non_utf8_file_exits_four(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"toric": "\xff"}')
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (4, "")
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert record["message"].startswith(f"cannot read {str(path)!r}: ")

    def test_deeply_nested_json_exits_four(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (4, "")
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert "nested too deeply" in record["message"]

    def test_huge_rational_literal_exits_four(self, capsys, tmp_path):
        path, _ = _huge_literal_documents(tmp_path)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (4, "")
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert record["message"].startswith("bad rational in brane.constants: ")
        assert "(5000 characters)" in record["message"]
        assert "1" * 100 not in record["message"]

    def test_huge_integer_literal_exits_four(self, capsys, tmp_path):
        _, path = _huge_literal_documents(tmp_path)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (4, "")
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert record["message"].startswith(f"{str(path)!r}: ")


def _huge_literal_documents(tmp_path):
    """Local P2 with a 5000-digit brane constant, and with a 5000-digit
    truncation: both past the interpreter's integer conversion limit."""
    text = (JOBS / "local_p2.json").read_text()
    doc = json.loads(text)
    doc["brane"]["constants"] = ["0", "1" * 5000]
    rational = tmp_path / "huge_rational.json"
    rational.write_text(json.dumps(doc))
    integer = tmp_path / "huge_int.json"
    integer.write_text(text.replace('"truncation": 8', '"truncation": ' + "1" * 5000))
    return rational, integer


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_geometry_exits_with_a_record(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"toric": {"rays": [], "u": []}}))
    code, out, err = run(capsys, command, "--input", str(path))
    if command == "validate":
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False and payload["toric_failures"]
        return
    assert out == ""
    record = json.loads(err.splitlines()[-1])["error"]
    if command in ("brane-mirror", "disc-invariants", "compare-naive"):
        assert (code, record["code"]) == (4, "parse")
    else:
        assert (code, record["code"]) == (2, "validation")
        assert "u is empty" in record["message"]


class TestCurve:
    def test_conifold_uncorrected_pretty(self, capsys, conifold_path):
        code, out, _ = run(
            capsys, "curve", "--input", conifold_path,
            "--corrected=false", "--output", "pretty",
        )
        assert code == 0
        assert out.strip() == "W = 1 + z1 + z2 + Q1*z1^-1*z2"

    def test_c3_pretty(self, capsys, tmp_path):
        doc = {"toric": {"rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1]], "u": [0, 0, 1]}}
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "curve", "--input", str(path), "--output", "pretty")
        assert out.strip() == "W = 1 + z1 + z2"

    def test_kp2_corrected_shows_delta(self, capsys, kp2_path):
        code, out, _ = run(capsys, "curve", "--input", kp2_path, "--order", "2")
        payload = json.loads(out)
        assert payload["terms"][0]["coefficient"] == [
            {"e": [0], "c": "1"},
            {"e": [1], "c": "-2"},
            {"e": [2], "c": "5"},
        ]


class TestPipelines:
    def test_fiber_invariants_kp2(self, capsys, kp2_path):
        code, out, _ = run(capsys, "fiber-invariants", "--input", kp2_path)
        payload = json.loads(out)
        coeffs = {tuple(r["e"]): r["c"] for r in payload["series"][0]}
        assert coeffs == {
            (0,): "1", (1,): "-2", (2,): "5", (3,): "-32", (4,): "286", (5,): "-3038"
        }

    def test_brane_mirror_conifold(self, capsys, conifold_path):
        code, out, _ = run(capsys, "brane-mirror", "--input", conifold_path)
        payload = json.loads(out)
        assert payload["residual_zero"] is True
        assert payload["z1"]["terms"] == [{"e": [1, 0], "c": "1"}]
        assert payload["z2"]["terms"][0] == {"e": [0, 0], "c": "1"}

    def test_disc_invariants_conifold(self, capsys, conifold_path):
        code, out, _ = run(capsys, "disc-invariants", "--input", conifold_path)
        payload = json.loads(out)
        assert payload["integral"] is True
        instantons = {tuple(r["beta"]): r.get("N") for r in payload["table"] if "N" in r}
        assert instantons == {(0, 1): 1, (1, 0): 1}

    def test_compare_naive_conifold(self, capsys, conifold_path):
        code, out, _ = run(capsys, "compare-naive", "--input", conifold_path)
        payload = json.loads(out)
        assert payload["z1_in_closed_ideal"] is True
        assert payload["z1_correction"]["terms"] == []
        assert payload["naive_equations"][0]["z"] == [0, -1]
        assert payload["naive_equations"][1]["z"] == [-1, 0]

    def test_inverse_map_closed_records(self, capsys, kp2_path):
        code, out, _ = run(capsys, "inverse-map", "--input", kp2_path, "--order", "4")
        payload = json.loads(out)
        assert {"e": [2], "c": "6"} in payload["closed"][0]

    def test_normalization_override_flag(self, capsys, conifold_path):
        code, out, _ = run(
            capsys, "brane-mirror", "--input", conifold_path, "--normalization", "1,-1"
        )
        payload = json.loads(out)
        assert payload["signs"] == [1, -1]

    def test_brane_required(self, capsys, kp2_path):
        code, _, err = run(capsys, "brane-mirror", "--input", kp2_path)
        assert code == 4

    def test_math_errors_exit_three(self, capsys, tmp_path):
        doc = json.loads(json.dumps(CONIFOLD_DOC))
        doc["brane"]["frame"] = [[1, 0]]  # cannot hold the curve monomials
        path = tmp_path / "bad_frame.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "brane-mirror", "--input", str(path))
        assert code == 3
        assert "escape" in err or "frame" in err

    def test_invalid_geometry_exits_two(self, capsys, tmp_path):
        doc = {"toric": {"rays": KP2_DOC["toric"]["rays"], "u": [0, 0, 2]}}
        path = tmp_path / "bad_cy.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fiber-invariants", "--input", str(path))
        assert code == 2
        assert "validation" in err

    def test_fractional_instantons_serialized_and_flagged(self, capsys, tmp_path):
        # auxiliary index through the compact divisor: the diagnostic
        # must report non-integral instantons as exact "p/q" strings
        doc = {
            "toric": {"rays": KP2_DOC["toric"]["rays"], "u": [0, 0, 1]},
            "brane": {
                "charges": [[0, -1, 1, 0], [1, -1, 0, 0]],
                "constants": ["0", "1"],
                "phases": ["0", "0"],
                "av_indices": [1, 2, 0],
                "frame": [[1, 0], [-1, 1]],
            },
            "truncation": 7,
        }
        path = tmp_path / "framing.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "disc-invariants", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["integral"] is False
        assert payload["flagged"]
        fractional = [
            r["N"] for r in payload["table"]
            if isinstance(r.get("N"), str) and "/" in r["N"]
        ]
        assert fractional


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--bogus"], id="unknown-flag"),
            pytest.param(["--order", "x"], id="non-integer-order"),
            pytest.param(["--normalization", "-1,-1"], id="negative-first-sign"),
            pytest.param(["--output", "xml"], id="bad-output"),
            pytest.param(None, id="missing-input"),
        ],
    )
    def test_exits_four_with_parse_record(self, capsys, conifold_path, argv):
        args = ["brane-mirror"] + (["--input", conifold_path] + argv if argv else [])
        code, out, err = run(capsys, *args)
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"]["code"] == "parse"

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["curve", "--order", "1" * 5000], "argument --order: ", id="order"),
            pytest.param(["curve", "--output", "x" * 5000], "argument --output: ", id="output"),
            pytest.param(["c" * 5000], "argument command: ", id="command"),
            # argparse quotes a value holding ' with double quotes
            pytest.param(["curve", "--order", "'" + "1" * 4999], "argument --order: ", id="quote"),
            pytest.param(["curve", "1" * 5000], "unrecognized arguments: ", id="unrecognized"),
        ],
    )
    def test_long_value_is_named_shortened(self, capsys, conifold_path, argv, named):
        code, out, err = run(capsys, *argv, "--input", conifold_path)
        assert (code, out) == (4, "")
        assert len(err.encode()) < 300
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert record["message"].startswith(named)
        assert "(5000 characters)" in record["message"]

    @pytest.mark.parametrize("command", ["curve", "batch"])
    def test_long_input_path_is_named_once_shortened(self, capsys, command):
        # the OSError text would name the path a second time
        path = "1" * 5000
        code, out, err = run(capsys, command, "--input", path)
        assert (code, out) == (4, "")
        assert len(err.encode()) < 300
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        message = "cannot read 111111111111...1111 (5000 characters): File name too long"
        assert record["message"] == message

    @pytest.mark.parametrize(
        "name, content",
        [
            pytest.param("latin1.json", b'{"toric": "\xff"}', id="not-utf8"),
            pytest.param("deep.json", b"[" * 100_000 + b"]" * 100_000, id="too-deep"),
            pytest.param("huge_int.json", b'{"truncation": ' + b"1" * 5000 + b"}", id="huge-int"),
            pytest.param("missing.json", None, id="missing"),
        ],
    )
    def test_long_input_path_is_named_shortened_by_every_read_error(
        self, capsys, tmp_path, name, content
    ):
        # twelve nested directories of 200 characters each: a real path
        # past 2400 characters, every component under the 255 limit
        directory = tmp_path.joinpath(*[str(i % 10) * 200 for i in range(12)])
        directory.mkdir(parents=True)
        path = directory / name
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (4, "")
        assert len(err.encode()) < 300
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert f"...{name[-4:]} ({len(str(path))} characters)" in record["message"]

    def test_missing_input_is_named_whole(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "curve", "--input", path)
        assert (code, out) == (4, "")
        message = json.loads(err)["error"]["message"]
        assert message == f"cannot read {path!r}: No such file or directory"

    @pytest.mark.parametrize(
        "name, message",
        [("directory", "cannot read {path!r}: Is a directory"),
         ("empty.json", "line 1 column 1: Expecting value")],
        ids=["directory", "empty"],
    )
    def test_read_error_record_is_the_same_in_a_batch(self, capsys, tmp_path, name, message):
        path = tmp_path / name
        if name == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"")
        record = {"code": "parse", "message": message.format(path=str(path))}
        code, out, err = run(capsys, "curve", "--input", str(path))
        assert (code, out, json.loads(err)) == (4, "", {"error": record})
        _, records = _run_batch(capsys, tmp_path, [_argv_line("curve", "--input", str(path))])
        assert records == [{"exit": 4, "stdout": "", "error": record}]

    def test_negative_first_sign_with_equals(self, capsys, conifold_path):
        code, out, _ = run(
            capsys, "brane-mirror", "--input", conifold_path, "--normalization=-1,-1"
        )
        assert code == 0
        assert json.loads(out)["signs"] == [-1, -1]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_consecutive_calls_share_no_flags(self, capsys, conifold_path):
        # the parser is built once per process; each call parses afresh
        code, pretty, _ = run(
            capsys, "curve", "--input", conifold_path, "--order", "2", "--output", "pretty"
        )
        assert code == 0
        assert pretty.startswith("W = ")
        code, out, _ = run(capsys, "curve", "--input", conifold_path)
        assert code == 0
        assert json.loads(out)["order"] == CONIFOLD_DOC["truncation"]


def _count_parses(monkeypatch):
    """Count the argv parses of the CLI's parser."""
    from syzmirror import cli

    calls, parse = [], cli._ArgumentParser.parse_args
    monkeypatch.setattr(
        cli._ArgumentParser, "parse_args", lambda self, *args: calls.append(args) or parse(self, *args)
    )
    return calls


class TestArgvCache:
    @pytest.mark.parametrize(
        "options", [(), ("--output", "pretty"), ("--corrected=false",), ("--normalization=1,-1",)]
    )
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_repeated_argv_is_parsed_once(
        self, capsys, monkeypatch, conifold_path, command, options
    ):
        parses = _count_parses(monkeypatch)
        argv = (command, "--input", conifold_path, "--order", "3", *options)
        first = run(capsys, *argv)
        assert first[0] == 0
        assert [run(capsys, *argv) for _ in range(2)] == [first, first]
        assert len(parses) == 1

    @pytest.mark.parametrize("argv", [("--order", "x"), ("--bogus",)], ids=["order", "unknown"])
    def test_an_argument_error_is_raised_on_every_repeat(self, capsys, conifold_path, argv):
        from syzmirror import cli

        results = [run(capsys, "curve", "--input", conifold_path, *argv) for _ in range(3)]
        code, out, err = results[0]
        assert (code, out, json.loads(err)["error"]["code"]) == (4, "", "parse")
        assert results == [results[0]] * 3
        assert cli._parse_argv.cache_info().currsize == 0

    def test_help_prints_usage_on_every_repeat(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: syzmirror")

    def test_no_argv_reads_the_process_arguments(self, capsys, monkeypatch, conifold_path):
        argv = ["curve", "--input", conifold_path, "--order", "2"]
        given = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["syzmirror", *argv])
        assert (main(None), *capsys.readouterr()) == given
        assert given[0] == 0 and json.loads(given[1])["order"] == 2


class TestDeterminism:
    def test_identical_bytes(self, conifold_path, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "disc-invariants", "--input", conifold_path)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_output_matches_memory_value(self, capsys, conifold_path):
        code, out, _ = run(capsys, "brane-mirror", "--input", conifold_path)
        payload = json.loads(out)
        from syzmirror import av_mirror_brane
        from tests.conftest import av_brane

        from syzmirror import ToricCYData

        data = ToricCYData(
            rays=tuple(tuple(r) for r in CONIFOLD_DOC["toric"]["rays"]),
            u=(0, 0, 1),
        )
        brane = av_brane(0, 2, 1, m=4, c=F(2))
        result = av_mirror_brane(data, brane, 8)
        assert payload["z2"] == series_to_json(result.z2)
        assert payload["z1"] == series_to_json(result.z1)


def _with(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestParseErrors:
    @pytest.mark.parametrize(
        "path,value",
        [
            pytest.param(("truncation",), "abc", id="truncation"),
            pytest.param(("toric", "u"), ["x", 0, 1], id="u"),
            pytest.param(("normalization",), ["a", 1], id="normalization"),
            pytest.param(("brane", "av_indices"), ["x", 2, 3], id="av_indices"),
            pytest.param(("brane", "boundary_grading"), [None, 1], id="boundary_grading"),
            pytest.param(("corrected",), "false", id="corrected"),
            pytest.param(("toric", "u"), [0, 0, 1.9], id="u-float"),
            pytest.param(
                ("toric", "rays"), [[0, 0, True], [1, 0, 1], [1, 1, 1], [0, 1, 1]], id="rays-bool"
            ),
            pytest.param(("truncation",), True, id="truncation-bool"),
            pytest.param(("truncation",), 8.0, id="truncation-float"),
            pytest.param(("brane", "av_indices"), [0, 2.5, 1], id="av_indices-float"),
            pytest.param(("brane", "constants"), [False, "1"], id="constants-bool"),
            pytest.param(("brane", "constants"), ["0", "1.5"], id="constants-decimal"),
            pytest.param(("brane", "phases"), ["0", True], id="phases-bool"),
            pytest.param(("brane", "phases"), ["1e3", "0"], id="phases-exponent"),
            pytest.param(("toric", "lambda"), ["1_0", "0", "0", "0"], id="lambda-separator"),
            pytest.param(("toric", "lambda"), [0, 0, 0.5, 0], id="lambda-float"),
        ],
    )
    def test_bad_field_exits_four(self, capsys, tmp_path, path, value):
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(_with(CONIFOLD_DOC, path, value)))
        code, out, err = run(capsys, "curve", "--input", str(file))
        assert code == 4
        assert out == ""
        record = json.loads(err)
        assert record["error"]["code"] == "parse"
        assert path[-1] in record["error"]["message"]

    @pytest.mark.parametrize(
        "field, value, flag",
        [
            ("truncation", 0, "--order=0"),
            ("truncation", -3, "--order=-3"),
            ("normalization", [1, 2], "--normalization=1,2"),
            ("normalization", [1, -1, 1], "--normalization=1,-1,1"),
        ],
    )
    def test_flag_and_field_share_one_rule(self, capsys, tmp_path, field, value, flag):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps(_with(CONIFOLD_DOC, (field,), value)))
        good.write_text(json.dumps(CONIFOLD_DOC))
        code, _, err = run(capsys, "brane-mirror", "--input", str(bad))
        flag_code, _, flag_err = run(capsys, "brane-mirror", "--input", str(good), flag)
        assert code == flag_code == 4
        message = json.loads(err)["error"]["message"]
        assert message.startswith(f"{field} must be")
        source = flag.split("=")[0]
        assert json.loads(flag_err)["error"]["message"] == message.replace(field, source, 1)

    def test_local_p2_boolean_constant_exits_four(self, capsys, tmp_path):
        doc = json.loads(LOCAL_P2_JOB.read_text())
        file = tmp_path / "job.json"
        file.write_text(json.dumps(_with(doc, ("brane", "constants"), [False, "1"])))
        code, out, err = run(capsys, "compare-naive", "--input", str(file), "--order", "3")
        assert code == 4
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert "brane.constants" in message and "False" in message

    @pytest.mark.parametrize("value", [True, False])
    def test_corrected_json_bool(self, capsys, tmp_path, value):
        file = tmp_path / "job.json"
        file.write_text(json.dumps(_with(CONIFOLD_DOC, ("corrected",), value)))
        code, out, _ = run(capsys, "curve", "--input", str(file), "--order", "2")
        assert code == 0
        assert json.loads(out)["corrected"] is value


JOBS = Path(__file__).resolve().parent.parent / "jobs"
LOCAL_P2_JOB = Path(__file__).resolve().parent.parent / "jobs" / "local_p2.json"
LOCAL_DP3_JOB = Path(__file__).resolve().parent.parent / "perfbench" / "jobs" / "local_dp3.json"
LOCAL_P1XP1_JOB = (
    Path(__file__).resolve().parent.parent / "perfbench" / "jobs" / "local_p1xp1.json"
)


def test_local_p1xp1_disc_invariants_are_integral(capsys):
    # the integrality gate on a second geometry: two closed parameters,
    # leg brane
    code, out, _ = run(
        capsys, "disc-invariants", "--input", str(LOCAL_P1XP1_JOB), "--order", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] is True
    assert payload["flagged"] == []


SHIPPED_BRANE_JOBS = (
    Path(__file__).resolve().parent.parent / "jobs" / "c3.json",
    Path(__file__).resolve().parent.parent / "jobs" / "conifold.json",
    LOCAL_P2_JOB,
    LOCAL_P1XP1_JOB,
)


def reference_disc_table(n):
    """The printed table, flags and verdict for the invariants ``n`` (class
    -> Fraction), inverted by Mobius summation over ``Fraction``s."""
    N = divisor_closure_inversion(n)
    rows = []
    for beta in sorted(set(n) | set(N)):
        entry = {"beta": list(beta)}
        if beta in n:
            entry["n"] = str(n[beta])
        if beta in N:
            entry["N"] = int(N[beta]) if N[beta].denominator == 1 else str(N[beta])
        rows.append(entry)
    flagged = [list(beta) for beta in sorted(N) if N[beta].denominator != 1]
    return rows, flagged, not flagged


@pytest.mark.parametrize("path", SHIPPED_BRANE_JOBS, ids=lambda p: p.stem)
def test_shipped_disc_tables_match_the_fraction_reference(capsys, path):
    job = parse_job(json.loads(path.read_text()))
    for order in range(1, 11):
        code, out, err = run(capsys, "disc-invariants", "--input", str(path), "--order", str(order))
        assert code == 0
        payload = json.loads(out)
        z2 = av_mirror_brane(job.toric, job.brane, order).z2
        neg_log = -log_series(z2)
        boundary = z2.frame.boundary
        n = {e: c / sum(b * x for b, x in zip(boundary, e)) for e, c in neg_log.terms.items()}
        rows, flagged, integral = reference_disc_table(n)
        assert (payload["table"], payload["flagged"], payload["integral"]) == (
            rows, flagged, integral
        ), order
        assert err.splitlines()[-1] == f"integrality: {'pass' if integral else 'FAIL'}"


def test_non_integral_instantons_print_as_fractions_and_fail(capsys, tmp_path):
    # the compact-divisor brane on local P2 has non-integral N; each one is
    # a "p/q" string in the table and on stderr, and its class is flagged
    doc = json.loads(LOCAL_P2_JOB.read_text())
    doc["brane"]["charges"] = [[0, -1, 1, 0], [1, -1, 0, 0]]
    doc["brane"]["av_indices"] = [1, 2, 0]
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "disc-invariants", "--input", str(path), "--order", "7")
    assert code == 0
    payload = json.loads(out)
    n = {tuple(row["beta"]): F(row["n"]) for row in payload["table"] if "n" in row}
    rows, flagged, integral = reference_disc_table(n)
    assert payload["table"] == rows
    fractional = [row for row in rows if isinstance(row.get("N"), str)]
    assert fractional and all("/" in row["N"] for row in fractional)
    assert payload["flagged"] == flagged == [row["beta"] for row in fractional]
    assert payload["integral"] is integral is False
    lines = err.splitlines()
    assert lines[-1] == "integrality: FAIL"
    assert [line.split(" N=")[1] for line in lines[:-1] if "/" in line.split(" N=")[1]] == [
        row["N"] for row in fractional
    ]


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps the bytes it is given and counts its writes."""

    def __init__(self):
        self.writes, self.data = 0, bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        self.data += data
        return len(data)


# SHA-256 of the local P2 order-20 disc-invariants summary: the stderr of a
# JSON run and the stdout of a pretty one, as printed one line per write
KP2_ORDER_20_SUMMARY = "1a44e80eee35155b9d112f8405eed958a11ed0c3ba24c06fd31b719ba22d01c0"


@pytest.mark.parametrize("output,stream", [("json", "stderr"), ("pretty", "stdout")])
def test_summary_is_written_in_one_call(monkeypatch, output, stream):
    # like sys.stderr, the stream is write-through: each write reaches the
    # raw stream, one system call apiece on a real file (221 at this order
    # with one write per line)
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    monkeypatch.setattr(sys, stream, io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    argv = ["disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "20", "--output", output]
    assert main(argv) == 0
    assert raw.writes == 1
    assert hashlib.sha256(raw.data).hexdigest() == KP2_ORDER_20_SUMMARY


class TestBoundaryGrading:
    # the boundary grading is the Q0 exponent of each frame generator; a
    # document that names one is refused, even with the value read off
    @pytest.mark.parametrize("command", ["brane-mirror", "disc-invariants", "compare-naive"])
    @pytest.mark.parametrize(
        "grading",
        [[1], [1, 1, 1], [], [1, -1], [2, -2], [-1, 1]],
        ids=["short", "long", "empty", "default", "doubled", "negated"],
    )
    def test_exits_four_naming_the_field(self, capsys, tmp_path, command, grading):
        doc = json.loads(LOCAL_P2_JOB.read_text())
        file = tmp_path / "job.json"
        file.write_text(json.dumps(_with(doc, ("brane", "boundary_grading"), grading)))
        code, out, err = run(capsys, command, "--input", str(file), "--order", "3")
        assert (code, out) == (4, "")
        record = json.loads(err)["error"]
        assert record["code"] == "parse"
        assert "brane.boundary_grading" in record["message"]

    def test_batch_line_gets_a_parse_record(self, capsys, tmp_path):
        doc = json.loads(LOCAL_P2_JOB.read_text())
        file = tmp_path / "job.json"
        file.write_text(json.dumps(_with(doc, ("brane", "boundary_grading"), [1, -1])))
        lines = [
            _argv_line("disc-invariants", "--input", str(file), "--order", "3"),
            _argv_line("disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "3"),
        ]
        code, records = _run_batch(capsys, tmp_path, lines)
        assert code == 0
        refused, shipped = records
        assert (refused["exit"], refused["stdout"], refused["error"]["code"]) == (4, "", "parse")
        assert "brane.boundary_grading" in refused["error"]["message"]
        assert shipped["exit"] == 0 and "error" not in shipped


class TestInvalidBrane:
    @pytest.mark.parametrize("command", ["brane-mirror", "disc-invariants", "compare-naive"])
    @pytest.mark.parametrize(
        "row", [[0, -1, 1], [0, -1, 1, 1]], ids=["wrong-length", "nonzero-sum"]
    )
    def test_exits_two(self, capsys, tmp_path, command, row):
        doc = json.loads(LOCAL_P2_JOB.read_text())
        doc["brane"]["charges"][0] = row
        file = tmp_path / "job.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--input", str(file), "--order", "3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"


C3_Z5_113_DOC = {
    # resolved C^3/Z_5 with weights (1, 1, 3): (1, 1) and (1, 2) are
    # interior points of the polygon, rays 0 and 4
    "toric": {"rays": [[1, 1, 1], [1, 0, 1], [0, 0, 1], [2, 5, 1], [1, 2, 1]], "u": [0, 0, 1]},
    "truncation": 3,
}


class TestSeveralCompactDivisors:
    @pytest.mark.parametrize("command", ["mirror-map", "inverse-map", "fiber-invariants"])
    def test_canonical_relations_are_refused(self, capsys, tmp_path, command):
        path = tmp_path / "c3_z5_113.json"
        path.write_text(json.dumps(C3_Z5_113_DOC))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "math"
        assert "rays [0, 4]" in error["message"]

    def test_validate_reports_the_refusal(self, capsys, tmp_path):
        # the charge basis the computing commands refuse fails validation
        path = tmp_path / "c3_z5_113.json"
        path.write_text(json.dumps(C3_Z5_113_DOC))
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert any("rays [0, 4]" in failure for failure in payload["toric_failures"])

    @pytest.mark.parametrize(
        "command", ["validate", "mirror-map", "inverse-map", "fiber-invariants"]
    )
    def test_supplied_mori_basis_runs(self, capsys, tmp_path, command):
        doc = _with(C3_Z5_113_DOC, ("toric", "charge_basis"), [[-2, 1, 0, 0, 1], [1, 0, 1, 1, -3]])
        path = tmp_path / "c3_z5_113.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, command, "--input", str(path))
        assert code == 0
        assert json.loads(out)


def _count_bodies(monkeypatch):
    """Count the calls of every command body in ``COMMANDS``, by command."""
    calls = []
    for command, body in list(COMMANDS.items()):
        def counted(job, command=command, body=body):
            calls.append(command)
            return body(job)

        monkeypatch.setitem(COMMANDS, command, counted)
    return calls


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every binding in the package."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("syzmirror"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class TestRepeatedWork:
    def test_disc_invariants_computes_each_intermediate_once(self, capsys, monkeypatch):
        from syzmirror import fps, lattice, mirror

        inverse_maps = _count_calls(monkeypatch, mirror, "inverse_mirror_map")
        logs = _count_calls(monkeypatch, fps, "log_series")
        lattice_calls = {
            name: _count_calls(monkeypatch, lattice, name)
            for name in ("charge_basis", "dual_exponents", "validate_cy")
        }
        curve_tables = _count_calls(monkeypatch, mirror, "curve_in_brane_frame")
        roots = _count_calls(monkeypatch, mirror, "solve_curve_root")
        audits = _count_calls(monkeypatch, mirror, "evaluate_curve")
        code, _, _ = run(capsys, "disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "6")
        assert code == 0
        assert len(inverse_maps) == 1
        assert len(logs) == 1
        assert {name: len(calls) for name, calls in lattice_calls.items()} == {
            "charge_basis": 1, "dual_exponents": 1, "validate_cy": 1
        }
        assert len(curve_tables) == 1
        assert len(roots) == 1
        assert len(audits) == 0

    def _brane_solves(self, monkeypatch):
        from syzmirror import fps, mirror

        return [
            _count_calls(monkeypatch, mirror, "curve_in_brane_frame"),
            _count_calls(monkeypatch, mirror, "solve_curve_root"),
            _count_calls(monkeypatch, fps, "log_series"),
        ]

    def test_brane_commands_on_one_document_solve_the_brane_once(self, capsys, monkeypatch):
        solves = self._brane_solves(monkeypatch)
        for command in ("brane-mirror", "disc-invariants", "compare-naive"):
            code, _, _ = run(capsys, command, "--input", str(LOCAL_P2_JOB), "--order", "6")
            assert code == 0
        assert [len(calls) for calls in solves] == [1, 1, 1]

    def test_another_order_or_frame_solves_the_brane_again(self, capsys, monkeypatch, tmp_path):
        # the second document's brane differs only in its frame: its
        # generators are listed the other way round
        doc = json.loads(LOCAL_P2_JOB.read_text())
        doc["brane"]["frame"] = doc["brane"]["frame"][::-1]
        swapped = tmp_path / "local_p2_swapped.json"
        swapped.write_text(json.dumps(doc))
        solves = self._brane_solves(monkeypatch)
        runs = [(LOCAL_P2_JOB, "6"), (LOCAL_P2_JOB, "5"), (swapped, "6"), (LOCAL_P2_JOB, "6")]
        counts = []
        for job, order in runs:
            code, _, _ = run(capsys, "disc-invariants", "--input", str(job), "--order", order)
            assert code == 0
            counts.append([len(calls) for calls in solves])
        assert counts == [[1, 1, 1], [2, 2, 2], [3, 3, 3], [3, 3, 3]]

    def test_refused_normalization_is_refused_on_every_repeat(self, capsys, monkeypatch):
        # a refusal keeps nothing: each repeat solves and refuses again
        from syzmirror import cli

        argv = ("brane-mirror", "--input", str(LOCAL_P2_JOB), "--order", "6")
        roots = self._brane_solves(monkeypatch)[1]
        for repeat in range(1, 4):
            code, out, err = run(capsys, *argv, "--normalization=-1,1")
            assert (code, out) == (3, "")
            assert json.loads(err.splitlines()[-1])["error"]["code"] == "math"
            assert len(roots) == repeat
        code, after_refusal, _ = run(capsys, *argv)
        cli._parse_text.cache_clear()
        cold = run(capsys, *argv)
        assert (code, after_refusal) == cold[:2] and code == 0

    def _disc_work(self, monkeypatch):
        from syzmirror import invariants

        return [
            _count_calls(monkeypatch, invariants, name)
            for name in ("extract_open_gw", "multiple_cover_inversion", "integrality_check")
        ]

    def test_repeated_disc_invariants_builds_the_table_once(self, capsys, monkeypatch):
        discs = self._disc_work(monkeypatch)
        argv = ("disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "6")
        first = run(capsys, *argv)
        assert first[0] == 0 and [len(calls) for calls in discs] == [1, 1, 1]
        assert run(capsys, *argv) == first
        assert [len(calls) for calls in discs] == [1, 1, 1]

    def test_brane_mirror_builds_no_disc_table_or_comparison(self, capsys, monkeypatch):
        from syzmirror import mirror

        discs = self._disc_work(monkeypatch)
        comparisons = _count_calls(monkeypatch, mirror, "_naive_comparison")
        code, _, _ = run(capsys, "brane-mirror", "--input", str(LOCAL_P2_JOB), "--order", "6")
        assert code == 0
        assert [len(calls) for calls in [*discs, comparisons]] == [0, 0, 0, 0]

    def test_repeated_compare_naive_builds_one_comparison(self, capsys, monkeypatch):
        from syzmirror import mirror

        comparisons = _count_calls(monkeypatch, mirror, "_naive_comparison")
        argv = ("compare-naive", "--input", str(LOCAL_P2_JOB), "--order", "6")
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first
        assert len(comparisons) == 1

    def test_another_normalization_builds_its_own_disc_table(self, capsys, monkeypatch):
        extractions = self._disc_work(monkeypatch)[0]
        argv = ("disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "6")
        counts = []
        for normalization in ((), ("--normalization=1,-1",), (), ("--normalization=1,-1",)):
            code, _, _ = run(capsys, *argv, *normalization)
            assert code == 0
            counts.append(len(extractions))
        assert counts == [1, 2, 2, 2]

    @pytest.mark.parametrize("command", ["disc-invariants", "compare-naive"])
    def test_refused_normalization_keeps_no_table_or_comparison(
        self, capsys, monkeypatch, command
    ):
        from syzmirror import cli, mirror

        argv = (command, "--input", str(LOCAL_P2_JOB), "--order", "6")
        work = [*self._disc_work(monkeypatch), _count_calls(monkeypatch, mirror, "_naive_comparison")]
        for _ in range(3):
            code, out, err = run(capsys, *argv, "--normalization=-1,1")
            assert (code, out) == (3, "")
            assert json.loads(err.splitlines()[-1])["error"]["code"] == "math"
        assert [len(calls) for calls in work] == [0, 0, 0, 0]
        code, after_refusal, _ = run(capsys, *argv)
        cli._parse_text.cache_clear()
        cold = run(capsys, *argv)
        assert (code, after_refusal) == cold[:2] and code == 0

    def test_a_repeated_run_runs_no_command_body(self, capsys, monkeypatch):
        # a run's output is kept per command and job options, whatever
        # --output picks, so the first run of each key runs its body once
        # and every repeat writes the kept texts
        argvs = [
            (command, "--input", str(LOCAL_P2_JOB), "--order", "4", "--output", output, *options)
            for command in sorted(COMMANDS)
            for options in ((), ("--corrected=false",), ("--normalization=1,-1",))
            for output in ("json", "pretty")
        ]
        bodies = _count_bodies(monkeypatch)
        first = [run(capsys, *argv) for argv in argvs]
        assert {code for code, _, _ in first} == {0}
        assert len(bodies) == len(argvs) // 2
        assert [run(capsys, *argv) for argv in argvs] == first
        assert len(bodies) == len(argvs) // 2

    @pytest.mark.parametrize("command", ["brane-mirror", "disc-invariants", "compare-naive"])
    def test_a_repeated_brane_run_hashes_no_fraction(self, capsys, monkeypatch, command):
        # a brane hashes by its integer fields, so the repeat's store read,
        # keyed by the brane, hashes none of its rationals
        argv = (command, "--input", str(LOCAL_P2_JOB), "--order", "6")
        first = run(capsys, *argv)
        assert first[0] == 0
        hashes, fraction_hash = [], F.__hash__
        monkeypatch.setattr(F, "__hash__", lambda q: hashes.append(q) or fraction_hash(q))
        assert run(capsys, *argv) == first
        assert hashes == []

    def test_the_output_entry_holds_what_the_run_wrote(self, capsys):
        # one entry per command and job options: the JSON document with
        # its newline, the summary, and the exit code
        from syzmirror import cli

        argv = ("validate", "--input", str(LOCAL_P2_JOB), "--corrected=false")
        code, out, err = run(capsys, *argv)
        job = cli._parse_text(LOCAL_P2_JOB.read_bytes())
        entry = job.toric.__dict__["_kept"][("output", "validate", job.brane, 8, False, None)]
        assert entry == (out, err, code) == (out, "toric data: ok\nbrane: ok\n", 0)
        assert out.endswith("}\n") and json.loads(out)["ok"] is True
        _, pretty, _ = run(capsys, *argv, "--output", "pretty")
        assert pretty == err

    @pytest.mark.parametrize("output", ["json", "pretty"])
    def test_a_repeated_run_decodes_no_printed_rows(self, capsys, monkeypatch, output):
        # each run's output is kept with its document, so the runs
        # repeated decode no row
        from syzmirror import cli
        from syzmirror._backend import Terms

        argvs = [
            (command, "--input", str(LOCAL_P2_JOB), "--order", "6", "--output", output)
            for command in sorted(set(cli.COMMANDS) - {"validate"})
        ]
        argvs.append(("curve", "--input", str(LOCAL_P2_JOB), "--order", "6", "--output", output,
                      "--corrected=false"))
        first = [run(capsys, *argv) for argv in argvs]
        assert {code for code, _, _ in first} == {0}
        decodes, decode = [], Terms.exponents
        monkeypatch.setattr(Terms, "exponents", lambda t: decodes.append(t) or decode(t))
        assert [run(capsys, *argv) for argv in argvs] == first
        assert decodes == []

    def test_kept_brane_series_belongs_to_the_brane_passed(self, kp2, kp2_leg_brane):
        # both branes have one frame, so they solve at one closed order and
        # one brane order; each call gets its own brane's series
        from syzmirror import ToricCYData
        from tests.conftest import av_brane

        other = av_brane(1, 2, 0, m=4)
        leg = av_mirror_brane(kp2, kp2_leg_brane, 4)
        through_compact = av_mirror_brane(kp2, other, 4)
        assert through_compact == av_mirror_brane(ToricCYData(*kp2), other, 4)
        assert through_compact != leg
        assert av_mirror_brane(kp2, kp2_leg_brane, 4) == leg

    def test_equal_branes_share_one_kept_brane_series(self, kp2, kp2_leg_brane):
        # the toric data keeps what it builds by the brane's value, so an
        # equal brane object reads the series kept for the first
        from syzmirror import BraneSpec

        equal = BraneSpec(*kp2_leg_brane)
        assert equal == kp2_leg_brane and equal is not kp2_leg_brane
        assert av_mirror_brane(kp2, equal, 4) is av_mirror_brane(kp2, kp2_leg_brane, 4)

    def test_brane_job_maps_the_open_unit_into_the_frame_once(self, monkeypatch, kp2):
        # through the compact divisor the open unit is not 1; z1 = Q0 u
        # reuses the brane-frame u that the curve table was built with
        from syzmirror import mirror
        from tests.conftest import av_brane

        original, inverse_maps = mirror.inverse_mirror_map, []

        def recorded(*args, **kwargs):
            inverse_maps.append(original(*args, **kwargs))
            return inverse_maps[-1]

        monkeypatch.setattr(mirror, "inverse_mirror_map", recorded)
        maps = _count_calls(monkeypatch, mirror, "map_closed_series")
        mirror.av_mirror_brane(kp2, av_brane(1, 2, 0, m=4), 4)
        (inverse_map,) = inverse_maps
        unit = inverse_map.open_unit
        assert unit != 1
        assert sum(args[0] is unit for args in maps) == 1

    def test_validate_with_supplied_charge_rows_builds_no_charge_basis(
        self, capsys, monkeypatch, tmp_path
    ):
        # the Z-basis check reads the supplied rows' trailing block alone
        from syzmirror import lattice

        doc = json.loads(LOCAL_P2_JOB.read_text())
        doc["toric"]["charge_basis"] = [[-3, 1, 1, 1]]
        path = tmp_path / "local_p2.json"
        path.write_text(json.dumps(doc))
        bases = _count_calls(monkeypatch, lattice, "charge_basis")
        code, _, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0
        assert len(bases) == 0

    def test_fiber_invariants_computes_the_charge_basis_once(self, capsys, monkeypatch):
        from syzmirror import lattice

        bases = _count_calls(monkeypatch, lattice, "charge_basis")
        code, _, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_DP3_JOB), "--order", "3")
        assert code == 0
        assert len(bases) == 1

    def test_fiber_invariants_builds_the_a_series_in_one_pass(self, capsys, monkeypatch):
        # one call returns every A_j; it once ran per ray (7 on local dP3)
        from syzmirror import mirror

        passes = _count_calls(monkeypatch, mirror, "a_series")
        code, _, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_DP3_JOB), "--order", "3")
        assert code == 0
        assert len(passes) == 1

    def test_brane_frame_packing_does_no_elimination(self, capsys, monkeypatch):
        # the frame inverts its solver block once, so the number of
        # eliminations does not grow with the number of packed terms
        from syzmirror import cli, lattice

        counts = []
        for order in ("4", "8"):
            cli._parse_text.cache_clear()  # both runs build the lattice data afresh
            calls = _count_calls(monkeypatch, lattice, "row_reduce")
            code, _, _ = run(capsys, "disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", order)
            assert code == 0
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize(
        "command,job,order",
        [
            pytest.param("fiber-invariants", LOCAL_DP3_JOB, "3", id="fiber-local-dp3"),
            pytest.param("disc-invariants", LOCAL_P2_JOB, "6", id="disc-local-p2"),
        ],
    )
    def test_no_a_series_is_composed(self, capsys, monkeypatch, command, job, order):
        # Lagrange inversion reads the fiber series and the open unit off
        # one product chain: no composition and no fixed point
        from syzmirror import fps, mirror

        compositions = _count_calls(monkeypatch, fps, "substitute")
        fixed_points = _count_calls(monkeypatch, fps, "fixed_point_system")
        inverse_maps = _count_calls(monkeypatch, mirror, "inverse_mirror_map")
        code, _, _ = run(capsys, command, "--input", str(job), "--order", order)
        assert code == 0
        assert len(inverse_maps) == 1
        assert len(compositions) == len(fixed_points) == 0

    def test_inverse_map_builds_no_fiber_series(self, capsys, monkeypatch):
        # the closed images and the open unit are read off the Lagrange
        # chain, with no exp, no series inverse and no power; the fiber
        # series are derived only when read
        from syzmirror import fps

        exps = _count_calls(monkeypatch, fps, "exp_series")
        inverses = _count_calls(monkeypatch, fps, "inverse")
        powers = _count_calls(monkeypatch, fps, "pow_int")
        code, _, _ = run(capsys, "inverse-map", "--input", str(LOCAL_P2_JOB), "--order", "6")
        assert code == 0
        assert len(exps) == len(inverses) == len(powers) == 0

    def test_collinear_charge_rows_share_one_exp_per_pass(self, capsys, monkeypatch):
        # only A_0 is nonzero on local dP3: the fiber series of ray 0 is
        # one read-off of the chain, with no exp, the other rays get 1,
        # and no closed unit is built
        from syzmirror import fps

        exps = _count_calls(monkeypatch, fps, "exp_series")
        code, _, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_DP3_JOB), "--order", "3")
        assert code == 0
        assert len(exps) == 0

    def test_fiber_invariants_is_the_lagrange_chain_alone(self, capsys, monkeypatch):
        # with one live ray the chain is R_g = A^g / g! for g = 1..7: six
        # products and no Delta, and the fiber series is read off it with
        # no exp (the Delta chain took seven products and one exp)
        from syzmirror import _backend, fps

        products = _count_calls(monkeypatch, _backend, "mul_terms")
        exps = _count_calls(monkeypatch, fps, "exp_series")
        code, _, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_DP3_JOB), "--order", "7")
        assert code == 0
        assert len(products) == 6
        assert len(exps) == 0

    @pytest.mark.parametrize(
        "command,job",
        [
            pytest.param("fiber-invariants", LOCAL_DP3_JOB, id="fiber-local-dp3"),
            pytest.param("curve", LOCAL_P2_JOB, id="curve-local-p2"),
            pytest.param("brane-mirror", LOCAL_P2_JOB, id="brane-local-p2"),
            pytest.param("disc-invariants", LOCAL_P2_JOB, id="disc-local-p2"),
            pytest.param("compare-naive", LOCAL_P2_JOB, id="naive-local-p2"),
            pytest.param("disc-invariants", LOCAL_P1XP1_JOB, id="disc-local-p1xp1"),
        ],
    )
    def test_consumers_of_the_inverse_map_build_no_closed_unit(
        self, capsys, monkeypatch, command, job
    ):
        # the curve reads the fiber series and a brane the open unit; the
        # closed images are printed by inverse-map alone, and no unit is
        # built from a series inverse
        from syzmirror import fps, mirror

        closed_reads = []
        read_closed = mirror.MirrorMapData.closed.fget

        def closed(self):
            closed_reads.append(self.direction)
            return read_closed(self)

        monkeypatch.setattr(mirror.MirrorMapData, "closed", property(closed))
        in_unit = []
        build_unit = mirror.MirrorMapData._unit

        def unit(self, row):
            in_unit.append(row)
            try:
                return build_unit(self, row)
            finally:
                in_unit.pop()

        monkeypatch.setattr(mirror.MirrorMapData, "_unit", unit)
        unit_inverses = []
        invert = fps.inverse

        def inverse(s):
            if in_unit:
                unit_inverses.append(s)
            return invert(s)

        monkeypatch.setattr(fps, "inverse", inverse)
        code, _, _ = run(capsys, command, "--input", str(job), "--order", "4")
        assert code == 0
        assert closed_reads == []
        assert unit_inverses == []

    def test_forward_map_takes_one_exp_per_live_a_series(self, capsys, monkeypatch):
        # only A_0 is nonzero on local dP3 and its row weights are
        # -2, -2, -1, -3: one exp per closed unit, each of w * A_0, and
        # no power
        from syzmirror import fps

        exps = _count_calls(monkeypatch, fps, "exp_series")
        powers = _count_calls(monkeypatch, fps, "pow_int")
        code, _, _ = run(capsys, "mirror-map", "--input", str(LOCAL_DP3_JOB), "--order", "3")
        assert code == 0
        assert len(exps) == 4
        assert len(powers) == 0

    def test_frame_without_q0_exits_before_the_inverse_map(self, capsys, monkeypatch, tmp_path):
        from syzmirror import mirror

        inverse_maps = _count_calls(monkeypatch, mirror, "inverse_mirror_map")
        doc = json.loads(LOCAL_P2_JOB.read_text())
        file = tmp_path / "job.json"
        file.write_text(json.dumps(_with(doc, ("brane", "frame"), [[1, 1], [0, 1]])))
        code, out, err = run(capsys, "disc-invariants", "--input", str(file), "--order", "4")
        assert code == 3
        assert out == ""
        assert "Q0" in json.loads(err)["error"]["message"]
        assert inverse_maps == []

    def test_compare_naive_builds_the_brane_frame_once(self, capsys, monkeypatch):
        from syzmirror import mirror

        frames = _count_calls(monkeypatch, mirror, "brane_frame")
        code, _, _ = run(capsys, "compare-naive", "--input", str(LOCAL_P2_JOB), "--order", "4")
        assert code == 0
        assert len(frames) == 1

    def test_runs_on_one_document_and_order_share_one_map_core(self, capsys, monkeypatch):
        # the A-series, the Lagrange chain and each unit are kept on the
        # parsed document per closed order; local P2's brane frame needs
        # no higher closed order than the job's
        from syzmirror import mirror

        units = []
        read_off = mirror.LagrangeChain.unit

        def unit(self, weights):
            units.append(tuple(weights))
            return read_off(self, weights)

        monkeypatch.setattr(mirror.LagrangeChain, "unit", unit)
        passes = _count_calls(monkeypatch, mirror, "a_series")
        chains = _count_calls(monkeypatch, mirror, "LagrangeChain")
        commands = ("curve", "fiber-invariants", "inverse-map", "disc-invariants",
                    "brane-mirror", "compare-naive", "mirror-map")
        for command in commands:
            code, _, _ = run(capsys, command, "--input", str(LOCAL_P2_JOB), "--order", "4")
            assert code == 0, command
        assert (len(passes), len(chains)) == (1, 1)
        # one read-off each for the fiber of the live ray (weight 1) and
        # the closed image (weight -3); the open unit has no live weight
        assert sorted(units) == [(-3,), (1,)]

    def test_orders_past_the_bound_are_evicted_and_rebuilt_alike(self, capsys, monkeypatch):
        from syzmirror import cli, lattice, mirror

        passes = _count_calls(monkeypatch, mirror, "a_series")
        bodies = _count_bodies(monkeypatch)
        job = cli._parse_text(LOCAL_P2_JOB.read_bytes())
        key = ("output", "fiber-invariants", job.brane, 2, job.corrected, job.normalization)
        orders, outs = [], []
        # read order 2 between new orders until their entries push its
        # output out: the entry kept first goes first, however recently
        # it was read, so order 2's A-series goes before its output
        for new in range(3, 3 + lattice.KEPT):
            for order in (2, new):
                code, out, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_P2_JOB),
                                   "--order", str(order))
                assert code == 0
                orders.append(order)
                outs.append(out)
            store = job.toric.__dict__["_kept"]
            if key not in store:
                break
        assert key not in store and ("a_series", 2) not in store
        assert len(bodies) == len(passes) == len(set(orders))
        assert len(store) == lattice.KEPT
        code, out, _ = run(capsys, "fiber-invariants", "--input", str(LOCAL_P2_JOB), "--order", "2")
        orders.append(2)
        outs.append(out)
        assert len(bodies) == len(passes) == len(set(orders)) + 1
        assert len(store) == lattice.KEPT and key in store
        assert outs[-1] == outs[0]
        root = Path(__file__).resolve().parent.parent
        alone = subprocess.run(
            [sys.executable, "-m", "syzmirror.cli", "fiber-invariants",
             "--input", str(LOCAL_P2_JOB), "--order", "2"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
        )
        assert alone.stdout.decode() == outs[-1]

    def test_clearing_the_parse_cache_drops_the_map_cores(self, capsys, monkeypatch):
        from syzmirror import cli, mirror

        passes = _count_calls(monkeypatch, mirror, "a_series")
        argv = ("curve", "--input", str(LOCAL_P2_JOB), "--order", "3")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        assert len(passes) == 1
        cli._parse_text.cache_clear()
        assert run(capsys, *argv) == first
        assert len(passes) == 2

    def test_refused_document_keeps_no_map_core(self, capsys, monkeypatch, tmp_path):
        # two interior points and no charge_basis: the charge basis is
        # refused inside the A-series, and the refusal is not kept
        from syzmirror import cli, mirror

        doc = {"toric": {"rays": [[1, 1, 1], [1, 0, 1], [0, 0, 1], [2, 5, 1], [1, 2, 1]],
                         "u": [0, 0, 1]}}
        path = tmp_path / "c3_z5.json"
        path.write_text(json.dumps(doc))
        passes = _count_calls(monkeypatch, mirror, "a_series")
        results = [run(capsys, "fiber-invariants", "--input", str(path)) for _ in range(2)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out, json.loads(err)["error"]["code"]) == (3, "", "math")
        assert len(passes) == 2
        assert not cli._parse_text(path.read_bytes()).toric.__dict__.get("_kept")


class TestParseCache:
    def test_second_run_on_a_document_reuses_its_lattice_data(self, capsys, monkeypatch):
        argv = ("disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "4")
        first = run(capsys, *argv)
        from syzmirror import lattice

        lattice_calls = {
            name: _count_calls(monkeypatch, lattice, name)
            for name in ("charge_basis", "dual_exponents", "validate_cy")
        }
        assert run(capsys, *argv) == first
        assert {name: len(calls) for name, calls in lattice_calls.items()} == {
            "charge_basis": 0, "dual_exponents": 0, "validate_cy": 0
        }

    def test_brane_set_up_is_built_once_per_parsed_document(self, capsys, monkeypatch):
        # the brane checks and the brane frame, solver included, are kept
        # on the parsed job and go with it
        from syzmirror import cli, lattice, mirror

        argv = ("disc-invariants", "--input", str(LOCAL_P2_JOB), "--order", "4")
        first = run(capsys, *argv)
        reductions = _count_calls(monkeypatch, lattice, "row_reduce")
        frames = []
        build_frame = mirror.BraneFrame.__new__

        def counted(cls, *args, **kwargs):
            frames.append(args)
            return build_frame(cls, *args, **kwargs)

        monkeypatch.setattr(mirror.BraneFrame, "__new__", counted)
        assert run(capsys, *argv) == first
        assert (len(reductions), len(frames)) == (0, 0)

        cli._parse_text.cache_clear()
        assert run(capsys, *argv) == first
        assert len(frames) == 1 and len(reductions) > 0

    def test_interleaved_brane_documents_print_their_recorded_outputs(self, capsys):
        # each run follows a run on another document, so a set-up kept
        # for the wrong document would change the bytes
        path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
        if not path.exists():
            pytest.skip("no benchmark in this checkout")
        expected = json.loads(path.read_text())
        documents = dict(zip(("c3", "conifold", "local_p2", "local_p1xp1"), SHIPPED_BRANE_JOBS))
        checked = 0
        for order in (3, 4, 5):
            for command in ("validate", "compare-naive", "brane-mirror", "disc-invariants"):
                for name, document in documents.items():
                    code, out, _ = run(capsys, command, "--input", str(document), "--order", str(order))
                    want = expected[f"{command} {name} {order}"]
                    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
                        want["exit"], want["sha256"]
                    ), (command, name, order)
                    checked += 1
        assert checked == 48

    def test_documents_differing_in_the_brane_frame_are_not_merged(self, capsys, tmp_path):
        doc = json.loads(LOCAL_P2_JOB.read_text())
        paths = []
        for name, variant in (
            ("shipped", doc),
            ("frame", _with(doc, ("brane", "frame"), [[1, 0], [-2, 1]])),
        ):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(variant))
        for command in ("disc-invariants", "brane-mirror"):
            rounds = [
                [run(capsys, command, "--input", str(path), "--order", "4")[:2] for path in paths]
                for _ in range(2)
            ]
            assert rounds[0] == rounds[1]
            assert [code for code, _ in rounds[0]] == [0, 0]
            assert len({out for _, out in rounds[0]}) == 2

    def test_rewritten_document_is_read_afresh(self, capsys, conifold_path):
        code, out, _ = run(capsys, "curve", "--input", conifold_path)
        assert (code, json.loads(out)["order"]) == (0, 8)
        Path(conifold_path).write_text(json.dumps(_with(CONIFOLD_DOC, ("truncation",), 3)))
        rewritten = run(capsys, "curve", "--input", conifold_path)
        assert json.loads(rewritten[1])["order"] == 3
        from syzmirror import cli

        cli._parse_text.cache_clear()
        assert run(capsys, "curve", "--input", conifold_path) == rewritten

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(b'{\n  "toric": [,]\n}', None, id="bad-json"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, None, id="too-deep"),
            pytest.param(b'{"toric": "\xff"}', None, id="not-utf8"),
            pytest.param(
                json.dumps(_with(CONIFOLD_DOC, ("truncation",), "abc")).encode(), None,
                id="bad-field",
            ),
            pytest.param(b'{"truncation": ' + b"1" * 5000 + b"}", None, id="huge-int"),
            # the bytes are decoded as a text-mode read decodes them:
            # universal newlines, no BOM stripped, positions in bytes
            pytest.param(
                b'{\r\n  "toric": [,]\r\n}', "line 2 column 13: Expecting value", id="crlf"
            ),
            pytest.param(b'{\r  "toric":\r [,]\r}', "line 3 column 3: Expecting value", id="cr"),
            pytest.param(
                b"\xef\xbb\xbf" + (JOBS / "conifold.json").read_bytes(),
                "line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
                id="bom",
            ),
            pytest.param(
                (JOBS / "conifold.json").read_bytes()[:338] + b"\xff",
                "cannot read {path!r}: 'utf-8' codec can't decode byte 0xff in position 338: "
                "invalid start byte",
                id="late-byte",
            ),
        ],
    )
    def test_malformed_document_fails_alike_on_every_repeat(
        self, capsys, tmp_path, content, message
    ):
        from syzmirror import cli

        path = tmp_path / "job.json"
        path.write_bytes(content)
        results = [run(capsys, "curve", "--input", str(path)) for _ in range(3)]
        code, out, err = results[0]
        assert (code, out, json.loads(err)["error"]["code"]) == (4, "", "parse")
        if message is not None:
            assert json.loads(err)["error"]["message"] == message.format(path=str(path))
        assert results == [results[0]] * 3
        assert cli._parse_text.cache_info().currsize == 0

    def test_line_endings_do_not_change_the_output(self, capsys, tmp_path):
        # each copy is parsed from its own bytes, and each prints what the
        # LF file prints
        from syzmirror import cli

        lf = (JOBS / "conifold.json").read_bytes()
        assert b"\r" not in lf and lf.count(b"\n") > 1
        paths = [JOBS / "conifold.json", tmp_path / "crlf.json", tmp_path / "cr.json"]
        paths[1].write_bytes(lf.replace(b"\n", b"\r\n"))
        paths[2].write_bytes(lf.replace(b"\n", b"\r"))
        for command in sorted(COMMANDS):
            outputs = [run(capsys, command, "--input", str(p), "--order", "3") for p in paths]
            assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3, command
        assert cli._parse_text.cache_info().currsize == 3


def _run_batch(capsys, tmp_path, lines):
    """Run ``lines`` as one batch; return its exit code and its records."""
    path = tmp_path / "runs.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run(capsys, "batch", "--input", str(path))
    assert err == ""
    return code, [json.loads(line) for line in out.splitlines()]


def _argv_line(*argv):
    return json.dumps({"argv": list(argv)}).encode()


class TestBatch:
    def test_bad_lines_each_get_a_record(self, capsys, tmp_path):
        c3 = str(JOBS / "c3.json")
        lines = [
            b"not json",
            b'{"args": ["curve"]}',
            b'{"argv": ["curve", 3]}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"argv": ["\xff"]}',
            _argv_line("frobnicate", "--input", c3),
            _argv_line("batch", "--input", c3),
            _argv_line("brane-mirror", "--input", c3, "--order", "3", "--normalization", "1,1"),
            b"",
            _argv_line("--help"),
            _argv_line("curve", "--input", c3, "--order", "2"),
        ]
        code, records = _run_batch(capsys, tmp_path, lines)
        assert code == 0
        assert [r["exit"] for r in records] == [4, 4, 4, 4, 4, 4, 4, 3, 0, 0]
        assert [r["error"]["code"] for r in records[:-2]] == ["parse"] * 7 + ["math"]
        assert all(r["stdout"] == "" for r in records[:-2])
        assert records[-2]["stdout"].startswith("usage: syzmirror")
        assert "error" not in records[-2] and "error" not in records[-1]
        assert "batch line 1" in records[0]["error"]["message"]
        assert "inside a batch" in records[6]["error"]["message"]

    def test_huge_literals_each_get_a_parse_record(self, capsys, tmp_path):
        lines = [_argv_line("validate", "--input", str(p)) for p in _huge_literal_documents(tmp_path)]
        code, records = _run_batch(capsys, tmp_path, lines)
        assert code == 0
        assert [(r["exit"], r["stdout"], r["error"]["code"]) for r in records] == [(4, "", "parse")] * 2

    def test_records_match_single_runs(self, capsys, tmp_path, conifold_path):
        argvs = [
            (command, "--input", conifold_path, "--order", "3") for command in sorted(COMMANDS)
        ] + [("curve", "--input", conifold_path, "--output", "pretty")]
        single = [run(capsys, *argv)[:2] for argv in argvs]
        _, records = _run_batch(capsys, tmp_path, [_argv_line(*argv) for argv in argvs])
        assert [(r["exit"], r["stdout"]) for r in records] == single

    def test_each_document_is_parsed_once(self, capsys, monkeypatch, tmp_path):
        from syzmirror import cli

        parses = _count_calls(monkeypatch, cli, "parse_job")
        lines = [
            _argv_line(command, "--input", str(JOBS / f"{geometry}.json"), "--order", "3")
            for geometry in ("c3", "conifold", "local_p2")
            for command in sorted(COMMANDS)
        ]
        _, records = _run_batch(capsys, tmp_path, lines)
        assert [r["exit"] for r in records] == [0] * 24
        assert len(parses) == 3

    @pytest.mark.parametrize(
        "extra",
        [["--order", "0"], ["--corrected"], ["--output", "pretty"]],
        ids=["order", "corrected", "output"],
    )
    def test_run_options_are_refused(self, capsys, tmp_path, extra):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        code, out, err = run(capsys, "batch", "--input", str(path), *extra)
        assert (code, out, json.loads(err)["error"]["code"]) == (4, "", "parse")

    def test_unreadable_file_exits_four(self, capsys, tmp_path):
        code, out, err = run(capsys, "batch", "--input", str(tmp_path / "missing.jsonl"))
        assert (code, out) == (4, "")
        assert json.loads(err)["error"]["message"].startswith("cannot read ")

    def test_directory_exits_four(self, capsys, tmp_path):
        code, out, err = run(capsys, "batch", "--input", str(tmp_path))
        assert (code, out) == (4, "")
        message = f"cannot read {str(tmp_path)!r}: Is a directory"
        assert json.loads(err) == {"error": {"code": "parse", "message": message}}
