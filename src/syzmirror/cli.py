"""Command-line front end: one JSON job document in, JSON out.

Machine-readable JSON goes to stdout and the human table to stderr;
``--output pretty`` writes the table to stdout instead.
Identical input bytes produce identical output bytes.  Exit codes:
0 success, 2 validation failure, 3 mathematical-precondition failure,
4 parse error.  ``batch`` runs many such jobs in one process, one JSON
record per job, and the jobs on one document share its parsed form and
what is kept on it, the printed output of each run included.  A process
parses each distinct argv once (``_parse_argv``), and each run reads
its job file afresh as bytes in one unbuffered read, decoded only when
they are new (``_parse_text``).  The flags override the job's options
as locals, which key the run's kept output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from collections import namedtuple

from . import lattice, mirror
from ._backend import monomial_text
from .errors import InputError, MathDomainError, ValidationError
from .serialize import parse_int_vector, parse_rational, series_to_json, series_to_records
from .serialize import short_repr

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_PARSE = 4


class Job(namedtuple("Job", "toric brane truncation corrected normalization")):
    """Parsed job document: toric data, optional brane, global options."""

    __slots__ = ()


def _require(doc, key, where):
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in doc:
        raise InputError(f"missing field {key!r} in {where}")
    return doc[key]


def _int_matrix(raw, where):
    if not isinstance(raw, list):
        raise InputError(f"bad integer matrix in {where}: expected a list of lists")
    return tuple(parse_int_vector(row, where) for row in raw)


def _rational_vector(raw, where):
    if not isinstance(raw, list):
        raise InputError(f"{where} must be a list of rational literals")
    try:
        return tuple(parse_rational(x) for x in raw)
    except InputError as exc:
        raise InputError(f"bad rational in {where}: {exc}") from None


def parse_job(doc) -> Job:
    if not isinstance(doc, dict):
        raise InputError("job document must be a JSON object")
    toric_doc = _require(doc, "toric", "job document")
    rays = _int_matrix(_require(toric_doc, "rays", "toric"), "toric.rays")
    u = parse_int_vector(_require(toric_doc, "u", "toric"), "toric.u")
    offsets = _rational_vector(toric_doc.get("lambda", []), "toric.lambda")
    max_cones = None
    if "max_cones" in toric_doc:
        max_cones = _int_matrix(toric_doc["max_cones"], "toric.max_cones")
    charge_rows = None
    if "charge_basis" in toric_doc:
        charge_rows = _int_matrix(toric_doc["charge_basis"], "toric.charge_basis")
    toric = lattice.ToricCYData(
        rays=rays, u=u, offsets=offsets, max_cones=max_cones, charge_rows=charge_rows
    )

    brane = None
    if doc.get("brane") is not None:
        bdoc = doc["brane"]
        charges = _int_matrix(_require(bdoc, "charges", "brane"), "brane.charges")
        constants = _rational_vector(_require(bdoc, "constants", "brane"), "brane.constants")
        phases = _rational_vector(bdoc.get("phases", ["0"] * len(charges)), "brane.phases")
        av_indices = None
        if "av_indices" in bdoc:
            av_indices = parse_int_vector(bdoc["av_indices"], "brane.av_indices")
            if len(av_indices) != 3:
                raise InputError("brane.av_indices must have 3 entries")
        m0 = _rational_vector(bdoc["m0"], "brane.m0") if "m0" in bdoc else None
        frame_generators = None
        if "frame" in bdoc:
            frame_generators = _int_matrix(bdoc["frame"], "brane.frame")
        if "boundary_grading" in bdoc:
            raise InputError(
                "brane.boundary_grading is not an input: the boundary grading "
                "is the Q0 exponent of each brane.frame generator"
            )
        brane = lattice.BraneSpec(
            charges=charges,
            constants=constants,
            phases=phases,
            av_indices=av_indices,
            m0=m0,
            frame_generators=frame_generators,
        )

    (truncation,) = parse_int_vector([doc.get("truncation", 8)], "truncation")
    truncation = _checked_order(truncation, "truncation")
    corrected = doc.get("corrected", True)
    if not isinstance(corrected, bool):
        raise InputError("corrected must be true or false")
    normalization = None
    if doc.get("normalization") is not None:
        normalization = parse_int_vector(doc["normalization"], "normalization")
        normalization = _checked_signs(normalization, "normalization")
    return Job(toric, brane, truncation, corrected, normalization)


def _checked_order(order, source):
    """A truncation order from ``source`` (a job field or a flag): an int >= 1."""
    if order < 1:
        raise InputError(f"{source} must be >= 1")
    return order


def _checked_signs(pair, source):
    """A sign normalization from ``source``: a pair of +-1."""
    if len(pair) != 2 or any(x not in (1, -1) for x in pair):
        raise InputError(f"{source} must be a pair of +-1")
    return pair


def _need_brane(job) -> lattice.BraneSpec:
    if job.brane is None:
        raise InputError("this command needs a brane in the job document")
    return job.brane


# -- command bodies: each returns (json payload, pretty lines, exit code)


def cmd_validate(job):
    report = job.toric.validation
    if report.ok:
        # every computing command reads the charge basis, which is refused
        # on a polygon with several interior points and no charge_basis
        try:
            job.toric.effective_charge_basis
        except MathDomainError as exc:
            report = lattice.ValidationReport((str(exc),))
    brane_report = None
    if job.brane is not None:
        brane_report = lattice.brane_report(job.toric, job.brane)
    ok = report.ok and (brane_report is None or brane_report.ok)
    payload = {
        "ok": ok,
        "toric_failures": list(report.failures),
        "brane_failures": list(brane_report.failures) if brane_report else [],
    }
    lines = [f"toric data: {report}"]
    if brane_report is not None:
        lines.append(f"brane: {brane_report}")
    return payload, lines, (EXIT_OK if ok else EXIT_VALIDATION)


def cmd_curve(job):
    curve = job.toric.kept(("curve", job.truncation, job.corrected), mirror.build_curve)
    z_names = tuple(f"z{i}" for i in range(1, curve.n_z + 1))
    q_names = tuple(f"Q{a}" for a in range(1, job.toric.n_closed + 1))
    terms = []
    pretty_terms = []
    for term in curve.terms:
        terms.append(
            {
                "z": list(term.z_exponents),
                "Q": list(term.q_exponents),
                "coefficient": series_to_records(term.coefficient),
            }
        )
        mono = monomial_text(q_names + z_names, term.q_exponents + term.z_exponents)
        coeff = str(term.coefficient)
        if coeff == "1":
            pretty_terms.append(mono or "1")
        elif not mono:
            pretty_terms.append(f"({coeff})")
        else:
            pretty_terms.append(f"({coeff})*{mono}")
    payload = {
        "corrected": job.corrected,
        "n_z": curve.n_z,
        "order": job.truncation,
        "terms": terms,
    }
    return payload, ["W = " + " + ".join(pretty_terms)], EXIT_OK


def cmd_map(job, compute):
    """Shared body of mirror-map and inverse-map; ``compute`` picks the direction."""
    data = compute(job.toric, job.truncation, brane=job.brane)
    closed = data.closed
    payload = {
        "direction": data.direction,
        "order": data.order,
        "A": [series_to_records(a) for a in data.a_series],
        "closed": [series_to_records(s) for s in closed],
        "open_unit": (
            series_to_records(data.open_unit) if data.open_unit is not None else None
        ),
    }
    lines = [f"{data.direction}: closed image {i + 1}: {s}" for i, s in enumerate(closed)]
    if data.open_unit is not None:
        lines.append(f"open unit: {data.open_unit}")
    return payload, lines, EXIT_OK


def cmd_fiber_invariants(job):
    series_list = mirror.fiber_open_gw(job.toric, job.truncation)
    payload = {
        "order": job.truncation,
        "series": [series_to_records(s) for s in series_list],
    }
    lines = [f"1+delta_{i} = {s}" for i, s in enumerate(series_list)]
    return payload, lines, EXIT_OK


def _av_brane(job):
    """The job's AV brane mirror and the fields every brane payload opens with."""
    result = mirror.av_mirror_brane(
        job.toric, _need_brane(job), job.truncation, normalization=job.normalization
    )
    generators = [list(g) for g in result.bframe.generators]
    return result, {"signs": list(result.signs), "frame_generators": generators}


def cmd_brane_mirror(job):
    result, payload = _av_brane(job)
    payload |= {
        "z1": series_to_json(result.z1),
        "z2": series_to_json(result.z2),
        # z2 is solved grade by grade, so W(z1, z2) vanishes through the
        # order by construction; the key stays so the output keeps its form
        "residual_zero": True,
    }
    lines = [
        f"signs (eps1, eps2) = {result.signs}",
        f"z1 = {result.z1}",
        f"z2 = {result.z2}",
        "residual identically zero: True",
    ]
    return payload, lines, EXIT_OK


def cmd_disc_invariants(job):
    result, payload = _av_brane(job)
    table, report = result.discs
    rows, lines = [], []
    for beta, label, n, N in table.printed:
        entry = {"beta": list(beta)}
        if n is not None:
            entry["n"] = n
        if N is not None:
            entry["N"] = N
        rows.append(entry)
        lines.append(f"class {label}: n={entry.get('n', '-')} N={entry.get('N', '-')}")
    payload |= {
        "integral": report.ok,
        "flagged": [list(beta) for beta, _ in report.flagged],
        "table": rows,
    }
    lines.append(f"integrality: {'pass' if report.ok else 'FAIL'}")
    return payload, lines, EXIT_OK


def cmd_compare_naive(job):
    brane = _need_brane(job)
    equations = mirror.naive_brane(job.toric, brane)
    comparison = mirror.compare_naive(
        job.toric, brane, job.truncation, normalization=job.normalization
    )
    payload = {
        "naive_equations": [
            {
                "z": list(eq.z_exponents),
                "Q": list(eq.q_exponents),
                "constant": str(eq.constant),
                "phase_pi": str(eq.phase),
            }
            for eq in equations
        ],
        "signs": list(comparison.signs),
        "z1_correction": series_to_json(comparison.z1_correction),
        "z1_in_closed_ideal": comparison.z1_in_closed_ideal,
        "z2_pure_open": series_to_json(comparison.z2_pure_open),
        "z2_mixed": series_to_json(comparison.z2_mixed),
    }
    lines = [
        f"z1 - Q0 = {comparison.z1_correction} (in closed ideal: {comparison.z1_in_closed_ideal})",
        f"z2 - 1, pure open part = {comparison.z2_pure_open}",
        f"z2 - 1, closed-ideal part = {comparison.z2_mixed}",
    ]
    return payload, lines, EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "curve": cmd_curve,
    "mirror-map": lambda job: cmd_map(job, mirror.mirror_map),
    "inverse-map": lambda job: cmd_map(job, mirror.inverse_mirror_map),
    "fiber-invariants": cmd_fiber_invariants,
    "brane-mirror": cmd_brane_mirror,
    "disc-invariants": cmd_disc_invariants,
    "compare-naive": cmd_compare_naive,
}


def _output(toric, command, *options):
    """What a run of ``command`` on the job ``(toric, *options)`` prints:
    its JSON document with its newline, its summary lines as one text,
    and its exit code.  Kept per command and job options on the toric
    data (:meth:`lattice.ToricCYData.kept`), so a repeated run runs no
    command body."""
    payload, lines, exit_code = COMMANDS[command](Job(toric, *options))
    document = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return document, "".join([line + "\n" for line in lines]), exit_code


# a value past 40 characters that argparse names in an error, quoted or
# (an unrecognized argument) bare: the parse record names it shortened
_LONG_VALUE = re.compile(r"'([^']{41,})'|\"([^\"]{41,})\"|(\S{41,})")


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit 4 with the JSON parse record, like bad job fields."""

    def error(self, message):
        raise InputError(_LONG_VALUE.sub(lambda m: short_repr(m[1] or m[2] or m[3]), message))


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="syzmirror",
        description="Exact mirror-curve and open Gromov-Witten series computations",
    )
    parser.add_argument("command", choices=sorted([*COMMANDS, "batch"]))
    parser.add_argument(
        "--input",
        required=True,
        help="path to the JSON job document; for batch, the JSON-lines file of runs",
    )
    parser.add_argument("--order", type=int, help="override the truncation order")
    parser.add_argument(
        "--corrected",
        nargs="?",
        const="true",
        help="use quantum-corrected curve coefficients (true/false)",
    )
    parser.add_argument(
        "--normalization", help="override the sign normalization, e.g. --normalization=-1,-1"
    )
    parser.add_argument("--output", choices=["json", "pretty"], default="json")
    return parser


Args = namedtuple("Args", "command input order corrected normalization output")

# A seed-1 pass of the benchmark's mix makes 183 distinct argvs, and an
# LRU smaller than a batch's cycle of distinct argvs hits nothing.  One
# entry holds about 250 bytes besides the argv's strings (tracemalloc),
# so a full cache holds about 0.25 MB.
ARGVS_KEPT = 1024


@functools.lru_cache(maxsize=ARGVS_KEPT)
def _parse_argv(argv: tuple) -> Args:
    """The fields ``build_parser`` parses from ``argv``, parsed once per
    distinct argv.  An argument error (:class:`InputError`) and
    ``--help`` (``SystemExit``) are raised, so never kept."""
    return Args(**vars(build_parser().parse_args(argv)))


@functools.lru_cache(maxsize=64)
def _parse_text(data: bytes) -> Job:
    """The job parsed from one document's bytes, shared by every run on it.

    The bytes are decoded only on a miss, as a text-mode read decodes
    them: UTF-8 with universal newlines.  ``Job``, its ``ToricCYData``
    and its ``BraneSpec`` are immutable, so runs on one document also
    share what is cached on the toric data: the lattice data, the closed
    frame, and every intermediate it keeps
    (:meth:`lattice.ToricCYData.kept`), from the brane checks to the
    brane solve and the output of each run.  They go when the entry
    does.  Exceptions are not cached.  The size limit keeps a long batch
    over many documents from holding them all.
    """
    return parse_job(json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()))


def _path_repr(path):
    """An input path as an error names it: whole up to 255 characters, so
    a real file stays named.  A message names it once, with the
    ``strerror`` of an ``OSError``, whose text would repeat it."""
    return short_repr(path, limit=255)


def _emit_error(code, message, exit_code):
    record = {"error": {"code": code, "message": message}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return exit_code


def _batch_argv(line, number):
    """The argv of one batch line ``{"argv": [...]}``."""
    try:
        run = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 errors, or too deep
        raise InputError(f"batch line {number}: {exc}") from None
    argv = run.get("argv") if isinstance(run, dict) else None
    if not isinstance(argv, list) or not all(isinstance(arg, str) for arg in argv):
        raise InputError(f'batch line {number}: expected {{"argv": [strings]}}')
    return argv


def _batch(path) -> int:
    """Run every non-blank line of the JSON-lines file ``path`` through :func:`main`.

    Writes one sorted-key JSON record per line, in order: the run's
    ``exit`` and ``stdout``, plus its ``error`` record when it emitted
    one.  A bad line gets an exit-4 record and the batch goes on.
    """
    import contextlib

    try:
        with open(path, "rb", buffering=0) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {_path_repr(path)}: {exc.strerror}") from None
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(_batch_argv(line, number), nested=True)
            except InputError as exc:
                code = _emit_error("parse", str(exc), EXIT_PARSE)
            except SystemExit as exc:  # --help
                code = exc.code or 0
        record = {"exit": code, "stdout": out.getvalue()}
        if err.getvalue().startswith('{"error": '):
            record.update(json.loads(err.getvalue()))
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_OK


def main(argv=None, *, nested=False) -> int:
    try:
        args = _parse_argv(tuple(sys.argv[1:] if argv is None else argv))
        if args.command == "batch":
            if nested:
                raise InputError("batch cannot run inside a batch")
            if {args.order, args.corrected, args.normalization} != {None} or args.output != "json":
                raise InputError("batch takes only --input; give run options on each line")
            return _batch(args.input)
        try:
            with open(args.input, "rb", buffering=0) as handle:
                data = handle.read()
            job = _parse_text(data)
        except RecursionError:
            raise InputError(f"{_path_repr(args.input)}: JSON nested too deeply to parse") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except OSError as exc:
            raise InputError(f"cannot read {_path_repr(args.input)}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {_path_repr(args.input)}: {exc}") from None
        except ValueError as exc:  # a JSON number past the interpreter's digit limit
            raise InputError(f"{_path_repr(args.input)}: {exc}") from None
        toric, brane, truncation, corrected, normalization = job
        if args.order is not None:
            truncation = _checked_order(args.order, "--order")
        if args.corrected is not None:
            text = args.corrected.lower()
            if text not in ("true", "false", "1", "0"):
                raise InputError("--corrected takes true or false")
            corrected = text in ("true", "1")
        if args.normalization is not None:
            try:
                pair = tuple(int(x) for x in args.normalization.split(","))
            except ValueError:
                raise InputError("--normalization takes two comma-separated signs") from None
            normalization = _checked_signs(pair, "--normalization")
        key = ("output", args.command, brane, truncation, corrected, normalization)
        document, summary, exit_code = toric.kept(key, _output)
    except InputError as exc:
        return _emit_error("parse", str(exc), EXIT_PARSE)
    except ValidationError as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except MathDomainError as exc:
        return _emit_error("math", str(exc), EXIT_MATH)

    out = sys.stdout
    if args.output == "json":
        out.write(document)
        out = sys.stderr
    # the summary in one write: stderr is write-through, one system call per write
    out.write(summary)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
