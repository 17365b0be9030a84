"""Span tracer that wraps syzmirror's public functions from outside.

The tracer replaces each traced function at every place it is bound:
module globals (``fps`` imports ``mul_terms`` by name, ``mirror``
imports ``exp_series`` and friends by name) and class attributes
(``TruncatedSeries.__init__``).  Each call records a span with a name,
start, end, parent span and job id; spans stay in flat arrays in memory
and are written out once, when the run ends.

Times are kept on a virtual clock that stops while the tracer does its
own bookkeeping, so span durations leave out the tracer's cost.  The
kernel's counts (products computed, result bit sizes) are taken after
the call returns, on that stopped clock.
"""

from __future__ import annotations

import gzip
import sys
import time
import types
from array import array
from bisect import bisect_right

KERNEL = "kernel.mul_terms"
SERIES_NEW = "fps.series_new"

# (layer name, module, attribute); the object found there is wrapped
# wherever else it is bound.
TARGETS = (
    (KERNEL, "syzmirror._backend", "mul_terms"),
    *(
        (f"fps.{name}", "syzmirror.fps", name)
        for name in (
            "exp_series", "log_series", "inverse", "pow_int", "substitute",
            "fixed_point_system",
        )
    ),
    *(
        (f"mirror.{name}", "syzmirror.mirror", name)
        for name in (
            "a_series", "mirror_map", "inverse_mirror_map", "fiber_open_gw",
            "build_curve", "open_series", "solve_curve_root", "evaluate_curve",
            "av_mirror_brane", "compare_naive",
        )
    ),
    *(
        (f"lattice.{name}", "syzmirror.lattice", name)
        for name in (
            "validate_cy", "validate_brane", "charge_basis", "effective_charge_basis",
            "dual_exponents",
        )
    ),
    *(
        (f"invariants.{name}", "syzmirror.invariants", name)
        for name in ("extract_open_gw", "multiple_cover_inversion", "integrality_check")
    ),
    ("serialize.series_to_records", "syzmirror.serialize", "series_to_records"),
    ("cli.parse_job", "syzmirror.cli", "parse_job"),
    ("cli.main", "syzmirror.cli", "main"),
)


class MissedBinding(RuntimeError):
    """A reference to an unwrapped traced function survived install()."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.job_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.nested: array = array("b")  # a span of the same name is open
        # one row per kernel span: span index, products, terms out, bits
        self.kernel_span: array = array("i")
        self.kernel_pairs: array = array("q")
        self.kernel_terms: array = array("q")
        self.kernel_bits: array = array("q")
        self.kernel_bits_max: array = array("q")
        self.job = -1
        self._stack: list[int] = []
        self._open: list[int] = []
        self._excluded = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        """Virtual time: wall clock minus the tracer's own bookkeeping."""
        return time.perf_counter() - self._excluded

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        self._open.append(0)
        clock = time.perf_counter
        stack, open_count = self._stack, self._open
        arrays = (self.name_of, self.parent, self.job_of, self.start, self.end, self.nested)
        name_of, parent, job_of, start, end, nested = arrays

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            nested.append(open_count[name_id] > 0)
            open_count[name_id] += 1
            stack.append(idx)
            end.append(0.0)
            begin = clock()
            start.append(begin - self._excluded)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish = clock()
                end[idx] = finish - self._excluded
                stack.pop()
                open_count[name_id] -= 1
                self._excluded += begin - entered
            if after is not None:
                after(idx, args, result)
            self._excluded += clock() - finish
            return result

        traced.__wrapped__ = fn
        return traced

    def _kernel_counts(self, idx, args, result):
        a, b, grading, order = args
        if len(a) > len(b):
            a, b = b, a
        pairs = 0
        if a and b:
            grades = sorted(sum(g * e for g, e in zip(grading, eb)) for eb in b)
            for ea in a:
                pairs += bisect_right(grades, order - sum(g * e for g, e in zip(grading, ea)))
        bits = bits_max = 0
        for c in result.values():
            num, den = c.numerator.bit_length(), c.denominator.bit_length()
            bits += num + den
            bits_max = max(bits_max, num, den)
        self.kernel_span.append(idx)
        self.kernel_pairs.append(pairs)
        self.kernel_terms.append(len(result))
        self.kernel_bits.append(bits)
        self.kernel_bits_max.append(bits_max)

    def install(self) -> None:
        """Wrap every target at every binding site in the syzmirror package."""
        fps = sys.modules["syzmirror.fps"]
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "syzmirror"]
        originals = []
        for name, module_name, attr in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, fn, self._kernel_counts if name == KERNEL else None)
            originals.append(fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        series_init = fps.TruncatedSeries.__init__
        originals.append(series_init)
        self._set(fps.TruncatedSeries, "__init__", self._wrap(SERIES_NEW, series_init))
        missed = _references(modules, originals)
        if missed:
            raise MissedBinding(f"unwrapped references remain: {missed}")

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans.

        ``wall_s`` is the traced pass on the virtual clock.  total_s
        counts each name's outermost spans only, so recursion is not
        counted twice; self_s subtracts the time direct children cover.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "kernel_calls": 0}
                 for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - covered[i]
            if not self.nested[i]:
                entry["total_s"] += duration[i]
        for idx in self.kernel_span:
            seen = set()
            p = self.parent[idx]
            while p >= 0:
                name = self.names[self.name_of[p]]
                if name.startswith("fps.") and name not in seen:
                    seen.add(name)
                    stats[name]["kernel_calls"] += 1
                p = self.parent[p]
        kernel = stats[KERNEL]
        kernel["pairs"] = sum(self.kernel_pairs)
        kernel["terms_out"] = sum(self.kernel_terms)
        kernel["bits_out"] = sum(self.kernel_bits)
        kernel["bits_max"] = max(self.kernel_bits_max, default=0)
        self_total = sum(entry["self_s"] for entry in stats.values())
        stats["trace"] = {"coverage": self_total / wall_s if wall_s > 0 else 0.0}
        return stats

    def write(self, path) -> None:
        """Write every span as a tab-separated row (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job_of[i]}\n"
                )


def _references(modules, originals) -> list[str]:
    """Places in ``modules`` that still refer to one of ``originals``.

    Looks at module globals, class attributes, and the defaults and
    closure cells of every function defined in the package.
    """
    ids = {id(fn) for fn in originals}
    found = []

    def scan_function(where, fn):
        if not fn.__module__.startswith("syzmirror"):
            return  # a tracer wrapper, which holds the original on purpose
        cells = [c.cell_contents for c in (fn.__closure__ or ()) if _filled(c)]
        for value in (*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values(), *cells):
            if id(value) in ids:
                found.append(where)

    for module in modules:
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            if id(value) in ids:
                found.append(where)
            elif isinstance(value, types.FunctionType):
                scan_function(where, value)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if id(member) in ids:
                        found.append(f"{where}.{attr}")
                    elif isinstance(member, types.FunctionType):
                        scan_function(f"{where}.{attr}", member)
            elif isinstance(value, dict):
                for item in value.values():
                    if id(item) in ids:
                        found.append(f"{where}[...]")
    return found


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True
