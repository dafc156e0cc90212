"""Spans around the public functions of each symspace layer.

Tracing is done from the benchmark's side only: ``Tracer.install`` swaps
every reference to a layer function inside the ``symspace`` modules for a
wrapper that records a span (op id, name, start, end, parent), and
``uninstall`` puts the originals back, so untraced timings run the
unmodified program.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child
spans.  Each op is one tree rooted at an ``op`` span; the checker's work
after it is a separate ``check`` tree, of which only ``closedform.expected``
is reported (it is the checker's own cost).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute); "Matrix.invert" is a method on a class.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("catalog.resolve", "catalog", "resolve"),
    ("catalog.enumerate", "catalog", "enumerate_table"),
    ("roots.build", "roots", "build"),
    ("linalg.invert", "linalg", "Matrix.invert"),
    ("polytope.build", "polytope", "build_polytope"),
    ("polytope.dominant", "polytope", "dominant_representative"),
    ("polytope.classify", "polytope", "classify_point"),
    ("killing.data", "killing", "killing_data"),
    ("geometry.report", "geometry", "report"),
    ("geometry.is_conjugate", "geometry", "is_conjugate"),
    ("geometry.cut", "geometry", "cut_classify"),
    ("geometry.cut", "geometry", "cut_details"),
    ("closedform.expected", "closedform", "expected"),
    ("oracle.suite", "oracle", "standard_suite"),
    ("oracle.closure", "oracle", "closure_count_oracle"),
    ("oracle.simplex", "oracle", "simplex_max_oracle"),
    ("oracle.inverse", "oracle", "inverse_oracle"),
    ("verify.table_reports", "verify", "table_reports"),
)

# Per-layer metrics: unit, and which end-to-end metric the layer should
# move on which workload.  "_ms" is summed self time per replay pass,
# "_calls" and the other counts are exact per pass.
PER_LAYER = {
    "cli.import_ms": ("ms", "op_p50_ms on cli-queries; no change on slice-predicates"),
    "cli.spawn_ms": ("ms", "op_p50_ms on cli-queries; no change on slice-predicates"),
    "cli.main_ms": ("ms", "op_p50_ms on cli-queries; no change on slice-predicates"),
    "catalog.resolve_ms": ("ms", "ops_per_s on slice-predicates"),
    "catalog.resolve_calls": ("count", "ops_per_s on slice-predicates"),
    "catalog.enumerate_ms": ("ms", "ops_per_s on slice-predicates"),
    "roots.build_ms": ("ms", "rows_per_s on table-regen; op_tail_ms, fail_ratio, "
                       "peak_rss_mb on cli-queries; no change on slice-predicates"),
    "roots.build_calls": ("count", "as roots.build_ms"),
    "roots.roots_enumerated": ("count", "as roots.build_ms"),
    "roots.build_failed": ("count", "fail_ratio on cli-queries"),
    "linalg.invert_ms": ("ms", "rows_per_s on table-regen; op_tail_ms on cli-queries"),
    "linalg.invert_calls": ("count", "as linalg.invert_ms"),
    "linalg.max_entry_bits": ("bits", "as linalg.invert_ms"),
    "polytope.build_ms": ("ms", "ops_per_s, op_tail_ms on slice-predicates; "
                          "no change on table-regen"),
    "polytope.dominant_ms": ("ms", "ops_per_s, op_tail_ms on slice-predicates"),
    "polytope.reflections": ("count", "ops_per_s, op_tail_ms on slice-predicates"),
    "polytope.classify_ms": ("ms", "ops_per_s, op_tail_ms on slice-predicates"),
    "killing.data_ms": ("ms", "op_tail_ms on cli-queries (rootsystem ops)"),
    "geometry.report_cold_ms": ("ms", "rows_per_s on table-regen"),
    "geometry.report_warm_ms": ("ms", "rows_per_s on table-regen"),
    "geometry.cache_hit_ratio": ("ratio", "rows_per_s on table-regen"),
    "geometry.is_conjugate_ms": ("ms", "ops_per_s on slice-predicates"),
    "geometry.cut_ms": ("ms", "ops_per_s on slice-predicates"),
    "closedform.expected_ms": ("ms", "nothing; the checker's own cost"),
    "oracle.suite_ms": ("ms", "ops_per_s on table-regen (its verify ops) only"),
    "oracle.closure_ms": ("ms", "ops_per_s on table-regen (its verify ops) only"),
    "oracle.simplex_ms": ("ms", "ops_per_s on table-regen (its verify ops) only"),
    "oracle.inverse_ms": ("ms", "ops_per_s on table-regen (its verify ops) only"),
    "verify.table_reports_ms": ("ms", "ops_per_s on table-regen (its verify ops) only"),
    "trace.overhead_ratio": ("ratio", "nothing; traced over untraced op time"),
}

# Spans whose self time is a "_ms" metric; geometry.report splits by cache state.
BUSY = {
    "cli.main": "cli.main_ms", "catalog.resolve": "catalog.resolve_ms",
    "catalog.enumerate": "catalog.enumerate_ms", "roots.build": "roots.build_ms",
    "linalg.invert": "linalg.invert_ms", "polytope.build": "polytope.build_ms",
    "polytope.dominant": "polytope.dominant_ms", "polytope.classify": "polytope.classify_ms",
    "killing.data": "killing.data_ms", "geometry.report.cold": "geometry.report_cold_ms",
    "geometry.report.warm": "geometry.report_warm_ms",
    "geometry.is_conjugate": "geometry.is_conjugate_ms", "geometry.cut": "geometry.cut_ms",
    "closedform.expected": "closedform.expected_ms", "oracle.suite": "oracle.suite_ms",
    "oracle.closure": "oracle.closure_ms", "oracle.simplex": "oracle.simplex_ms",
    "oracle.inverse": "oracle.inverse_ms", "verify.table_reports": "verify.table_reports_ms",
}
CALLS = {"catalog.resolve": "catalog.resolve_calls", "roots.build": "roots.build_calls",
         "linalg.invert": "linalg.invert_calls"}

# Span record fields.
OP, NAME, START, END, PARENT, VALUE, FAILED = range(7)


def symspace_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "symspace" or name.startswith("symspace."))]


def cache_misses() -> int:
    """Total misses of every functools cache in the program's modules."""
    total = 0
    for mod in symspace_modules():
        for obj in list(vars(mod).values()):
            info = getattr(obj, "cache_info", None)
            if callable(info):
                total += info().misses
    return total


def clear_caches() -> None:
    """Empty every functools cache in the program, as a fresh process would have."""
    for mod in symspace_modules():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _entry_bits(matrix) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in matrix.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [self.op, name, 0, 0, self._stack[-1] if self._stack else -1, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            misses = cache_misses() if name == "geometry.report" else 0
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(rec)
                rec[FAILED] = True
                raise
            tracer.end(rec)
            if name == "roots.build":
                rec[VALUE] = len(result.roots)
            elif name == "linalg.invert":
                rec[VALUE] = _entry_bits(result)
            elif name == "polytope.dominant":
                rec[VALUE] = result[1]
            elif name == "geometry.report":
                rec[NAME] += ".cold" if cache_misses() > misses else ".warm"
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in symspace_modules()}
        for name, modname, attr in LAYERS:
            mod = mods.get(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, fn_name, None)
            if fn is None:
                continue                      # layer gone from the program
            wrapped = self._wrap(name, fn)
            if owner_name:
                self._undo.append((owner, fn_name, fn))
                setattr(owner, fn_name, wrapped)
                continue
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()


def roots_of(spans: list[list]) -> list[int]:
    """Index of each span's root span (parents precede their children)."""
    root = [0] * len(spans)
    for i, rec in enumerate(spans):
        root[i] = i if rec[PARENT] < 0 else root[rec[PARENT]]
    return root


def self_times(spans: list[list]) -> list[int]:
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def nesting_errors(spans: list[list]) -> int:
    """Spans that leave their parent's interval or overlap a sibling."""
    errors = 0
    last_end: dict[int, int] = {}
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if rec[START] < parent[START] or rec[END] > parent[END] or rec[START] < last_end.get(p, 0):
            errors += 1
        last_end[p] = rec[END]
    return errors


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics per replay pass, from op trees (and the checker's closed forms)."""
    busy = defaultdict(int)
    calls = defaultdict(int)
    out = {name: 0 for name in PER_LAYER}
    reports = warm = 0
    for rec, self_ns, r in zip(spans, self_times(spans), roots_of(spans)):
        name = rec[NAME]
        if spans[r][NAME] != "op" and name != "closedform.expected":
            continue
        busy[name] += self_ns
        calls[name] += 1
        if name == "roots.build":
            out["roots.roots_enumerated"] += rec[VALUE]
            out["roots.build_failed"] += rec[FAILED]
        elif name == "linalg.invert":
            out["linalg.max_entry_bits"] = max(out["linalg.max_entry_bits"], rec[VALUE])
        elif name == "polytope.dominant":
            out["polytope.reflections"] += rec[VALUE]
        elif name.startswith("geometry.report."):
            reports += 1
            warm += name.endswith(".warm")
    for span, metric in BUSY.items():
        out[metric] = busy[span] / 1e6 / passes
    for span, metric in CALLS.items():
        out[metric] = calls[span] / passes
    for metric in ("roots.roots_enumerated", "roots.build_failed", "polytope.reflections"):
        out[metric] /= passes
    out["geometry.cache_hit_ratio"] = warm / reports if reports else 0.0
    return out


def op_self_sums(spans: list[list]) -> dict[int, tuple[int, int]]:
    """Per op: (sum of self times over its tree, duration of its op span)."""
    sums: dict[int, list[int]] = {}
    for rec, s, r in zip(spans, self_times(spans), roots_of(spans)):
        top = spans[r]
        if top[NAME] == "op":
            acc = sums.setdefault(rec[OP], [0, top[END] - top[START]])
            acc[0] += s
    return {op: (a, b) for op, (a, b) in sums.items()}
