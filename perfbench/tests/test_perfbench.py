"""Tests of the benchmark itself: generators, statistics, metric names, checker.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import run

run.use_source_tree()

from perfbench import check, tracing, workloads  # noqa: E402  (needs the source tree)
from symspace import geometry  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _ops(workload, seed, n):
    vertices = None
    if workload in run.IN_PROCESS:
        vertices = {lab: workloads.slice_vertices(lab) for lab in workloads.SLICE_LABELS}
    return list(itertools.islice(workloads.stream(workload, seed, vertices), n))


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _ops(workload, 7, 30) == _ops(workload, 7, 30)


@pytest.mark.parametrize("workload", ["cli-queries", "table-regen", "slice-predicates"])
def test_generator_depends_on_seed(workload):
    assert _ops(workload, 7, 30) != _ops(workload, 8, 30)


def test_cli_queries_mix():
    ops = _ops("cli-queries", 3, 50)
    commands = {op.argv[0] for op in ops}
    assert commands == {"space", "cut", "product", "rootsystem"}
    ranks = []
    for op in ops:
        if op.argv[0] == "rootsystem":
            ranks.append(int("".join(c for c in op.argv[1] if c.isdigit())))
        else:
            labels = op.label.split(" ")[1:]
            ranks.append(max(workloads.restricted_kind(lab).rank for lab in labels))
    high = [r for r in ranks if r >= 13]
    assert len(high) == 10                       # two ops in ten
    assert max(ranks) <= workloads.MAX_HIGH_RANK


def _over_cap(op) -> bool:
    if op.argv[0] == "rootsystem":
        fam = op.argv[1].rstrip("0123456789")
        kinds = [(fam, int(op.argv[1][len(fam):]))]
    else:
        kinds = [(k.family, k.rank) for k in map(workloads.restricted_kind, op.label.split(" ")[1:])]
    return any(r > workloads.IN_CAP.get(fam, r) for fam, r in kinds)


def test_cli_queries_run_size_is_fixed():
    """Whole blocks with one over-cap op each, so ``failed`` repeats exactly."""
    assert run.fixed_ops("cli-queries", 35) == 10 * run.CLI_BLOCK
    assert run.fixed_ops("cli-queries", 0.5) == run.CLI_BLOCK
    assert run.fixed_ops("table-regen", 35) is None
    ops = _ops("cli-queries", 4, 3 * run.CLI_BLOCK)
    for b in range(3):
        assert sum(map(_over_cap, ops[b * run.CLI_BLOCK:(b + 1) * run.CLI_BLOCK])) == 1


def test_table_regen_blocks_repeat_one_verify_seed():
    ops = _ops("table-regen", 4, 2 * run.TABLE_BLOCK)
    verifies = [op.argv for op in ops if op.argv[0] == "verify"]
    assert verifies == [("verify", "--seed", "4")] * 2
    assert sum(op.argv[:2] == ("table", "4.1") for op in ops) == 12


def test_slice_passes_have_a_fixed_mode_mix():
    ops = _ops("slice-predicates", 5, 2 * run.PASS)
    n = len(workloads.SLICE_LABELS)
    for p in range(2):
        modes = Counter(op.expect for op in ops[p * run.PASS:(p + 1) * run.PASS])
        assert modes == {None: n, "cut-face": n, "conjugate": n}


def test_constructed_points_hold_their_property():
    for op in _ops("slice-predicates", 5, 48):
        if op.expect == "cut-face":
            assert str(geometry.cut_classify(op.argv[1], op.point)) == "on-cut-face"
        elif op.expect == "conjugate":
            assert geometry.is_conjugate(op.argv[1], op.point)


# -- statistics ----------------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (9, None), (99, None), (100, (90, 10)), (999, (90, 99)), (1000, (99, 10)),
])
def test_tail_percentile_rule(n, want):
    values = [float(i) for i in range(1, n + 1)]
    got = run.tail_percentile(values)
    if want is None:
        assert got is None
    else:
        q, value, beyond = got
        assert (q, beyond) == want
        assert sum(v > value for v in values) == beyond


# -- metric names -------------------------------------------------------------

def _names(group):
    return {m["name"]: m["unit"] for m in BENCHMARK[group]}


def test_metric_tables_match_benchmark_json():
    assert _names("end_to_end") == run.END_TO_END
    assert _names("per_layer") == {k: v[0] for k, v in tracing.PER_LAYER.items()}
    assert not set(run.CONDITIONAL) & (set(_names("end_to_end")) | set(_names("per_layer")))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "slice-predicates", "--seed", "3",
                       "--seconds", "0.5", "--trace", str(trace)])
    assert rc == 0
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed.items() <= (declared | run.CONDITIONAL).items()
    assert set(declared) <= set(printed)


# -- correctness gate -----------------------------------------------------------

def _space_op(label, fmt="tsv", *flags):
    return workloads.Op(("space", label, *flags, "--format", fmt))


def _run_cli(op):
    rc, out, err = run.call_cli(op.argv)
    assert rc == 0, err
    return out


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_accepts_the_program(fmt):
    op = _space_op("CII:p=2,q=5", fmt, "--epsilon", "1/7")
    assert check.check_space(op, _run_cli(op)) == 1


def test_checker_rejects_wrong_space_value():
    op = _space_op("AI:n=4")
    out = _run_cli(op)
    assert "pi*sqrt(4)" in out
    with pytest.raises(check.WrongAnswer):
        check.check_space(op, out.replace("pi*sqrt(4)", "pi*sqrt(5)"))


def test_checker_rejects_wrong_table_row():
    op = workloads.Op(("table", "4.2", "--max-param", "3", "--format", "tsv"))
    out = _run_cli(op)
    assert check.check_table(op, out) == len(out.strip().splitlines()) - 1
    rows = out.splitlines()
    rows[2] = rows[2].replace("pi*sqrt(", "pi*sqrt(2*", 1)
    with pytest.raises(check.WrongAnswer):
        check.check_table(op, "\n".join(rows))
    with pytest.raises(check.WrongAnswer):
        check.check_table(op, "\n".join(out.splitlines()[:-1]))   # a row missing


def test_checker_rejects_wrong_product():
    op = workloads.Op(("product", "AI:n=4", "GROUP:g2", "--format", "json"))
    assert op.label == "product AI:n=4 GROUP:g2"
    data = json.loads(_run_cli(op))
    data["diameter"]["radicand"] = "1"
    with pytest.raises(check.WrongAnswer):
        check.check_product(op, json.dumps(data))


def test_checker_rejects_wrong_slice_answers():
    slices = check.SliceChecker()
    h = (Fraction(3), Fraction(3))
    cut_face = workloads.Op(("cut_classify", "AI:n=3"), h, "cut-face", (0, 1, 0))
    slices.check(cut_face, "cut_classify", {"classification": "on-cut-face"})
    with pytest.raises(check.WrongAnswer):
        slices.check(cut_face, "cut_classify", {"classification": "interior"})
    conj = workloads.Op(("is_conjugate", "AI:n=3"), h, "conjugate", (1,))
    with pytest.raises(check.WrongAnswer):
        slices.check(conj, "is_conjugate", {"conjugate": False})


def test_checker_rejects_wrong_verify_output():
    good = "name\texact\n# 3/3 checks passed\n"
    assert check.check_verify(good, None) == 3
    with pytest.raises(check.WrongAnswer):
        check.check_verify("name\texact\n# 2/3 checks passed\n", None)
    with pytest.raises(check.WrongAnswer):
        check.check_verify(good, good.replace("exact", "exakt"))


def test_failures_are_not_wrong_answers():
    verify = workloads.Op(("verify", "--seed", "1"))
    space = _space_op("AI:n=23")
    assert run.is_failure(space, 1, "Traceback (most recent call last):")
    assert run.is_failure(space, "timeout", "")
    assert run.is_failure(space, 2, "error: bad")
    assert not run.is_failure(verify, 1, "")      # the checker calls this a wrong answer
    with pytest.raises(check.WrongAnswer):
        run.Checker().cli(verify, 1, "# 1/2 checks passed\n", "")


# -- tracing ------------------------------------------------------------------

def test_self_times_partition_each_op():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, label in enumerate(("EVIII", "G")):
            tracer.op = i
            root = tracer.begin("op")
            geometry.cut_classify(label, (1,) * (8 if label == "EVIII" else 2))
            tracer.end(root)
    finally:
        tracer.uninstall()
    assert geometry.cut_classify.__name__ == "cut_classify"    # originals restored
    spans = tracer.spans
    assert tracing.nesting_errors(spans) == 0
    assert all(s >= 0 for s in tracing.self_times(spans))
    sums = tracing.op_self_sums(spans)
    assert set(sums) == {0, 1} and all(a == b for a, b in sums.values())
    names = {rec[tracing.NAME] for rec in spans}
    assert {"geometry.cut", "catalog.resolve", "polytope.dominant",
            "polytope.classify", "geometry.is_conjugate"} <= names
    metrics = tracing.layer_metrics(spans, passes=2)
    assert metrics["catalog.resolve_calls"] == 2      # cut_classify resolves twice per call
