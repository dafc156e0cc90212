"""Seeded benchmark of symspace, end to end and layer by layer.

    python3 -m perfbench.run --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one op in flight):

* ``cli-queries``: one-shot ``symspace space|cut|product|rootsystem``
  commands, each in a fresh process, over every series and ``GROUP:<kind>``
  with random metric flags, formats and rational cut points.  Two ops in
  ten have restricted rank 13-40: one within the seed's 500-root closure
  cap, one beyond it, so the over-cap crash stays visible.  This is what a
  user pays per query: interpreter start, import, one cold report.  A run
  is a fixed number of ten-op blocks, one per ``CLI_BLOCK_SECONDS`` of
  ``--seconds``, so ``attempted`` and ``failed`` repeat exactly.
* ``table-regen``: ``symspace table 4.1`` (six ops in nine), ``table
  4.2`` (two) at ``--max-param 12`` and ``symspace verify --seed N`` with default
  samples and bound, in fresh processes, format and metric flag rotated by
  the seed.  The batch cold-report path over ~300 rows, and the only
  workload that runs the float oracles.  A run stops between whole blocks.
* ``slice-predicates``: a warm in-process loop of ``cut_classify``,
  ``is_conjugate`` and ``cut_details`` on non-dominant rational points
  (random, exact cut-face and exact conjugate ones) for eight spaces of
  rank 1-8.  No process start and no root building after set-up.  One op
  is one pass of the three predicates over the eight spaces.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median of seven fresh-process set-ups spread over the run:
imports, input generation, warm-up and cache fill), ``ops_per_s`` (completed ops over the
time spent on all attempted ops), ``op_p50_ms`` (median latency of a
completed op) and ``peak_rss_mb`` (largest child, or this process for the
in-process workload).  The lines before it also give ``op_tail_ms`` (the
highest of p90/p99 with at least ten samples beyond it, when one
qualifies), ``rows_per_s`` (table-regen: verified table rows over the time
of the table ops) and ``fail_ratio`` with its base and every failed op's
label and exit code.  Those three are printed only where they apply, so
they are not part of the fixed metric set.

With ``--trace 1`` the first ops of the same stream are replayed
in-process, untraced and then traced through each layer's public
functions (see ``tracing.py``), in whole passes for about ``--seconds``; the last
line carries the per-layer metrics per pass.  The spans are written to
``perfbench/out/``.

Every answer is checked (``check.py``); a wrong one ends the run with
``"correct": false`` and exit code 1.  Without the program's source tree
next to this directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from . import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("cli-queries", "table-regen", "slice-predicates")
IN_PROCESS = {"slice-predicates"}
TIMEOUT_S = {"cli-queries": 30, "table-regen": 60}
CLI_BLOCK = 10                              # ops per cli-queries block, one over the cap
CLI_BLOCK_SECONDS = 3.5                     # one such block at the seed commit, 2-CPU host
TABLE_BLOCK = 9                             # eight tables and one verify
MIN_TABLE_BLOCKS = 2                        # the repeated-seed TSV check needs two verifies
PASS = 24                                   # slice-predicates calls per op: 8 spaces x 3
TRACE_OPS = {"cli-queries": CLI_BLOCK, "table-regen": TABLE_BLOCK, "slice-predicates": PASS}
SETUP_REPEATS = 7
WARM_UP = ("space", "AI:n=2", "--format", "json")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
CONDITIONAL = {"op_tail_ms": "ms", "rows_per_s": "1/s", "fail_ratio": "ratio"}
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, a set-up step failed)."""


def use_source_tree() -> dict:
    """Put the program's source first on the path; return the child environment."""
    if not (SRC / "symspace" / "__init__.py").is_file():
        raise SetupError(f"no symspace source tree at {SRC}")
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics ------------------------------------------------------------

def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def tail_percentile(values: list[float]) -> tuple[int, float, int] | None:
    """(percentile, value, samples beyond) for the highest of p90/p99 with at
    least ten samples beyond it, or None when neither qualifies."""
    s = sorted(values)
    best = None
    for q in (90, 99):
        if s:
            value, beyond = nearest_rank(s, q)
            if beyond >= 10:
                best = (q, value, beyond)
    return best


# -- child processes -------------------------------------------------------

@dataclass
class Proc:
    rc: int | str                # exit code, or "timeout"
    out: str
    err: str
    wall_s: float
    rss_kb: int

    @property
    def failed(self) -> bool:
        return self.rc != 0 or "Traceback" in self.err


def spawn(argv: list[str], timeout: float, env: dict) -> Proc:
    """Run a child to completion (killed at ``timeout``); wall time and peak RSS."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, cwd=ROOT)
    chunks = {p.stdout: [], p.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                p.kill()
                timed_out = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    out, err = (b"".join(chunks[f]).decode(errors="replace") for f in (p.stdout, p.stderr))
    return Proc("timeout" if timed_out else p.returncode, out, err, wall, usage.ru_maxrss)


def is_failure(op, rc, err: str) -> bool:
    """A timeout, a traceback or a nonzero exit; ``verify`` exiting 1 is instead
    a failed verification, which the checker reports as a wrong answer."""
    if rc == "timeout" or "Traceback" in err:
        return True
    return rc != 0 and not (op.argv[0] == "verify" and rc == 1)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "symspace.cli", *args]


def call_cli(args) -> tuple[int, str, str]:
    """Run ``symspace.cli.main`` in this process, capturing its output."""
    import symspace.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:          # a crash is a failed op; keep the loop going
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:160] if lines else ""


# -- set-up ----------------------------------------------------------------

@dataclass
class State:
    workload: str
    seed: int
    env: dict
    ops: object                 # iterator of workloads.Op
    first: list                 # the first ops, already generated; the traced replay


def setup(workload: str, seed: int) -> State:
    """Imports, input generation and warm-up; the work ``setup_s`` times."""
    env = use_source_tree()
    from . import check, workloads
    vertices = None
    if workload in IN_PROCESS:
        vertices = {lab: workloads.slice_vertices(lab) for lab in workloads.SLICE_LABELS}
    stream = workloads.stream(workload, seed, vertices)
    first = list(itertools.islice(stream, TRACE_OPS[workload]))
    if workload in IN_PROCESS:
        from symspace import geometry
        for op in first:                          # fills the geometry caches
            getattr(geometry, op.argv[0])(op.argv[1], op.point)
    else:
        warm = spawn(cli_argv(WARM_UP), TIMEOUT_S["cli-queries"], env)
        if warm.failed:
            raise SetupError(f"warm-up failed: {last_line(warm.err)}")
    return State(workload, seed, env, itertools.chain(first, stream), first)


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Wall time of one fresh-process set-up."""
    p = spawn([sys.executable, "-m", "perfbench.child", "setup", workload, str(seed)], 120, env)
    if p.failed:
        raise SetupError(f"set-up probe failed: {last_line(p.err)}")
    return p.wall_s


# -- checking --------------------------------------------------------------

class Checker:
    """Routes an op's output to its check; remembers the first verify TSV."""

    def __init__(self):
        from . import check, workloads
        self.check = check
        self.workloads = workloads
        self.slices = check.SliceChecker()
        self.first_tsv: str | None = None

    def cli(self, op, rc, out: str, err: str) -> int:
        """Verified rows of a completed op; raises WrongAnswer on a wrong one."""
        if op.argv[0] == "verify":
            if rc != 0:
                raise self.check.WrongAnswer(f"verify exit {rc}: {last_line(out)}")
            rows = self.check.check_verify(out, self.first_tsv)
            self.first_tsv = self.first_tsv or out
            return rows
        return self.check.check_cli(op, out, self.slices)

    def check_op(self, op, payload) -> int:
        """Check a completed op: ``(rc, out, err)`` of a CLI op or a predicate's result.

        Output the checker cannot parse is a wrong answer too."""
        pred = op.argv[0]
        try:
            if pred in self.workloads.SLICE_PREDICATES:
                self.slices.check(op, pred, self.check.normalise(pred, payload))
                return 1
            return self.cli(op, *payload)
        except (KeyError, IndexError, ValueError) as e:
            raise self.check.WrongAnswer(f"unexpected output: {e!r}") from e


# -- runs ------------------------------------------------------------------

@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    lines: list[str]


def _e2e(walls_s, latencies_ms, attempted, failed, failures, rss_mb, setup_s,
         rows=None) -> Outcome:
    completed = len(latencies_ms)
    if not completed:
        raise SetupError("no op completed; nothing to measure")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(walls_s),
        "op_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": rss_mb,
    }
    lines = [f"metric {k} {v:.6g} {END_TO_END[k]}" for k, v in metrics.items()]
    lines[1] += f" ({completed} completed in {sum(walls_s):.3f} s of ops)"
    lines[2] += f" ({completed} samples)"
    tail = tail_percentile(latencies_ms)
    if tail:
        q, value, beyond = tail
        lines.append(f"metric op_tail_ms {value:.6g} {CONDITIONAL['op_tail_ms']} "
                     f"(p{q}, {beyond} samples beyond, {completed} samples)")
    if rows is not None:
        rows, table_s = rows
        lines.append(f"metric rows_per_s {rows / table_s:.6g} {CONDITIONAL['rows_per_s']} "
                     f"({rows} verified rows in {table_s:.3f} s of table ops)")
    lines.append(f"metric fail_ratio {failed / attempted:.6g} {CONDITIONAL['fail_ratio']} "
                 f"({failed}/{attempted} failed)")
    lines += [f"failed {label} exit={rc} {why}" for label, rc, why in failures]
    return Outcome(metrics, attempted, failed, True, lines)


def execute(op, cli_workload: bool):
    """Run one op in this process: (failed, (rc, out, err)) or (failed, result)."""
    if cli_workload:
        rc, out, err = call_cli(op.argv)
        return is_failure(op, rc, err), (rc, out, err)
    from symspace import geometry
    try:
        return False, getattr(geometry, op.argv[0])(op.argv[1], op.point)
    except Exception as e:          # a crash is a failed op; keep the loop going
        return True, e


def fixed_ops(workload: str, seconds: float) -> int | None:
    """Ops per run when the run's size is fixed by ``seconds`` rather than timed.

    cli-queries runs whole blocks, each with exactly one over-cap op, so
    that ``attempted`` and ``failed`` repeat exactly from seed to seed.
    """
    if workload != "cli-queries":
        return None
    return CLI_BLOCK * max(1, round(seconds / CLI_BLOCK_SECONDS))


def run_untraced(state: State, seconds: float) -> Outcome:
    """Closed loop over the op stream for ``seconds``; every answer is checked.

    ``setup_s`` is the median of ``SETUP_REPEATS`` fresh-process set-ups,
    spread evenly between the ops over the run (their time is not op time),
    so that it sees the same stretch of machine speed as the ops.

    table-regen stops only between whole blocks, at the block end nearest to
    ``seconds``, so every run has the same share of ``verify`` time.
    On the in-process workload one op is one pass of the three predicates
    over the eight spaces (``PASS`` calls, each timed on its own and summed);
    its median is the typical pass, not a call at the edge of two clusters
    of call costs.  The calls of a pass are checked after the pass.
    """
    checker = Checker()
    in_process = state.workload in IN_PROCESS
    size = PASS if in_process else 1
    limit = fixed_ops(state.workload, seconds)
    walls, latencies, rss, failures = [], [], [], []
    rows = attempted = failed_ops = 0
    table_s = probe_s = 0.0
    setup_times: list[float] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0 - probe_s
        if len(setup_times) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * elapsed / seconds):
            start = time.perf_counter()
            setup_times.append(measure_setup(state.workload, state.seed, state.env))
            probe_s += time.perf_counter() - start
            continue
        if limit is not None:
            if attempted >= limit:
                break
        elif state.workload == "table-regen":
            blocks, at_end = divmod(attempted, TABLE_BLOCK)
            if not at_end and blocks >= MIN_TABLE_BLOCKS and elapsed + elapsed / blocks / 2 >= seconds:
                break
        elif attempted and elapsed >= seconds:
            break
        attempted += 1
        done, wall, op_failed = [], 0.0, False
        for op in itertools.islice(state.ops, size):
            if in_process:
                start = time.perf_counter()
                failed, payload = execute(op, False)
                wall += time.perf_counter() - start
                why = (type(payload).__name__, str(payload)[:160]) if failed else None
            else:
                p = spawn(cli_argv(op.argv), TIMEOUT_S[state.workload], state.env)
                wall, payload = p.wall_s, (p.rc, p.out, p.err)
                failed = is_failure(op, p.rc, p.err)
                why = (p.rc, last_line(p.err))
                rss.append(p.rss_kb)
            if failed:
                failures.append((op.label, *why))
                op_failed = True
            else:
                done.append((op, payload))
        walls.append(wall)
        failed_ops += op_failed
        for op, payload in done:
            try:
                checked = checker.check_op(op, payload)
            except checker.check.WrongAnswer as e:
                return Outcome({}, attempted, failed_ops, False, [f"WRONG {op.label}: {e}"])
            if op.argv[0] == "table":
                rows += checked
                table_s += wall
        if not op_failed:
            latencies.append(wall * 1000)
    peak_kb = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(state.workload, state.seed, state.env))
    return _e2e(walls, latencies, attempted, failed_ops, failures, peak_kb / 1024,
                statistics.median(setup_times),
                (rows, table_s) if state.workload == "table-regen" else None)


def run_traced(state: State, seconds: float) -> Outcome:
    """Replay the first ops untraced and traced, in passes, for the layer metrics."""
    checker = Checker()
    tracer = tracing.Tracer()
    cli_workload = state.workload not in IN_PROCESS
    untraced_ns = traced_ns = 0
    import_ms = spawn_ms = 0.0
    attempted = failed = passes = 0
    t0 = time.perf_counter()
    # Another pass only if it would end less than half a pass past ``seconds``.
    while passes == 0 or (time.perf_counter() - t0) * (1 + 0.5 / passes) < seconds:
        for op in state.first:
            tracer.op = attempted
            attempted += 1
            if cli_workload:
                p = spawn([sys.executable, "-m", "perfbench.child", "cli", *op.argv],
                          TIMEOUT_S[state.workload], state.env)
                if "PERFBENCH " in p.err:
                    child = json.loads(p.err.rsplit("PERFBENCH ", 1)[1].splitlines()[0])
                    import_ms += child["import_ms"]
                    spawn_ms += p.wall_s * 1000 - child["import_ms"] - child["main_ms"]
            # Alternate which of the untraced and traced replays goes first.
            for traced in ((False, True) if attempted % 2 else (True, False)):
                if cli_workload:
                    tracing.clear_caches()
                if not traced:
                    start = time.perf_counter_ns()
                    execute(op, cli_workload)
                    untraced_ns += time.perf_counter_ns() - start
                    continue
                tracer.install()
                try:
                    root = tracer.begin("op")
                    op_failed, payload = execute(op, cli_workload)
                    tracer.end(root)
                    traced_ns += root[tracing.END] - root[tracing.START]
                    failed += op_failed
                    root = tracer.begin("check")
                    try:
                        if not op_failed:
                            checker.check_op(op, payload)
                    except checker.check.WrongAnswer as e:
                        return Outcome({}, attempted, failed, False, [f"WRONG {op.label}: {e}"])
                    finally:
                        tracer.end(root)
                finally:
                    tracer.uninstall()
        passes += 1
    metrics = tracing.layer_metrics(tracer.spans, passes)
    metrics["cli.import_ms"] = import_ms / passes
    metrics["cli.spawn_ms"] = spawn_ms / passes
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    sums = tracing.op_self_sums(tracer.spans)
    ok = tracing.nesting_errors(tracer.spans) == 0 and all(a == b for a, b in sums.values())
    lines = [f"metric {k} {v:.6g} {tracing.PER_LAYER[k][0]} (moves: {tracing.PER_LAYER[k][1]})"
             for k, v in metrics.items()]
    lines.append(f"# {passes} passes of {len(state.first)} ops, {len(tracer.spans)} spans; "
                 f"per-op self times sum to the op time: {ok}")
    write_spans(state, tracer.spans)
    return Outcome(metrics, attempted, failed, ok, lines)


def write_spans(state: State, spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{state.workload}-{state.seed}.json"
    fields = ["op", "name", "start_ns", "end_ns", "parent", "value", "failed"]
    path.write_text(json.dumps({"fields": fields, "spans": spans}, separators=(",", ":")))


# -- metadata and entry point ----------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def meta(seed: int, start_load: str) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "seed": seed,
            "loadavg_start": start_load, "loadavg_end": loadavg()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    start_load = loadavg()
    state = setup(workload, seed)
    out = run_traced(state, seconds) if trace else run_untraced(state, seconds)
    out.lines.insert(0, f"# meta {json.dumps(meta(seed, start_load))}")
    return out


def result_line(out: Outcome) -> str:
    units = {**END_TO_END, **{k: v[0] for k, v in tracing.PER_LAYER.items()}}
    return json.dumps({"correct": out.correct, "attempted": out.attempted,
                       "failed": out.failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in out.metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"# workload {name} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace}")
            print("\n".join(out.lines))
            if len(names) > 1:
                print(result_line(out))
            outcomes[name] = out
            if not out.correct:
                break
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(result_line(outcomes[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o.correct for o in outcomes.values()),
            "attempted": sum(o.attempted for o in outcomes.values()),
            "failed": sum(o.failed for o in outcomes.values()),
            "metrics": {n: json.loads(result_line(o))["metrics"] for n, o in outcomes.items()},
        }))
    return 0 if all(o.correct for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
