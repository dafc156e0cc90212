"""Command-line interface.

Subcommands: rootsystem, space, table, cut, product, verify.  Exact
values are always printed alongside 12-digit decimals.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 missing
data (e.g. no canonical metric), and, from the ``symspace`` process,
141 when its reader closed stdout early (``| head``), as a shell shows
a process ended by SIGPIPE.

Each command imports what it runs.  ``space``, ``table`` and ``product``
load the catalog and the report path (``catalog``, ``dynkin``,
``killing``, ``linalg`` and ``reporting``) and nothing more; ``cut`` adds
``geometry`` and ``roots``; ``rootsystem`` loads ``dynkin``, ``killing``,
``linalg``, ``polytope`` and ``roots``, and no catalog; ``verify`` loads
the report path, the polytope, its checks and numpy.  ``json`` is loaded
for JSON output and by ``cut``.  Every refusal of an input
(InvalidParams, InvalidRank, DimensionMismatch) is a ValueError, and
exits 2.

Besides its command, a fresh ``symspace`` process pays for the
interpreter's start (about 65 ms, as for ``python -c pass``); for
compiling what it imports, about 1,600 source lines for a report command,
since no bytecode is written when ``PYTHONDONTWRITEBYTECODE=1`` is set
(about 11 ms under ``python -X importtime``); and for shutdown.  ``run``,
the process entry of ``python -m symspace.cli`` and of the ``symspace``
script, freezes the heap once the command has returned, so that the
collections at shutdown skip it: from the last atexit hook to exit took
4-5 ms in place of 15-16 ms for ``space`` and ``table``, and 12 ms in
place of 44 ms for ``verify`` (Python 3.11.7, 2-CPU Intel Xeon).
``main``, the in-process API, never freezes.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction
from itertools import chain

from .linalg import format_rational

FORMATS = ("text", "markdown", "json", "tsv")


# A decimal literal split at its exponent: Fraction's grammar for the part
# before "e" (no "/", no second exponent, no space before "e") and after it.
# Compiled on first use (by ``re``'s cache), so a command without a metric
# value or a point does not compile it.
_EXPONENT = r"([^/eE]*[\d.])[eE]([-+]?\d+(?:_\d+)*)\s*"


def _parse_fraction(text: str, max_digits: int = 0) -> Fraction:
    """``Fraction(text)``.  With ``max_digits`` > 0, a value whose numerator
    or denominator has more digits is refused, and a decimal exponent is
    read before 10**exponent is formed, so "1e10000000" costs nothing."""
    from .catalog import InvalidParams
    try:
        m = re.fullmatch(_EXPONENT, text) if max_digits else None
        if m is None:
            value = Fraction(text)
        else:
            value, exp = Fraction(m[1]), int(m[2])
            if value:
                # Past +-bound a nonzero value has more than max_digits
                # digits (2**bits <= 10**bits) and is refused below either
                # way, so the exponent is clamped there: 10**exp stays small.
                bound = (max_digits + 1 + value.numerator.bit_length()
                         + value.denominator.bit_length())
                value *= Fraction(10) ** max(-bound, min(exp, bound))
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidParams(f"bad rational {text!r}") from e
    if max_digits and max(abs(value.numerator), value.denominator) >= 10 ** max_digits:
        raise InvalidParams(f"bad rational {text!r}: more than {max_digits} digits")
    return value


def _write(pieces) -> None:
    """Write the strings to stdout in writes of about 64 KB: when stdout is
    unbuffered (``python -u``), every write is a system call."""
    chunk, size = [], 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= 65536:
            sys.stdout.write("".join(chunk))
            chunk, size = [], 0
    sys.stdout.write("".join(chunk))


def _write_json(data) -> None:
    """``print(json.dumps(data, indent=2))``, written as it is encoded: a
    space's black-node list can run to a million lines."""
    import json
    _write(chain(json.JSONEncoder(indent=2).iterencode(data), ["\n"]))


def _emit_rows(header: list[str], rows, fmt: str) -> None:
    """Print the rows (cell lists, or an iterator of them) as a table once
    every row is rendered.  tsv and markdown keep one joined line per row;
    text keeps the cells, whose widths it needs."""
    if fmt == "tsv":
        lines = ["\t".join(header), *("\t".join(r) for r in rows)]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|",
                 *("| " + " | ".join(r) + " |" for r in rows)]
    else:
        rows = [header, *rows]
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)
    _write(line + "\n" for line in lines)


def cmd_rootsystem(args) -> int:
    from . import killing, polytope, roots
    kind = roots.parse_kind(args.kind)
    rs = roots.build(kind)
    data = roots.to_json_dict(rs)
    poly = polytope.build_polytope(rs)
    kd = killing.killing_data(kind) if kind.is_reduced else None
    if args.format == "json":         # the only format that prints every vertex
        data["polytope"] = polytope.to_json_dict(poly)
        if kd:
            data["killing"] = killing.to_json_dict(kd)
        _write_json(data)
        return 0
    rows = [
        ["kind", str(rs.kind)],
        ["rank", str(rs.rank)],
        ["root count", str(data["root_count"])],
        ["indivisible roots", str(data["indivisible_count"])],
        ["highest root", " ".join(map(str, rs.highest_root))],
        ["gram", "; ".join(",".join(r) for r in data["gram"])],
        ["vertex norms sq", " ".join(format_rational(v) for v in poly.vertex_norms_sq)],
        ["i_sq", format_rational(poly.i_sq)],
        ["d_sq", format_rational(poly.d_sq)],
        ["argmax vertex", str(poly.argmax_vertex)],
    ]
    if kd:
        rows.append(["killing delta_sq", format_rational(kd.delta_sq)])
        rows.append(["perp subsystem", " ".join(str(k) for k in kd.perp_subsystem) or "-"])
    _emit_rows(["field", "value"], rows, args.format)
    return 0


def _metric_from_args(args):
    """The ``reporting.MetricSpec`` the metric flags name."""
    from . import catalog, reporting
    chosen = [x for x in (args.epsilon, args.ric, "c" if args.canonical else None)
              if x is not None]
    if len(chosen) > 1:
        raise catalog.InvalidParams("use at most one of --epsilon/--ric/--canonical")
    # Every metric command prints the injectivity radicand eps / psi_sq (the
    # smallest, for product), with eps = 1/(2 ric).  psi_sq = factor / h, with
    # factor 1 or 1/2 and h the ambient dual Coxeter number, is 1/N with
    # N <= 2(p+q+1) for the p,q series and N < 600 for the other rows.  A
    # label parameter has at most L digits (int()'s limit, L below), so N
    # has at most L+1.  The value's digits can cancel only against N and the
    # 2 of 1/(2 ric), at most L+2 of them: past 2L+2 digits the radicand
    # could not be printed anyway.  L = 0 means Python's limit is off, and
    # then so is this bound.
    limit = sys.get_int_max_str_digits()
    max_digits = 2 * limit + 2 if limit else 0
    if args.epsilon is not None:
        return reporting.MetricSpec.epsilon(_parse_fraction(args.epsilon, max_digits))
    if args.ric is not None:
        return reporting.MetricSpec.ricci(_parse_fraction(args.ric, max_digits))
    if args.canonical:
        return reporting.MetricSpec.canonical()
    return reporting.DEFAULT_METRIC


def _refuse_long_labels(reps) -> None:
    """Called when a report's value is too long to print: InvalidParams
    naming the label when the label alone gives such a value, as it does
    at eps = 1, where the values are psi_sq, its reciprocal (as many
    digits) and d_sq / psi_sq; otherwise the metric value is the cause."""
    from . import catalog
    for rep in reps:
        try:
            str(rep.psi_sq), str(rep.d_sq_sigma / rep.psi_sq)
        except ValueError:
            raise catalog.long_label(rep.space.label) from None


def _report_rows(rep) -> list[list[str]]:
    e = rep.space
    return [
        ["label", str(e.label)],
        ["space", e.name],
        ["type", e.space_type],
        ["ambient", e.ambient_name],
        ["restricted", e.restricted_name],
        ["restriction factor", format_rational(e.restriction_factor)],
        ["psi_sq (killing)", format_rational(rep.psi_sq)],
        ["epsilon", format_rational(rep.epsilon)],
        ["ricci", format_rational(rep.ricci)],
        ["kappa", format_rational(rep.kappa)],
        ["injectivity radius", str(rep.injectivity_radius)],
        ["diameter", str(rep.diameter)],
    ]


def cmd_space(args) -> int:
    from . import reporting
    rep = reporting.report(args.label, _metric_from_args(args))
    try:
        data = (reporting.report_json_dict(rep) if args.format == "json"
                else _report_rows(rep))
    except ValueError:
        _refuse_long_labels([rep])
        raise
    if args.format == "json":
        _write_json(data)
        return 0
    _emit_rows(["field", "value"], data, args.format)
    return 0


TABLE_HEADER = ["type", "space", "sigma", "psi_sq", "i", "i_dec", "d", "d_dec"]


def _table_cells(rep) -> list[str]:
    e, i, d = rep.space, rep.injectivity_radius, rep.diameter
    return [str(e.label), e.name, e.restricted_name, format_rational(rep.psi_sq),
            i.exact_str(), i.decimal_str(), d.exact_str(), d.decimal_str()]


def cmd_table(args) -> int:
    from . import catalog, reporting
    metric = _metric_from_args(args)
    # The entries come one at a time and each row is rendered from its
    # report as it comes, so no entry (with its black-node set) or report
    # outlives its row's text.  Nothing is printed until every row has
    # succeeded.
    reps = (reporting.report(e, metric)
            for e in catalog.enumerate_table(args.which, args.max_param))
    if args.format == "json":
        import json
        # json.dumps(reports, indent=2) for the (never empty) table, written
        # piece by piece.
        rows = [json.dumps(reporting.report_json_dict(r), indent=2).replace("\n", "\n  ")
                for r in reps]
        _write(chain("[", (("," if i else "") + "\n  " + r for i, r in enumerate(rows)),
                     ["\n]\n"]))
        return 0
    _emit_rows(TABLE_HEADER, map(_table_cells, reps), args.format)
    return 0


def cmd_cut(args) -> int:
    import json
    from . import catalog, geometry
    entry = catalog.resolve(args.label)
    # The point is echoed, and str() of an int is capped at this many digits.
    max_digits = sys.get_int_max_str_digits()
    point = tuple(_parse_fraction(c, max_digits) for c in args.point.split(","))
    details = geometry.cut_details(entry, point)
    data = {
        "label": str(entry.label),
        "point": [format_rational(c) for c in point],
        "classification": str(details.classification),
        "dominant_representative": [format_rational(c)
                                    for c in details.dominant_representative],
        "reflections": details.reflections,
        "conjugate": details.conjugate,
    }
    if args.format == "json":
        _write_json(data)
        return 0
    rows = [[k, v if isinstance(v, str) else json.dumps(v)] for k, v in data.items()]
    _emit_rows(["field", "value"], rows, args.format)
    return 0


def cmd_product(args) -> int:
    from . import reporting
    metric = _metric_from_args(args)
    reps = [reporting.report(label, metric) for label in args.labels]
    inj, diam = reporting.product(reps)
    try:
        data = {
            "factors": [str(r.space.label) for r in reps],
            "injectivity_radius": inj.to_json(),
            "diameter": diam.to_json(),
        }
    except ValueError:
        _refuse_long_labels(reps)
        raise
    if args.format == "json":
        _write_json(data)
        return 0
    rows = [["factors", " ".join(data["factors"])],
            ["injectivity radius", str(inj)],
            ["diameter", str(diam)]]
    _emit_rows(["field", "value"], rows, args.format)
    return 0


def cmd_verify(args) -> int:
    from . import verify              # imports numpy; only verify needs it
    from .oracle import TSV_HEADER
    reports = verify.run_all(args.seed, samples=args.samples,
                             table_bound=args.max_param)
    failed = [r for r in reports if not r.passed]
    _write(chain([TSV_HEADER + "\n"], (r.tsv_row() + "\n" for r in reports),
                 [f"# {len(reports) - len(failed)}/{len(reports)} checks passed\n"]))
    return 1 if failed else 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser.  Given a command name, only that subcommand gets its
    arguments: the others keep their names and help, so usage lines and
    errors read the same, and parsing a line of that command needs no more."""
    top = argparse.ArgumentParser(prog="symspace",
                                  description="Exact geometry of compact symmetric spaces")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text")

    def add_metric(p):
        p.add_argument("--epsilon", help="metric scale, a positive rational")
        p.add_argument("--ric", help="Ricci constant, a positive rational")
        p.add_argument("--canonical", action="store_true",
                       help="use the catalog's canonical metric preset")

    def rootsystem(p):
        p.add_argument("kind")
        add_format(p)

    def space(p):
        p.add_argument("label")
        add_metric(p)
        add_format(p)

    def table(p):
        p.add_argument("which", choices=("4.1", "4.2"))
        p.add_argument("--max-param", type=int, default=8)
        add_metric(p)
        add_format(p)

    def cut(p):
        p.add_argument("label")
        p.add_argument("--point", required=True, help="comma-separated rationals")
        add_format(p)

    def product(p):
        p.add_argument("labels", nargs="+")
        add_metric(p)
        add_format(p)

    def verify(p):
        p.add_argument("--seed", type=int, default=20260810)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--max-param", type=int, default=12)

    for name, help_text, func, add_arguments in (
            ("rootsystem", "inspect a root system and its polytope", cmd_rootsystem, rootsystem),
            ("space", "geometry report for one space", cmd_space, space),
            ("table", "regenerate a classification table", cmd_table, table),
            ("cut", "classify a Cartan-slice point", cmd_cut, cut),
            ("product", "geometry of a product of spaces", cmd_product, product),
            ("verify", "run oracles and table reproduction", cmd_verify, verify)):
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
            p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command is the first word that is not an option: the top level
    # has no option that takes a value.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LookupError as e:
        # Only reporting raises NoCanonicalMetric, so it is loaded by then.
        from .reporting import NoCanonicalMetric
        if not isinstance(e, NoCanonicalMetric):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 3


def run() -> int:
    """The process entry: ``main``, then the heap frozen.  A frozen object
    is in no generation that a collection walks, the interpreter's own at
    shutdown included, so the process exits without walking the heap it
    built.  The freeze comes after the command, whose own collections
    still run, and ``main`` never freezes, so a caller that runs it in
    process keeps a heap that can be collected.  stdout is flushed here:
    when its reader has closed it (``| head``), fd 1 is pointed at the null
    device, so the flush at exit cannot fail, and the process ends with
    141 and nothing on stderr; ``main`` raises the BrokenPipeError."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        code = 141
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
