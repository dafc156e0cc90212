"""Command-line interface.

Subcommands: rootsystem, space, table, cut, product, verify.  Exact
values are always printed alongside 12-digit decimals.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 missing
data (e.g. no canonical metric).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain

from . import catalog, geometry, killing, polytope, roots
from .linalg import DimensionMismatch, format_rational

FORMATS = ("text", "markdown", "json", "tsv")


# A decimal literal split at its exponent: Fraction's grammar for the part
# before "e" (no "/", no second exponent, no space before "e") and after it.
_EXPONENT = re.compile(r"([^/eE]*[\d.])[eE]([-+]?\d+(?:_\d+)*)\s*")


def _parse_fraction(text: str, max_digits: int = 0) -> Fraction:
    """``Fraction(text)``.  With ``max_digits`` > 0, a value whose numerator
    or denominator has more digits is refused, and a decimal exponent is
    read before 10**exponent is formed, so "1e10000000" costs nothing."""
    try:
        m = _EXPONENT.fullmatch(text) if max_digits else None
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
        raise catalog.InvalidParams(f"bad rational {text!r}") from e
    if max_digits and max(abs(value.numerator), value.denominator) >= 10 ** max_digits:
        raise catalog.InvalidParams(f"bad rational {text!r}: more than {max_digits} digits")
    return value


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str) -> None:
    """Print the rows as a table, one line at a time."""
    if fmt == "tsv":
        lines = ("\t".join(r) for r in chain([header], rows))
    elif fmt == "markdown":
        lines = chain(["| " + " | ".join(header) + " |",
                       "|" + "|".join(" --- " for _ in header) + "|"],
                      ("| " + " | ".join(r) + " |" for r in rows))
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ("  ".join(c.ljust(w) for c, w in zip(r, widths))
                 for r in chain([header], rows))
    for line in lines:
        print(line)


def cmd_rootsystem(args) -> int:
    kind = roots.parse_kind(args.kind)
    rs = roots.build(kind)
    data = roots.to_json_dict(rs)     # counts the roots, so past MAX_ROOTS refuses first
    poly = polytope.build_polytope(rs)
    data["polytope"] = polytope.to_json_dict(poly)
    if kind.is_reduced:
        kd = killing.killing_data(rs)
        data["killing"] = killing.to_json_dict(kd)
    if args.format == "json":
        print(json.dumps(data, indent=2))
        return 0
    rows = [
        ["kind", str(rs.kind)],
        ["rank", str(rs.rank)],
        ["root count", str(len(rs.roots))],
        ["indivisible roots", str(len(rs.indivisible_roots))],
        ["highest root", " ".join(map(str, rs.highest_root))],
        ["gram", "; ".join(",".join(r) for r in data["gram"])],
        ["vertex norms sq", " ".join(format_rational(v) for v in poly.vertex_norms_sq)],
        ["i_sq", format_rational(poly.i_sq)],
        ["d_sq", format_rational(poly.d_sq)],
        ["argmax vertex", str(poly.argmax_vertex)],
    ]
    if kind.is_reduced:
        rows.append(["killing delta_sq", format_rational(kd.delta_sq)])
        rows.append(["perp subsystem", " ".join(str(k) for k in kd.perp_subsystem) or "-"])
    _emit_rows(["field", "value"], rows, args.format)
    return 0


def _metric_from_args(args) -> geometry.MetricSpec:
    chosen = [x for x in (args.epsilon, args.ric, "c" if args.canonical else None)
              if x is not None]
    if len(chosen) > 1:
        raise catalog.InvalidParams("use at most one of --epsilon/--ric/--canonical")
    # Every metric command prints the injectivity radicand eps / psi_sq (the
    # smallest, for product), with eps = 1/(2 ric).  psi_sq = factor / h, with
    # factor 1 or 1/2 and h the ambient dual Coxeter number, is 1/N with
    # N <= 2(p+q+1) for the p,q series and N < 600 for the other rows.  A
    # label parameter has at most L digits (int()'s limit, L below) and
    # p <= MAX_RANK, so N has at most L+1.  The value's digits can cancel
    # only against N and the 2 of 1/(2 ric), at most L+2 of them: past 2L+2
    # digits the radicand could not be printed anyway.  L = 0 means Python's
    # limit is off, and then so is this bound.
    limit = sys.get_int_max_str_digits()
    max_digits = 2 * limit + 2 if limit else 0
    if args.epsilon is not None:
        return geometry.MetricSpec.epsilon(_parse_fraction(args.epsilon, max_digits))
    if args.ric is not None:
        return geometry.MetricSpec.ricci(_parse_fraction(args.ric, max_digits))
    if args.canonical:
        return geometry.MetricSpec.canonical()
    return geometry.DEFAULT_METRIC


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
    rep = geometry.report(args.label, _metric_from_args(args))
    if args.format == "json":
        # Written as it is encoded: a black-node list can run to a million lines.
        json.dump(geometry.report_json_dict(rep), sys.stdout, indent=2)
        print()
        return 0
    _emit_rows(["field", "value"], _report_rows(rep), args.format)
    return 0


def cmd_table(args) -> int:
    metric = _metric_from_args(args)
    # The entries come one at a time and each row is rendered from its
    # report as it comes, so no entry (with its black-node set) or report
    # outlives its row's text.  Nothing is printed until every row has
    # succeeded.
    entries = catalog.enumerate_table(args.which, args.max_param)
    if args.format == "json":
        # json.dumps(reports, indent=2) for the (never empty) table, written
        # piece by piece.
        rows = [json.dumps(geometry.report_json_dict(geometry.report(e, metric)),
                           indent=2).replace("\n", "\n  ") for e in entries]
        print("[\n  " + rows[0], *rows[1:], sep=",\n  ", end="\n]\n")
        return 0
    reps = (geometry.report(e, metric) for e in entries)
    header = ["type", "space", "sigma", "psi_sq", "i", "i_dec", "d", "d_dec"]
    rows = [[str(r.space.label), r.space.name, r.space.restricted_name,
             format_rational(r.psi_sq),
             r.injectivity_radius.exact_str(), r.injectivity_radius.decimal_str(),
             r.diameter.exact_str(), r.diameter.decimal_str()] for r in reps]
    _emit_rows(header, rows, args.format)
    return 0


def cmd_cut(args) -> int:
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
        print(json.dumps(data, indent=2))
        return 0
    rows = [[k, v if isinstance(v, str) else json.dumps(v)] for k, v in data.items()]
    _emit_rows(["field", "value"], rows, args.format)
    return 0


def cmd_product(args) -> int:
    metric = _metric_from_args(args)
    reps = [geometry.report(label, metric) for label in args.labels]
    inj, diam = geometry.product(reps)
    data = {
        "factors": [str(r.space.label) for r in reps],
        "injectivity_radius": inj.to_json(),
        "diameter": diam.to_json(),
    }
    if args.format == "json":
        print(json.dumps(data, indent=2))
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
    print(TSV_HEADER)
    for r in reports:
        print(r.tsv_row())
    failed = [r for r in reports if not r.passed]
    print(f"# {len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("rootsystem", help="inspect a root system and its polytope")
    p.add_argument("kind")
    add_format(p)
    p.set_defaults(func=cmd_rootsystem)

    p = sub.add_parser("space", help="geometry report for one space")
    p.add_argument("label")
    add_metric(p)
    add_format(p)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("table", help="regenerate a classification table")
    p.add_argument("which", choices=("4.1", "4.2"))
    p.add_argument("--max-param", type=int, default=8)
    add_metric(p)
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cut", help="classify a Cartan-slice point")
    p.add_argument("label")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    add_format(p)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("product", help="geometry of a product of spaces")
    p.add_argument("labels", nargs="+")
    add_metric(p)
    add_format(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="run oracles and table reproduction")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--max-param", type=int, default=12)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except geometry.NoCanonicalMetric as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (catalog.InvalidParams, catalog.MissingSatakeData, roots.InvalidRank,
            DimensionMismatch, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
