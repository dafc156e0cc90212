"""Correctness gate: every op's answer is checked, a wrong one is fatal.

Expected values come from ``symspace.closedform`` (per-row formulas that
share no code with the Gram-matrix pipeline) and from invariances the
program must respect: the product law, and Weyl invariance of the slice
predicates under a random word of ``polytope.reflect_simple``.  A check
raises ``WrongAnswer``; the caller turns that into ``"correct": false``
and a nonzero exit, never into a slow op.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from symspace import catalog, closedform, geometry, polytope, roots
from symspace.linalg import PiSqrtValue

from .workloads import Op


class WrongAnswer(AssertionError):
    """The program answered, and the answer is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# -- output parsing --------------------------------------------------------

def parse_rows(text: str, fmt: str) -> list[list[str]]:
    """Header plus data rows of a text, tsv or markdown table."""
    lines = text.rstrip("\n").split("\n")
    if fmt == "tsv":
        return [line.split("\t") for line in lines]
    if fmt == "markdown":
        return [[c.strip() for c in line.strip().strip("|").split("|")]
                for i, line in enumerate(lines) if i != 1]
    return [re.split(r" {2,}", line.rstrip()) for line in lines]


def parse_fields(text: str, fmt: str) -> dict:
    """A ``field value`` listing (or a JSON object) as a dict."""
    if fmt == "json":
        return json.loads(text)
    return {row[0]: row[1] for row in parse_rows(text, fmt)[1:]}


def _flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


# -- expected values -------------------------------------------------------

def expected_row(label: str, argv) -> dict:
    """Exact strings a report of ``label`` must show under the op's metric flags."""
    rv = closedform.expected(catalog.parse_label(label))
    if "--canonical" in argv:
        lab = catalog.parse_label(label)
        i_rad, d_rad = closedform.grassmannian_canonical(lab.p, lab.q)
        eps = i_rad / rv.i_radicand
        _require(eps * rv.d_radicand == d_rad, f"closed forms disagree on canonical {label}")
    else:
        eps = Fraction(_flag(argv, "--epsilon") or 1)
        ric = _flag(argv, "--ric")
        if ric is not None:
            eps = Fraction(1, 2) / Fraction(ric)
    return {
        "psi_sq": str(rv.psi_sq),
        "epsilon": str(eps),
        "ricci": str(Fraction(1, 2) / eps),
        "kappa": str(rv.psi_sq / eps),
        "i": PiSqrtValue(eps * rv.i_radicand),
        "d": PiSqrtValue(eps * rv.d_radicand),
    }


def _pi_json(v: PiSqrtValue) -> dict:
    return {"radicand": str(v.radicand), "exact": v.exact_str(), "decimal": v.decimal_str()}


def root_count(fam: str, l: int) -> int:
    """Classical root counts, kept apart from ``symspace.roots`` on purpose."""
    classical = {"a": l * (l + 1), "b": 2 * l * l, "c": 2 * l * l, "d": 2 * l * (l - 1),
                 "bc": 2 * l * l + 2 * l}
    if fam in classical:
        return classical[fam]
    return {("e", 6): 72, ("e", 7): 126, ("e", 8): 240, ("f", 4): 48, ("g", 2): 12}[(fam, l)]


# -- per-command checks ----------------------------------------------------

def check_space(op: Op, out: str) -> int:
    fmt = _flag(op.argv, "--format")
    want = expected_row(op.argv[1], op.argv)
    got = parse_fields(out, fmt)
    if fmt == "json":
        got_vals = {k: got[k] for k in ("psi_sq", "epsilon", "ricci", "kappa")}
        got_vals["i"], got_vals["d"] = got["injectivity_radius"], got["diameter"]
        label = got["space"]["label"]
        want_vals = {**want, "i": _pi_json(want["i"]), "d": _pi_json(want["d"])}
    else:
        got_vals = {"psi_sq": got["psi_sq (killing)"], "epsilon": got["epsilon"],
                    "ricci": got["ricci"], "kappa": got["kappa"],
                    "i": got["injectivity radius"], "d": got["diameter"]}
        label = got["label"]
        want_vals = {**want, "i": str(want["i"]), "d": str(want["d"])}
    _require(label == str(catalog.parse_label(op.argv[1])), f"label {label!r}")
    _require(got_vals == want_vals, f"{op.label}: got {got_vals}, want {want_vals}")
    return 1


def check_product(op: Op, out: str) -> int:
    fmt = _flag(op.argv, "--format")
    labels = op.label.split(" ")[1:]
    rows = [expected_row(lab, op.argv) for lab in labels]
    inj = min(r["i"] for r in rows)
    diam = PiSqrtValue(sum((r["d"].radicand for r in rows), Fraction(0)))
    got = parse_fields(out, fmt)
    factors = [str(catalog.parse_label(lab)) for lab in labels]
    if fmt == "json":
        ok = (got["factors"] == factors and got["injectivity_radius"] == _pi_json(inj)
              and got["diameter"] == _pi_json(diam))
    else:
        ok = (got["factors"] == " ".join(factors) and got["injectivity radius"] == str(inj)
              and got["diameter"] == str(diam))
    _require(ok, f"{op.label}: got {got}")
    return 1


def check_rootsystem(op: Op, out: str) -> int:
    fmt = _flag(op.argv, "--format")
    kind = roots.parse_kind(op.argv[1])
    fam, l = kind.family, kind.rank
    got = parse_fields(out, fmt)
    want = {"rank": str(l), "count": str(root_count(fam, l)), "i_sq": "1",
            "d_sq": str(closedform.d_sq_closed_form(fam, l))}
    if fmt == "json":
        vals = {"rank": str(got["rank"]), "count": str(got["root_count"]),
                "i_sq": got["polytope"]["i_sq"], "d_sq": got["polytope"]["d_sq"]}
        delta = got.get("killing", {}).get("delta_sq")
    else:
        vals = {"rank": got["rank"], "count": got["root count"],
                "i_sq": got["i_sq"], "d_sq": got["d_sq"]}
        delta = got.get("killing delta_sq")
    if kind.is_reduced:
        want["delta_sq"] = str(closedform.delta_sq_closed_form(fam, l))
        vals["delta_sq"] = delta
    _require(vals == want, f"rootsystem {kind}: got {vals}, want {want}")
    return 1


def check_table(op: Op, out: str) -> int:
    fmt = _flag(op.argv, "--format")
    entries = catalog.enumerate_table(op.argv[1], int(_flag(op.argv, "--max-param")))
    labels = [str(e.label) for e in entries]
    if fmt == "json":
        got = [(r["space"]["label"], r["psi_sq"], r["injectivity_radius"], r["diameter"])
               for r in json.loads(out)]
        want = []
        for lab in labels:
            w = expected_row(lab, op.argv)
            want.append((lab, w["psi_sq"], _pi_json(w["i"]), _pi_json(w["d"])))
    else:
        rows = parse_rows(out, fmt)
        _require(rows[0] == ["type", "space", "sigma", "psi_sq", "i", "i_dec", "d", "d_dec"],
                 f"table header {rows[0]}")
        got = [(r[0], r[3], r[4], r[5], r[6], r[7]) for r in rows[1:]]
        want = []
        for lab in labels:
            w = expected_row(lab, op.argv)
            want.append((lab, w["psi_sq"], w["i"].exact_str(), w["i"].decimal_str(),
                         w["d"].exact_str(), w["d"].decimal_str()))
    _require(len(got) == len(want), f"{op.label}: {len(got)} rows, want {len(want)}")
    for g, w in zip(got, want):
        _require(g == w, f"{op.label}: row {g} != {w}")
    return len(got)


class SliceChecker:
    """Weyl invariance and constructed-point checks for the slice predicates."""

    def __init__(self):
        self._systems: dict = {}

    def reflected(self, label: str, point, word) -> tuple[Fraction, ...]:
        kind = catalog.resolve(label).restricted
        if kind not in self._systems:
            self._systems[kind] = roots.build(kind)
        rs = self._systems[kind]
        for i in word:
            point = polytope.reflect_simple(rs, point, i)
        return tuple(point)

    def check(self, op: Op, pred: str, result: dict) -> None:
        """``result`` is ``normalise(pred, ...)`` of what ``pred`` returned at ``op.point``."""
        label = op.argv[1]
        other = self.reflected(label, op.point, op.word)
        again = normalise(pred, getattr(geometry, pred)(label, other))
        _require(result == again,
                 f"{pred} {label} {op.point}: {result} but {again} after word {op.word}")
        cls, conj = result.get("classification"), result.get("conjugate")
        if op.expect == "cut-face" and cls is not None:
            _require(cls == "on-cut-face", f"{label} {op.point}: cut-face point is {cls}")
        if op.expect == "conjugate" and conj is not None:
            _require(conj, f"{label} {op.point}: conjugate point not conjugate")

    def check_cut_output(self, op: Op, out: str) -> int:
        fmt = _flag(op.argv, "--format")
        got = parse_fields(out, fmt)
        if fmt != "json":
            got["dominant_representative"] = json.loads(got["dominant_representative"])
            got["conjugate"] = json.loads(got["conjugate"])
        self.check(op, "cut_details", normalise("cut_details", got))
        return 1


def normalise(pred: str, result) -> dict:
    """The comparable fields of a predicate result; the reflection count may differ.

    ``cut_details`` results are read by key or, failing that, by attribute."""
    if pred == "cut_classify":
        return {"classification": str(result)}
    if pred == "is_conjugate":
        return {"conjugate": bool(result)}

    def get(name):
        return result[name] if isinstance(result, dict) else getattr(result, name)

    return {"classification": str(get("classification")), "conjugate": bool(get("conjugate")),
            "dominant_representative": tuple(str(c) for c in get("dominant_representative"))}


def check_verify(out: str, first: str | None) -> int:
    """Exit 0 was already required; all checks passed and the TSV repeats."""
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    m = re.fullmatch(r"# (\d+)/(\d+) checks passed", last)
    _require(m is not None and m.group(1) == m.group(2), f"verify summary {last!r}")
    _require(first is None or out == first, "verify TSV differs on a repeated seed")
    return int(m.group(2))


def check_cli(op: Op, out: str, slices: SliceChecker) -> int:
    """Check one successful CLI op; returns the number of verified rows."""
    command = op.argv[0]
    if command == "space":
        return check_space(op, out)
    if command == "product":
        return check_product(op, out)
    if command == "rootsystem":
        return check_rootsystem(op, out)
    if command == "table":
        return check_table(op, out)
    if command == "cut":
        return slices.check_cut_output(op, out)
    raise ValueError(f"no checker for {command!r}")
