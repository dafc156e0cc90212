"""Classification catalog of compact simply connected symmetric spaces.

Each entry records the ambient root system, the restricted root system,
the restriction factor (the ratio of the squared Killing lengths of the
highest restricted root and the highest ambient root, 1 or 1/2), and the
squared Killing length of the highest restricted root.  Type II entries
(group manifolds) are labelled by their root system; their factor is
always 1/2.

The restriction factors are classification data; where the black-node set
of the involution's Satake diagram is embedded (standard Araki data,
translated to this package's node numbering) they are independently
cross-checkable: the factor is 1 exactly when every black node is
orthogonal to the highest root.  The check reads the ambient kind only:
like every report-path module, this one imports no ``roots``.

Low-rank coincidences (b1=a1, c2=b2, d3=a3) are resolved here through an
alias table; `ambient`/`restricted` always hold a canonical kind while
`ambient_name`/`restricted_name` keep the nominal classification label.
Every label the grammar accepts resolves, at any rank: the rank limit is
not the catalog's but ``dynkin.gram_tree``'s.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from typing import Iterator, NamedTuple

from .killing import canonical_kind, highest_root_neighbours, killing_data
from .linalg import format_rational
from .dynkin import MAX_RANK, InvalidRank, RootKind, kinds, parse_kind

HALF = Fraction(1, 2)
ONE = Fraction(1)

class InvalidParams(ValueError):
    """Raised when a space label violates its parameter constraints."""


class MissingSatakeData(LookupError):
    """Raised when a cross-check needs black-node data that is not embedded."""


class NodeSet:
    """A set of 1-based simple-root indices held as disjoint ranges in
    increasing order (at most two here), so it costs the same however many
    nodes it holds, and iterates its nodes sorted."""

    __slots__ = ("ranges",)

    def __init__(self, *ranges: range):
        self.ranges = tuple(filter(None, ranges))

    def __iter__(self):
        return chain.from_iterable(self.ranges)

    def __contains__(self, node) -> bool:
        return any(node in r for r in self.ranges)

    def __bool__(self) -> bool:
        return bool(self.ranges)

    @property
    def size(self) -> int:
        """The number of nodes, which ``len`` could not return past sys.maxsize."""
        return sum((r.stop - r.start + r.step - 1) // r.step for r in self.ranges)

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeSet) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(self.ranges)

    def __repr__(self) -> str:
        return f"NodeSet{self.ranges}"


# The most black nodes a JSON entry lists; one node is a line of output.
MAX_LISTED_NODES = 10 ** 6


class _NodeList(list):
    """A NodeSet's nodes as a JSON array.  ``json`` encodes a list by
    iterating it (the unindented encoder through a copy), so the nodes are
    made one at a time while they are written, not held: a million of them
    as a list of ints took 38 MB.  Its length is that of the sorted node
    list; its own list storage stays empty."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: NodeSet):
        self.nodes = nodes

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return self.nodes.size


class SpaceLabel(NamedTuple):
    series: str
    n: int | None = None
    p: int | None = None
    q: int | None = None
    kind: RootKind | None = None

    def __str__(self) -> str:
        if self.series == "GROUP":
            return f"GROUP:{self.kind}"
        if self.n is not None:
            return f"{self.series}:n={self.n}"
        if self.p is not None:
            return f"{self.series}:p={self.p},q={self.q}"
        return self.series


class SpaceEntry(NamedTuple):
    label: SpaceLabel
    name: str                     # manifold, e.g. "SU(4)/SO(4)" or "G_{2,5}(R)"
    space_type: str               # "I" or "II"
    ambient: RootKind             # canonical ambient kind (aliased if needed)
    ambient_name: str             # nominal ambient label
    restricted: RootKind          # canonical restricted kind
    restricted_name: str          # nominal restricted label
    restriction_factor: Fraction
    psi_sq_killing: Fraction      # squared Killing length of the highest restricted root
    satake_black_nodes: NodeSet | None
    canonical_epsilon: Fraction | None = None


def parse_label(text: str) -> SpaceLabel:
    """Parse "AI:n=4", "AIII:p=2,q=5", "G", "GROUP:e8"; each key once, in any order."""
    head, _, tail = text.strip().partition(":")
    series = head.strip().upper()
    if series not in SERIES:
        raise InvalidParams(f"unknown series {head.strip()!r}")
    if series == "GROUP":
        if not tail:
            raise InvalidParams("GROUP needs a root-system kind, e.g. GROUP:e8")
        try:
            return SpaceLabel(series="GROUP", kind=parse_kind(tail))
        except InvalidRank as e:
            raise InvalidParams(str(e)) from e
    pairs: dict[str, int] = {}
    limit = sys.get_int_max_str_digits()
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            key = key.strip().lower()
            digits = value.strip().removeprefix("-")
            if key not in ("n", "p", "q") or not digits.isdecimal():
                raise InvalidParams(f"bad parameter {item!r}")
            if key in pairs:
                raise InvalidParams(f"parameter {key} given twice in {text.strip()!r}")
            if limit and len(digits) > limit:
                raise InvalidParams(f"parameter {key} has more than {limit} digits")
            pairs[key] = int(value)
    want = _PARAMS.get(series, ())
    if set(pairs) != set(want):
        raise InvalidParams(f"{series} takes parameters {sorted(want)}, got {sorted(pairs)}")
    return SpaceLabel(series=series, n=pairs.get("n"), p=pairs.get("p"), q=pairs.get("q"))


# Parameter keys of each series that takes any, in table order.  The table
# walk tries each key from 1 to the bound, with p <= q for the two-key series
# (every one of them requires it), and keeps what ``resolve`` accepts.
_PARAMS = {"AI": ("n",), "AII": ("n",), "AIII": ("p", "q"), "CI": ("n",),
           "CII": ("p", "q"), "BDI": ("p", "q"), "DIII": ("n",)}

# A nominal root-system label as a (family, rank) pair, e.g. ("c", 2).
Nominal = tuple[str, int]
E6, E7, E8, F4, G2 = ("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)

# Fixed rows: ambient, restricted, factor, Satake black nodes, manifold name.
_EXCEPTIONAL_ROWS: dict[str, tuple[Nominal, Nominal, Fraction, NodeSet, str]] = {
    "EI":    (E6, E6, ONE, NodeSet(), "(e6, sp(4))"),
    "EII":   (E6, F4, ONE, NodeSet(), "(e6, su(6)+su(2))"),
    "EIII":  (E6, ("bc", 2), ONE, NodeSet(range(2, 5)), "(e6, so(10)+R)"),
    "EIV":   (E6, ("a", 2), HALF, NodeSet(range(2, 5), range(6, 7)), "(e6, f4)"),
    "EV":    (E7, E7, ONE, NodeSet(), "(e7, su(8))"),
    "EVI":   (E7, F4, ONE, NodeSet(range(1, 4, 2), range(7, 8)), "(e7, so(12)+su(2))"),
    "EVII":  (E7, ("c", 3), ONE, NodeSet(range(3, 6), range(7, 8)), "(e7, e6+R)"),
    "EVIII": (E8, E8, ONE, NodeSet(), "(e8, so(16))"),
    "EIX":   (E8, F4, ONE, NodeSet(range(4, 7), range(8, 9)), "(e8, e7+su(2))"),
    "FI":    (F4, F4, ONE, NodeSet(), "(f4, sp(3)+su(2))"),
    "FII":   (F4, ("bc", 1), HALF, NodeSet(range(1, 4)), "(f4, so(9))"),
    "G":     (G2, G2, ONE, NodeSet(), "(g2, su(2)+su(2))"),
}

SERIES = (*_PARAMS, *_EXCEPTIONAL_ROWS, "GROUP")

_GROUP_NAMES = {"a": lambda l: f"SU({l + 1})", "b": lambda l: f"Spin({2 * l + 1})",
                "c": lambda l: f"Sp({l})", "d": lambda l: f"Spin({2 * l})",
                "e": lambda l: f"E{l}", "f": lambda l: "F4", "g": lambda l: "G2"}


# A table visits a few dozen nominal pairs and ambient kinds; a label of
# any rank passes through these caches, which stay bounded.
@lru_cache(maxsize=1024)
def _nominal(family: str, rank: int) -> tuple[RootKind, str]:
    """(canonical kind, nominal label) of a nominal pair, e.g. (b2, "c2"):
    rank coincidences collapse."""
    # so(4) splits into two a1 ideals swapped by the involution; the halving
    # factor carries the whole reduction, so the buildable ambient is a
    # single a1 factor, and the black-node criterion (which presumes a
    # simple ambient) does not apply.
    kind = RootKind("a", 1) if (family, rank) == ("d", 2) else canonical_kind(family, rank)
    return kind, f"{family}{rank}"


@lru_cache(maxsize=1024)
def _psi_sq(ambient: RootKind, halving: int) -> Fraction:
    """psi_sq_killing for the restriction factor 1/halving (1 or 2)."""
    return killing_data(ambient).delta_sq / halving


def _entry(label, name, space_type, ambient_nominal: Nominal,
           restricted_nominal: Nominal, factor, satake, canonical_eps=None) -> SpaceEntry:
    ambient, ambient_name = _nominal(*ambient_nominal)
    restricted, restricted_name = _nominal(*restricted_nominal)
    return SpaceEntry(label, name, space_type, ambient, ambient_name, restricted,
                      restricted_name, factor, _psi_sq(ambient, factor.denominator),
                      satake, canonical_eps)


def resolve(label: SpaceLabel | str) -> SpaceEntry:
    """Resolve a space label into its catalog entry.  A name the label's
    parameters make too long to print (past ``sys.get_int_max_str_digits()``)
    is refused as InvalidParams."""
    if isinstance(label, str):
        label = parse_label(label)
    try:
        return _resolve(label)
    except ValueError as e:
        if type(e) is not ValueError:         # InvalidParams, InvalidRank
            raise
        raise long_label(label) from None     # str() of an int past the limit


def long_label(label: SpaceLabel) -> InvalidParams:
    """The refusal of a label whose parameters give a value too long to print:
    int() reads a parameter of up to L = ``sys.get_int_max_str_digits()``
    digits, but a name like a{p+q-1} or a value like psi_sq = 1/(p+q) can
    have one more."""
    return InvalidParams(f"{label.series}: a printed value exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits; the label's "
                         "parameters need fewer digits")


def _resolve(label: SpaceLabel) -> SpaceEntry:
    s = label.series

    if s == "GROUP":
        kind = label.kind
        if kind is None:
            raise InvalidParams("GROUP needs a root-system kind")
        if not kind.is_reduced:
            raise InvalidParams("group manifolds have reduced root systems; bc is not valid")
        return _entry(label, _GROUP_NAMES[kind.family](kind.rank), "II",
                      kind, kind, HALF, None)

    if s in _EXCEPTIONAL_ROWS:
        amb, restr, factor, satake, name = _EXCEPTIONAL_ROWS[s]
        return _entry(label, name, "I", amb, restr, factor, satake)

    if s == "AI":
        n = _need(label.n, "n", "AI")
        if n < 2:
            raise InvalidParams("AI requires n >= 2")
        return _entry(label, f"SU({n})/SO({n})", "I", ("a", n - 1),
                      ("a", n - 1), ONE, NodeSet())

    if s == "AII":
        n = _need(label.n, "n", "AII")
        if n < 2:
            raise InvalidParams("AII requires n >= 2")
        satake = NodeSet(range(1, 2 * n, 2))
        return _entry(label, f"SU({2 * n})/Sp({n})", "I", ("a", 2 * n - 1),
                      ("a", n - 1), HALF, satake)

    if s == "AIII":
        p, q = _need_pq(label, "AIII")
        satake = NodeSet(range(p + 1, q))
        return _entry(label, f"G_{{{p},{q}}}(C)", "I", ("a", p + q - 1),
                      ("bc" if p == 1 or p < q else "c", p), ONE, satake)

    if s == "CI":
        n = _need(label.n, "n", "CI")
        if n < 1:
            raise InvalidParams("CI requires n >= 1")
        return _entry(label, f"Sp({n})/U({n})", "I", ("c", n), ("c", n),
                      ONE, NodeSet())

    if s == "CII":
        p, q = _need_pq(label, "CII")
        satake = None
        if p + q >= 3:
            satake = NodeSet(range(1, 2 * p, 2), range(2 * p + 1, p + q + 1))
        return _entry(label, f"G_{{{p},{q}}}(H)", "I", ("c", p + q),
                      ("bc" if p == 1 or p < q else "c", p), HALF, satake)

    if s == "BDI":
        return _resolve_bdi(label)

    if s == "DIII":
        n = _need(label.n, "n", "DIII")
        if n < 4:
            raise InvalidParams("DIII requires n >= 4")
        satake = NodeSet(range(1, n, 2))        # the odd nodes below n
        return _entry(label, f"SO({2 * n})/U({n})", "I", ("d", n),
                      ("bc" if n % 2 else "c", n // 2), ONE, satake)

    raise InvalidParams(f"unknown series {s!r}")  # pragma: no cover


def _need(value, key, series) -> int:
    if value is None:
        raise InvalidParams(f"{series} requires parameter {key}")
    return value


def _need_pq(label, series) -> tuple[int, int]:
    p = _need(label.p, "p", series)
    q = _need(label.q, "q", series)
    if not 1 <= p <= q:
        raise InvalidParams(f"{series} requires 1 <= p <= q, got p={p}, q={q}")
    return p, q


def _resolve_bdi(label: SpaceLabel) -> SpaceEntry:
    p, q = _need_pq(label, "BDI")
    if p == 1 and q < 2:
        raise InvalidParams("BDI with p=1 requires q >= 2")
    if p == q and p < 4:
        raise InvalidParams("BDI with p=q requires p >= 4 "
                            "(p=q=2 splits as a product; p=q=3 is AI:n=4)")
    if p == 1:
        restr = ("a", 1)
        factor = HALF if q >= 3 else ONE
    else:
        restr = ("b" if p < q else "d", p)
        factor = ONE
    total = p + q
    if total % 2 == 1:
        m = (total - 1) // 2
        ambient = ("b", m)
        black = NodeSet(range(p + 1, m + 1))
        aliased = m < 2
    else:
        m = total // 2
        ambient = ("d", m)
        black = NodeSet(range(p + 1, m + 1)) if p <= m - 2 else NodeSet()
        aliased = m < 4
    if ambient == ("d", 2) or (black and aliased):
        black = None                  # no data for so(4) or aliased black nodes
    return _entry(label, f"G_{{{p},{q}}}(R)", "I", ambient, restr, factor,
                  black, Fraction(1, 2 * (p + q - 2)))


def restriction_factor_crosscheck(entry: SpaceEntry) -> bool:
    """Check the stored factor against the black-node criterion.

    The factor is 1 exactly when every black node of the Satake diagram is
    orthogonal to the highest ambient root, i.e. none is one of its
    ``highest_root_neighbours``; returns whether the embedded data agrees
    with the stored factor, for any entry ``resolve`` returns.
    """
    if entry.satake_black_nodes is None:
        raise MissingSatakeData(f"no black-node data for {entry.label}")
    meets = any(i in entry.satake_black_nodes for i in highest_root_neighbours(entry.ambient))
    return meets == (entry.restriction_factor != 1)


def check_param_bound(param_bound: int) -> None:
    """Raise InvalidParams unless 1 <= param_bound <= MAX_RANK."""
    if param_bound < 1:
        raise InvalidParams("param_bound must be >= 1")
    if param_bound > MAX_RANK:
        raise InvalidParams(f"param_bound must be <= {MAX_RANK}")


def enumerate_table(which: str, param_bound: int) -> Iterator[SpaceEntry]:
    """The rows of classification table "4.1" or "4.2" with parameters <=
    bound, resolved one at a time as they are read; the arguments are
    checked when this is called."""
    check_param_bound(param_bound)
    if which not in ("4.1", "4.2"):
        raise InvalidParams(f"unknown table {which!r}; use 4.1 or 4.2")
    if which == "4.2":
        return (resolve(SpaceLabel("GROUP", kind=kind))
                for kind in kinds(("a", "b", "c", "d"), param_bound))
    return _table_41_rows(param_bound)


def _table_41_rows(param_bound: int) -> Iterator[SpaceEntry]:
    for series in (*_PARAMS, *_EXCEPTIONAL_ROWS):
        keys = _PARAMS.get(series, ())
        # The label's fields are (series, n, p, q): p, q come after n's place.
        head = (series, None) if keys == ("p", "q") else (series,)
        for values in combinations_with_replacement(range(1, param_bound + 1), len(keys)):
            try:
                yield resolve(SpaceLabel(*head, *values))
            except InvalidParams:
                pass                  # outside the series' parameter domain


def to_json_dict(entry: SpaceEntry) -> dict:
    """The entry as JSON values; InvalidParams past MAX_LISTED_NODES black nodes."""
    black = entry.satake_black_nodes
    if black is not None and black.size > MAX_LISTED_NODES:
        raise InvalidParams(f"{entry.label}: {black.size} Satake black nodes exceed "
                            f"the JSON limit of {MAX_LISTED_NODES}")
    return {
        "label": str(entry.label),
        "name": entry.name,
        "type": entry.space_type,
        "ambient": entry.ambient_name,
        "ambient_built": str(entry.ambient),
        "restricted": entry.restricted_name,
        "restricted_built": str(entry.restricted),
        "restriction_factor": format_rational(entry.restriction_factor),
        "psi_sq_killing": format_rational(entry.psi_sq_killing),
        "satake_black_nodes": _NodeList(black) if black is not None else None,
        "canonical_epsilon": (format_rational(entry.canonical_epsilon)
                              if entry.canonical_epsilon is not None else None),
    }
