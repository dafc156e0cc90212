import json
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from symspace.catalog import (MAX_LISTED_NODES, InvalidParams, MissingSatakeData,
                              NodeSet, SpaceLabel, enumerate_table, parse_label,
                              resolve, restriction_factor_crosscheck, to_json_dict)
from symspace.dynkin import kinds, parse_kind
from symspace.roots import MAX_RANK, RootKind, build, root_count

from reference import FORMER_ROOT_CAP, killing_delta_sq, perp_simple_indices_by_gram


def test_parse_label_grammar():
    assert str(parse_label("AI:n=4")) == "AI:n=4"
    assert str(parse_label("aiii:p=2,q=5")) == "AIII:p=2,q=5"
    assert str(parse_label("G")) == "G"
    assert str(parse_label("GROUP:e8")) == "GROUP:e8"
    for bad in ("XX:n=1", "AI", "AI:p=2", "AI:n=x", "GROUP", "GROUP:h3",
                "AIII:p=2", "G:n=2"):
        with pytest.raises(InvalidParams):
            parse_label(bad)
    # One sign and decimal digits only, as int() reads them.
    # int() reads at most L digits; past that the parameter is named.
    limit = sys.get_int_max_str_digits()
    for bad, message in (("AI:n=--5", "bad parameter 'n=--5'"),
                         ("AI:n=²", "bad parameter 'n=²'"),
                         ("GROUP:e⁸", "cannot parse root-system kind 'e⁸'"),
                         (f"AI:n={'1' * (limit + 700)}",
                          f"parameter n has more than {limit} digits"),
                         (f"AIII:p=1,q=-{'0' * limit}1",
                          f"parameter q has more than {limit} digits"),
                         (f"GROUP:a{'1' * (limit + 1)}",
                          f"the rank of a root-system kind has more than {limit} digits")):
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            parse_label(bad)
    assert parse_label(f"AIII:p=1,q={'9' * limit}").q == 10 ** limit - 1


@pytest.mark.parametrize("label", ["AI:n=4,n=5", "AII:n=3,n=3", "CI:n=2,N=3",
                                   "DIII:n=5,n=6", "AIII:q=5,p=2,p=3",
                                   "CII:p=1,q=2,q=3", "BDI:p=2,p=2,q=5"])
def test_parse_label_refuses_repeated_key(label):
    with pytest.raises(InvalidParams, match="given twice"):
        parse_label(label)


def test_parse_label_keys_in_any_order():
    assert parse_label("AIII:q=5,p=2") == parse_label("AIII:p=2,q=5")
    assert str(parse_label("BDI:Q=7, p=3")) == "BDI:p=3,q=7"


def test_resolve_ai4():
    e = resolve("AI:n=4")
    assert e.ambient == RootKind("a", 3)
    assert e.restricted == RootKind("a", 3)
    assert e.restriction_factor == 1
    assert e.psi_sq_killing == F(1, 4)
    assert e.name == "SU(4)/SO(4)"


def test_resolve_fii():
    e = resolve("FII")
    assert e.ambient == RootKind("f", 4)
    assert e.restricted == RootKind("bc", 1)
    assert e.restriction_factor == F(1, 2)
    assert e.psi_sq_killing == F(1, 18)


def test_resolve_group_e6():
    e = resolve("GROUP:e6")
    assert e.psi_sq_killing == F(1, 24)
    assert e.space_type == "II"
    assert e.name == "E6"


def test_group_rejects_bc():
    with pytest.raises(InvalidParams):
        resolve("GROUP:bc2")


def test_invalid_params_messages():
    for bad in ("AI:n=1", "AII:n=1", "BDI:p=2,q=2", "BDI:p=3,q=3",
                "BDI:p=1,q=1", "DIII:n=3", "CI:n=0", "AIII:p=3,q=2"):
        with pytest.raises(InvalidParams):
            resolve(bad)
    # Labels made in code, which the parser would have refused.
    for label, message in ((SpaceLabel("GROUP"), "GROUP needs a root-system kind"),
                           (SpaceLabel("AI"), "AI requires parameter n"),
                           (SpaceLabel("AIII", p=2), "AIII requires parameter q")):
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            resolve(label)


def test_restricted_case_analysis():
    assert resolve("AIII:p=2,q=5").restricted_name == "bc2"
    assert resolve("AIII:p=3,q=3").restricted_name == "c3"
    assert resolve("AIII:p=1,q=9").restricted_name == "bc1"
    assert resolve("AIII:p=1,q=1").restricted_name == "bc1"
    assert resolve("BDI:p=2,q=7").restricted_name == "b2"
    assert resolve("BDI:p=4,q=4").restricted_name == "d4"
    assert resolve("BDI:p=1,q=7").restricted_name == "a1"
    assert resolve("DIII:n=6").restricted_name == "c3"
    assert resolve("DIII:n=7").restricted_name == "bc3"
    # rank aliases resolve to buildable kinds
    assert resolve("AIII:p=2,q=2").restricted == RootKind("b", 2)
    assert resolve("DIII:n=4").restricted == RootKind("b", 2)
    assert resolve("CI:n=1").restricted == RootKind("a", 1)
    assert resolve("CI:n=2").restricted == RootKind("b", 2)


def test_ambient_map():
    assert resolve("AI:n=6").ambient == RootKind("a", 5)
    assert resolve("AII:n=3").ambient == RootKind("a", 5)
    assert resolve("AIII:p=2,q=5").ambient == RootKind("a", 6)
    assert resolve("CI:n=5").ambient == RootKind("c", 5)
    assert resolve("CII:p=2,q=3").ambient == RootKind("c", 5)
    assert resolve("DIII:n=5").ambient == RootKind("d", 5)
    # BDI parity: odd p+q -> b, even -> d
    assert resolve("BDI:p=2,q=5").ambient == RootKind("b", 3)
    assert resolve("BDI:p=4,q=4").ambient == RootKind("d", 4)
    assert resolve("BDI:p=2,q=4").ambient == RootKind("a", 3)  # d3 alias
    assert resolve("BDI:p=1,q=2").ambient == RootKind("a", 1)  # b1 alias


def test_psi_sq_closed_forms():
    for p in range(1, 13):
        for q in range(p, 13):
            assert resolve(SpaceLabel("AIII", p=p, q=q)).psi_sq_killing == F(1, p + q)
            assert resolve(SpaceLabel("CII", p=p, q=q)).psi_sq_killing == \
                F(1, 2 * (p + q + 1))
            if (p == 1 and q >= 2) or (2 <= p < q) or (4 <= p == q):
                want = F(1, 2 * q - 2) if p == 1 else F(1, p + q - 2)
                assert resolve(SpaceLabel("BDI", p=p, q=q)).psi_sq_killing == want
    for n in range(2, 13):
        assert resolve(SpaceLabel("AI", n=n)).psi_sq_killing == F(1, n)
        assert resolve(SpaceLabel("AII", n=n)).psi_sq_killing == F(1, 4 * n)
    for n in range(1, 13):
        assert resolve(SpaceLabel("CI", n=n)).psi_sq_killing == F(1, n + 1)
    for n in range(4, 13):
        assert resolve(SpaceLabel("DIII", n=n)).psi_sq_killing == F(1, 2 * n - 2)


def test_psi_sq_from_ambient_killing_form():
    # one source of truth: factor times the ambient highest-root length,
    # cross-checked here against enumerated Killing normalization
    labels = ["AI:n=5", "AII:n=4", "AIII:p=2,q=4", "CI:n=4", "CII:p=1,q=3",
              "BDI:p=2,q=5", "BDI:p=1,q=4", "BDI:p=4,q=4", "DIII:n=6",
              "EI", "EIV", "EVIII", "FII", "G"]
    for lab in labels:
        e = resolve(lab)
        assert e.psi_sq_killing == \
            e.restriction_factor * killing_delta_sq(build(e.ambient)), lab


def test_psi_sq_invariant_full_sweep():
    # every table entry whose ambient system is small enough to enumerate
    # its roots quickly
    checked = 0
    for which in ("4.1", "4.2"):
        for e in enumerate_table(which, 12):
            if root_count(e.ambient) > FORMER_ROOT_CAP:
                continue
            assert e.psi_sq_killing == \
                e.restriction_factor * killing_delta_sq(build(e.ambient)), e.label
            checked += 1
    assert checked > 300


def test_group_psi_is_half_ambient():
    for kind in ("a4", "b3", "c5", "d6", "e7", "g2"):
        e = resolve(f"GROUP:{kind}")
        assert e.psi_sq_killing == killing_delta_sq(build(e.ambient)) / 2


def test_restriction_factor_list():
    half = ["AII:n=2", "AII:n=7", "CII:p=1,q=1", "CII:p=3,q=3", "CII:p=2,q=6",
            "EIV", "FII", "BDI:p=1,q=3", "BDI:p=1,q=12"]
    one = ["AI:n=3", "AIII:p=2,q=2", "AIII:p=1,q=5", "CI:n=3", "BDI:p=2,q=3",
           "BDI:p=5,q=5", "BDI:p=1,q=2", "DIII:n=5", "EI", "EII", "EIII",
           "EV", "EVI", "EVII", "EVIII", "EIX", "FI", "G"]
    for lab in half:
        assert resolve(lab).restriction_factor == F(1, 2), lab
    for lab in one:
        assert resolve(lab).restriction_factor == 1, lab


def test_satake_crosscheck_examples():
    # a5 ambient with odd nodes black: alpha_1 black but not orthogonal to
    # the highest root, so the factor must be 1/2
    e = resolve("AII:n=3")
    assert set(e.satake_black_nodes) == {1, 3, 5}
    assert restriction_factor_crosscheck(e)
    e = resolve("AI:n=5")
    assert set(e.satake_black_nodes) == set()
    assert restriction_factor_crosscheck(e)
    assert restriction_factor_crosscheck(resolve("EIV"))


def test_satake_crosscheck_sweep():
    past_cap = 0
    for entry in enumerate_table("4.1", 24):
        if entry.satake_black_nodes is None or entry.ambient.rank > MAX_RANK:
            continue
        assert restriction_factor_crosscheck(entry), str(entry.label)
        past_cap += root_count(entry.ambient) > FORMER_ROOT_CAP
    assert past_cap > 0


def test_black_nodes_match_set_criterion():
    # Each black-node set lists its nodes once, in order, with the size its
    # ranges give; the range cross-check answers as the subset test does.
    checked = 0
    for entry in enumerate_table("4.1", 24):
        black = entry.satake_black_nodes
        if black is None:
            continue
        nodes = list(black)
        assert nodes == sorted(set(nodes)) and len(nodes) == black.size, str(entry.label)
        assert all(i in black for i in nodes) and 0 not in black
        assert len(black.ranges) <= 2 and bool(black) == bool(nodes)
        if entry.ambient.rank <= MAX_RANK:
            perp = {i + 1 for i in perp_simple_indices_by_gram(build(entry.ambient))}
            want = (set(nodes) <= perp) == (entry.restriction_factor == 1)
            assert restriction_factor_crosscheck(entry) == want, str(entry.label)
            checked += 1
    assert checked > 900


BIG = 10 ** 100


@pytest.mark.parametrize("label,size,inside,outside", [
    (SpaceLabel("AIII", p=3, q=BIG), BIG - 4, BIG - 1, BIG),
    (SpaceLabel("CII", p=3, q=BIG), BIG, 5, 6),
    (SpaceLabel("BDI", p=2, q=BIG + 1), BIG // 2 - 1, BIG // 2 + 1, 2),
    (SpaceLabel("AII", n=129), 129, 257, 256),
], ids=["AIII", "CII", "BDI", "AII"])
def test_black_nodes_cost_nothing_per_node(label, size, inside, outside):
    black = resolve(label).satake_black_nodes
    assert black.size == size
    assert inside in black and outside not in black
    assert black == NodeSet(*black.ranges) and hash(black) == hash(NodeSet(*black.ranges))


def test_entry_json_black_node_limit():
    entry = resolve(f"CII:p=1,q={MAX_LISTED_NODES}")
    nodes = to_json_dict(entry)["satake_black_nodes"]
    assert list(nodes) == [1, *range(3, MAX_LISTED_NODES + 2)]
    with pytest.raises(InvalidParams, match="exceed the JSON limit of 1000000"):
        to_json_dict(resolve(f"CII:p=1,q={MAX_LISTED_NODES + 1}"))


@pytest.mark.parametrize("label", ["AIII:p=20,q=30", "CII:p=10,q=20",
                                   "BDI:p=10,q=31", "AII:n=100", "AIII:p=1,q=200",
                                   f"CII:p=2,q={BIG}", "BDI:p=2,q=301"])
def test_satake_crosscheck_past_root_cap(label):
    # Ambient systems past the former 500-root cap, the last four past
    # MAX_RANK, where none can be built: the check reads only the kind.
    entry = resolve(label)
    assert root_count(entry.ambient) > FORMER_ROOT_CAP
    assert restriction_factor_crosscheck(entry)


@pytest.mark.parametrize("label,restricted", [
    ("AI:n=201", "a200"), ("AII:n=130", "a129"), ("AIII:p=200,q=300", "bc200"),
    ("CI:n=129", "c129"), ("CII:p=129,q=129", "c129"), ("BDI:p=200,q=300", "b200"),
    ("DIII:n=300", "c150"),
])
def test_resolve_past_rank_limit(label, restricted):
    # The rank limit is the Gram tree's, not the catalog's: every label the
    # grammar accepts resolves, and the Satake check reads only the kinds.
    entry = resolve(label)
    assert entry.restricted == parse_kind(restricted)
    assert entry.restricted.rank > MAX_RANK
    assert restriction_factor_crosscheck(entry)


def test_crosscheck_missing_data():
    with pytest.raises(MissingSatakeData):
        restriction_factor_crosscheck(resolve("GROUP:e8"))
    with pytest.raises(MissingSatakeData):
        restriction_factor_crosscheck(resolve("BDI:p=1,q=3"))


def test_enumerate_table_42():
    entries = list(enumerate_table("4.2", 4))
    labels = {str(e.label) for e in entries}
    assert "GROUP:a3" in labels          # SU(4)
    assert "GROUP:c3" in labels          # Sp(3)
    assert "GROUP:d4" in labels          # Spin(8)
    for exc in ("GROUP:e6", "GROUP:e7", "GROUP:e8", "GROUP:f4", "GROUP:g2"):
        assert exc in labels
    assert len(entries) == len(set(map(str, (e.label for e in entries))))


def test_enumerate_table_41():
    entries = list(enumerate_table("4.1", 2))
    labels = {str(e.label) for e in entries}
    assert "AIII:p=1,q=2" in labels
    assert resolve("AIII:p=1,q=2").restricted_name == "bc1"
    assert "FII" in labels               # exceptionals regardless of bound
    entries4 = list(enumerate_table("4.1", 4))
    assert any(str(e.label) == "BDI:p=4,q=4"
               and e.restricted_name == "d4" for e in entries4)
    # deterministic ordering
    assert [str(e.label) for e in entries4] == \
        [str(e.label) for e in enumerate_table("4.1", 4)]


def test_enumerate_table_bound_check():
    with pytest.raises(InvalidParams):
        enumerate_table("4.1", 0)
    with pytest.raises(InvalidParams):
        enumerate_table("9.9", 8)
    with pytest.raises(InvalidParams):
        enumerate_table("4.1", 129)


def test_canonical_epsilon_only_bdi():
    assert resolve("BDI:p=2,q=5").canonical_epsilon == F(1, 10)
    assert resolve("AI:n=4").canonical_epsilon is None
    assert resolve("GROUP:g2").canonical_epsilon is None


def test_entry_json():
    d = to_json_dict(resolve("BDI:p=2,q=4"))
    assert d["ambient"] == "d3"
    assert d["ambient_built"] == "a3"
    assert d["restriction_factor"] == "1"
    assert d["psi_sq_killing"] == "1/4"
    assert d["canonical_epsilon"] == "1/8"


@pytest.mark.parametrize("label", ["CII:p=2,q=5", "EIV", "BDI:p=2,q=4"])
def test_entry_json_nodes_encode_as_their_list(label):
    # The black nodes are drawn from their ranges as they are encoded, with
    # or without an indent, and read as the sorted list of the nodes.
    d = to_json_dict(resolve(label))
    nodes = sorted(resolve(label).satake_black_nodes)
    assert list(d["satake_black_nodes"]) == nodes and len(d["satake_black_nodes"]) == len(nodes)
    for indent in (None, 2):
        assert json.dumps(d, indent=indent) == json.dumps({**d, "satake_black_nodes": nodes},
                                                          indent=indent)


BOUNDS = [1, 2, 3, 4, 5, 12, 40, 128]


@pytest.mark.parametrize("b", BOUNDS)
def test_enumerate_table_41_counts(b):
    tri = b * (b + 1) // 2
    want = {"AI": b - 1, "AII": b - 1, "AIII": tri, "CI": b, "CII": tri,
            "BDI": tri - min(b, 3), "DIII": max(0, b - 3)}
    want = {s: n for s, n in want.items() if n}
    want.update(dict.fromkeys(["EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII",
                               "EVIII", "EIX", "FI", "FII", "G"], 1))
    entries = list(enumerate_table("4.1", b))
    assert Counter(e.label.series for e in entries) == want
    assert len({e.label for e in entries}) == len(entries)


@pytest.mark.parametrize("b", BOUNDS)
def test_enumerate_table_42_counts(b):
    entries = list(enumerate_table("4.2", b))
    want = {"a": b, "b": b - 1, "c": b - 2, "d": b - 3, "e": 3, "f": 1, "g": 1}
    assert Counter(e.label.kind.family for e in entries) == \
        {f: n for f, n in want.items() if n > 0}
    assert len({e.label for e in entries}) == len(entries)


def test_kinds_are_table_42_groups():
    # dynkin.kinds is the one list of kinds: table 4.2's GROUP rows, in
    # order, at every bound, and each family from its least rank.
    exceptional = [RootKind("e", 6), RootKind("e", 7), RootKind("e", 8),
                   RootKind("f", 4), RootKind("g", 2)]
    for b in range(1, MAX_RANK + 1):
        got = kinds(("a", "b", "c", "d"), b)
        assert got == [e.label.kind for e in enumerate_table("4.2", b)], b
        assert got == [RootKind(fam, l) for fam, lo in (("a", 1), ("b", 2), ("c", 3), ("d", 4))
                       for l in range(lo, b + 1)] + exceptional, b


def test_table_command_resolves_each_label_once(monkeypatch, capsys):
    from symspace import catalog, cli, geometry
    calls = Counter()
    real = catalog.resolve

    def counting(label):
        entry = real(label)
        calls[entry.label] += 1
        return entry

    monkeypatch.setattr(catalog, "resolve", counting)
    monkeypatch.setattr(geometry, "resolve", counting)
    assert cli.main(["table", "4.1", "--max-param", "12"]) == 0
    capsys.readouterr()
    assert len(calls) == 286
    assert max(calls.values()) == 1


def test_table_41_walk_refuses_few_labels(monkeypatch):
    # The walk tries p <= q only, so at the largest bound at most 8 labels
    # end in InvalidParams (the low-rank exclusions), not one per p > q.
    from symspace import catalog
    refused = Counter()
    real = catalog.resolve

    def counting(label):
        try:
            return real(label)
        except InvalidParams:
            refused[label] += 1
            raise

    monkeypatch.setattr(catalog, "resolve", counting)
    rows = sum(1 for _ in enumerate_table("4.1", MAX_RANK))
    assert rows == 25_284
    assert sum(refused.values()) <= 8, list(refused)[:20]
