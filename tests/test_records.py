"""The value types are immutable named tuples with value equality."""

from fractions import Fraction as F
from pathlib import Path

import pytest

from symspace.catalog import parse_label, resolve
from symspace.closedform import expected
from symspace.geometry import MetricSpec, cut_details, report
from symspace.killing import killing_data
from symspace.linalg import NegativeFactor, PiSqrtValue
from symspace.oracle import OracleReport
from symspace.polytope import build_polytope
from symspace.roots import InvalidRank, RootKind, build

RECORDS = {
    "SpaceLabel": lambda: parse_label("AIII:p=2,q=5"),
    "SpaceEntry": lambda: resolve("AIII:p=2,q=5"),
    "RowValues": lambda: expected(parse_label("AIII:p=2,q=5")),
    "MetricSpec": lambda: MetricSpec.ricci(F(3, 7)),
    "GeometryReport": lambda: report("AIII:p=2,q=5"),
    "CutDetails": lambda: cut_details("AI:n=3", (0, 3)),
    "KillingData": lambda: killing_data(RootKind("d", 5)),
    "PiSqrtValue": lambda: PiSqrtValue(F(4, 6)),
    "OracleReport": lambda: OracleReport("check", "1/2", 0.5, 0.0, True),
    "CartanPolytope": lambda: build_polytope(build("bc3")),
    "RootKind": lambda: RootKind("E", 8),
    "RootSystem": lambda: build("f4"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_root_system_has_no_new_attributes():
    rs = build("g2")
    rs.kernel_data                   # a cached property fills the instance dict
    for attr in ("extra", "roots", "int_gram"):
        with pytest.raises(AttributeError):
            setattr(rs, attr, None)
    with pytest.raises(AttributeError):
        del rs.kernel_data
    assert rs.kernel_data is rs.kernel_data


def test_public_names_resolve():
    import symspace
    missing = [name for name in symspace.__all__ if not hasattr(symspace, name)]
    assert missing == []
    assert len(set(symspace.__all__)) == len(symspace.__all__)


def test_readme_library_example_runs():
    # The python block under README's "## Library" runs as written.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md, Library", "exec"), {})


def test_replace_validates():
    assert RootKind("a", 3)._replace(family="E", rank=6) == RootKind("e", 6)
    with pytest.raises(InvalidRank):
        RootKind("a", 3)._replace(rank=0)
    assert PiSqrtValue(1)._replace(radicand=2).radicand == F(2)
    with pytest.raises(NegativeFactor):
        PiSqrtValue(1)._replace(radicand=-1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == b and hash(a) == hash(b)
    assert a == tuple(b)             # named tuples: unpackable, equal to tuples
