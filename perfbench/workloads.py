"""Seeded op streams for the three benchmark workloads.

Every stream is cut into blocks of fixed composition; only the parameters
inside a block are random.  Block ``b`` of workload ``w`` draws from its own
``random.Random(f"{w}:{seed}:{b}")``, so any prefix of a stream is the same
for a given seed, however many blocks a run consumes, and the cost mix of a
run does not swing with the seed.

An op is either a CLI command (``Op.argv`` is the argument list after
``symspace``) or an in-process slice predicate call (``Op.argv`` is
``(predicate, label)`` and ``Op.point`` the slice point).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from symspace import catalog, closedform, polytope, roots

FORMATS = ("text", "json", "tsv", "markdown")

# Largest rank whose reflection closure stays within the seed's 500-root cap.
IN_CAP = {"a": 21, "b": 15, "c": 15, "d": 16, "bc": 15}
HIGH_FAMILIES = ("a", "b", "c", "d", "bc")
MAX_HIGH_RANK = 40

SLICE_LABELS = ("EVIII", "EIX", "EVII", "GROUP:e7", "BDI:p=6,q=9",
                "AIII:p=5,q=8", "G", "FII")
SLICE_PREDICATES = ("cut_classify", "is_conjugate", "cut_details")
POINT_MODES = ("random", "cut-face", "conjugate")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    point: tuple[Fraction, ...] | None = None
    expect: str | None = None                # "cut-face" or "conjugate" when constructed
    word: tuple[int, ...] = ()               # reflection word the checker applies

    @property
    def label(self) -> str:
        """The command and its positional arguments; failures are listed by it."""
        return " ".join(itertools.takewhile(lambda a: not a.startswith("--"), self.argv))


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _rational(rng: random.Random) -> str:
    """A positive rational flag value such as "9/7"."""
    return str(Fraction(rng.randint(1, 9), rng.randint(1, 7)))


# -- labels ----------------------------------------------------------------

MIN_RANK = {"a": 1, "b": 2, "c": 3, "d": 4, "bc": 1}
EXCEPTIONAL = ("EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX",
               "FI", "FII", "G", "GROUP:e6", "GROUP:e7", "GROUP:e8", "GROUP:f4",
               "GROUP:g2")


def label_for_kind(rng: random.Random, fam: str, r: int) -> str:
    """A label whose restricted root system is ``fam`` of rank ``r``."""
    q = r + rng.randint(1, 8)
    choices = {
        "a": [f"AI:n={r + 1}", f"AII:n={r + 1}", f"GROUP:a{r}"],
        "b": [f"BDI:p={r},q={q}", f"GROUP:b{r}"],
        "c": [f"CI:n={r}", f"DIII:n={2 * r}", f"AIII:p={r},q={r}",
              f"CII:p={r},q={r}", f"GROUP:c{r}"],
        "d": [f"BDI:p={r},q={r}", f"GROUP:d{r}"],
        "bc": [f"AIII:p={r},q={q}", f"CII:p={r},q={q}"] + ([f"DIII:n={2 * r + 1}"]
                                                           if r >= 2 else []),
    }[fam]
    return rng.choice(choices)


def family_label(rng: random.Random, fam: str) -> tuple[str, str]:
    """(label, root-system kind) of family ``fam`` ("exc": an exceptional row)
    and restricted rank at most 12."""
    if fam == "exc":
        label = rng.choice(EXCEPTIONAL)
        return label, str(restricted_kind(label))
    r = rng.randint(MIN_RANK[fam], 12)
    return label_for_kind(rng, fam, r), f"{fam}{r}"


def restricted_kind(label: str) -> roots.RootKind:
    return catalog.resolve(label).restricted


# -- points ----------------------------------------------------------------

def reflect(cartan, x: list[Fraction], i: int) -> None:
    """Simple reflection s_i on simple-root coordinates, from the Cartan matrix."""
    x[i] -= sum(x[j] * cartan[j][i] for j in range(len(x)))


def random_word(rng: random.Random, rank: int) -> tuple[int, ...]:
    """3 to 12 simple-reflection indices, no index twice in a row."""
    word: list[int] = []
    for _ in range(rng.randint(3, 12)):
        nxt = rng.randrange(rank)
        if rank > 1:
            while word and nxt == word[-1]:
                nxt = rng.randrange(rank)
        word.append(nxt)
    return tuple(word)


def slice_point(rng: random.Random, label: str, mode: str,
                vertices=None) -> tuple[Fraction, ...]:
    """A Killing-unit slice point of ``label``, moved off the dominant chamber
    by a random Weyl word (it can land back in it).

    "cut-face" points satisfy (h, psi) = 1 before reflection, "conjugate"
    points pair to a nonzero integer with a root; both facts survive the
    random Weyl word applied at the end.  ``vertices`` (the polytope's
    e_j) widen the constructions beyond multiples of psi.
    """
    kind = restricted_kind(label)
    psi = roots.highest_root_coeffs(kind)
    psi_sq = closedform.expected(catalog.parse_label(label)).psi_sq
    l = kind.rank
    if mode == "random":
        spread = psi_sq * sum(psi)
        h = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) / spread for _ in range(l)]
    elif mode == "cut-face":
        if vertices and rng.random() < 0.75:
            picks = rng.sample(range(l), min(l, rng.randint(1, 3)))
            weights = [Fraction(rng.randint(1, 5)) for _ in picks]
            total = sum(weights)
            h = [sum(w / total * vertices[j][k] for w, j in zip(weights, picks)) / psi_sq
                 for k in range(l)]
        else:
            h = [Fraction(d) / psi_sq for d in psi]
    else:
        if vertices and rng.random() < 0.5:
            j = rng.randrange(l)
            h = [psi[j] * c / psi_sq for c in vertices[j]]
        else:
            t = rng.randint(1, 3)
            h = [Fraction(t * d) / psi_sq for d in psi]
    cartan = roots.cartan_matrix(kind)
    for i in random_word(rng, l):
        reflect(cartan, h, i)
    return tuple(h)


def point_arg(point) -> str:
    return ",".join(str(c) for c in point)


# -- cli-queries -----------------------------------------------------------

def _metric_flags(rng: random.Random, labels: list[str]) -> list[str]:
    pick = rng.randrange(4)
    if pick == 1:
        return ["--epsilon", _rational(rng)]
    if pick == 2:
        return ["--ric", _rational(rng)]
    if pick == 3 and all(lab.startswith("BDI:") for lab in labels):
        return ["--canonical"]
    return []


def _cli_op(rng: random.Random, command: str, label: str, kind: str) -> Op:
    fmt = ["--format", rng.choice(FORMATS)]
    if command == "space":
        return Op(("space", label, *_metric_flags(rng, [label]), *fmt))
    if command == "product":
        labels = [label] + [family_label(rng, rng.choice(NORMAL_FAMILIES))[0]
                            for _ in range(rng.randint(1, 2))]
        rng.shuffle(labels)
        return Op(("product", *labels, *_metric_flags(rng, labels), *fmt))
    if command == "rootsystem":
        return Op(("rootsystem", kind, *fmt))
    mode = rng.choice(POINT_MODES)
    point = slice_point(rng, label, mode)
    return Op(("cut", label, f"--point={point_arg(point)}", *fmt), point,
              expect=None if mode == "random" else mode,
              word=random_word(rng, len(point)))


NORMAL_COMMANDS = ("space", "space", "space", "space", "cut", "cut", "product", "rootsystem")
NORMAL_FAMILIES = ("a", "a", "b", "c", "d", "bc", "exc", "exc")


def cli_queries_block(seed: int, block: int) -> list[Op]:
    """Eight ops of restricted rank <= 12 and two of rank 13-40.

    The eight cover a fixed mix of commands and root-system families, paired
    at random; series, ranks, flags and points are random.  One high-rank
    op stays within the 500-root closure cap, cycling through the families
    block by block; the other is over the cap, which the seed commit fails
    with exit 1.
    """
    rng = _rng("cli-queries", seed, block)
    families = list(NORMAL_FAMILIES)
    rng.shuffle(families)
    ops = [_cli_op(rng, command, *family_label(rng, fam))
           for command, fam in zip(NORMAL_COMMANDS, families)]
    in_cap = HIGH_FAMILIES[block % len(HIGH_FAMILIES)]
    over_cap = rng.choice(HIGH_FAMILIES)
    for fam, lo, hi in ((in_cap, 13, IN_CAP[in_cap]),
                        (over_cap, IN_CAP[over_cap] + 1, MAX_HIGH_RANK)):
        r = rng.randint(lo, hi)
        command = rng.choice(("space", "cut", "product", "rootsystem"))
        ops.append(_cli_op(rng, command, label_for_kind(rng, fam, r), f"{fam}{r}"))
    rng.shuffle(ops)
    return ops


# -- table-regen -----------------------------------------------------------

TABLE_METRICS = ("none", "epsilon", "ric")


def table_regen_block(seed: int, block: int) -> list[Op]:
    """Six ``table 4.1`` and two ``table 4.2`` at ``--max-param 12``, and
    ``verify --seed <seed>`` with default samples and bound.

    The 3:1 mix keeps the median inside the 4.1 cluster, and eight tables
    per verify keep enough 4.1 samples in a run for a steady median; format
    and metric flag rotate with the seed and the op index.  Every block
    repeats the same ``verify`` seed, so its TSV can be compared byte for
    byte.
    """
    rng = _rng("table-regen", seed, block)
    ops = []
    for i, which in enumerate(("4.1",) * 6 + ("4.2",) * 2):
        metric = TABLE_METRICS[(seed + block + i) % len(TABLE_METRICS)]
        flags = [] if metric == "none" else [f"--{metric}", _rational(rng)]
        fmt = FORMATS[(seed + block + i) % len(FORMATS)]
        ops.append(Op(("table", which, "--max-param", "12", *flags, "--format", fmt)))
    ops.append(Op(("verify", "--seed", str(seed))))
    rng.shuffle(ops)
    return ops


# -- slice-predicates ------------------------------------------------------

def slice_vertices(label: str):
    """Polytope vertices of the label's restricted system, for point construction."""
    return polytope.build_polytope(roots.build(restricted_kind(label))).vertices


def slice_block(seed: int, block: int, vertices: dict) -> list[Op]:
    """Every (label, predicate) pair once, each with a fresh point.

    Each label gets each point mode once, in a random pairing with the
    predicates, so every pass has the same mix of random and constructed
    points and the pass cost does not swing with that mix.
    """
    rng = _rng("slice-predicates", seed, block)
    ops = []
    for label in SLICE_LABELS:
        for pred, mode in zip(SLICE_PREDICATES, rng.sample(POINT_MODES, len(POINT_MODES))):
            point = slice_point(rng, label, mode, vertices[label])
            ops.append(Op((pred, label), point,
                          expect=None if mode == "random" else mode,
                          word=random_word(rng, len(point))))
    rng.shuffle(ops)
    return ops


def stream(workload: str, seed: int, vertices: dict | None = None) -> Iterator[Op]:
    """The endless op stream of a workload, block by block."""
    for block in itertools.count():
        if workload == "cli-queries":
            yield from cli_queries_block(seed, block)
        elif workload == "table-regen":
            yield from table_regen_block(seed, block)
        elif workload == "slice-predicates":
            yield from slice_block(seed, block, vertices)
        else:
            raise ValueError(f"unknown workload {workload!r}")
