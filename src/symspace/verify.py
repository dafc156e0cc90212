"""Full verification: oracle suite plus table reproduction.

Table reproduction recomputes every classification row through the
geometry pipeline at eps = 1 and demands exact equality with the
closed-form column values; the oracle suite exercises the float
brute-force checks.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from .catalog import check_param_bound, enumerate_table
from .closedform import expected
from .oracle import OracleReport, standard_suite
from .reporting import report

# Largest simplex-oracle sample count, ten times the default.  The sample
# is drawn and checked a block of rows at a time, so this bounds time, not
# memory: a run peaks near 39 MB resident at any count, and takes about
# 2 s at the limit against 0.6 s at the default.
MAX_SAMPLES = 10 ** 6

# Highest rank of the classical families in the oracle suite; both pinned
# verify TSVs are drawn at this rank.
ORACLE_MAX_RANK = 8


def table_reports(which: str, param_bound: int) -> list[OracleReport]:
    out = []
    for entry in enumerate_table(which, param_bound):
        rep = report(entry)
        want = expected(entry.label)
        ok = (rep.psi_sq == want.psi_sq
              and rep.injectivity_radius.radicand == want.i_radicand
              and rep.diameter.radicand == want.d_radicand)
        exact = (f"psi={want.psi_sq};i=pi*sqrt({want.i_radicand});"
                 f"d=pi*sqrt({want.d_radicand})")
        got = (f"psi={rep.psi_sq};i={rep.injectivity_radius.exact_str()};"
               f"d={rep.diameter.exact_str()}")
        out.append(OracleReport(
            name=f"table{which} {entry.label}",
            exact=exact,
            numeric=0.0 if ok else 1.0,
            error=0.0 if ok else 1.0,
            passed=ok,
            note=got if not ok else "",
        ))
    return out


def run_all(seed: int, samples: int = 100_000, table_bound: int = 12) -> list[OracleReport]:
    if not 1000 <= samples <= MAX_SAMPLES:
        raise ValueError(f"need between 1000 and {MAX_SAMPLES} samples, got {samples}")
    check_param_bound(table_bound)
    reports = standard_suite(seed, samples=samples, max_rank=ORACLE_MAX_RANK)
    reports.extend(table_reports("4.1", table_bound))
    reports.extend(table_reports("4.2", table_bound))
    return reports
