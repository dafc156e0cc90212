"""The error contract, fuzzed through ``cli.main``.

Every input the grammar can spell, well-formed or not, must end in exit
code 0, 2 (usage or parse error) or 3 (missing data), with no exception
escaping and no traceback, in under two seconds.  Exit 1 is reserved for
a failed ``verify``.

The two inputs whose work grows with a flag's value are drawn from ranges
that finish inside the time bound: ``--max-param`` of ``table``/``verify``
(a whole ``table 4.2 --max-param 128`` takes seconds; the report at every
rank up to MAX_RANK is covered by ``test_scaling``) and ``--samples`` of
``verify``.  Values past each limit are drawn too.  A label's parameters
no longer grow any work, so ``q`` is drawn up to Python's digit limit.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symspace.catalog import SERIES
from symspace.cli import FORMATS, main

TIME_BOUND_S = 2.0

_DIGITS = "0123456789"
integers = st.one_of(st.integers(-3, 140), st.integers(-10 ** 12, 10 ** 12),
                     st.sampled_from([129, 257, 10 ** 11, 2 ** 63]))
int_text = st.one_of(integers.map(str), st.just("1" + "0" * 5000),
                     st.text(alphabet=_DIGITS + "-+ _.e²/", min_size=0, max_size=8))

# Rationals as the CLI reads them: integers, p/q, decimals, exponents, junk.
rational_text = st.one_of(
    int_text,
    st.builds(lambda a, b: f"{a}/{b}", integers, integers),
    st.builds(lambda a, b, e: f"{a}.{abs(b)}e{e}", st.integers(-99, 99),
              st.integers(0, 999), st.one_of(st.integers(-20, 20),
                                             st.integers(-10 ** 9, 10 ** 9))),
    st.sampled_from(["0", "-1", "1/0", "nan", "inf", "-inf", "1e4300",
                     "1e-4300", "1e10000000", "1_000", " 2 ", "", "0x10"]),
)

family = st.one_of(st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "bc",
                                    "A", "BC", "E", "h", ""]),
                   st.text(alphabet="abcdefgh", max_size=3))
kind_text = st.builds(lambda f, r: f"{f}{r}", family, int_text)

param = st.builds(lambda k, sp, v: f"{k}{sp}={v}",
                  st.sampled_from(["n", "p", "q", "N", "P", " q", "x", ""]),
                  st.sampled_from(["", " "]), int_text)
series = st.one_of(st.sampled_from(SERIES), st.sampled_from(SERIES).map(str.lower),
                   st.text(max_size=6))
# Well-formed two-key labels with q up to the int-to-str digit limit: a
# black-node set costs nothing however large q is, and JSON, which lists
# it, refuses past its node limit (q >= 10**7 is past it in every series).
big_pq = st.builds(lambda s, p, q: f"{s}:p={p},q={q}",
                   st.sampled_from(["AIII", "CII", "BDI"]), st.integers(1, 140),
                   st.one_of(st.integers(1, 10 ** 4), st.integers(10 ** 7, 10 ** 4299)))
label = st.one_of(
    st.builds(lambda s, ps: s + (":" + ",".join(ps) if ps else ""),
              series, st.lists(param, max_size=4)),
    big_pq,
    st.builds(lambda s, k: f"{s}:{k}", st.sampled_from(["GROUP", "group"]), kind_text),
    st.text(max_size=20),
)

metric_flags = st.lists(st.one_of(
    st.builds(lambda v: ["--epsilon", v], rational_text),
    st.builds(lambda v: ["--ric", v], rational_text),
    st.just(["--canonical"]),
), max_size=2).map(lambda fl: [x for f in fl for x in f])
format_flag = st.one_of(st.just([]),
                        st.sampled_from(FORMATS + ("xml",)).map(lambda f: ["--format", f]))
point = st.lists(rational_text, min_size=0, max_size=6).map(",".join)
max_param = st.one_of(st.integers(-3, 24), st.sampled_from([129, 10 ** 12])).map(str)

argvs = st.one_of(
    st.builds(lambda k, f: ["rootsystem", k, *f], kind_text, format_flag),
    st.builds(lambda l, m, f: ["space", l, *m, *f], label, metric_flags, format_flag),
    st.builds(lambda w, mp, m, f: ["table", w, *mp, *m, *f],
              st.sampled_from(["4.1", "4.2", "4.3", ""]),
              st.one_of(st.just([]), max_param.map(lambda v: ["--max-param", v])),
              metric_flags, format_flag),
    st.builds(lambda l, p, f: ["cut", l, "--point", p, *f], label, point, format_flag),
    st.builds(lambda ls, m, f: ["product", *ls, *m, *f],
              st.lists(label, min_size=1, max_size=3), metric_flags, format_flag),
    st.builds(lambda s, n, mp: ["verify", "--seed", s, "--samples", n, "--max-param", mp],
              int_text,
              st.one_of(st.integers(-5, 20_000),
                        st.sampled_from([1_000_001, 10 ** 10])).map(str),
              max_param),
    st.lists(st.one_of(st.sampled_from(["space", "cut", "table", "--format", "-h",
                                        "--point", "verify", "--epsilon"]),
                       label), max_size=4),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:       # argparse: usage errors and --help
            code = e.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@given(argvs)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_input_exits_cleanly(argv):
    code, _, err, elapsed = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.startswith(("error: ", "usage: ")), (argv, err)
    assert elapsed < TIME_BOUND_S, (argv, elapsed)
