import ast
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import symspace
from symspace.catalog import parse_label, resolve
from symspace.cli import FORMATS, main
from symspace.closedform import d_sq_closed_form, delta_sq_closed_form, expected
from symspace.dynkin import parse_kind
from symspace.roots import RootKind, RootSystem, build

from reference import epsilon_conjugate, epsilon_simple_roots
from test_slice_kernel import _space_label

SRC = str(Path(symspace.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rootsystem_f4(capsys):
    code, out, _ = run(capsys, "rootsystem", "f4")
    assert code == 0
    assert "2 3 4 2" in out
    assert "d_sq" in out and "2" in out


def test_rootsystem_bc3(capsys):
    code, out, _ = run(capsys, "rootsystem", "bc3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["root_count"] == 24
    assert data["highest_root"] == [2, 2, 2]


def test_rootsystem_bad_kind(capsys):
    code, _, err = run(capsys, "rootsystem", "q9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["a129"])
def test_rootsystem_refuses_before_polytope_solve(monkeypatch, capsys, kind):
    from symspace import polytope
    calls = []
    solve = polytope.build_polytope
    monkeypatch.setattr(polytope, "build_polytope", lambda rs: calls.append(rs) or solve(rs))
    code, _, err = run(capsys, "rootsystem", kind)
    assert code == 2 and "exceeds the limit" in err
    assert calls == []


@pytest.mark.parametrize("fmt", ["text", "markdown", "tsv"])
def test_rootsystem_formats_only_what_it_prints(monkeypatch, capsys, fmt):
    # Only JSON lists every vertex and the Killing data's fields; the other
    # formats print their rows without formatting either, and form no vertex.
    from symspace import killing, polytope

    def unused(_):
        raise AssertionError("formatted for JSON only")

    monkeypatch.setattr(polytope, "to_json_dict", unused)
    monkeypatch.setattr(killing, "to_json_dict", unused)
    monkeypatch.setattr(polytope.CartanPolytope, "vertices", property(unused))
    for kind in ("a40", "a128"):
        code, out, err = run(capsys, "rootsystem", kind, "--format", fmt)
        assert (code, err) == (0, "")
        assert "killing delta_sq" in out


# Classical root counts, written out here apart from dynkin.root_count.
PAST_ROOT_CAP = {"a40": 40 * 41, "bc40": 2 * 40 * 40 + 2 * 40, "d64": 2 * 64 * 63,
                 "c128": 2 * 128 * 128}


@pytest.mark.parametrize("kind", sorted(PAST_ROOT_CAP))
def test_rootsystem_past_root_cap_matches_closedform(capsys, kind):
    # Past the former 500-root cap: the counts are the closed forms, and
    # d_sq and delta_sq agree with closedform's (no root is enumerated:
    # test_classical_commands_enumerate_no_roots).
    k = parse_kind(kind)
    want = {"root count": str(PAST_ROOT_CAP[kind]),
            "indivisible roots": str(PAST_ROOT_CAP[kind] - 2 * k.rank * (k.family == "bc")),
            "d_sq": str(d_sq_closed_form(k.family, k.rank))}
    if k.is_reduced:
        want["killing delta_sq"] = str(delta_sq_closed_form(k.family, k.rank))
    code, out, _ = run(capsys, "rootsystem", kind, "--format", "json")
    assert code == 0
    data = json.loads(out)
    got = {"root count": str(data["root_count"]),
           "indivisible roots": str(data["indivisible_count"]),
           "d_sq": data["polytope"]["d_sq"]}
    if k.is_reduced:
        got["killing delta_sq"] = data["killing"]["delta_sq"]
    assert got == want
    code, out, _ = run(capsys, "rootsystem", kind)
    assert code == 0
    rows = dict(re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in out.splitlines())
    assert {field: rows[field] for field in want} == want


def test_space_ai4(capsys):
    code, out, _ = run(capsys, "space", "AI:n=4")
    assert code == 0
    assert "pi*sqrt(4)" in out and "pi*sqrt(8)" in out


def test_space_canonical(capsys):
    code, out, _ = run(capsys, "space", "BDI:p=2,q=5", "--canonical")
    assert code == 0
    assert "pi*sqrt(1/2)" in out


def test_space_group_e7(capsys):
    code, out, _ = run(capsys, "space", "GROUP:e7")
    assert code == 0
    assert "pi*sqrt(36)" in out


def test_space_no_canonical_metric(capsys):
    code, _, err = run(capsys, "space", "AI:n=4", "--canonical")
    assert code == 3
    assert "canonical" in err


def test_space_conflicting_metric_flags(capsys):
    code, _, err = run(capsys, "space", "AI:n=4", "--epsilon", "1", "--ric", "2")
    assert code == 2


def test_space_bad_label(capsys):
    code, _, err = run(capsys, "space", "AI:n=1")
    assert code == 2


def test_table_42_tsv(capsys):
    code, out, _ = run(capsys, "table", "4.2", "--max-param", "4",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    spin8 = [ln for ln in lines if "Spin(8)" in ln]
    assert spin8 and "pi*sqrt(12)" in spin8[0]


def test_table_41_small_bound(capsys):
    code, out, _ = run(capsys, "table", "4.1", "--max-param", "2",
                       "--format", "tsv")
    assert code == 0
    assert "FII" in out and "pi*sqrt(18)" in out
    assert "AIII:p=1,q=2" in out and "bc1" in out


@pytest.mark.parametrize("fmt", FORMATS)
def test_table_prints_nothing_when_a_later_row_fails(monkeypatch, capsys, fmt):
    from symspace import reporting
    real = reporting.report
    calls = []

    def report(entry, metric):
        calls.append(entry)
        if len(calls) == 5:
            raise reporting.NoCanonicalMetric("no canonical metric preset for row 5")
        return real(entry, metric)

    monkeypatch.setattr(reporting, "report", report)
    code, out, err = run(capsys, "table", "4.1", "--max-param", "4", "--format", fmt)
    assert (code, out, err) == (3, "", "error: no canonical metric preset for row 5\n")
    assert len(calls) == 5


def test_table_json_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "4.2", "--max-param", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2) == out.strip()


def test_cut_interior(capsys):
    code, out, _ = run(capsys, "cut", "AI:n=3", "--point", "0,0")
    assert code == 0
    assert "interior" in out


def test_cut_face_point(capsys):
    # psi/(psi,psi) in Killing units for AI:n=3 (psi_sq = 1/3): coeffs 3,3
    code, out, _ = run(capsys, "cut", "AI:n=3", "--point", "3,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "on-cut-face"
    assert data["conjugate"] is True


def test_cut_reduction_first(capsys):
    code, out, _ = run(capsys, "cut", "AI:n=3", "--point", "0,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    # (0,3) = s_1(3,3); reduction recovers the dominant face point
    assert data["dominant_representative"] == ["3", "3"]
    assert data["classification"] == "on-cut-face"


def test_cut_bad_point(capsys):
    code, _, err = run(capsys, "cut", "AI:n=3", "--point", "1,2,3")
    assert code == 2


@pytest.mark.parametrize("label", ["AIII:p=1,q=1000", "GROUP:e8", "BDI:p=6,q=9"])
def test_cut_resolves_label_once(monkeypatch, capsys, label):
    # cut_details takes the entry cmd_cut resolved, so the label (and its
    # black-node set) is resolved once per command, cached or not.
    from symspace import catalog, geometry
    calls = []
    real = catalog.resolve

    def counting(lab):
        calls.append(lab)
        return real(lab)

    monkeypatch.setattr(catalog, "resolve", counting)
    monkeypatch.setattr(geometry, "resolve", counting)
    geometry._slice_data.cache_clear()
    rank = real(label).restricted.rank
    point = ",".join(f"{i - 2}/3" for i in range(rank))
    for fmt in ("text", "json"):
        calls.clear()
        code, out, _ = run(capsys, "cut", label, f"--point={point}", "--format", fmt)
        assert code == 0 and "classification" in out
        assert calls == [label]


def test_cut_bad_label_reported_before_bad_point(capsys):
    code, _, want = run(capsys, "space", "XX:n=3")
    assert code == 2
    for point in ("1,2,3", "x", "1/0"):
        assert run(capsys, "cut", "XX:n=3", "--point", point) == (2, "", want)


def test_product_doubling(capsys):
    code, out, _ = run(capsys, "product", "AI:n=4", "AI:n=4")
    assert code == 0
    assert "pi*sqrt(16)" in out


def test_product_single_matches_space(capsys):
    code, out, _ = run(capsys, "product", "GROUP:g2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["injectivity_radius"]["exact"] == "pi*sqrt(8)"
    assert data["diameter"]["exact"] == "pi*sqrt(32/3)"


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "42", "--samples", "1000",
                         "--max-param", "4")
    code2, out2, _ = run(capsys, "verify", "--seed", "42", "--samples", "1000",
                         "--max-param", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "pass" in out1


def test_verify_matches_golden_tsv(capsys):
    # Recorded from an earlier revision; the oracle TSV must not drift.
    golden = Path(__file__).parent / "data" / "verify_seed42_s1000.tsv"
    code, out, _ = run(capsys, "verify", "--seed", "42", "--samples", "1000")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_verify_default_samples_matches_golden_tsv(capsys):
    # The default 100,000 samples, as the benchmark runs it.
    golden = Path(__file__).parent / "data" / "verify_seed42.tsv"
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def _golden_digests():
    path = Path(__file__).parent / "data" / "golden_sha256.txt"
    lines = path.read_text().splitlines()
    return [tuple(ln.split(" ", 1)) for ln in lines if ln and not ln.startswith("#")]


GOLDEN = _golden_digests()


@pytest.mark.parametrize("digest,argv", GOLDEN, ids=[argv for _, argv in GOLDEN])
def test_stdout_matches_golden_digest(capsys, digest, argv):
    # Tables in every format, rootsystem JSON and cut on off-chamber points
    # in every format, pinned byte for byte.
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the parser's own text, 80 columns wide: the help of symspace
# and of each command on stdout with exit 0, and two usage errors on stderr
# with exit 2.  The wording is argparse's under Python 3.11, the version CI
# runs and the floor pyproject states.
PARSER_TEXT = {
    "--help": (0, "72c0d0b305d8c19463f86876b75ef6d09089de3ef4b5493a0dbb2bb6fb081705"),
    "rootsystem --help": (0, "defe1efc82ccea944ddb85d1e3b267e1353d6cdc872a94a1d0f3d034a26e8383"),
    "space --help": (0, "81dc2bc279cdea604357acb73c626c0b9b360563b50d310c0eea55fbe2290427"),
    "table --help": (0, "4e2548db9f0d9d9e47777d8970a552711771b560ab6e89dc15242abda9f59cf1"),
    "cut --help": (0, "f0af4e2cef077dd865e56b63a2d2a0e888a14ad4fee097d20cdf603ab62b88bb"),
    "product --help": (0, "eac26d7aa44dcba474088d85a36f768567c3f41f96981c5109fcad568729f1c2"),
    "verify --help": (0, "f2140c53b9c8b5ddb25ec0d49f0cb71147ded27cfce48b69ef0a22266884f452"),
    "table 4.3": (2, "74f950145b3197130403c608ce8105add834ebca72c46ecfe2854d1ea868665a"),
    "cut AI:n=3": (2, "f78d9ef49648ab137f6e5d944357eb8cb90906f365630c83e5b8f9cc34901bed"),
}


@pytest.mark.parametrize("argv", sorted(PARSER_TEXT))
def test_parser_text_matches_golden_digest(monkeypatch, capsys, argv):
    # argparse wraps its text to $COLUMNS less 2.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv.split())
    out = capsys.readouterr()
    code, digest = PARSER_TEXT[argv]
    text, other = (out.out, out.err) if code == 0 else (out.err, out.out)
    assert (exit_.value.code, other) == (code, "")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    from symspace import verify
    from symspace.oracle import OracleReport
    fake = [OracleReport(name="forced", exact="0", numeric=1.0, error=1.0,
                         passed=False)]
    monkeypatch.setattr(verify, "run_all", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


def test_space_json_roundtrip(capsys):
    code, out, _ = run(capsys, "space", "EVIII", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["injectivity_radius"]["exact"] == "pi*sqrt(30)"
    assert json.dumps(data, indent=2) == out.strip()


def run_python(*args, text=True):
    """A fresh interpreter with this package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env=env, timeout=120)


# A golden argv per command, and the table in every format.
FRESH = ["rootsystem e8 --format json", "space AI:n=4", "product AI:n=4 CI:n=3",
         "cut G --point=-8,-24 --format json",
         *(f"table 4.1 --max-param 12 --format {fmt}" for fmt in FORMATS)]


@pytest.mark.parametrize("argv", FRESH)
def test_fresh_process_matches_golden_digest(argv):
    # python -m symspace.cli runs cli.run, which freezes the heap once the
    # command has returned; what it printed stays byte for byte that of main.
    proc = run_python("-m", "symspace.cli", *argv.split(), text=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == {a: d for d, a in GOLDEN}[argv]


def test_fresh_process_verify_matches_golden_tsv():
    proc = run_python("-m", "symspace.cli", "verify", "--seed", "42", "--samples", "1000",
                      text=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (Path(__file__).parent / "data" / "verify_seed42_s1000.tsv").read_bytes()


@pytest.mark.parametrize("argv, code", [(("space", "AI:n=1"), 2),
                                        (("space", "AI:n=4", "--canonical"), 3)])
def test_fresh_process_refusal_matches_main(capsys, argv, code):
    proc = run_python("-m", "symspace.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert run(capsys, *argv) == (code, "", proc.stderr)


@pytest.mark.parametrize("argv", ["table 4.1 --max-param 128",
                                  "space AIII:p=1,q=1000000 --format json",
                                  "rootsystem a128 --format json"])
def test_closed_stdout_ends_quietly(argv):
    # As `| head -n 1` does: read one line, then close the pipe.  The process
    # ends as a shell shows one killed by SIGPIPE, with nothing on stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "symspace.cli", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_main_raises_on_a_closed_stdout(monkeypatch):
    # Only the process entry ends quietly; an in-process caller sees the error.
    class Closed(io.StringIO):
        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        main(["space", "AI:n=4"])


def test_main_leaves_the_heap_unfrozen(capsys):
    # Callers of main in process (tests, the benchmark's replay) keep a heap
    # that collections still walk.
    assert run(capsys, "space", "AI:n=4")[0] == 0
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_main_block_entry():
    import tomllib
    pyproject = Path(SRC).parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["symspace"]
    tree = ast.parse((Path(SRC) / "symspace" / "cli.py").read_text())
    block, = (node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [n.func.id for n in ast.walk(block)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert target == "symspace.cli:run" and called == ["run"]
    # run is main, then the heap frozen.
    proc = run_python("-c", "import gc, sys, symspace.cli; sys.argv[1:] = ['space', 'G']; "
                            "code = symspace.cli.run(); print(code, gc.get_freeze_count() > 0)")
    assert proc.stdout.endswith("\n0 True\n"), proc.stderr


def test_python_floor_is_the_ci_version():
    # sys.get_int_max_str_digits, which every label's parser calls, came in
    # Python 3.11 (3.10 has it only from 3.10.7): the floor pyproject states
    # is the version CI runs.
    import tomllib
    root = Path(SRC).parent
    floor = tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    versions = re.findall(r'python-version:\s*"([^"]+)"', workflow)
    assert versions and {f">={v}" for v in versions} == {floor}
    assert sys.version_info >= tuple(map(int, floor.removeprefix(">=").split(".")))


@pytest.mark.parametrize("samples", ["999", "1000001", "10000000000"])
def test_verify_samples_out_of_range_exit_2(samples):
    start = time.perf_counter()
    proc = run_python("-m", "symspace.cli", "verify", "--samples", samples)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert elapsed < 10          # refused before any oracle work


def test_run_all_samples_limits(monkeypatch):
    from symspace import verify
    monkeypatch.setattr(verify, "standard_suite", lambda *a, **k: [])
    monkeypatch.setattr(verify, "table_reports", lambda *a, **k: [])
    for ok in (1000, verify.MAX_SAMPLES):
        assert verify.run_all(0, samples=ok) == []
    for bad in (999, verify.MAX_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples"):
            verify.run_all(0, samples=bad)


@pytest.mark.parametrize("bound, message", [("0", "param_bound must be >= 1"),
                                            ("129", "param_bound must be <= 128")])
def test_verify_max_param_refused_before_any_check(capsys, monkeypatch, bound, message):
    from symspace import verify

    def no_checks(*args, **kwargs):
        raise AssertionError("the oracle suite ran")

    monkeypatch.setattr(verify, "standard_suite", no_checks)
    assert run(capsys, "verify", "--max-param", bound) == (2, "", f"error: {message}\n")


def test_cli_import_skips_numpy():
    proc = run_python("-c", "import sys, symspace.cli; "
                            "print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


# Runs one command in this interpreter, then prints the package modules
# loaded and whether json was.
_MODULES_OF_COMMAND = """
import contextlib, io, sys
import symspace.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = symspace.cli.main(sys.argv[1:])
print(code, *sorted(name[9:] for name in sys.modules if name.startswith("symspace.")),
      "json" in sys.modules)
"""

_REPORT_PATH = "catalog cli dynkin killing linalg reporting"


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(("space", "AI:n=4"), f"0 {_REPORT_PATH} False", id="space"),
    pytest.param(("product", "AI:n=4", "CI:n=3"), f"0 {_REPORT_PATH} False", id="product"),
    pytest.param(("table", "4.1", "--format", "tsv"), f"0 {_REPORT_PATH} False", id="table"),
    pytest.param(("cut", "AI:n=3", "--point", "1/3,1/3"),
                 "0 catalog cli dynkin geometry killing linalg reporting roots True", id="cut"),
    pytest.param(("rootsystem", "e6"), "0 cli dynkin killing linalg polytope roots False",
                 id="rootsystem"),
])
def test_report_commands_load_only_the_report_path(argv, loaded):
    # space, product and table compile the catalog and the report path:
    # neither the slice predicates nor the polytope, and no json.  cut adds
    # the slice predicates, whose kernel lives in roots, but no polytope.
    # rootsystem reads the root system, its polytope and killing_data, and
    # neither the catalog nor the report path.
    proc = run_python("-c", _MODULES_OF_COMMAND, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == loaded


def test_polytope_loads_no_report_path():
    # The polytope reads the Dynkin tree, the linear algebra and the root
    # system only: neither reporting nor the catalog.
    proc = run_python("-c", "import sys, symspace.polytope; "
                            "print(sorted(m for m in sys.modules if m.startswith('symspace.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "['symspace.dynkin', 'symspace.linalg', 'symspace.polytope', 'symspace.roots']"


def test_no_module_imports_another_modules_private_names():
    # Each decision has one home: no module of the package imports a
    # _-prefixed name from another of its modules, and the tests' exact
    # references (tests/reference.py) share no private helper with it.
    found = []
    paths = sorted((Path(SRC) / "symspace").glob("*.py"))
    for path in paths + [Path(__file__).with_name("reference.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "symspace"):
                found += [(path.name, node.module, a.name) for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def _package_imports(path: Path) -> set[str]:
    """The package modules a source file imports anywhere: at the top, in
    a function body or under ``if TYPE_CHECKING``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("symspace.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("symspace")):
            module = (node.module or "").removeprefix("symspace").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_report_path_imports_no_systems_layer():
    # The report path reads kinds and closed forms: none of its modules
    # imports the root systems, the polytope, the slice predicates, the
    # checks or the command line, and the tests' references compute the
    # simple roots orthogonal to the highest root themselves.
    systems = {"roots", "polytope", "geometry", "oracle", "verify", "cli"}
    report_path = ["dynkin", "killing", "catalog", "reporting", "linalg", "closedform"]
    found = {m: _package_imports(Path(SRC) / "symspace" / f"{m}.py") & systems
             for m in report_path}
    assert found == {m: set() for m in report_path}
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text())
    assert [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("symspace")
            for a in node.names if "perp" in a.name] == []


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds on
    # every process start.  The value types are named tuples instead.
    proc = run_python("-c", "import sys; before = set(sys.modules); "
                            "import symspace.cli; "
                            "print(sorted({'dataclasses', 'inspect'} "
                            "& (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LARGE = ["GROUP:a30", "BDI:p=20,q=30", "DIII:n=81"]


@pytest.mark.parametrize("label", LARGE)
def test_space_past_enumeration_limit(capsys, label):
    code, out, _ = run(capsys, "space", label, "--format", "json")
    assert code == 0
    data = json.loads(out)
    want = expected(parse_label(label))
    assert data["psi_sq"] == str(want.psi_sq)
    assert data["injectivity_radius"]["radicand"] == str(want.i_radicand)
    assert data["diameter"]["radicand"] == str(want.d_radicand)


def test_product_past_enumeration_limit(capsys):
    code, out, _ = run(capsys, "product", *LARGE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    want = [expected(parse_label(label)) for label in LARGE]
    assert data["injectivity_radius"]["radicand"] == \
        str(min(w.i_radicand for w in want))
    assert data["diameter"]["radicand"] == \
        str(sum((w.d_radicand for w in want), Fraction(0)))


@pytest.fixture
def no_classical_roots(monkeypatch):
    """Enumerating the roots of a classical system fails the test; the
    exceptional kinds, whose conjugacy walks their roots, still enumerate."""
    def guard(name):
        lazy = vars(RootSystem)[name]

        def get(rs):
            if rs.kind.family not in ("e", "f", "g"):
                raise AssertionError(f"{rs.kind}: {name} enumerated")
            return lazy.__get__(rs, RootSystem)
        return property(get)      # a data descriptor: shadows cached values too
    for name in ("positive_roots", "roots"):
        monkeypatch.setattr(RootSystem, name, guard(name))


@pytest.mark.parametrize("family", ["a", "b", "c", "d", "bc"])
@pytest.mark.parametrize("rank", [40, 128])
def test_classical_commands_enumerate_no_roots(no_classical_roots, capsys, family, rank):
    kind = RootKind(family, rank)
    with pytest.raises(AssertionError, match="enumerated"):
        build(kind).roots                           # the guard is on
    label = _space_label(kind)
    point = ",".join(["1/3", "1/2"] + ["0"] * (rank - 2))
    for argv in (("rootsystem", str(kind)), ("space", label),
                 ("product", label, "GROUP:e8", label), ("cut", label, "--point", point)):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        json.loads(out)


@pytest.mark.parametrize("which", ["4.1", "4.2"])
def test_table_enumerates_no_roots(no_classical_roots, capsys, which):
    code, out, err = run(capsys, "table", which, "--max-param", "128", "--format", "tsv")
    assert (code, err) == (0, "")
    restricted = {line.split("\t")[2] for line in out.splitlines()[1:]}
    ranks = (40,) if which == "4.1" else (40, 128)
    families = ("a", "b", "c", "d", "bc") if which == "4.1" else ("a", "b", "c", "d")
    assert {f"{fam}{l}" for fam in families for l in ranks} <= restricted


# cut on each classical family at rank 128 (DIII:n=256 restricts to c128),
# in a fresh process; conjugacy from epsilon-coordinates.
CUT_128 = ["GROUP:a128", "BDI:p=128,q=129", "DIII:n=256", "AIII:p=128,q=129", "GROUP:d128"]


@pytest.mark.parametrize("label", CUT_128)
def test_cut_at_rank_128_fresh(label):
    entry = resolve(label)
    kind, psi_sq = entry.restricted, entry.psi_sq_killing
    assert kind.rank == 128
    answers = set()
    for h in ([4 / psi_sq] + [Fraction(0)] * 127,       # e_1 - e_3: an integer
              [Fraction(1, 5 + i % 3) for i in range(128)]):
        proc = run_python("-m", "symspace.cli", "cut", label,
                          "--point", ",".join(map(str, h)), "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, ""), label
        data = json.loads(proc.stdout)
        want = epsilon_conjugate(kind.family, epsilon_simple_roots(kind), psi_sq, h)
        assert data["conjugate"] is want
        answers.add(want)
    assert answers == {True, False}


# int() reads at most L digits (4300 by default): past that a parameter or a
# rank is refused by name, and a label with q (or a rank) of L digits gives
# psi_sq = 1/(p+q) (or the name SU(l+1)) one digit more than can be printed.
L = sys.get_int_max_str_digits()


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=name or " ".join(argv[:2]))
    for argv, message, name in [
        (("rootsystem", "c129"), None, None),
        (("cut", "GROUP:a30", "--point", "1,0"), "point length 2 != rank 30", None),
        (("cut", "AI:n=201", "--point", "1/0"), "bad rational '1/0'",  # before the rank
         "cut AI:n=201 1/0"),
        (("space", "GROUP:a129"), None, None),
        (("space", "AI:n=99999999999"), None, None),
        (("table", "4.1", "--max-param", "100000"), None, None),
        (("space", f"AI:n={'1' * (L + 700)}"),
         f"parameter n has more than {L} digits", "space AI:n=<L+700 digits>"),
        (("rootsystem", f"a{'1' * (L + 700)}"),
         f"the rank of a root-system kind has more than {L} digits",
         "rootsystem a<L+700 digits>"),
        (("space", f"AIII:p=1,q={'9' * L}"),
         f"AIII: a printed value exceeds the limit of {L} digits; "
         "the label's parameters need fewer digits", "space AIII:p=1,q=<L digits>"),
        (("space", f"GROUP:a{'9' * L}"),          # the name SU(l+1), in resolve
         f"GROUP: a printed value exceeds the limit of {L} digits; "
         "the label's parameters need fewer digits", "space GROUP:a<L digits>"),
        (("space", f"AII:n={'9' * L}"),           # the name SU(2n), in resolve
         f"AII: a printed value exceeds the limit of {L} digits; "
         "the label's parameters need fewer digits", "space AII:n=<L digits>"),
    ]])
def test_refused_inputs_exit_2(argv, message):
    proc = run_python("-m", "symspace.cli", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if message is not None:
        assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("coord", ["1e10000000", "1" * 5000, "5e-4301"],
                         ids=["exponent", "numerator", "denominator"])
def test_cut_oversized_coordinate_exit_2(coord):
    # Refused before 10**exponent is formed, with the parse error.
    proc = run_python("-m", "symspace.cli", "cut", "AI:n=3", "--point", f"{coord},0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: bad rational")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cut_coordinate_digit_limit(capsys):
    # The refusal starts where echoing the point would fail; a zero stays
    # zero whatever its exponent.
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "cut", "AI:n=3", "--point", f"1e{limit - 1},0e99999999",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["point"] == [str(10 ** (limit - 1)), "0"]
    code, _, err = run(capsys, "cut", "AI:n=3", "--point", f"1e{limit},0")
    assert code == 2 and "bad rational" in err
    # An echoable point whose dominant representative has one digit more.
    code, _, err = run(capsys, "cut", "GROUP:c5", "--point", f"0,0,0,{'9' * limit},0")
    assert code == 2
    assert err.startswith(f"error: a printed value exceeds the limit of {limit} digits")


@pytest.mark.parametrize("argv", [
    ("space", "AI:n=4", "--epsilon", "1e10000000"),
    ("space", "AI:n=4", "--epsilon", "1e100000"),
    ("space", "AI:n=4", "--ric", "1e-200000"),
    ("table", "4.2", "--ric", "1e10000000"),
    ("product", "AI:n=4", "G", "--epsilon", "1e-10000000"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_oversized_metric_value_exit_2(capsys, argv):
    # Refused before 10**exponent is formed, with the parse error.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad rational {argv[-1]!r}")


def test_metric_value_digit_bound(capsys):
    # Up to the bound a value is kept: some printed quantity can have up to
    # L+2 fewer digits (here the radicands of a product).
    code, out, _ = run(capsys, "product", "BDI:p=1,q=11", "--ric", "1e4300",
                       "--format", "json")
    assert code == 0
    want = expected(parse_label("BDI:p=1,q=11"))
    eps = 1 / (2 * Fraction(10) ** 4300)
    data = json.loads(out)
    assert data["injectivity_radius"]["radicand"] == str(eps * want.i_radicand)
    assert data["diameter"]["radicand"] == str(eps * want.d_radicand)
    code, out, _ = run(capsys, "space", "AI:n=4", "--epsilon", "1e4290", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["epsilon"] == str(10 ** 4290)
    assert data["injectivity_radius"]["radicand"] == str(4 * 10 ** 4290)
    assert data["kappa"] == f"1/{4 * 10 ** 4290}"
    limit = sys.get_int_max_str_digits()
    code, _, err = run(capsys, "space", "AI:n=4", "--epsilon", f"1e{2 * limit + 1}")
    assert code == 2 and "exceeds the limit" in err.lower()      # at print time
    assert err == (f"error: a printed value exceeds the limit of {limit} digits; "
                   "the metric value (or point) needs fewer digits\n")
    code, _, err = run(capsys, "space", "AI:n=4", "--epsilon", f"1e{2 * limit + 2}")
    assert code == 2 and err.startswith("error: bad rational")


def test_metric_value_unbounded_without_int_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, "space", "AI:n=4", "--epsilon", "1e10000",
                           "--format", "json")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert json.loads(out)["epsilon"] == "1" + "0" * 10000


# Starts ``symspace`` with stdout to /dev/null and prints its exit code and
# peak RSS.  A child's peak counts the process it was spawned from, so the
# child is spawned from this small interpreter rather than from pytest.
_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "symspace.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,
                                                os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kb(*argv):
    """Exit code, stderr and peak RSS (KiB) of a fresh ``symspace`` process."""
    proc = run_python("-c", _LAUNCHER, *argv)
    code, rss = map(int, proc.stdout.split())
    return code, proc.stderr, rss


def test_table_peak_rss_near_one_report():
    # Reports cache one Fraction per restricted kind, not its polytope.
    base_code, _, base_rss = peak_rss_kb("space", "AI:n=4")
    code, err, rss = peak_rss_kb("table", "4.2", "--max-param", "64")
    assert (base_code, code, err) == (0, 0, "")
    assert rss <= base_rss + 16 * 1024, (rss, base_rss)


def test_table_41_peak_rss_holds_row_text_only():
    # enumerate_table yields its entries and cmd_table keeps only the row
    # strings, so no row's entry or report (over 6,000 rows here) lives
    # past its row.  The row strings take about 5 MB.
    base_code, _, base_rss = peak_rss_kb("space", "AI:n=4")
    code, err, rss = peak_rss_kb("table", "4.1", "--max-param", "64")
    assert (base_code, code, err) == (0, 0, "")
    assert rss <= base_rss + 12 * 1024, (rss, base_rss)


def test_table_41_tsv_peak_rss_holds_rows_only():
    # Each row is held as its joined line (2.4 MB in all here) until every
    # row has succeeded, and written out in chunks, with no joined copy of
    # the whole text: about 5 MB over one report (16 MB when each row kept
    # its eight cells).
    base_code, _, base_rss = peak_rss_kb("space", "AI:n=4")
    code, err, rss = peak_rss_kb("table", "4.1", "--max-param", "128", "--format", "tsv")
    assert (base_code, code, err) == (0, 0, "")
    assert rss <= base_rss + 7 * 1024, (rss, base_rss)


def test_table_json_peak_rss_near_tsv():
    # The JSON rows are rendered one report at a time and written piece by
    # piece, so no list of row dicts or second copy of the text is held.
    argv = ("table", "4.1", "--max-param", "48", "--format")
    tsv_code, _, tsv_rss = peak_rss_kb(*argv, "tsv")
    code, err, rss = peak_rss_kb(*argv, "json")
    assert (tsv_code, code, err) == (0, 0, "")
    assert rss <= tsv_rss + 4 * 1024, (rss, tsv_rss)


def test_black_node_labels_peak_rss_near_one_report():
    # Black-node sets are held as ranges, so a label's parameters cost no
    # memory (as frozensets, q = 10**6 took 67 MB more for AIII, 95 MB
    # for CII and 150 MB for AIII in JSON; q = 10**8 exhausted memory).
    # JSON lists the nodes up to a limit, and refuses past it; the encoder
    # draws them from the ranges as it writes them (their list of ints
    # took 38 MB more).
    base_code, _, base_rss = peak_rss_kb("space", "AI:n=4")
    assert base_code == 0
    for label in ("AIII:p=1,q=1000000", "CII:p=1,q=1000000", "BDI:p=2,q=100000000"):
        code, err, rss = peak_rss_kb("space", label)
        assert (code, err) == (0, ""), label
        assert rss <= base_rss + 4096, (label, rss, base_rss)
    code, err, rss = peak_rss_kb("space", "AIII:p=1,q=1000000", "--format", "json")
    assert (code, err) == (0, "")
    assert rss <= base_rss + 8 * 1024, (rss, base_rss)
    code, err, rss = peak_rss_kb("space", "AIII:p=1,q=100000000", "--format", "json")
    assert (code, err) == (2, "error: AIII:p=1,q=100000000: 99999998 Satake black "
                              "nodes exceed the JSON limit of 1000000\n")
    assert rss <= base_rss + 4096, (rss, base_rss)


def test_verify_peak_rss_flat_in_samples():
    # The simplex sample is drawn and checked a block of rows at a time, so
    # a thousandfold sample costs time, not memory (one whole draw and its
    # products at 10**6 samples took about 180 MB more).
    base_code, _, base_rss = peak_rss_kb("verify", "--samples", "1000")
    code, err, rss = peak_rss_kb("verify", "--samples", "1000000")
    assert (base_code, code, err) == (0, 0, "")
    assert rss <= base_rss + 8 * 1024, (rss, base_rss)


@pytest.mark.parametrize("label,kind", [
    ("AII:n=1000000", "a999999"),
    ("AI:n=1000000", "a999999"),
    ("AIII:p=1000000,q=3000000", "bc1000000"),
    ("CI:n=1000000", "c1000000"),
    ("CII:p=1000000,q=1000000", "c1000000"),
    ("BDI:p=1000000,q=3000000", "b1000000"),
    ("DIII:n=2000001", "bc1000000"),
    ("GROUP:a129 --canonical", "a129"),
    ("AI:n=201 --canonical", "a200"),
])
def test_over_rank_label_refused_before_black_nodes(label, kind):
    # The rank is refused where the Gram tree is laid out, for series and
    # GROUP labels alike, and before any metric preset is looked up.
    base_code, _, base_rss = peak_rss_kb("space", "AI:n=4")
    assert base_code == 0
    rank = kind.lstrip("abc")
    commands = ("space", "product") if "--canonical" in label else ("space",)
    for command in commands:
        code, err, rss = peak_rss_kb(command, *label.split())
        assert (code, err) == (2, f"error: {kind}: rank {rank} exceeds the limit of 128\n")
        assert rss <= base_rss + 4096, (rss, base_rss)
