"""CLI contract: subcommands, exit codes, JSON schema, determinism."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmlab.cli import main
from pdmlab.symkernel import parse_sexpr


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out = run_cli(["catalog", "list"], capsys)
        assert code == 0
        assert out.count("integrals:") == 18

    def test_verify_entry(self, capsys):
        code, out = run_cli(["catalog", "verify", "--entry", "17"], capsys)
        assert code == 0
        assert "catalog.entry17" in out
        assert "failed=0" in out

    def test_verify_all_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(
            ["catalog", "verify", "--all", "--json", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        ids = [s["id"] for s in payload["sections"]]
        assert len(ids) == 18  # one section per catalog row
        assert all(i.startswith("catalog.entry") for i in ids)
        assert payload["passed"] is True

    def test_verify_all_with_worked_families(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(
            ["catalog", "verify", "--all", "--worked", "--json", str(out_path)],
            capsys,
        )
        assert code == 0
        ids = [s["id"] for s in json.loads(out_path.read_text())["sections"]]
        assert sum(1 for i in ids if i.startswith("worked.")) == 4

    def test_bad_args(self):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "verify"])
        assert exc.value.code == 2


class TestAlgebraCommand:
    def test_c3(self, capsys):
        code, out = run_cli(["algebra", "--check", "c3"], capsys)
        assert code == 0
        assert out.count("proved") >= 45

    def test_so4(self, capsys):
        code, out = run_cli(["algebra", "--check", "so4"], capsys)
        assert code == 0
        assert "failed=0" in out

    def test_subalgebras(self, capsys):
        code, out = run_cli(["algebra", "--subalgebras"], capsys)
        assert code == 0
        assert "subalgebra.m10.1" in out
        assert "subalgebra.m7.1" in out


class TestSpectrumCommand:
    def test_so4_table(self, capsys):
        code, out = run_cli(
            ["spectrum", "--system", "so4", "--l", "0", "--count", "3"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("so4,")]
        assert len(lines) == 3
        for line in lines:
            assert float(line.split(",")[-1]) < 5e-3
        assert "1,9,9,1" in out and "3,41,41,1" in out

    def test_so4_l2_lowest(self, capsys):
        code, out = run_cli(
            ["spectrum", "--system", "so4", "--l", "2", "--count", "1"], capsys
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("so4,")][0]
        assert abs(float(row.split(",")[3]) - 37.0) < 0.5

    def test_scale_residual_line(self, capsys):
        code, out = run_cli(
            ["spectrum", "--system", "scale", "--kappa", "0", "--etilde", "1",
             "--omega", "2"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("scale,0,")

    def test_dump_solves_once(self, tmp_path, monkeypatch, capsys):
        # one eigensystem solve serves the three-row table and level 5 of
        # the dump, and the table prints as it does without --dump
        from pdmlab import spectral

        args = ["spectrum", "--system", "so4", "--count", "3", "--grid", "2000"]
        assert main(args) == 0
        table = capsys.readouterr().out
        calls = []
        solve = spectral.eigh_tridiagonal

        def spy(q, h, count, vectors=False):
            calls.append((len(q), count, vectors))
            return solve(q, h, count, vectors)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", spy)
        dump = tmp_path / "d.txt"
        assert main([*args, "--dump", str(dump), "--dump-index", "5"]) == 0
        assert calls == [(2000, 6, True)]
        assert capsys.readouterr().out == table
        assert dump.read_text().startswith("# system=so4 l=0 index=5 lambda=")

    def test_invalid_grid(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--system", "so4", "--grid", "notanint"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, stderr", [
        (["so4", "--grid", "8"], "grid too small (need at least 16 points)"),
        (["so4", "--l", "-1"], "l must be nonnegative"),
        (["so4", "--dump", "/nonexistent/x.txt"],
         "[Errno 2] No such file or directory: '/nonexistent/x.txt'"),
        (["so4", "--count", "0"], "--count must be at least 1, not 0"),
        (["so4", "--count", "-3"], "--count must be at least 1, not -3"),
        (["so4", "--count", "17", "--grid", "16"], "17 levels asked of a grid with 16 points"),
        (["so4", "--count", "19", "--grid", "100000"],
         "19 levels of a grid with 100000 points pass the solver's memory bound:"
         " min(grid, 3 count + 24) x grid must be at most 8000000"),
        (["scale", "--etilde", "3"], "index squared kappa^2 + 1 - Etilde is negative"),
        (["scale", "--omega", "0"], "need omega > 0 (J_beta is evaluated at omega t, t > 0)"),
    ], ids=["grid-8", "l-minus-1", "dump-nonexistent", "count-0", "count-minus-3",
            "count-past-grid", "count-past-memory-bound", "scale-index-squared",
            "scale-omega-0"])
    def test_bad_input_exit_code(self, args, stderr, capsys):
        # rc 2 and one error line; no table, not even an empty one
        assert main(["spectrum", "--system", *args]) == 2
        assert capsys.readouterr() == ("", f"spectrum error: {stderr}\n")

    def test_uncertified_levels_exit_1(self, monkeypatch, capsys):
        # a solve that cannot certify its levels prints its one error line
        # and no table: the check failed, the input was fine
        from pdmlab import spectral

        monkeypatch.setattr(spectral, "_max_steps", lambda count, n: 12)
        assert main(["spectrum", "--system", "so4", "--count", "10", "--grid", "2000"]) == 1
        assert capsys.readouterr() == (
            "", "spectrum error: Lanczos did not converge to 11 levels in 12 steps\n")


class TestCasimirCommand:
    def test_so4(self, capsys):
        code, out = run_cli(["casimir", "--system", "so4"], capsys)
        assert code == 0
        assert "C1 == (H - 9)/4" in out

    def test_so13_carries_window_annotation(self, capsys):
        code, out = run_cli(["casimir", "--system", "so13"], capsys)
        assert code == 0
        assert "window derivations" in out


class TestTransformCommand:
    def test_inversion_entry_18(self, capsys):
        code, out = run_cli(["transform", "--kind", "inversion", "--entry", "18"], capsys)
        assert code == 0
        assert "weight_exponent = -3" in out
        assert "f' = mu" in out and "V' = nu" in out

    def test_shift_entry_10(self, capsys):
        code, out = run_cli(
            ["transform", "--kind", "shift", "--nu", "0,0,1", "--entry", "10"], capsys
        )
        assert code == 0
        assert "f' = (F (+ x3 1))" in out

    def test_form_error_exit_code(self, capsys):
        code, out = run_cli(
            ["transform", "--kind", "inversion", "--entry", "18", "--weight", "0"],
            capsys,
        )
        assert code == 1
        assert "obstruction" in out


class TestExprCommand:
    def test_round_trip(self, capsys):
        code, out = run_cli(["expr", "parse", "(+ x1 (* 2 x2))"], capsys)
        assert code == 0
        assert out.strip() == "(+ x1 (* 2 x2))"

    def test_normalize(self, capsys):
        code, out = run_cli(["expr", "normalize", "(+ (* x1 x2) (* -1 x2 x1) 5)"], capsys)
        assert code == 0
        assert out.strip() == "5"

    def test_parse_error(self, capsys):
        assert main(["expr", "parse", "((("]) == 2

    @pytest.mark.parametrize("action, text, code, stdout", [
        ("normalize", "(^ x1 1/0)", 2, ""),
        ("normalize", "(^ 0 -1)", 2, ""),
        ("normalize", "(^ (+ x1 (^ x2 1/3)) -1)", 2, ""),
        ("normalize", "(^ 1" + "0" * 400 + " 1/2)", 0, "1" + "0" * 200 + "\n"),
        ("parse", "(+ 1 " * 1000 + "x1" + ")" * 1000, 2, ""),
        ("normalize", "(exp " * 600 + "x1" + ")" * 600, 2, ""),
    ], ids=["zero-denominator", "zero-inverse", "cube-root-denominator", "sqrt-10^400",
            "deep-sum", "deep-exp"])
    def test_kernel_input_exit_codes(self, action, text, code, stdout, capsys):
        assert main(["expr", action, text]) == code
        out, err = capsys.readouterr()
        assert out == stdout
        assert len(err.splitlines()) == (1 if code == 2 else 0)


# Texts for the `expr` fuzz: trees built from the grammar of
# docs/expr-grammar.md (small exponents, so that normalize stays quick),
# loose grammar tokens, and either one with junk spliced in.
_NUMBERS = ["0", "1", "-2", "3/4", "-1/2"]
_ATOMS = ["x1", "x2", "x3", "i", "mu", "nu", *_NUMBERS]
_EXPONENTS = ["0", "2", "3", "-1", "1/2", "-3/2"]
_UNARY = ["sqrt", "exp", "ln", "arctan", "sin", "cos"]
_TOKENS = ["(", ")", "+", "*", "^", "gauss", "D1", "D2", "F", "G", *_UNARY, *_ATOMS]
_JUNK = st.one_of(
    st.sampled_from(["#", "@", ".", "1.5", "/", "1/", "//", "-", "+-1", "0/0", "1e5", "x0",
                     "x4", "D0", "D10", "((", "))", "\t", "\n", "\x00", "\u00e9"]),
    st.text(max_size=3),
)


def _compound(children):
    def joined(head, args):
        return f"({head} {' '.join(args)})"

    return st.one_of(
        st.builds(joined, st.sampled_from(["+", "*"]), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda e, q: f"(^ {e} {q})", children, st.sampled_from(_EXPONENTS)),
        st.builds(lambda head, e: joined(head, [e]), st.sampled_from(_UNARY), children),
        st.builds(joined, st.sampled_from(["F", "G"]), st.lists(children, min_size=1, max_size=2)),
        st.builds(lambda j, e: f"(D{j} {e})", st.integers(1, 2), children),
    )


_GAUSS = st.builds(lambda a, b: f"(gauss {a} {b})", st.sampled_from(_NUMBERS),
                   st.sampled_from(_NUMBERS))
_TREES = st.recursive(st.sampled_from(_ATOMS) | _GAUSS, _compound, max_leaves=8)
_SOUP = st.lists(st.sampled_from(_TOKENS) | _JUNK, max_size=24).map(" ".join)


@st.composite
def _spliced(draw):
    text = draw(_TREES | _SOUP)
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    return text[:at] + draw(_JUNK) + text[at + cut:]


class TestExprFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["parse", "normalize"]), _TREES | _SOUP | _spliced())
    @example("parse", "(+ 1 (* x1 x2)")
    @example("parse", "x1\x00")
    @example("parse", "-x1")  # reaches the parser, not argparse: rc 2 and a parse error
    @example("normalize", "(^ (+ (sqrt x1) (* -1 (sqrt x1))) -1)")
    @example("normalize", "(^ (+ x1 x2 1) 200)")  # past the expansion budget: rc 2 at once
    @example("normalize", "(^ (+ x1 1) -2147483648)")
    def test_exit_code_is_0_or_2_without_traceback(self, action, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["expr", action, text])
            except SystemExit as exc:  # argparse: help for -h, or a text such as --x
                code = exc.code
        assert code in (0, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:  # one printed tree, or argparse's help for "-h"
            assert out.getvalue().endswith("\n") and not err.getvalue()
        else:
            assert not out.getvalue() and err.getvalue()


    @pytest.mark.parametrize("action, text, code, stdout, stderr", [
        ("parse", "-1/2", 0, "-1/2\n", ""),
        ("parse", "-x1", 2, "", "parse error: bad atom '-x1' at offset 0\n"),
        ("normalize", "(^ x1 \u0661/\u0662)", 2, "",
         "parse error: bad atom '\u0661/\u0662' at offset 6\n"),
        ("parse", "(gauss \u0661 2)", 2, "", "parse error: bad atom '\u0661' at offset 7\n"),
        ("parse", "(D\u0661 (F x1))", 2, "", "parse error: unknown head 'D\u0661' at offset 1\n"),
        ("normalize", "(^ x1 2147483647)", 0, "(^ x1 2147483647)\n", ""),
        ("normalize", "(^ x1 4294967296)", 2, "",
         "expression error: exponent too large: a monomial holds exponents below 2^31\n"),
        ("normalize", "(* (^ x1 2147483647) x1)", 2, "",
         "expression error: exponent too large: a monomial holds exponents below 2^31\n"),
        ("normalize", "(^ (+ x1 x2 1) 200)", 2, "",
         "expression error: expansion too large: a 3-term sum to the power 200 has up to"
         " C(202, 2) terms, above 15000\n"),
        ("normalize", "(^ (+ x1 1) -2147483648)", 2, "",
         "expression error: expansion too large: a 2-term sum to the power 2147483648 has"
         " up to C(2147483649, 1) terms, above 15000\n"),
    ], ids=["minus-rational", "minus-ident", "arabic-indic-exponent", "arabic-indic-gauss",
            "arabic-indic-derivative", "exponent-below-limit", "exponent-2^32",
            "product-at-limit", "expansion-past-budget", "denominator-past-budget"])
    def test_pinned_texts(self, action, text, code, stdout, stderr, capsys):
        # a text starting with "-" reaches the parser; DIGITS are ASCII only;
        # a monomial's exponents stay below 2^31; an expansion past the
        # budget is refused before it starts
        t0 = time.perf_counter()
        assert main(["expr", action, text]) == code
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == (stdout, stderr)

    def test_expansion_within_budget(self, capsys):
        # (x1 + x2 + 1)^100 has every monomial of degree <= 100 in x1, x2:
        # C(102, 2) = 5,151 terms, the bound itself
        assert main(["expr", "normalize", "(^ (+ x1 x2 1) 100)"]) == 0
        out, err = capsys.readouterr()
        assert not err
        assert len(parse_sexpr(out).terms) == 5151


class TestReportContract:
    def test_json_validates_against_schema(self, tmp_path, capsys):
        import pathlib

        import jsonschema

        out_path = tmp_path / "r.json"
        run_cli(["casimir", "--system", "so4", "--json", str(out_path)], capsys)
        payload = json.loads(out_path.read_text())
        schema_path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"
        jsonschema.validate(payload, json.loads(schema_path.read_text()))

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["catalog", "verify", "--entry", "4", "--seed", "7", "--json", str(a)], capsys)
        run_cli(["catalog", "verify", "--entry", "4", "--seed", "7", "--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_samples(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["catalog", "verify", "--entry", "4", "--seed", "1", "--json", str(a)], capsys)
        run_cli(["catalog", "verify", "--entry", "4", "--seed", "2", "--json", str(b)], capsys)
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        assert pa["seed"] != pb["seed"]

    def test_policy_echoed(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        run_cli(
            ["catalog", "verify", "--entry", "1", "--points", "17", "--tol", "1e-8",
             "--json", str(out_path)], capsys,
        )
        payload = json.loads(out_path.read_text())
        assert payload["policy"]["points"] == 17
        assert payload["policy"]["tol"] == 1e-8


@pytest.mark.parametrize("command", [
    ["catalog", "list"],
    ["spectrum", "--system", "so4", "--count", "10"],
])
def test_closed_stdout_ends_quietly(command):
    # a reader that stops early (`| head -1`) leaves rc 1 and no traceback
    proc = subprocess.Popen([sys.executable, "-m", "pdmlab", *command],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""  # no Traceback, no message


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pdmlab", "expr", "normalize", "(+ x1 x1)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(* 2 x1)"


_COMMANDS = {
    "algebra": ["algebra", "--check", "so4"],
    "casimir": ["casimir", "--system", "so4"],
    "spectrum": ["spectrum", "--system", "scale"],
    "transform": ["transform", "--kind", "rotation", "--entry", "10"],
    "expr": ["expr", "parse", "x1"],
    "catalog list": ["catalog", "list"],
}
_UNREAD = [
    *((name, ["--json", "out.json"]) for name in ("spectrum", "transform", "expr", "catalog list")),
    *((name, opt) for name in _COMMANDS for opt in (["--points", "3"], ["--tol", "1e-3"])),
    *(("catalog list", [opt]) for opt in ("--entry", "--all", "--worked")),
]


# A --points below 1, a --tol outside (0, 1) (a tol of 1 or more accepts
# every relative residual, nan none), a spectrum --rel-tol outside (0, 1)
# (inf and 1 passed any table, nan, -1 and 0 failed a right one), and a
# --json path that cannot be opened, with the start of the one error line
# each prints.
_BAD_VALUES = [
    *((["catalog", "verify", "--entry", "2", "--tol", value],
      f"pdmlab catalog verify: error: argument --tol: must lie in (0, 1), not {value}")
      for value in ("inf", "1e300", "nan", "1", "0", "-0.5")),
    *((["spectrum", "--system", "so4", "--count", "2", "--rel-tol", value],
      f"pdmlab spectrum: error: argument --rel-tol: must lie in (0, 1), not {value}")
      for value in ("nan", "-1", "0", "inf", "1")),
    *((["catalog", "verify", "--entry", "1", "--points", value],
      f"pdmlab catalog verify: error: argument --points: must be at least 1, not {value}")
      for value in ("0", "-3")),
    *((_COMMANDS.get(name, ["catalog", "verify", "--entry", "1"]) + ["--json", "/nonexistent/x.json"],
       f"{name.split()[0]} error: [Errno 2] No such file or directory: '/nonexistent/x.json'")
      for name in ("catalog verify", "algebra", "casimir")),
]


@pytest.mark.parametrize("command, error", [
    *((_COMMANDS[name] + opt, "pdmlab: error: unrecognized arguments: ") for name, opt in _UNREAD),
    (["catalog", "verify", "--entry", "9", "--worked"], "catalog error: --worked"),
    *_BAD_VALUES,
], ids=[f"{name} {opt[0]}" for name, opt in _UNREAD] + ["catalog verify --entry --worked"]
   + [" ".join(command) for command, _ in _BAD_VALUES])
def test_unread_option_is_bad_input(command, error, tmp_path, monkeypatch, capsys):
    # a subcommand takes only the options it reads, and a value it reads
    # must be valid: anything else is rc 2, with one error line, before any
    # output or report file
    monkeypatch.chdir(tmp_path)
    try:
        code = main(command)
    except SystemExit as exc:  # argparse: unrecognized arguments, bad values
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(error)
    assert list(tmp_path.iterdir()) == []


# Each option that one --system or --kind reads, given to another: rc 2,
# one error line naming the first such option, no output and no dump.
_OTHER_CHOICE = [
    *((["spectrum", "--system", "scale", opt, value], f"spectrum error: {opt} is not read by "
      "--system scale")
      for opt, value in (("--l", "1"), ("--count", "3"), ("--grid", "8"), ("--rel-tol", "0.1"),
                         ("--dump", "d.txt"), ("--dump-index", "1"))),
    *((["spectrum", "--system", "so4", opt, value], f"spectrum error: {opt} is not read by "
      "--system so4")
      for opt, value in (("--kappa", "1"), ("--etilde", "1"), ("--omega", "3"))),
    *((["transform", "--kind", kind, "--entry", "10", opt, value],
       f"transform error: {opt} is not read by --kind {kind}")
      for kind, opt, value in (("rotation", "--nu", "x"), ("rotation", "--scale", "2"),
                               ("rotation", "--weight", "auto"), ("shift", "--axis", "1"),
                               ("shift", "--cos", "0"), ("dilatation", "--sin", "1"),
                               ("inversion", "--nu", "0,0,1"))),
    (["spectrum", "--system", "scale", "--grid", "8", "--dump", "d.txt"],
     "spectrum error: --grid is not read by --system scale"),
    (["transform", "--kind", "rotation", "--entry", "10", "--nu", "x", "--weight", "5"],
     "transform error: --nu is not read by --kind rotation"),
]


@pytest.mark.parametrize("command, stderr", _OTHER_CHOICE,
                         ids=[" ".join(command) for command, _ in _OTHER_CHOICE])
def test_option_of_another_system_or_kind_is_bad_input(command, stderr, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    assert capsys.readouterr() == ("", stderr + "\n")
    assert list(tmp_path.iterdir()) == []


# The commands the benchmark runs, each in a fresh process, as pinned in
# perfbench/expected.json.
_PINNED = sorted(json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()))

# Runs one command, then prints on stderr the modules loaded, in the order
# their imports began.
_MODULES_AFTER = """
import json, sys
from pdmlab import cli
cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("\\n" + json.dumps(list(sys.modules)) + "\\n")
"""


@pytest.mark.parametrize("command", _PINNED)
def test_command_imports(command, tmp_path):
    # a fresh process pays for every import: no command loads dataclasses or
    # scipy.linalg, spectrum no operator module and no kernel (the so4
    # table prints its levels' coefficients, not their energy expressions),
    # casimir and the scale system no numpy
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *command.split()],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    modules = set(json.loads(proc.stderr.splitlines()[-1]))
    assert not {"dataclasses", "scipy.linalg"} & modules
    if command.startswith("spectrum"):
        assert not {"pdmlab.casimir", "pdmlab.conformal", "pdmlab.diffop",
                    "pdmlab.catalog", "pdmlab.symkernel"} & modules
    if command.startswith(("casimir", "spectrum --system scale")):
        assert "numpy" not in modules
    if command.startswith("spectrum --system scale"):
        # a Bessel residual in floats: no hashlib for the kernel's seeds
        assert "hashlib" not in modules


def test_package_imports_no_dataclasses():
    code = ("import sys, pdmlab.casimir, pdmlab.catalog, pdmlab.cli, pdmlab.conformal, "
            "pdmlab.diffop, pdmlab.report, pdmlab.spectral, pdmlab.symkernel; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == "False\n"
