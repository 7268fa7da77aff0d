"""Byte-compare every pinned benchmark command, and the kernel-stream
results, between a git revision and the working tree.

    python3 tools/bytecheck.py REV

`git archive REV src` is extracted into a temporary directory; the
repository's git state is not touched.  Each command keyed in
perfbench/expected.json runs under both source trees at seeds 271828 and 7,
with `--json` added where its pin holds `checks`, and so does each command
of ONE_CPU with the child pinned to one CPU (`os.sched_setaffinity`).  Exit
codes, stdout, stderr and JSON reports are compared byte for byte.  Next
each text of EXPR_INPUTS goes through `pdmlab expr parse|normalize`, each
argument list of SPECTRUM_INPUTS through `pdmlab spectrum`, and each command of
OPTION_INPUTS through `pdmlab`, under both trees, and the exit codes,
stdout and stderr are compared.  A command still running after
RUN_TIMEOUT_S seconds is stopped, and its exit code reads "timeout".  Then
perfbench/kernel_stream.py runs each of KERNEL_PARTS at both seeds under
both trees, and the verdict and result digest of every item are compared.  An item stopped
at the stream's time limit in either run has no result to compare; those
are counted apart and are not a difference.  Nothing is written under
perfbench/.  One line is printed per command and seed, followed, when the
stdout differs, by the first DIFF_LINES lines of its unified diff, each cut
to DIFF_WIDTH characters; the exit status is 1 on any difference.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (271828, 7)
# Far above any command's time; a revision without the expansion budget
# runs the budget's EXPR_INPUTS for minutes.
RUN_TIMEOUT_S = 30
DIFF_LINES = 24
DIFF_WIDTH = 160
# Pinned commands that run a second time on one CPU: `catalog verify --all`
# shares its jobs with a forked worker on two or more CPUs and runs them
# alone on one, and both paths must print the revision's bytes.
ONE_CPU = ("catalog verify --all --worked",)
# Every product of the kernel stream takes the normal form's product path,
# so four parts, 6,000 items a seed, are compared, not one.
KERNEL_PARTS = (0, 1, 2, 3)

# Forty-one parameters and a cube root: the widest monomials of EXPR_INPUTS,
# whose fields lie past the fortieth atom's.
_WIDE_SUM = "(+ " + " ".join(f"a{k}" for k in range(41)) + " (^ (+ x1 2) 1/3))"
_WIDE_DEN = "(^ (+ (* a7 a33) (* x2 a40) 1) -1)"

# (action, text) for `pdmlab expr`: texts that parse, with and without
# repeated subtrees; one text per ParseError message; the kernel's rc-2
# rejections; nesting past the interpreter's recursion limit; texts that
# start with "-"; digits that are not ASCII; wide monomials; powers of a
# sum on both sides of the expansion budget; and numbers past the 4300
# digits that int() and str() convert, which a revision without the checks
# ends with a ValueError traceback; and a power of a sum whose coefficients
# stay far below the kernel's size bound; products whose numbers and atom
# powers fold into one term, with a zero denominator before an exponent
# past the limit, one after it, an exponent that reaches 2^31 - 1 only
# across two factors, and a run of them between other factors; sums whose
# terms share a denominator, one that is zero midway and one whose run is
# cut by a term over another denominator; zero to a negative power inside
# a product and to a fractional one; a product of two numbers around a
# sum, which fold into one; and integral exponents written as fractions, a
# power of a power whose product exponent is integral, and a gauss literal
# of integral fractions, under both actions.  Folded
# powers and powers of sums
# past that bound are left out: a revision without the bound computes them,
# in gigabytes, and tests/test_cli.py runs them in a capped child instead.
EXPR_INPUTS = (
    ("parse", "(+ x1 (* 2 x2))"),
    ("normalize", "(+ (* x1 x2) (* -1 x2 x1) 5)"),
    ("normalize", "(* (+ x1 (sqrt (+ (^ x1 2) 1))) (+ x1 (sqrt (+ (^ x1 2) 1))) "
                  "(^ (+ (* a x2) 1) -1) (^ (+ (* a x2) 1) -1))"),
    ("parse", "(+ (D1 (D2 (F x1 (gauss 1/2 -3)))) (exp (ln mu)) (arctan i))"),
    ("parse", ""),
    ("parse", ")"),
    ("parse", "(+ 1 (* x1 x2)"),
    ("parse", "(+ 1 2) x1"),
    ("parse", "(+ 1 #)"),
    ("parse", "(+ (* x1 x2) (* x1 x2) 3/0)"),
    ("parse", "x4"),
    ("parse", "(+)"),
    ("parse", "(^ x1 x2)"),
    ("parse", "(gauss 1)"),
    ("parse", "(sin x1 x2)"),
    ("parse", "(+ 1 (D1 (F x1) (F x2)))"),
    ("parse", "(* (F x1 x2) (D3 (F x1 x2)))"),
    ("parse", "(+ (F x1) (G))"),
    ("parse", "(( x1) x2)"),
    ("normalize", "(^ 0 -1)"),
    ("normalize", "(^ (+ x1 (^ x2 1/3)) -1)"),
    ("parse", "(+ 1 " * 1000 + "x1" + ")" * 1000),
    ("normalize", "(exp " * 600 + "x1" + ")" * 600),
    ("parse", "-1/2"),
    ("parse", "-x1"),
    ("normalize", "(^ x1 \u0661/\u0662)"),
    ("parse", "(gauss \u0661 2)"),
    ("parse", "(D\u0661 (F x1))"),
    ("normalize", f"(* {_WIDE_SUM} (+ (^ (+ x1 2) 2/3) (* a40 a0) x3) {_WIDE_DEN} {_WIDE_DEN})"),
    ("normalize", f"(+ (^ {_WIDE_SUM} 3) (* -1 {_WIDE_SUM} {_WIDE_SUM} {_WIDE_SUM}))"),
    ("normalize", "(^ (+ x1 x2 1) 100)"),
    ("normalize", "(^ (+ x1 x2 1) 200)"),
    ("normalize", "(^ (+ x1 1) -2147483648)"),
    ("parse", "1" * 5001),
    ("normalize", "(+ x1 1/" + "1" * 5001 + ")"),
    ("parse", "(^ 10 5000)"),
    ("normalize", "(^ 10 5000)"),
    ("parse", "(^ 10 -5000)"),
    ("normalize", "(^ 10 -5000)"),
    ("parse", "(* x1 (^ 10 5000))"),
    ("normalize", "(* x1 (^ 10 5000))"),
    ("parse", "(^ x1 (^ 10 5000))"),
    ("normalize", "(^ (+ x1 1) (^ 10 5000))"),
    ("normalize", "(^ 2 65537)"),
    ("normalize", "(^ (+ x1 1000) 30)"),
    ("normalize", "(* (^ (+ x1 (* -1 x1)) -1) (^ x1 2147483647) x1)"),
    ("normalize", "(* (^ x1 2147483647) (+ x1 1) (^ (+ x2 (* -1 x2)) -1))"),
    ("normalize", "(* (^ x1 1073741824) (^ x1 1073741823) x2)"),
    ("normalize", "(* (gauss 1 2) mu (^ x2 3) (^ (+ x1 1) -1) (exp x3))"),
    ("normalize", "(+ (* x1 (^ x2 -1)) (* -1 x1 (^ x2 -1)) (* x3 (^ x2 -1)) 1)"),
    ("normalize", "(+ (* x1 (^ x2 -1)) (* x3 (^ (+ x2 1) -1)) (* -1 x1 (^ x2 -1)))"),
    ("parse", "(* (^ 0 -2) x1)"),
    ("normalize", "(* (^ 0 -2) x1)"),
    ("parse", "(^ 0 -1/2)"),
    ("normalize", "(^ 0 -1/2)"),
    ("parse", "(* 5 (+ x1 x2) 7)"),
    ("normalize", "(* 5 (+ x1 x2) 7)"),
    ("parse", "(^ x1 4/2)"),
    ("normalize", "(^ x1 4/2)"),
    ("parse", "(^ x1 -6/3)"),
    ("normalize", "(^ x1 -6/3)"),
    ("parse", "(^ (^ x1 1/2) 4)"),
    ("normalize", "(^ (^ x1 1/2) 4)"),
    ("parse", "(^ (^ x1 2) 3/2)"),
    ("normalize", "(^ (^ x1 2) 3/2)"),
    ("parse", "(* (^ x1 2/1) (^ x1 -2))"),
    ("normalize", "(* (^ x1 2/1) (^ x1 -2))"),
    ("parse", "(^ (gauss 9 0) -1/2)"),
    ("normalize", "(^ (gauss 9 0) -1/2)"),
    ("parse", "(gauss 4/2 -2/2)"),
    ("normalize", "(gauss 4/2 -2/2)"),
)

# Arguments of `pdmlab spectrum` that are bad input: each exits with rc 2
# and one `spectrum error:` line on stderr.  The two after --count 17 pass
# the eigensolver's memory bound, min(grid, 3 count + 24) x grid at most
# 8,000,000; a revision without the bound solves them.  The seven scale
# inputs after --omega 0 are non-finite or overflow a float in the Bessel
# residual, which a revision without those checks ends with a traceback.
# The next three are good input and print their line: --kappa 100, and
# --omega 6 and 10, where a float sum of the Bessel series lost its
# digits and failed the residual with rc 1.  Last, good so4 tables: at an
# even grid the solver splits the matrix into two mirror blocks, and at an
# odd grid it solves one block, so both paths print the revision's bytes.
# They take one level, three, ten and every level of 16 points.  The
# --dump file is not compared: its phi values are Ritz vectors, which
# another Krylov space moves in the tenth significant digit.
SPECTRUM_INPUTS = (
    ("--system", "so4", "--grid", "8"),
    ("--system", "so4", "--l", "-1"),
    ("--system", "so4", "--dump", "/nonexistent/x.txt"),
    ("--system", "so4", "--count", "0"),
    ("--system", "so4", "--count", "-3"),
    ("--system", "so4", "--count", "17", "--grid", "16"),
    ("--system", "so4", "--count", "19", "--grid", "100000"),
    ("--system", "so4", "--count", "1", "--grid", "300000"),
    ("--system", "scale", "--etilde", "3"),
    ("--system", "scale", "--omega", "0"),
    ("--system", "scale", "--etilde", "nan"),
    ("--system", "scale", "--etilde=-inf"),
    ("--system", "scale", "--etilde=-1e308"),
    ("--system", "scale", "--omega", "nan"),
    ("--system", "scale", "--omega", "inf"),
    ("--system", "scale", "--omega", "1e308"),
    ("--system", "scale", "--kappa", "100000"),
    ("--system", "scale", "--kappa", "100"),
    ("--system", "scale", "--omega", "6"),
    ("--system", "scale", "--omega", "10"),
    *(("--system", "so4", "--l", l, "--count", "10", "--grid", grid)
      for l in ("1", "3", "20") for grid in ("4000", "100000")),
    ("--system", "so4", "--count", "10", "--grid", "17"),
    ("--system", "so4", "--l", "3", "--count", "10", "--grid", "4001"),
    ("--system", "so4", "--count", "1"),
    ("--system", "so4", "--count", "3"),
    ("--system", "so4", "--count", "16", "--grid", "16"),
)

# Options that a subcommand, or the chosen --system or --kind, does not read,
# after a command that runs without them, and --worked with --entry: each is
# bad input, rc 2 with no stdout.  The seven after --worked were accepted and
# ignored before `spectrum` and `transform` took only their own options.
# Then values out of range and --json paths that cannot be written, also
# rc 2 with no stdout: a revision without the checks reports a tol of 1 or
# more as passing every residual, nan as failing every one, and --points 0
# as inconclusive; and it prints a whole report, then a traceback, for the
# --json path.  A revision without the --rel-tol check fails a right
# spectrum table at nan, -1 and 0, with rc 1, and passes any table at inf
# and 1.  Last, transform rationals with a zero denominator and a zero
# dilatation, which a revision without the checks ends with a
# ZeroDivisionError traceback.  Then exact dilatation scales of both signs,
# which both trees run, and a decimal one, which a revision without the
# [+-]digits[/digits] grammar reads as 3/2.
OPTION_INPUTS = (
    ("spectrum", "--system", "scale", "--json", "out.json"),
    ("transform", "--kind", "rotation", "--entry", "10", "--json", "out.json"),
    ("expr", "parse", "x1", "--json", "out.json"),
    ("catalog", "list", "--json", "out.json"),
    ("algebra", "--check", "so4", "--points", "3"),
    ("algebra", "--check", "so4", "--tol", "1e-3"),
    ("casimir", "--system", "so4", "--points", "3"),
    ("casimir", "--system", "so4", "--tol", "1e-3"),
    ("spectrum", "--system", "scale", "--points", "3"),
    ("spectrum", "--system", "scale", "--tol", "1e-3"),
    ("transform", "--kind", "rotation", "--entry", "10", "--points", "3"),
    ("transform", "--kind", "rotation", "--entry", "10", "--tol", "1e-3"),
    ("expr", "parse", "x1", "--points", "3"),
    ("expr", "parse", "x1", "--tol", "1e-3"),
    ("catalog", "list", "--points", "3"),
    ("catalog", "list", "--tol", "1e-3"),
    ("catalog", "list", "--entry", "3"),
    ("catalog", "list", "--all"),
    ("catalog", "list", "--worked"),
    ("catalog", "verify", "--entry", "9", "--worked"),
    ("spectrum", "--system", "scale", "--grid", "8", "--dump", "d.txt"),
    ("spectrum", "--system", "so4", "--omega", "3"),
    ("transform", "--kind", "rotation", "--entry", "10", "--nu", "x", "--weight", "5"),
    ("transform", "--kind", "shift", "--nu", "0,0,1", "--entry", "10", "--axis", "1"),
    ("transform", "--kind", "dilatation", "--scale", "3/2", "--entry", "14", "--sin", "0"),
    ("transform", "--kind", "inversion", "--entry", "18", "--scale", "2"),
    ("transform", "--kind", "rotation", "--entry", "10", "--weight", "auto"),
    ("catalog", "verify", "--entry", "2", "--tol", "inf"),
    ("catalog", "verify", "--entry", "1", "--tol", "nan"),
    ("catalog", "verify", "--entry", "2", "--tol", "1"),
    ("catalog", "verify", "--entry", "1", "--points", "0"),
    ("catalog", "verify", "--entry", "1", "--json", "/nonexistent/x.json"),
    ("algebra", "--check", "so4", "--json", "/nonexistent/x.json"),
    ("casimir", "--system", "so4", "--json", "/nonexistent/x.json"),
    ("spectrum", "--system", "so4", "--count", "2", "--rel-tol=nan"),
    ("spectrum", "--system", "so4", "--count", "2", "--rel-tol=-1"),
    ("spectrum", "--system", "so4", "--count", "2", "--rel-tol=0"),
    ("spectrum", "--system", "so4", "--count", "2", "--rel-tol=inf"),
    ("spectrum", "--system", "so4", "--count", "2", "--rel-tol=1"),
    ("transform", "--kind", "dilatation", "--scale", "0", "--entry", "14"),
    ("transform", "--kind", "dilatation", "--scale", "1/0", "--entry", "14"),
    ("transform", "--kind", "shift", "--nu", "1/0,0,0", "--entry", "10"),
    ("transform", "--kind", "rotation", "--cos", "1/0", "--sin", "0", "--entry", "10"),
    ("transform", "--kind", "dilatation", "--scale", "3/2", "--entry", "14"),
    ("transform", "--kind", "dilatation", "--scale=-3/2", "--entry", "14"),
    ("transform", "--kind", "dilatation", "--scale", "1.5", "--entry", "14"),
)


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(src: Path, args: list, seed: int, json_report: bool, workdir: Path,
        one_cpu: bool = False) -> tuple:
    """(exit code, stdout, stderr, JSON report bytes or None) of one command,
    run in an empty directory so that relative paths print the same, and
    pinned to one CPU when one_cpu is set."""
    workdir.mkdir()
    argv = [sys.executable, "-m", "pdmlab", *args, "--seed", str(seed)]
    if json_report:
        argv.append("--json=report.json")
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(src), cwd=workdir,
                              timeout=RUN_TIMEOUT_S, preexec_fn=_one_cpu if one_cpu else None)
    except subprocess.TimeoutExpired as exc:
        return "timeout", exc.stdout or b"", exc.stderr or b"", None
    report = workdir / "report.json"
    return proc.returncode, proc.stdout, proc.stderr, report.read_bytes() if report.exists() else None


def print_stdout_diff(rev: str, old: bytes, new: bytes) -> None:
    """The first DIFF_LINES lines of the unified diff from REV's stdout to
    the tree's, indented under the verdict line."""
    diff = list(difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                     new.decode(errors="replace").splitlines(),
                                     rev, "tree", lineterm=""))
    for line in diff[:DIFF_LINES]:
        print(f"    {shorten(line, DIFF_WIDTH)}", flush=True)
    if len(diff) > DIFF_LINES:
        print(f"    ... {len(diff) - DIFF_LINES} more diff lines", flush=True)


def shorten(text: str, width: int = 40) -> str:
    return text if len(text) <= width else text[:width - 3] + "..."


def compare_inputs(rev: str, trees: dict, tmp: Path, kind: str, commands: list) -> int:
    """Run each (arguments, shown name) of commands at the first seed under
    both trees, print one verdict line each and a count, and return how
    many differ in exit code, stdout or stderr."""
    differ = 0
    for n, (args, shown) in enumerate(commands):
        out = {name: run(src, args, SEEDS[0], False, tmp / f"{name}-{kind}-{n}")[:3]
               for name, src in trees.items()}
        bad = [f for f, a, b in zip(("rc", "stdout", "stderr"), out["rev"], out["tree"])
               if a != b]
        differ += bool(bad)
        verdict = f"DIFFERS in {', '.join(bad)}" if bad else "identical"
        print(f"{shown}: {verdict}", flush=True)
        if "stdout" in bad:
            print_stdout_diff(rev, out["rev"][1], out["tree"][1])
    print(f"{differ} of {len(commands)} {kind} inputs differ from {rev}", flush=True)
    return differ


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def kernel_items(src: Path, seed: int, part: int, workdir: Path) -> list:
    """[kind, op_s, ok, digest] of every item of one kernel-stream run of
    one part, untraced."""
    workdir.mkdir()
    out = workdir / "kernel.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "kernel_stream.py"), "--seed", str(seed),
            "--part", str(part), "--trace", "0", "--out", str(out)]
    subprocess.run(argv, capture_output=True, env=child_env(src), cwd=workdir, check=True)
    return json.loads(out.read_text())["items"]


def compare_kernel(rev_items: list, tree_items: list) -> tuple:
    """(items whose verdict or digest differs, stopped at REV, stopped in
    the tree); a stopped item has op_s None."""
    differ = stopped_rev = stopped_tree = 0
    for old, new in zip(rev_items, tree_items, strict=True):
        stopped_rev += old[1] is None
        stopped_tree += new[1] is None
        if old[1] is not None and new[1] is not None:
            differ += (old[0], old[2], old[3]) != (new[0], new[2], new[3])
    return differ, stopped_rev, stopped_tree


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write("usage: python3 tools/bytecheck.py REV\n")
        return 2
    rev = sys.argv[1]
    pins = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    differ = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        trees = {"rev": extract_src(rev, tmp / "rev"), "tree": ROOT / "src"}
        runs = [(command, pin, False) for command, pin in pins.items()]
        runs += [(command, pins[command], True) for command in ONE_CPU]
        for n, (command, pin, one_cpu) in enumerate(runs):
            for seed in SEEDS:
                out = {name: run(src, command.split(), seed, "checks" in pin,
                                 tmp / f"{name}-{n}-{seed}", one_cpu)
                       for name, src in trees.items()}
                fields = ("rc", "stdout", "stderr", "json")
                bad = [f for f, a, b in zip(fields, out["rev"], out["tree"]) if a != b]
                differ += bool(bad)
                verdict = f"DIFFERS in {', '.join(bad)}" if bad else "identical"
                shown = f"{command} --seed {seed}" + (" (one CPU)" if one_cpu else "")
                print(f"{shown}: {verdict}", flush=True)
                if "stdout" in bad:
                    print_stdout_diff(rev, out["rev"][1], out["tree"][1])
        print(f"{differ} of {len(SEEDS) * len(runs)} runs differ from {rev}", flush=True)
        expr_differ = compare_inputs(
            rev, trees, tmp, "expr",
            [(["expr", action, text], f"expr {action} {shorten(text)!r}")
             for action, text in EXPR_INPUTS])
        spectrum_differ = compare_inputs(
            rev, trees, tmp, "spectrum",
            [(["spectrum", *args], " ".join(("spectrum", *args))) for args in SPECTRUM_INPUTS])
        option_differ = compare_inputs(
            rev, trees, tmp, "option",
            [(list(args), " ".join(args)) for args in OPTION_INPUTS])
        kernel_differ = 0
        for seed in SEEDS:
            for part in KERNEL_PARTS:
                items = {name: kernel_items(src, seed, part, tmp / f"kernel-{name}-{seed}-{part}")
                         for name, src in trees.items()}
                bad, stopped_rev, stopped_tree = compare_kernel(items["rev"], items["tree"])
                kernel_differ += bool(bad)
                verdict = f"{bad} items DIFFER" if bad else "identical"
                print(f"kernel-stream --seed {seed} --part {part}: {verdict} "
                      f"({len(items['tree'])} items; stopped {stopped_rev} at {rev}, "
                      f"{stopped_tree} in the tree)", flush=True)
        print(f"{kernel_differ} of {len(SEEDS) * len(KERNEL_PARTS)} kernel-stream runs differ"
              f" from {rev}")
    return 1 if differ or expr_differ or spectrum_differ or option_differ or kernel_differ else 0


if __name__ == "__main__":
    sys.exit(main())
