"""Command-line front end: verification suites, spectrum tables, equivalence
transforms and expression round-trips.

Each subcommand takes only the options it reads.  Every one takes --seed;
the report commands (catalog verify, algebra, casimir) take --json PATH;
catalog verify, the one command whose checks sample, takes --points and
--tol, and the other report headers record the default policy.  `spectrum`
and `transform` take the options of the chosen --system or --kind only.
Any other option is bad input.

Exit codes: 0 all checks passed (annotations do not fail a run), 1 at least
one check failed or stdout was closed before the output was written, 2 bad
arguments or input: among them a numeric option not written in ASCII
digits, a --points below 1, a --tol or a spectrum --rel-tol outside (0, 1)
and a --json path that cannot be opened for writing.  Reruns with the same seed and inputs produce byte-identical
output.

`catalog verify --all` shares its rows and worked families with one forked
worker when the process may run on two or more CPUs
(verify.verify_all); the report is the same either way.

Each command imports only the modules that it runs.  This module holds the
parser, main, the handlers of `catalog` and `expr` and the helpers that
more than one handler uses; the handler of `algebra`, `casimir`, `spectrum`
and `transform` lives in the module of its own command (algebra, casimir,
spectral, transform), which is imported when that command runs.  So
`spectrum`, which computes in floats, loads no kernel (pdmlab.symkernel);
`catalog list` no operator module (conformal, diffop); only `transform`
loads pdmlab.transform, and it loads no report; only `algebra` loads
pdmlab.algebra; and only `catalog verify`, whose checks sample, loads
pdmlab.verify, the zero test and hashlib.  json loads with --json alone.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from importlib import import_module

from . import __version__


def _policy(args) -> dict:
    """The zero-test policy of a report command, as the fields of
    ZeroTestPolicy: the given --points, --tol and --seed, and the defaults
    for the rest.  The defaults are read from pdmlab.symkernel, so algebra
    and casimir, whose checks never sample, load no zero test."""
    from .symkernel import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL

    defaults = {"points": DEFAULT_POINTS, "tol": DEFAULT_TOL, "seed": DEFAULT_SEED}
    given = {name: getattr(args, name, None) for name in defaults}
    return {name: defaults[name] if v is None else v for name, v in given.items()}


def _document(policy: dict):
    from .report import ReportDocument

    return ReportDocument(
        seed=policy["seed"], policy={"points": policy["points"], "tol": policy["tol"]}
    )


def _report(args, build) -> int:
    """Print the report that build() returns, and write it to --json PATH.
    The path is opened before build() runs any check: one that cannot be
    written is bad input, one error line and no output."""
    try:
        out = open(args.json, "w") if args.json else None
    except OSError as err:
        print(f"{args.command} error: {err}", file=sys.stderr)
        return 2
    with out or contextlib.nullcontext():
        doc = build()
        sys.stdout.write(doc.to_text())
        if out:
            out.write(doc.to_json())
    return 0 if doc.passed else 1


def _cmd_catalog_list(args) -> int:
    from . import catalog
    from .symkernel import normalize, to_sexpr

    rows = catalog.load_catalog()
    for eid in sorted(rows):
        row = rows[eid]
        f = to_sexpr(normalize(row.f))
        V = to_sexpr(normalize(row.V))
        print(f"{eid:>2}  f = {f}")
        print(f"    V = {V}")
        print(f"    integrals: {', '.join(row.integrals)}")
    return 0


def _cmd_catalog_verify(args) -> int:
    from . import catalog, verify
    from .symkernel import ZeroTestPolicy

    if args.worked and args.entry is not None:
        print("catalog error: --worked goes with --all, not --entry", file=sys.stderr)
        return 2
    fields = _policy(args)
    policy = ZeroTestPolicy(**fields)

    def build():
        doc = _document(fields)
        if args.entry is not None:
            doc.add(catalog.verify_entry(args.entry, policy))
        else:
            for rep in verify.verify_all(policy, worked=args.worked):
                doc.add(rep)
        return doc

    return _report(args, build)


def _take_options(args, table: dict, chosen: str, flag: str):
    """Set the defaults of the options that `chosen` reads, and return the
    error text for the first given option that it does not read, or None.

    table maps each --system of `spectrum` (spectral.SPECTRUM_OPTIONS) or
    each --kind of `transform` (transform.TRANSFORM_OPTIONS) to the options
    it reads and their defaults.  Their parser defaults are None, so an
    option given to a system or kind that does not read it is seen."""
    for choice, options in table.items():
        for name, default in options.items():
            if choice == chosen:
                if getattr(args, name) is None:
                    setattr(args, name, default)
            elif getattr(args, name) is not None:
                option = "--" + name.replace("_", "-")
                return f"{option} is not read by {flag} {chosen}"
    return None


def _handler(module: str, name: str):
    """The handler `name` of pdmlab.<module>, a module that only its own
    command runs; the module is imported when the command runs."""

    def run(args) -> int:
        return getattr(import_module(f"{__package__}.{module}"), name)(args)

    return run


def _cmd_expr(args) -> int:
    from .symkernel import ExprError, normalize, parse_sexpr, to_sexpr
    from .symkernel.sexpr import ParseError

    try:
        e = parse_sexpr(args.expression)
        text = to_sexpr(e if args.action == "parse" else normalize(e))
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ExprError, ArithmeticError) as err:
        # the kernel rejects the input: a zero to a negative power, a root
        # it cannot rationalize, nesting deeper than the interpreter allows
        print(f"expression error: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0


# The numeric options' forms, compiled on first use: int() and float() also
# read other scripts' digits, padding and underscores.
INTEGER = r"[+-]?[0-9]+"
_FLOAT = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"


def _number(kind, text: str):
    """kind(text) of [+-]digits (int), or of an ASCII decimal, inf or nan
    (float), failing with argparse's own message for a bad number."""
    if re.fullmatch(INTEGER if kind is int else _FLOAT, text):
        with contextlib.suppress(ValueError):  # an int past the digit limit of int()
            return kind(text)
    raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")


def _int(text: str) -> int:
    return _number(int, text)


def _float(text: str) -> float:
    return _number(float, text)


def _points(text: str) -> int:
    n = _number(int, text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return n


def _tol(text: str) -> float:
    # a bound on a relative error, for --tol and --rel-tol: the numeric tier
    # compares |v| / (1 + scale), which is below 1 for every sample, so a tol
    # of 1 or more accepts every residual; a --rel-tol of inf passes any
    # table, and nan, 0 or below fails a right one
    tol = _number(float, text)
    if not 0 < tol < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), not {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmlab",
        description="verification lab for position-dependent-mass operators",
    )
    parser.add_argument("--version", action="version", version=f"pdmlab {__version__}")
    # --seed is taken by every command, so that one argument list runs any
    # of them at a chosen seed; it sets the seed of the sampling checks and
    # the seed that a report records.  --seed, --points and --tol default
    # to None, which _policy reads as the zero test's default.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int, help="seed for the numeric zero-test tier")
    reported = argparse.ArgumentParser(add_help=False, parents=[seeded])
    reported.add_argument("--json", metavar="PATH", help="write the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list or verify the eighteen-class catalog")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list", parents=[seeded], help="print the eighteen rows")
    p_list.set_defaults(func=_cmd_catalog_list)
    p_ver = cat_sub.add_parser("verify", parents=[reported], help="verify rows")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", type=_int, choices=range(1, 19), metavar="N",
                       help="verify a single row (1..18)")
    group.add_argument("--all", action="store_true", help="verify every row")
    p_ver.add_argument("--worked", action="store_true",
                       help="with --all, also verify the worked solution families")
    p_ver.add_argument("--points", type=_points,
                       help="sample points per numeric zero test, at least 1")
    p_ver.add_argument("--tol", type=_tol,
                       help="relative tolerance of the numeric tier, in (0, 1)")
    p_ver.set_defaults(func=_cmd_catalog_verify)

    p_alg = sub.add_parser("algebra", parents=[reported],
                           help="structure-constant and subalgebra suites")
    g = p_alg.add_mutually_exclusive_group(required=True)
    g.add_argument("--check", choices=["c3", "so14", "so4", "so13"])
    g.add_argument("--subalgebras", action="store_true")
    p_alg.set_defaults(func=_handler("algebra", "_cmd_algebra"))

    p_spec = sub.add_parser("spectrum", parents=[seeded],
                            help="radial eigenvalue tables and Bessel residuals")
    p_spec.add_argument("--system", choices=["so4", "scale"], required=True)
    # so4 reads --l ... --dump-index, scale reads --kappa, --etilde, --omega;
    # the defaults are in spectral.SPECTRUM_OPTIONS
    p_spec.add_argument("--l", type=_int)
    p_spec.add_argument("--count", type=_int)
    p_spec.add_argument("--grid", type=_int)
    p_spec.add_argument("--rel-tol", type=_tol,
                        help="bound on each level's relative error, in (0, 1)")
    p_spec.add_argument("--dump", metavar="PATH",
                        help="write a two-column (r, phi) eigenfunction dump")
    p_spec.add_argument("--dump-index", type=_int)
    p_spec.add_argument("--kappa", type=_int)
    p_spec.add_argument("--etilde", type=_float)
    p_spec.add_argument("--omega", type=_float)
    p_spec.set_defaults(func=_handler("spectral", "_cmd_spectrum"))

    p_cas = sub.add_parser("casimir", parents=[reported],
                           help="Casimir identity reports")
    p_cas.add_argument("--system", choices=["so4", "so13"], required=True)
    p_cas.set_defaults(func=_handler("casimir", "_cmd_casimir"))

    p_tr = sub.add_parser("transform", parents=[seeded],
                          help="equivalence transformations of catalog rows")
    p_tr.add_argument("--kind", choices=["shift", "rotation", "dilatation", "inversion"],
                      required=True)
    p_tr.add_argument("--entry", type=_int, choices=range(1, 19), metavar="N",
                      required=True)
    # each kind reads its own options; the defaults are in
    # transform.TRANSFORM_OPTIONS
    p_tr.add_argument("--nu", help="shift vector a,b,c (rationals)")
    p_tr.add_argument("--scale", help="dilatation factor (rational)")
    p_tr.add_argument("--axis", help="rotation axis: 1, 2 or 3")
    p_tr.add_argument("--cos", help="rotation cosine (rational)")
    p_tr.add_argument("--sin", help="rotation sine (rational)")
    p_tr.add_argument("--weight",
                      help="inversion multiplier exponent, or 'auto' to search")
    p_tr.set_defaults(func=_handler("transform", "_cmd_transform"))

    p_expr = sub.add_parser("expr", parents=[seeded],
                            help="parse or normalize a text-grammar expression")
    p_expr.add_argument("action", choices=["parse", "normalize"])
    p_expr.add_argument("expression")
    # A text such as -1/2 or -x1 goes to the parser, not to argparse as an
    # unknown option: argparse takes an argument that its negative-number
    # pattern matches for a positional when no option looks like one.
    # -h matches an option exactly and stays help; --name stays an option.
    p_expr._negative_number_matcher = re.compile(r"^-[^-]")
    p_expr.set_defaults(func=_cmd_expr)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one kernel scope per command: its checks share normal forms, and the
    # memo ends with the command.  `spectrum` computes in floats, and it
    # loads no kernel.
    if args.command == "spectrum":
        scope = contextlib.nullcontext()
    else:
        from .symkernel import kernel_scope as scope
    try:
        with scope:
            code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`pdmlab catalog list | head -1`):
        # the rest of the output has nowhere to go, and the interpreter's
        # own flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
