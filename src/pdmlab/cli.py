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
arguments or input: among them a --points below 1, a --tol or a spectrum
--rel-tol outside (0, 1) and a --json path that cannot be opened for
writing.  Reruns with the same seed and inputs produce byte-identical
output.

`catalog verify --all` shares its rows and worked families with one forked
worker when the process may run on two or more CPUs
(catalog.verify_all); the report is the same either way.

The kernel (pdmlab.symkernel) is imported by the commands that use it, so
`spectrum`, which computes in floats, loads none of it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from . import __version__
from .report import ReportDocument


def _policy(args):
    """The zero-test policy of a report command: the given --points, --tol
    and --seed, and ZeroTestPolicy's defaults for the rest."""
    from .symkernel import ZeroTestPolicy

    given = {name: getattr(args, name, None) for name in ZeroTestPolicy._fields}
    return ZeroTestPolicy(**{name: v for name, v in given.items() if v is not None})


def _document(policy) -> ReportDocument:
    return ReportDocument(
        seed=policy.seed, policy={"points": policy.points, "tol": policy.tol}
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
    from . import catalog

    if args.worked and args.entry is not None:
        print("catalog error: --worked goes with --all, not --entry", file=sys.stderr)
        return 2
    policy = _policy(args)

    def build():
        doc = _document(policy)
        if args.entry is not None:
            doc.add(catalog.verify_entry(args.entry, policy))
        else:
            for rep in catalog.verify_all(policy, worked=args.worked):
                doc.add(rep)
        return doc

    return _report(args, build)


def _cmd_algebra(args) -> int:
    from . import conformal

    def build():
        # no algebra check samples: the header records the default policy
        doc = _document(_policy(args))
        if args.subalgebras:
            for rep in conformal.verify_subalgebras():
                doc.add(rep)
            return doc
        checks = {
            "c3": conformal.verify_c3,
            "so14": conformal.verify_so14,
            "so4": conformal.verify_so4,
            "so13": conformal.verify_so13,
        }
        doc.add(checks[args.check]())
        if args.check in ("c3", "so14"):
            doc.add(conformal.verify_iso_roundtrip())
            doc.add(conformal.verify_killing_table())
        return doc

    return _report(args, build)


# The options that each --system of `spectrum` and each --kind of
# `transform` reads, with their defaults.  Their parser defaults are None,
# so an option given to a system or kind that does not read it is seen.
SPECTRUM_OPTIONS = {
    "so4": {"l": 0, "count": 3, "grid": 4000, "rel_tol": 5e-3, "dump": None, "dump_index": 0},
    "scale": {"kappa": 0, "etilde": 1.0, "omega": 2.0},
}
TRANSFORM_OPTIONS = {
    "shift": {"nu": "0,0,0"},
    "dilatation": {"scale": "2"},
    "rotation": {"axis": 3, "cos": "3/5", "sin": "4/5"},
    "inversion": {"weight": "auto"},
}


def _take_options(args, table: dict, chosen: str, flag: str):
    """Set the defaults of the options that `chosen` reads, and return the
    error text for the first given option that it does not read, or None."""
    for choice, options in table.items():
        for name, default in options.items():
            if choice == chosen:
                if getattr(args, name) is None:
                    setattr(args, name, default)
            elif getattr(args, name) is not None:
                option = "--" + name.replace("_", "-")
                return f"{option} is not read by {flag} {chosen}"
    return None


def _cmd_spectrum(args) -> int:
    # spectral alone: the table needs none of the operator modules
    from . import spectral

    unread = _take_options(args, SPECTRUM_OPTIONS, args.system, "--system")
    if unread:
        print(f"spectrum error: {unread}", file=sys.stderr)
        return 2
    # every input is checked, and the dump written, before the first line of
    # output: a rejected input prints its one error line and nothing else
    try:
        if args.system == "scale":
            sol = spectral.ClosedFormSolution(
                system="scale", kappa=args.kappa, etilde=args.etilde, omega=args.omega
            )
        else:
            if args.count < 1:
                raise ValueError(f"--count must be at least 1, not {args.count}")
            if args.dump and args.dump_index < 0:
                raise ValueError(f"--dump-index must be at least 0, not {args.dump_index}")
            prob = spectral.RadialProblem(system="so4", l=args.l, grid_points=args.grid)
            if args.dump:
                # one solve serves the table and the dump
                eig = spectral.fd_eigensystem(prob, max(args.count, args.dump_index + 1))
                spectral.dump_eigenfunction(prob, eig, args.dump_index, args.dump)
                vals = list(eig[0][:args.count])
            else:
                vals = spectral.fd_eigenvalues(prob, args.count)
    except (ValueError, OSError) as err:
        # a grid below 16 points, a negative l, more levels than grid
        # points, levels x grid past the solver's memory bound, a negative
        # index squared or omega, a dump path not writable
        print(f"spectrum error: {err}", file=sys.stderr)
        return 2
    except spectral.EigensolveError as err:
        # no table whose level indices the Sturm count did not certify
        print(f"spectrum error: {err}", file=sys.stderr)
        return 1
    if args.system == "scale":
        # Bessel residual line at the 25 points of numpy.linspace(0.2, 4.0,
        # 25), bit for bit, without loading numpy
        step = 3.8 / 24
        pts = [i * step + 0.2 for i in range(24)] + [4.0]
        res = spectral.closed_form_residual(sol, pts)
        beta = (args.kappa**2 + 1 - args.etilde) ** 0.5
        print("system,kappa,Etilde,omega,index_beta,max_residual,points")
        print(f"scale,{args.kappa},{args.etilde},{args.omega},{beta:.10g},{res:.3e},{len(pts)}")
        return 0 if res < 1e-8 else 1
    # level n = l + 1 + i has the radial eigenvalue Etilde - 4 = 4n^2 + 1
    levels = [spectral.algebraic_spectrum_so4(args.l + 1 + i) for i in range(len(vals))]
    print("system,l_or_kappa,index,lambda_fd,lambda_exact,rel_err")
    rels = []
    for i, (v, lv) in enumerate(zip(vals, levels)):
        exact = lv.etilde - 4
        rels.append(abs(v - exact) / exact)
        print(f"so4,{args.l},{i},{v:.10g},{exact:.10g},{rels[-1]:.3e}")
    print()
    print("n,Etilde,E_mu_coeff,E_const")
    for lv in levels:
        print(f"{lv.n},{lv.etilde},{lv.mu_coeff},{lv.nu_coeff}")
    return 0 if all(rel < args.rel_tol for rel in rels) else 1


def _cmd_casimir(args) -> int:
    from . import casimir

    def build():
        # no Casimir check samples: the header records the default policy
        doc = _document(_policy(args))
        doc.add(casimir.verify_casimir_identity(args.system))
        doc.add(casimir.verify_casimir_centrality(args.system))
        if args.system == "so4":
            doc.add(casimir.verify_qg_decoupling())
        else:
            doc.add(casimir.so13_window_report())
        return doc

    return _report(args, build)


def _cmd_transform(args) -> int:
    from fractions import Fraction

    from . import catalog
    from .conformal import FormError, TransformSpec, apply_transform, axis_rotation, find_inversion_weight
    from .diffop import PDMHamiltonian
    from .symkernel import normalize, to_sexpr

    unread = _take_options(args, TRANSFORM_OPTIONS, args.kind, "--kind")
    if unread:
        print(f"transform error: {unread}", file=sys.stderr)
        return 2
    row = catalog.entry(args.entry)
    h = PDMHamiltonian(row.f, row.V)
    try:
        if args.kind == "shift":
            nu = tuple(Fraction(s) for s in args.nu.split(","))
            if len(nu) != 3:
                raise ValueError("--nu needs three comma-separated rationals")
            out = apply_transform(TransformSpec(kind="shift", nu=nu), h)
            w = None
        elif args.kind == "dilatation":
            out = apply_transform(
                TransformSpec(kind="dilatation", scale=Fraction(args.scale)), h
            )
            w = None
        elif args.kind == "rotation":
            R = axis_rotation(args.axis, Fraction(args.cos), Fraction(args.sin))
            out = apply_transform(TransformSpec(kind="rotation", rotation=R), h)
            w = None
        else:  # inversion
            if args.weight == "auto":
                w, out = find_inversion_weight(h)
            else:
                w = int(args.weight)
                out = apply_transform(
                    TransformSpec(kind="inversion_conjugation", weight_exponent=w), h
                )
    except FormError as e:
        print(f"form error: {e}")
        if e.obstruction is not None:
            ob = e.obstruction
            if isinstance(ob, tuple):
                for k, comp in enumerate(ob):
                    print(f"obstruction[{k}] = {to_sexpr(normalize(comp))}")
            else:
                print(f"obstruction = {to_sexpr(normalize(ob))}")
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if w is not None:
        print(f"weight_exponent = {w}")
    print(f"f' = {to_sexpr(normalize(out.f))}")
    print(f"V' = {to_sexpr(normalize(out.V))}")
    return 0


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


def _number(kind, text: str):
    """kind(text), failing with argparse's own message for a bad number."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


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
    # to None, which _policy reads as ZeroTestPolicy's default.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="seed for the numeric zero-test tier")
    reported = argparse.ArgumentParser(add_help=False, parents=[seeded])
    reported.add_argument("--json", metavar="PATH", help="write the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list or verify the eighteen-class catalog")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list", parents=[seeded], help="print the eighteen rows")
    p_list.set_defaults(func=_cmd_catalog_list)
    p_ver = cat_sub.add_parser("verify", parents=[reported], help="verify rows")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", type=int, choices=range(1, 19), metavar="N",
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
    p_alg.set_defaults(func=_cmd_algebra)

    p_spec = sub.add_parser("spectrum", parents=[seeded],
                            help="radial eigenvalue tables and Bessel residuals")
    p_spec.add_argument("--system", choices=["so4", "scale"], required=True)
    # so4 reads --l ... --dump-index, scale reads --kappa, --etilde, --omega;
    # the defaults are in SPECTRUM_OPTIONS
    p_spec.add_argument("--l", type=int)
    p_spec.add_argument("--count", type=int)
    p_spec.add_argument("--grid", type=int)
    p_spec.add_argument("--rel-tol", type=_tol,
                        help="bound on each level's relative error, in (0, 1)")
    p_spec.add_argument("--dump", metavar="PATH",
                        help="write a two-column (r, phi) eigenfunction dump")
    p_spec.add_argument("--dump-index", type=int)
    p_spec.add_argument("--kappa", type=int)
    p_spec.add_argument("--etilde", type=float)
    p_spec.add_argument("--omega", type=float)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_cas = sub.add_parser("casimir", parents=[reported],
                           help="Casimir identity reports")
    p_cas.add_argument("--system", choices=["so4", "so13"], required=True)
    p_cas.set_defaults(func=_cmd_casimir)

    p_tr = sub.add_parser("transform", parents=[seeded],
                          help="equivalence transformations of catalog rows")
    p_tr.add_argument("--kind", choices=["shift", "rotation", "dilatation", "inversion"],
                      required=True)
    p_tr.add_argument("--entry", type=int, choices=range(1, 19), metavar="N",
                      required=True)
    # each kind reads its own options; the defaults are in TRANSFORM_OPTIONS
    p_tr.add_argument("--nu", help="shift vector a,b,c (rationals)")
    p_tr.add_argument("--scale", help="dilatation factor (rational)")
    p_tr.add_argument("--axis", type=int, help="rotation axis")
    p_tr.add_argument("--cos", help="rotation cosine (rational)")
    p_tr.add_argument("--sin", help="rotation sine (rational)")
    p_tr.add_argument("--weight",
                      help="inversion multiplier exponent, or 'auto' to search")
    p_tr.set_defaults(func=_cmd_transform)

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
