"""Command-line front end: verification suites, spectrum tables, equivalence
transforms and expression round-trips.

Exit codes: 0 all checks passed (annotations do not fail a run), 1 at least
one check failed, 2 bad arguments.  Reruns with the same seed and inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .report import ReportDocument
from .symkernel import ExprError, ZeroTestPolicy, parse_sexpr, to_sexpr, normalize
from .symkernel.sexpr import ParseError


def _policy_from(args) -> ZeroTestPolicy:
    return ZeroTestPolicy(points=args.points, tol=args.tol, seed=args.seed)


def _document(policy: ZeroTestPolicy) -> ReportDocument:
    return ReportDocument(
        seed=policy.seed, policy={"points": policy.points, "tol": policy.tol}
    )


def _emit(doc: ReportDocument, args) -> int:
    sys.stdout.write(doc.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(doc.to_json())
    return 0 if doc.passed else 1


def _cmd_catalog(args) -> int:
    from . import catalog

    policy = _policy_from(args)
    if args.action == "list":
        rows = catalog.load_catalog()
        for eid in sorted(rows):
            row = rows[eid]
            f = to_sexpr(normalize(row.f))
            V = to_sexpr(normalize(row.V))
            print(f"{eid:>2}  f = {f}")
            print(f"    V = {V}")
            print(f"    integrals: {', '.join(row.integrals)}")
        return 0
    doc = _document(policy)
    if args.entry is not None:
        doc.add(catalog.verify_entry(args.entry, policy))
    else:
        for rep in catalog.verify_all(policy):
            doc.add(rep)
        if args.worked:
            for name in catalog.WORKED_FAMILIES:
                doc.add(catalog.verify_worked_family(name, policy))
    return _emit(doc, args)


def _cmd_algebra(args) -> int:
    from . import conformal

    policy = _policy_from(args)
    doc = _document(policy)
    if args.subalgebras:
        for rep in conformal.verify_subalgebras():
            doc.add(rep)
        return _emit(doc, args)
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
    return _emit(doc, args)


def _cmd_spectrum(args) -> int:
    from . import casimir, spectral

    if args.system == "so4":
        prob = spectral.RadialProblem(
            system="so4", l=args.l, r_min=args.rmin, r_max=args.rmax,
            grid_points=args.grid,
        )
        vals = spectral.fd_eigenvalues(prob, args.count)
        if args.dump:
            spectral.dump_eigenfunction(prob, args.dump_index, args.dump)
        print("system,l_or_kappa,index,lambda_fd,lambda_exact,rel_err")
        rows = []
        for i, v in enumerate(vals):
            n = args.l + 1 + i
            exact = spectral.exact_so4_eigenvalue(n)
            rel = abs(v - exact) / exact
            rows.append((i, v, exact, rel))
            print(f"so4,{args.l},{i},{v:.10g},{exact:.10g},{rel:.3e}")
        print()
        print("n,Etilde,E_mu_coeff,E_const")
        for i in range(len(vals)):
            lv = casimir.algebraic_spectrum_so4(args.l + 1 + i)
            print(f"{lv.n},{lv.etilde},{lv.mu_coeff},{lv.nu_coeff}")
        ok = all(r[3] < args.rel_tol for r in rows)
        return 0 if ok else 1
    # scale system: Bessel residual line
    sol = spectral.ClosedFormSolution(
        system="scale", kappa=args.kappa, etilde=args.etilde, omega=args.omega
    )
    import numpy as np

    pts = np.linspace(0.2, 4.0, 25)
    res = spectral.closed_form_residual(sol, pts)
    beta = (args.kappa**2 + 1 - args.etilde) ** 0.5
    print("system,kappa,Etilde,omega,index_beta,max_residual,points")
    print(f"scale,{args.kappa},{args.etilde},{args.omega},{beta:.10g},{res:.3e},{len(pts)}")
    return 0 if res < 1e-8 else 1


def _cmd_casimir(args) -> int:
    from . import casimir

    policy = _policy_from(args)
    doc = _document(policy)
    doc.add(casimir.verify_casimir_identity(args.system))
    doc.add(casimir.verify_casimir_centrality(args.system))
    if args.system == "so4":
        doc.add(casimir.verify_qg_decoupling())
    else:
        doc.add(casimir.so13_window_report())
    return _emit(doc, args)


def _cmd_transform(args) -> int:
    from fractions import Fraction

    from . import catalog
    from .conformal import FormError, TransformSpec, apply_transform, axis_rotation, find_inversion_weight
    from .diffop import PDMHamiltonian

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmlab",
        description="verification lab for position-dependent-mass operators",
    )
    parser.add_argument("--version", action="version", version=f"pdmlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the report as JSON")
    common.add_argument("--seed", type=int, default=ZeroTestPolicy().seed,
                        help="seed for the numeric zero-test tier")
    common.add_argument("--points", type=int, default=50,
                        help="sample points per numeric zero test")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="relative tolerance of the numeric tier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", parents=[common],
                           help="list or verify the eighteen-class catalog")
    p_cat.add_argument("action", choices=["list", "verify"])
    group = p_cat.add_mutually_exclusive_group()
    group.add_argument("--entry", type=int, choices=range(1, 19), metavar="N",
                       help="verify a single row (1..18)")
    group.add_argument("--all", action="store_true", help="verify every row")
    p_cat.add_argument("--worked", action="store_true",
                       help="with --all, also verify the worked solution families")
    p_cat.set_defaults(func=_cmd_catalog)

    p_alg = sub.add_parser("algebra", parents=[common],
                           help="structure-constant and subalgebra suites")
    g = p_alg.add_mutually_exclusive_group(required=True)
    g.add_argument("--check", choices=["c3", "so14", "so4", "so13"])
    g.add_argument("--subalgebras", action="store_true")
    p_alg.set_defaults(func=_cmd_algebra)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="radial eigenvalue tables and Bessel residuals")
    p_spec.add_argument("--system", choices=["so4", "scale"], required=True)
    p_spec.add_argument("--l", type=int, default=0)
    p_spec.add_argument("--count", type=int, default=3)
    p_spec.add_argument("--grid", type=int, default=4000)
    p_spec.add_argument("--rmin", type=float, default=1e-3)
    p_spec.add_argument("--rmax", type=float, default=30.0)
    p_spec.add_argument("--rel-tol", type=float, default=5e-3)
    p_spec.add_argument("--kappa", type=int, default=0)
    p_spec.add_argument("--etilde", type=float, default=1.0)
    p_spec.add_argument("--omega", type=float, default=2.0)
    p_spec.add_argument("--dump", metavar="PATH",
                        help="write a two-column (r, phi) eigenfunction dump")
    p_spec.add_argument("--dump-index", type=int, default=0)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_cas = sub.add_parser("casimir", parents=[common],
                           help="Casimir identity reports")
    p_cas.add_argument("--system", choices=["so4", "so13"], required=True)
    p_cas.set_defaults(func=_cmd_casimir)

    p_tr = sub.add_parser("transform", parents=[common],
                          help="equivalence transformations of catalog rows")
    p_tr.add_argument("--kind", choices=["shift", "rotation", "dilatation", "inversion"],
                      required=True)
    p_tr.add_argument("--entry", type=int, choices=range(1, 19), metavar="N",
                      required=True)
    p_tr.add_argument("--nu", default="0,0,0", help="shift vector a,b,c (rationals)")
    p_tr.add_argument("--scale", default="2", help="dilatation factor (rational)")
    p_tr.add_argument("--axis", type=int, default=3, help="rotation axis")
    p_tr.add_argument("--cos", default="3/5", help="rotation cosine (rational)")
    p_tr.add_argument("--sin", default="4/5", help="rotation sine (rational)")
    p_tr.add_argument("--weight", default="auto",
                      help="inversion multiplier exponent, or 'auto' to search")
    p_tr.set_defaults(func=_cmd_transform)

    p_expr = sub.add_parser("expr", parents=[common],
                            help="parse or normalize a text-grammar expression")
    p_expr.add_argument("action", choices=["parse", "normalize"])
    p_expr.add_argument("expression")
    p_expr.set_defaults(func=_cmd_expr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "verify":
        if args.entry is None and not getattr(args, "all", False):
            parser.error("catalog verify needs --entry N or --all")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
