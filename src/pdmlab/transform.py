"""Equivalence transformations of a PDM Hamiltonian and the `transform`
command.

A transformation is its map, a ConformalMap record that one constructor per
kind builds: shift, rotation and dilatation change coordinates, and
inversion is x -> x/r^2 with the multiplier r^w.  conjugate_second_order
and conjugate_first_order conjugate an operator by it;
conformal.apply_transform renormalizes the result into p f p - V form, and
the `transform` command prints the new f and V of a catalog row.  Only
`transform` and the callers of apply_transform load this module.
"""

from __future__ import annotations

import re
import sys

from . import read_only
from .diffop import FirstOrderOp, PDMHamiltonian, SecondOrderOp, X
from .symkernel import as_expr, diff, is_provably_zero, mul, normalize, subst, to_sexpr, x1, x2, x3
from .symkernel.expr import NUM_ZERO, add


_ZERO3 = (NUM_ZERO,) * 3


class ConformalMap:
    """An equivalence transformation: the substitution sigma applied inside
    wavefunctions, its inverse, and the multiplier m through grad m / m and
    (d_a d_b m) / m.  shift, rotation, dilatation and inversion build it;
    is_inversion, which only inversion sets, makes apply_transform require
    f and V rational in x."""

    __slots__ = ("sigma", "sigma_inv", "m_grad", "m_hess", "is_inversion")
    __setattr__ = __delattr__ = read_only

    def __init__(self, sigma: tuple, sigma_inv: tuple, m_grad: tuple = _ZERO3,
                 m_hess: tuple = (_ZERO3,) * 3, is_inversion: bool = False):
        for name, value in zip(self.__slots__, (sigma, sigma_inv, m_grad, m_hess, is_inversion)):
            object.__setattr__(self, name, value)


def shift(nu) -> ConformalMap:
    """x -> x - nu."""
    nu = tuple(as_expr(v) for v in nu)
    return ConformalMap(tuple(X[a] - nu[a] for a in range(3)),
                        tuple(X[a] + nu[a] for a in range(3)))


def rotation(R) -> ConformalMap:
    """x -> R^T x for an exactly orthogonal 3x3 matrix R."""
    R = tuple(tuple(as_expr(v) for v in row) for row in R)
    if len(R) != 3 or any(len(r) != 3 for r in R):
        raise ValueError("rotation needs a 3x3 matrix")
    if any(not is_provably_zero(add(*(mul(R[k][i], R[k][j]) for k in range(3))) - int(i == j))
           for i in range(3) for j in range(3)):
        raise ValueError("rotation matrix is not exactly orthogonal")
    return ConformalMap(
        tuple(add(*(mul(R[b][a], X[b]) for b in range(3))) for a in range(3)),  # R^T x
        tuple(add(*(mul(R[a][b], X[b]) for b in range(3))) for a in range(3)),  # R y
    )


def dilatation(scale) -> ConformalMap:
    """x -> scale x."""
    if scale == 0:
        raise ValueError("dilatation scale must be nonzero")
    s = as_expr(scale)
    return ConformalMap(tuple(mul(s, X[a]) for a in range(3)), tuple(X[a] / s for a in range(3)))


def inversion(w: int) -> ConformalMap:
    """x -> x/r^2, its own inverse, with the multiplier m = r^w."""
    r2 = x1**2 + x2**2 + x3**2
    sigma = tuple(X[a] / r2 for a in range(3))
    m_grad = tuple(mul(w, X[a]) / r2 for a in range(3))
    m_hess = tuple(tuple(mul(w, as_expr(int(a == b))) / r2 + mul(w * (w - 2), X[a] * X[b]) / r2**2
                         for b in range(3)) for a in range(3))
    return ConformalMap(sigma, sigma, m_grad, m_hess, is_inversion=True)


def axis_rotation(axis: int, cos_t, sin_t):
    """Exact rotation matrix about a coordinate axis; requires
    cos_t^2 + sin_t^2 == 1 exactly (e.g. 3/5, 4/5)."""
    c, s = as_expr(cos_t), as_expr(sin_t)
    if not is_provably_zero(c * c + s * s - 1):
        raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    if axis == 3:
        return ((c, mul(-1, s), NUM_ZERO), (s, c, NUM_ZERO), (NUM_ZERO, NUM_ZERO, as_expr(1)))
    if axis == 1:
        return ((as_expr(1), NUM_ZERO, NUM_ZERO), (NUM_ZERO, c, mul(-1, s)), (NUM_ZERO, s, c))
    if axis == 2:
        return ((c, NUM_ZERO, s), (NUM_ZERO, as_expr(1), NUM_ZERO), (mul(-1, s), NUM_ZERO, c))
    raise ValueError("axis must be 1, 2 or 3")


def conjugate_second_order(H: SecondOrderOp, t: ConformalMap) -> SecondOrderOp:
    sub = {X[a]: t.sigma_inv[a] for a in range(3)}
    dsig = [[diff(t.sigma[i], a + 1) for a in range(3)] for i in range(3)]
    d2sig = [[[diff(dsig[i][a], b + 1) for b in range(3)] for a in range(3)] for i in range(3)]
    A2 = [[NUM_ZERO] * 3 for _ in range(3)]
    B2 = [NUM_ZERO] * 3
    C2 = NUM_ZERO
    for a in range(3):
        for b in range(3):
            Aab = H.A[a][b]
            if Aab == NUM_ZERO:
                continue
            for i in range(3):
                for j in range(3):
                    A2[i][j] = A2[i][j] + Aab * dsig[i][a] * dsig[j][b]
                B2[i] = B2[i] + Aab * (t.m_grad[a] * dsig[i][b] + t.m_grad[b] * dsig[i][a]
                                       + d2sig[i][a][b])
            C2 = C2 + Aab * t.m_hess[a][b]
        Ba = H.B[a]
        if Ba != NUM_ZERO:
            for i in range(3):
                B2[i] = B2[i] + Ba * dsig[i][a]
            C2 = C2 + Ba * t.m_grad[a]
    C2 = C2 + H.C
    A2 = tuple(tuple(normalize(subst(v, sub)) for v in row) for row in A2)
    B2 = tuple(normalize(subst(v, sub)) for v in B2)
    C2 = normalize(subst(C2, sub))
    return SecondOrderOp(A2, B2, C2)


def conjugate_first_order(q: FirstOrderOp, t: ConformalMap) -> FirstOrderOp:
    sub = {X[a]: t.sigma_inv[a] for a in range(3)}
    xi2 = tuple(normalize(subst(add(*(mul(q.xi[a], diff(s, a + 1)) for a in range(3))), sub))
                for s in t.sigma)
    eta2 = normalize(subst(add(*(mul(q.xi[a], t.m_grad[a]) for a in range(3))) + q.eta, sub))
    return FirstOrderOp(xi2, eta2)


# ---------------------------------------------------------------------------
# the `transform` command
# ---------------------------------------------------------------------------

# The options that each --kind reads, with their defaults (cli._take_options).
TRANSFORM_OPTIONS = {
    "shift": {"nu": "0,0,0"},
    "dilatation": {"scale": "2"},
    "rotation": {"axis": "3", "cos": "3/5", "sin": "4/5"},
    "inversion": {"weight": "auto"},
}


def _rational(option: str, text: str):
    """Fraction(text) of an exact rational [+-]digits[/digits] (ASCII digits;
    no decimal point or exponent, whose value Fraction would compute
    exactly at any size), failing with ValueError otherwise."""
    from fractions import Fraction

    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} has a zero denominator: {text!r}") from None


def _integer(text: str) -> int:
    """int(text) of [+-]digits (ASCII digits, no spaces or underscores),
    failing with ValueError otherwise."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _cmd_transform(args) -> int:
    # apply_transform and find_inversion_weight are read from conformal,
    # where the benchmark's tracer wraps them, when the command runs
    from . import catalog
    from .cli import _take_options
    from .conformal import FormError, apply_transform, find_inversion_weight

    unread = _take_options(args, TRANSFORM_OPTIONS, args.kind, "--kind")
    if unread:
        print(f"transform error: {unread}", file=sys.stderr)
        return 2
    row = catalog.entry(args.entry)
    h = PDMHamiltonian(row.f, row.V)
    try:
        w = None
        if args.kind == "inversion" and args.weight == "auto":
            w, out = find_inversion_weight(h)
        else:
            if args.kind == "shift":
                nu = tuple(_rational("--nu", s) for s in args.nu.split(","))
                if len(nu) != 3:
                    raise ValueError("--nu needs three comma-separated rationals")
                t = shift(nu)
            elif args.kind == "dilatation":
                t = dilatation(_rational("--scale", args.scale))
            elif args.kind == "rotation":
                t = rotation(axis_rotation(_integer(args.axis),
                                           _rational("--cos", args.cos),
                                           _rational("--sin", args.sin)))
            else:  # inversion
                w = _integer(args.weight)
                t = inversion(w)
            out = apply_transform(t, h)
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
