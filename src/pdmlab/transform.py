"""Equivalence transformations of a PDM Hamiltonian and the `transform`
command.

A transformation conjugates the second-order operator by a change of
coordinates (shift, rotation, dilatation) or by the inversion x -> x/r^2
with the multiplier |x|^w.  conformal.apply_transform renormalizes the
result into p f p - V form; the `transform` command prints the new f and V
of a catalog row.  Only `transform` and the callers of apply_transform load
this module.
"""

from __future__ import annotations

import re
import sys

from . import read_only
from .diffop import FirstOrderOp, PDMHamiltonian, SecondOrderOp, X
from .symkernel import as_expr, diff, is_provably_zero, mul, normalize, subst, to_sexpr, x1, x2, x3
from .symkernel.expr import NUM_ZERO, add


class TransformSpec:
    """shift(nu), rotation(R), dilatation(scale), or inversion_conjugation
    (weight_exponent w, multiplier |x|^w with the substitution x -> x/r^2)."""

    __slots__ = ("kind", "nu", "rotation", "scale", "weight_exponent")
    __setattr__ = __delattr__ = read_only

    def __init__(self, kind: str, nu: tuple = (0, 0, 0), rotation: tuple = (), scale=1,
                 weight_exponent: int = 0):
        if kind not in ("shift", "rotation", "dilatation", "inversion_conjugation"):
            raise ValueError(f"unknown transform kind {kind!r}")
        if kind == "dilatation" and scale == 0:
            raise ValueError("dilatation scale must be nonzero")
        if kind == "rotation":
            rotation = tuple(tuple(as_expr(v) for v in row) for row in rotation)
            if len(rotation) != 3 or any(len(r) != 3 for r in rotation):
                raise ValueError("rotation needs a 3x3 matrix")
            for i in range(3):
                for j in range(3):
                    dot = add(*(mul(rotation[k][i], rotation[k][j]) for k in range(3)))
                    want = 1 if i == j else 0
                    if not is_provably_zero(dot - want):
                        raise ValueError("rotation matrix is not exactly orthogonal")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weight_exponent", weight_exponent)


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


def _transform_data(t: TransformSpec):
    """Returns (sigma, sigma_inv, m_grad_ratio, m_hess_ratio) where sigma is
    the substitution map applied inside wavefunctions and m the multiplier."""
    zero3 = (NUM_ZERO, NUM_ZERO, NUM_ZERO)
    zero33 = tuple((NUM_ZERO,) * 3 for _ in range(3))
    if t.kind == "shift":
        nu = tuple(as_expr(v) for v in t.nu)
        sigma = tuple(X[a] - nu[a] for a in range(3))
        sigma_inv = tuple(X[a] + nu[a] for a in range(3))
        return sigma, sigma_inv, zero3, zero33
    if t.kind == "rotation":
        R = t.rotation
        sigma = tuple(add(*(mul(R[b][a], X[b]) for b in range(3))) for a in range(3))  # R^T x
        sigma_inv = tuple(add(*(mul(R[a][b], X[b]) for b in range(3))) for a in range(3))  # R y
        return sigma, sigma_inv, zero3, zero33
    if t.kind == "dilatation":
        s = as_expr(t.scale)
        sigma = tuple(mul(s, X[a]) for a in range(3))
        sigma_inv = tuple(X[a] / s for a in range(3))
        return sigma, sigma_inv, zero3, zero33
    # inversion: sigma = sigma_inv = x / r^2, multiplier m = r^w
    r2 = x1**2 + x2**2 + x3**2
    sigma = tuple(X[a] / r2 for a in range(3))
    w = t.weight_exponent
    m_grad = tuple(mul(w, X[a]) / r2 for a in range(3))
    m_hess = tuple(
        tuple(
            (mul(w, as_expr(1 if a == b else 0)) / r2)
            + mul(w * (w - 2), X[a] * X[b]) / r2**2
            for b in range(3)
        )
        for a in range(3)
    )
    return sigma, sigma, m_grad, m_hess


def conjugate_second_order(H: SecondOrderOp, t: TransformSpec) -> SecondOrderOp:
    sigma, sigma_inv, m_grad, m_hess = _transform_data(t)
    sub = {X[a]: sigma_inv[a] for a in range(3)}
    dsig = [[diff(sigma[i], a + 1) for a in range(3)] for i in range(3)]
    d2sig = [
        [[diff(dsig[i][a], b + 1) for b in range(3)] for a in range(3)] for i in range(3)
    ]
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
                B2[i] = B2[i] + Aab * (
                    m_grad[a] * dsig[i][b] + m_grad[b] * dsig[i][a] + d2sig[i][a][b]
                )
            C2 = C2 + Aab * m_hess[a][b]
        Ba = H.B[a]
        if Ba != NUM_ZERO:
            for i in range(3):
                B2[i] = B2[i] + Ba * dsig[i][a]
            C2 = C2 + Ba * m_grad[a]
    C2 = C2 + H.C
    A2 = tuple(tuple(normalize(subst(v, sub)) for v in row) for row in A2)
    B2 = tuple(normalize(subst(v, sub)) for v in B2)
    C2 = normalize(subst(C2, sub))
    return SecondOrderOp(A2, B2, C2)


def conjugate_first_order(q: FirstOrderOp, t: TransformSpec) -> FirstOrderOp:
    sigma, sigma_inv, m_grad, _ = _transform_data(t)
    sub = {X[a]: sigma_inv[a] for a in range(3)}
    xi2 = []
    for i in range(3):
        acc = add(*(mul(q.xi[a], diff(sigma[i], a + 1)) for a in range(3)))
        xi2.append(normalize(subst(acc, sub)))
    eta2 = normalize(
        subst(add(*(mul(q.xi[a], m_grad[a]) for a in range(3))) + q.eta, sub)
    )
    return FirstOrderOp(tuple(xi2), eta2)


# ---------------------------------------------------------------------------
# the `transform` command
# ---------------------------------------------------------------------------

# The options that each --kind reads, with their defaults (cli._take_options).
TRANSFORM_OPTIONS = {
    "shift": {"nu": "0,0,0"},
    "dilatation": {"scale": "2"},
    "rotation": {"axis": 3, "cos": "3/5", "sin": "4/5"},
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
        if args.kind == "shift":
            nu = tuple(_rational("--nu", s) for s in args.nu.split(","))
            if len(nu) != 3:
                raise ValueError("--nu needs three comma-separated rationals")
            out = apply_transform(TransformSpec(kind="shift", nu=nu), h)
            w = None
        elif args.kind == "dilatation":
            out = apply_transform(
                TransformSpec(kind="dilatation", scale=_rational("--scale", args.scale)), h
            )
            w = None
        elif args.kind == "rotation":
            R = axis_rotation(args.axis, _rational("--cos", args.cos), _rational("--sin", args.sin))
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
