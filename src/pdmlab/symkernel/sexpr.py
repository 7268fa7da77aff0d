"""Plain-text s-expression serialization of expression trees.

The exact grammar is documented in docs/expr-grammar.md.  Round trip:
parse_sexpr(to_sexpr(e)) == e for every tree the printer emits.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import (
    AbsApp,
    Add,
    App,
    Expr,
    ExprError,
    Mul,
    Num,
    Param,
    Pow,
    RESERVED,
    Var,
    VAR_NAMES,
    add,
    as_expr,
    mul,
    pow_,
)
from .scalars import GRat


class ParseError(ValueError):
    pass


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _num_str(v: GRat) -> str:
    if v.im == 0:
        return _frac_str(v.re)
    if v.re == 0 and v.im == 1:
        return "i"
    return f"(gauss {_frac_str(v.re)} {_frac_str(v.im)})"


def to_sexpr(e: Expr) -> str:
    try:
        if isinstance(e, Num):
            return _num_str(e.val)
        if isinstance(e, (Var, Param)):
            return e.name
        if isinstance(e, Add):
            return "(+ " + " ".join(to_sexpr(t) for t in e.terms) + ")"
        if isinstance(e, Mul):
            return "(* " + " ".join(to_sexpr(f) for f in e.factors) + ")"
        if isinstance(e, Pow):
            return f"(^ {to_sexpr(e.base)} {_frac_str(e.exponent)})"
        if isinstance(e, App):
            return f"({e.fn} {to_sexpr(e.arg)})"
        if isinstance(e, AbsApp):
            core = "(" + e.name + " " + " ".join(to_sexpr(a) for a in e.args) + ")"
            for k, cnt in enumerate(e.dcounts):
                for _ in range(cnt):
                    core = f"(D{k + 1} {core})"
            return core
    except RecursionError:
        # the innermost frame converts it; outer frames pass the ExprError on
        raise ExprError("expression nested too deeply") from None
    raise ExprError(f"cannot serialize {type(e).__name__}")


_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")
_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_DERIV = re.compile(r"^D([1-9])$")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def parse_sexpr(text: str) -> Expr:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    try:
        expr, rest = _parse(tokens, 0)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if rest != len(tokens):
        raise ParseError(f"trailing input at offset {tokens[rest][1]}")
    return expr


def _parse(tokens, k):
    tok, off = tokens[k]
    if tok == ")":
        raise ParseError(f"unexpected ')' at offset {off}")
    if tok != "(":
        return _parse_atom(tok, off), k + 1
    if k + 1 >= len(tokens):
        raise ParseError("unterminated list")
    head, hoff = tokens[k + 1]
    args = []
    k += 2
    while True:
        if k >= len(tokens):
            raise ParseError("unterminated list")
        if tokens[k][0] == ")":
            k += 1
            break
        node, k = _parse(tokens, k)
        args.append(node)
    return _build(head, hoff, args), k


def _parse_atom(tok: str, off: int) -> Expr:
    if _RATIONAL.match(tok):
        try:
            return Num(Fraction(tok))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {tok!r} at offset {off}") from None
    if tok == "i":
        return Num(GRat(0, 1))
    if tok in VAR_NAMES:
        return Var(tok)
    if tok.isidentifier() and tok not in RESERVED:
        try:
            return Param(tok)
        except ExprError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"bad atom {tok!r} at offset {off}")


def _as_fraction_literal(e: Expr, head: str) -> Fraction:
    if isinstance(e, Num) and e.val.is_rational():
        return e.val.re
    raise ParseError(f"{head} expects a rational literal")


def _build(head: str, off: int, args) -> Expr:
    if head == "+":
        if not args:
            raise ParseError("empty sum")
        return add(*args)
    if head == "*":
        if not args:
            raise ParseError("empty product")
        return mul(*args)
    if head == "^":
        if len(args) != 2:
            raise ParseError("^ expects base and exponent")
        return pow_(args[0], _as_fraction_literal(args[1], "^"))
    if head == "sqrt":
        if len(args) != 1:
            raise ParseError("sqrt expects one argument")
        return pow_(args[0], Fraction(1, 2))
    if head == "gauss":
        if len(args) != 2:
            raise ParseError("gauss expects two rational literals")
        return Num(GRat(_as_fraction_literal(args[0], "gauss"), _as_fraction_literal(args[1], "gauss")))
    if head in ("exp", "ln", "arctan", "sin", "cos"):
        if len(args) != 1:
            raise ParseError(f"{head} expects one argument")
        return App(head, args[0])
    m = _DERIV.match(head)
    if m:
        if len(args) != 1 or not isinstance(args[0], AbsApp):
            raise ParseError(f"{head} expects one abstract application at offset {off}")
        inner = args[0]
        slot = int(m.group(1))
        if slot > len(inner.args):
            raise ParseError(f"derivative slot {slot} out of range at offset {off}")
        dc = list(inner.dcounts)
        dc[slot - 1] += 1
        return AbsApp(inner.name, tuple(dc), inner.args)
    if head.isidentifier() and head not in RESERVED:
        if not args:
            raise ParseError(f"abstract application {head} needs arguments")
        return AbsApp(head, (0,) * len(args), tuple(as_expr(a) for a in args))
    raise ParseError(f"unknown head {head!r} at offset {off}")
