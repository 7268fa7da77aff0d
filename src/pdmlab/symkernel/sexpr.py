"""Plain-text s-expression serialization of expression trees.

The exact grammar is documented in docs/expr-grammar.md.  Round trip:
parse_sexpr(to_sexpr(e)) == e for every tree the printer emits.
"""

from __future__ import annotations

import re
import sys

from .expr import (
    HALF,
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
from .scalars import GRat, _reduced, ratio_text


class ParseError(ValueError):
    pass


def _ratio(n: int, d: int) -> str:
    """ratio_text(n, d), or ExprError for a number longer than the
    interpreter converts to text (sys.get_int_max_str_digits)."""
    try:
        return ratio_text(n, d)
    except ValueError:
        raise ExprError(f"a number of more than {sys.get_int_max_str_digits()} digits"
                        " cannot be printed") from None


def _num_str(v: GRat) -> str:
    if v.b == 0:
        return _ratio(v.a, v.d)
    if v.a == 0 and v.b == 1 and v.d == 1:
        return "i"
    return f"(gauss {_ratio(v.a, v.d)} {_ratio(v.b, v.d)})"


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
            q = e.exponent
            return f"(^ {to_sexpr(e.base)} {_ratio(q.numerator, q.denominator)})"
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


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
# DIGITS are ASCII: \d and str.isidentifier() also take other scripts' digits
_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_DERIV = re.compile(r"^D([1-9])$")
_OTHER_DIGIT = re.compile(r"(?![0-9])\d")


def _is_ident(tok: str) -> bool:
    return tok.isidentifier() and tok not in RESERVED and not _OTHER_DIGIT.search(tok)


def parse_sexpr(text: str) -> Expr:
    """Parse one expression.

    Equal subtrees come back as one shared object: within a call, each atom
    is built once per token text, and each list once per head and
    identities of its parsed children, so two copies of a list that differ
    only in spacing are one object too.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input")
    try:
        expr, rest = _parse(text, tokens, {}, 0)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if rest != len(tokens):
        raise ParseError(f"trailing input at offset {_offset(text, rest)}")
    return expr


def _offset(text: str, k: int) -> int:
    """Character offset of token k, found again for an error message."""
    for n, m in enumerate(_TOKEN.finditer(text)):
        if n == k:
            return m.start()


def _parse(text, tokens, memo, k):
    tok = tokens[k]
    if tok == "(":
        return _parse_list(text, tokens, memo, k)
    if tok == ")":
        raise ParseError(f"unexpected ')' at offset {_offset(text, k)}")
    node = memo.get(tok)
    if node is None:
        node = memo[tok] = _parse_atom(tok, text, k)
    return node, k + 1


def _parse_list(text, tokens, memo, k):
    """The list whose "(" is token k, and the index after its ")"."""
    at = k + 1
    if at >= len(tokens):
        raise ParseError("unterminated list")
    head = tokens[at]
    args = []
    k += 2
    while True:
        if k >= len(tokens):
            raise ParseError("unterminated list")
        tok = tokens[k]
        if tok == ")":
            k += 1
            break
        if tok == "(":
            node, k = _parse_list(text, tokens, memo, k)
        else:
            node = memo.get(tok)
            if node is None:
                node = memo[tok] = _parse_atom(tok, text, k)
            k += 1
        args.append(node)
    # the memo holds every child, so an id names one child for the call
    key = (head, *map(id, args))
    node = memo.get(key)
    if node is None:
        node = memo[key] = _build(head, text, at, args)
    return node, k


def _parse_atom(tok: str, text: str, k: int) -> Expr:
    if _RATIONAL.match(tok):
        num, _, den = tok.partition("/")
        try:
            if not den:
                return Num(int(num))
            n, d = int(num), int(den)
        except ValueError:
            # int() reads at most sys.get_int_max_str_digits() digits
            raise ParseError(f"number at offset {_offset(text, k)} has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if not d:
            raise ParseError(f"zero denominator in {tok!r} at offset {_offset(text, k)}")
        return Num(_reduced(n, 0, d))
    if tok == "i":
        return Num(GRat(0, 1))
    if tok in VAR_NAMES:
        return Var(tok)
    if _is_ident(tok):
        try:
            return Param(tok)
        except ExprError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"bad atom {tok!r} at offset {_offset(text, k)}")


def _rational_literal(e: Expr, head: str):
    """The int of an integral rational literal, else its Fraction."""
    if isinstance(e, Num) and e.val.is_rational():
        v = e.val
        return v.a if v.d == 1 else v.re
    raise ParseError(f"{head} expects a rational literal")


def _build(head: str, text: str, at: int, args) -> Expr:
    """The node of a list whose head is token `at` of text."""
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
        return pow_(args[0], _rational_literal(args[1], "^"))
    if head == "sqrt":
        if len(args) != 1:
            raise ParseError("sqrt expects one argument")
        return pow_(args[0], HALF)
    if head == "gauss":
        if len(args) != 2:
            raise ParseError("gauss expects two rational literals")
        return Num(GRat(_rational_literal(args[0], "gauss"), _rational_literal(args[1], "gauss")))
    if head in ("exp", "ln", "arctan", "sin", "cos"):
        if len(args) != 1:
            raise ParseError(f"{head} expects one argument")
        return App(head, args[0])
    m = _DERIV.match(head)
    if m:
        if len(args) != 1 or not isinstance(args[0], AbsApp):
            raise ParseError(f"{head} expects one abstract application at offset "
                             f"{_offset(text, at)}")
        inner = args[0]
        slot = int(m.group(1))
        if slot > len(inner.args):
            raise ParseError(f"derivative slot {slot} out of range at offset {_offset(text, at)}")
        dc = list(inner.dcounts)
        dc[slot - 1] += 1
        return AbsApp(inner.name, tuple(dc), inner.args)
    if _is_ident(head):
        if not args:
            raise ParseError(f"abstract application {head} needs arguments")
        return AbsApp(head, (0,) * len(args), tuple(as_expr(a) for a in args))
    raise ParseError(f"unknown head {head!r} at offset {_offset(text, at)}")
