"""Exact symbolic kernel: expressions, canonical forms, zero testing.

The zero test's names load pdmlab.symkernel.zerotest, and hashlib with it,
when one of them is first used (a module __getattr__, PEP 562): a command
that never samples compiles none of it."""

from .scalars import GRat, grat
from .expr import (
    AbsApp,
    AbstractFn,
    Add,
    App,
    Expr,
    ExprError,
    IMAG,
    Mul,
    Num,
    NUM_MINUS_ONE,
    NUM_ONE,
    NUM_ZERO,
    Param,
    Pow,
    Var,
    XVARS,
    add,
    arctan,
    as_expr,
    cos,
    diff,
    diff_wrt,
    exp,
    instantiate,
    is_rational_in_x,
    ln,
    mul,
    num,
    param,
    pow_,
    sin,
    sqrt,
    subst,
    x1,
    x2,
    x3,
)
from .ratform import is_provably_zero, kernel_scope, normalize
from .sexpr import ParseError, parse_sexpr, to_sexpr

# ZeroTestPolicy's defaults, the one copy: a report header reads them here
# without loading the zero test.
DEFAULT_POINTS = 50
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 271828

_ZEROTEST_NAMES = (
    "DEFAULT_POLICY",
    "EvalDomainError",
    "Inconclusive",
    "NonZero",
    "NumericZero",
    "ProvedZero",
    "ZeroTestPolicy",
    "evaluate",
    "is_zero",
    "numeric_sample",
)


def __getattr__(name):
    if name not in _ZEROTEST_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import zerotest

    # all of them at once: no later first use pays even a lookup here
    for each in _ZEROTEST_NAMES:
        globals()[each] = getattr(zerotest, each)
    return globals()[name]


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_ZEROTEST_NAMES, "zerotest"])
