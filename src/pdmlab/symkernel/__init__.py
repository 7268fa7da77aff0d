"""Exact symbolic kernel: expressions, canonical forms, zero testing."""

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
from .ratform import is_provably_zero, kernel_scope, normalize, poly_degree_in_vars
from .sexpr import ParseError, parse_sexpr, to_sexpr
from .zerotest import (
    DEFAULT_POLICY,
    DEFAULT_SEED,
    EvalDomainError,
    Inconclusive,
    NonZero,
    NumericZero,
    ProvedZero,
    ZeroTestPolicy,
    evaluate,
    is_zero,
    numeric_sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
