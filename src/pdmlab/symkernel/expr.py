"""Immutable symbolic expression trees over three spatial variables.

Nodes: exact Gaussian-rational constants, spatial variables x1..x3, named
real parameters, sums, products, rational powers, the elementary functions
exp/ln/arctan/sin/cos (sqrt is a rational power), and abstract function
applications F(u1,...,uk) together with their formal partial derivatives.

Construction applies only cheap local simplifications (flattening,
constant folding).  Canonical forms are produced by
:func:`pdmlab.symkernel.ratform.normalize`.

Each node stores its hash, computed once from plain data and its
children's stored hashes (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): a `Num` hashes ("Num", a, b, d) of its value, a
`Pow` its base's hash with the exponent's numerator and denominator, a
sum, product or application its tag, names and its children's hashes.
Building a node thus calls no Python-level `__hash__`.  Equal nodes have
equal fields, so equal hashes.

`add` and `mul` fold the numbers among their terms into one; when exactly
one number comes in, nothing folds, and that `Num` object itself goes into
the result instead of a new equal one.

Exponent type: `pow_` stores an integral exponent as a Python `int`, also
one given as a `Fraction` with denominator 1, and any other exponent as a
`Fraction`.  So `Pow.exponent` is an `int` exactly when it is integral.
Readers take its `numerator` and `denominator`, which an int holds as C
attributes; `2 == Fraction(2)` and both hash alike, so nodes built from
either compare, hash and print the same.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .scalars import GRat, ONE, ZERO, grat

ELEMENTARY = ("exp", "ln", "arctan", "sin", "cos")
VAR_NAMES = ("x1", "x2", "x3")
RESERVED = set(ELEMENTARY) | set(VAR_NAMES) | {"i", "sqrt", "gauss", "+", "*", "^"}


class ExprError(ValueError):
    pass


class Expr:
    """Base class; all instances are immutable and hashable."""

    __slots__ = ("_hash",)

    # subclasses set _fields for equality/ordering
    _fields: tuple = ()

    def _key(self):
        return (type(self).__name__,) + tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return self._key() == other._key()

    def __hash__(self):
        return self._hash

    # -- python-operator sugar ---------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(NUM_MINUS_ONE, as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(NUM_MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(as_expr(other), pow_(self, -1))

    def __neg__(self):
        return mul(NUM_MINUS_ONE, self)

    def __pow__(self, e):
        return pow_(self, e)

    def __repr__(self):
        from .sexpr import to_sexpr

        return to_sexpr(self)


class Num(Expr):
    __slots__ = ("val",)
    _fields = ("val",)

    def __init__(self, val):
        v = self.val = grat(val)
        self._hash = hash(("Num", v.a, v.b, v.d))


class Var(Expr):
    """Spatial variable x1, x2 or x3."""

    __slots__ = ("name", "axis")
    _fields = ("name",)

    def __init__(self, name: str):
        if name not in VAR_NAMES:
            raise ExprError(f"unknown spatial variable {name!r}")
        self.name = name
        self.axis = int(name[1])
        self._hash = hash(("Var", name))


class Param(Expr):
    """Named real parameter (mu, nu, alpha, c, ...)."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str):
        if not name.isidentifier() or name in RESERVED:
            raise ExprError(f"bad parameter name {name!r}")
        if name[0] == "x" and name[1:].isdigit():
            raise ExprError(f"{name!r} is reserved for spatial variables")
        self.name = name
        self._hash = hash(("Param", name))


class Add(Expr):
    __slots__ = ("terms",)
    _fields = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._hash = hash(("Add", *[t._hash for t in terms]))


class Mul(Expr):
    __slots__ = ("factors",)
    _fields = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self._hash = hash(("Mul", *[f._hash for f in factors]))


class Pow(Expr):
    """base ** exponent with a rational (possibly negative) exponent: an
    int when integral, else a Fraction (module docstring)."""

    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent):
        self.base = base
        self.exponent = exponent
        self._hash = hash(("Pow", base._hash, exponent.numerator, exponent.denominator))


class App(Expr):
    """Elementary function application exp/ln/arctan/sin/cos."""

    __slots__ = ("fn", "arg")
    _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in ELEMENTARY:
            raise ExprError(f"unknown function {fn!r}")
        self.fn = fn
        self.arg = arg
        self._hash = hash(("App", fn, arg._hash))


class AbsApp(Expr):
    """Abstract function application D^{dcounts} NAME(args).

    dcounts[k] is the number of formal derivatives taken with respect to
    argument slot k; mixed derivatives commute because only the counts are
    stored.
    """

    __slots__ = ("name", "dcounts", "args")
    _fields = ("name", "dcounts", "args")

    def __init__(self, name: str, dcounts: tuple, args: tuple):
        if not name.isidentifier() or name in RESERVED:
            raise ExprError(f"bad abstract function name {name!r}")
        if len(dcounts) != len(args) or not args:
            raise ExprError("argument/derivative-count arity mismatch")
        self.name = name
        self.dcounts = dcounts
        self.args = args
        self._hash = hash(("AbsApp", name, dcounts, *[a._hash for a in args]))

    @property
    def symbol(self) -> str:
        """Sampling key, e.g. 'F', 'D1F', 'D1D2F'."""
        pre = "".join(f"D{k + 1}" * c for k, c in enumerate(self.dcounts))
        return pre + self.name


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

NUM_ZERO = Num(0)
NUM_ONE = Num(1)
NUM_MINUS_ONE = Num(-1)
IMAG = Num(GRat(0, 1))

x1 = Var("x1")
x2 = Var("x2")
x3 = Var("x3")
XVARS = (x1, x2, x3)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, GRat)):
        return Num(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


def num(re, im=0) -> Num:
    return Num(GRat(Fraction(re), Fraction(im)))


def param(name: str) -> Param:
    return Param(name)


def add(*terms) -> Expr:
    flat = []
    nums = []
    for t in terms:
        tt = type(t)
        if tt is Add:
            for s in t.terms:
                (nums if type(s) is Num else flat).append(s)
        elif tt is Num:
            nums.append(t)
        elif isinstance(t, Expr):
            flat.append(t)
        else:
            nums.append(as_expr(t))
    if len(nums) == 1:
        lone = nums[0]  # nothing folds: the result keeps this object
        const = lone.val
    else:
        lone = None
        const = ZERO
        for n in nums:
            const = const + n.val
    if not const.is_zero() or not flat:
        flat.append(Num(const) if lone is None else lone)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat = []
    nums = []
    for f in factors:
        tf = type(f)
        if tf is Mul:
            for g in f.factors:
                (nums if type(g) is Num else flat).append(g)
        elif tf is Num:
            nums.append(f)
        elif isinstance(f, Expr):
            flat.append(f)
        else:
            nums.append(as_expr(f))
    if len(nums) == 1:
        lone = nums[0]  # nothing folds: the result keeps this object
        const = lone.val
    else:
        lone = None
        const = ONE
        for n in nums:
            const = const * n.val
    if const.is_zero():
        return NUM_ZERO
    if not const.is_one() or not flat:
        flat.insert(0, Num(const) if lone is None else lone)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


# A number c = (a + b i)/d to the power n >= 0 has at most n * ceil(log2 m)
# + 1 bits in each part, m = max(|a| + |b|, d); c ** -n is (1/c) ** n.  The
# kernel refuses to fold a power whose bound is above FOLD_BITS_LIMIT, so
# one short input cannot hold it or fill its memory: (^ 10 5000) is 16,610
# bits, (^ 2 100000000000) would be 12.5 GB.
FOLD_BITS_LIMIT = 1 << 16


def check_power_size(c: GRat, n: int) -> None:
    """Raise ExprError before c ** n is computed if its bound is too large."""
    if n < 0:
        c, n = c.inverse(), -n  # as GRat.__pow__ computes it
    m = max(abs(c.a) + abs(c.b), c.d)
    if n * (m - 1).bit_length() > FOLD_BITS_LIMIT:
        raise ExprError(f"power too large: the number would have more than {FOLD_BITS_LIMIT} bits")


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    if type(exponent) is int:
        p, q = exponent, 1
    elif isinstance(exponent, Fraction):
        p, q = exponent.numerator, exponent.denominator
        if q == 1:
            exponent = p
    elif isinstance(exponent, int):
        exponent = p = int(exponent)  # a bool or another int subclass
        q = 1
    else:
        raise ExprError("exponent must be an integer or Fraction")
    if p == 0:
        return NUM_ONE
    if p == 1 and q == 1:
        return base
    tb = type(base)
    if tb is Num:
        if p < 0 and base.val.is_zero():
            raise ExprError("division by zero")
        root = base.val if q == 1 else _exact_root(base.val, q)
        if root is not None:
            check_power_size(root, p)
            return Num(root ** p)
    elif q == 1:
        if tb is Pow:
            # (b^q)^n == b^(q*n) is sound for integer n
            return pow_(base.base, base.exponent * exponent)
        if tb is Mul:
            return mul(*(pow_(f, exponent) for f in base.factors))
    return Pow(base, exponent)


def _iroot(n: int, q: int) -> int:
    """floor(n ** (1/q)) for n >= 0, in exact integer arithmetic."""
    if q == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    if n.bit_length() <= q:
        return 1  # 2 <= n < 2**q; Newton's first step would hold 2**(q - 1)
    x = 1 << -(-n.bit_length() // q)  # an upper bound; Newton descends from it
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _exact_root(c: GRat, q: int):
    """Exact q-th root of a nonnegative rational, or None."""
    if not c.is_rational() or c.a < 0:
        return None
    n = _iroot(c.a, q)
    d = _iroot(c.d, q)
    if n**q == c.a and d**q == c.d:
        return GRat(Fraction(n, d))
    return None


HALF = Fraction(1, 2)


def sqrt(e) -> Expr:
    return pow_(e, HALF)


def exp(e) -> Expr:
    return App("exp", as_expr(e))


def ln(e) -> Expr:
    return App("ln", as_expr(e))


def arctan(e) -> Expr:
    return App("arctan", as_expr(e))


def sin(e) -> Expr:
    return App("sin", as_expr(e))


def cos(e) -> Expr:
    return App("cos", as_expr(e))


class AbstractFn:
    """Factory for an abstract function symbol of fixed arity."""

    def __init__(self, name: str, arity: int, dcounts=None):
        self.name = name
        self.arity = arity
        self.dcounts = tuple(dcounts) if dcounts else (0,) * arity

    def __call__(self, *args) -> AbsApp:
        if len(args) != self.arity:
            raise ExprError(f"{self.name} expects {self.arity} argument(s)")
        return AbsApp(self.name, self.dcounts, tuple(as_expr(a) for a in args))

    def d(self, slot: int) -> "AbstractFn":
        """Formal derivative with respect to argument slot (1-based)."""
        if not 1 <= slot <= self.arity:
            raise ExprError("derivative slot out of range")
        dc = list(self.dcounts)
        dc[slot - 1] += 1
        return AbstractFn(self.name, self.arity, dc)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


def children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, App):
        return (e.arg,)
    if isinstance(e, AbsApp):
        return e.args
    return ()


def walk(e: Expr):
    yield e
    for c in children(e):
        yield from walk(c)


def is_rational_in_x(e: Expr) -> bool:
    """True if the tree uses only constants, variables, parameters and
    integer-power rational operations."""
    for n in walk(e):
        if isinstance(n, (App, AbsApp)):
            return False
        if isinstance(n, Pow) and n.exponent.denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# substitution and differentiation
# ---------------------------------------------------------------------------


def subst(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace Var/Param leaves according to mapping."""
    if e in mapping:
        return mapping[e]
    if isinstance(e, (Num, Var, Param)):
        return e
    if isinstance(e, Add):
        return add(*(subst(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(subst(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(subst(e.base, mapping), e.exponent)
    if isinstance(e, App):
        return App(e.fn, subst(e.arg, mapping))
    if isinstance(e, AbsApp):
        return AbsApp(e.name, e.dcounts, tuple(subst(a, mapping) for a in e.args))
    raise ExprError(f"cannot substitute into {e!r}")


def diff(e: Expr, a: int) -> Expr:
    """Exact partial derivative with respect to spatial axis a in {1,2,3}."""
    if a not in (1, 2, 3):
        raise ExprError("axis must be 1, 2 or 3")
    return diff_wrt(e, XVARS[a - 1])


def diff_wrt(e: Expr, leaf: Expr) -> Expr:
    """Derivative with respect to a Var or Param leaf (chain rule throughout)."""
    if not isinstance(leaf, (Var, Param)):
        raise ExprError("can only differentiate with respect to a Var or Param")
    return _diff(e, leaf, {})


def _diff(e: Expr, v: Expr, cache: dict) -> Expr:
    got = cache.get(e)
    if got is not None:
        return got
    out = _diff_raw(e, v, cache)
    cache[e] = out
    return out


def _diff_raw(e: Expr, v: Expr, cache: dict) -> Expr:
    if isinstance(e, (Num, Var, Param)):
        return NUM_ONE if e == v else NUM_ZERO
    if isinstance(e, Add):
        return add(*(_diff(t, v, cache) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff(f, v, cache)
            if df is NUM_ZERO or df == NUM_ZERO:
                continue
            terms.append(mul(*fs[:i], df, *fs[i + 1 :]))
        return add(*terms) if terms else NUM_ZERO
    if isinstance(e, Pow):
        db = _diff(e.base, v, cache)
        if db == NUM_ZERO:
            return NUM_ZERO
        return mul(Num(GRat(e.exponent)), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, App):
        da = _diff(e.arg, v, cache)
        if da == NUM_ZERO:
            return NUM_ZERO
        u = e.arg
        if e.fn == "exp":
            outer = e
        elif e.fn == "ln":
            outer = pow_(u, -1)
        elif e.fn == "arctan":
            outer = pow_(add(NUM_ONE, mul(u, u)), -1)
        elif e.fn == "sin":
            outer = cos(u)
        else:  # cos
            outer = mul(NUM_MINUS_ONE, sin(u))
        return mul(outer, da)
    if isinstance(e, AbsApp):
        terms = []
        for k, u in enumerate(e.args):
            du = _diff(u, v, cache)
            if du == NUM_ZERO:
                continue
            dc = list(e.dcounts)
            dc[k] += 1
            terms.append(mul(AbsApp(e.name, tuple(dc), e.args), du))
        return add(*terms) if terms else NUM_ZERO
    raise ExprError(f"cannot differentiate {e!r}")


def instantiate(e: Expr, templates: Mapping[str, tuple]) -> Expr:
    """Replace abstract functions by concrete expressions.

    templates maps a function name to (slot_params, body) where body is an
    Expr over the given slot Param placeholders; derivative nodes become the
    corresponding exact derivatives of the body.
    """
    if isinstance(e, (Num, Var, Param)):
        return e
    if isinstance(e, Add):
        return add(*(instantiate(t, templates) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(instantiate(f, templates) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(instantiate(e.base, templates), e.exponent)
    if isinstance(e, App):
        return App(e.fn, instantiate(e.arg, templates))
    if isinstance(e, AbsApp):
        args = tuple(instantiate(a, templates) for a in e.args)
        if e.name not in templates:
            return AbsApp(e.name, e.dcounts, args)
        slots, body = templates[e.name]
        if len(slots) != len(args):
            raise ExprError(f"template arity mismatch for {e.name}")
        for k, cnt in enumerate(e.dcounts):
            for _ in range(cnt):
                body = diff_wrt(body, slots[k])
        return subst(body, dict(zip(slots, args)))
    raise ExprError(f"cannot instantiate {e!r}")
