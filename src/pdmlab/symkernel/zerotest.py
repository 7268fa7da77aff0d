"""Two-tier zero certification and seeded numeric evaluation.

Tier 1 (symbolic): an expression whose canonical form is the literal zero
node is proved zero exactly; for expressions linear in abstract-derivative
symbols this happens coefficient-wise by construction of the normal form.

Tier 2 (numeric): seeded random sampling of coordinates, parameters and
abstract-derivative symbols, with a scale-relative tolerance.  Sampling is
deterministic given (seed, label).  The sampling ranges and the attempt
budget are the module constants below; a policy sets only the point count,
the tolerance and the seed.

Screen, then prove: is_zero first evaluates the expression as given, before
any expansion, at the first SCREEN_POINTS points of the numeric stream.  A
value above tolerance at every one of them shows the expression is nonzero
(Schwartz 1980), so the verdict is NonZero at the numeric tier without the
symbolic pass.  Every other expression goes through both tiers as before:
`symbolic` still means an exact proof of zero.

Compile once, then evaluate per point: _compile walks a tree once and
lists each distinct node (a subtree shared by identity once) in the
post-order of a recursive evaluation, collecting the parameter names and
abstract symbols on the way.  _run evaluates that list at one point in
plain complex arithmetic, with the operations, their order and the domain
checks of a node-by-node evaluation, so values, scales, witnesses and
rejections do not depend on the sharing.  The screen, numeric_sample and
evaluate all use it.

Sample points are exact floats: each coordinate and parameter is k/1024
for an int k, which a float holds exactly, so a point is drawn without a
`Fraction`.  The witness text of a NonZero, str() of the coordinates'
`Fraction`s, is built only for a verdict that is returned.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .. import read_only
from . import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL
from .expr import (
    AbsApp,
    Add,
    App,
    Expr,
    Mul,
    Num,
    Param,
    Pow,
    Var,
)
from .ratform import normalize, raw_form
from .sexpr import to_sexpr

# Sampling ranges, as numerators k over 1024, both ends drawn: coordinate
# magnitudes k/1024 for k in 102..2048, so in [0.0996, 2], avoiding the
# singular loci r=0, r~=0, x1=0 of the catalog; parameters and
# abstract-derivative symbols for k in 307..1740, so in [0.2998, 1.6992].
# A test gives up after points * MAX_ATTEMPT_FACTOR draws.
COORD_RANGE = (102, 2048)
PARAM_RANGE = (307, 1740)
MAX_ATTEMPT_FACTOR = 20


def _coord_numerator(rng: random.Random) -> int:
    """k of one coordinate k/1024: a magnitude, then a sign."""
    k = rng.randint(*COORD_RANGE)
    return k if rng.random() < 0.5 else -k


def _param_numerator(rng: random.Random) -> int:
    """k of one parameter or abstract-derivative symbol k/1024."""
    return rng.randint(*PARAM_RANGE)


class EvalDomainError(ArithmeticError):
    """Evaluation hit a pole or domain boundary; carries the subtree."""

    def __init__(self, subtree: Expr, reason: str):
        super().__init__(f"{reason} in {to_sexpr(subtree)}")
        self.subtree = subtree
        self.reason = reason


class ZeroTestPolicy(NamedTuple):
    """Sampling policy for the numeric tier: the point count, the relative
    tolerance and the seed.

    Coordinates are rationals k/1024 with 102 <= |k| <= 2048, so from
    [-2, -0.0996] u [0.0996, 2]; parameters and abstract-derivative symbols
    are k/1024 with 307 <= k <= 1740, so from [0.2998, 1.6992]: fixed
    ranges, the module constants COORD_RANGE and PARAM_RANGE.
    """

    points: int = DEFAULT_POINTS
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED

    def rng(self, label: str = "") -> random.Random:
        digest = hashlib.sha256(f"{self.seed}|{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def sample_coord(self, rng: random.Random) -> Fraction:
        return Fraction(_coord_numerator(rng), 1024)

    def sample_param(self, rng: random.Random) -> Fraction:
        return Fraction(_param_numerator(rng), 1024)


DEFAULT_POLICY = ZeroTestPolicy()


# -- zero statuses -----------------------------------------------------------


def _hashable(v):
    """v with each dict, at any depth, replaced by the frozenset of its
    items: a NonZero witness is a dict of a point and of dicts."""
    if isinstance(v, dict):
        return frozenset((k, _hashable(x)) for k, x in v.items())
    return v


class ZeroStatus:
    """A zero-test verdict.  Read-only; equal only to a verdict of the same
    type with equal fields, so ProvedZero() is not (); printed as
    Type(field=value, ...), a text that callers hash."""

    __slots__ = ()
    __setattr__ = __delattr__ = read_only

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(tuple(map(_hashable, self._values())))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ProvedZero(ZeroStatus):
    __slots__ = ()
    tier = "symbolic"
    is_zero = True


class NumericZero(ZeroStatus):
    __slots__ = ("points_tested", "max_residual")
    tier = "numeric"
    is_zero = True

    def __init__(self, points_tested: int, max_residual: float):
        object.__setattr__(self, "points_tested", points_tested)
        object.__setattr__(self, "max_residual", max_residual)


class NonZero(ZeroStatus):
    __slots__ = ("witness", "value")
    tier = "numeric"
    is_zero = False

    def __init__(self, witness: dict, value: complex):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "value", value)


class Inconclusive(ZeroStatus):
    __slots__ = ("reason",)
    tier = "none"
    is_zero = False

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


# -- evaluation ---------------------------------------------------------------


# Opcodes of a compiled expression.  An instruction is a tuple
# (opcode, operand, extra, node): operand is the index of the one child's
# value, or the tuple of child indices of a sum or product; node is the
# subtree a domain error names.
(_CONST, _NUM, _VAR, _PARAM, _ADD, _MUL, _POWI, _POWQ, _EXP, _LN, _ARCTAN, _SIN, _COS,
 _ABSAPP) = range(14)

_APP_OPS = {"exp": _EXP, "ln": _LN, "arctan": _ARCTAN, "sin": _SIN, "cos": _COS}


def _compile(e: Expr):
    """(code, parameter names, abstract symbols) of e.

    code lists each distinct node (by identity) once, in the post-order of
    a recursive evaluation, so that running it performs the same operations
    in the same order; a shared subtree is computed once.  The names and
    symbols are collected on the same walk.
    """
    index = {}
    code = []
    names = set()
    symbols = set()

    def visit(n) -> int:
        got = index.get(id(n))
        if got is not None:
            return got
        # exact types, most frequent first: no node class has a subclass
        kind = type(n)
        if kind is Mul:
            ins = (_MUL, tuple(map(visit, n.factors)), None, n)
        elif kind is Add:
            ins = (_ADD, tuple(map(visit, n.terms)), None, n)
        elif kind is Num:
            try:
                ins = (_CONST, None, complex(n.val), n)
            except OverflowError:
                ins = (_NUM, None, n.val, n)  # raises again at evaluation
        elif kind is Var:
            ins = (_VAR, n.axis - 1, None, n)
        elif kind is Pow:
            q = n.exponent
            if q.denominator == 1:
                ins = (_POWI, visit(n.base), q.numerator, n)
            else:
                ins = (_POWQ, visit(n.base), float(q), n)
        elif kind is Param:
            names.add(n.name)
            ins = (_PARAM, None, n.name, n)
        elif kind is App:
            ins = (_APP_OPS[n.fn], visit(n.arg), None, n)
        elif kind is AbsApp:
            for u in n.args:
                visit(u)
            symbols.add(n.symbol)
            ins = (_ABSAPP, None, n.symbol, n)
        else:
            raise TypeError(f"cannot evaluate {type(n).__name__}")
        index[id(n)] = len(code)
        code.append(ins)
        return len(code) - 1

    visit(e)
    return code, names, symbols


def _scale(vals) -> float:
    """The largest magnitude among the node values (0.0 at least)."""
    out = 0.0
    for a in map(abs, vals):
        if a > out:
            out = a
    return out


def _run(code, point, params, absvals):
    """(value, scale) of compiled code at one assignment of floats.

    Raises EvalDomainError at poles and domain boundaries, and what complex
    arithmetic raises.  The magnitude of every value computed before a
    failure is taken first, as a node-by-node evaluation takes it, so an
    overflow there is the error raised.
    """
    coords = [complex(c) for c in point]
    vals = []
    push = vals.append
    try:
        for op, i, x, node in code:
            if op == _CONST:
                v = x
            elif op == _MUL:
                v = 1 + 0j
                for k in i:
                    v *= vals[k]
            elif op == _ADD:
                v = sum([vals[k] for k in i])
            elif op == _VAR:
                v = coords[i]
            elif op == _POWI:
                b = vals[i]
                if b == 0 and x < 0:
                    raise EvalDomainError(node, "division by zero")
                v = b ** x
            elif op == _POWQ:
                b = vals[i]
                if b == 0:
                    if x < 0:
                        raise EvalDomainError(node, "division by zero")
                    v = 0j
                elif b.imag == 0 and b.real < 0:
                    raise EvalDomainError(node, "fractional power of a negative value")
                else:
                    v = b ** x
            elif op == _PARAM:
                try:
                    v = complex(params[x])
                except KeyError:
                    raise EvalDomainError(node, f"unassigned parameter {x}")
            elif op == _EXP:
                a = vals[i]
                if a.real > 700:
                    raise EvalDomainError(node, "exp overflow")
                v = cmath.exp(a)
            elif op == _LN:
                a = vals[i]
                if a == 0 or (a.imag == 0 and a.real <= 0):
                    raise EvalDomainError(node, "ln of a non-positive value")
                v = cmath.log(a)
            elif op == _ARCTAN:
                a = vals[i]
                v = complex(math.atan(a.real)) if a.imag == 0 else cmath.atan(a)
            elif op == _SIN:
                v = cmath.sin(vals[i])
            elif op == _COS:
                v = cmath.cos(vals[i])
            elif op == _ABSAPP:
                try:
                    v = complex(absvals[x])
                except KeyError:
                    raise EvalDomainError(node, f"unassigned abstract symbol {x}")
            else:  # _NUM
                v = complex(x)
            push(v)
    except Exception:
        _scale(vals)
        raise
    return vals[-1], _scale(vals)


def evaluate(e: Expr, point, params=None):
    """Double-precision value of e at a spatial point.

    Evaluation order is fixed by the normalized tree.  Returns a float when
    the result is real, otherwise a complex value.  Raises EvalDomainError
    at poles (division by zero, ln of a non-positive value, ...).
    """
    code, _, _ = _compile(normalize(e))
    v, _ = _run(code, tuple(float(c) for c in point), params or {}, {})
    return v.real if v.imag == 0 else v


def _assignment(e_params, e_abstract, rng: random.Random):
    """(point, params, absvals) of floats k/1024, drawn as the policy's
    sample_coord and sample_param draw them; k/1024 is exactly
    float(Fraction(k, 1024))."""
    point = (_coord_numerator(rng) / 1024, _coord_numerator(rng) / 1024,
             _coord_numerator(rng) / 1024)
    params = {name: _param_numerator(rng) / 1024 for name in sorted(e_params)}
    absvals = {sym: _param_numerator(rng) / 1024 for sym in sorted(e_abstract)}
    return point, params, absvals


# Compact-tree points evaluated before any expansion; a residual that
# exceeds tol at all of them is nonzero without a symbolic pass.
SCREEN_POINTS = 3


def _samples(e: Expr, policy: ZeroTestPolicy, label: str):
    """The seeded sampling loop shared by the screen and the numeric tier.

    Yields one item per attempt, in the order of policy.rng(label): None
    when the point is rejected (a domain error, an arithmetic overflow or a
    non-finite value), else (rel, value, assignment) with rel the
    scale-relative residual.  Stops after points * MAX_ATTEMPT_FACTOR
    attempts.
    """
    code, names, symbols = _compile(e)
    rng = policy.rng(label)
    for _ in range(policy.points * MAX_ATTEMPT_FACTOR):
        assignment = _assignment(names, symbols, rng)
        try:
            v, scale = _run(code, *assignment)
        except ArithmeticError:
            yield None
            continue
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            yield None
            continue
        yield abs(v) / (1.0 + scale), v, assignment


def _nonzero(sample) -> NonZero:
    _, v, (point, params, absvals) = sample
    # a float k/1024 converts to Fraction(k, 1024) exactly
    witness = {"point": tuple(str(Fraction(c)) for c in point)}
    if params:
        witness["params"] = params
    if absvals:
        witness["abstract"] = absvals
    return NonZero(witness=witness, value=v)


def numeric_sample(e: Expr, policy: ZeroTestPolicy = DEFAULT_POLICY, label: str = ""):
    """Force the numeric tier: returns NumericZero, NonZero or Inconclusive.

    The tree is evaluated exactly as given, so all cancellation happens in
    floating point.  is_zero passes the expanded tree; on the unexpanded
    one this confirms a symbolically proved identity on an independent
    route.
    """
    tested = 0
    worst = None  # the sample with the largest relative residual
    for sample in _samples(e, policy, label):
        if sample is None:
            continue
        tested += 1
        if sample[0] > (worst[0] if worst else 0.0):
            worst = sample
        if tested == policy.points:
            break
    if tested == 0:
        return Inconclusive("no sample point was evaluable; resample with another policy")
    max_rel = worst[0] if worst else 0.0
    if max_rel > policy.tol:
        return _nonzero(worst)
    return NumericZero(points_tested=tested, max_residual=max_rel)


def is_zero(e: Expr, policy: ZeroTestPolicy = DEFAULT_POLICY, label: str = ""):
    """Certify e == 0: screen, then prove, then sample.

    The screen evaluates e as given (no expansion) at the first
    SCREEN_POINTS points of the numeric tier's stream.  When every one is
    evaluable and exceeds tol, e is NonZero with the worst of them as the
    witness.  Otherwise normalization decides: the zero node is ProvedZero
    (an exact proof), anything else goes to the numeric tier's full sample
    of the expanded tree.
    """
    worst = None
    for n, sample in enumerate(_samples(e, policy, label), 1):
        if sample is None or sample[0] <= policy.tol:
            break
        if worst is None or sample[0] > worst[0]:
            worst = sample
        if n == SCREEN_POINTS:
            return _nonzero(worst)
    proved, tree = raw_form(e)
    if proved:
        return ProvedZero()
    return numeric_sample(tree, policy, label)
