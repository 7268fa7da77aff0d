"""sympy as an independent oracle for the normal form.

Random rational expressions in x1, x2, a and three square roots are built
twice, as pdmlab trees and as sympy expressions.  A pair is either an
expression and a rewriting of one of its subtrees by an identity (commuted
operands, distribution, an inverse of a product, a square as a product, a
factor times its inverse, a root as its square over itself, an added
s1*s1 - (x1 + 1)), or two unrelated expressions.  `is_provably_zero` of the
difference and the equality of the two normal forms must agree with
`cancel(radsimp(...)) == 0` in sympy, on zero and on nonzero alike.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from pdmlab.symkernel import ExprError, is_provably_zero, normalize, num, param, sqrt, x1, x2

_A = param("a")
_SYM = {name: sympy.Symbol(name) for name in ("x1", "x2", "a")}
_LEAVES = {"x1": (x1, _SYM["x1"]), "x2": (x2, _SYM["x2"]), "a": (_A, _SYM["a"]),
           "s1": (sqrt(x1 + 1), sympy.sqrt(_SYM["x1"] + 1)),
           "s2": (sqrt(x2 + 2), sympy.sqrt(_SYM["x2"] + 2)),
           "s3": (sqrt(num(2)), sympy.sqrt(2))}

# trees: ("leaf", name), ("num", k), ("+", l, r), ("*", l, r), ("inv", t), ("sq", t)
_leaf = st.one_of(st.sampled_from(sorted(_LEAVES)).map(lambda n: ("leaf", n)),
                  st.integers(-3, 3).map(lambda k: ("num", k)))
_trees = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["+", "*"]), kids, kids),
        st.tuples(st.sampled_from(["inv", "sq"]), kids)),
    max_leaves=5)


def _build(tree):
    """(pdmlab tree, sympy expression) of a tree."""
    op = tree[0]
    if op == "leaf":
        return _LEAVES[tree[1]]
    if op == "num":
        return num(tree[1]), sympy.Integer(tree[1])
    kids = [_build(t) for t in tree[1:]]
    if op == "+":
        return kids[0][0] + kids[1][0], kids[0][1] + kids[1][1]
    if op == "*":
        return kids[0][0] * kids[1][0], kids[0][1] * kids[1][1]
    if op == "inv":
        return kids[0][0] ** -1, kids[0][1] ** -1
    return kids[0][0] ** 2, kids[0][1] ** 2


_S1 = ("leaf", "s1")
_UNIT = ("+", _S1, ("num", 1))  # nonzero: s1 = -1 has no solution
_ZERO = ("+", ("*", _S1, _S1), ("*", ("num", -1), ("+", ("leaf", "x1"), ("num", 1))))


def _rewrite(tree, choices):
    """tree with one identity applied at the subtree that choices lead to:
    each choice but the last picks a child, and the last picks the rule."""
    c, rest = choices[0], choices[1:]
    if rest and tree[0] in ("+", "*", "inv", "sq"):
        k = 1 + c % (len(tree) - 1)
        return tree[:k] + (_rewrite(tree[k], rest),) + tree[k + 1:]
    return _identity(tree, c)


def _identity(tree, choice: int):
    """An equal tree, choice picking among the identities that match."""
    op = tree[0]
    rules = [("*", ("*", tree, _UNIT), ("inv", _UNIT)), ("+", tree, _ZERO)]
    if op in ("+", "*"):
        rules.append((op, tree[2], tree[1]))
    if op == "*" and tree[2][0] == "+":
        a, (_, b, c) = tree[1], tree[2]
        rules.append(("+", ("*", a, b), ("*", a, c)))
    if op == "inv" and tree[1][0] == "*":
        rules.append(("*", ("inv", tree[1][1]), ("inv", tree[1][2])))
    if op == "sq":
        rules.append(("*", tree[1], tree[1]))
    if op == "leaf" and tree[1][0] == "s":
        rules.append(("*", ("*", tree, tree), ("inv", tree)))
    return rules[choice % len(rules)]


def _sympy_zero(e) -> bool:
    return sympy.cancel(sympy.radsimp(e)) == 0


def _pair(tree, other, choices, related):
    return _build(tree), _build(_rewrite(tree, choices) if related else other)


# a fixed example set: for some drawn pairs sympy's radsimp expands a
# multinomial until memory runs out, and tier-1 must not depend on the draw
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trees, _trees, st.lists(st.integers(0, 11), min_size=1, max_size=4), st.booleans())
def test_zero_and_equality_agree_with_sympy(tree, other, choices, related):
    try:
        (e, se), (f, sf) = _pair(tree, other, choices, related)
        ne, nf = normalize(e), normalize(f)
        zero = is_provably_zero(e - f)
    except ExprError:
        # an inverse of zero: sympy's side has no value either
        assume(False)
    want = _sympy_zero(se - sf)
    assert zero == want, (e, f)
    assert (ne == nf) == want, (e, f)
    if related:
        assert zero
