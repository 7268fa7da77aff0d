"""The structure tensor of the conformal Killing span against the
differential realization it is built from."""

import itertools
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from pdmlab.conformal import (
    COORD_NAMES,
    _bracket_tensor,
    _rf_column,
    bracket,
    op_coordinates,
)
from pdmlab.diffop import commute_qq, killing_to_op
from pdmlab.symkernel import (
    NUM_ZERO,
    GRat,
    Num,
    cos,
    is_provably_zero,
    kernel_scope,
    normalize,
    param,
    sin,
)
from pdmlab.symkernel.expr import mul
from pdmlab.symkernel.ratform import rf_canon, rf_to_expr

C = param("c")
ATOMS = (Num(1), param("alpha"), cos(C), sin(C))

entries = st.one_of(
    st.just(NUM_ZERO),
    st.builds(
        lambda q, atom: mul(Num(q), atom),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from(ATOMS),
    ),
)
columns = st.lists(entries, min_size=len(COORD_NAMES), max_size=len(COORD_NAMES))

UNITS = [
    tuple(Num(int(k == i)) for k in range(len(COORD_NAMES)))
    for i in range(len(COORD_NAMES))
]


def _same(u, v) -> bool:
    return all(is_provably_zero(a - b) for a, b in zip(u, v))


def _bracket(u, v) -> tuple:
    """bracket() of two Expr columns, with canonical Expr entries."""
    with kernel_scope:
        return tuple(rf_to_expr(rf_canon(e)) for e in bracket(_rf_column(u), _rf_column(v)))


@settings(max_examples=30, deadline=None)
@given(columns, columns)
def test_tensor_bracket_matches_the_realization(u, v):
    want = op_coordinates(commute_qq(killing_to_op(u), killing_to_op(v)))
    assert _same(_bracket(u, v), want)


@settings(max_examples=30, deadline=None)
@given(columns, columns)
def test_bracket_is_antisymmetric(u, v):
    assert _same(_bracket(u, v), [-e for e in _bracket(v, u)])


def test_jacobi_identity_on_unit_columns():
    zero = [NUM_ZERO] * len(COORD_NAMES)
    for a, b, c in itertools.combinations(UNITS, 3):
        cyclic = [
            _bracket(a, _bracket(b, c)),
            _bracket(b, _bracket(c, a)),
            _bracket(c, _bracket(a, b)),
        ]
        assert _same([sum(t, NUM_ZERO) for t in zip(*cyclic)], zero)


def _reference_tensor() -> dict:
    """The tensor on Expr trees: commute_qq and op_coordinates over all 55
    pairs of unit columns."""
    units = [killing_to_op(u) for u in UNITS]
    out = {}
    for i, j in itertools.combinations(range(len(units)), 2):
        comm = commute_qq(units[i], units[j])
        if not comm.is_zero():
            out[i, j] = op_coordinates(comm)
            out[j, i] = tuple(normalize(-e) for e in out[i, j])
    return out


def test_tensor_equals_the_expr_reference():
    got, want = _bracket_tensor(), _reference_tensor()
    assert len(want) == 60
    assert got.keys() == want.keys()
    for key, column in want.items():
        assert tuple(Num(e) for e in got[key]) == column, key
        assert all(type(e) is GRat for e in got[key])


def test_tensor_build_commutes_no_operator(spy_calls):
    # the polynomial build calls neither reference, and holds without an
    # enclosing kernel scope
    calls = spy_calls(commute_qq, op_coordinates)
    assert _bracket_tensor.__wrapped__() == _bracket_tensor()
    assert calls == []


def test_tensor_is_built_on_first_use():
    memoized = ("g._generator", "g._generator_column", "g._bracket_tensor",
                "cas.build_casimirs", "cat.load_catalog")
    code = (
        "import pdmlab.casimir as cas, pdmlab.catalog as cat, pdmlab.conformal as g;"
        f" print(*(f.cache_info().currsize for f in ({', '.join(memoized)},)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * len(memoized)
