"""Operators, commutators, Killing construction and determining equations,
checked against the Expr-tree references of operator_reference."""

import itertools
import random
from fractions import Fraction

from pdmlab.diffop import (
    AXES,
    FirstOrderOp,
    PDMHamiltonian,
    _commutator,
    _first_form,
    _from_first_form,
    _from_second_form,
    _product,
    _second_form,
    commute_hq,
    commute_qq,
    hamiltonian_to_op,
    killing_to_op,
    reduced_determining,
)
from pdmlab.symkernel import (
    as_expr,
    diff,
    instantiate,
    is_provably_zero,
    is_zero,
    kernel_scope,
    mul,
    normalize,
    num,
    param,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel import ratform
from pdmlab.symkernel.expr import IMAG, NUM_ZERO
from pdmlab.symkernel.ratform import RF_ZERO, rf_add, rf_scale
from pdmlab.symkernel.scalars import MINUS_ONE

from operator_reference import (
    determining_residuals,
    expected_determining,
    expr_commutator,
    expr_first_form,
    expr_product,
    expr_second_form,
    proportional_factor,
)

R2 = x1**2 + x2**2 + x3**2
MU, NU = param("mu"), param("nu")


def _column(lam=(0, 0, 0), mu=(0, 0, 0), omega=0, nu=(0, 0, 0), c0=0) -> tuple:
    """The coordinate column (lam, mu, omega, nu, c0) of lam.K + mu.J +
    omega D + nu.P + c0."""
    return (*lam, *mu, omega, *nu, c0)


def op_P(i):
    nu = [0, 0, 0]
    nu[i - 1] = 1
    return killing_to_op(_column(nu=tuple(nu)))


def op_J(i):
    mu = [0, 0, 0]
    mu[i - 1] = 1
    return killing_to_op(_column(mu=tuple(mu)))


def op_K(i):
    lam = [0, 0, 0]
    lam[i - 1] = 1
    return killing_to_op(_column(lam=tuple(lam)))


OP_D = killing_to_op(_column(omega=1))


def compose(q1, q2):
    """q1*q2 as a second-order operator, by the form product."""
    with kernel_scope:
        return _from_second_form(_product(_first_form(q1), _first_form(q2)))


def commute_sq(s, q):
    """[S, Q] of a second- and a first-order operator, by the form
    commutator that casimir runs."""
    with kernel_scope:
        return _from_second_form(_commutator(_second_form(s), _first_form(q)))


def derivatives(e, order: int):
    """Every partial derivative of e of the given order."""
    for axes in itertools.combinations_with_replacement(AXES, order):
        d = e
        for a in axes:
            d = diff(d, a)
        yield d


def second_order_is_scalar(op) -> bool:
    """A^{ab} is a multiple of delta_ab."""
    a = op.A
    return (all(is_provably_zero(a[i][j]) for i in range(3) for j in range(3) if i != j)
            and is_provably_zero(a[0][0] - a[1][1]) and is_provably_zero(a[0][0] - a[2][2]))


class TestKillingToOp:
    def test_translation(self):
        q = op_P(1)
        assert [normalize(v) for v in q.xi] == [as_expr(1), NUM_ZERO, NUM_ZERO]
        assert normalize(q.eta) == NUM_ZERO

    def test_dilatation(self):
        assert [normalize(v) for v in OP_D.xi] == [x1, x2, x3]
        assert normalize(OP_D.eta) == normalize(as_expr(Fraction(3, 2)))

    def test_special_conformal(self):
        q = op_K(3)
        want = (-2 * x3 * x1, -2 * x3 * x2, R2 - 2 * x3**2)
        assert all(is_provably_zero(a - b) for a, b in zip(q.xi, want))
        assert is_provably_zero(q.eta + 3 * x3)

    def test_conformal_killing_equation(self):
        # with f = 1, A^{ab} of [H, Q] is a constant multiple of
        # xi^b_a + xi^a_b, a multiple of delta_ab exactly when xi is a
        # conformal Killing field
        free = PDMHamiltonian(1, 0)
        params = [
            _column(lam=(0, 0, Fraction(1, 2)), nu=(0, 0, Fraction(1, 2))),
            _column(lam=(1, 2, 3), mu=(4, 5, 6), omega=7, nu=(8, 9, 10), c0=11),
            _column(mu=(1, 0, 0), omega=Fraction(1, 3)),
        ]
        for p in params:
            assert second_order_is_scalar(commute_hq(free, killing_to_op(p)))
        # a planted field that is not conformal Killing must fail the test
        assert not second_order_is_scalar(commute_hq(free, FirstOrderOp((x1**2, 0, 0), 0)))

    def test_xi_degree_and_eta_affine(self):
        q = killing_to_op(_column(lam=(1, 1, 0), mu=(0, 1, 0), omega=2,
                                        nu=(3, 0, 1), c0=5))
        for comp in q.xi:
            assert all(is_provably_zero(d) for d in derivatives(comp, 3))
            assert not all(is_provably_zero(d) for d in derivatives(comp, 2))
        assert all(is_provably_zero(d) for d in derivatives(q.eta, 2))

    def test_eta_tilde_real_for_real_c0(self):
        # in the symmetrized form eta = (1/2) d_a xi^a + i*eta_tilde, the
        # constant of the column is eta_tilde itself
        q = killing_to_op(_column(lam=(0, 1, 0), omega=1, c0=5))
        div = diff(q.xi[0], 1) + diff(q.xi[1], 2) + diff(q.xi[2], 3)
        eta_tilde = num(0, -1) * (q.eta - Fraction(1, 2) * div)
        assert normalize(eta_tilde) == normalize(as_expr(5))
        # a complex c0 comes back as itself: only a real c0 gives a real eta_tilde
        q = killing_to_op(_column(lam=(0, 1, 0), omega=1, c0=num(5, 1)))
        div = diff(q.xi[0], 1) + diff(q.xi[1], 2) + diff(q.xi[2], 3)
        assert normalize(num(0, -1) * (q.eta - Fraction(1, 2) * div)) == normalize(num(5, 1))


class TestCommutators:
    def test_d_p_bracket(self):
        got = commute_qq(OP_D, op_P(1))
        assert (got - op_P(1).scale(num(0, 1))).is_zero()

    def test_k_p_cross_bracket(self):
        got = commute_qq(op_K(1), op_P(2))
        assert (got - op_J(3).scale(num(0, -2))).is_zero()

    def test_p_p_commute(self):
        assert commute_qq(op_P(1), op_P(2)).is_zero()

    def test_antisymmetry(self):
        q = op_K(2)
        assert commute_qq(q, q).is_zero()

    def test_jacobi_random_triples(self):
        basis = [op_P(1), op_P(3), op_J(2), op_J(3), OP_D, op_K(1), op_K(2)]
        rng = random.Random(7)
        for _ in range(5):
            a, b, c = rng.sample(basis, 3)
            j = (
                commute_qq(a, commute_qq(b, c))
                + commute_qq(b, commute_qq(c, a))
                + commute_qq(c, commute_qq(a, b))
            )
            assert j.is_zero()


class TestCompose:
    def test_p1_squared(self):
        s = compose(op_P(1), op_P(1))
        assert is_provably_zero(s.A[0][0] + 1)
        assert all(is_provably_zero(v) for k, v in s.slots() if k != (1, 1))

    def test_j3_squared_hand_expansion(self):
        # (x1 p2 - x2 p1)^2 = -x2^2 d11 - x1^2 d22 + 2 x1 x2 d1 d2 + x1 d1 + x2 d2
        s = compose(op_J(3), op_J(3))
        assert is_provably_zero(s.A[0][0] + x2**2)
        assert is_provably_zero(s.A[1][1] + x1**2)
        assert is_provably_zero(s.A[0][1] - x1 * x2)
        assert is_provably_zero(s.B[0] - x1)
        assert is_provably_zero(s.B[1] - x2)
        assert is_provably_zero(s.B[2])
        assert is_provably_zero(s.C)

    def test_product_minus_reversed_equals_commutator(self):
        # D P1 - P1 D is a degenerate second-order operator (A = 0) whose
        # first-order part carries the commutator in the -i convention
        a, b = OP_D, op_P(1)
        ab, ba = compose(a, b), compose(b, a)
        comm = commute_qq(a, b)
        for i in range(3):
            for j in range(3):
                assert is_provably_zero(ab.A[i][j] - ba.A[i][j])
        for i in range(3):
            assert is_provably_zero(ab.B[i] - ba.B[i] - num(0, -1) * comm.xi[i])
        assert is_provably_zero(ab.C - ba.C - num(0, -1) * comm.eta)


class TestHamiltonian:
    def test_free_operator(self):
        s = hamiltonian_to_op(PDMHamiltonian(as_expr(1), as_expr(0)))
        assert is_provably_zero(s.A[0][0] + 1)
        assert all(is_provably_zero(v) for v in s.B)
        assert is_provably_zero(s.C)

    def test_compact_profile(self):
        h = PDMHamiltonian(MU * (1 + R2) ** 2, 6 * MU * R2)
        s = hamiltonian_to_op(h)
        assert is_provably_zero(s.A[1][1] + MU * (1 + R2) ** 2)
        assert is_provably_zero(s.B[0] + 4 * MU * (1 + R2) * x1)
        assert is_provably_zero(s.C + 6 * MU * R2)

    def test_cylindrical_profile(self):
        h = PDMHamiltonian(MU * (x1**2 + x2**2), NU)
        s = hamiltonian_to_op(h)
        assert is_provably_zero(s.B[0] + 2 * MU * x1)
        assert is_provably_zero(s.B[2])
        assert is_provably_zero(s.C + NU)


class TestCommuteHQ:
    def test_free_translation(self):
        assert commute_hq(PDMHamiltonian(as_expr(1), as_expr(0)), op_P(1)).is_zero()

    def test_linear_potential(self):
        # [-(d.d) - x1, -i d1] = -i d1(V) = -i: A and B vanish, C = -i
        got = commute_hq(PDMHamiltonian(as_expr(1), x1), op_P(1))
        assert is_provably_zero(got.C - num(0, -1))
        assert all(is_provably_zero(v) for k, v in got.slots() if k != ())

    def test_compact_rotation_invariance(self):
        h = PDMHamiltonian(MU * (1 + R2) ** 2, 6 * MU * R2 + NU)
        m21 = op_J(3).scale(-1)
        assert commute_hq(h, m21).is_zero()

    def test_consistency_with_generic_residuals(self):
        # instantiate the abstract residuals with a concrete (f, V, xi, eta)
        h = PDMHamiltonian(MU * (1 + R2), NU * x1)
        q = OP_D
        comm = commute_hq(h, q)
        assert not comm.is_zero()
        s1, s2, s3 = param("_s1"), param("_s2"), param("_s3")
        slots = (s1, s2, s3)
        templates = {
            "f": (slots, MU * (1 + s1**2 + s2**2 + s3**2)),
            "V": (slots, NU * s1),
            "xi1": (slots, s1),
            "xi2": (slots, s2),
            "xi3": (slots, s3),
            "eta": (slots, as_expr(Fraction(3, 2)) + 0 * s1),
        }
        inst = [instantiate(e, templates) for e in determining_residuals()]
        # each residual is -i times its commutator coefficient
        for (_, v), res in zip(comm.slots(), inst, strict=True):
            assert is_provably_zero(v - num(0, 1) * res)


class TestDetermining:
    def test_matches_reference_system_up_to_rational_factor(self):
        esecond, efirst, ezeroth = expected_determining()
        for got, want in zip(determining_residuals(), esecond + efirst + ezeroth, strict=True):
            k = proportional_factor(got, want)
            assert k is not None and k.is_rational() and not k.is_zero()

    def test_reduced_for_quadratic_profile(self):
        h = PDMHamiltonian(MU * (R2 - 1) ** 2, 6 * MU * R2 + NU)
        p = _column(lam=(0, 0, Fraction(1, 2)), nu=(0, 0, Fraction(1, 2)))
        r1, r2 = reduced_determining(h, p)
        assert is_provably_zero(r1) and is_provably_zero(r2)

    def test_constant_mass_not_scale_covariant(self):
        h = PDMHamiltonian(as_expr(1), as_expr(0))
        r1, r2 = reduced_determining(h, _column(omega=1))
        assert is_provably_zero(r1 + 2)
        assert is_provably_zero(r2)

    def test_abstract_profile_with_boost(self):
        from pdmlab.symkernel import AbstractFn, sqrt

        F = AbstractFn("F", 1)
        rt = sqrt(x1**2 + x2**2)
        h = PDMHamiltonian(rt**2 * F((R2 + 1) / rt), as_expr(0))
        p = _column(lam=(0, 0, Fraction(1, 2)), nu=(0, 0, Fraction(-1, 2)))
        r1, _ = reduced_determining(h, p)
        assert is_zero(r1).tier == "symbolic"

    def test_boost_commutes_with_quartic_profile(self):
        h = PDMHamiltonian(MU * R2**2, 6 * MU * R2)
        assert commute_hq(h, op_K(3)).is_zero()


def assert_same_second(form: dict, op):
    """An Expr dict form and a SecondOrderOp are the same operator."""
    for key, v in op.slots():
        if len(set(key)) == 2:
            v = mul(2, v)
        assert is_provably_zero(form.get(key, NUM_ZERO) - v), key
    assert all(len(key) <= 2 or is_provably_zero(v) for key, v in form.items())


def _catalog_cases():
    """(H, Q) for every integral of every rational catalog row and its
    variant, and for K1 and P2, which commute with few of them."""
    from pdmlab.catalog import load_catalog
    from pdmlab.conformal import combo_to_op

    for row in load_catalog().values():
        for enc in [row] + ([row.variant()] if row.has_variant else []):
            if enc.rational:
                h = PDMHamiltonian(enc.f, enc.V)
                for combo in enc.integrals:
                    yield h, combo_to_op(combo)
                yield h, op_K(1)
                yield h, op_P(2)


def _casimir_cases():
    from pdmlab.casimir import build_casimirs
    from pdmlab.conformal import generator, so4_basis, so13_basis

    for tag, basis in (("so4", so4_basis()), ("so13", so13_basis())):
        c1 = build_casimirs(tag).C1
        for gid in basis:
            yield c1, generator(gid)


def _pjdk_pairs():
    from pdmlab.conformal import PJDK, generator

    pairs = list(itertools.combinations(PJDK, 2))
    assert len(pairs) == 45
    return [(generator(a), generator(b)) for a, b in pairs]


class TestExprReference:
    """The RF operator functions against the Expr Leibniz product."""

    def test_catalog_commutators(self):
        cases = list(_catalog_cases())
        assert len(cases) > 10
        for h, q in cases:
            want = expr_commutator(expr_second_form(hamiltonian_to_op(h)), expr_first_form(q))
            assert_same_second(want, commute_hq(h, q))

    def test_casimir_c1_commutators(self):
        for c1, q in _casimir_cases():
            want = expr_commutator(expr_second_form(c1), expr_first_form(q))
            assert_same_second(want, commute_sq(c1, q))

    def test_anisotropic_second_order(self):
        # off-diagonal A^{ab}, which no Hamiltonian and no C1 has
        for s in (compose(op_J(3), op_J(3)), compose(op_K(1), op_P(2))):
            assert not is_provably_zero(s.A[0][1])
            for q in (op_P(1), op_J(2), OP_D, op_K(3)):
                want = expr_commutator(expr_second_form(s), expr_first_form(q))
                assert_same_second(want, commute_sq(s, q))

    def test_conformal_pairs(self):
        for qa, qb in _pjdk_pairs():
            want = expr_commutator(expr_first_form(qa), expr_first_form(qb))
            got = commute_qq(qa, qb)
            assert set(want) <= {(1,), (2,), (3,), ()}
            for a in AXES:
                assert is_provably_zero(want.get((a,), NUM_ZERO) - mul(num(0, -1), got.xi[a - 1]))
            assert is_provably_zero(want.get((), NUM_ZERO) - mul(num(0, -1), got.eta))

    def test_products(self):
        for qa, qb in _pjdk_pairs()[::4]:
            for x, y in ((qa, qb), (qb, qa)):
                want = expr_product(expr_first_form(x), expr_first_form(y))
                assert_same_second(want, compose(x, y))

    def test_coefficients_are_canonical(self):
        h = PDMHamiltonian(MU * (1 + R2) ** 2, 6 * MU * R2 + NU)
        q = op_K(2).scale(IMAG) + op_P(1)
        for op in (commute_hq(h, q), compose(q, op_J(1))):
            assert all(normalize(v) == v for _, v in op.slots())
        got = commute_qq(q, killing_to_op(_column(omega=1, c0=2)))
        assert all(normalize(v) == v for v in got.xi + (got.eta,))


def _memo_sizes() -> list:
    return [len(getattr(ratform, name)) for name in
            ("_NORM_CACHE", "_RF_CACHE", "_MKEY", "_MFACTORS", "_POINTS", "_ROOT_BASE",
             "_DIFF", "_SHIFT", "_ATOMS")] + [ratform._GUARDS]


def test_operator_functions_need_no_enclosing_scope():
    # each function enters the kernel scope itself, and its exit leaves
    # every memo of the scope empty
    h = PDMHamiltonian(MU * (1 + R2) ** 2, 6 * MU * R2)
    calls = (
        lambda: commute_qq(op_K(1), op_P(2)),
        lambda: commute_hq(h, op_K(3)),
    )
    assert ratform.kernel_scope.depth == 0
    for call in calls:
        assert not any(_memo_sizes())
        call()
        assert ratform.kernel_scope.depth == 0
        assert not any(_memo_sizes())


def full_commutator(left: dict, right: dict) -> dict:
    """L*R - R*L from both full RF products, the S = alpha terms included;
    call it in a kernel scope."""
    lr, rl = _product(left, right), _product(right, left)
    return {key: rf_add(lr.get(key, RF_ZERO), rf_scale(rl.get(key, RF_ZERO), MINUS_ONE))
            for key in lr.keys() | rl.keys()}


def assert_top_order_cancels(full: dict, order: int):
    top = [v for key, v in full.items() if len(key) == order]
    assert top, "no top-order terms: the check would be vacuous"
    assert all(v.is_zero() for v in top)


class TestTopOrderCancellation:
    """The commutator rule never forms the top-order terms; here the full
    products form them, and they must cancel."""

    def check_second_first(self, s, q):
        with kernel_scope:
            full = full_commutator(_second_form(s), _first_form(q))
            assert_top_order_cancels(full, 3)
            got = _from_second_form(full)
        assert got.slots() == commute_sq(s, q).slots()

    def test_catalog_hamiltonians(self):
        checked = 0
        for h, q in _catalog_cases():
            self.check_second_first(hamiltonian_to_op(h), q)
            checked += 1
        assert checked > 0

    def test_casimir_c1(self):
        for c1, q in _casimir_cases():
            self.check_second_first(c1, q)

    def test_conformal_pairs(self):
        for qa, qb in _pjdk_pairs():
            with kernel_scope:
                full = full_commutator(_first_form(qa), _first_form(qb))
                assert_top_order_cancels(full, 2)
                got = _from_first_form(full)
            want = commute_qq(qa, qb)
            assert got.xi == want.xi and got.eta == want.eta
