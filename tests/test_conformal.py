"""Generator factory, structure tables, subalgebra closure, transforms."""

import itertools
from fractions import Fraction

import pytest

from pdmlab.algebra import (
    so14_basis,
    verify_c3,
    verify_iso_roundtrip,
    verify_killing_table,
    verify_so13,
    verify_so14,
    verify_so4,
)
from pdmlab.conformal import (
    PJDK,
    DecompositionFailure,
    FormError,
    _generator_column,
    _rf_column,
    apply_transform,
    combo_to_op,
    decompose_in_basis,
    find_inversion_weight,
    generator,
    load_subalgebras,
    op_coordinates,
    parse_combo,
    subalgebra_closure,
)
from pdmlab.diffop import PDMHamiltonian, commute_hq
from pdmlab.symkernel import (
    AbstractFn,
    as_expr,
    is_provably_zero,
    kernel_scope,
    param,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel.ratform import rf_canon, rf_to_expr
from pdmlab.transform import (
    axis_rotation,
    conjugate_first_order,
    dilatation,
    inversion,
    rotation,
    shift,
)

R2 = x1**2 + x2**2 + x3**2
MU, NU = param("mu"), param("nu")
ALL_IDS = PJDK + tuple(f"M{mu}{nu}" for mu, nu in itertools.permutations(range(5), 2))


class TestGenerators:
    def test_boost_minus_combination(self):
        g = generator("M43")
        want_xi = (-x1 * x3, -x2 * x3, (R2 - 2 * x3**2 - 1) / 2)
        assert all(is_provably_zero(a - b) for a, b in zip(g.xi, want_xi))
        assert is_provably_zero(g.eta + Fraction(3, 2) * x3)

    def test_difference_recovers_translation(self):
        d = generator("M03") - generator("M43")
        assert (d - generator("P3")).is_zero()

    def test_m04_is_dilatation(self):
        assert (generator("M04") - generator("D")).is_zero()

    def test_antisymmetry_of_ids(self):
        assert (generator("M34") + generator("M43")).is_zero()
        assert (generator("M40") + generator("D")).is_zero()

    def test_bad_ids(self):
        for bad in ("M44", "M5", "Q1", "M012"):
            with pytest.raises(ValueError):
                generator(bad)

    def test_one_realization_per_generator(self, monkeypatch):
        # each requested id is realized once from its column, and asking
        # again realizes nothing
        import pdmlab.conformal as conformal

        calls = []
        original = conformal.killing_to_op

        def counting(column):
            calls.append(column)
            return original(column)

        conformal._generator.cache_clear()
        monkeypatch.setattr(conformal, "killing_to_op", counting)
        ids = conformal.PJDK + tuple(so14_basis())
        for gid in ids:
            generator(gid)
        assert len(calls) == len(ids)
        for gid in ids:
            generator(gid)
        assert len(calls) == len(ids)

    def test_realization_has_the_defining_column(self):
        # the column is a definition; op_coordinates proves the realized
        # operator back to the same column for every valid id
        for gid in ALL_IDS:
            assert op_coordinates(generator(gid)) == _generator_column(gid), gid

    def test_tensor_columns_are_antisymmetric(self):
        for mu, nu in itertools.permutations(range(5), 2):
            col, flipped = _generator_column(f"M{mu}{nu}"), _generator_column(f"M{nu}{mu}")
            assert all(is_provably_zero(a + b) for a, b in zip(col, flipped)), (mu, nu)


class TestStructure:
    def test_c3_all_pairs(self):
        rep = verify_c3()
        assert rep.passed
        assert sum(1 for c in rep.checks if c.status == "proved") == 45

    def test_so14_all_pairs(self):
        rep = verify_so14()
        assert rep.passed
        assert sum(1 for c in rep.checks if c.status == "proved") == 45

    def test_so4_realization(self):
        rep = verify_so4()
        assert rep.passed
        assert sum(1 for c in rep.checks if c.status == "proved") == 15

    def test_so13_realization(self):
        rep = verify_so13()
        assert rep.passed
        assert sum(1 for c in rep.checks if c.status == "proved") == 15

    def test_iso_roundtrip(self):
        assert verify_iso_roundtrip().passed

    def test_killing_table_deltas(self):
        rep = verify_killing_table()
        assert rep.passed  # deltas are annotations, not failures
        by_row = {c.name: c for c in rep.checks}
        assert by_row["row 5 (i*M32)"].status == "proved"
        assert by_row["row 7 (i*M21)"].status == "proved"
        assert by_row["row 1 (i*M43)"].status == "annotation"
        assert by_row["row 4 (i*M40)"].status == "annotation"
        assert "eta differs" in by_row["row 4 (i*M40)"].detail


class TestCombos:
    def test_parse_simple(self):
        combo = parse_combo("M43-M03+M21")
        assert [g for _, g in combo] == ["M43", "M03", "M21"]

    def test_parse_parameterized(self):
        combo = parse_combo("cos(c)*M21+sin(c)*M03")
        assert [g for _, g in combo] == ["M21", "M03"]

    def test_combo_op_linear(self):
        q = combo_to_op("M43-M03")
        assert (q + generator("P3")).is_zero()

    def test_decompose_roundtrip(self):
        basis = [generator(g) for g in ("M43", "M21", "M04")]
        target = basis[0].scale(as_expr(Fraction(2, 3))) + basis[2].scale(as_expr(-1))
        with kernel_scope:
            rank, (sol, outside) = decompose_in_basis(
                [_rf_column(op_coordinates(q)) for q in basis],
                [_rf_column(op_coordinates(target)), _rf_column(op_coordinates(generator("P1")))],
            )
            sol = [rf_to_expr(rf_canon(c)) for c in sol]
        assert rank == 3
        assert is_provably_zero(sol[0] - Fraction(2, 3))
        assert is_provably_zero(sol[1])
        assert is_provably_zero(sol[2] + 1)
        assert outside is None

    def test_decomposition_failure(self):
        from pdmlab.diffop import FirstOrderOp

        with pytest.raises(DecompositionFailure):
            op_coordinates(FirstOrderOp((x1**3, as_expr(0), as_expr(0)), as_expr(0)))


class TestSubalgebras:
    def test_record_count(self):
        specs = load_subalgebras()
        assert len(specs) == 31
        dims = {}
        for s in specs:
            dims[s.dimension] = dims.get(s.dimension, 0) + 1
        assert dims == {1: 5, 2: 5, 3: 9, 4: 6, 5: 1, 6: 3, 7: 1, 10: 1}

    def test_all_close_except_flagged(self):
        for spec in load_subalgebras():
            rep = subalgebra_closure(spec)
            if spec.id == "m7.1":
                assert rep.passed  # non-closure is annotated, not failed
                assert any(c.status == "annotation" and "rank" in c.name for c in rep.checks)
                assert any(
                    c.status == "annotation" and "leaves the listed span" in c.detail
                    for c in rep.checks
                )
            else:
                assert rep.passed, spec.id

    def test_symbolic_alpha_structure_functions(self):
        spec = next(s for s in load_subalgebras() if s.id == "m2.5")
        rep = subalgebra_closure(spec)
        assert rep.passed

    def test_no_operator_work_after_warm_up(self, spy_calls):
        # brackets come from the structure tensor and combinations from the
        # cached generator columns: once both are built, closure and
        # structure checks commute and re-prove no operator
        from pdmlab.catalog import verify_entry
        from pdmlab.diffop import commute_qq

        def run():
            assert all(subalgebra_closure(s).passed for s in load_subalgebras())
            assert verify_entry(16).passed

        run()
        calls = spy_calls(commute_qq, op_coordinates)
        run()
        assert calls == []


class TestTransforms:
    def test_shift_moves_abstract_argument(self):
        F, Ft = AbstractFn("F", 1), AbstractFn("Ft", 1)
        h = PDMHamiltonian(F(x3), Ft(x3))
        out = apply_transform(shift((0, 0, 1)), h)
        assert is_provably_zero(out.f - F(x3 + 1))
        assert is_provably_zero(out.V - Ft(x3 + 1))

    def test_dilatation_fixes_quadratic_family(self):
        h = PDMHamiltonian(MU * R2, NU)
        out = apply_transform(dilatation(Fraction(3, 2)), h)
        assert is_provably_zero(out.f - MU * R2)
        assert is_provably_zero(out.V - NU)

    def test_rational_rotation(self):
        R = axis_rotation(3, Fraction(3, 5), Fraction(4, 5))
        h = PDMHamiltonian(MU * (x1**2 + x2**2), NU)
        out = apply_transform(rotation(R), h)
        assert is_provably_zero(out.f - h.f)

    def test_rotation_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="^rotation matrix is not exactly orthogonal$"):
            rotation(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        for bad in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))):
            with pytest.raises(ValueError, match="^rotation needs a 3x3 matrix$"):
                rotation(bad)
        with pytest.raises(ValueError):
            axis_rotation(3, Fraction(1, 2), Fraction(1, 2))

    def test_inversion_reduces_quartic_profile(self):
        h = PDMHamiltonian(MU * R2**2, 6 * MU * R2 + NU)
        w, out = find_inversion_weight(h)
        assert w == -3
        assert is_provably_zero(out.f - MU)
        assert is_provably_zero(out.V - NU)

    def test_inversion_wrong_weight_raises(self):
        h = PDMHamiltonian(MU * R2**2, 6 * MU * R2 + NU)
        with pytest.raises(FormError):
            apply_transform(inversion(0), h)

    def test_inversion_rejects_transcendental(self):
        from pdmlab.symkernel import exp

        with pytest.raises(FormError):
            apply_transform(inversion(-3), PDMHamiltonian(exp(x1), as_expr(0)))

    def test_transforms_preserve_integrals(self):
        # every rational catalog row: conjugated integrals still commute
        from pdmlab.catalog import entry

        t = shift((0, Fraction(1, 2), 0))
        for eid in range(12, 19):
            row = entry(eid)
            if row.variant_integrals is not None:
                row = row.variant()
            h = PDMHamiltonian(row.f, row.V)
            q = combo_to_op(row.integrals[0])
            assert commute_hq(h, q).is_zero()
            h2 = apply_transform(t, h)
            q2 = conjugate_first_order(q, t)
            assert commute_hq(h2, q2).is_zero(), eid
        # inversion case on the quartic row
        h = PDMHamiltonian(MU * R2**2, 6 * MU * R2 + NU)
        t_inv = inversion(-3)
        q = combo_to_op("M21")
        assert commute_hq(apply_transform(t_inv, h), conjugate_first_order(q, t_inv)).is_zero()
