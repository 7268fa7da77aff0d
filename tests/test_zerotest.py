"""Zero-test tiers, sampling determinism and domain-error handling."""

import pytest

from pdmlab.symkernel import (
    EvalDomainError,
    Inconclusive,
    NonZero,
    NumericZero,
    ProvedZero,
    ZeroTestPolicy,
    arctan,
    cos,
    evaluate,
    exp,
    is_zero,
    ln,
    numeric_sample,
    param,
    sin,
    sqrt,
    x1,
    x2,
)
from pdmlab.symkernel import zerotest
from pdmlab.symkernel.expr import NUM_ZERO


class TestTiers:
    def test_proved_zero(self):
        assert isinstance(is_zero(x1 * x2 - x2 * x1), ProvedZero)
        assert isinstance(is_zero(NUM_ZERO), ProvedZero)

    def test_pythagorean_identity_is_numeric(self):
        c = param("c")
        st = is_zero(sin(c) ** 2 + cos(c) ** 2 - 1)
        assert isinstance(st, NumericZero)
        assert st.points_tested == 50
        assert st.max_residual < 1e-9

    def test_nonzero_with_witness(self):
        st = is_zero(x1)
        assert isinstance(st, NonZero)
        assert "point" in st.witness
        assert abs(st.value) > 0

    def test_arctan_sum_identity(self):
        # arctan(u) + arctan(1/u) = pi/2 for u>0: not a rational identity,
        # and not zero; the difference of both orientations is.
        u = x1**2 + 1
        e = arctan(u) - arctan(u)
        assert isinstance(is_zero(e), ProvedZero)

    def test_inconclusive_when_unevaluable(self):
        # ln of a negative-definite quantity is never evaluable
        e = ln(-(x1**2) - 1)
        st = is_zero(e)
        assert isinstance(st, Inconclusive)


def _row3_potential_residual():
    from pdmlab.catalog import entry
    from pdmlab.conformal import combo_column, killing_params
    from pdmlab.diffop import PDMHamiltonian, reduced_determining

    row = entry(3)
    (combo,) = row.integrals
    return reduced_determining(PDMHamiltonian(row.f, row.V), killing_params(combo_column(combo)))[1]


class TestScreen:
    def test_nonzero_residual_needs_no_expansion(self, monkeypatch):
        # row 3's verbatim potential equation expands to ~192k nodes; the
        # compact tree alone shows it is nonzero
        residual = _row3_potential_residual()

        def no_expansion(e):
            raise AssertionError("raw_form called on a screened residual")

        monkeypatch.setattr(zerotest, "raw_form", no_expansion)
        st = is_zero(residual, label="entry3/M43+alpha*M21/de-V")
        assert isinstance(st, NonZero)
        assert abs(st.value) > 0

    def test_screen_witness_is_deterministic(self):
        residual = _row3_potential_residual()
        a = is_zero(residual, label="entry3/de-V")
        b = is_zero(residual, label="entry3/de-V")
        assert isinstance(a, NonZero)
        assert a.witness == b.witness
        assert a.value == b.value

    def test_screen_witness_comes_from_the_first_points(self):
        pol = ZeroTestPolicy()
        st = is_zero(x1, pol, "w")
        rng = pol.rng("w")
        firsts = [str(pol.sample_coord(rng)) for _ in range(3 * zerotest.SCREEN_POINTS)]
        assert st.witness["point"] in {tuple(firsts[3 * k:3 * k + 3])
                                       for k in range(zerotest.SCREEN_POINTS)}

    def test_planted_zero_with_sqrt_and_exp_atoms_is_proved(self):
        # P*Q/R - expand(Q*P)/R, with a sqrt atom in P and an exp atom in Q
        s, t = sqrt(x1**2 + 1), exp(x2)
        P = 3 * s * x2 - 2 * x1 + 1
        Q = t * x1 + 5 * x2**2
        R = x2**2 + 2
        QP = (3 * x1 * x2 * s * t - 2 * x1**2 * t + x1 * t
              + 15 * x2**3 * s - 10 * x1 * x2**2 + 5 * x2**2)
        assert isinstance(is_zero(P * Q / R - QP / R), ProvedZero)


class TestDeterminism:
    def test_same_seed_same_result(self):
        c = param("c")
        e = sin(c) ** 2 + cos(c) ** 2 - 1
        a = numeric_sample(e, label="x")
        b = numeric_sample(e, label="x")
        assert a == b

    def test_labels_split_streams(self):
        st1 = numeric_sample(x1, label="a")
        st2 = numeric_sample(x1, label="b")
        assert st1.witness != st2.witness

    def test_seed_changes_samples(self):
        p1 = ZeroTestPolicy(seed=1)
        p2 = ZeroTestPolicy(seed=2)
        a = numeric_sample(x1, p1)
        b = numeric_sample(x1, p2)
        assert a.witness != b.witness


class TestPolicy:
    def test_coordinates_avoid_origin_band(self):
        pol = ZeroTestPolicy()
        rng = pol.rng("coords")
        for _ in range(200):
            c = pol.sample_coord(rng)
            assert 0.1 <= abs(c) <= 2

    def test_scale_relative_tolerance(self):
        # residual ~1e-12 of terms ~1e3: relatively zero
        big = (x1 * 10) ** 6
        e = (big + 1) - big - 1
        assert is_zero(e).is_zero


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(1 / x1, (0.0, 1.0, 1.0))

    def test_ln_nonpositive(self):
        with pytest.raises(EvalDomainError):
            evaluate(ln(x1), (-1.0, 0.0, 0.0))

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(sqrt(x1), (-2.0, 0.0, 0.0))

    def test_missing_param(self):
        with pytest.raises(EvalDomainError):
            evaluate(param("mu") * x1, (1.0, 1.0, 1.0))
