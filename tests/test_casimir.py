"""Casimir operators, their Hamiltonian identities and the algebraic spectra."""

from fractions import Fraction

import pytest

from pdmlab.casimir import (
    build_casimirs,
    qg_operators,
    so13_energy_window,
    so13_window_report,
    verify_casimir_centrality,
    verify_casimir_identity,
    verify_qg_decoupling,
)
from pdmlab.spectral import algebraic_spectrum_so4
from pdmlab.symkernel import evaluate


class TestCasimirIdentities:
    def test_so4_identity_and_c2(self):
        rep = verify_casimir_identity("so4")
        assert rep.passed
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["C1 == (H - 9)/4"] == "proved"
        assert statuses["C2 == 0"] == "proved"

    def test_so13_identity_and_c2(self):
        rep = verify_casimir_identity("so13")
        assert rep.passed
        names = {c.name: c for c in rep.checks}
        assert names["C1 == (H + 9)/4"].status == "proved"
        assert names["C2 == 0"].status == "proved"
        # the printed contraction orientation is surfaced as a finding
        assert any(c.status == "annotation" for c in rep.checks)

    def test_mutation_control_fails(self):
        # 6r^2 -> 5r^2 must break the identity: the check is tight
        rep = verify_casimir_identity("so4", mutated=True)
        assert not rep.passed

    def test_c2_zero_operator(self):
        for tag in ("so4", "so13"):
            pair = build_casimirs(tag)
            assert pair.C2.is_zero()

    def test_centrality(self):
        assert verify_casimir_centrality("so4").passed
        assert verify_casimir_centrality("so13").passed


class TestQG:
    def test_decoupling_and_sums(self):
        rep = verify_qg_decoupling()
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "C1 == 2(q^2+g^2)" in names
        assert "C2 == 2(q^2-g^2)" in names

    def test_three_plus_three(self):
        qs, gs = qg_operators()
        assert len(qs) == 3 and len(gs) == 3


class TestSpectrum:
    def test_levels(self):
        assert algebraic_spectrum_so4(1).etilde == 9
        assert algebraic_spectrum_so4(2).etilde == 21
        lv = algebraic_spectrum_so4(3)
        assert lv.etilde == 41
        assert tuple(lv.allowed_l) == (0, 1, 2)
        assert lv.degeneracy == 9

    def test_energy_form(self):
        lv = algebraic_spectrum_so4(2)
        val = evaluate(lv.energy, (0, 0, 0), {"mu": 2.0, "nu": -1.0})
        assert val == 2.0 * 21 - 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            algebraic_spectrum_so4(0)

    def test_casimir_bridge(self):
        # level n is the so(4) irrep (q, q) with q = (n-1)/2: C1 = 4q(q+1)
        # = n^2 - 1 = (Etilde - 9)/4, and the dimension is (2q+1)^2
        for n in range(1, 11):
            q = Fraction(n - 1, 2)
            lv = algebraic_spectrum_so4(n)
            assert lv.etilde == 4 * (4 * q * (q + 1)) + 9
            assert lv.degeneracy == (2 * q + 1) ** 2


class TestWindows:
    def test_boundary_of_lower_window(self):
        w = so13_energy_window(1.0)
        assert w.etilde == -6.0
        assert any("principal" in t for t in w.windows)

    def test_shared_boundary(self):
        w = so13_energy_window(0.0)
        assert w.etilde == -5.0
        assert len(w.windows) == 2

    def test_imaginary_label(self):
        w = so13_energy_window(-4.0)
        assert w.etilde == -1.0
        assert any("subsidiary" in t for t in w.windows)

    def test_annotation_presents_both_derivations(self):
        w = so13_energy_window(0.5)
        assert "tabulated" in w.annotation and "via_casimir" in w.annotation
        assert "-5 - 4*j1^2" in w.annotation["via_casimir"]
        rep = so13_window_report()
        assert any(c.status == "annotation" for c in rep.checks)
