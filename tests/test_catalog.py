"""Catalog rows: content, per-integral verification, closure, variants,
worked families, abstract-family instantiation."""

import pytest

from pdmlab import catalog
from pdmlab.catalog import (
    entry,
    load_catalog,
    verify_entry,
    verify_worked_family,
)
from pdmlab.conformal import combo_column, combo_to_op
from pdmlab.diffop import PDMHamiltonian, commute_hq, reduced_determining
from pdmlab.verify import WORKED_CHECKS, WORKED_FAMILIES
from pdmlab.symkernel import (
    Add,
    AbstractFn,
    ZeroTestPolicy,
    add,
    diff,
    instantiate,
    is_provably_zero,
    is_zero,
    mul,
    param,
    sqrt,
    subst,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel.expr import walk

from operator_reference import flow_residual_03, pair_residual_12

R2 = x1**2 + x2**2 + x3**2
RT2 = x1**2 + x2**2
MU, NU = param("mu"), param("nu")

FAST = ZeroTestPolicy(points=20)


class TestContent:
    def test_eighteen_rows(self):
        assert sorted(load_catalog()) == list(range(1, 19))

    def test_row_16(self):
        row = entry(16)
        assert is_provably_zero(row.f - MU * (R2 + 1) ** 2)
        assert is_provably_zero(row.V - (6 * MU * R2 + NU))
        assert row.integrals == ("M41", "M42", "M43", "M21", "M31", "M32")

    def test_row_12(self):
        row = entry(12)
        assert is_provably_zero(row.f - MU * RT2)
        assert is_provably_zero(row.V - NU)
        assert row.integrals == ("M40", "M21", "M43-M03")

    def test_row_6(self):
        row = entry(6)
        F, Ft = AbstractFn("F", 1), AbstractFn("Ft", 1)
        rt = sqrt(RT2)
        u = (R2 + 1) / rt
        assert is_provably_zero(row.f - rt**2 * F(u))
        assert is_provably_zero(row.V - (3 * rt * F.d(1)(u) + Ft(u)))
        assert row.integrals == ("M43", "M21")

    def test_range_error(self):
        with pytest.raises(KeyError):
            entry(19)

    def test_rationality_split(self):
        rational_ids = {i for i in range(1, 19) if entry(i).rational}
        assert rational_ids == set(range(12, 19))


class TestVerification:
    def test_quadratic_rows_prove_exactly(self):
        for eid in (16, 17):
            rep = verify_entry(eid, FAST)
            assert rep.passed
            flow = [c for c in rep.checks if "flow equation" in c.name]
            assert flow and all(c.status == "proved" for c in flow)
            comm = [c for c in rep.checks if "[H,Q]" in c.name]
            assert len(comm) == 6 and all(c.status == "proved" for c in comm)

    def test_structure_constants_rows_16_17(self):
        for eid in (16, 17):
            rep = verify_entry(eid, FAST)
            sc = [c for c in rep.checks if "structure constants" in c.name]
            assert sc and sc[0].status == "proved"

    def test_abstract_row_9(self):
        rep = verify_entry(9, FAST)
        assert rep.passed
        assert any(c.status == "numeric" for c in rep.checks)  # confirmations

    def test_transcendental_row_4_passes(self):
        rep = verify_entry(4, FAST)
        assert rep.passed
        # proved exactly and confirmed numerically
        assert any(c.tier == "numeric" and not c.failed for c in rep.checks)

    def test_verbatim_failures_become_annotations_with_passing_variant(self):
        for eid in (2, 3, 8, 18):
            rep = verify_entry(eid, FAST)
            assert rep.passed, eid
            assert any(c.extra.get("verbatim_failure") for c in rep.checks), eid
            variant_checks = [c for c in rep.checks if "[variant]" in c.name]
            assert variant_checks and not any(c.failed for c in variant_checks)

    def test_rows_without_variant_pass_verbatim(self):
        for eid in (1, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17):
            rep = verify_entry(eid, FAST)
            assert rep.passed, eid
            assert not any(c.extra.get("verbatim_failure") for c in rep.checks), eid


def _flip_first_term(e):
    """e with the sign of the first term of its first sum (in pre-order)
    flipped, or None when e holds no sum."""
    for node in walk(e):
        if isinstance(node, Add):
            return subst(e, {node: add(mul(-1, node.terms[0]), *node.terms[1:])})
    return None


def _mutated(row):
    """The row with one sign flipped in V, or in f where V holds no sum, and
    likewise in its variant.  In rows 2 and 10 neither f nor V holds a sum,
    and flipping the sign of all of f, of all of V or of an argument leaves
    every listed integral one (each is a translation or a rotation), so
    the sign of one term of the first integral is flipped instead."""
    changes = {}
    for fields in (("V", "f"), ("variant_V", "variant_f")):
        for name in fields:
            e = getattr(row, name)
            flipped = _flip_first_term(e) if e is not None else None
            if flipped is not None:
                changes[name] = flipped
                break
    if not changes:
        first, *rest = row.integrals
        changes["integrals"] = (first.replace("-", "+", 1), *rest)
    return row._replace(**changes)


class TestPlantedMutations:
    @pytest.mark.parametrize("eid", range(1, 12))
    def test_sign_flip_fails_at_the_numeric_tier(self, eid, monkeypatch):
        # rows 1-11 hold abstract or transcendental functions, so only the
        # numeric tier can catch the mutation
        assert verify_entry(eid).passed
        rows = dict(load_catalog())
        rows[eid] = _mutated(rows[eid])
        monkeypatch.setattr(catalog, "load_catalog", lambda: rows)
        rep = verify_entry(eid)
        assert not rep.passed
        assert any(c.failed and c.tier == "numeric" for c in rep.checks)
        if entry(eid).has_variant:
            assert any(c.failed and "[variant]" in c.name for c in rep.checks)


class TestClosure:
    def test_entry_15_set_closes(self):
        rep = verify_entry(15, FAST)
        cl = [c for c in rep.checks if "closes" in c.name]
        assert cl and cl[0].status == "proved"

    def test_entry_18_variant_set_closes(self):
        rep = verify_entry(18, FAST)
        cl = [c for c in rep.checks if "closes" in c.name and "[variant]" in c.name]
        assert cl and cl[0].status == "proved"


class TestWorkedFamilies:
    def test_all_families(self):
        for name in WORKED_FAMILIES:
            rep = verify_worked_family(name, FAST)
            assert rep.passed, name

    def test_de7_orientation_annotated(self):
        rep = verify_worked_family("de7_family", FAST)
        ann = [c for c in rep.checks if c.status == "annotation"]
        assert ann and "does not solve" in ann[0].detail

    def test_pair_equation_constant_annotated(self):
        for name in ("de13_family", "fV1"):
            rep = verify_worked_family(name, FAST)
            assert any(
                c.status == "annotation" and "r^2+1-2x3" in c.detail for c in rep.checks
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_worked_family("nope")

    def test_each_check_reads_its_integral(self):
        # every zero test of WORKED_CHECKS, by is_zero label, against the
        # hand-derived equation it replaced and that equation's multiple of
        # r1 or r2, on generic G, W: a wrong integral would still print
        # the verbatim annotations, which no byte check tells apart
        G, W = AbstractFn("G", 3)(x1, x2, x3), AbstractFn("W", 3)(x1, x2, x3)
        flow, potential = flow_residual_03(G, 4 * x3), flow_residual_03(W, 0) - 3 * diff(G, 3)

        def pair(axis, sign):
            xa = (x1, x2, x3)[axis - 1]
            return (pair_residual_12(G, axis, sign) - 4 * xa * G,
                    pair_residual_12(W, axis, sign) - 3 * diff(G, axis))

        hand = {
            "de7/good": (flow, -2), "de7/bad": (flow, -2), "de7/V": (potential, -2),
            "ff/f": (flow, -2), "ff/V": (potential, -2), "de13/flow": (flow, -2),
            "ff/rotf": (x2 * diff(G, 1) - x1 * diff(G, 2), -1),
            "ff/rotV": (x2 * diff(W, 1) - x1 * diff(W, 2), -1),
        }
        for (f_label, v_label), (axis, sign) in {
            ("de13/fv", "de13/Vv"): (2, -1), ("de13/f", "de13/V"): (2, 1),
            ("fV1/fv", None): (1, -1), ("fV1/f", "fV1/V"): (1, 1),
        }.items():
            res_f, res_v = pair(axis, sign)
            hand[f_label] = (res_f, -2)
            if v_label:
                hand[v_label] = (res_v, -2)
        h = PDMHamiltonian(G, W)
        seen = []
        for rows in WORKED_CHECKS.values():
            for integral, _, tests, _, _ in rows:
                r = reduced_determining(h, combo_column(integral))
                for label, k in tests.items():
                    want, multiple = hand[label]
                    assert is_provably_zero(want - multiple * r[k]), label
                    seen.append(label)
        assert sorted(seen) == sorted(hand)


class TestInstantiation:
    """Replacing the abstract profile by concrete rational functions must
    keep every check green (chain-rule regression)."""

    @pytest.mark.parametrize("body_ix", [0, 1, 2])
    def test_entry6_instantiations(self, body_ix):
        s = param("_s1")
        bodies = [s**2, 1 / s, s**3 + 2 * s]
        row = entry(6)
        templates = {"F": ((s,), bodies[body_ix]), "Ft": ((s,), s + 1)}
        f = instantiate(row.f, templates)
        V = instantiate(row.V, templates)
        h = PDMHamiltonian(f, V)
        for combo in row.integrals:
            r1, r2 = reduced_determining(h, combo_column(combo))
            assert is_zero(r1, FAST).is_zero
            assert is_zero(r2, FAST).is_zero

    def test_ff_specialization_full_commutator(self):
        # constant profile specialization: f = rt^2, V = Ft constant
        s = param("_s1")
        row = entry(6)
        templates = {"F": ((s,), 1 + 0 * s), "Ft": ((s,), NU + 0 * s)}
        h = PDMHamiltonian(
            instantiate(row.f, templates), instantiate(row.V, templates)
        )
        for combo in row.integrals:
            assert commute_hq(h, combo_to_op(combo)).is_zero()
