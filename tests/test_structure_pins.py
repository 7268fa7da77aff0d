"""Pinned structure functions: the exact `detail` text of bracket checks.

The perfbench pins and the acceptance tests fix check names, statuses and
tiers; these tests also fix the coefficient text that closure and structure
checks print, so a change in how brackets are computed cannot move it.
"""

from pdmlab.conformal import load_subalgebras, subalgebra_closure, verify_structure

OUTSIDE = (
    "bracket leaves the listed span; the record is encoded verbatim from an "
    "irregular source row and its non-closure is a finding, not a suite failure"
)


def _closure_checks(sid):
    spec = next(s for s in load_subalgebras() if s.id == sid)
    return [(c.status, c.name, c.detail) for c in subalgebra_closure(spec).checks]


def test_m2_5_parameter_free_structure_function():
    assert _closure_checks("m2.5") == [
        ("proved", "[M43-M03, M40+alpha*M21]", "(i)*b1"),
    ]


def test_m3_2_trigonometric_structure_functions():
    assert _closure_checks("m3.2") == [
        ("proved", "[cos(c)*M12-sin(c)*M04, M42-M02]",
         "((* (gauss 0 -1) (sin c)))*b2 + ((* (gauss 0 -1) (cos c)))*b3"),
        ("proved", "[cos(c)*M12-sin(c)*M04, M41-M01]",
         "((* i (cos c)))*b2 + ((* (gauss 0 -1) (sin c)))*b3"),
        ("proved", "[M42-M02, M41-M01]", "0"),
    ]


def test_m7_1_rank_and_out_of_span_annotations():
    assert _closure_checks("m7.1") == [
        ("annotation", "rank",
         "listed dimension 7, listed elements 6, coordinate rank 6"),
        ("annotation", "[M41, M12]", OUTSIDE),
        ("annotation", "[M41, M31]", OUTSIDE),
        ("proved", "[M41, M43+M03]", "((gauss 0 -1))*b3"),
        ("proved", "[M41, M42+M02]", "(i)*b2"),
        ("annotation", "[M41, M41+M01]", OUTSIDE),
        ("annotation", "[M12, M31]", OUTSIDE),
        ("proved", "[M12, M43+M03]", "0"),
        ("proved", "[M12, M42+M02]", "((gauss 0 -1))*b6"),
        ("proved", "[M12, M41+M01]", "(i)*b5"),
        ("proved", "[M31, M43+M03]", "(i)*b6"),
        ("proved", "[M31, M42+M02]", "0"),
        ("proved", "[M31, M41+M01]", "((gauss 0 -1))*b4"),
        ("proved", "[M43+M03, M42+M02]", "0"),
        ("proved", "[M43+M03, M41+M01]", "0"),
        ("proved", "[M42+M02, M41+M01]", "0"),
    ]


def test_structure_failure_details():
    # a table that claims every bracket vanishes: the report names what the
    # bracket really is over the basis, or that it leaves the basis span
    rep = verify_structure(["P1", "D", "K1"], lambda a, b: [], "pins.wrong-table")
    assert [(c.status, c.name, c.detail) for c in rep.checks] == [
        ("failed", "[P1,D]", "expected 0, got ((gauss 0 -1))*P1"),
        ("failed", "[P1,K1]", "expected 0, got ((gauss 0 2))*D"),
        ("failed", "[D,K1]", "expected 0, got ((gauss 0 -1))*K1"),
    ]
    rep = verify_structure(["P1", "K1"], lambda a, b: [], "pins.outside")
    assert [(c.status, c.name, c.detail) for c in rep.checks] == [
        ("failed", "[P1,K1]", "expected 0, got outside basis span"),
    ]
