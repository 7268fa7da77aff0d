"""Read-only records and the zero-test verdicts' identity.

The verdicts' repr is the text whose sha256 the kernel-stream benchmark
digests, and equal verdicts must hash alike; every record refuses setattr
and delattr with read_only's message.
"""

import pytest

from pdmlab.diffop import FirstOrderOp, PDMHamiltonian, SecondOrderOp
from pdmlab.spectral import ClosedFormSolution, RadialProblem
from pdmlab.symkernel import Inconclusive, NonZero, NumericZero, ProvedZero, x1
from pdmlab.transform import shift


def _verdicts():
    """A fresh instance of each of the four verdict types."""
    witness = {"point": ("1/2", "3/4", "-1"), "params": {"a": 0.5}}
    return [ProvedZero(), NumericZero(12, 1e-13), NonZero(witness, 0.25 + 1j),
            Inconclusive("expansion budget")]


class TestVerdicts:
    def test_repr(self):
        assert [repr(v) for v in _verdicts()] == [
            "ProvedZero()",
            "NumericZero(points_tested=12, max_residual=1e-13)",
            "NonZero(witness={'point': ('1/2', '3/4', '-1'), 'params': {'a': 0.5}},"
            " value=(0.25+1j))",
            "Inconclusive(reason='expansion budget')",
        ]

    def test_equal_verdicts_hash_alike(self):
        for a, b in zip(_verdicts(), _verdicts()):
            assert a is not b and a == b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        assert len(set(_verdicts() + _verdicts())) == 4

    def test_fields_and_type_decide_equality(self):
        assert NumericZero(12, 1e-13) != NumericZero(13, 1e-13)
        assert Inconclusive("a") != Inconclusive("b")
        assert NonZero({"point": ("0",)}, 1.0) != NonZero({"point": ("1",)}, 1.0)
        assert ProvedZero() != ()
        assert () != ProvedZero()
        assert ProvedZero() != NumericZero(0, 0.0)


def _records():
    return [
        FirstOrderOp((x1, 0, 0), 0),
        SecondOrderOp(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0), 0),
        PDMHamiltonian(1, x1),
        RadialProblem(),
        ClosedFormSolution(system="so4", n=1),
        shift((0, 0, 1)),
    ] + _verdicts()


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    name = type(record).__name__
    field = (record.__slots__ or ("tier",))[0]
    before = repr(record)
    for attempt in (lambda: setattr(record, field, 0), lambda: delattr(record, field),
                    lambda: setattr(record, "extra", 0)):
        with pytest.raises(AttributeError) as err:
            attempt()
        assert str(err.value).startswith(f"{name} is read-only: cannot set or delete ")
    assert str(err.value) == f"{name} is read-only: cannot set or delete 'extra'"
    assert repr(record) == before
