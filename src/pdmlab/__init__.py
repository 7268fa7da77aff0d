"""pdmlab: symbolic and numerical verification lab for position-dependent-mass
Schrodinger operators, their first-order integrals of motion and spectra."""

__version__ = "0.1.0"


def read_only(self, name, *value):
    """__setattr__ and __delattr__ of a read-only record: its __init__ sets
    each slot once with object.__setattr__."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")
