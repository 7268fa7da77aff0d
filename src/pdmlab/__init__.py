"""pdmlab: symbolic and numerical verification lab for position-dependent-mass
Schrodinger operators, their first-order integrals of motion and spectra."""

__version__ = "0.1.0"


class Record:
    """Base of the read-only records: __init__ sets each slot once, in
    __slots__ order, and setattr and delattr then raise."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__
