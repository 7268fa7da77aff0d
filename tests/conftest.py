"""Subprocesses the tests start import pdmlab from this checkout's src/.

pyproject's `pythonpath` setting reaches only the pytest process, so plain
`pytest` from a checkout also puts src/ on the children's PYTHONPATH.

The `spy_calls` fixture records the calls of chosen pdmlab functions.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def spy_calls(monkeypatch):
    """spy_calls(*functions) wraps each function at every place a caller
    looks its name up, in each loaded pdmlab module that binds it, and
    returns the list that each call appends the function's name to."""

    def install(*functions):
        calls = []
        for fn in functions:
            def counting(*args, fn=fn, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "pdmlab" and vars(module).get(fn.__name__) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting)
        return calls

    return install
