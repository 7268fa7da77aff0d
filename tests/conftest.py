"""Subprocesses the tests start import pdmlab from this checkout's src/.

pyproject's `pythonpath` setting reaches only the pytest process, so plain
`pytest` from a checkout also puts src/ on the children's PYTHONPATH.

The `spy_calls` fixture records the calls of chosen pdmlab functions.

Each test's call runs under a wall budget, TEST_WALL_BUDGET_S: a
SIGALRM from `signal.setitimer(ITIMER_REAL)` raises WallBudgetExceeded
where the test was, so a hung test fails with its traceback instead of
stalling the suite.  A Hypothesis deadline fails an example only after it
returns, and cannot report a hang.
"""

import os
import signal
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

# Far above the slowest test, which takes a few seconds.
TEST_WALL_BUDGET_S = 300


class WallBudgetExceeded(BaseException):
    """A test ran past TEST_WALL_BUDGET_S.  Not an Exception, so neither an
    `except Exception` in the code under test nor Hypothesis's shrinking
    takes it for an ordinary failure and runs on."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise WallBudgetExceeded(f"{item.nodeid} ran past its {TEST_WALL_BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_WALL_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
