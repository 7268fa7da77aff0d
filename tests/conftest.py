"""Subprocesses the tests start import pdmlab from this checkout's src/.

pyproject's `pythonpath` setting reaches only the pytest process, so plain
`pytest` from a checkout also puts src/ on the children's PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
