"""The benchmark's boundary tracer names pdmlab functions by string; each
name must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [
    (module, fn)
    for module, fns in _load_tracer().LAYERS.values()
    for fn in fns
]


@pytest.mark.parametrize("module, fn", TRACED, ids=[f"{m}:{f}" for m, f in TRACED])
def test_traced_function_resolves(module, fn):
    obj = importlib.import_module(module)
    for part in fn.split("."):  # `Class.method` names a method
        assert hasattr(obj, part), f"{module} has no {fn}"
        obj = getattr(obj, part)
    assert callable(obj)
