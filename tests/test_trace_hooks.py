"""The benchmark names pdmlab functions and modules by string: the boundary
tracer wraps functions by module and name, and the set-up snippets of
`perfbench/run.py` import modules and call loaders.  Each name must still
resolve, and each traced function must be defined where the tracer looks,
or `perfbench/run.py` breaks or silently drops a per-layer count."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
TRACER_PATH = BENCH_DIR / "tracer.py"
RUN_PATH = BENCH_DIR / "run.py"


def _load(name, path):
    # run.py imports its sibling modules (tracer, speed, ...) by bare name,
    # and its dataclass looks its own module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


TRACED = [
    (module, fn)
    for module, fns in _load("perfbench_tracer", TRACER_PATH).LAYERS.values()
    for fn in fns
]
SETUP_CODE = _load("perfbench_run", RUN_PATH).SETUP_CODE


def _resolve(module, fn):
    obj = importlib.import_module(module)
    for part in fn.split("."):  # `Class.method` names a method
        assert hasattr(obj, part), f"{module} has no {fn}"
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, fn", TRACED, ids=[f"{m}:{f}" for m, f in TRACED])
def test_traced_function_resolves(module, fn):
    assert callable(_resolve(module, fn))


@pytest.mark.parametrize("module, fn", TRACED, ids=[f"{m}:{f}" for m, f in TRACED])
def test_traced_function_is_defined_where_named(module, fn):
    # the tracer wraps a function where its defining module binds it and
    # where other modules bound it by name; one only re-exported from the
    # named module would miss the calls made inside the module that defines
    # it, and its per-layer count would fall without any error
    assert _resolve(module, fn).__module__ == module


@pytest.mark.parametrize("workload", sorted(SETUP_CODE))
def test_setup_code_runs(workload):
    # each workload's set-up, as run.py times it: a fresh interpreter with
    # src/ on the path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE[workload]], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
