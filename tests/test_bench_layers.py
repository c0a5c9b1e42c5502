"""Every layer the benchmark's tracer wraps exists in the package.

bench/spans.py names the functions `bench/run.py --trace 1` wraps, by module
and attribute path.  Renaming or deleting one of them would break tracing
without failing any other test, so this test loads spans.py (read-only, as a
module from its file) and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.LAYERS


PACKAGE, LAYERS = _layers()


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in LAYERS])
def test_traced_layer_resolves(module_name, path):
    target = importlib.import_module(f"{PACKAGE}.{module_name}")
    for attr in path.split("."):
        assert hasattr(target, attr), f"{PACKAGE}.{module_name}.{path} is gone"
        target = getattr(target, attr)
    assert callable(target)
