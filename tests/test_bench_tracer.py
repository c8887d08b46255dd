"""The traced benchmark (`bench/tracer.py`) wraps library functions named by
module and attribute, and a traced run stops on a name that no longer
resolves.  Check every name here, so that a rename fails the test suite
rather than a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("span, module, attr", tracer.SPANS,
                         ids=[f"{m}.{a}" for _, m, a in tracer.SPANS])
def test_traced_name_resolves(span, module, attr):
    _, _, obj = tracer._resolve(module, attr)
    assert callable(obj)
