"""The benchmark's tracer (bench/tracing.py) wraps library functions by
replacing ``owner.__dict__[attr]``. A function that is only inherited, or
renamed away, would break the traced run; these tests catch that here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("diamondgf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for module_name, path, _span, _counter in tracing.TARGETS],
    ids=lambda value: value,
)
def test_trace_target_is_defined_on_its_owner(module_name, path):
    module = importlib.import_module(f"diamondgf.{module_name}")
    owner, attr = tracing._resolve(module, path)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined on its owner itself"
    assert callable(owner.__dict__[attr])
