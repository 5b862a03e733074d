"""The benchmark's tracer (bench/tracing.py) wraps library functions by
replacing ``owner.__dict__[attr]``. A function that is only inherited, or
renamed away, would break the traced run, and so would a code path that no
longer calls a function the traced run expects to see; these tests catch
both here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import diamondgf

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


# One small call per entry point each workload runs; together they must fire
# every span tracing.EXPECTED requires, so a kernel change that routes
# around a traced function fails here rather than in the benchmark.
WORKLOAD_CALLS = {
    "products": (
        ("apr_product", (5,)),
        ("djsw_product", (2, 5)),
        ("schmidt_product", (2, 5)),
        ("djsw_recursion", (4,)),
    ),
    "closed_forms": (
        ("sigma_closed", (2, 1, 4)),
        ("sigma_multifold_closed", (diamondgf.DiamondSpec((1, 2)), 4)),
        ("schmidt_closed", (2, 1, 4)),
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
def test_workload_fires_every_expected_span(workload):
    tracer = tracing.Tracer()
    tracer.install(diamondgf)
    try:
        for name, args in WORKLOAD_CALLS[workload]:
            getattr(diamondgf, name)(*args)
    finally:
        tracer.uninstall()
    assert tracer.missing(workload) == []
