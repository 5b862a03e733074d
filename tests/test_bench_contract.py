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
from diamondgf import cli  # noqa: F401  (the tracer patches diamondgf.cli.main)

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


# A poset file for ``ppartition``, read from the test's working directory:
# two components, one of them a fork with a folded element.
POSET_FILE = "fork.poset"
POSET_TEXT = "elements 5\ncover 1 2\ncover 1 3\ncover 4 5\nassign a 2 4\n"

# One small call per entry point each workload runs, named by its path from
# the package; together they must fire every span tracing.EXPECTED requires,
# so a kernel change that routes around a traced function fails here rather
# than in the benchmark. The verify workload runs ``cli.main`` in process,
# as the benchmark does, once per target.
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
    "verify": tuple(("cli.main", (argv,)) for argv in (
        ["verify", "main", "--d", "2", "--M", "2", "--trunc", "4"],
        ["verify", "multifold", "--folds", "1,2", "--trunc", "4"],
        ["verify", "schmidt", "--d", "1", "--M", "3", "--trunc", "4"],
        ["verify", "stanley", "--count", "3", "--max-size", "4", "--trunc", "4"],
        ["verify", "apr", "--trunc", "4"],
        ["verify", "djsw-product", "--d", "2", "--trunc", "6"],
        ["verify", "theorem1", "--dmax", "3"],
        ["ppartition", POSET_FILE, "--trunc", "4", "--oracle"],
    )),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
def test_workload_fires_every_expected_span(workload, tmp_path, monkeypatch, capsys):
    (tmp_path / POSET_FILE).write_text(POSET_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install(diamondgf)
    try:
        results = [
            getattr(*tracing._resolve(diamondgf, name))(*args)
            for name, args in WORKLOAD_CALLS[workload]
        ]
    finally:
        tracer.uninstall()
    assert tracer.missing(workload) == []
    if workload == "verify":  # every target passed, so none stopped short
        assert results == [0] * len(results), capsys.readouterr()
