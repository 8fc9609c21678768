"""The benchmark under bench/ hooks the package from outside; its hooks must still fit.

`bench/spans.py` wraps module attributes where the package looks them up and
passes `builder=` and `potential=` into the library, and `bench/workloads.py`
builds its workloads from public names.  A refactor that drops or renames one
of them breaks `bench/run.py --trace 1` without failing a library test, so
these tests import both files unedited and check what they rely on.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import polarhull
from polarhull import ratapprox

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_patched_attributes_exist(spans):
    _, patches = spans.traced_lib(spans.Tracer())
    for module, attr, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_library_takes_the_bench_hooks():
    assert "builder" in inspect.signature(polarhull.certify_schedule).parameters
    assert "potential" in inspect.signature(polarhull.classify_fiber).parameters


def test_every_workload_builds(spans, workloads):
    assert sorted(workloads.WORKLOADS) == ["fiber-table", "field-certify", "harmonic"]
    tracer = spans.Tracer()
    lib, patches = spans.traced_lib(tracer)
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 1).ops
        with spans.patched(patches):
            assert workloads.build(name, 1, lib, tracer.span).ops


def test_traced_certify_op_passes_its_oracle(spans, workloads):
    tracer = spans.Tracer()
    lib, patches = spans.traced_lib(tracer)
    with spans.patched(patches):
        wl = workloads.build("field-certify", 1, lib, tracer.span)
        op = next(op for op in wl.ops if op.name == "certify:gaussian-10/nu4")
        field = op.call(lib, {})
        problems, _ = op.check(field, op.expect)
    assert problems == []
    assert tracer.counts["levels_certified"] == 3
    # the per-layer grid_nodes count reads `to_dict()`: the graph bound and
    # the off-graph floor each count the graph nodes, the box ceiling none
    nodes = sum(2 * len(lev.grid.graph_nodes) for lev in field.levels)
    assert tracer.counts["grid_nodes"] == nodes
    assert tracer.count_under("ratapprox.build_approximant", "pshbuild.certify_schedule") > 0
    assert ratapprox.build_approximant is polarhull.build_approximant  # restored
