"""The benchmark under bench/ hooks the package from outside; its hooks must still fit.

`bench/spans.py` wraps module attributes where the package looks them up and
passes `builder=` and `potential=` into the library, and `bench/workloads.py`
builds its workloads from public names.  A refactor that drops or renames one
of them breaks `bench/run.py --trace 1` without failing a library test, so
these tests import both files unedited and check what they rely on.  The
field-certify operations also serve as the reference cases of the
quadrature's rounding-floor stop: each is run again with the stop switched
off (`QUAD_FLOOR_FACTOR = 0`, doubling to the node cap), as an oracle.
Every fiber-table and field-certify operation must also pass its own check
and reach the verdicts frozen here.
"""
import functools
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import polarhull
from polarhull import core, ratapprox
from polarhull.models import PoleSeries

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


def _run_ops(workloads, prefix, lib=None):
    """{name: (op, result)} of the field-certify operations whose names start with `prefix`."""
    lib = lib or workloads.plain_lib()
    wl = workloads.build("field-certify", 1, lib)
    return {op.name: (op, op.call(lib, {})) for op in wl.ops if op.name.startswith(prefix)}


def test_scan_ops_pass_within_1024_nodes(workloads):
    scans = _run_ops(workloads, "scan:")
    assert len(scans) == 3
    for name, (op, report) in scans.items():
        problems, _ = op.check(report, op.expect)
        assert problems == [], name
        nodes = [nodes for nodes, *_ in report.quadrature]
        assert max(nodes) <= 1024, (name, nodes)


def test_scans_match_the_doubling_to_cap_oracle(workloads, monkeypatch):
    # the subject is the quadrature: the pole series take it here, not their exact rows
    monkeypatch.delattr(PoleSeries, "numerator")
    fast = _run_ops(workloads, "scan:")
    monkeypatch.setattr(core, "QUAD_FLOOR_FACTOR", 0)
    slow = _run_ops(workloads, "scan:")
    # the four builds that stop at the rounding floor run to the cap without it
    assert sum(nodes == ratapprox.MAX_APPROX_NODES
               for _, report in slow.values() for nodes, *_ in report.quadrature) == 4
    for name, (_, report) in fast.items():
        oracle = slow[name][1]
        assert len(report.entries) == len(oracle.entries)
        for (d, err, _, floored), (d0, err0, _, floored0) in zip(report.entries, oracle.entries):
            assert d == d0 and floored == floored0, name
            assert abs(err - err0) <= 1e-12, (name, d, err, err0)


def _certify_builds(workloads):
    """The approximants the seven certify operations built, and every try of their levels."""
    built = []

    def builder(*args, **kwargs):
        built.append(ratapprox.build_approximant(*args, **kwargs))
        return built[-1]

    lib = workloads.plain_lib()
    lib.certify_schedule = functools.partial(polarhull.certify_schedule, builder=builder)
    fields = _run_ops(workloads, "certify:", lib)
    assert len(fields) == 7
    tried = [t for _, field in fields.values() for lev in field.levels for t in lev.tried]
    return built, tried


def test_certify_builds_match_the_doubling_to_cap_oracle(workloads, monkeypatch):
    built, tried = _certify_builds(workloads)
    monkeypatch.setattr(core, "QUAD_FLOOR_FACTOR", 0)
    oracle, oracle_tried = _certify_builds(workloads)
    assert tried == oracle_tried
    assert len(built) == len(oracle)
    for ap, want in zip(built, oracle):
        assert (ap.nodes, ap.converged) == (want.nodes, want.converged)
        assert ap.coeffs.tobytes() == want.coeffs.tobytes()


# the verdicts the fiber-table and field-certify operations must reach at
# seed 1: each fiber's classification, and each field's certified order N per
# level nu = 2, 3, ...; the rounded numbers are left to the bench checksum
FROZEN_FIBERS = {"fiber:exp-reciprocal@0": "FIBER_EMPTY",
                 **{f"fiber:recip-sin-pi@{p}": "FIBER_EMPTY" for p in
                    ["0"] + [f"{s}1/{n}" for s in "+-" for n in range(1, 9)]},
                 **{f"fiber:gaussian-{n}@0": "HULL_POINT" for n in (40, 1000, 4000)}}
FROZEN_ORDERS = {
    "certify:exp-reciprocal/nu8": [16, 22, 25, 27, 28, 28, 28],
    "certify:two-pole/nu8": [2, 2, 4, 5, 6, 7, 9],
    "certify:recip-sin-pi-8/nu8": [1] * 7,
    "certify:gaussian-10/nu4": [1] * 3,
    "certify:gaussian-10/nu6": [1] * 5,
    "certify:geometric-10/nu6": [1] * 5,
    "certify:gaussian-20/nu4": [1] * 3,
}


def test_workload_verdicts_match_the_frozen_table(workloads):
    fibers, orders = {}, {}
    for name in ("fiber-table", "field-certify"):
        lib = workloads.plain_lib()
        results = {}
        for op in workloads.build(name, 1, lib).ops:
            results[op.name] = out = op.call(lib, results)
            problems, _ = op.check(out, op.expect)
            assert problems == [], op.name
            if op.name.startswith("fiber:"):
                fibers[op.name] = out.classification
            elif op.name.startswith("certify:"):
                orders[op.name] = [lev.approximant.big_n for lev in out.levels]
    assert fibers == FROZEN_FIBERS
    assert orders == FROZEN_ORDERS
