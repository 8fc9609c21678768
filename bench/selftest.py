"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

Runs each workload with a few cheap ops, untraced and traced, and checks that
every metric named in BENCHMARK.json (and fail_ratio) prints with its unit,
that the last line is the result object, and that a deliberately wrong
expected verdict raises fail_ratio and clears `correct`.  Exits 0 when all
checks hold.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys

import run
import workloads

SMALL = {
    "fiber-table": (["fiber:exp-reciprocal@0", "fiber:recip-sin-pi@+1/2", "fiber:gaussian-40@0"],
                    ["thin"], 4),
    "field-certify": (["certify:gaussian-10/nu4", "export:gaussian-10/nu4", "scan:exp-reciprocal",
                       "laurent:exp-reciprocal", "mittag-leffler:gaussian-8"], [], 3),
    "harmonic": (["wos-annulus", "wos-thin-obstacles@r/4", "wos-dense-obstacles"], ["hmeasure"], 4),
}
SEED = 5


def small(wl: workloads.Workload) -> workloads.Workload:
    ops, cli, passes = SMALL[wl.name]
    return dataclasses.replace(wl, ops=tuple(op for op in wl.ops if op.name in ops),
                               cli=tuple(c for c in wl.cli if c.name in cli), min_passes=passes)


def printed(fn, *args):
    """Run a metrics function and `run.report`; return the printed lines and the result object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(*fn(*args))
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_names(lines, result, expected, problems, label):
    shown = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            shown[parts[1]] = parts[3]
    for name, unit in expected.items():
        if shown.get(name) != unit:
            problems.append(f"{label}: metric {name} printed with unit {shown.get(name)!r}, want {unit!r}")
        if name != "fail_ratio" and result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{label}: result object lacks {name} [{unit}]")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"fail_ratio": "ratio"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]} | {"fail_ratio": "ratio"}
    problems = []
    for name in workloads.WORKLOADS:
        wl = small(workloads.build(name, SEED))
        lines, result = printed(run.end_to_end, wl, SEED, 0)
        check_names(lines, result, end_to_end, problems, f"{name} trace 0")
        known = sum(op.name in workloads.KNOWN_FAILURES for op in wl.ops)
        if result["failed"] != known * wl.min_passes or not result["correct"]:
            problems.append(f"{name}: {result['failed']} failed, correct={result['correct']}: "
                            + "; ".join(line for line in lines if line.startswith("FAILED")))
        make = lambda lib, span, name=name: small(workloads.build(name, SEED, lib, span))
        lines, result = printed(run.traced, make, SEED, 0)
        check_names(lines, result, per_layer, problems, f"{name} trace 1")
        print(f"{name}: metrics printed; {result['failed']} failed of {result['attempted']}")

    wl = small(workloads.build("fiber-table", SEED))
    _, good = printed(run.end_to_end, wl, SEED, 0)
    wrong = dataclasses.replace(wl, ops=tuple(
        dataclasses.replace(op, expect="HULL_POINT") if op.name == "fiber:exp-reciprocal@0" else op
        for op in wl.ops))
    _, bad = printed(run.end_to_end, wrong, SEED, 0)
    if not (bad["failed"] / bad["attempted"] > good["failed"] / good["attempted"]
            and good["correct"] and not bad["correct"]):
        problems.append(f"wrong expected verdict not caught: {good} -> {bad}")
    else:
        print(f"wrong expected verdict: fail_ratio {good['failed']}/{good['attempted']} -> "
              f"{bad['failed']}/{bad['attempted']}, correct -> false")

    for p in problems:
        print("SELFTEST FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    sys.exit(code)
