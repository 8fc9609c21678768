"""The benchmark's three workloads: inputs, operations, oracles and CLI commands.

Each operation calls public polarhull functions.  Its result is checked
against an oracle that holds for every seed, and the check also returns the
verdicts and rounded key numbers that feed the workload checksum.
The seed only drives the walk-on-spheres generators.

Why these workloads (each stresses different layers):

* fiber-table: covers from 1 to 8192 disks.  The Wiener loop in `potential`
  does about 90 % of the work and pole-series cover building about 10 %,
  including the O(n^2) `log_gamma` path at n = 4000.  `pshbuild`,
  `ratapprox`, `fekete` and `laurent` do no work here.
* field-certify: grid certification through `cleared_eval` dominates;
  quadrature, Leja selection and Laurent splitting make up the rest.
  `potential` and `hull` do no work here.
* harmonic: the same `potential` module as fiber-table, used another way.
  Covers come in as obstacle data, so a cover representation that speeds up
  the Wiener test but slows harmonic measure shows up here.  Grid relaxation
  takes about 70 % of the time and walk-on-spheres the rest.
"""
from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import polarhull
from polarhull.core import CircleContour, CompactSample, Disk, DiskUnion
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from polarhull.pshbuild import GridSpec, u_eval

ORIGIN_ORACLE = -sum(math.exp(-n * n) / n for n in range(1, 9))
ANNULUS_ORACLE = math.log(1.0 / 0.4) / math.log(10.0)
GAP_ORACLE = 0.7689083506  # criterion 4: off-graph gap of gaussian-10, nu <= 4
TUBE = "0.05,0.95:400:0,0.5,1"

# wos-dense-obstacles fails on the library as it stands: it returns omega ~ 0.01
# because obstacles far smaller than the absorption shell eps = 1e-4 r absorb
# walkers as if they had radius eps, against the documented "isolated polar
# points are never hit".  The op stays in the workload and is counted as
# failed; being a known failure, it does not make the run incorrect.
KNOWN_FAILURES = frozenset({"wos-dense-obstacles"})

LIB_FUNCTIONS = (
    "classify_fiber", "sublevel_cover", "harmonic_measure", "certify_schedule",
    "export_field", "leja_points", "convergence_scan", "laurent_split",
    "mittag_leffler",
)


def plain_lib() -> SimpleNamespace:
    """The library entry points the operations call, untraced."""
    return SimpleNamespace(**{name: getattr(polarhull, name) for name in LIB_FUNCTIONS})


@dataclass(frozen=True)
class Op:
    """One library call; `check(result, expect)` returns (problems, key)."""

    name: str
    call: Callable        # (lib, results of earlier ops in the pass) -> result
    check: Callable
    expect: object = None


@dataclass(frozen=True)
class CliCmd:
    """One CLI run; `check(out_dir, results)` compares it with the library ops."""

    name: str
    args: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    cli: tuple
    min_passes: int  # fixes the tail percentile; see run.latency_stats


# ------------------------------------------------------------------ oracles

def _check_fiber(entry, expect):
    problems = []
    if entry.classification != expect:
        problems.append(f"classification {entry.classification} != {expect}")
    key = [entry.classification]
    if entry.classification == "HULL_POINT" and entry.w0 is not None:
        if abs(entry.w0 - ORIGIN_ORACLE) >= 1e-12:
            problems.append(f"w0 {entry.w0} off the origin oracle {ORIGIN_ORACLE}")
        if abs(entry.w0) > entry.radius_bound:
            problems.append(f"|w0| {abs(entry.w0)} > radius bound {entry.radius_bound}")
        key += [round(entry.w0.real, 12), entry.radius_bound]
    return problems, key


def _check_field(field, expect):
    nu_max, gap_oracle = expect
    problems = []
    nus = [lev.nu for lev in field.levels]
    if nus != list(range(2, nu_max + 1)):
        problems.append(f"levels {nus} != 2..{nu_max}")
    key = []
    for lev in field.levels:
        if not (lev.h_bound_graph <= -lev.nu
                and lev.h_bound_box <= math.log(lev.nu + 2)
                and lev.h_bound_offgraph >= -math.log(lev.nu + 1)):
            problems.append(f"level {lev.nu} bounds not satisfied")
        key.append([lev.nu, lev.approximant.big_n, round(lev.h_bound_graph, 6),
                    round(lev.h_bound_box, 6), round(lev.h_bound_offgraph, 6)])
    if gap_oracle is not None:
        w_on = complex(field.model(0.7))
        gap = u_eval(field, 0.7, w_on + 2.0) - u_eval(field, 0.7, w_on)
        if abs(gap - gap_oracle) > 1e-6:
            problems.append(f"off-graph gap {gap:.10f} != {gap_oracle} +- 1e-6")
        key.append(round(gap, 8))
    return problems, key


def _check_export(rows, expect):
    """Row count, and no NaN except where z sits on the singular set."""
    model, n_rows = expect
    problems = [] if len(rows) == n_rows else [f"{len(rows)} rows != {n_rows}"]
    arr = np.array(rows, dtype=float).reshape(-1, 5)
    z = arr[:, 0] + 1j * arr[:, 1]
    sing = model.singular_sample().points
    off = np.min(np.abs(z[:, None] - sing[None, :]), axis=1) > 1e-12
    if np.any(np.isnan(arr[off, 4])):
        problems.append("NaN field value off the singular set")
    finite = np.isfinite(arr[:, 4])
    return problems, [len(rows), int(np.sum(np.isneginf(arr[:, 4]))),
                      round(float(np.sum(arr[finite, 4])), 6)]


def _check_scan(report, expect):
    last = report.entries[-1][1]
    problems = [] if last <= expect else [f"last sup error {last:.3e} > {expect}"]
    return problems, [[int(d), bool(fl)] for d, _, _, fl in report.entries] + [last <= expect]


def _check_laurent(split, expect):
    f, circle = expect
    z = circle.nodes(200)
    err = float(np.max(np.abs(f(z) - split.reconstruct(z))))
    problems = [] if err < 1e-9 else [f"reconstruction error {err:.3e} >= 1e-9"]
    return problems, [len(split.principal_part), round(split.principal_part[0].real, 9)]


def _check_mittag_leffler(ml, expect):
    f, n_disks = expect
    z = 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    err = float(np.max(np.abs(f(z) - ml.reconstruct(z))))
    problems = [] if err < 1e-9 else [f"reconstruction error {err:.3e} >= 1e-9"]
    if len(ml.components) != n_disks:
        problems.append(f"{len(ml.components)} components != {n_disks}")
    return problems, [len(ml.components), err < 1e-9]


def _check_measure(est, expect):
    oracle, tol = expect
    problems = [] if abs(est.value - oracle) < tol else [
        f"omega {est.value:.5f} not within {tol} of {oracle:.5f}"]
    return problems, [round(est.value, 4), est.walks]


def _check_half(est, expect):
    floor = 0.5 - 3.0 * est.std_error
    problems = [] if est.value >= floor else [
        f"omega {est.value:.5f} < 1/2 - 3 sigma = {floor:.5f}"]
    return problems, [round(est.value, 4), est.walks]


def _json(out_dir: Path, command: str) -> dict:
    return json.loads((out_dir / f"{command}.json").read_text())


# -------------------------------------------------------------- fiber-table

def _sin_label(p: complex) -> str:
    return "0" if p == 0 else f"{'+' if p.real > 0 else '-'}1/{round(1.0 / abs(p))}"


def fiber_table(seed: int, lib, span) -> Workload:
    with span("models.construct"):
        exp, sin = ExpReciprocal(), RecipSinPi(64)
        gauss = [PoleSeries.gaussian(n) for n in (40, 1000, 4000)]
        sin_sample = sin.singular_sample()
    # 0 and +-1/n for n = 1..8, in sample order
    sin_points = [p for p in sin_sample.points if p == 0 or abs(p) > 0.12]
    e = math.e

    def fiber(name, f, z0, r_grid, depth, expect):
        call = lambda lib, res: lib.classify_fiber(f, z0, r_grid, depth=depth)
        return Op(name, call, _check_fiber, expect)

    ops = [fiber("fiber:exp-reciprocal@0", exp, 0j, (e, e**2, e**10), 40, "FIBER_EMPTY")]
    ops += [fiber(f"fiber:recip-sin-pi@{_sin_label(p)}", sin, complex(p),
                  (e, e**2, e**4), 30, "FIBER_EMPTY") for p in sin_points]
    ops += [fiber(f"fiber:gaussian-{g.n_terms}@0", g, 0j, (1.0, 2.0, 4.0), 40, "HULL_POINT")
            for g in gauss]

    def check_hull(out_dir, res):
        got = [x["classification"] for x in _json(out_dir, "hull")["result"]["entries"]]
        want = [res[f"fiber:recip-sin-pi@{s}1/2"].classification for s in "+-"]
        return ([] if got == want else [f"CLI {got} != library {want}"]), got

    def check_thin(out_dir, res):
        doc = _json(out_dir, "thin")["result"]
        lib_rep = res["fiber:recip-sin-pi@+1/2"].wiener_reports[0]  # R = e
        same = (doc["verdict"] == lib_rep.verdict
                and math.isclose(doc["partial_sums"][-1], float(lib_rep.partial_sums[-1]),
                                 rel_tol=1e-9, abs_tol=1e-12))
        return ([] if same else [f"CLI verdict {doc['verdict']} != library {lib_rep.verdict}"]), [doc["verdict"]]

    cli = (
        CliCmd("hull", ("hull", "--function", "recip-sin-pi", "--point", "0.5", "--point", "-0.5",
                        "--r-grid", "e,e2,e4", "--depth", "30"), check_hull),
        CliCmd("thin", ("thin", "--function", "recip-sin-pi", "--point", "0.5", "--depth", "30"),
               check_thin),
    )
    return Workload("fiber-table", tuple(ops), cli, min_passes=2)


# ------------------------------------------------------------ field-certify

def field_certify(seed: int, lib, span) -> Workload:
    with span("models.construct"):
        certify = [
            ("exp-reciprocal/nu8", ExpReciprocal(), 8, None),
            ("two-pole/nu8", RationalModel([0.3, 0.5], [1.0, 2.0]), 8, None),
            ("recip-sin-pi-8/nu8", RecipSinPi(8), 8, None),
            ("gaussian-10/nu4", PoleSeries.gaussian(10), 4, GAP_ORACLE),
            ("gaussian-10/nu6", PoleSeries.gaussian(10), 6, None),
            ("geometric-10/nu6", PoleSeries.geometric(10), 6, None),
            ("gaussian-20/nu4", PoleSeries.gaussian(20), 4, None),
        ]
        certify = [(label, f, f.singular_sample(), nu, gap) for label, f, nu, gap in certify]
        scans = [
            ("recip-sin-pi-16", RecipSinPi(16), 33, range(1, 4)),
            ("gaussian-40", PoleSeries.gaussian(40), 40, range(1, 4)),
            ("exp-reciprocal", ExpReciprocal(), 1, range(4, 37, 4)),
        ]
        scans = [(label, f, f.singular_sample(), m, ns) for label, f, m, ns in scans]
        target = CompactSample(2.0 * np.exp(2j * np.pi * np.arange(128) / 128))
        exp = ExpReciprocal()
        g8 = PoleSeries.gaussian(8)
        g8_sample = g8.singular_sample()
        # one disk per pole 1/n, well inside half the gap to the next pole
        g8_disks = DiskUnion([Disk(complex(p), 0.4 / (n * (n + 1)))
                              for n, p in enumerate(g8.poles, start=1)])
    circle = CircleContour(0j, 0.5)
    tube_range, tube_n, tube_offsets = TUBE.split(":")
    tube = GridSpec.graph_tube(tuple(float(t) for t in tube_range.split(",")), int(tube_n),
                               [float(t) for t in tube_offsets.split(",")])
    n_rows = int(tube_n) * len(tube_offsets.split(","))

    ops = []
    for label, f, k, nu, gap in certify:
        ops.append(Op(f"certify:{label}",
                      lambda lib, res, f=f, k=k, nu=nu: lib.certify_schedule(f, k, nu),
                      _check_field, (nu, gap)))
    for label, f, *_ in certify:
        ops.append(Op(f"export:{label}",
                      lambda lib, res, label=label: lib.export_field(res[f"certify:{label}"], tube),
                      _check_export, (f, n_rows)))
    for label, f, k, m, ns in scans:
        ops.append(Op(f"scan:{label}",
                      lambda lib, res, f=f, k=k, m=m, ns=ns: lib.convergence_scan(
                          f, lib.leja_points(k, m), [(m, n) for n in ns], target),
                      _check_scan, 1e-8))
    ops.append(Op("laurent:exp-reciprocal",
                  lambda lib, res: lib.laurent_split(exp, circle, 80),
                  _check_laurent, (exp, circle)))
    ops.append(Op("mittag-leffler:gaussian-8",
                  lambda lib, res: lib.mittag_leffler(g8, g8_disks, g8_sample),
                  _check_mittag_leffler, (g8, len(g8_disks))))

    def check_psh(out_dir, res):
        levels = _json(out_dir, "psh")["result"]["levels"]
        lib_levels = res["certify:exp-reciprocal/nu8"].levels[:5]  # nu = 2..6
        same = len(levels) == len(lib_levels) == 5 and all(
            a["nu"] == b.nu and a["big_n"] == b.approximant.big_n
            and all(math.isclose(a[k], getattr(b, k), rel_tol=1e-9, abs_tol=1e-12)
                    for k in ("h_bound_graph", "h_bound_box", "h_bound_offgraph"))
            for a, b in zip(levels, lib_levels))
        csv_rows = len((out_dir / "field.csv").read_text().splitlines()) - 1
        problems = [] if same else ["CLI levels differ from the library nu <= 8 field"]
        if csv_rows != n_rows:
            problems.append(f"field.csv has {csv_rows} rows != {n_rows}")
        return problems, [[a["nu"], a["big_n"]] for a in levels] + [csv_rows]

    cli = (CliCmd("psh", ("psh", "--function", "exp-reciprocal", "--nu-max", "6",
                          "--tube", TUBE), check_psh),)
    return Workload("field-certify", tuple(ops), cli, min_passes=4)


# ----------------------------------------------------------------- harmonic

def harmonic(seed: int, lib, span) -> Workload:
    with span("models.construct"):
        g40, g100 = PoleSeries.gaussian(40), PoleSeries.gaussian(100)
    r = 0.05
    # criterion 6 obstacles: cover disks inside |z| < r
    thin = DiskUnion([d for d in lib.sublevel_cover(g40, 1.0) if abs(d.center) + d.radius < r])
    dense = DiskUnion([d for d in lib.sublevel_cover(g100, 1.0) if abs(d.center) + d.radius < r])
    annulus = (CircleContour(0j, 0.1), Disk(0j, 1.0))
    ball = (CircleContour(0j, r), Disk(0j, r))

    def wos(name, z, target, obstacles, walks, check, expect):
        call = lambda lib, res: lib.harmonic_measure(z, *target, obstacles, walks=walks, seed=seed)
        return Op(name, call, check, expect)

    ops = (
        wos("wos-annulus", 0.4 + 0j, annulus, None, 100000, _check_measure, (ANNULUS_ORACLE, 0.02)),
        wos("wos-thin-obstacles@r/4", r / 4 + 0j, ball, thin, 20000, _check_half, None),
        wos("wos-thin-obstacles@r/8", r / 8 + 0j, ball, thin, 20000, _check_half, None),
        # 0.0123 lies between the poles 1/82 and 1/81
        wos("wos-dense-obstacles", 0.0123 + 0j, ball, dense, 20000, _check_half, None),
        Op("grid-annulus", lambda lib, res: lib.harmonic_measure(0.4 + 0j, *annulus, method="grid"),
           _check_measure, (ANNULUS_ORACLE, 0.01)),
    )

    def check_hmeasure(out_dir, res):
        value = _json(out_dir, "hmeasure")["result"]["value"]
        same = abs(value - res["wos-annulus"].value) < 1e-12
        return ([] if same else [f"CLI omega {value} != library {res['wos-annulus'].value}"]), [value]

    cli = (CliCmd("hmeasure", ("hmeasure", "--walks", "100000", "--seed", str(seed)),
                  check_hmeasure),)
    return Workload("harmonic", ops, cli, min_passes=6)


WORKLOADS = {"fiber-table": fiber_table, "field-certify": field_certify, "harmonic": harmonic}


def build(name: str, seed: int, lib=None, span=None) -> Workload:
    """Construct a workload's models, samples and covers; ready to run."""
    lib = lib or plain_lib()
    span = span or (lambda _name: contextlib.nullcontext())
    return WORKLOADS[name](seed, lib, span)
