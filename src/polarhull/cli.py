"""Command-line front end: reproducible runs, JSON reports, CSV traces.

Each option holds its default and its check, a click type.  `--config` loads
an INI file's [run] and [<command>] sections as click's default map, so a
file value is typed and checked like the flag it stands for, and a flag
wins over it.  Every artifact records the command's resolved options as its
config, with the sha256 of that config and the library version, so an
identical config (which holds the seed of `hmeasure`) reproduces
byte-identical JSON.  Compound settings (points, levels, grids, function
specs) stay text in the record and are parsed by the helpers below.
Exit codes: 0 success, 1 config/schema error, 2 numeric failure.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import MAX_DEPTH, MAX_QUAD_NODES, CircleContour, CompactSample, DiskUnion, PolarhullError
from .models import ExpReciprocal, PoleSeries, RecipSinPi
from .laurent import laurent_split
from .fekete import leja_points, capacity_estimate
from .ratapprox import MAX_APPROX_NODES, convergence_scan
from .pshbuild import MAX_NU, GridSpec, certify_schedule, export_field
from .potential import harmonic_measure, sublevel_cover, wiener_test
from .hull import classify_fiber


def _parse_function(spec: str | None):
    if not spec:
        raise click.UsageError("missing --function")
    name, _, arg = spec.partition(":")
    families = {"exp-reciprocal": (ExpReciprocal,), "recip-sin-pi": (RecipSinPi, int),
                "pole-series-gaussian": (PoleSeries.gaussian, int),
                "pole-series-geometric": (PoleSeries.geometric, int, float)}
    if name not in families:
        raise click.UsageError(f"unknown function family {spec!r}")
    build, *kinds = families[name]  # the family's constructor and the type of each field
    fields = arg.split(",") if arg else []
    try:
        if len(fields) > len(kinds):
            raise ValueError(f"too many fields for {name}")
        return build(*[kind(text) for kind, text in zip(kinds, fields)])
    except ValueError as e:  # a field that is not a number, or a model refusing it
        raise click.UsageError(f"bad function argument {spec!r}: {e}")


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_number("point", parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_number("point", parts[0]), _number("point", parts[1]))
    raise click.UsageError(f"bad point {text!r}; expected RE or RE,IM")


def _parse_level(token: str) -> float:
    """A level threshold, `e`, `e<k>` for exp(k) or a number; finite and positive."""
    token = token.strip()
    try:
        if token == "e":
            return math.e
        if token.startswith("e") and token[1:].isdigit():
            return math.exp(int(token[1:]))
        if 0 < float(token) < math.inf:
            return float(token)
    except (ValueError, OverflowError):
        pass
    raise click.UsageError(f"bad level {token!r}; expected a finite positive number or e<k>")


def _positive(key: str, text, kind=float):
    """`text`, the setting `key`, as a finite positive `kind`, else a usage error."""
    try:
        if 0 < kind(text) < math.inf:
            return kind(text)
    except ValueError:
        pass
    raise click.BadParameter(f"{key} must be a positive number, got {text!r}")


class _PositiveFloat(click.ParamType):
    """A finite positive float option; `click.FloatRange` would let NaN through."""

    name = "float"

    def convert(self, value, param, ctx):
        return _positive(param.name, value)


_POSITIVE = _PositiveFloat()
_COUNT = click.IntRange(min=1)
_DEPTH = click.IntRange(1, MAX_DEPTH)


def _fields(key: str, text, sep: str = ",", count: int | None = None) -> list:
    """`text`, the setting `key`, split at `sep`: into `count` fields, or any number."""
    parts = text.split(sep)
    if count is not None and len(parts) != count:
        raise click.UsageError(f"{key} needs {count} fields separated by {sep!r}, got {text!r}")
    return parts


def _degree(sample: CompactSample, m: int | None) -> int:
    """The denominator degree m, the sample size if None; it may exceed neither
    the sample nor MAX_APPROX_NODES // 4, as an approximant starts at 4m nodes."""
    m = len(sample) if m is None else m
    if m > min(len(sample), MAX_APPROX_NODES // 4):
        raise click.UsageError(f"m must be at most the sample size {len(sample)} "
                               f"and {MAX_APPROX_NODES // 4}, got {m}")
    return m


def _number(key: str, text) -> float:
    """`text`, a field of the setting `key`, as a finite float, else a usage error."""
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise click.UsageError(f"{key} holds {text!r}, not a finite number")


def _sample(key: str, text, points) -> CompactSample:
    """`points`, spanned by the setting `key`, as a sample; near duplicates are a usage error."""
    try:
        return CompactSample(points)
    except ValueError as e:
        raise click.UsageError(f"{key} {text!r}: {e}")


def _load_config(ctx, param, path):
    """The INI file's sections [run] and [<command>] as the command's default map.

    A tolerance means something different in each command, so the file may
    set it only in the section of a command that takes one.  Hull's `points`
    holds its fibers separated by `;`, one per `--point` flag.
    """
    if path is None:
        return
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise click.UsageError(f"config file {path!r} not readable")
    takes_tolerance = any(p.name == "tolerance" for p in ctx.command.params)
    values: dict = {}
    for sec in ("run", ctx.command.name):
        if parser.has_section(sec):
            items = dict(parser.items(sec))
            if "tolerance" in items and (sec == "run" or not takes_tolerance):
                raise click.UsageError(f"config section [{sec}] may not set tolerance")
            values.update(items)
    if "points" in values:
        values["points"] = values["points"].split(";")
    ctx.default_map = values


def _finish(out_dir: str, payload: dict, csv_rows=None, csv_name: str | None = None) -> None:
    """Write `<command>.json`, recording the resolved options as its config, and the CSV."""
    ctx = click.get_current_context()
    command = ctx.command.name
    config = {k: v for k, v in ctx.params.items() if k != "out_dir" and v is not None}
    canon = json.dumps(config, sort_keys=True, default=str)
    digest = hashlib.sha256(canon.encode()).hexdigest()
    meta = {"config_sha256": digest, "version": __version__, "command": command}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta, "config": config, "result": payload}
    (out / f"{command}.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    )
    if csv_rows is not None:
        rows = iter(csv_rows)
        header = next(rows) + ["config_hash", "version"]
        with (out / (csv_name or f"{command}.csv")).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(list(row) + [digest, __version__])


def _common(fn):
    fn = click.option("--config", type=str, is_eager=True, expose_value=False,
                      callback=_load_config, help="INI config file; flags override its values")(fn)
    fn = click.option("--out", "out_dir", type=str, default="out")(fn)
    return fn


_tolerance = click.option("--tolerance", type=_POSITIVE, default=None)
_function = click.option("--function", default=None)


@click.group(context_settings={"show_default": True})
def cli():
    """Potential-theoretic toolkit for graphs with polar singularities."""


@cli.command()
@_common
@_tolerance
@_function
@click.option("--center", default="0")
@click.option("--radius", type=_POSITIVE, default=1.0)
# the split starts its quadrature at 4 (kmax + 1) nodes rounded up to a power of 2
@click.option("--kmax", type=click.IntRange(1, MAX_QUAD_NODES // 4 - 1), default=32)
def decompose(out_dir, tolerance, function, center, radius, kmax):
    """Laurent split of a function model on one circle."""
    f = _parse_function(function)
    circle = CircleContour(_parse_point(center), radius)
    split = laurent_split(f, circle, kmax, tol=tolerance or 1e-8)
    _finish(out_dir, split.to_dict())


@cli.command()
@_common
@click.option("--function", default=None, help="use the singular sample of a function family")
@click.option("--segment", default=None, help="A,B,N sample of a real segment")
@click.option("--m", type=_COUNT, default=40)
def fekete(out_dir, function, segment, m):
    """Leja points and the capacity diagnostic on a sample."""
    if segment:
        a, b, n = _fields("segment", segment, ",", 3)
        a, b = _number("segment", a), _number("segment", b)
        if not math.isfinite(b - a):  # np.linspace would overflow with a warning
            raise click.UsageError(f"segment {segment!r} is wider than the largest float")
        sample = _sample("segment", segment, np.linspace(a, b, _positive("segment", n, int)))
    elif function:
        sample = _parse_function(function).singular_sample()
    else:
        raise click.UsageError("need --segment or --function")
    m = min(m, len(sample))
    system = leja_points(sample, m)
    payload = system.to_dict()
    if m >= 8:
        est = capacity_estimate(system)
        payload["capacity_estimate"] = {"value": est.value, "decreasing": est.decreasing}
    _finish(out_dir, payload,
            csv_rows=[["m", "norm_root"]] + [[str(mm), repr(d)] for mm, d in system.diagnostics])


@cli.command()
@_common
@_tolerance
@_function
@click.option("--m", type=_COUNT, default=None, help="denominator degree; defaults to sample size")
@click.option("--n-list", default="1,2,3,4", help="outer orders, comma separated")
@click.option("--target", default="0,0:2.0:128", help="target circle CX,CY:R:N")
def approx(out_dir, tolerance, function, m, n_list, target):
    """Convergence scan of prescribed-pole approximants; CSV trace of errors."""
    orders = [_positive("n_list", t, int) for t in n_list.split(",")]
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise click.UsageError(f"n_list must be strictly increasing, got {n_list!r}")
    f = _parse_function(function)
    sample = f.singular_sample()
    m = _degree(sample, m)
    ctr, rad, cnt = _fields("target", target, ":", 3)
    center, rad, cnt = _parse_point(ctr), _positive("target", rad), _positive("target", cnt, int)
    theta = 2 * np.pi * np.arange(cnt) / cnt
    target_sample = _sample("target", target, center + rad * np.exp(1j * theta))
    if np.min(sample.min_distance_to(target_sample.points)) <= 0:
        raise click.UsageError(f"target {target!r} meets the sample")
    system = leja_points(sample, m)
    report = convergence_scan(f, system, [(m, n) for n in orders], target_sample,
                              quad_tol=tolerance or 1e-10)
    _finish(out_dir, report.to_dict(), csv_rows=report.to_csv_rows())


@cli.command()
@_common
@_function
@click.option("--nu-max", type=click.IntRange(2, MAX_NU), default=4)
@click.option("--tube", default=None, help="graph-tube export A,B:N:T1,T2,... (offsets in w)")
def psh(out_dir, function, nu_max, tube):
    """Certify the layered field schedule; optional graph-tube CSV export."""
    spec = None
    if tube:
        span, cnt, offs = _fields("tube", tube, ":", 3)
        spec = GridSpec.graph_tube([_number("tube", t) for t in _fields("tube", span, ",", 2)],
                                   _positive("tube", cnt, int),
                                   [_number("tube", t) for t in _fields("tube", offs)])
    f = _parse_function(function)
    sample = f.singular_sample()
    _degree(sample, None)  # the field's approximants take m = the sample size
    field = certify_schedule(f, sample, nu_max)
    csv_rows = None
    if spec is not None:
        rows = export_field(field, spec)
        csv_rows = [["z_re", "z_im", "w_re", "w_im", "u"]] + [
            [repr(v) for v in row] for row in rows
        ]
    _finish(out_dir, field.to_dict(), csv_rows=csv_rows, csv_name="field.csv")


@cli.command()
@_common
@_function
@click.option("--big-r", default="e", help="level threshold; accepts e<k> shorthand")
@click.option("--point", default="0")
@click.option("--depth", type=_DEPTH, default=40)
def thin(out_dir, function, big_r, point, depth):
    """Wiener thinness test of a sublevel cover at a point."""
    f = _parse_function(function)
    z0 = _parse_point(point)
    report = wiener_test(sublevel_cover(f, _parse_level(big_r)), z0, depth)
    rows = [["n", "inner", "outer", "capacity_estimate", "partial_sum"]]
    for (n, inner, outer, cap), s in zip(report.annuli, report.partial_sums):
        rows.append([str(n), repr(inner), repr(outer), repr(cap), repr(float(s))])
    _finish(out_dir, report.to_dict(), csv_rows=rows)


@cli.command()
@_common
@click.option("--annulus", default="0.1,1.0", help="inner,outer radii")
@click.option("--at", default="0.4")
@click.option("--walks", type=_COUNT, default=100000)
@click.option("--method", type=click.Choice(["wos", "grid"]), default="wos")
@click.option("--seed", type=click.IntRange(min=0), default=0)
def hmeasure(out_dir, annulus, at, walks, method, seed):
    """Harmonic measure of the inner circle in an annulus, WOS or grid."""
    r_in, r_out = (_positive("annulus", t) for t in _fields("annulus", annulus, ",", 2))
    if not r_in < r_out:
        raise click.UsageError(f"annulus needs inner < outer, got {annulus!r}")
    z = _parse_point(at)
    if not r_in < abs(z) < r_out:
        raise click.UsageError(f"at must lie in the annulus {r_in} < |z| < {r_out}, got {at!r}")
    est = harmonic_measure(z, CircleContour(0j, r_in), CircleContour(0j, r_out), DiskUnion([]),
                           walks=walks, seed=seed, method=method)
    rows = [["value", "std_error", "walks", "seed", "method"],
            [repr(est.value), repr(est.std_error), str(est.walks), str(est.seed), est.method]]
    _finish(out_dir, est.to_dict(), csv_rows=rows)


@cli.command()
@_common
@_function
@click.option("--point", "points", multiple=True, default=["0"],
              callback=lambda ctx, param, value: ";".join(value))
@click.option("--r-grid", default="e,e2,e10")
@click.option("--depth", type=_DEPTH, default=40)
def hull(out_dir, function, points, r_grid, depth):
    """Classify hull fibers over singular points; prints a table, writes JSON."""
    f = _parse_function(function)
    grid = [_parse_level(t) for t in r_grid.split(",")]
    if len(grid) < 3 or len(set(grid)) < len(grid):
        raise click.UsageError(f"r_grid needs at least 3 distinct levels, got {r_grid!r}")
    entries = [classify_fiber(f, _parse_point(token), grid, depth=depth)
               for token in points.split(";")]
    click.echo(f"{'point':>16}  {'classification':<14} w0")
    for e in entries:
        w0 = "-" if e.w0 is None else f"{e.w0.real:+.12f}{e.w0.imag:+.12f}j"
        click.echo(f"{e.point!s:>16}  {e.classification:<14} {w0}")
    _finish(out_dir, {"model": f.label, "entries": [e.to_dict() for e in entries]})


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        return 1
    except (PolarhullError, ValueError) as e:
        click.echo(f"numeric failure: {e}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
