"""Command-line front end: reproducible runs, JSON reports, CSV traces.

Config comes from an INI file (key = value sections) with flag overrides;
flags win.  Every artifact embeds the sha256 of the resolved config and the
library version, so an identical config (which holds the seed of `hmeasure`)
reproduces byte-identical JSON.
Exit codes: 0 success, 1 config/schema error, 2 numeric failure.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import CircleContour, CompactSample, Disk, DiskUnion, PolarhullError
from .models import ExpReciprocal, PoleSeries, RecipSinPi
from .laurent import laurent_split
from .fekete import leja_points, capacity_estimate
from .ratapprox import convergence_scan
from .pshbuild import GridSpec, certify_schedule, export_field
from .potential import harmonic_measure, sublevel_cover, wiener_test
from .hull import HullVerdict, classify_fiber

log = logging.getLogger("polarhull")


def _setup_logging():
    level = os.environ.get("POLARHULL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _parse_function(spec: str | None):
    if not spec:
        raise click.UsageError("missing --function")
    name, _, arg = spec.partition(":")
    try:
        if name == "exp-reciprocal":
            return ExpReciprocal()
        if name == "recip-sin-pi":
            return RecipSinPi(int(arg) if arg else 64)
        if name == "pole-series-gaussian":
            return PoleSeries.gaussian(int(arg) if arg else 40)
        if name == "pole-series-geometric":
            parts = arg.split(",") if arg else []
            n = int(parts[0]) if parts else 40
            ratio = float(parts[1]) if len(parts) > 1 else 0.5
            return PoleSeries.geometric(n, ratio)
    except ValueError as e:
        raise click.UsageError(f"bad function argument {spec!r}: {e}")
    raise click.UsageError(f"unknown function family {spec!r}")


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise click.UsageError(f"bad point {text!r}; expected RE or RE,IM")


def _parse_level(token: str) -> float:
    token = token.strip()
    if token == "e":
        return math.e
    if token.startswith("e") and token[1:].isdigit():
        return math.exp(int(token[1:]))
    try:
        return float(token)
    except ValueError:
        raise click.UsageError(f"bad level {token!r}; expected a number or e<k>")


def _config_overlay(config_path: str | None, section: str,
                    flags: dict, defaults: dict) -> dict:
    """Config-file sections [run] and [section], then flags, then defaults.

    A tolerance means something different in each command, so the file may
    set it only in the section of a command that takes one (has it in flags).
    """
    merged: dict = {}
    if config_path:
        parser = configparser.ConfigParser()
        if not parser.read(config_path):
            raise click.UsageError(f"config file {config_path!r} not readable")
        for sec in ("run", section):
            if parser.has_section(sec):
                items = dict(parser.items(sec))
                if "tolerance" in items and (sec == "run" or "tolerance" not in flags):
                    raise click.UsageError(f"config section [{sec}] may not set tolerance")
                merged.update(items)
    merged.update({k: v for k, v in flags.items() if v is not None})
    for key, val in defaults.items():
        merged.setdefault(key, val)
    return merged


def _tolerance_of(cfg: dict, default: float) -> float:
    text = cfg.get("tolerance", default)
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise click.UsageError(f"tolerance must be a positive number, got {text!r}")


def _finish(out_dir: str, command: str, config: dict, payload: dict,
            csv_rows=None, csv_name: str | None = None) -> None:
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
    log.info("wrote artifacts for %s to %s", command, out)


def _common(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="INI config file; flags override its values")(fn)
    fn = click.option("--out", "out_dir", type=str, default="out")(fn)
    return fn


_tolerance = click.option("--tolerance", type=float, default=None)


@click.group()
def cli():
    """Potential-theoretic toolkit for graphs with polar singularities."""
    _setup_logging()


@cli.command()
@_common
@_tolerance
@click.option("--function", "function_spec", default=None)
@click.option("--center", default=None)
@click.option("--radius", type=float, default=None)
@click.option("--kmax", type=int, default=None)
def decompose(config_path, out_dir, tolerance, function_spec, center, radius, kmax):
    """Laurent split of a function model on one circle."""
    cfg = _config_overlay(config_path, "decompose", {
        "function": function_spec, "center": center, "radius": radius, "kmax": kmax,
        "tolerance": tolerance,
    }, {"center": "0", "radius": 1.0, "kmax": 32})
    f = _parse_function(cfg.get("function"))
    circle = CircleContour(_parse_point(str(cfg["center"])), float(cfg["radius"]))
    split = laurent_split(f, circle, int(cfg["kmax"]),
                          tol=_tolerance_of(cfg, 1e-8))
    _finish(out_dir, "decompose", cfg, split.to_dict())


@cli.command()
@_common
@click.option("--function", "function_spec", default=None,
              help="use the singular sample of a function family")
@click.option("--segment", default=None, help="A,B,N sample of a real segment")
@click.option("--m", "m_points", type=int, default=None)
def fekete(config_path, out_dir, function_spec, segment, m_points):
    """Leja points and the capacity diagnostic on a sample."""
    cfg = _config_overlay(config_path, "fekete", {
        "function": function_spec, "segment": segment, "m": m_points,
    }, {"m": 40})
    if cfg.get("segment"):
        a, b, n = str(cfg["segment"]).split(",")
        sample = CompactSample(np.linspace(float(a), float(b), int(n)).astype(complex))
    elif cfg.get("function"):
        sample = _parse_function(cfg["function"]).singular_sample()
    else:
        raise click.UsageError("need --segment or --function")
    m = min(int(cfg["m"]), len(sample))
    system = leja_points(sample, m)
    payload = system.to_dict()
    if m >= 8:
        est = capacity_estimate(system)
        payload["capacity_estimate"] = {"value": est.value, "decreasing": est.decreasing}
    _finish(out_dir, "fekete", cfg, payload,
            csv_rows=[["m", "norm_root"]] + [[str(mm), repr(d)] for mm, d in system.diagnostics])


@cli.command()
@_common
@_tolerance
@click.option("--function", "function_spec", default=None)
@click.option("--m", "m_den", type=int, default=None, help="denominator degree; defaults to sample size")
@click.option("--n-list", default=None, help="outer orders, comma separated")
@click.option("--target", default=None, help="target circle CX,CY:R:N")
def approx(config_path, out_dir, tolerance, function_spec, m_den, n_list, target):
    """Convergence scan of prescribed-pole approximants; CSV trace of errors."""
    cfg = _config_overlay(config_path, "approx", {
        "function": function_spec, "m": m_den, "n_list": n_list, "target": target,
        "tolerance": tolerance,
    }, {"n_list": "1,2,3,4", "target": "0,0:2.0:128"})
    f = _parse_function(cfg.get("function"))
    sample = f.singular_sample()
    m = int(cfg["m"]) if cfg.get("m") else len(sample)
    system = leja_points(sample, m)
    orders = [int(t) for t in str(cfg["n_list"]).split(",")]
    ctr, rad, cnt = str(cfg["target"]).split(":")
    center = _parse_point(ctr)
    theta = 2 * np.pi * np.arange(int(cnt)) / int(cnt)
    target_sample = CompactSample(center + float(rad) * np.exp(1j * theta))
    report = convergence_scan(f, system, [(m, n) for n in orders], target_sample,
                              quad_tol=_tolerance_of(cfg, 1e-10))
    _finish(out_dir, "approx", cfg, report.to_dict(), csv_rows=report.to_csv_rows())


@cli.command()
@_common
@click.option("--function", "function_spec", default=None)
@click.option("--nu-max", type=int, default=None)
@click.option("--density", type=int, default=None)
@click.option("--tube", default=None,
              help="graph-tube export A,B:N:T1,T2,... (offsets in w)")
def psh(config_path, out_dir, function_spec, nu_max, density, tube):
    """Certify the layered field schedule; optional graph-tube CSV export."""
    cfg = _config_overlay(config_path, "psh", {
        "function": function_spec, "nu_max": nu_max, "density": density, "tube": tube,
    }, {"nu_max": 4, "density": 10})
    f = _parse_function(cfg.get("function"))
    field = certify_schedule(f, f.singular_sample(), int(cfg["nu_max"]),
                             density=int(cfg["density"]))
    csv_rows = None
    if cfg.get("tube"):
        rng, cnt, offs = str(cfg["tube"]).split(":")
        a, b = (float(t) for t in rng.split(","))
        offsets = [float(t) for t in offs.split(",")]
        rows = export_field(field, GridSpec.graph_tube((a, b), int(cnt), offsets))
        csv_rows = [["z_re", "z_im", "w_re", "w_im", "u"]] + [
            [repr(v) for v in row] for row in rows
        ]
    _finish(out_dir, "psh", cfg, field.to_dict(), csv_rows=csv_rows, csv_name="field.csv")


@cli.command()
@_common
@click.option("--function", "function_spec", default=None)
@click.option("--big-r", default=None, help="level threshold; accepts e<k> shorthand")
@click.option("--point", default=None)
@click.option("--depth", type=int, default=None)
def thin(config_path, out_dir, function_spec, big_r, point, depth):
    """Wiener thinness test of a sublevel cover at a point."""
    cfg = _config_overlay(config_path, "thin", {
        "function": function_spec, "big_r": big_r, "point": point, "depth": depth,
    }, {"big_r": "e", "point": "0", "depth": 40})
    f = _parse_function(cfg.get("function"))
    z0 = _parse_point(str(cfg["point"]))
    cover = sublevel_cover(f, _parse_level(str(cfg["big_r"])), z0)
    report = wiener_test(cover, z0, int(cfg["depth"]))
    rows = [["n", "inner", "outer", "capacity_estimate", "partial_sum"]]
    for (n, inner, outer, cap), s in zip(report.annuli, report.partial_sums):
        rows.append([str(n), repr(inner), repr(outer), repr(cap), repr(float(s))])
    _finish(out_dir, "thin", cfg, report.to_dict(), csv_rows=rows)


@cli.command()
@_common
@click.option("--annulus", default=None, help="inner,outer radii")
@click.option("--at", "at_point", default=None)
@click.option("--walks", type=int, default=None)
@click.option("--method", type=click.Choice(["wos", "grid"]), default=None)
@click.option("--seed", type=int, default=None,
              help="default 0; config-file value used unless set")
def hmeasure(config_path, out_dir, annulus, at_point, walks, method, seed):
    """Harmonic measure of the inner circle in an annulus, WOS or grid."""
    cfg = _config_overlay(config_path, "hmeasure", {
        "annulus": annulus, "at": at_point, "walks": walks, "method": method, "seed": seed,
    }, {"annulus": "0.1,1.0", "at": "0.4", "walks": 100000, "method": "wos", "seed": 0})
    r_in, r_out = (float(t) for t in str(cfg["annulus"]).split(","))
    est = harmonic_measure(
        _parse_point(str(cfg["at"])), CircleContour(0j, r_in), Disk(0j, r_out), DiskUnion([]),
        walks=int(cfg["walks"]), seed=int(cfg["seed"]), method=str(cfg["method"]),
    )
    rows = [["value", "std_error", "walks", "seed", "method"],
            [repr(est.value), repr(est.std_error), str(est.walks), str(est.seed), est.method]]
    _finish(out_dir, "hmeasure", cfg, est.to_dict(), csv_rows=rows)


@cli.command()
@_common
@click.option("--function", "function_spec", default=None)
@click.option("--point", "points", multiple=True)
@click.option("--r-grid", default=None)
@click.option("--depth", type=int, default=None)
def hull(config_path, out_dir, function_spec, points, r_grid, depth):
    """Classify hull fibers over singular points; prints a table, writes JSON."""
    cfg = _config_overlay(config_path, "hull", {
        "function": function_spec, "points": ";".join(points) or None, "r_grid": r_grid,
        "depth": depth,
    }, {"points": "0", "r_grid": "e,e2,e10", "depth": 40})
    f = _parse_function(cfg.get("function"))
    grid = [_parse_level(t) for t in str(cfg["r_grid"]).split(",")]
    entries = [classify_fiber(f, _parse_point(token), grid, depth=int(cfg["depth"]))
               for token in str(cfg["points"]).split(";")]
    verdict = HullVerdict(model_label=f.label, entries=tuple(entries))
    click.echo(f"{'point':>16}  {'classification':<14} w0")
    for e in entries:
        w0 = "-" if e.w0 is None else f"{e.w0.real:+.12f}{e.w0.imag:+.12f}j"
        click.echo(f"{e.point!s:>16}  {e.classification:<14} {w0}")
    _finish(out_dir, "hull", cfg, verdict.to_dict())


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
