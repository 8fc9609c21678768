"""Per-layer tracing from outside the package.

Spans (name, start, end, parent) are recorded around calls into each package
module, using a parent stack, and kept in memory.  The package is hooked
without editing it: through the public `potential=` parameter of
`classify_fiber` and `builder=` parameter of `certify_schedule`, and by
wrapping module attributes where the package looks them up.  Work counts are
computed from public return values.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from types import SimpleNamespace

import polarhull
from polarhull import cli, laurent, pshbuild, ratapprox


class Tracer:
    """Spans and work counts of one pass, for a single-threaded caller."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []       # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, count=None):
        """`fn` inside a span; `count(counts, result, args, kwargs)` after it returns.

        `name` may be a callable of (args, kwargs) for functions whose layer
        depends on an argument.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, out, args, kwargs)
            return out
        return traced

    def self_times(self) -> dict:
        """Per span name: (number of spans, total time, self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            n, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, total + end - start, own + end - start - child[i])
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an `ancestor` span somewhere above them."""
        hits = 0
        for rec in self.spans:
            parent = rec[3]
            if rec[0] != name:
                continue
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            hits += parent is not None
        return hits


# ------------------------------------------------------------------- counts

def _count_cover(c, cover, args, kwargs):
    c["cover_disks"] += len(cover)


def _count_wiener(c, report, args, kwargs):
    c["wiener_pairs"] += len(args[0]) * report.depth


def _count_fiber(c, entry, args, kwargs):
    c["classified"] += 1
    c["conclusive"] += entry.classification != "UNKNOWN"
    depth = kwargs.get("depth", 40)
    c["depth_capped_levels"] += sum(rep.depth < depth for rep in entry.wiener_reports)


def _surfaces(args, kwargs) -> int:
    """Absorbing surfaces of a walk: targets, the domain circle unless it is a target, obstacles."""
    target, domain = args[1], args[2]
    obstacles = args[3] if len(args) > 3 else kwargs.get("obstacles")
    targets = len(target) if isinstance(target, polarhull.DiskUnion) else 1
    shared = any(abs(d.center - domain.center) < 1e-12 and abs(d.radius - domain.radius) < 1e-12
                 for d in (target if isinstance(target, polarhull.DiskUnion) else [target]))
    return targets + (not shared) + len(obstacles or ())


def _is_grid(args, kwargs) -> bool:
    return kwargs.get("method", "wos") == "grid"


def _count_measure(c, est, args, kwargs):
    if _is_grid(args, kwargs):
        c["grid_free_nodes"] += est.walks
    else:
        c["wos_walk_surfaces"] += est.walks * _surfaces(args, kwargs)


def _count_field(c, field, args, kwargs):
    c["levels_certified"] += len(field.levels)
    for lev in field.levels:
        g = lev.grid.to_dict()
        c["grid_nodes"] += g["graph_count"] + g["box_count"] + g["offgraph_count"]


def _count_export(c, rows, args, kwargs):
    c["export_rows"] += len(rows)


def _count_build(c, approx, args, kwargs):
    c["degree_sum"] += approx.degree


def _count_leja(c, system, args, kwargs):
    c["distance_updates"] += len(system.points) * len(system.base_set)


# -------------------------------------------------------------------- hooks

def traced_lib(tracer: Tracer):
    """Traced library entry points, plus the module attributes to patch.

    Returns (lib, patches); `patches` is a list of (module, attribute, value)
    for `patched` to install around the CLI and the package's internal calls.
    """
    w = tracer.wrap
    cover = w(polarhull.sublevel_cover, "potential.sublevel_cover", _count_cover)
    wiener = w(polarhull.wiener_test, "potential.wiener_test", _count_wiener)
    potential = SimpleNamespace(sublevel_cover=cover, wiener_test=wiener)
    build = w(polarhull.build_approximant, "ratapprox.build_approximant", _count_build)
    leja = w(polarhull.leja_points, "fekete.leja_points", _count_leja)
    split = w(polarhull.laurent_split, "laurent.laurent_split")
    lib = SimpleNamespace(
        classify_fiber=w(functools.partial(polarhull.classify_fiber, potential=potential),
                         "hull.classify_fiber", _count_fiber),
        sublevel_cover=cover,
        harmonic_measure=w(polarhull.harmonic_measure,
                           lambda a, kw: "potential.grid" if _is_grid(a, kw) else "potential.wos",
                           _count_measure),
        certify_schedule=w(functools.partial(polarhull.certify_schedule, builder=build),
                           "pshbuild.certify_schedule", _count_field),
        export_field=w(polarhull.export_field, "pshbuild.export_field", _count_export),
        leja_points=leja,
        convergence_scan=w(polarhull.convergence_scan, "ratapprox.convergence_scan"),
        laurent_split=split,
        mittag_leffler=w(polarhull.mittag_leffler, "laurent.mittag_leffler"),
    )
    patches = [
        (pshbuild, "leja_points", leja),
        (ratapprox, "build_approximant", build),
        (laurent, "laurent_split", split),
        (cli, "classify_fiber", lib.classify_fiber),
        (cli, "certify_schedule", lib.certify_schedule),
        (cli, "export_field", lib.export_field),
        (cli, "sublevel_cover", cover),
        (cli, "wiener_test", wiener),
        (cli, "harmonic_measure", lib.harmonic_measure),
    ]
    return lib, patches


@contextlib.contextmanager
def patched(patches):
    """Install module-attribute wrappers; restore the originals afterwards."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, value in patches:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
