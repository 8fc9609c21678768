"""Construct and evaluate the layered log-potential field u(z, w).

Each level nu pins an approximant whose normalized log-potential
h(z, w) = (1/n) log |w q(z) - p(z)| satisfies three grid-verified bounds:
on-graph depth (h <= -nu), a box ceiling (h <= log(nu+2)), and an off-graph
floor (h >= -log(nu+1)) away from the graph.  The weighted series of clamped
levels plus a discrete Evans-style atomic potential gives a field that is
finite off the graph and plunges on it.

Minus infinity is represented by clamping.  h reports a NEG_INFINITY marker
(-inf) whenever the cleared modulus falls below its floating-point
cancellation shadow: past that point a finite value could not be certified
anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompactSample, PolarhullError, complex_to_pair, pointwise
from .fekete import leja_points
from .ratapprox import RationalApproximant, build_approximant

__all__ = [
    "ScheduleExhausted",
    "CertificationGrid",
    "PshLevel",
    "PshField",
    "GridSpec",
    "h_eval",
    "certify_schedule",
    "u_eval",
    "evans_discrete",
    "export_field",
]


class ScheduleExhausted(PolarhullError):
    """No degree below the cap certified the requested level."""

    def __init__(self, nu: int, best: dict):
        self.nu = nu
        self.best = best
        super().__init__(f"level nu={nu} not certified below degree cap; best bounds {best}")


QUAD_NOISE_SAFETY = 8.0


def h_values(approximant: RationalApproximant, z, w, *, floor: float | None = None,
             noise_rel: float = 1e-12) -> np.ndarray:
    """Vectorized h over broadcast (z, w); -inf marks sub-noise cancellations.

    The marker threshold combines the cancellation shadow of the cleared
    evaluation with the propagated quadrature noise of the coefficients; a
    modulus below it cannot be certified as a finite value in this precision.
    """
    diff, eval_shadow, quad_shadow = approximant.cleared_eval(z, w)
    n = approximant.normalization
    thr = noise_rel * eval_shadow + QUAD_NOISE_SAFETY * quad_shadow
    if floor is not None:
        thr = np.maximum(thr, math.exp(n * floor))
    mag = np.abs(np.atleast_1d(diff))
    thr = np.broadcast_to(np.atleast_1d(thr), mag.shape)
    out = np.full(mag.shape, -np.inf)
    live = mag > thr
    with np.errstate(divide="ignore"):
        out[live] = np.log(mag[live]) / n
    return out


@pointwise
def h_eval(approximant: RationalApproximant, z, w, *, floor: float | None = None,
           noise_rel: float = 1e-12) -> float:
    """(1/n) log |w q(z) - p(z)| in cleared form, or -inf below the noise shadow."""
    return h_values(approximant, z, w, floor=floor, noise_rel=noise_rel)


def evans_discrete(k: CompactSample):
    """Equal-weight atomic potential on the sample: -inf exactly on the atoms."""
    w = 1.0 / len(k)
    return [(complex(p), w) for p in k.points]


@dataclass(frozen=True, eq=False)
class CertificationGrid:
    """Finite grids on which the three level bounds are verified."""

    nu: int
    graph_nodes: np.ndarray           # z in D_nu
    box_nodes: tuple                  # (z, w) arrays on the |z|=|w|=nu torus
    offgraph_nodes: tuple             # (z, w) arrays with |w - f(z)| > 1/nu

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "graph_count": int(len(self.graph_nodes)),
            "box_count": int(len(self.box_nodes[0])),
            "offgraph_count": int(len(self.offgraph_nodes[0])),
        }


def _certification_grid(f, sample: CompactSample, nu: int, density: int) -> CertificationGrid:
    pts = sample.points
    cut = 1.0 / nu

    n_side = 2 * density * nu + 1
    axis = np.linspace(-nu, nu, n_side)
    zz = (axis[None, :] + 1j * axis[:, None]).ravel()
    keep = np.abs(zz) < nu
    zz = zz[keep]
    graph = zz[sample.min_distance_to(zz) > cut]

    # ring nodes hug the excluded neighborhoods where the bounds are tightest
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    rings = []
    for s in (1.02, 1.1, 1.3):
        ring = (pts[:, None] + s * cut * angles[None, :]).ravel()
        rings.append(ring)
    ring = np.concatenate(rings)
    ring = ring[(sample.min_distance_to(ring) > cut) & (np.abs(ring) < nu)]
    graph = np.concatenate([graph, ring])

    n_box = 48
    tb = np.exp(2j * np.pi * np.arange(n_box) / n_box)
    bz, bw = np.meshgrid(nu * tb, nu * tb)
    box = (bz.ravel(), bw.ravel())

    base = graph[::3]
    fb = np.asarray(f(base), dtype=complex)
    wa = np.exp(2j * np.pi * np.arange(8) / 8)
    oz, ow = [], []
    for s in (1.02, 1.5, 3.0):
        z_rep = np.repeat(base, len(wa))
        w_off = (fb[:, None] + s * cut * wa[None, :]).ravel()
        ok = np.abs(w_off) < nu
        oz.append(z_rep[ok])
        ow.append(w_off[ok])
    off = (np.concatenate(oz), np.concatenate(ow))
    return CertificationGrid(nu=nu, graph_nodes=graph, box_nodes=box, offgraph_nodes=off)


@dataclass(frozen=True, eq=False)
class PshLevel:
    nu: int
    approximant: RationalApproximant
    h_bound_graph: float
    h_bound_box: float
    h_bound_offgraph: float
    grid: CertificationGrid

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "degree": self.approximant.degree,
            "big_n": self.approximant.big_n,
            "h_bound_graph": self.h_bound_graph,
            "h_bound_box": self.h_bound_box,
            "h_bound_offgraph": self.h_bound_offgraph,
            "grid": self.grid.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class PshField:
    """Certified level stack, ready to evaluate as a single field."""

    levels: tuple
    floor_value: float
    evans_weights: tuple
    sample: CompactSample
    model: object
    noise_rel: float = 1e-12

    def level_clamp(self, nu: int) -> float:
        return -nu - math.log(nu + 2)

    def u_grid(self, z, w) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        out = np.zeros(np.broadcast(z, w).shape)
        for lev in self.levels:
            nu = lev.nu
            h = h_values(lev.approximant, z, w, noise_rel=self.noise_rel)
            h = h.reshape(out.shape)
            clamp = self.level_clamp(nu)
            out += np.maximum(h - math.log(nu + 2), clamp) / nu**2
        zb = np.broadcast_to(z, out.shape)
        with np.errstate(divide="ignore"):
            for atom, wt in self.evans_weights:
                out = out + wt * np.log(np.abs(zb - atom))
        return out

    def to_dict(self) -> dict:
        return {
            "levels": [lev.to_dict() for lev in self.levels],
            "floor_value": self.floor_value,
            "evans_weights": [
                {"atom": complex_to_pair(a), "weight": wgt} for a, wgt in self.evans_weights
            ],
            "sample": self.sample.to_dict(),
        }


@pointwise
def u_eval(field: PshField, z, w) -> float:
    """Weighted sum of clamped levels plus the atomic potential.

    Finite everywhere except exactly on the atoms, where -inf is returned.
    """
    return field.u_grid(z, w)


def certify_schedule(f, k: CompactSample, nu_max: int = 4, *, degree_cap: int = 200,
                     density: int = 10, n_scale: int = 2, quad_tol: float = 1e-13,
                     noise_rel: float = 1e-12, builder=build_approximant) -> PshField:
    """Search outer orders per level until the three grid bounds certify.

    The denominator degree m is pinned to the sample size (finite samples are
    consumed exactly); the outer order N increases until the level certifies or
    the degree cap is hit.  Levels reuse the approximant cache, and the search
    for level nu+1 starts at the order that certified level nu.
    """
    if not 2 <= nu_max <= 12:
        raise ValueError("nu_max must be in [2, 12]")
    m = len(k)
    sys = leja_points(k, m)
    cache: dict[int, RationalApproximant] = {}

    def approx_for(n: int) -> RationalApproximant:
        if n not in cache:
            cache[n] = builder(f, sys, m, n, n_scale, quad_tol=quad_tol)
        return cache[n]

    levels = []
    start_n = 1
    for nu in range(2, nu_max + 1):
        grid = _certification_grid(f, k, nu, density)
        fz = np.asarray(f(grid.graph_nodes), dtype=complex)
        best = {"graph": np.inf, "box": np.inf, "offgraph": -np.inf, "big_n": None}
        certified = None
        n = start_n
        while m * n <= max(degree_cap, m):
            approx = approx_for(n)
            hg = float(np.max(h_values(approx, grid.graph_nodes, fz, noise_rel=noise_rel)))
            hb = float(np.max(h_values(approx, *grid.box_nodes, noise_rel=noise_rel)))
            ho = float(np.min(h_values(approx, *grid.offgraph_nodes, noise_rel=noise_rel)))
            if hg < best["graph"]:
                best.update(graph=hg, box=hb, offgraph=ho, big_n=n)
            # an approximant whose quadrature never settled certifies nothing
            ok = (approx.converged and hg <= -nu and hb <= math.log(nu + 2)
                  and ho >= -math.log(nu + 1))
            if ok:
                certified = PshLevel(
                    nu=nu, approximant=approx, h_bound_graph=hg,
                    h_bound_box=hb, h_bound_offgraph=ho, grid=grid,
                )
                break
            n += 1
        if certified is None:
            raise ScheduleExhausted(nu, best)
        levels.append(certified)
        start_n = certified.approximant.big_n

    floor = sum((-nu - math.log(nu + 2)) / nu**2 for nu in range(2, nu_max + 1))
    return PshField(
        levels=tuple(levels),
        floor_value=floor,
        evans_weights=tuple(evans_discrete(k)),
        sample=k,
        model=f,
        noise_rel=noise_rel,
    )


@dataclass(frozen=True)
class GridSpec:
    """Rectangular slice of (z, w) space for field export."""

    kind: str  # fixed_w | fixed_z | graph_tube
    params: dict

    @classmethod
    def fixed_w(cls, w, re_range, im_range, nx: int, ny: int) -> "GridSpec":
        return cls("fixed_w", {"w": complex(w), "re_range": tuple(re_range),
                               "im_range": tuple(im_range), "nx": int(nx), "ny": int(ny)})

    @classmethod
    def fixed_z(cls, z, re_range, im_range, nx: int, ny: int) -> "GridSpec":
        return cls("fixed_z", {"z": complex(z), "re_range": tuple(re_range),
                               "im_range": tuple(im_range), "nx": int(nx), "ny": int(ny)})

    @classmethod
    def graph_tube(cls, re_range, nx: int, offsets) -> "GridSpec":
        return cls("graph_tube", {"re_range": tuple(re_range), "nx": int(nx),
                                  "offsets": [complex(t) for t in offsets]})


def export_field(field: PshField, grid: GridSpec):
    """Tabulate the field on a slice, row-major; rows [z_re, z_im, w_re, w_im, u]."""
    p = grid.params
    if grid.kind in ("fixed_w", "fixed_z"):
        re = np.linspace(*p["re_range"], p["nx"])
        im = np.linspace(*p["im_range"], p["ny"])
        plane = re[None, :] + 1j * im[:, None]
        fixed = np.full_like(plane, p["w" if grid.kind == "fixed_w" else "z"])
        zs, ws = (plane, fixed) if grid.kind == "fixed_w" else (fixed, plane)
        us = field.u_grid(zs, ws)
    elif grid.kind == "graph_tube":
        zs = np.linspace(*p["re_range"], p["nx"]).astype(complex)
        # at a pole f(z) and the cleared moduli overflow: u is -inf or NaN there
        with np.errstate(divide="ignore", invalid="ignore"):
            fz = np.asarray(field.model(zs), dtype=complex)
            ws = fz + np.asarray(p["offsets"], dtype=complex).reshape(-1, 1)
            us = field.u_grid(zs, ws)
    else:
        raise ValueError(f"unknown slice kind {grid.kind!r}")
    zs, ws = np.broadcast_arrays(zs, ws)
    return np.column_stack([zs.real.ravel(), zs.imag.ravel(), ws.real.ravel(),
                            ws.imag.ravel(), us.ravel()]).tolist()
