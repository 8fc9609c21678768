"""Construct and evaluate the layered log-potential field u(z, w).

Each level nu pins an approximant whose normalized log-potential
h(z, w) = (1/n) log |w q(z) - p(z)| satisfies three bounds: on-graph depth
(h <= -nu), a box ceiling (h <= log(nu+2)) on the torus |z| = |w| = nu, and
an off-graph floor (h >= -log(nu+1)) where |w - f(z)| > 1/nu.  Only the
depth is evaluated on (z, w) nodes, the graph nodes (z, f(z)).  Off the
graph |w q^N - p| = |q(z)|^N |w - f_N(z)|, so the floor follows from the
same nodes' |f - f_N| and |q|, in the same pass as the depth, and the ceiling
is a Horner pass on |z| = |w| = nu over every coefficient row at once.  The
weighted series of clamped levels plus a discrete Evans-style atomic
potential gives a field that is finite off the graph and plunges on it.

Minus infinity is represented by clamping.  h reports a NEG_INFINITY marker
(-inf) whenever the cleared modulus falls below its floating-point
cancellation shadow: past that point a finite value could not be certified
anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompactSample, PolarhullError, _horner, complex_to_pair, pointwise
from .fekete import leja_points
from .ratapprox import RationalApproximant, build_approximant

__all__ = [
    "ScheduleExhausted",
    "CertificationGrid",
    "PshLevel",
    "PshField",
    "GridSpec",
    "certify_schedule",
    "u_eval",
    "export_field",
]


class ScheduleExhausted(PolarhullError):
    """No degree below the cap certified the requested level."""

    def __init__(self, nu: int, best: dict, tried: tuple):
        self.nu = nu
        self.best = best
        self.tried = tried  # every (N, h_graph, h_box, h_offgraph, converged), in order
        super().__init__(f"level nu={nu} not certified below degree cap; best bounds {best}")


QUAD_NOISE_SAFETY = 8.0
NOISE_REL = 1e-12
CERTIFY_QUAD_TOL = 1e-13


def _noise_threshold(eval_shadow, quad_shadow):
    """The cleared modulus below which a value is cancellation or quadrature noise."""
    return NOISE_REL * eval_shadow + QUAD_NOISE_SAFETY * quad_shadow


def _h_of_cleared(cleared, n: int) -> np.ndarray:
    """(1/n) log |w q(z) - p(z)| from `cleared_eval`, -inf where it is below the noise."""
    diff, eval_shadow, quad_shadow = cleared
    thr = _noise_threshold(eval_shadow, quad_shadow)
    mag = np.abs(diff)
    out = np.full(mag.shape, -np.inf)
    live = mag > thr
    with np.errstate(divide="ignore"):
        out[live] = np.log(mag[live]) / n
    return out


@dataclass(frozen=True, eq=False)
class CertificationGrid:
    """The graph nodes on which a level is certified, on the boundary of its region.

    Both bounds that read them are extremes of log-subharmonic quantities over
    {|z| <= nu, dist(z, K) >= 1/nu}, so they peak on its boundary (maximum
    principle).  The box ceiling reads none, so `to_dict()` counts them as
    graph and off-graph nodes and the box as 0.
    """

    nu: int
    graph_nodes: np.ndarray

    def to_dict(self) -> dict:
        count = int(len(self.graph_nodes))
        return {"nu": self.nu, "graph_count": count, "box_count": 0, "offgraph_count": count}


GRID_DENSITY = 10  # certification nodes per unit length of the circle |z| = nu


def _certification_grid(sample: CompactSample, nu: int) -> CertificationGrid:
    cut = 1.0 / nu
    n_outer = math.ceil(2 * math.pi * nu * GRID_DENSITY)
    outer = nu * np.exp(2j * np.pi * np.arange(n_outer) / n_outer)
    # 256 per circle keeps recip-sin-pi-8's floor at nu = 6..8 below the 2-D lattice's
    rings = (sample.points[:, None] + cut * np.exp(2j * np.pi * np.arange(256) / 256)).ravel()
    z = np.concatenate([outer, rings])
    # drop a node only strictly inside another excluded disk, not for its own circle's rounding
    return CertificationGrid(nu=nu, graph_nodes=z[sample.min_distance_to(z) > cut * (1 - 1e-9)])


def _graph_bounds(approx: RationalApproximant, abs_q, cleared, nu: int) -> tuple:
    """(largest h, lower bound of h where |w - f(z)| > 1/nu) from the graph nodes' values.

    On the graph the cleared difference is q^N (f - f_N), so R_N = (|diff| + thr) / |q|^N,
    thr the noise threshold, bounds |f - f_N| at each node, and off the graph
    |w q^N - p| >= |q|^N (1/nu - R_N).  R_N is formed in logs, where |q|^N cannot
    underflow.  The floor is -inf (never certifies) unless max R_N is finite and
    below 1/nu.  `abs_q` is |q| on the nodes."""
    diff, eval_shadow, quad_shadow = cleared
    mag, thr = np.abs(diff), _noise_threshold(eval_shadow, quad_shadow)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        graph = float(np.max(np.log(mag[mag > thr]), initial=-np.inf)) / approx.normalization
        log_q = np.log(abs_q)
        margin = 1.0 / nu - np.exp(np.max(np.log(mag + thr) - approx.big_n * log_q))
        if not (np.isfinite(margin) and margin > 0):
            return graph, -math.inf
        return graph, float(approx.big_n * np.min(log_q) + np.log(margin)) / approx.normalization


def _box_ceiling(approx: RationalApproximant, nu: int) -> float:
    """Upper bound of h on the torus |z| = |w| = nu, with no nodes.

    There |q| <= P = prod(nu + |r_i|) over the roots of q_m, so |diff| is at
    most its cancellation shadow with |q| replaced by P, plus the quadrature
    noise at the safety factor: one Horner pass in P from nu + |A|(nu) over
    |c_k|(nu) + QUAD_NOISE_SAFETY noise_k(nu), every row's in one pass in nu.
    """
    r = float(nu)
    p = math.prod(r + abs(root) for root in approx.poles)
    terms = (_horner(np.abs(approx.coeffs).T[::-1], r)
             + QUAD_NOISE_SAFETY * _horner(approx.noise.T[::-1], r))
    with np.errstate(over="ignore"):
        s = _horner(terms, p, r + approx.analytic_part.abs_eval(r))
        return float(np.log(s)) / approx.normalization


TRIED_KEYS = ("big_n", "h_bound_graph", "h_bound_box", "h_bound_offgraph", "converged")


@dataclass(frozen=True, eq=False)
class PshLevel:
    nu: int
    approximant: RationalApproximant
    h_bound_graph: float
    h_bound_box: float
    h_bound_offgraph: float
    grid: CertificationGrid
    tried: tuple  # every (N, h_graph, h_box, h_offgraph, converged), in order

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "degree": self.approximant.degree,
            "big_n": self.approximant.big_n,
            "exact": self.approximant.exact,
            "h_bound_graph": self.h_bound_graph,
            "h_bound_box": self.h_bound_box,
            "h_bound_offgraph": self.h_bound_offgraph,
            "grid": self.grid.to_dict(),
            "tried": [dict(zip(TRIED_KEYS, entry)) for entry in self.tried],
        }


@dataclass(frozen=True, eq=False)
class PshField:
    """Certified level stack plus the atomic potential of weight 1/|K| at each sample point."""

    levels: tuple
    floor_value: float
    sample: CompactSample
    model: object

    def to_dict(self) -> dict:
        return {
            "levels": [lev.to_dict() for lev in self.levels],
            "floor_value": self.floor_value,
            "evans_weights": [
                {"atom": complex_to_pair(a), "weight": 1.0 / len(self.sample)}
                for a in self.sample.points
            ],
            "sample": self.sample.to_dict(),
        }


def _level_clamp(nu: int) -> float:
    """The value below which level nu's term h - log(nu + 2) is clamped."""
    return -nu - math.log(nu + 2)


@pointwise
def u_eval(field: PshField, z, w):
    """Weighted sum of clamped levels plus the atomic potential, over broadcast (z, w).

    Finite everywhere except exactly on the atoms, where -inf is returned.
    Each level's h is `_h_of_cleared` of one cleared fold carried across the
    levels: a level that keeps the last one's approximant reuses its h, one
    that extends its rows folds only the new ones, and any other refolds.
    """
    out = np.zeros(np.broadcast(z, w).shape)
    fold = None
    for lev in field.levels:
        nu = lev.nu
        if fold is None or fold[0] is not lev.approximant:
            cleared, fold = lev.approximant.cleared_fold(z, w, fold)
            h = _h_of_cleared(cleared, lev.approximant.normalization).reshape(out.shape)
        out += np.maximum(h - math.log(nu + 2), _level_clamp(nu)) / nu**2
    zb = np.broadcast_to(z, out.shape)
    weight = 1.0 / len(field.sample)
    with np.errstate(divide="ignore"):
        for atom in field.sample.points:
            out = out + weight * np.log(np.abs(zb - atom))
    return out


DEGREE_CAP = 200  # the largest degree m*N a level tries (m itself when m is larger)
MAX_NU = 12  # the deepest level a schedule may request


def certify_schedule(f, k: CompactSample, nu_max: int = 4, *,
                     builder=build_approximant) -> PshField:
    """Search outer orders per level until the three bounds certify.

    The denominator degree m is pinned to the sample size (finite samples are
    consumed exactly); the outer order N increases until the level certifies
    or DEGREE_CAP is passed.  The search for level nu+1 starts at the order
    that certified level nu, reusing that approximant.  Each try evaluates the
    cleared difference once, on the graph nodes (z, f(z)); one pass over it
    (`_graph_bounds`) gives the graph bound and the off-graph floor.  The box
    ceiling (`_box_ceiling`) needs no nodes.  The search is incremental:
    builds share their rows on the Leja system, and each try extends the
    previous try's cleared fold by the rows its order adds (refolding if
    those rows changed), every bound bitwise that of a fresh try.
    """
    if not 2 <= nu_max <= MAX_NU:
        raise ValueError(f"nu_max must be in [2, {MAX_NU}]")
    m = len(k)
    sys = leja_points(k, m)

    levels = []
    approx, built_n = None, 1  # the last approximant built and its order
    for nu in range(2, nu_max + 1):
        grid = _certification_grid(k, nu)
        z = grid.graph_nodes
        fz = np.asarray(f(z), dtype=complex)
        tried = []
        certified = fold = None
        n = built_n
        while m * n <= max(DEGREE_CAP, m):
            if approx is None or n != built_n:
                approx, built_n = builder(f, sys, m, n, quad_tol=CERTIFY_QUAD_TOL), n
            cleared, fold = approx.cleared_fold(z, fz, fold)
            hg, ho = _graph_bounds(approx, fold[2], cleared, nu)  # fold[2]: |q| on z
            hb = _box_ceiling(approx, nu)
            tried.append((n, hg, hb, ho, approx.converged))
            # an approximant whose quadrature never settled certifies nothing
            ok = (approx.converged and hg <= -nu and hb <= math.log(nu + 2)
                  and ho >= -math.log(nu + 1))
            if ok:
                certified = PshLevel(
                    nu=nu, approximant=approx, h_bound_graph=hg,
                    h_bound_box=hb, h_bound_offgraph=ho, grid=grid, tried=tuple(tried),
                )
                break
            n += 1
        if certified is None:
            big_n, hg, hb, ho, conv = min(tried, key=lambda t: t[1])  # the first lowest graph bound
            best = {"graph": hg, "box": hb, "offgraph": ho, "big_n": big_n, "converged": conv}
            raise ScheduleExhausted(nu, best, tuple(tried))
        levels.append(certified)

    floor = sum(_level_clamp(nu) / nu**2 for nu in range(2, nu_max + 1))
    return PshField(levels=tuple(levels), floor_value=floor, sample=k, model=f)


@dataclass(frozen=True)
class GridSpec:
    """The graph tube for field export: nx real z across re_range, w = f(z) + each offset."""

    re_range: tuple
    nx: int
    offsets: tuple

    @classmethod
    def graph_tube(cls, re_range, nx: int, offsets) -> "GridSpec":
        return cls(tuple(re_range), int(nx), tuple(complex(t) for t in offsets))


def export_field(field: PshField, grid: GridSpec):
    """Tabulate the field on the graph tube, row-major; rows [z_re, z_im, w_re, w_im, u]."""
    zs = np.linspace(*grid.re_range, grid.nx).astype(complex)
    # at a pole f(z) and the cleared moduli overflow: u is -inf or NaN there
    with np.errstate(divide="ignore", invalid="ignore"):
        fz = np.asarray(field.model(zs), dtype=complex)
        ws = fz + np.asarray(grid.offsets, dtype=complex).reshape(-1, 1)
        us = u_eval(field, zs, ws)
    zs, ws = np.broadcast_arrays(zs, ws)
    return np.column_stack([zs.real.ravel(), zs.imag.ravel(), ws.real.ravel(),
                            ws.imag.ravel(), us.ravel()]).tolist()
